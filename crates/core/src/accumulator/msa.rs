//! Masked Sparse Accumulator (paper §5.2): two dense arrays of length
//! `ncols` — `values` and `states` — plus, in complemented mode, a list of
//! inserted keys so the gather need not scan the whole array.
//!
//! The arrays are allocated once per worker thread and reused across rows;
//! each row resets exactly the entries it touched (the mask entries in
//! normal mode, the inserted entries in complemented mode), so the
//! amortized per-row init is `O(nnz(m_i))`, not `O(ncols)`. A
//! complemented row marks nothing: its mask arrives as bits
//! ([`crate::mask`]), which the filter reads instead of the states.

use super::{Accumulator, State};
use crate::mask::outside;
use crate::schedule::ProductCounts;
use mspgemm_sparse::Idx;

/// Dense masked sparse accumulator. `default_state` distinguishes the
/// normal mode (default `NotAllowed`, mask marks `Allowed`) from the
/// complemented mode (default `Allowed`; the mask's bits, not the states,
/// keep its columns out).
pub struct Msa<V> {
    states: Vec<State>,
    values: Vec<V>,
    default_state: State,
    /// Keys inserted this row — maintained only in complemented mode,
    /// where the gather cannot walk the mask.
    inserted: Vec<Idx>,
    track_inserted: bool,
    /// Stage-1 output of [`Msa::accumulate_row`]: the positions of the
    /// current B row whose column the mask admits. Grown lazily to the
    /// longest B row seen (a CSR row holds at most `ncols` entries, so at
    /// most `4·ncols` bytes) and parked with the workspace, so pooled
    /// drives allocate nothing here in steady state.
    admitted: Vec<u32>,
    /// Products formed / admitted since the last
    /// [`Msa::take_product_counts`].
    counts: ProductCounts,
}

impl<V: Copy + Default> Msa<V> {
    /// A normal-mode MSA over `ncols` columns (default state NOTALLOWED).
    pub fn new(ncols: usize) -> Self {
        Self {
            states: vec![State::NotAllowed; ncols],
            values: vec![V::default(); ncols],
            default_state: State::NotAllowed,
            inserted: Vec::new(),
            track_inserted: false,
            admitted: Vec::new(),
            counts: ProductCounts::default(),
        }
    }

    /// A complemented-mode MSA: every key starts ALLOWED, the row entries
    /// test the mask's bits, and inserted keys are tracked for the gather
    /// (§5.2 "an additional array to keep track of the elements that were
    /// inserted").
    pub fn new_complement(ncols: usize) -> Self {
        Self {
            states: vec![State::Allowed; ncols],
            values: vec![V::default(); ncols],
            default_state: State::Allowed,
            inserted: Vec::new(),
            track_inserted: true,
            admitted: Vec::new(),
            counts: ProductCounts::default(),
        }
    }

    /// Reset bookkeeping for a new row. The dense arrays are already in
    /// their default state (maintained by `gather_*`).
    #[inline]
    pub fn begin_row(&mut self) {
        self.inserted.clear();
    }

    /// Mark the mask row ALLOWED (normal mode).
    #[inline]
    pub fn load_mask(&mut self, mask_cols: &[Idx]) {
        debug_assert_eq!(self.default_state, State::NotAllowed);
        for &j in mask_cols {
            self.states[j as usize] = State::Allowed;
        }
    }

    /// Numeric row entry: scale-and-accumulate one row of `B` (`cols`,
    /// `vals`) — the products `mul(vals[p])` landing on columns `cols[p]`.
    ///
    /// Equivalent, product for product and in the same order, to calling
    /// [`Accumulator::insert_with`] on each `(cols[p], || mul(vals[p]))`:
    /// `mul` runs only for admitted products (§5.1) and every column sees
    /// its additions in the order the caller presents B rows. What differs
    /// is where the mask test goes: at a typical admission ratio it is a
    /// coin flip, and as a branch it costs a misprediction per admitted
    /// product — more than the multiply-add it guards. So the row runs in
    /// two stages:
    ///
    /// 1. **filter** — a branch-free pass over the state bytes that writes
    ///    every position into the `admitted` scratch and advances the
    ///    write cursor by `(state != NOTALLOWED) as usize`, so the mask
    ///    test never reaches the branch predictor;
    /// 2. **accumulate** — `mul` and `add` over the admitted positions
    ///    only, in B-row order, where the one branch left (`ALLOWED` vs
    ///    `SET`) is almost always `SET` once a row has warmed up.
    #[inline]
    pub fn accumulate_row<R: Copy>(
        &mut self,
        cols: &[Idx],
        vals: &[R],
        mul: impl Fn(R) -> V,
        add: impl Fn(V, V) -> V,
    ) {
        let admit = |states: &[State], j: Idx| (states[j as usize] != State::NotAllowed) as usize;
        self.accumulate_filtered(cols, vals, admit, mul, add);
    }

    /// [`Msa::accumulate_row`] of a complemented-mode row, whose filter
    /// admits the columns whose bit is clear in the mask row `bits`.
    #[inline]
    pub fn accumulate_row_outside<R: Copy>(
        &mut self,
        cols: &[Idx],
        vals: &[R],
        bits: &[u64],
        mul: impl Fn(R) -> V,
        add: impl Fn(V, V) -> V,
    ) {
        debug_assert_eq!(self.default_state, State::Allowed);
        self.accumulate_filtered(cols, vals, |_, j| outside(bits, j), mul, add);
    }

    /// The row entries' two stages, `admit(states, cols[p])` (`0` or `1`)
    /// deciding the filter.
    #[inline(always)]
    fn accumulate_filtered<R: Copy>(
        &mut self,
        cols: &[Idx],
        vals: &[R],
        admit: impl Fn(&[State], Idx) -> usize,
        mul: impl Fn(R) -> V,
        add: impl Fn(V, V) -> V,
    ) {
        assert_eq!(cols.len(), vals.len(), "one value per column index");
        debug_assert!(u32::try_from(cols.len()).is_ok(), "positions fit u32");
        if self.admitted.len() < cols.len() {
            self.admitted.resize(cols.len(), 0);
        }
        let admitted = &mut self.admitted[..cols.len()];
        let mut n = 0;
        for (p, &j) in cols.iter().enumerate() {
            admitted[n] = p as u32;
            n += admit(&self.states, j);
        }
        for &p in &admitted[..n] {
            let key = cols[p as usize];
            let k = key as usize;
            let v = mul(vals[p as usize]);
            if self.states[k] == State::Set {
                self.values[k] = add(self.values[k], v);
            } else {
                self.values[k] = v;
                self.states[k] = State::Set;
                if self.track_inserted {
                    self.inserted.push(key);
                }
            }
        }
        self.counts.formed += cols.len() as u64;
        self.counts.admitted += n as u64;
    }

    /// Products formed and admitted by [`Msa::accumulate_row`] since the
    /// last call; resets both to zero.
    pub fn take_product_counts(&mut self) -> ProductCounts {
        std::mem::take(&mut self.counts)
    }

    /// Pattern-only insert for the symbolic phase: marks SET, counts new
    /// keys.
    #[inline(always)]
    pub fn accumulate_symbolic(&mut self, key: Idx) -> bool {
        let k = key as usize;
        match self.states[k] {
            State::NotAllowed => false,
            State::Allowed => {
                self.states[k] = State::Set;
                if self.track_inserted {
                    self.inserted.push(key);
                }
                true
            }
            State::Set => false,
        }
    }

    /// Normal-mode gather: walk the mask row in order, emit SET entries
    /// (sorted and stable by construction — §5.2), and restore every
    /// touched state to NOTALLOWED.
    ///
    /// Returns the number of entries written.
    pub fn gather_into(
        &mut self,
        mask_cols: &[Idx],
        out_cols: &mut [Idx],
        out_vals: &mut [V],
    ) -> usize {
        debug_assert_eq!(self.default_state, State::NotAllowed);
        let mut w = 0;
        for &j in mask_cols {
            let k = j as usize;
            if self.states[k] == State::Set {
                out_cols[w] = j;
                out_vals[w] = self.values[k];
                w += 1;
            }
            self.states[k] = State::NotAllowed;
        }
        w
    }

    /// Normal-mode symbolic gather: count SET entries and reset.
    pub fn count_and_reset(&mut self, mask_cols: &[Idx]) -> usize {
        debug_assert_eq!(self.default_state, State::NotAllowed);
        let mut n = 0;
        for &j in mask_cols {
            let k = j as usize;
            if self.states[k] == State::Set {
                n += 1;
            }
            self.states[k] = State::NotAllowed;
        }
        n
    }

    /// Complemented-mode gather: sort the inserted keys (insertion order is
    /// not column order), emit them, and restore them to ALLOWED.
    pub fn gather_complement_into(&mut self, out_cols: &mut [Idx], out_vals: &mut [V]) -> usize {
        debug_assert_eq!(self.default_state, State::Allowed);
        self.inserted.sort_unstable();
        let n = self.inserted.len();
        for (w, &j) in self.inserted.iter().enumerate() {
            let k = j as usize;
            debug_assert_eq!(self.states[k], State::Set);
            out_cols[w] = j;
            out_vals[w] = self.values[k];
            self.states[k] = State::Allowed;
        }
        self.inserted.clear();
        n
    }

    /// Complemented-mode symbolic gather: count inserted keys and reset.
    pub fn count_and_reset_complement(&mut self) -> usize {
        debug_assert_eq!(self.default_state, State::Allowed);
        let n = self.inserted.len();
        for &j in &self.inserted {
            self.states[j as usize] = State::Allowed;
        }
        self.inserted.clear();
        n
    }

    /// Current state of `key` (test/diagnostic helper).
    pub fn state(&self, key: Idx) -> State {
        self.states[key as usize]
    }
}

impl<V: Copy + Default> Accumulator<V> for Msa<V> {
    fn set_allowed(&mut self, key: Idx) {
        if self.states[key as usize] == State::NotAllowed {
            self.states[key as usize] = State::Allowed;
        }
    }

    fn insert_with(
        &mut self,
        key: Idx,
        value: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) -> bool {
        let k = key as usize;
        match self.states[k] {
            State::NotAllowed => false,
            State::Allowed => {
                self.values[k] = value();
                self.states[k] = State::Set;
                if self.track_inserted {
                    self.inserted.push(key);
                }
                true
            }
            State::Set => {
                let v = value();
                self.values[k] = add(self.values[k], v);
                true
            }
        }
    }

    fn remove(&mut self, key: Idx) -> Option<V> {
        let k = key as usize;
        if self.states[k] == State::Set {
            self.states[k] = State::Allowed;
            Some(self.values[k])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::test_rows::*;
    use crate::mask::bit;
    use proptest::prelude::*;

    /// One single-product B row per call: the row entry as a per-product
    /// insert, for the flow tests below.
    fn put(m: &mut Msa<i64>, key: Idx, value: i64) {
        m.accumulate_row(&[key], &[value], |v| v, |a, b| a + b);
    }

    #[test]
    fn normal_mode_gather_resets_for_reuse() {
        let mut m: Msa<i64> = Msa::new(10);
        m.begin_row();
        m.load_mask(&[2, 5, 7]);
        put(&mut m, 2, 10);
        put(&mut m, 2, 1);
        put(&mut m, 5, 3);
        put(&mut m, 9, 99); // not allowed — dropped
        let mut cols = [0 as Idx; 3];
        let mut vals = [0i64; 3];
        let n = m.gather_into(&[2, 5, 7], &mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[2, 5]);
        assert_eq!(&vals[..2], &[11, 3]);
        // All states back to NOTALLOWED — reusable for the next row.
        for j in 0..10 {
            assert_eq!(m.state(j), State::NotAllowed);
        }
    }

    #[test]
    fn complement_mode_blocks_mask_entries() {
        let mut m: Msa<i64> = Msa::new_complement(8);
        m.begin_row();
        let bits = row_bits(&[1, 4], 8);
        let mut put =
            |key, value| m.accumulate_row_outside(&[key], &[value], &bits, |v| v, |a, b| a + b);
        put(1, 5); // masked out in complement mode
        put(0, 7);
        put(6, 2);
        put(0, 3);
        let mut cols = [0 as Idx; 8];
        let mut vals = [0i64; 8];
        let n = m.gather_complement_into(&mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[0, 6], "gather must sort inserted keys");
        assert_eq!(&vals[..2], &[10, 2]);
        for j in 0..8 {
            assert_eq!(m.state(j), State::Allowed, "complement default restored");
        }
    }

    #[test]
    fn symbolic_counts_match_numeric() {
        let mut m: Msa<i64> = Msa::new(6);
        m.begin_row();
        m.load_mask(&[0, 2, 4]);
        assert!(m.accumulate_symbolic(0));
        assert!(!m.accumulate_symbolic(0), "second hit is not a new key");
        assert!(!m.accumulate_symbolic(1), "not allowed");
        assert!(m.accumulate_symbolic(4));
        assert_eq!(m.count_and_reset(&[0, 2, 4]), 2);
    }

    #[test]
    fn rows_reuse_cleanly() {
        let mut m: Msa<i64> = Msa::new(5);
        for round in 0..3 {
            m.begin_row();
            m.load_mask(&[1, 3]);
            put(&mut m, 1, round);
            let mut cols = [0 as Idx; 2];
            let mut vals = [0i64; 2];
            let n = m.gather_into(&[1, 3], &mut cols, &mut vals);
            assert_eq!(n, 1);
            assert_eq!(vals[0], round);
        }
    }

    /// A mask row over `ncols` columns as bits.
    fn row_bits(mask: &[Idx], ncols: usize) -> Vec<u64> {
        let mut bits = vec![0u64; ncols.div_ceil(64)];
        for &j in mask {
            bits[j as usize / 64] |= 1 << (j % 64);
        }
        bits
    }

    /// One output row both ways — B rows through the row entry, the same
    /// products one at a time through the §5.1 reference `insert_with`
    /// (behind the mask test, under a complemented mask) — compared on
    /// everything observable: the gathered row bit for bit, the
    /// complement `inserted` order, the count of `mul` evaluations, and
    /// the formed/admitted counters.
    fn assert_row_entry_matches_reference(
        ncols: usize,
        complement: bool,
        mask: &[Idx],
        b_rows: &[BRow],
    ) {
        let bits = row_bits(mask, ncols);
        let make = || -> Msa<f64> {
            let mut m = if complement {
                Msa::new_complement(ncols)
            } else {
                Msa::new(ncols)
            };
            m.begin_row();
            if !complement {
                m.load_mask(mask);
            }
            m
        };
        let gather = |m: &mut Msa<f64>| {
            let mut cols = vec![0 as Idx; ncols];
            let mut vals = vec![0f64; ncols];
            let n = if complement {
                m.gather_complement_into(&mut cols, &mut vals)
            } else {
                m.gather_into(mask, &mut cols, &mut vals)
            };
            let bits: Vec<u64> = vals[..n].iter().map(|v| v.to_bits()).collect();
            (cols[..n].to_vec(), bits)
        };
        let muls = std::cell::Cell::new(0u64);
        let mul = |v: f64| {
            muls.set(muls.get() + 1);
            3.0 * v
        };
        let add = |a: f64, b: f64| a + b;

        let mut want = make();
        let mut admitted = 0u64;
        for (cols, vals) in b_rows {
            for (&j, &v) in cols.iter().zip(vals) {
                if !(complement && bit(&bits, j)) {
                    admitted += want.insert_with(j, || mul(v), add) as u64;
                }
            }
        }
        assert_eq!(muls.get(), admitted, "reference evaluates lazily");
        let formed = b_rows.iter().map(|(c, _)| c.len() as u64).sum();

        muls.set(0);
        let mut got = make();
        for (cols, vals) in b_rows {
            if complement {
                got.accumulate_row_outside(cols, vals, &bits, mul, add);
            } else {
                got.accumulate_row(cols, vals, mul, add);
            }
        }
        assert_eq!(muls.get(), admitted, "`mul` must run for admitted only");
        assert_eq!(
            got.take_product_counts(),
            ProductCounts { formed, admitted }
        );
        assert_eq!(got.take_product_counts(), ProductCounts::default());
        assert_eq!(got.inserted, want.inserted, "complement insertion order");
        assert_eq!(gather(&mut got), gather(&mut want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn row_entry_matches_per_product_reference(
            mask_density in 0usize..3,
            mask_cells in proptest::collection::vec(0u32..1_000_000, 40),
            b_densities in proptest::collection::vec(0usize..3, 6),
            b_cells in proptest::collection::vec(
                proptest::collection::vec(0u32..1_000_000, 40),
                0..=6,
            ),
        ) {
            let (mask, _) = sparse_row(&mask_cells, MASK_PER_MILLE[mask_density], 1);
            let b_rows: Vec<_> = b_cells
                .iter()
                .zip(&b_densities)
                .map(|(cells, &d)| sparse_row(cells, B_ROW_PER_MILLE[d], 1))
                .collect();
            for complement in [false, true] {
                assert_row_entry_matches_reference(40, complement, &mask, &b_rows);
            }
        }
    }

    #[test]
    fn accumulation_order_is_pinned_bit_for_bit() {
        let b_rows = order_sensitive_rows();
        for complement in [false, true] {
            let mask: &[Idx] = if complement { &[1] } else { &[3, 5] };
            assert_row_entry_matches_reference(8, complement, mask, &b_rows);
            let mut m: Msa<f64> = if complement {
                Msa::new_complement(8)
            } else {
                Msa::new(8)
            };
            m.begin_row();
            let bits = row_bits(mask, 8);
            if !complement {
                m.load_mask(mask);
            }
            for (cols, vals) in &b_rows {
                if complement {
                    m.accumulate_row_outside(cols, vals, &bits, |v| v, |a, b| a + b);
                } else {
                    m.accumulate_row(cols, vals, |v| v, |a, b| a + b);
                }
            }
            let (mut cols, mut vals) = ([0 as Idx; 8], [0f64; 8]);
            let n = if complement {
                m.gather_complement_into(&mut cols, &mut vals)
            } else {
                m.gather_into(mask, &mut cols, &mut vals)
            };
            assert_eq!((&cols[..n], &vals[..n]), (&[3, 5][..], &[0.0, 1.0][..]));
        }
    }

    #[test]
    fn scratch_grows_with_the_longest_b_row_only() {
        let mut m: Msa<f64> = Msa::new(64);
        assert_eq!(m.admitted.len(), 0, "never pre-sized");
        m.begin_row();
        let add = |a: f64, b: f64| a + b;
        m.accumulate_row(&[1, 2, 3], &[1.0; 3], |v| v, add);
        assert_eq!(m.admitted.len(), 3);
        let full: Vec<Idx> = (0..64).collect();
        m.accumulate_row(&full, &[1.0; 64], |v| v, add);
        m.accumulate_row(&[7], &[1.0], |v| v, add);
        assert_eq!(m.admitted.len(), 64, "bounded by ncols entries");
    }
}
