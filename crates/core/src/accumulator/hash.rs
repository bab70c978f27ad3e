//! Hash accumulator (paper §5.3): the MSA's dense arrays are replaced with
//! an open-addressing hash table (linear probing) whose footprint is
//! proportional to the mask row, not the matrix width — fewer cache misses
//! at the price of hashing.
//!
//! Per the paper: state and value live in the same table, there is **no
//! resizing** (the row's key population is known up front), and the load
//! factor is 0.25.

use super::{Accumulator, State};
use crate::simd;
use mspgemm_sparse::Idx;

const EMPTY: Idx = Idx::MAX;

/// Inverse load factor. The paper fixes the load factor at 0.25, i.e. the
/// table is sized at 4× the expected key count (rounded up to a power of
/// two) — on the flat part of the measured curve (`docs/DECISIONS.md`).
const CAPACITY_FACTOR: usize = 4;

/// `key`'s home slot: its Fibonacci multiplicative hash
/// (`shift = 32 − log₂ cap`).
#[inline(always)]
fn home_slot(key: Idx, cap: usize, shift: u32) -> usize {
    (key.wrapping_mul(2654435761) >> shift) as usize & (cap - 1)
}

/// Cluster-probe `keys[..cap]` for `key` (see [`crate::simd`]). A free
/// function over the table fields so the row entry can probe while it
/// holds its scratch mutably.
#[inline(always)]
fn probe_table(keys: &[Idx], cap: usize, shift: u32, key: Idx) -> usize {
    simd::hash_probe(keys, cap, home_slot(key, cap, shift), key)
}

/// Open-addressing hash accumulator with linear probing.
pub struct HashAccum<V> {
    keys: Vec<Idx>,
    states: Vec<State>,
    values: Vec<V>,
    /// Active table size for the current row (power of two).
    cap: usize,
    shift: u32,
    /// Keys inserted this row, for complemented gathers.
    inserted: Vec<Idx>,
    /// Stage-1 output of [`HashAccum::accumulate_row`]: `(slot, position)`
    /// of every product of the current B row whose key the table holds.
    admitted: Vec<(u32, u32)>,
}

impl<V: Copy + Default> HashAccum<V> {
    /// New accumulator with the paper's 0.25 load factor.
    pub fn new() -> Self {
        Self {
            keys: Vec::new(),
            states: Vec::new(),
            values: Vec::new(),
            cap: 0,
            shift: 32,
            inserted: Vec::new(),
            admitted: Vec::new(),
        }
    }

    /// Prepare the table for a row expecting at most `expected_keys`
    /// distinct keys. Reuses the allocation; wipes only `cap` slots.
    pub fn begin_row(&mut self, expected_keys: usize) {
        // `+ 1` rounds an exact power of two up to the next one: the load
        // factor stays strictly under 0.25, so probes for absent keys
        // always reach an EMPTY slot.
        let want = (CAPACITY_FACTOR * expected_keys.max(1) + 1)
            .next_power_of_two()
            .max(8);
        if self.keys.len() < want {
            self.keys.resize(want, EMPTY);
            self.states.resize(want, State::NotAllowed);
            self.values.resize(want, V::default());
        }
        // `accumulate_row` parks slots as `u32` (`Idx`-keyed tables are
        // far below this; the check keeps the narrowing honest).
        assert!(u32::try_from(want - 1).is_ok(), "hash table too large");
        self.cap = want;
        self.shift = 32 - want.trailing_zeros();
        self.keys[..want].fill(EMPTY);
        self.inserted.clear();
    }

    /// Find `key`'s slot, or the empty slot where it would be inserted.
    #[inline(always)]
    fn probe(&self, key: Idx) -> usize {
        probe_table(&self.keys, self.cap, self.shift, key)
    }

    /// [`HashAccum::probe`] for the complement-mode methods: the same
    /// slot by the one-slot-per-step walk, which measured faster on
    /// complement tables (`docs/DECISIONS.md`).
    #[inline(always)]
    fn probe_complement(&self, key: Idx) -> usize {
        let start = home_slot(key, self.cap, self.shift);
        simd::hash_probe_scalar(&self.keys, self.cap, start, key)
    }

    /// Mark `key` allowed (normal-mode mask load). Inserts the key with
    /// state ALLOWED.
    #[inline(always)]
    pub fn mark_allowed(&mut self, key: Idx) {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::Allowed;
        }
    }

    /// Mark `key` not-allowed (complement-mode mask load).
    #[inline(always)]
    pub fn mark_not_allowed(&mut self, key: Idx) {
        let s = self.probe_complement(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::NotAllowed;
        }
    }

    /// Numeric row entry for normal-mode tables — the filter-then-accumulate
    /// split of `Msa::accumulate_row` over the probe: **(1)** probe every
    /// key of the B row (`cols`, `vals`), writing `(slot, position)` into
    /// the `admitted` scratch and advancing the cursor by
    /// `(keys[slot] != EMPTY) as usize`, so "is this column in the mask"
    /// never reaches the branch predictor; **(2)** run `mul` and `add`
    /// over the kept products only, in B-row order.
    ///
    /// Product for product, and in the same order, this is
    /// [`Accumulator::insert_with`] on each `(cols[p], || mul(vals[p]))`.
    /// Complement-mode rows keep [`HashAccum::insert_complement_with`]:
    /// there an admitted product *claims* its slot, so probes cannot run
    /// ahead of inserts.
    #[inline]
    pub fn accumulate_row<R: Copy>(
        &mut self,
        cols: &[Idx],
        vals: &[R],
        mul: impl Fn(R) -> V,
        add: impl Fn(V, V) -> V,
    ) {
        assert_eq!(cols.len(), vals.len(), "one value per column index");
        debug_assert!(u32::try_from(cols.len()).is_ok(), "positions fit u32");
        // Sized by the B row, not by the table: a pooled table that served
        // a narrow product grows here when a wider one reuses it.
        if self.admitted.len() < cols.len() {
            self.admitted.resize(cols.len(), (0, 0));
        }
        let admitted = &mut self.admitted[..cols.len()];
        let mut n = 0;
        for (p, &j) in cols.iter().enumerate() {
            let s = probe_table(&self.keys, self.cap, self.shift, j);
            admitted[n] = (s as u32, p as u32);
            n += (self.keys[s] != EMPTY) as usize;
        }
        for &(s, p) in &admitted[..n] {
            let s = s as usize;
            match self.states[s] {
                // Only a complement-marked key; never taken on the
                // normal-mode tables the Hash kernel drives through here.
                State::NotAllowed => {}
                State::Allowed => {
                    self.values[s] = mul(vals[p as usize]);
                    self.states[s] = State::Set;
                }
                State::Set => {
                    self.values[s] = add(self.values[s], mul(vals[p as usize]));
                }
            }
        }
    }

    /// Lazy complement-mode accumulate: the value closure runs only when
    /// the key is admitted (not masked out).
    #[inline(always)]
    pub fn insert_complement_with(
        &mut self,
        key: Idx,
        value: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) {
        let s = self.probe_complement(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::Set;
            self.values[s] = value();
            self.inserted.push(key);
            return;
        }
        match self.states[s] {
            State::NotAllowed => {}
            State::Allowed => unreachable!("complement mode never marks ALLOWED"),
            State::Set => {
                let v = value();
                self.values[s] = add(self.values[s], v);
            }
        }
    }

    /// Symbolic accumulate (normal mode): returns `true` when `key` turns
    /// SET for the first time.
    #[inline(always)]
    pub fn accumulate_symbolic(&mut self, key: Idx) -> bool {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            return false;
        }
        if self.states[s] == State::Allowed {
            self.states[s] = State::Set;
            true
        } else {
            false
        }
    }

    /// Symbolic accumulate (complement mode).
    #[inline(always)]
    pub fn accumulate_symbolic_complement(&mut self, key: Idx) -> bool {
        let s = self.probe_complement(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.states[s] = State::Set;
            self.inserted.push(key);
            true
        } else {
            false
        }
    }

    /// Normal-mode gather: walk the mask row in column order (stable,
    /// sorted output — same trick as MSA §5.2) and emit SET entries. The
    /// table is wiped by the next `begin_row`.
    pub fn gather_into(
        &mut self,
        mask_cols: &[Idx],
        out_cols: &mut [Idx],
        out_vals: &mut [V],
    ) -> usize {
        let mut w = 0;
        for &j in mask_cols {
            let s = self.probe(j);
            if self.keys[s] != EMPTY && self.states[s] == State::Set {
                out_cols[w] = j;
                out_vals[w] = self.values[s];
                w += 1;
            }
        }
        w
    }

    /// Normal-mode symbolic gather.
    pub fn count(&mut self, mask_cols: &[Idx]) -> usize {
        let mut n = 0;
        for &j in mask_cols {
            let s = self.probe(j);
            if self.keys[s] != EMPTY && self.states[s] == State::Set {
                n += 1;
            }
        }
        n
    }

    /// Complement-mode gather: sort the inserted keys and emit them.
    pub fn gather_complement_into(&mut self, out_cols: &mut [Idx], out_vals: &mut [V]) -> usize {
        self.inserted.sort_unstable();
        for (w, &j) in self.inserted.iter().enumerate() {
            let s = self.probe_complement(j);
            debug_assert_eq!(self.states[s], State::Set);
            out_cols[w] = j;
            out_vals[w] = self.values[s];
        }
        self.inserted.len()
    }

    /// Complement-mode symbolic count.
    pub fn count_complement(&self) -> usize {
        self.inserted.len()
    }
}

impl<V: Copy + Default> Default for HashAccum<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> Accumulator<V> for HashAccum<V> {
    fn set_allowed(&mut self, key: Idx) {
        self.mark_allowed(key);
    }

    fn insert_with(
        &mut self,
        key: Idx,
        value: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) -> bool {
        let s = self.probe(key);
        if self.keys[s] == EMPTY {
            return false;
        }
        match self.states[s] {
            State::NotAllowed => false,
            State::Allowed => {
                self.values[s] = value();
                self.states[s] = State::Set;
                true
            }
            State::Set => {
                let v = value();
                self.values[s] = add(self.values[s], v);
                true
            }
        }
    }

    fn remove(&mut self, key: Idx) -> Option<V> {
        let s = self.probe(key);
        if self.keys[s] != EMPTY && self.states[s] == State::Set {
            self.states[s] = State::Allowed;
            Some(self.values[s])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::test_rows::*;
    use proptest::prelude::*;

    /// Column stride of the property's rows: spread so keys collide in
    /// the table.
    const SPREAD: Idx = 1024;

    /// One single-product B row: the row entry as a per-product insert.
    fn put(h: &mut HashAccum<i64>, key: Idx, value: i64) {
        h.accumulate_row(&[key], &[value], |v| v, |a, b| a + b);
    }

    #[test]
    fn normal_flow() {
        let mut h: HashAccum<i64> = HashAccum::new();
        h.begin_row(3);
        for &j in &[10, 20, 30] {
            h.mark_allowed(j);
        }
        put(&mut h, 10, 5);
        put(&mut h, 10, 7);
        put(&mut h, 30, 1);
        put(&mut h, 99, 100); // never allowed
        let mut cols = [0 as Idx; 3];
        let mut vals = [0i64; 3];
        let n = h.gather_into(&[10, 20, 30], &mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[10, 30]);
        assert_eq!(&vals[..2], &[12, 1]);
    }

    #[test]
    fn complement_flow() {
        let mut h: HashAccum<i64> = HashAccum::new();
        h.begin_row(8);
        for &j in &[3, 6] {
            h.mark_not_allowed(j);
        }
        h.insert_complement_with(3, || 5, |a, b| a + b); // masked out
        h.insert_complement_with(9, || 1, |a, b| a + b);
        h.insert_complement_with(2, || 4, |a, b| a + b);
        h.insert_complement_with(9, || 2, |a, b| a + b);
        let mut cols = [0 as Idx; 8];
        let mut vals = [0i64; 8];
        let n = h.gather_complement_into(&mut cols, &mut vals);
        assert_eq!(n, 2);
        assert_eq!(&cols[..2], &[2, 9], "sorted output");
        assert_eq!(&vals[..2], &[4, 3]);
    }

    #[test]
    fn table_reuse_across_rows() {
        let mut h: HashAccum<i64> = HashAccum::new();
        for round in 0..5 {
            h.begin_row(2);
            h.mark_allowed(round);
            put(&mut h, round, round as i64);
            let mut cols = [0 as Idx; 2];
            let mut vals = [0i64; 2];
            let n = h.gather_into(&[round], &mut cols, &mut vals);
            assert_eq!(n, 1);
            assert_eq!(vals[0], round as i64);
        }
    }

    #[test]
    fn many_colliding_keys() {
        // Fill with keys that all hash near each other; linear probing must
        // still find every one.
        let mut h: HashAccum<i64> = HashAccum::new();
        let keys: Vec<Idx> = (0..64).map(|i| i * 1024).collect();
        h.begin_row(keys.len());
        for &k in &keys {
            h.mark_allowed(k);
        }
        for &k in &keys {
            put(&mut h, k, k as i64);
        }
        let mut cols = vec![0 as Idx; keys.len()];
        let mut vals = vec![0i64; keys.len()];
        let n = h.gather_into(&keys, &mut cols, &mut vals);
        assert_eq!(n, keys.len());
        for (c, v) in cols.iter().zip(&vals) {
            assert_eq!(*v, *c as i64);
        }
    }

    /// One normal-mode output row both ways — B rows through the row
    /// entry, the same products one at a time through the §5.1 reference
    /// `insert_with` — compared on the gathered row (bit for bit) and on
    /// how often `mul` ran.
    fn assert_row_entry_matches_reference(mask: &[Idx], b_rows: &[BRow]) {
        let make = || {
            let mut h: HashAccum<f64> = HashAccum::new();
            h.begin_row(mask.len());
            for &j in mask {
                h.mark_allowed(j);
            }
            h
        };
        let muls = std::cell::Cell::new(0u64);
        let mul = |v: f64| {
            muls.set(muls.get() + 1);
            3.0 * v
        };
        let mut want = make();
        let mut admitted = 0u64;
        for (cols, vals) in b_rows {
            for (&j, &v) in cols.iter().zip(vals) {
                admitted += want.insert_with(j, || mul(v), |a, b| a + b) as u64;
            }
        }
        muls.set(0);
        let mut got = make();
        for (cols, vals) in b_rows {
            got.accumulate_row(cols, vals, mul, |a, b| a + b);
        }
        assert_eq!(muls.get(), admitted, "`mul` must run for admitted only");
        let gather = |h: &mut HashAccum<f64>| {
            let mut cols = vec![0 as Idx; mask.len()];
            let mut vals = vec![0f64; mask.len()];
            let n = h.gather_into(mask, &mut cols, &mut vals);
            let bits: Vec<u64> = vals[..n].iter().map(|v| v.to_bits()).collect();
            (cols[..n].to_vec(), bits)
        };
        assert_eq!(gather(&mut got), gather(&mut want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn row_entry_matches_per_product_reference(
            // Admitted ratios 0 %, ~10 %, 100 %; B rows empty, typical,
            // and as long as the matrix is wide.
            mask_density in 0usize..3,
            mask_cells in proptest::collection::vec(0u32..1_000_000, 40),
            b_densities in proptest::collection::vec(0usize..3, 6),
            b_cells in proptest::collection::vec(
                proptest::collection::vec(0u32..1_000_000, 40),
                0..=6,
            ),
        ) {
            let (mask, _) = sparse_row(&mask_cells, MASK_PER_MILLE[mask_density], SPREAD);
            let b_rows: Vec<_> = b_cells
                .iter()
                .zip(&b_densities)
                .map(|(cells, &d)| sparse_row(cells, B_ROW_PER_MILLE[d], SPREAD))
                .collect();
            assert_row_entry_matches_reference(&mask, &b_rows);
        }
    }

    #[test]
    fn accumulation_order_is_pinned_bit_for_bit() {
        let b_rows = order_sensitive_rows();
        assert_row_entry_matches_reference(&[3, 5], &b_rows);
        let mut h: HashAccum<f64> = HashAccum::new();
        h.begin_row(2);
        h.mark_allowed(3);
        h.mark_allowed(5);
        for (cols, vals) in &b_rows {
            h.accumulate_row(cols, vals, |v| v, |a, b| a + b);
        }
        let (mut cols, mut vals) = ([0 as Idx; 2], [0f64; 2]);
        assert_eq!(h.gather_into(&[3, 5], &mut cols, &mut vals), 2);
        assert_eq!((cols, vals), ([3, 5], [0.0, 1.0]));
    }

    #[test]
    fn scratch_follows_the_b_row_not_the_table() {
        // The table is sized by the mask row (2 keys → 16 slots); the
        // scratch must follow the B row, however long, and keep its size
        // when the table is re-begun for the next row.
        let mut h: HashAccum<i64> = HashAccum::new();
        h.begin_row(2);
        h.mark_allowed(7);
        h.mark_allowed(400);
        h.accumulate_row(&[7], &[1], |v| v, |a, b| a + b);
        let wide: Vec<Idx> = (0..1000).collect();
        h.accumulate_row(&wide, &vec![1; 1000], |v| v, |a, b| a + b);
        let (mut cols, mut vals) = ([0 as Idx; 2], [0i64; 2]);
        assert_eq!(h.gather_into(&[7, 400], &mut cols, &mut vals), 2);
        assert_eq!(vals, [2, 1]);
        h.begin_row(1);
        assert_eq!(h.admitted.len(), 1000);
    }
}
