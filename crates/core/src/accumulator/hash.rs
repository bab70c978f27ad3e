//! Hash accumulator (paper §5.3): the MSA's dense arrays are replaced with
//! an open-addressing hash table (linear probing) whose footprint is
//! proportional to the mask row, not the matrix width — fewer cache misses
//! at the price of hashing.
//!
//! Per the paper: state and value live in the same table, there is **no
//! resizing** (the row's key population is known up front), and the load
//! factor is 0.25.
//!
//! A table that never grows carries its own overflow slack: keys home in
//! `0..cap`, and `K` keys can fill at most `K` slots from any home, so
//! `cap + K + 3` slots hold an EMPTY within `K` of every home plus the
//! 3 slots a 4-key cluster reads past it. Probes never wrap, and the
//! cluster probe needs no scalar tail ([`crate::simd`]).

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

/// Cluster-probe the table `keys` for `key` (see [`crate::simd`]):
/// `key`'s slot and `true`, or the EMPTY slot where it would go and
/// `false`. A free function over the table fields so the row entries can
/// probe while they hold their scratch mutably.
#[inline(always)]
fn probe_table(keys: &[Idx], cap: usize, shift: u32, key: Idx) -> (usize, bool) {
    simd::hash_probe(keys, home_slot(key, cap, shift), key)
}

/// Open-addressing hash accumulator with linear probing. A normal-mode
/// row loads its mask keys ALLOWED; a complemented-mode row holds only
/// the keys it inserted, each SET by being there (its caller tests the
/// mask's bits before inserting), so it writes no states.
pub struct HashAccum<V> {
    keys: Vec<Idx>,
    states: Vec<State>,
    values: Vec<V>,
    /// Home slots of the current row's keys (power of two).
    cap: usize,
    /// Slots of the current row's table: `cap` plus its overflow slack.
    len: usize,
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
            len: 0,
            shift: 32,
            inserted: Vec::new(),
            admitted: Vec::new(),
        }
    }

    /// Prepare the table for a row expecting at most `expected_keys`
    /// distinct keys. Reuses the allocation; wipes only this row's slots.
    pub fn begin_row(&mut self, expected_keys: usize) {
        let expected_keys = expected_keys.max(1);
        // `+ 1` rounds an exact power of two up to the next one: the load
        // factor stays strictly under 0.25.
        let cap = (CAPACITY_FACTOR * expected_keys + 1)
            .next_power_of_two()
            .max(8);
        let len = cap + expected_keys + 3;
        if self.keys.len() < len {
            self.keys.resize(len, EMPTY);
            self.states.resize(len, State::NotAllowed);
            self.values.resize(len, V::default());
        }
        // The row entries park slots as `u32` (`Idx`-keyed tables are far
        // below this; the check keeps the narrowing honest).
        assert!(u32::try_from(len - 1).is_ok(), "hash table too large");
        self.cap = cap;
        self.len = len;
        self.shift = 32 - cap.trailing_zeros();
        self.keys[..len].fill(EMPTY);
        self.inserted.clear();
    }

    /// Find `key`'s slot, or the empty slot where it would be inserted;
    /// `true` when the key is there.
    #[inline(always)]
    fn probe(&self, key: Idx) -> (usize, bool) {
        probe_table(&self.keys[..self.len], self.cap, self.shift, key)
    }

    /// [`HashAccum::probe`]'s slot for the complement-mode methods, by
    /// the one-slot-per-step walk, which measured faster on complement
    /// tables (`docs/DECISIONS.md`).
    #[inline(always)]
    fn probe_complement(&self, key: Idx) -> usize {
        let start = home_slot(key, self.cap, self.shift);
        simd::hash_probe_scalar(&self.keys[..self.len], start, key)
    }

    /// Mark `key` allowed (normal-mode mask load). Inserts the key with
    /// state ALLOWED.
    #[inline(always)]
    pub fn mark_allowed(&mut self, key: Idx) {
        let (s, found) = self.probe(key);
        if !found {
            self.keys[s] = key;
            self.states[s] = State::Allowed;
        }
    }

    /// The row entries' filter stage: probe every key of the B row
    /// `cols`, writing `(slot, position)` into the `admitted` scratch and
    /// advancing the cursor by the probe's `found`, so "is this column in
    /// the mask" never reaches the branch predictor. Returns how many
    /// entries of `admitted` it kept. The table slice, `cap` and `shift`
    /// are locals so the loop reloads nothing from `self` per product.
    #[inline(always)]
    fn filter(&mut self, cols: &[Idx]) -> usize {
        debug_assert!(u32::try_from(cols.len()).is_ok(), "positions fit u32");
        // Sized by the B row, not by the table: a pooled table that served
        // a narrow product grows here when a wider one reuses it.
        if self.admitted.len() < cols.len() {
            self.admitted.resize(cols.len(), (0, 0));
        }
        let admitted = &mut self.admitted[..cols.len()];
        let keys = &self.keys[..self.len];
        let (cap, shift) = (self.cap, self.shift);
        let mut n = 0;
        for (p, &j) in cols.iter().enumerate() {
            let (s, found) = probe_table(keys, cap, shift, j);
            admitted[n] = (s as u32, p as u32);
            n += found as usize;
        }
        n
    }

    /// Numeric row entry for normal-mode tables — the filter-then-accumulate
    /// split of `Msa::accumulate_row` over the probe: **(1)** filter the
    /// B row (`cols`, `vals`) into the `admitted` scratch; **(2)** run
    /// `mul` and `add` over the kept products only, in B-row order.
    ///
    /// Product for product, and in the same order, this is
    /// [`Accumulator::insert_with`] on each `(cols[p], || mul(vals[p]))`.
    /// Complement-mode rows keep [`HashAccum::insert_complement`]:
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
        let n = self.filter(cols);
        for &(s, p) in &self.admitted[..n] {
            let s = s as usize;
            // A normal-mode table holds ALLOWED and SET keys only.
            if self.states[s] == State::Set {
                self.values[s] = add(self.values[s], mul(vals[p as usize]));
            } else {
                self.values[s] = mul(vals[p as usize]);
                self.states[s] = State::Set;
            }
        }
    }

    /// Symbolic row entry for normal-mode tables: filter the B row `cols`
    /// like [`HashAccum::accumulate_row`], then mark every kept slot SET.
    /// Returns how many turned SET for the first time, so the sum over a
    /// row's B rows is the length [`HashAccum::gather_into`] would emit.
    #[inline]
    pub fn accumulate_row_symbolic(&mut self, cols: &[Idx]) -> usize {
        let n = self.filter(cols);
        let mut first = 0;
        for &(s, _) in &self.admitted[..n] {
            let state = &mut self.states[s as usize];
            first += (*state == State::Allowed) as usize;
            *state = State::Set;
        }
        first
    }

    /// Complement-mode accumulate of an admitted product — one whose key
    /// the caller found clear in the mask's bits: it claims the key's
    /// slot, or adds to the value there.
    #[inline(always)]
    pub fn insert_complement(&mut self, key: Idx, v: V, add: impl FnOnce(V, V) -> V) {
        let s = self.probe_complement(key);
        if self.keys[s] == EMPTY {
            self.keys[s] = key;
            self.values[s] = v;
            self.inserted.push(key);
        } else {
            self.values[s] = add(self.values[s], v);
        }
    }

    /// Symbolic accumulate of an admitted key (complement mode): whether
    /// it is new to the row.
    #[inline(always)]
    pub fn accumulate_symbolic_complement(&mut self, key: Idx) -> bool {
        let s = self.probe_complement(key);
        let new = self.keys[s] == EMPTY;
        if new {
            self.keys[s] = key;
            self.inserted.push(key);
        }
        new
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
            let (s, found) = self.probe(j);
            if found && self.states[s] == State::Set {
                out_cols[w] = j;
                out_vals[w] = self.values[s];
                w += 1;
            }
        }
        w
    }

    /// Complement-mode gather: sort the inserted keys and emit them.
    pub fn gather_complement_into(&mut self, out_cols: &mut [Idx], out_vals: &mut [V]) -> usize {
        self.inserted.sort_unstable();
        for (w, &j) in self.inserted.iter().enumerate() {
            let s = self.probe_complement(j);
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
        let (s, found) = self.probe(key);
        if !found {
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
        let (s, found) = self.probe(key);
        if found && self.states[s] == State::Set {
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
        // The caller keeps masked-out keys (3 and 6 here) away.
        let mut h: HashAccum<i64> = HashAccum::new();
        h.begin_row(8);
        h.insert_complement(9, 1, |a, b| a + b);
        h.insert_complement(2, 4, |a, b| a + b);
        h.insert_complement(9, 2, |a, b| a + b);
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
    /// how often `mul` ran; and the symbolic row entry on the same B rows,
    /// whose summed count must be the gathered row's length.
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
        let row = gather(&mut got);
        assert_eq!(row, gather(&mut want));
        let mut symbolic = make();
        let first: usize = b_rows
            .iter()
            .map(|(cols, _)| symbolic.accumulate_row_symbolic(cols))
            .sum();
        assert_eq!(first, row.0.len(), "symbolic count = gathered length");
        assert_eq!(gather(&mut symbolic).0, row.0, "the same keys turned SET");
    }

    /// The first `n` keys whose home slot in a `cap`-slot table is `slot`.
    fn keys_homing_to(cap: usize, slot: usize, n: usize) -> Vec<Idx> {
        let shift = 32 - cap.trailing_zeros();
        (0..)
            .filter(|&k| home_slot(k, cap, shift) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn keys_homing_to_the_last_slot_spill_into_the_slack() {
        // Every key homes to `cap - 1`, so probes run up to `K` slots
        // past `cap`, into the slack: 8 slots for one key (the home slots
        // the cluster probe once walked through a wrap-around tail), 32
        // for 4 (the EMPTY past the full run opens the table's last
        // cluster), and tables at the full quarter load.
        for (cap, k) in [(8usize, 1usize), (16, 3), (32, 4), (64, 15)] {
            let pool = keys_homing_to(cap, cap - 1, 2 * k + 1);
            let value = |r: usize, j: Idx| (j as f64 + r as f64) / 7.0;
            // Three B rows over every pool key, so each admitted column
            // sums three inexact terms in row order.
            let b_rows: Vec<BRow> = (0..3)
                .map(|r| (pool.clone(), pool.iter().map(|&j| value(r, j)).collect()))
                .collect();

            // Normal mode: the first `k` keys are the mask.
            let mask = &pool[..k];
            let mut h: HashAccum<f64> = HashAccum::new();
            h.begin_row(mask.len());
            assert_eq!((h.cap, h.len), (cap, cap + k + 3), "table shape");
            assert_row_entry_matches_reference(mask, &b_rows);

            // Complement mode, `k - k / 2` admitted keys (the masked-out
            // ones never reach the table) crowding one home on a table of
            // the same shape. The reference is `insert_with` on a table
            // allowing exactly the admitted keys.
            let admitted = &pool[k / 2..k];
            let mut numeric: HashAccum<f64> = HashAccum::new();
            let mut symbolic: HashAccum<f64> = HashAccum::new();
            let mut want: HashAccum<f64> = HashAccum::new();
            for h in [&mut numeric, &mut symbolic] {
                h.begin_row(k);
            }
            want.begin_row(admitted.len());
            for &j in admitted {
                want.mark_allowed(j);
            }
            for (r, _) in b_rows.iter().enumerate() {
                for &j in admitted {
                    let v = value(r, j);
                    numeric.insert_complement(j, v, |a, b| a + b);
                    symbolic.accumulate_symbolic_complement(j);
                    want.insert_with(j, || v, |a, b| a + b);
                }
            }
            let (mut cols, mut vals) = (vec![0 as Idx; k], vec![0f64; k]);
            let n = numeric.gather_complement_into(&mut cols, &mut vals);
            let (mut want_cols, mut want_vals) = (vec![0 as Idx; k], vec![0f64; k]);
            let w = want.gather_into(admitted, &mut want_cols, &mut want_vals);
            assert_eq!(cols[..n], want_cols[..w], "cap {cap}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&vals[..n]), bits(&want_vals[..w]), "cap {cap}");
            assert_eq!(symbolic.count_complement(), n, "cap {cap}");
        }
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
