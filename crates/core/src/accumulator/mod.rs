//! Accumulators for Masked SpGEVM (paper §5.1).
//!
//! An accumulator merges the scaled rows of `B` that contribute to one
//! output row, while discarding everything the mask rules out. The paper
//! defines a three-state interface:
//!
//! * `setAllowed(key)` — marks keys that may appear in the output
//!   (`NOTALLOWED → ALLOWED`);
//! * `insert(key, λ)` — contributes a product; the value lambda is
//!   evaluated **only** when the key is allowed (`ALLOWED → SET`, or
//!   accumulate when already `SET`);
//! * `remove(key)` — extracts and clears the accumulated value, returning
//!   `None` for keys never set.
//!
//! Four implementations, one per §5.2–§5.5:
//! [`msa::Msa`] (dense arrays), [`hash::HashAccum`] (open addressing),
//! [`mca::Mca`] (mask-rank compressed, 2-state), and the multiway merge
//! [`heap::LoserTree`], a tree of losers over the row's `B` cursors keyed
//! by `(col, a_pos)` (it does not fit the key-value interface and is
//! driven directly by the Heap kernel; its ties pop in `a_pos` order, so
//! it sums each column in MSA's order).

pub mod hash;
pub mod heap;
pub mod mca;
pub mod msa;

use mspgemm_sparse::Idx;

/// Entry state in a masked accumulator (§5.2, Fig 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum State {
    /// Masked out: inserts are discarded.
    NotAllowed = 0,
    /// Unmasked but no product inserted yet.
    Allowed = 1,
    /// At least one product accumulated.
    Set = 2,
}

/// The paper's accumulator interface (§5.1), generic over the accumulated
/// value type. Keys are column indices for MSA/Hash and mask ranks for MCA.
///
/// `insert_with` takes the value as a closure so that discarded products
/// are never computed ("the insert procedure allows the second argument to
/// be a lambda function that will only be evaluated if the value it
/// computes will not be discarded").
pub trait Accumulator<V: Copy> {
    /// Mark `key` as allowed (`NOTALLOWED → ALLOWED`). No-op on other
    /// states.
    fn set_allowed(&mut self, key: Idx);

    /// Contribute a product to `key`. Returns `true` if the value was used
    /// (key allowed), `false` if discarded.
    fn insert_with(
        &mut self,
        key: Idx,
        value: impl FnOnce() -> V,
        add: impl FnOnce(V, V) -> V,
    ) -> bool;

    /// Extract the accumulated value at `key`, resetting it to `ALLOWED`.
    /// `None` if nothing was inserted (or the key was never allowed).
    fn remove(&mut self, key: Idx) -> Option<V>;
}

/// Fixtures shared by the MSA and Hash row-entry tests.
#[cfg(test)]
pub(crate) mod test_rows {
    use mspgemm_sparse::Idx;

    /// One B row: sorted distinct columns and their values.
    pub(crate) type BRow = (Vec<Idx>, Vec<f64>);

    /// Per-mille densities the row-entry properties sweep: nothing, a
    /// typical sparse row, everything. For the mask these are the admitted
    /// ratios 0 %, ~10 %, 100 % in normal mode (mirrored in complement
    /// mode); for a B row they give the empty row and the row of length
    /// `ncols`.
    pub(crate) const MASK_PER_MILLE: [u32; 3] = [0, 100, 1000];
    pub(crate) const B_ROW_PER_MILLE: [u32; 3] = [0, 300, 1000];

    /// Sorted distinct columns `j · stride`: `j` is kept when the low
    /// three digits of `cells[j]` fall under `per_mille`; the rest of the
    /// cell is its (non-integral, so a reordered sum shows in the bits)
    /// value.
    pub(crate) fn sparse_row(cells: &[u32], per_mille: u32, stride: Idx) -> BRow {
        cells
            .iter()
            .enumerate()
            .filter(|(_, &c)| c % 1000 < per_mille)
            .map(|(j, &c)| (j as Idx * stride, (f64::from(c / 1000) - 500.0) / 7.0))
            .unzip()
    }

    /// Three B rows that land 1e16, 1.0, -1e16 on column 3, in that order:
    /// (1e16 + 1.0) + -1e16 == 0.0 in f64 (the 1.0 is absorbed), while
    /// column 5 takes the same terms as (1e16 + -1e16) + 1.0 == 1.0 — so a
    /// kernel that visited B rows in any other order would show. Column 1
    /// is there for a complemented mask to block.
    pub(crate) fn order_sensitive_rows() -> Vec<BRow> {
        vec![
            (vec![3, 5], vec![1e16, 1e16]),
            (vec![3, 5], vec![1.0, -1e16]),
            (vec![1, 3, 5], vec![4.0, -1e16, 1.0]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::hash::HashAccum;
    use super::mca::Mca;
    use super::msa::Msa;
    use super::*;

    /// Drives the §5.2 state automaton through any implementation.
    fn exercise_state_machine<A: Accumulator<i64>>(acc: &mut A) {
        let add = |x: i64, y: i64| x + y;
        // NOTALLOWED: insert discarded, lambda must not run.
        // (Keys 0..4; only 1 and 3 allowed.)
        acc.set_allowed(1);
        acc.set_allowed(3);
        let mut evaluated = false;
        let used = acc.insert_with(
            0,
            || {
                evaluated = true;
                7
            },
            add,
        );
        assert!(!used, "insert to NOTALLOWED key must be discarded");
        assert!(!evaluated, "discarded insert must not evaluate its lambda");

        // ALLOWED -> SET on first insert.
        assert!(acc.insert_with(1, || 10, add));
        // SET accumulates.
        assert!(acc.insert_with(1, || 5, add));
        assert_eq!(acc.remove(1), Some(15));
        // After remove, the key is empty again.
        assert_eq!(acc.remove(1), None);

        // Allowed but never inserted -> None.
        assert_eq!(acc.remove(3), None);
        // Never allowed -> None.
        assert_eq!(acc.remove(0), None);
    }

    #[test]
    fn msa_follows_the_automaton() {
        let mut acc = Msa::new(8);
        acc.begin_row();
        exercise_state_machine(&mut acc);
    }

    #[test]
    fn hash_follows_the_automaton() {
        let mut acc = HashAccum::new();
        acc.begin_row(2); // two allowed keys expected
        exercise_state_machine(&mut acc);
    }

    #[test]
    fn mca_follows_the_automaton() {
        // MCA keys are mask ranks; the generic exercise uses keys 0..4, so
        // give it 4 slots. MCA has no NOTALLOWED state — every slot is
        // allowed by construction — so run a reduced check.
        let mut acc = Mca::new();
        acc.begin_row(4);
        let add = |x: i64, y: i64| x + y;
        assert!(acc.insert_with(1, || 10, add));
        assert!(acc.insert_with(1, || 5, add));
        assert_eq!(acc.remove(1), Some(15));
        assert_eq!(acc.remove(1), None);
        assert_eq!(acc.remove(3), None);
    }
}
