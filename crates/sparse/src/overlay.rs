//! Delta-COO overlay — the dynamic-graph substrate for the `update` verb.
//!
//! The paper's pipelines are batch-oriented: load a matrix, run masked
//! products. Streaming workloads instead apply small edge batches to a
//! resident matrix. An [`Overlay`] is how one batch is folded in: its
//! upserts and deletes land in a sorted delta map keyed by `(row, col)`
//! with last-write-wins semantics (O(|delta| log |delta|)), and
//! [`Overlay::merged`] produces the canonical [`Csr`] (sorted,
//! duplicate-free rows — every invariant of a freshly-built matrix) by a
//! two-pointer merge of the touched rows against the base; each run of
//! untouched rows between them moves with one slice copy per section. The
//! rows are copied, not shared — the kernels consume whole CSR operands —
//! so a batch costs its touched rows plus one copy of the matrix.
//!
//! The same holds for anything derived from the matrix. A canonical CSR
//! is a function of its entry set, so a batch of changed positions in a
//! matrix is a batch of changed positions in its transpose, its
//! normalized adjacency, its relabeled triangle — and [`Overlay::set`] +
//! [`Overlay::merged`] carry such an operand forward from its previous
//! value instead of re-deriving it (see [`crate::transpose_delta`] for
//! the simplest of those maps).
//!
//! Because [`Overlay::merged`] always produces owned heap sections,
//! merging also serves as the copy-on-write step away from `Arc`-shared
//! (mmap-backed) storage — mutating a mapped matrix never touches the
//! mapping.
//!
//! The correctness contract is differential: for any op sequence, the
//! merged view must be structurally identical (same fingerprint) to a
//! from-scratch rebuild of the final entry set, whether the sequence is
//! absorbed by one overlay or folded batch by batch into a running
//! matrix. The proptests in `tests/proptest_overlay.rs` enforce exactly
//! that.

use crate::csr::Csr;
use crate::view::CsrRef;
use crate::Idx;
use std::collections::BTreeMap;

/// One edge-level mutation against the base matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaOp<T> {
    /// Insert entry `(row, col)` with value `val`, or overwrite the value
    /// if the entry already exists (in the base or in the pending delta).
    Upsert {
        /// Row index of the entry.
        row: Idx,
        /// Column index of the entry.
        col: Idx,
        /// The value to store.
        val: T,
    },
    /// Remove entry `(row, col)`. Deleting an absent entry is a no-op in
    /// the merged view.
    Delete {
        /// Row index of the entry.
        row: Idx,
        /// Column index of the entry.
        col: Idx,
    },
}

impl<T> DeltaOp<T> {
    /// The `(row, col)` position this op touches.
    pub fn key(&self) -> (Idx, Idx) {
        match *self {
            DeltaOp::Upsert { row, col, .. } => (row, col),
            DeltaOp::Delete { row, col } => (row, col),
        }
    }
}

/// A pending-delta overlay over an immutable base CSR.
///
/// The overlay itself never holds the base: [`Overlay::merged`] takes the
/// base as a [`CsrRef`], so the same overlay can be replayed against any
/// storage backing (owned heap or `Arc`-shared mmap sections).
#[derive(Clone, Debug)]
pub struct Overlay<T> {
    nrows: usize,
    ncols: usize,
    /// `Some(v)` = upsert with value `v`; `None` = delete tombstone.
    /// BTreeMap keeps keys in `(row, col)` lexicographic order, which is
    /// exactly the CSR emission order the merge walks.
    pending: BTreeMap<(Idx, Idx), Option<T>>,
}

impl<T: Copy> Overlay<T> {
    /// An empty overlay for an `nrows × ncols` base.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            pending: BTreeMap::new(),
        }
    }

    /// Number of distinct `(row, col)` positions with a pending op.
    /// Superseded ops (a delete after an upsert of the same position, a
    /// duplicate upsert) collapse — this is not an op counter.
    pub fn delta_nnz(&self) -> usize {
        self.pending.len()
    }

    /// Validate one op against the base shape without applying it.
    ///
    /// # Errors
    /// A message naming the out-of-bounds index.
    pub fn validate(&self, op: &DeltaOp<T>) -> Result<(), String> {
        let (i, j) = op.key();
        if (i as usize) >= self.nrows || (j as usize) >= self.ncols {
            return Err(format!(
                "entry ({i}, {j}) out of bounds for {}x{} matrix",
                self.nrows, self.ncols
            ));
        }
        Ok(())
    }

    /// Apply one op (last-write-wins on its `(row, col)` position).
    ///
    /// # Errors
    /// The op is rejected (and nothing recorded) if its position is out
    /// of bounds.
    pub fn apply(&mut self, op: DeltaOp<T>) -> Result<(), String> {
        self.validate(&op)?;
        match op {
            DeltaOp::Upsert { row, col, val } => {
                self.pending.insert((row, col), Some(val));
            }
            DeltaOp::Delete { row, col } => {
                self.pending.insert((row, col), None);
            }
        }
        Ok(())
    }

    /// Record the final state of `(row, col)` directly: `Some(v)` is an
    /// upsert of `v`, `None` a delete. This is how a batch for a derived
    /// operand is written down — its positions are images of positions
    /// the base batch already validated, and their states are read back
    /// from the merged base rather than replayed op by op.
    ///
    /// # Panics
    /// If the position is out of bounds.
    pub fn set(&mut self, row: Idx, col: Idx, state: Option<T>) {
        let op = match state {
            Some(val) => DeltaOp::Upsert { row, col, val },
            None => DeltaOp::Delete { row, col },
        };
        self.apply(op).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Apply a batch atomically: every op is bounds-checked **before** any
    /// is applied, so a rejected batch leaves the overlay untouched.
    /// Returns the number of ops applied.
    ///
    /// # Errors
    /// The first invalid op's message; the overlay is unchanged.
    pub fn apply_batch(&mut self, ops: &[DeltaOp<T>]) -> Result<usize, String> {
        for op in ops {
            self.validate(op)?;
        }
        for op in ops {
            // Infallible now: validated above.
            self.apply(*op).expect("validated op must apply");
        }
        Ok(ops.len())
    }

    /// Materialize the merged matrix: base with every pending op applied.
    ///
    /// Runs of untouched rows are copied wholesale (one slice copy per
    /// section, row pointers shifted); touched rows interleave base
    /// entries with pending upserts and skip base entries shadowed by a
    /// tombstone or a replacing upsert. The
    /// result is a canonical owned [`Csr`] (sorted, duplicate-free rows,
    /// heap sections), structurally identical to rebuilding the final
    /// entry set from scratch.
    ///
    /// # Panics
    /// If the base shape differs from the overlay shape.
    pub fn merged(&self, base: CsrRef<'_, T>) -> Csr<T> {
        assert_eq!(
            (base.nrows(), base.ncols()),
            (self.nrows, self.ncols),
            "overlay/base shape mismatch"
        );
        if self.pending.is_empty() {
            return base.to_csr();
        }
        let (brp, bcols, bvals) = (base.rowptr(), base.colidx(), base.values());
        let mut rowptr = Vec::with_capacity(self.nrows + 1);
        let mut colidx: Vec<Idx> = Vec::with_capacity(base.nnz() + self.pending.len());
        let mut values: Vec<T> = Vec::with_capacity(base.nnz() + self.pending.len());
        rowptr.push(0);
        let mut pend = self.pending.iter().peekable();
        loop {
            // The run of untouched rows up to the next touched one (or the
            // end) is one slice copy per section, its row pointers shifted
            // by what the touched rows so far gained or lost.
            let lo = rowptr.len() - 1;
            let hi = pend.peek().map_or(self.nrows, |(&(pi, _), _)| pi as usize);
            let at = colidx.len();
            colidx.extend_from_slice(&bcols[brp[lo]..brp[hi]]);
            values.extend_from_slice(&bvals[brp[lo]..brp[hi]]);
            rowptr.extend(brp[lo + 1..=hi].iter().map(|&p| p - brp[lo] + at));
            if hi == self.nrows {
                break;
            }
            let (cols, vals) = base.row(hi);
            let mut b = 0usize;
            // Copy each pending op out of the peek so the iterator can
            // advance while we hold the data.
            while let Some(&(&(pi, pj), &op)) = pend.peek() {
                if pi as usize != hi {
                    break;
                }
                while b < cols.len() && cols[b] < pj {
                    colidx.push(cols[b]);
                    values.push(vals[b]);
                    b += 1;
                }
                if b < cols.len() && cols[b] == pj {
                    b += 1; // base entry shadowed by the pending op
                }
                if let Some(v) = op {
                    colidx.push(pj);
                    values.push(v);
                }
                pend.next();
            }
            colidx.extend_from_slice(&cols[b..]);
            values.extend_from_slice(&vals[b..]);
            rowptr.push(colidx.len());
        }
        Csr::from_parts_unchecked(self.nrows, self.ncols, rowptr, colidx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Csr<f64> {
        // 0: (0,1.0) (2,2.0)   1: -   2: (0,3.0) (1,4.0)
        Csr::try_from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn empty_overlay_round_trips_base() {
        let a = base();
        let ov: Overlay<f64> = Overlay::new(3, 3);
        assert_eq!(ov.delta_nnz(), 0);
        assert_eq!(ov.merged(a.view()), a);
    }

    #[test]
    fn upsert_inserts_and_overwrites() {
        let a = base();
        let mut ov = Overlay::new(3, 3);
        ov.apply(DeltaOp::Upsert {
            row: 1,
            col: 1,
            val: 9.0,
        })
        .unwrap();
        ov.apply(DeltaOp::Upsert {
            row: 0,
            col: 0,
            val: 5.0,
        })
        .unwrap();
        let m = ov.merged(a.view());
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(1, 1), Some(&9.0));
        assert_eq!(m.get(0, 0), Some(&5.0));
        assert_eq!(m.get(0, 2), Some(&2.0));
    }

    #[test]
    fn delete_removes_and_absent_delete_is_noop() {
        let a = base();
        let mut ov = Overlay::new(3, 3);
        ov.apply(DeltaOp::Delete { row: 2, col: 0 }).unwrap();
        ov.apply(DeltaOp::Delete { row: 1, col: 2 }).unwrap(); // absent
        let m = ov.merged(a.view());
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(2, 0), None);
        assert_eq!(ov.delta_nnz(), 2); // tombstones still pending
    }

    #[test]
    fn last_write_wins_per_position() {
        let a = base();
        let mut ov = Overlay::new(3, 3);
        ov.apply(DeltaOp::Upsert {
            row: 1,
            col: 0,
            val: 7.0,
        })
        .unwrap();
        ov.apply(DeltaOp::Delete { row: 1, col: 0 }).unwrap();
        assert_eq!(ov.delta_nnz(), 1);
        assert_eq!(ov.merged(a.view()).get(1, 0), None);
        ov.apply(DeltaOp::Upsert {
            row: 1,
            col: 0,
            val: 8.0,
        })
        .unwrap();
        assert_eq!(ov.merged(a.view()).get(1, 0), Some(&8.0));
    }

    #[test]
    fn batch_is_atomic_on_out_of_bounds() {
        let mut ov: Overlay<f64> = Overlay::new(3, 3);
        let ops = [
            DeltaOp::Upsert {
                row: 0,
                col: 0,
                val: 1.0,
            },
            DeltaOp::Upsert {
                row: 9,
                col: 0,
                val: 2.0,
            },
        ];
        assert!(ov.apply_batch(&ops).is_err());
        assert_eq!(ov.delta_nnz(), 0);
        assert!(ov
            .apply(DeltaOp::Delete { row: 0, col: 3 })
            .unwrap_err()
            .contains("out of bounds"));
    }

    #[test]
    fn merged_equals_from_scratch_rebuild() {
        let a = base();
        let mut ov = Overlay::new(3, 3);
        let ops = [
            DeltaOp::Upsert {
                row: 0,
                col: 1,
                val: 6.0,
            },
            DeltaOp::Delete { row: 0, col: 0 },
            DeltaOp::Upsert {
                row: 2,
                col: 2,
                val: 7.0,
            },
        ];
        ov.apply_batch(&ops).unwrap();
        // Model: final entry map built independently.
        let mut model: std::collections::BTreeMap<(Idx, Idx), f64> =
            a.iter().map(|(i, j, &v)| ((i as Idx, j), v)).collect();
        model.insert((0, 1), 6.0);
        model.remove(&(0, 0));
        model.insert((2, 2), 7.0);
        let mut coo = crate::Coo::new(3, 3);
        for (&(i, j), &v) in &model {
            coo.push(i, j, v);
        }
        let rebuilt = coo.to_csr(|x, _| x);
        assert_eq!(ov.merged(a.view()), rebuilt);
    }

    #[test]
    fn merged_output_is_heap_owned() {
        let a = base();
        let mut ov = Overlay::new(3, 3);
        ov.apply(DeltaOp::Upsert {
            row: 1,
            col: 1,
            val: 1.0,
        })
        .unwrap();
        let m = ov.merged(a.view());
        assert!(!m.has_shared_storage());
    }
}
