//! Heap push kernel (paper §5.5, Algorithms 4–5): a multiway merge over
//! the contributing rows of `B` intersected with the mask row by a 2-way
//! merge. The `NInspect` parameter controls how far each cursor peeks into
//! the mask before it (re)enters the merge, a tree of losers
//! ([`LoserTree`]):
//!
//! * `NInspect = 0` — plain merge (required for complemented masks);
//! * `NInspect = 1` — the paper's `Heap` configuration: skip `B` elements
//!   below the current mask head before pushing;
//! * `NInspect = ∞` — the paper's `HeapDot`: advance until an exact mask
//!   match, so only matching cursors ever enter the merge.
//!
//! Whatever `NInspect`, a column's products pop in `a_pos` order, so the
//! sums are MSA's by bits.

use crate::accumulator::heap::{Cursor, LoserTree};
use crate::phases::{RowCtx, RowKernel};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::Idx;

/// `NInspect = ∞` (the `HeapDot` variant).
pub const INSPECT_FULL: u32 = u32::MAX;

/// Kernel configuration.
pub struct HeapKernel {
    /// Mask look-ahead per cursor insertion (0, 1, or [`INSPECT_FULL`]).
    pub n_inspect: u32,
    /// Interpret the mask as its complement. Forces `n_inspect = 0`
    /// behaviour, per §5.5.
    pub complement: bool,
}

impl HeapKernel {
    /// The paper's `Heap` scheme (`NInspect = 1`).
    pub fn heap(complement: bool) -> Self {
        Self {
            n_inspect: if complement { 0 } else { 1 },
            complement,
        }
    }

    /// The paper's `HeapDot` scheme (`NInspect = ∞`).
    pub fn heap_dot(complement: bool) -> Self {
        Self {
            n_inspect: if complement { 0 } else { INSPECT_FULL },
            complement,
        }
    }
}

/// Algorithm 5: build (or advance) a cursor for `bc` starting at `pos`,
/// inspecting up to `n_inspect` mask entries from `mpos`. Returns `None`
/// when the cursor can be dropped (row exhausted, or — during inspection —
/// the mask is exhausted so no further match is possible).
#[inline]
fn make_cursor(
    bc: &[Idx],
    a_pos: u32,
    mut pos: usize,
    mask: &[Idx],
    mut mpos: usize,
    n_inspect: u32,
) -> Option<Cursor> {
    if pos >= bc.len() {
        return None;
    }
    if n_inspect == 0 {
        return Some(Cursor {
            col: bc[pos],
            a_pos,
            b_next: pos as u32 + 1,
        });
    }
    let mut to_inspect = n_inspect;
    while pos < bc.len() && mpos < mask.len() {
        if bc[pos] == mask[mpos] {
            return Some(Cursor {
                col: bc[pos],
                a_pos,
                b_next: pos as u32 + 1,
            });
        } else if bc[pos] < mask[mpos] {
            pos += 1;
        } else {
            mpos += 1;
            to_inspect -= 1;
            if to_inspect == 0 {
                return Some(Cursor {
                    col: bc[pos],
                    a_pos,
                    b_next: pos as u32 + 1,
                });
            }
        }
    }
    None
}

impl HeapKernel {
    /// Shared driver for symbolic/numeric × mask/complement. `emit` fires
    /// once per surviving product with `(col, a_pos, b_pos, is_new_col)`.
    #[inline]
    fn drive<S: Semiring>(
        &self,
        tree: &mut LoserTree,
        ctx: &RowCtx<'_, S>,
        mut emit: impl FnMut(Idx, usize, usize, bool),
    ) {
        let mask = ctx.mask_cols;
        tree.clear();
        for (apos, &k) in ctx.a_cols.iter().enumerate() {
            let bc = ctx.b.row_cols(k as usize);
            if let Some(c) = make_cursor(bc, apos as u32, 0, mask, 0, self.n_inspect) {
                tree.push_leaf(c);
            }
        }
        tree.build();
        let mut mpos = 0usize;
        let mut prev: Option<Idx> = None;
        while let Some(top) = tree.peek() {
            // Advance the shared mask iterator (pops are monotone).
            while mpos < mask.len() && mask[mpos] < top.col {
                mpos += 1;
            }
            let in_mask = mpos < mask.len() && mask[mpos] == top.col;
            if !self.complement && mpos == mask.len() {
                break; // no mask entries left: nothing more can match
            }
            if in_mask != self.complement {
                let a_pos = top.a_pos as usize;
                let b_pos = top.b_next as usize - 1;
                let is_new = prev != Some(top.col);
                emit(top.col, a_pos, b_pos, is_new);
                prev = Some(top.col);
            }
            let k = ctx.a_cols[top.a_pos as usize] as usize;
            let bc = ctx.b.row_cols(k);
            match make_cursor(
                bc,
                top.a_pos,
                top.b_next as usize,
                mask,
                mpos,
                self.n_inspect,
            ) {
                Some(c) => tree.replace_top(c),
                None => tree.drop_top(),
            }
        }
    }
}

impl<S: Semiring> RowKernel<S> for HeapKernel {
    type Ws = LoserTree;

    fn make_ws(&self, _ncols: usize) -> Self::Ws {
        LoserTree::new()
    }

    fn ws_depends_on_ncols(&self) -> bool {
        false // the tree grows per row's A-row length, not matrix width
    }

    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize {
        let mut n = 0usize;
        self.drive::<S>(ws, &ctx, |_, _, _, is_new| {
            if is_new {
                n += 1;
            }
        });
        n
    }

    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        let mut w = 0usize;
        let a_vals = ctx.a_vals;
        let b = ctx.b;
        let a_cols = ctx.a_cols;
        self.drive::<S>(ws, &ctx, |col, a_pos, b_pos, is_new| {
            let av = a_vals[a_pos];
            let bv = b.row_vals(a_cols[a_pos] as usize)[b_pos];
            let prod = S::mul(av, bv);
            if is_new {
                out_cols[w] = col;
                out_vals[w] = prod;
                w += 1;
            } else {
                out_vals[w - 1] = S::add(out_vals[w - 1], prod);
            }
        });
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_ninspect_zero_is_plain() {
        let bc: &[Idx] = &[3, 8, 10];
        let c = make_cursor(bc, 0, 0, &[9], 0, 0).unwrap();
        assert_eq!(c.col, 3);
        assert_eq!(c.b_next, 1);
        assert!(make_cursor(bc, 0, 3, &[9], 0, 0).is_none(), "exhausted row");
    }

    #[test]
    fn cursor_ninspect_one_skips_below_mask_head() {
        // Mask head is 8: elements 3 and 5 can never match at or beyond the
        // current mask position, so NInspect=1 skips them.
        let bc: &[Idx] = &[3, 5, 8, 10];
        let c = make_cursor(bc, 0, 0, &[8, 20], 0, 1).unwrap();
        assert_eq!(c.col, 8, "skipped 3 and 5, found the match");
    }

    #[test]
    fn cursor_ninspect_one_stops_after_one_mask_step() {
        // bc head 9 > mask[0]=8: inspect consumes the one allowed mask
        // step and pushes at 9 without checking mask[1].
        let bc: &[Idx] = &[9, 21];
        let c = make_cursor(bc, 0, 0, &[8, 20], 0, 1).unwrap();
        assert_eq!(c.col, 9);
    }

    #[test]
    fn cursor_full_inspection_finds_match_or_drops() {
        let bc: &[Idx] = &[3, 5, 9, 21];
        // Only 21 is in the mask; full inspection lands exactly there.
        let c = make_cursor(bc, 0, 0, &[8, 20, 21], 0, INSPECT_FULL).unwrap();
        assert_eq!(c.col, 21);
        // No intersection at all -> cursor dropped.
        assert!(make_cursor(&[3, 5], 0, 0, &[8, 20], 0, INSPECT_FULL).is_none());
    }

    #[test]
    fn cursor_drops_when_mask_exhausted() {
        let bc: &[Idx] = &[30, 40];
        assert!(make_cursor(bc, 0, 0, &[10], 0, INSPECT_FULL).is_none());
    }
}
