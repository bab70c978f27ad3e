//! Heap push kernel (paper §5.5, Algorithms 4–5): a multiway merge over
//! the contributing rows of `B` intersected with the mask row by a 2-way
//! merge. The `NInspect` parameter controls how far each cursor peeks into
//! the mask before it (re)enters the merge, a tree of losers
//! ([`LoserTree`]):
//!
//! * `NInspect = 0` — plain merge (required for complemented masks, whose
//!   row arrives as bits and is tested per popped column);
//! * `NInspect = 1` — the paper's `Heap` configuration: skip `B` elements
//!   below the current mask head before pushing;
//! * `NInspect = ∞` — the paper's `HeapDot`: advance until an exact mask
//!   match, so only matching cursors ever enter the merge.
//!
//! Whatever `NInspect`, a column's products pop in `a_pos` order, so the
//! sums are MSA's by bits.

use crate::accumulator::heap::{Cursor, LoserTree};
use crate::mask::bit;
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

/// Algorithm 5: build (or advance) a cursor over the `B` row that
/// occupies `colidx[..end]` from `pos` on, inspecting up to `n_inspect`
/// mask entries from `mpos`. `colidx` is all of `B`'s column indices, so
/// positions are absolute. Returns `None` when the cursor can be dropped
/// (row exhausted, or — during inspection — the mask is exhausted so no
/// further match is possible).
#[inline]
fn make_cursor(
    colidx: &[Idx],
    a_pos: u32,
    mut pos: usize,
    end: usize,
    mask: &[Idx],
    mut mpos: usize,
    n_inspect: u32,
) -> Option<Cursor> {
    let bc = &colidx[..end];
    let at = |pos: usize| Cursor {
        col: bc[pos],
        a_pos,
        b_next: pos + 1,
        b_end: end,
    };
    if pos >= end {
        return None;
    }
    if n_inspect == 0 {
        return Some(at(pos));
    }
    let mut to_inspect = n_inspect;
    while pos < end && mpos < mask.len() {
        if bc[pos] == mask[mpos] {
            return Some(at(pos));
        } else if bc[pos] < mask[mpos] {
            pos += 1;
        } else {
            mpos += 1;
            to_inspect -= 1;
            if to_inspect == 0 {
                return Some(at(pos));
            }
        }
    }
    None
}

impl HeapKernel {
    /// Shared driver for symbolic/numeric × mask/complement. `emit` fires
    /// once per surviving product with `(col, a_pos, b_pos, is_new_col)`,
    /// `b_pos` indexing `B`'s `values`.
    #[inline]
    fn drive<S: Semiring>(
        &self,
        tree: &mut LoserTree,
        ctx: &RowCtx<'_, S>,
        mut emit: impl FnMut(Idx, usize, usize, bool),
    ) {
        let mask = ctx.mask_cols;
        let (rowptr, colidx) = (ctx.b.rowptr(), ctx.b.colidx());
        tree.clear();
        for (apos, &k) in ctx.a_cols.iter().enumerate() {
            let (start, end) = (rowptr[k as usize], rowptr[k as usize + 1]);
            let leaf = make_cursor(colidx, apos as u32, start, end, mask, 0, self.n_inspect);
            if let Some(c) = leaf {
                tree.push_leaf(c);
            }
        }
        tree.build();
        let mut mpos = 0usize;
        let mut prev: Option<Idx> = None;
        while let Some(top) = tree.peek() {
            let admitted = if self.complement {
                !bit(ctx.mask_bits, top.col)
            } else {
                // Advance the shared mask iterator (pops are monotone).
                while mpos < mask.len() && mask[mpos] < top.col {
                    mpos += 1;
                }
                if mpos == mask.len() {
                    break; // no mask entries left: nothing more can match
                }
                mask[mpos] == top.col
            };
            if admitted {
                let is_new = prev != Some(top.col);
                emit(top.col, top.a_pos as usize, top.b_next - 1, is_new);
                prev = Some(top.col);
            }
            match make_cursor(
                colidx,
                top.a_pos,
                top.b_next,
                top.b_end,
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
        let b_vals = ctx.b.values();
        self.drive::<S>(ws, &ctx, |col, a_pos, b_pos, is_new| {
            let prod = S::mul(a_vals[a_pos], b_vals[b_pos]);
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

    /// `B`'s column indices with the row under test, `ROW`, at positions
    /// `3..7`: other rows around it hold columns that would match the
    /// masks below, so a cursor that strays out of its range shows.
    const COLIDX: [Idx; 10] = [8, 20, 21, 3, 8, 10, 21, 30, 40, 50];
    const ROW: (usize, usize) = (3, 7);

    /// [`make_cursor`] on `ROW`, from its `skip`-th entry.
    fn cursor(skip: usize, mask: &[Idx], n_inspect: u32) -> Option<Cursor> {
        make_cursor(&COLIDX, 5, ROW.0 + skip, ROW.1, mask, 0, n_inspect)
    }

    #[test]
    fn cursor_ninspect_zero_is_plain() {
        let c = cursor(0, &[9], 0).unwrap();
        assert_eq!(
            c,
            Cursor {
                col: 3,
                a_pos: 5,
                b_next: 4,
                b_end: 7,
            }
        );
        assert!(cursor(4, &[9], 0).is_none(), "exhausted row");
        // A row ends at its own range: the next row's 30 is not reached.
        let last = cursor(3, &[30], 0).unwrap();
        assert_eq!((last.col, last.b_next), (21, 7));
    }

    #[test]
    fn cursor_ninspect_one_skips_below_mask_head() {
        // Mask head is 8: element 3 can never match at or beyond the
        // current mask position, so NInspect=1 skips it.
        let c = cursor(0, &[8, 20], 1).unwrap();
        assert_eq!((c.col, c.b_next), (8, 5), "skipped 3, found the match");
    }

    #[test]
    fn cursor_ninspect_one_stops_after_one_mask_step() {
        // Row head 10 > mask[0]=9: inspect consumes the one allowed mask
        // step and pushes at 10 without checking mask[1].
        let c = cursor(2, &[9, 20], 1).unwrap();
        assert_eq!((c.col, c.b_next), (10, 6));
    }

    #[test]
    fn cursor_full_inspection_finds_match_or_drops() {
        // Only 21 is in the mask; full inspection lands exactly there.
        let c = cursor(0, &[9, 20, 21], INSPECT_FULL).unwrap();
        assert_eq!((c.col, c.b_next, c.b_end), (21, 7, 7));
        // No intersection inside the row -> cursor dropped, though the
        // rows before and after it hold 20 and 40.
        assert!(cursor(0, &[9, 20], INSPECT_FULL).is_none());
        assert!(cursor(0, &[9, 20, 40], INSPECT_FULL).is_none());
    }

    #[test]
    fn cursor_drops_when_mask_exhausted() {
        assert!(cursor(0, &[1], INSPECT_FULL).is_none());
    }
}
