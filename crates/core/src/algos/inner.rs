//! The pull-based Inner (dot-product) kernel (paper §4.1): for every
//! unmasked output coordinate `(i, j)`, compute the sparse dot product
//! `A_i* · B_*j`. Needs `B` in column-major order, carried by the kernel
//! as `Bᵀ` stored in CSR. A row kernel like the push ones, so the
//! [`crate::phases`] driver runs it one- or two-phase under any schedule.
//!
//! A row **scatters** its `A` row once into a position array over the
//! inner dimension ([`ScatterWs`]) and then walks each candidate `Bᵀ` row,
//! probing the array per entry: a candidate costs `|Bᵀ_j|` probes instead
//! of a two-pointer merge's `|A_i| + |Bᵀ_j|` steps, and the sums keep the
//! merge's `k`-ascending order — the push kernels' order too, so every
//! scheme emits the same bits. The array is cleared by re-walking the `A`
//! row, so a row costs `2·|A_i| + Σ_{j candidate} |Bᵀ_j|` whatever the
//! inner dimension is.
//!
//! Candidates are the mask row's columns, or — complemented — every
//! *non*-mask column whose `Bᵀ` row is nonempty. Which direction is
//! cheaper depends on the product, not on the mask mode: late BFS levels
//! of BC leave few unvisited columns under long `A` rows, and pulling them
//! beats forming every product ([`crate::dispatch`] counts both sides).
//! Complemented one-phase rows are bounded like every complemented push
//! row, by `min(flops_i, ncols − nnz(m_i))`: an output entry needs at
//! least one product.

use crate::phases::{RowCtx, RowKernel};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::{CsrRef, Idx};

/// The pull kernel's per-thread scratch: `pos[k]` is `1 +` the position of
/// column `k` in the `A` row being computed, `0` where the row has no
/// entry. All-zero between rows, so a pooled one serves any product; it
/// grows to the widest inner dimension it has met (4 bytes per column).
pub struct ScatterWs {
    pos: Vec<u32>,
}

impl ScatterWs {
    /// Scatter the `A` row; the slice covers the whole inner dimension.
    fn scatter(&mut self, a_cols: &[Idx], inner: usize) -> &[u32] {
        if self.pos.len() < inner {
            self.pos.resize(inner, 0);
        }
        for (x, &k) in a_cols.iter().enumerate() {
            self.pos[k as usize] = x as u32 + 1;
        }
        &self.pos
    }

    /// Undo [`Self::scatter`] of the same row.
    fn clear(&mut self, a_cols: &[Idx]) {
        for &k in a_cols {
            self.pos[k as usize] = 0;
        }
    }
}

/// `A_i* · Bᵀ_j*` off the scattered `A` row, products summed in `Bᵀ_j`'s
/// (ascending `k`) order. `None` when the patterns do not intersect (no
/// output entry — GraphBLAS structural semantics).
#[inline(always)]
fn probe_dot<S: Semiring>(
    pos: &[u32],
    av: &[S::Left],
    bc: &[Idx],
    bv: &[S::Right],
) -> Option<S::Out> {
    let mut entries = bc.iter().zip(bv);
    // The first hit starts the sum; the semiring has no zero to start from.
    let mut acc = loop {
        let (&k, &b) = entries.next()?;
        let p = pos[k as usize];
        if p != 0 {
            break S::mul(av[p as usize - 1], b);
        }
    };
    for (&k, &b) in entries {
        let p = pos[k as usize];
        if p != 0 {
            acc = S::add(acc, S::mul(av[p as usize - 1], b));
        }
    }
    Some(acc)
}

/// The pull kernel: `Bᵀ` in CSR (i.e. `B` in CSC) and the mask
/// interpretation. It ignores [`RowCtx::b`] and probes rows of its own
/// `bt` against the scattered `A` row.
pub struct InnerKernel<'a, R> {
    bt: CsrRef<'a, R>,
    complement: bool,
    /// Columns whose `Bᵀ` row is nonempty, sorted: the complemented
    /// variant's candidates, computed once per product. Empty in normal
    /// mode, where the mask row itself lists the candidates.
    nonempty: Vec<Idx>,
}

impl<'a, R> InnerKernel<'a, R> {
    /// The kernel over `bt = Bᵀ` (a borrowed view — storage-agnostic like
    /// every operand), reading the mask as its complement or not.
    pub fn new(bt: CsrRef<'a, R>, complement: bool) -> Self {
        let nonempty = if complement {
            (0..bt.nrows())
                .filter(|&j| bt.row_nnz(j) > 0)
                .map(|j| j as Idx)
                .collect()
        } else {
            Vec::new()
        };
        Self {
            bt,
            complement,
            nonempty,
        }
    }
}

/// `cand \ mask`, both sorted — the columns a complemented row may emit —
/// by one merge pass.
fn non_mask<'a>(cand: &'a [Idx], mask: &'a [Idx]) -> impl Iterator<Item = Idx> + 'a {
    let mut y = 0usize;
    cand.iter().copied().filter(move |&j| {
        while y < mask.len() && mask[y] < j {
            y += 1;
        }
        mask.get(y) != Some(&j)
    })
}

impl<S: Semiring> RowKernel<S> for InnerKernel<'_, S::Right> {
    type Ws = ScatterWs;

    /// Sized by the *inner* dimension (`Bᵀ`'s columns), not the output's.
    fn make_ws(&self, _ncols: usize) -> Self::Ws {
        ScatterWs {
            pos: vec![0; self.bt.ncols()],
        }
    }

    fn ws_depends_on_ncols(&self) -> bool {
        false
    }

    /// One probe pass per candidate, stopping at its first hit.
    fn row_symbolic(&self, ws: &mut ScatterWs, ctx: RowCtx<'_, S>) -> usize {
        // No entry to hit: skip the candidate walk altogether.
        if ctx.a_cols.is_empty() {
            return 0;
        }
        let pos = ws.scatter(ctx.a_cols, self.bt.ncols());
        let hit = |j: Idx| {
            let bc = self.bt.row_cols(j as usize);
            bc.iter().any(|&k| pos[k as usize] != 0)
        };
        let n = if self.complement {
            non_mask(&self.nonempty, ctx.mask_cols)
                .filter(|&j| hit(j))
                .count()
        } else {
            ctx.mask_cols.iter().filter(|&&j| hit(j)).count()
        };
        ws.clear(ctx.a_cols);
        n
    }

    fn row_numeric(
        &self,
        ws: &mut ScatterWs,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        let (ac, av) = (ctx.a_cols, ctx.a_vals);
        if ac.is_empty() {
            return 0;
        }
        let pos = ws.scatter(ac, self.bt.ncols());
        let mut w = 0usize;
        // One straight loop per mask mode: sharing the emit step through
        // a closure measured slower (`docs/DECISIONS.md`).
        if self.complement {
            for j in non_mask(&self.nonempty, ctx.mask_cols) {
                let (bc, bv) = self.bt.row(j as usize);
                if let Some(v) = probe_dot::<S>(pos, av, bc, bv) {
                    out_cols[w] = j;
                    out_vals[w] = v;
                    w += 1;
                }
            }
        } else {
            for &j in ctx.mask_cols {
                let (bc, bv) = self.bt.row(j as usize);
                if let Some(v) = probe_dot::<S>(pos, av, bc, bv) {
                    out_cols[w] = j;
                    out_vals[w] = v;
                    w += 1;
                }
            }
        }
        ws.clear(ac);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::test_rows::order_sensitive_rows;
    use crate::phases::{run_kernel, Phases};
    use crate::schedule::{ExecOpts, WsPool};
    use mspgemm_sparse::semiring::{PlusTimesF64, PlusTimesI64};
    use mspgemm_sparse::{transpose, Csr};

    /// `rows × cols` with entry `(i, j)` stored when `keep(i, j)`.
    fn rect(rows: usize, cols: usize, keep: impl Fn(usize, usize) -> bool) -> Csr<i64> {
        let d: Vec<Vec<Option<i64>>> = (0..rows)
            .map(|i| {
                (0..cols)
                    .map(|j| keep(i, j).then_some((2 * i + 3 * j) as i64 % 7 + 1))
                    .collect()
            })
            .collect();
        Csr::from_dense(&d, cols)
    }

    /// The per-product reference: every `a_ik · b_kj`, `k` ascending, into
    /// a dense row; kept where the mask (or its complement) allows.
    fn reference(mask: &Csr<()>, a: &Csr<i64>, b: &Csr<i64>, complement: bool) -> Csr<i64> {
        let d: Vec<Vec<Option<i64>>> = (0..a.nrows())
            .map(|i| {
                let mut row = vec![None; b.ncols()];
                let (ac, av) = a.row(i);
                for (&k, &x) in ac.iter().zip(av) {
                    let (bc, bv) = b.row(k as usize);
                    for (&j, &y) in bc.iter().zip(bv) {
                        let cell = &mut row[j as usize];
                        *cell = Some(cell.unwrap_or(0) + x * y);
                    }
                }
                for (j, cell) in row.iter_mut().enumerate() {
                    if mask.get(i, j as Idx).is_some() == complement {
                        *cell = None;
                    }
                }
                row
            })
            .collect();
        Csr::from_dense(&d, b.ncols())
    }

    /// Both mask modes × both phase strategies against the reference.
    fn assert_all_modes(mask: &Csr<()>, a: &Csr<i64>, b: &Csr<i64>, opts: &ExecOpts<'_>) {
        let bt = transpose(b);
        for complement in [false, true] {
            let want = reference(mask, a, b, complement);
            let kernel = InnerKernel::new(bt.view(), complement);
            for phases in [Phases::One, Phases::Two] {
                let got = run_kernel::<PlusTimesI64, _, ()>(
                    mask, a, b, complement, phases, &kernel, None, opts,
                )
                .unwrap();
                assert_eq!(got, want, "complement={complement} {phases:?}");
            }
        }
    }

    #[test]
    fn rectangular_product_matches_the_per_product_reference() {
        // A 3×7 · B 7×5: the position array spans the inner dimension 7,
        // wider than the 5 output columns. Row 1 of A is empty; row 2 hits
        // every Bᵀ row (B's row 6 is full, and A holds (2, 6)).
        let a = rect(3, 7, |i, k| i != 1 && (i == 2 || (i + k) % 3 == 0));
        let b = rect(7, 5, |k, j| k == 6 || (k + 2 * j) % 4 == 0);
        assert_eq!(a.row_nnz(1), 0);
        assert_eq!(transpose(&b).row_nnz(3), 2, "a sparse Bᵀ row too");
        let mask = rect(3, 5, |i, j| (i + j) % 2 == 0).pattern();
        assert_all_modes(&mask, &a, &b, &ExecOpts::default());
        // Empty and full masks: every coordinate is a candidate of one mode.
        assert_all_modes(&Csr::empty(3, 5), &a, &b, &ExecOpts::default());
        assert_all_modes(
            &rect(3, 5, |_, _| true).pattern(),
            &a,
            &b,
            &ExecOpts::default(),
        );
    }

    #[test]
    fn pooled_scratch_serves_products_of_different_inner_dimension() {
        let pool = WsPool::new();
        let opts = ExecOpts {
            ws_pool: Some(&pool),
            ..ExecOpts::default()
        };
        // Inner dimension 4 first, then 9 (the parked array must grow),
        // then 4 again (a longer array must still read all-clear).
        for inner in [4usize, 9, 4] {
            let a = rect(6, inner, |i, k| (i + k) % 2 == 0);
            let b = rect(inner, 5, |k, j| (k * j) % 3 != 1);
            let mask = rect(6, 5, |i, j| (i * j) % 2 == 0).pattern();
            assert_all_modes(&mask, &a, &b, &opts);
        }
        assert!(pool.hits() > 0, "later products must reuse the scratch");
    }

    #[test]
    fn sums_keep_the_k_ascending_order() {
        // A = [1 1 1] over the order-sensitive B rows: column 3 sums
        // (1e16 + 1.0) + -1e16 and column 5 (1e16 + -1e16) + 1.0 only in
        // k-ascending order — compared by bits.
        let rows = order_sensitive_rows();
        let a = Csr::from_dense(&[vec![Some(1.0f64); rows.len()]], rows.len());
        let mut d = vec![vec![None; 6]; rows.len()];
        for (k, (cols, vals)) in rows.iter().enumerate() {
            for (&j, &v) in cols.iter().zip(vals) {
                d[k][j as usize] = Some(v);
            }
        }
        let b = Csr::from_dense(&d, 6);
        let bt = transpose(&b);
        let mask = Csr::from_dense(&[vec![None, Some(()), None, None, None, None]], 6);
        for (complement, want) in [
            (true, vec![(3 as Idx, 0.0f64), (5, 1.0)]),
            (false, vec![(1, 4.0)]),
        ] {
            let kernel = InnerKernel::new(bt.view(), complement);
            for phases in [Phases::One, Phases::Two] {
                let c = run_kernel::<PlusTimesF64, _, ()>(
                    &mask,
                    &a,
                    &b,
                    complement,
                    phases,
                    &kernel,
                    None,
                    &ExecOpts::default(),
                )
                .unwrap();
                let got: Vec<(Idx, u64)> = c.iter().map(|(_, j, v)| (j, v.to_bits())).collect();
                let want: Vec<(Idx, u64)> = want.iter().map(|&(j, v)| (j, v.to_bits())).collect();
                assert_eq!(got, want, "complement={complement} {phases:?}");
            }
        }
    }

    #[test]
    fn nonmask_iterator_subtracts() {
        let cand: &[Idx] = &[0, 2, 4, 6, 8];
        let mask: &[Idx] = &[2, 3, 8];
        let got: Vec<Idx> = non_mask(cand, mask).collect();
        assert_eq!(got, vec![0, 4, 6]);
    }
}
