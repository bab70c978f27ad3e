//! The pull-based Inner (dot-product) kernel (paper §4.1): for every
//! unmasked output coordinate `(i, j)`, compute the sparse dot product
//! `A_i* · B_*j`. Needs `B` in column-major order, carried by the kernel
//! as `Bᵀ` stored in CSR. A row kernel like the push ones, so the
//! [`crate::phases`] driver runs it one- or two-phase on any thread count.
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
//!
//! A numeric dot probes in one of two loops. Where probes rarely hit (a
//! sparse mask over ER inputs: 0.1–0.4 %), the branchy loop multiplies
//! inside a well-predicted `hit` branch. Where they hit often (the
//! oriented self-product on R-MAT: ≈ 40 %) that branch mispredicts about
//! once per hit, so the dot splits in two: a branch-free pass writes every
//! probe's position into a hit buffer and advances its cursor by `hit`,
//! then a sum pass walks the recorded hits — in the order written,
//! ascending `k`, so both loops emit the same bits. Each executor picks
//! per row, by the hit rate of the rows it has computed so far in the
//! drive (`DENSE_HITS`).

use crate::phases::{RowCtx, RowKernel};
use crate::schedule::ProbeCounts;
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::{CsrRef, Idx};

/// A row's dots take the branch-free pass when more than one probe in
/// `DENSE_HITS` hit over the rows its executor computed before it in the
/// drive. Fitted, not derived: on ER inputs whose hit rate is swept, the
/// branchy loop is ahead up to ≈ 2 % hits and the branch-free one from
/// ≈ 3 % (by 15–30 % at 4–8 %, 2× at 25 %) — `docs/DECISIONS.md`.
const DENSE_HITS: u64 = 32;

/// The pull kernel's per-thread scratch: `pos[k]` is `1 +` the position of
/// column `k` in the `A` row being computed, `0` where the row has no
/// entry. All-zero between rows, so a pooled one serves any product; it
/// grows to the widest inner dimension it has met (4 bytes per column),
/// and so does the branch-free pass's hit buffer beside it once a row has
/// used it (a `Bᵀ` row is no longer than the inner dimension).
pub struct ScatterWs {
    pos: Vec<u32>,
    hits: Vec<u32>,
    /// Probes and hits since the last [`RowKernel::take_probe_counts`] —
    /// the drive's rows so far, since every lease ends with one: what a
    /// row's loop is chosen by.
    counts: ProbeCounts,
}

impl ScatterWs {
    fn new(inner: usize) -> Self {
        ScatterWs {
            pos: vec![0; inner],
            hits: Vec::new(),
            counts: ProbeCounts::default(),
        }
    }

    /// Scatter the `A` row over the whole inner dimension.
    fn scatter(&mut self, a_cols: &[Idx], inner: usize) {
        if self.pos.len() < inner {
            self.pos.resize(inner, 0);
        }
        for (x, &k) in a_cols.iter().enumerate() {
            self.pos[k as usize] = x as u32 + 1;
        }
    }

    /// Undo [`Self::scatter`] of the same row.
    fn clear(&mut self, a_cols: &[Idx]) {
        for &k in a_cols {
            self.pos[k as usize] = 0;
        }
    }

    /// Scatter the `A` row and choose the loop its dots take.
    fn begin_row<'a, L>(&'a mut self, a_cols: &[Idx], av: &'a [L], inner: usize) -> RowDots<'a, L> {
        self.scatter(a_cols, inner);
        let seen = self.counts;
        let branch_free = seen.hits * DENSE_HITS > seen.probes;
        if branch_free && self.hits.len() < self.pos.len() {
            self.hits.resize(self.pos.len(), 0);
        }
        RowDots {
            pos: &self.pos,
            av,
            hits: &mut self.hits,
            branch_free,
            counts: &mut self.counts,
        }
    }
}

/// One row's dots against its scattered `A` row, in the loop chosen for
/// the row, counting probes and hits as they go.
struct RowDots<'a, L> {
    pos: &'a [u32],
    av: &'a [L],
    hits: &'a mut [u32],
    branch_free: bool,
    counts: &'a mut ProbeCounts,
}

impl<L: Copy> RowDots<'_, L> {
    /// `A_i* · Bᵀ_j*`, products summed in `Bᵀ_j`'s (ascending `k`) order.
    /// `None` when the patterns do not intersect (no output entry —
    /// GraphBLAS structural semantics).
    #[inline(always)]
    fn dot<S: Semiring<Left = L>>(&mut self, bc: &[Idx], bv: &[S::Right]) -> Option<S::Out> {
        self.counts.probes += bc.len() as u64;
        if self.branch_free {
            let n = record_hits(self.pos, bc, self.hits);
            self.counts.hits += n as u64;
            sum_hits::<S>(self.pos, self.av, bc, bv, &self.hits[..n])
        } else {
            probe_dot::<S>(self.pos, self.av, bc, bv, &mut self.counts.hits)
        }
    }
}

/// The branchy dot: multiply inside the `hit` branch, counting the hits.
#[inline(always)]
fn probe_dot<S: Semiring>(
    pos: &[u32],
    av: &[S::Left],
    bc: &[Idx],
    bv: &[S::Right],
    hits: &mut u64,
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
    *hits += 1;
    for (&k, &b) in entries {
        let p = pos[k as usize];
        if p != 0 {
            *hits += 1;
            acc = S::add(acc, S::mul(av[p as usize - 1], b));
        }
    }
    Some(acc)
}

/// The branch-free probe pass: the position in `bc` of every probe that
/// hit, in order, into `hits[..n]`; returns `n`. Every probe stores, and
/// only a hit advances the cursor past its store. `hits` holds at least
/// `bc.len()` entries.
#[inline(always)]
fn record_hits(pos: &[u32], bc: &[Idx], hits: &mut [u32]) -> usize {
    let mut n = 0;
    for (x, &k) in bc.iter().enumerate() {
        hits[n] = x as u32;
        n += usize::from(pos[k as usize] != 0);
    }
    n
}

/// The sum pass over the hits [`record_hits`] recorded, in the order it
/// recorded them.
#[inline(always)]
fn sum_hits<S: Semiring>(
    pos: &[u32],
    av: &[S::Left],
    bc: &[Idx],
    bv: &[S::Right],
    hits: &[u32],
) -> Option<S::Out> {
    let term = |x: u32| {
        let x = x as usize;
        S::mul(av[pos[bc[x] as usize] as usize - 1], bv[x])
    };
    let (&first, rest) = hits.split_first()?;
    Some(
        rest.iter()
            .fold(term(first), |acc, &x| S::add(acc, term(x))),
    )
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
        ScatterWs::new(self.bt.ncols())
    }

    fn ws_depends_on_ncols(&self) -> bool {
        false
    }

    fn take_probe_counts(ws: &mut ScatterWs) -> ProbeCounts {
        std::mem::take(&mut ws.counts)
    }

    /// One probe pass per candidate, stopping at its first hit — the
    /// branchy loop whatever the hit rate (it mispredicts once per
    /// candidate at most), and counted nowhere.
    fn row_symbolic(&self, ws: &mut ScatterWs, ctx: RowCtx<'_, S>) -> usize {
        // No entry to hit: skip the candidate walk altogether.
        if ctx.a_cols.is_empty() {
            return 0;
        }
        ws.scatter(ctx.a_cols, self.bt.ncols());
        let pos = &ws.pos;
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
        let mut dots = ws.begin_row(ac, av, self.bt.ncols());
        let mut w = 0usize;
        // One straight loop per mask mode: sharing the emit step through
        // a closure measured slower (`docs/DECISIONS.md`).
        if self.complement {
            for j in non_mask(&self.nonempty, ctx.mask_cols) {
                let (bc, bv) = self.bt.row(j as usize);
                if let Some(v) = dots.dot::<S>(bc, bv) {
                    out_cols[w] = j;
                    out_vals[w] = v;
                    w += 1;
                }
            }
        } else {
            for &j in ctx.mask_cols {
                let (bc, bv) = self.bt.row(j as usize);
                if let Some(v) = dots.dot::<S>(bc, bv) {
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
    use crate::schedule::{ExecOpts, ExecStats, WsPool};
    use mspgemm_sparse::semiring::{PlusPairU64, PlusTimesF64, PlusTimesI64};
    use mspgemm_sparse::{transpose, Csr};
    use proptest::prelude::*;

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
        // Inner dimension 4 first, then 9 (the parked arrays must grow),
        // then 4 again (a longer array must still read all-clear). Half of
        // every probe hits, so the dots take the branch-free pass and its
        // hit buffer grows with the position array.
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

    /// One dot in both loops — the branchy one and the branch-free pass
    /// with its sum — off one scattered `A` row, with the hits each
    /// counted. The position array must read all-clear afterwards.
    fn both_loops<S: Semiring>(
        (ac, av): (&[Idx], &[S::Left]),
        (bc, bv): (&[Idx], &[S::Right]),
        inner: usize,
    ) -> [(Option<S::Out>, u64); 2] {
        let mut ws = ScatterWs::new(inner);
        ws.scatter(ac, inner);
        let mut branchy_hits = 0;
        let branchy = probe_dot::<S>(&ws.pos, av, bc, bv, &mut branchy_hits);
        let mut hits = vec![0; inner];
        let n = record_hits(&ws.pos, bc, &mut hits);
        let branch_free = sum_hits::<S>(&ws.pos, av, bc, bv, &hits[..n]);
        ws.clear(ac);
        assert!(ws.pos.iter().all(|&p| p == 0));
        [(branchy, branchy_hits), (branch_free, n as u64)]
    }

    #[test]
    fn the_two_loops_agree_at_every_hit_density() {
        // A `Bᵀ` row over the even columns of a 200-wide inner dimension;
        // the `A` row holds the first `hit` of them and every odd column
        // (never probed): 0 / 1 / 50 / 100 % of the probes hit.
        let inner = 200;
        let bc: Vec<Idx> = (0..100).map(|x| 2 * x).collect();
        let bv: Vec<i64> = (0..100).map(|x| x % 5 - 2).collect();
        for hit in [0usize, 1, 50, 100] {
            let mut ac: Vec<Idx> = bc[..hit].to_vec();
            ac.extend((1..inner as Idx).step_by(2));
            ac.sort_unstable();
            let av: Vec<i64> = ac.iter().map(|&k| k as i64 % 7 + 1).collect();
            let want = (hit > 0).then(|| {
                let terms = bc[..hit].iter().zip(&bv);
                terms.map(|(&k, &b)| (k as i64 % 7 + 1) * b).sum::<i64>()
            });
            let got = both_loops::<PlusTimesI64>((&ac, &av), (&bc, &bv), inner);
            assert_eq!(got, [(want, hit as u64); 2], "{hit} % of the probes hit");
            let units = vec![(); 100];
            let got = both_loops::<PlusPairU64>((&ac, &vec![(); ac.len()]), (&bc, &units), inner);
            let want = (hit > 0).then_some(hit as u64);
            assert_eq!(got, [(want, hit as u64); 2], "{hit} % of the probes hit");
        }
        // An empty `Bᵀ` row: no probe, no output entry, in either loop.
        let got = both_loops::<PlusTimesI64>((&[3], &[1]), (&[], &[]), inner);
        assert_eq!(got, [(None, 0); 2]);
    }

    #[test]
    fn the_two_loops_sum_in_the_same_order() {
        // `A = [1 1 1]` against the order-sensitive B rows' columns 3 and 5
        // as `Bᵀ` rows: (1e16 + 1.0) + -1e16 and (1e16 + -1e16) + 1.0 come
        // out 0.0 and 1.0 only in k-ascending order — compared by bits.
        let rows = order_sensitive_rows();
        let column = |j: Idx| -> (Vec<Idx>, Vec<f64>) {
            let entries = rows.iter().enumerate().filter_map(|(k, (cols, vals))| {
                let x = cols.iter().position(|&c| c == j)?;
                Some((k as Idx, vals[x]))
            });
            entries.unzip()
        };
        let (ac, av) = (vec![0, 1, 2], vec![1.0f64; 3]);
        for (j, want) in [(3, 0.0f64), (5, 1.0)] {
            let (bc, bv) = column(j);
            for (got, hits) in both_loops::<PlusTimesF64>((&ac, &av), (&bc, &bv), 3) {
                assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "column {j}");
                assert_eq!(hits, 3);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random `A` and `Bᵀ` rows of random densities over one inner
        /// dimension, values spanning 32 orders of magnitude: the two
        /// loops agree by bits and on the hit count, which is the size of
        /// the patterns' intersection.
        #[test]
        fn the_two_loops_agree_by_bits(
            inner in 1usize..96,
            a_keep in 0u32..=100,
            b_keep in 0u32..=100,
            a_draws in proptest::collection::vec(0u32..100, 96),
            b_draws in proptest::collection::vec(0u32..100, 96),
            values in proptest::collection::vec(0usize..6, 96),
        ) {
            const VALUES: [f64; 6] = [1e16, 1.0, -1e16, 3.5, -0.25, 1e-16];
            let (mut ac, mut av, mut bc, mut bv) = (vec![], vec![], vec![], vec![]);
            for k in 0..inner {
                if a_draws[k] < a_keep {
                    ac.push(k as Idx);
                    av.push(VALUES[values[k]]);
                }
                if b_draws[k] < b_keep {
                    bc.push(k as Idx);
                    bv.push(VALUES[5 - values[k]]);
                }
            }
            let common = bc.iter().filter(|k| ac.contains(k)).count() as u64;
            let [(branchy, h1), (branch_free, h2)] =
                both_loops::<PlusTimesF64>((&ac, &av), (&bc, &bv), inner);
            prop_assert_eq!(branchy.map(f64::to_bits), branch_free.map(f64::to_bits));
            prop_assert_eq!((h1, h2), (common, common));
            prop_assert_eq!(branchy.is_some(), common > 0);
            let ints: Vec<i64> = av.iter().map(|&x| x.log10() as i64).collect();
            let [(x, _), (y, _)] =
                both_loops::<PlusTimesI64>((&ac, &ints), (&bc, &vec![3; bc.len()]), inner);
            prop_assert_eq!(x, y);
        }
    }

    #[test]
    fn rows_that_switch_loops_mid_drive_match_the_reference() {
        // Dense rows of `A` are full (every probe hits) and have 8
        // candidates; sparse rows hold one entry (one probe in 256 hits)
        // and have 256 — under either mask mode, the complemented mask
        // being the other's complement. In one executor's drive, rows 0–2
        // are dense, 3–8 sparse, 9–13 dense: the sparse rows start
        // branch-free on the dense rows' hits and wear the rate down to
        // branchy, and the dense rows after them bring it back up.
        let inner = 256;
        let dense = |i: usize| !(3..=8).contains(&i);
        let a = rect(14, inner, |i, k| dense(i) || k == 5 * i % inner);
        let b = rect(inner, 256, |_, _| true);
        let bt = transpose(&b);
        let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build();
        let one_thread = one_thread.unwrap();
        for complement in [false, true] {
            let candidate = |i: usize, j: usize| !dense(i) || j % 32 == i;
            let mask = rect(14, 256, |i, j| candidate(i, j) != complement).pattern();
            let kernel = InnerKernel::new(bt.view(), complement);
            // Replay the one executor's rows, noting each row's loop.
            let mut ws = ScatterWs::new(inner);
            let mut loops = Vec::new();
            for i in 0..a.nrows() {
                let (ac, av) = a.row(i);
                let mut dots = ws.begin_row(ac, av, inner);
                loops.push(dots.branch_free);
                let cands: Vec<Idx> = if complement {
                    non_mask(&kernel.nonempty, mask.row_cols(i)).collect()
                } else {
                    mask.row_cols(i).to_vec()
                };
                for j in cands {
                    let (bc, bv) = bt.row(j as usize);
                    dots.dot::<PlusTimesI64>(bc, bv);
                }
                ws.clear(ac);
            }
            // Whether some row switched to the branchy loop, and whether
            // some switched to the branch-free one.
            let mut switched = [false; 2];
            for w in loops.windows(2).filter(|w| w[0] != w[1]) {
                switched[usize::from(w[1])] = true;
            }
            assert_eq!(switched, [true, true], "complement={complement}");
            let want = reference(&mask, &a, &b, complement);
            for phases in [Phases::One, Phases::Two] {
                let got = one_thread.install(|| {
                    run_kernel::<PlusTimesI64, _, ()>(
                        &mask,
                        &a,
                        &b,
                        complement,
                        phases,
                        &kernel,
                        None,
                        &ExecOpts::default(),
                    )
                });
                assert_eq!(got.unwrap(), want, "complement={complement} {phases:?}");
            }
        }
    }

    #[test]
    fn lease_end_folds_probes_and_hits_into_exec_stats() {
        let a = rect(9, 12, |i, k| (i * 5 + k * 3) % 4 == 0);
        let b = rect(12, 10, |k, j| (k + j) % 3 != 0);
        let bt = transpose(&b);
        let mask = rect(9, 10, |i, j| (i + 2 * j) % 3 == 0).pattern();
        let pool = WsPool::new();
        for complement in [false, true] {
            // Brute force over the rows with an `A` entry: every candidate
            // probes its whole `Bᵀ` row, and a probe hits where `A` holds k.
            let (mut probes, mut hits) = (0u64, 0u64);
            for i in (0..9).filter(|&i| a.row_nnz(i) > 0) {
                for j in (0..10).filter(|&j| mask.get(i, j as Idx).is_some() != complement) {
                    let bc = bt.row_cols(j);
                    probes += bc.len() as u64;
                    hits += bc.iter().filter(|&&k| a.get(i, k).is_some()).count() as u64;
                }
            }
            assert!(0 < hits && hits < probes);
            let kernel = InnerKernel::new(bt.view(), complement);
            for phases in [Phases::One, Phases::Two] {
                let stats = ExecStats::new();
                let opts = ExecOpts {
                    ws_pool: Some(&pool),
                    stats: Some(&stats),
                    ..ExecOpts::default()
                };
                run_kernel::<PlusTimesI64, _, ()>(
                    &mask, &a, &b, complement, phases, &kernel, None, &opts,
                )
                .unwrap();
                // The symbolic pass of a two-phase run counts nothing.
                let want = ProbeCounts { probes, hits };
                assert_eq!(stats.probes(), want, "complement={complement} {phases:?}");
                assert_eq!(stats.products(), Default::default());
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
