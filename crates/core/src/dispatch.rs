//! Public entry point: algorithm / mask-mode / phase selection and
//! validation, plus the density-driven `Auto` heuristic distilled from the
//! paper's Fig 7 decision surface.

use crate::algos::hash::HashKernel;
use crate::algos::heap::HeapKernel;
use crate::algos::inner::{inner_masked_mxm, inner_masked_mxm_complement};
use crate::algos::mca::McaKernel;
use crate::algos::msa::MsaKernel;
use crate::phases::{run_push_with, Phases};
use crate::schedule::ExecOpts;
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::{transpose, Csr};

/// Which Masked SpGEMM algorithm to run (§8's scheme names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Masked sparse accumulator (§5.2) — dense states/values arrays.
    Msa,
    /// Hash accumulator (§5.3) — open addressing, load factor 0.25.
    Hash,
    /// Mask-compressed accumulator (§5.4) — `nnz(m_i)`-sized arrays.
    Mca,
    /// Multiway-merge heap with `NInspect = 1` (§5.5).
    Heap,
    /// Multiway-merge heap with `NInspect = ∞` (§5.5, `HeapDot`).
    HeapDot,
    /// Pull-based dot products (§4.1). Transposes `B` internally unless
    /// [`masked_mxm_with_bt`] is used.
    Inner,
    /// Pick per the Fig 7 density heuristic, once for the whole call.
    Auto,
}

impl Algorithm {
    /// All concrete (non-`Auto`) algorithms, in the paper's listing order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Msa,
        Algorithm::Hash,
        Algorithm::Mca,
        Algorithm::Heap,
        Algorithm::HeapDot,
        Algorithm::Inner,
    ];

    /// The scheme name as it appears in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Msa => "MSA",
            Algorithm::Hash => "Hash",
            Algorithm::Mca => "MCA",
            Algorithm::Heap => "Heap",
            Algorithm::HeapDot => "HeapDot",
            Algorithm::Inner => "Inner",
            Algorithm::Auto => "Auto",
        }
    }

    /// Whether the algorithm supports complemented masks (§8.4: MCA does
    /// not).
    pub fn supports_complement(&self) -> bool {
        !matches!(self, Algorithm::Mca)
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parse a scheme name as the CLI spells it (case-insensitive):
    /// `msa`, `hash`, `mca`, `heap`, `heapdot`, `inner`, `auto`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "msa" => Ok(Algorithm::Msa),
            "hash" => Ok(Algorithm::Hash),
            "mca" => Ok(Algorithm::Mca),
            "heap" => Ok(Algorithm::Heap),
            "heapdot" | "heap-dot" => Ok(Algorithm::HeapDot),
            "inner" | "dot" => Ok(Algorithm::Inner),
            "auto" => Ok(Algorithm::Auto),
            other => Err(format!(
                "unknown algorithm '{other}' (expected msa|hash|mca|heap|heapdot|inner|auto)"
            )),
        }
    }
}

/// Structural mask interpretation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskMode {
    /// `C = M ⊙ (A·B)` — keep coordinates present in the mask.
    Mask,
    /// `C = ¬M ⊙ (A·B)` — keep coordinates absent from the mask.
    Complement,
}

impl std::str::FromStr for MaskMode {
    type Err = String;

    /// Parse a mask mode (case-insensitive): `normal`/`mask` or
    /// `complement`/`c`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "normal" | "mask" | "m" => Ok(MaskMode::Mask),
            "complement" | "complemented" | "c" => Ok(MaskMode::Complement),
            other => Err(format!(
                "unknown mask mode '{other}' (expected normal|complement)"
            )),
        }
    }
}

/// Errors reported by the dispatcher.
#[derive(Debug, PartialEq, Eq)]
pub enum Error {
    /// Operand shapes are incompatible.
    DimensionMismatch(String),
    /// The requested combination is not defined by the paper.
    Unsupported(&'static str),
    /// [`ExecOpts::deadline`] passed at a phase boundary; the product was
    /// abandoned before its next pass (see [`crate::phases::run_push_with`]).
    DeadlineExceeded,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch(s) => write!(f, "dimension mismatch: {s}"),
            Error::Unsupported(s) => write!(f, "unsupported: {s}"),
            Error::DeadlineExceeded => write!(f, "deadline exceeded before the numeric phase"),
        }
    }
}

impl std::error::Error for Error {}

fn check_dims<S: Semiring, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
) -> Result<(), Error> {
    if a.ncols() != b.nrows() {
        return Err(Error::DimensionMismatch(format!(
            "A is {}x{} but B is {}x{}",
            a.nrows(),
            a.ncols(),
            b.nrows(),
            b.ncols()
        )));
    }
    if mask.nrows() != a.nrows() || mask.ncols() != b.ncols() {
        return Err(Error::DimensionMismatch(format!(
            "mask is {}x{} but A·B is {}x{}",
            mask.nrows(),
            mask.ncols(),
            a.nrows(),
            b.ncols()
        )));
    }
    Ok(())
}

/// Masked SpGEMM: `C = M ⊙ (A·B)` (or `¬M ⊙ (A·B)`) on semiring `S`.
///
/// The mask is structural — its values are never read (§2). For
/// [`Algorithm::Inner`] the transpose of `B` is computed inside this call;
/// use [`masked_mxm_with_bt`] to amortize a precomputed `Bᵀ`.
///
/// # Errors
/// [`Error::DimensionMismatch`] for incompatible shapes,
/// [`Error::Unsupported`] for MCA with a complemented mask.
pub fn masked_mxm<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    algo: Algorithm,
    mode: MaskMode,
    phases: Phases,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    M: Send + Sync,
{
    masked_mxm_with_opts::<S, M>(mask, a, b, algo, mode, phases, &ExecOpts::default())
}

/// [`masked_mxm`] with explicit execution options: row-scheduling policy,
/// cross-call workspace pool, and busy-time stats (see
/// [`crate::schedule`]). The options apply to the row-parallel push
/// drives; [`Algorithm::Inner`]'s pull path ignores them.
#[allow(clippy::too_many_arguments)]
pub fn masked_mxm_with_opts<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    algo: Algorithm,
    mode: MaskMode,
    phases: Phases,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    M: Send + Sync,
{
    check_dims::<S, M>(mask, a, b)?;
    let complement = mode == MaskMode::Complement;
    if complement && !algo.supports_complement() {
        return Err(Error::Unsupported(
            "MCA does not support complemented masks (paper §8.4)",
        ));
    }
    let algo = match algo {
        Algorithm::Auto => auto_select(mask, a, b, complement),
        other => other,
    };
    warm_gather_stream(a, b);
    match algo {
        Algorithm::Msa => run_push_with::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &MsaKernel { complement },
            opts,
        ),
        Algorithm::Hash => run_push_with::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HashKernel::new(complement),
            opts,
        ),
        Algorithm::Mca => {
            run_push_with::<S, _, M>(mask, a, b, complement, phases, &McaKernel, opts)
        }
        Algorithm::Heap => run_push_with::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HeapKernel::heap(complement),
            opts,
        ),
        Algorithm::HeapDot => run_push_with::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HeapKernel::heap_dot(complement),
            opts,
        ),
        Algorithm::Inner => {
            let bt = {
                let _span = mspgemm_obs::span("transpose");
                transpose(b)
            };
            Ok(if complement {
                inner_masked_mxm_complement::<S, M>(mask.view(), a.view(), bt.view())
            } else {
                inner_masked_mxm::<S, M>(mask.view(), a.view(), bt.view(), phases)
            })
        }
        Algorithm::Auto => unreachable!("Auto resolved above"),
    }
}

/// [`masked_mxm`] for [`Algorithm::Inner`] with a caller-provided `Bᵀ`
/// (`B` in CSC). Lets applications amortize the transpose across calls —
/// the paper notes SuiteSparse's per-call transpose as an overhead of
/// `SS:DOT` (§8.4).
pub fn masked_mxm_with_bt<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    bt: &Csr<S::Right>,
    mode: MaskMode,
    phases: Phases,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    M: Send + Sync,
{
    // bt is B transposed: B is bt.ncols() x bt.nrows().
    if a.ncols() != bt.ncols() {
        return Err(Error::DimensionMismatch(format!(
            "A is {}x{} but Bᵀ is {}x{}",
            a.nrows(),
            a.ncols(),
            bt.nrows(),
            bt.ncols()
        )));
    }
    if mask.nrows() != a.nrows() || mask.ncols() != bt.nrows() {
        return Err(Error::DimensionMismatch(format!(
            "mask is {}x{} but A·B is {}x{}",
            mask.nrows(),
            mask.ncols(),
            a.nrows(),
            bt.nrows()
        )));
    }
    Ok(match mode {
        MaskMode::Mask => inner_masked_mxm::<S, M>(mask.view(), a.view(), bt.view(), phases),
        MaskMode::Complement => {
            inner_masked_mxm_complement::<S, M>(mask.view(), a.view(), bt.view())
        }
    })
}

/// Prime the head of the push drives' B-row gather stream: the first
/// rows of `B` that row 0 of `A` will fetch are known before any kernel
/// runs, so their rowptr entries are prefetched here while the executor
/// pool spins up. The per-iteration prefetches inside the kernels
/// ([`crate::phases::RowCtx::prefetch_ahead`]) take over from there.
fn warm_gather_stream<L, R>(a: &Csr<L>, b: &Csr<R>) {
    if a.nrows() == 0 || !crate::simd::PREFETCH {
        return;
    }
    let bv = b.view();
    for &k in a.view().row_cols(0).iter().take(8) {
        crate::simd::prefetch_b_rowptr(&bv, k as usize);
    }
}

/// The Fig 7 decision surface, reduced to average densities:
///
/// * mask much sparser than the inputs → `Inner` (pull wins: §4.3);
/// * inputs much sparser than the mask → `Heap`;
/// * otherwise `MSA` on narrow matrices (accumulator fits cache),
///   `Hash` on wide ones (§8.1: "MSA performing better on smaller
///   matrices and Hash on larger ones").
///
/// Complemented masks never choose `Inner`/`Heap` (the paper's BC results
/// exclude them as prohibitively slow) — MSA/Hash by width.
pub fn auto_select<M, L, R>(mask: &Csr<M>, a: &Csr<L>, b: &Csr<R>, complement: bool) -> Algorithm {
    let nrows = mask.nrows().max(1) as f64;
    let dm = mask.nnz() as f64 / nrows;
    let da = a.nnz() as f64 / a.nrows().max(1) as f64;
    let db = b.nnz() as f64 / b.nrows().max(1) as f64;
    let d_in = da.min(db);
    /// Matrices narrower than this keep a dense MSA row resident in cache.
    const MSA_WIDTH_LIMIT: usize = 1 << 16;
    if complement {
        return if b.ncols() <= MSA_WIDTH_LIMIT {
            Algorithm::Msa
        } else {
            Algorithm::Hash
        };
    }
    if dm * 8.0 <= d_in {
        Algorithm::Inner
    } else if da.max(db) * 8.0 <= dm {
        Algorithm::Heap
    } else if b.ncols() <= MSA_WIDTH_LIMIT {
        Algorithm::Msa
    } else {
        Algorithm::Hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::semiring::PlusTimesI64;

    fn dense(n: usize, v: i64) -> Csr<i64> {
        let d: Vec<Vec<Option<i64>>> = (0..n).map(|_| vec![Some(v); n]).collect();
        Csr::from_dense(&d, n)
    }

    #[test]
    fn dimension_checks() {
        let a = dense(3, 1);
        let b = dense(4, 1);
        let m = dense(3, 1).pattern();
        let r =
            masked_mxm::<PlusTimesI64, ()>(&m, &a, &b, Algorithm::Msa, MaskMode::Mask, Phases::One);
        assert!(matches!(r, Err(Error::DimensionMismatch(_))));

        let b3 = dense(3, 1);
        let m_wrong = Csr::<()>::empty(2, 3);
        let r = masked_mxm::<PlusTimesI64, ()>(
            &m_wrong,
            &a,
            &b3,
            Algorithm::Msa,
            MaskMode::Mask,
            Phases::One,
        );
        assert!(matches!(r, Err(Error::DimensionMismatch(_))));
    }

    #[test]
    fn mca_complement_rejected() {
        let a = dense(3, 1);
        let m = a.pattern();
        let r = masked_mxm::<PlusTimesI64, ()>(
            &m,
            &a,
            &a,
            Algorithm::Mca,
            MaskMode::Complement,
            Phases::One,
        );
        assert_eq!(
            r.unwrap_err(),
            Error::Unsupported("MCA does not support complemented masks (paper §8.4)")
        );
    }

    #[test]
    fn auto_picks_inner_for_sparse_mask() {
        // Inputs dense (degree n), mask nearly empty.
        let a = dense(64, 1);
        let mut md = vec![vec![None; 64]; 64];
        md[0][0] = Some(());
        let m = Csr::from_dense(&md, 64);
        assert_eq!(auto_select(&m, &a, &a, false), Algorithm::Inner);
    }

    #[test]
    fn auto_picks_heap_for_sparse_inputs() {
        let m = dense(64, 1).pattern();
        let a = Csr::<i64>::diagonal(64, 1);
        assert_eq!(auto_select(&m, &a, &a, false), Algorithm::Heap);
    }

    #[test]
    fn auto_balanced_picks_msa_small() {
        let a = dense(8, 1);
        let m = a.pattern();
        assert_eq!(auto_select(&m, &a, &a, false), Algorithm::Msa);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn expired_deadline_cancels_before_any_pass() {
        let a = dense(16, 1);
        let m = a.pattern();
        let opts = ExecOpts {
            deadline: std::time::Instant::now().checked_sub(std::time::Duration::from_secs(1)),
            ..ExecOpts::default()
        };
        for phases in [Phases::One, Phases::Two] {
            let r = masked_mxm_with_opts::<PlusTimesI64, ()>(
                &m,
                &a,
                &a,
                Algorithm::Hash,
                MaskMode::Mask,
                phases,
                &opts,
            );
            assert_eq!(r.unwrap_err(), Error::DeadlineExceeded);
        }
        // No deadline (the default) still completes.
        let r = masked_mxm_with_opts::<PlusTimesI64, ()>(
            &m,
            &a,
            &a,
            Algorithm::Hash,
            MaskMode::Mask,
            Phases::One,
            &ExecOpts::default(),
        );
        assert!(r.is_ok());
    }
}
