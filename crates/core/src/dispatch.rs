//! Public entry point: algorithm / mask-mode / phase selection and
//! validation, plus the density-driven `Auto` heuristic distilled from the
//! paper's Fig 7 decision surface.

use crate::algos::hash::HashKernel;
use crate::algos::heap::HeapKernel;
use crate::algos::inner::InnerKernel;
use crate::algos::mca::McaKernel;
use crate::algos::msa::MsaKernel;
use crate::phases::{run_kernel, Phases};
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
    /// [`masked_mxm_with_bt`] is handed a `Bᵀ`.
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
    /// abandoned before its next pass (see [`crate::phases::run_kernel`]).
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
    bt: Option<&Csr<S::Right>>,
) -> Result<(), Error> {
    let show = |(rows, cols): (usize, usize)| format!("{rows}x{cols}");
    let (am, ak) = (a.nrows(), a.ncols());
    let (bk, bn) = (b.nrows(), b.ncols());
    let mask = (mask.nrows(), mask.ncols());
    let bad = if ak != bk {
        format!("A is {} but B is {}", show((am, ak)), show((bk, bn)))
    } else if mask != (am, bn) {
        format!("mask is {} but A·B is {}", show(mask), show((am, bn)))
    } else if let Some(bt) = bt.filter(|bt| (bt.nrows(), bt.ncols()) != (bn, bk)) {
        // The pull kernel indexes `bt` by output column and its column
        // ids by `A`'s: any other shape would be read out of bounds.
        let bt = show((bt.nrows(), bt.ncols()));
        format!("B is {} but the supplied Bᵀ is {bt}", show((bk, bn)))
    } else {
        return Ok(());
    };
    Err(Error::DimensionMismatch(bad))
}

/// Masked SpGEMM: `C = M ⊙ (A·B)` (or `¬M ⊙ (A·B)`) on semiring `S`, under
/// `opts` — row schedule, workspace pool, busy-time stats, deadline (see
/// [`crate::schedule`]; `&ExecOpts::default()` for a one-shot call).
///
/// The mask is structural — its values are never read (§2). When
/// [`Algorithm::Inner`] runs, `B` is transposed inside this call; use
/// [`masked_mxm_with_bt`] to amortize a precomputed `Bᵀ`.
///
/// # Errors
/// [`Error::DimensionMismatch`] for incompatible shapes,
/// [`Error::Unsupported`] for MCA with a complemented mask,
/// [`Error::DeadlineExceeded`] for a deadline passed at a phase boundary.
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
    masked_mxm_with_bt::<S, M>(mask, a, b, None, algo, mode, phases, opts)
}

/// [`masked_mxm_with_opts`] with an optional caller-provided `bt = Bᵀ`
/// (`B` in CSC) — the one implementation behind every masked product.
/// The pull kernel reads `bt` whenever it runs (named, or picked by
/// [`Algorithm::Auto`]) instead of transposing `B`, so applications
/// amortize the transpose across calls (the paper notes SuiteSparse's
/// per-call transpose as an overhead of `SS:DOT`, §8.4); the push kernels
/// ignore it. Its shape is checked; its values are trusted to be `B`'s.
#[allow(clippy::too_many_arguments)]
pub fn masked_mxm_with_bt<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    bt: Option<&Csr<S::Right>>,
    algo: Algorithm,
    mode: MaskMode,
    phases: Phases,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    M: Send + Sync,
{
    check_dims::<S, M>(mask, a, b, bt)?;
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
        Algorithm::Msa => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &MsaKernel { complement },
            opts,
        ),
        Algorithm::Hash => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HashKernel { complement },
            opts,
        ),
        Algorithm::Mca => run_kernel::<S, _, M>(mask, a, b, complement, phases, &McaKernel, opts),
        Algorithm::Heap => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HeapKernel::heap(complement),
            opts,
        ),
        Algorithm::HeapDot => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HeapKernel::heap_dot(complement),
            opts,
        ),
        Algorithm::Inner => {
            let transposed;
            let bt = match bt {
                Some(bt) => bt,
                None => {
                    let _span = mspgemm_obs::span("transpose");
                    transposed = transpose(b);
                    &transposed
                }
            };
            let kernel = InnerKernel::new(bt.view(), complement);
            run_kernel::<S, _, M>(mask, a, b, complement, phases, &kernel, opts)
        }
        Algorithm::Auto => unreachable!("Auto resolved above"),
    }
}

/// Prime the head of the push kernels' B-row gather stream: the first
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
pub(crate) fn auto_select<M, L, R>(
    mask: &Csr<M>,
    a: &Csr<L>,
    b: &Csr<R>,
    complement: bool,
) -> Algorithm {
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

    /// `C = mode(M) ⊙ (A·B)` under default options.
    fn mxm(
        m: &Csr<()>,
        a: &Csr<i64>,
        b: &Csr<i64>,
        algo: Algorithm,
        mode: MaskMode,
    ) -> Result<Csr<i64>, Error> {
        let opts = ExecOpts::default();
        masked_mxm_with_opts::<PlusTimesI64, ()>(m, a, b, algo, mode, Phases::One, &opts)
    }

    #[test]
    fn dimension_checks() {
        let a = dense(3, 1);
        let b = dense(4, 1);
        let m = dense(3, 1).pattern();
        let r = mxm(&m, &a, &b, Algorithm::Msa, MaskMode::Mask);
        assert!(matches!(r, Err(Error::DimensionMismatch(_))));

        let b3 = dense(3, 1);
        let m_wrong = Csr::<()>::empty(2, 3);
        let r = mxm(&m_wrong, &a, &b3, Algorithm::Msa, MaskMode::Mask);
        assert!(matches!(r, Err(Error::DimensionMismatch(_))));
    }

    #[test]
    fn supplied_bt_of_the_wrong_shape_is_a_dimension_mismatch() {
        // B is 3x5, so Bᵀ is 5x3. Anything else must be refused before
        // the pull kernel indexes it — whatever the algorithm asked for.
        let a = dense(3, 1);
        let b = Csr::from_dense(&vec![vec![Some(1i64); 5]; 3], 5);
        let m = Csr::from_dense(&vec![vec![Some(()); 5]; 3], 5);
        let opts = ExecOpts::default();
        let run = |bt: &Csr<i64>, algo| {
            masked_mxm_with_bt::<PlusTimesI64, ()>(
                &m,
                &a,
                &b,
                Some(bt),
                algo,
                MaskMode::Mask,
                Phases::One,
                &opts,
            )
        };
        for algo in [Algorithm::Inner, Algorithm::Msa, Algorithm::Auto] {
            for bad in [&b, &dense(3, 1), &dense(5, 1)] {
                let r = run(bad, algo);
                assert!(matches!(r, Err(Error::DimensionMismatch(_))), "{algo:?}");
            }
            assert_eq!(
                run(&transpose(&b), algo),
                mxm(&m, &a, &b, algo, MaskMode::Mask)
            );
        }
    }

    #[test]
    fn mca_complement_rejected() {
        let a = dense(3, 1);
        let m = a.pattern();
        let r = mxm(&m, &a, &a, Algorithm::Mca, MaskMode::Complement);
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
        for algo in Algorithm::ALL {
            for phases in [Phases::One, Phases::Two] {
                let r = masked_mxm_with_opts::<PlusTimesI64, ()>(
                    &m,
                    &a,
                    &a,
                    algo,
                    MaskMode::Mask,
                    phases,
                    &opts,
                );
                assert_eq!(
                    r.unwrap_err(),
                    Error::DeadlineExceeded,
                    "{algo:?} {phases:?}"
                );
            }
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
