//! Row kernels for each Masked SpGEMM algorithm family — the push-based
//! MSA/Hash/MCA/Heap kernels and the pull-based Inner kernel — all
//! plugging into the one [`crate::phases`] driver.

pub mod hash;
pub mod heap;
pub mod inner;
pub mod mca;
pub mod msa;

/// A deterministic `n × n` matrix for the kernel unit tests: entry
/// `(i, j)` is stored when `keep(i, j)`, with a small positive value.
#[cfg(test)]
pub(crate) fn test_grid(n: usize, keep: impl Fn(usize, usize) -> bool) -> mspgemm_sparse::Csr<i64> {
    let d: Vec<Vec<Option<i64>>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| keep(i, j).then_some((i + 2 * j) as i64 % 5 + 1))
                .collect()
        })
        .collect();
    mspgemm_sparse::Csr::from_dense(&d, n)
}

/// `mask ⊙ (a·b)`, or `¬mask ⊙ (a·b)`, under `phases`: what the kernel
/// unit tests drive [`crate::phases::run_kernel`] over.
#[cfg(test)]
pub(crate) fn test_product<'a, L, R>(
    mask: &'a mspgemm_sparse::Csr<()>,
    a: &'a mspgemm_sparse::Csr<L>,
    b: &'a mspgemm_sparse::Csr<R>,
    complement: bool,
    phases: crate::Phases,
) -> crate::Product<'a, L, R> {
    use crate::MaskMode::{Complement, Mask};
    let mode = if complement { Complement } else { Mask };
    crate::Product::new(mask, a, b, None)
        .with_mode(mode)
        .with_phases(phases)
}
