//! What the `io` integration tests share.

use mspgemm_sparse::Csr;
use proptest::prelude::*;

/// An arbitrary `nrows × ncols` matrix with the given fill probability
/// and values spanning sign, fractions, and magnitude extremes.
pub fn csr_strategy(nrows: usize, ncols: usize, fill: f64) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -1.0e9f64..1.0e9), ncols),
        nrows,
    )
    .prop_map(move |d| Csr::from_dense(&d, ncols))
}
