//! Property-based tests for the dataset I/O layer: arbitrary matrices
//! must survive every serialization round-trip bit-for-bit (`.msb`) or
//! value-equal (`.mtx` text), and the graph normalizer must produce
//! simple symmetric adjacencies from any square input.

use mspgemm_io::load::to_adjacency;
use mspgemm_io::msb::{read_msb, write_msb, write_msb_pattern};
use mspgemm_io::mtx::{read_mtx_bytes, write_mtx, write_mtx_symmetric, MtxField};
use mspgemm_sparse::{Csr, Idx};
use proptest::prelude::*;

/// An arbitrary `nrows × ncols` matrix with the given fill probability
/// and values spanning sign, fractions, and magnitude extremes.
fn csr_strategy(nrows: usize, ncols: usize, fill: f64) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -1.0e9f64..1.0e9), ncols),
        nrows,
    )
    .prop_map(move |d| Csr::from_dense(&d, ncols))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn msb_roundtrips_arbitrary_matrices(a in csr_strategy(23, 31, 0.2)) {
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        let b = read_msb(buf.as_slice()).unwrap();
        // f64 bits survive exactly: PartialEq on Csr compares values.
        prop_assert_eq!(&a, &b);
        // And the declared size is exact: header + sections + the v2
        // alignment pad (4 bytes iff nnz is odd), no slack.
        let pad = (8 - (4 * a.nnz()) % 8) % 8;
        prop_assert_eq!(buf.len(), 40 + 8 * (a.nrows() + 1) + 4 * a.nnz() + pad + 8 * a.nnz());
    }

    #[test]
    fn msb_pattern_roundtrips(a in csr_strategy(17, 19, 0.3)) {
        let mut buf = Vec::new();
        write_msb_pattern(&mut buf, &a.pattern()).unwrap();
        let p = read_msb(buf.as_slice()).unwrap();
        prop_assert_eq!(p.pattern(), a.pattern());
        prop_assert!(p.values_unit_shared());
    }

    #[test]
    fn msb_rejects_any_truncation(a in csr_strategy(7, 9, 0.4)) {
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        // Every proper prefix must fail loudly, never mis-parse.
        for cut in [buf.len() / 4, buf.len() / 2, buf.len().saturating_sub(1)] {
            prop_assert!(read_msb(&buf[..cut]).is_err(), "accepted prefix of {cut} bytes");
        }
    }

    #[test]
    fn mtx_text_roundtrips(a in csr_strategy(13, 11, 0.3)) {
        let mut buf = Vec::new();
        write_mtx(&mut buf, &a, MtxField::Real).unwrap();
        let (_, b) = read_mtx_bytes(&buf, 0).unwrap();
        // Text may lose ULPs only if the writer truncated; Rust's `{}`
        // float formatting is round-trip exact, so equality must hold.
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn mtx_symmetric_roundtrips_adjacency(raw in csr_strategy(12, 12, 0.3)) {
        let (adj, _) = to_adjacency(&raw);
        let mut buf = Vec::new();
        write_mtx_symmetric(&mut buf, &adj, MtxField::Real).unwrap();
        let (_, back) = read_mtx_bytes(&buf, 0).unwrap();
        prop_assert_eq!(&adj, &back);
    }

    #[test]
    fn to_adjacency_always_simple_and_symmetric(raw in csr_strategy(15, 15, 0.25)) {
        let (adj, _) = to_adjacency(&raw);
        for (i, j, &v) in adj.iter() {
            prop_assert_eq!(v, 1.0);
            prop_assert!(i != j as usize, "self loop at {}", i);
            prop_assert!(
                adj.get(j as usize, i as Idx).is_some(),
                "({},{}) has no mirror", i, j
            );
        }
        // Idempotent: normalizing a normal form changes nothing.
        let (again, stats) = to_adjacency(&adj);
        prop_assert_eq!(&again, &adj);
        prop_assert_eq!(stats.self_loops_removed, 0);
        prop_assert_eq!(stats.entries_mirrored, 0);
    }
}
