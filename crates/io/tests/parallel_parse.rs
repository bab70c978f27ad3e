//! Property tests for the chunked parallel `.mtx` reader: at every parse
//! fan-out it must return exactly the matrix that was written — general,
//! symmetric, and pattern files alike, by bits — and a malformed entry
//! must surface at its own line, with the message fan-out 1 (one chunk,
//! the reference partition) reports.

use mspgemm_io::load::to_adjacency;
use mspgemm_io::mtx::{read_mtx_bytes, write_mtx, write_mtx_symmetric, MtxField};
use mspgemm_io::IoError;
use mspgemm_sparse::Csr;
use proptest::prelude::*;

const FANOUTS: [usize; 4] = [0, 1, 2, 8];

fn csr_strategy(nrows: usize, ncols: usize, fill: f64) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -1.0e9f64..1.0e9), ncols),
        nrows,
    )
    .prop_map(move |d| Csr::from_dense(&d, ncols))
}

/// Byte-identical: same structure and bit-equal values, not merely
/// `PartialEq` (which NaN-free f64 equality would also satisfy).
fn assert_identical(want: &Csr<f64>, got: &Csr<f64>, what: &str) -> TestCaseResult {
    prop_assert_eq!(
        (want.nrows(), want.ncols()),
        (got.nrows(), got.ncols()),
        "{} shape",
        what
    );
    prop_assert_eq!(want.rowptr(), got.rowptr(), "{} rowptr", what);
    prop_assert_eq!(want.colidx(), got.colidx(), "{} colidx", what);
    let bits = |m: &Csr<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(want), bits(got), "{} value bits", what);
    Ok(())
}

/// Parse `buf` at every fan-out and compare each result with `want`.
fn every_fanout_reads(buf: &[u8], want: &Csr<f64>, what: &str) -> TestCaseResult {
    for t in FANOUTS {
        let (_, got) = read_mtx_bytes(buf, t).unwrap();
        assert_identical(want, &got, &format!("{what}@{t}"))?;
    }
    Ok(())
}

fn parse_err(r: Result<(mspgemm_io::MtxHeader, Csr<f64>), IoError>) -> (usize, String) {
    match r {
        Err(IoError::Parse { line, msg }) => (line, msg),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_real_reads_back_at_every_fanout(a in csr_strategy(21, 17, 0.3)) {
        let mut buf = Vec::new();
        write_mtx(&mut buf, &a, MtxField::Real).unwrap();
        every_fanout_reads(&buf, &a, "general")?;
    }

    #[test]
    fn pattern_reads_back_with_unit_values_at_every_fanout(a in csr_strategy(19, 19, 0.35)) {
        let mut buf = Vec::new();
        write_mtx(&mut buf, &a, MtxField::Pattern).unwrap();
        prop_assert_eq!(read_mtx_bytes(&buf, 0).unwrap().0.field, MtxField::Pattern);
        every_fanout_reads(&buf, &a.pattern().map(|_| 1.0), "pattern")?;
    }

    #[test]
    fn symmetric_reads_back_the_adjacency_at_every_fanout(raw in csr_strategy(16, 16, 0.3)) {
        // Adjacency normalization yields a genuinely symmetric matrix
        // the lower-triangle writer accepts; the reader then does the
        // mirror expansion itself.
        let (adj, _) = to_adjacency(&raw);
        let mut buf = Vec::new();
        write_mtx_symmetric(&mut buf, &adj, MtxField::Real).unwrap();
        every_fanout_reads(&buf, &adj, "symmetric")?;
    }

    #[test]
    fn malformed_entries_report_identical_positions(
        a in csr_strategy(14, 14, 0.4),
        which in 0usize..1000,
        kind in 0usize..5,
    ) {
        if a.nnz() == 0 {
            return Ok(());
        }
        let mut buf = Vec::new();
        write_mtx(&mut buf, &a, MtxField::Real).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        // Lines: banner, size line, then one entry per line.
        let k = which % a.nnz();
        let victim = 2 + k;
        let fields: Vec<String> = lines[victim]
            .split_whitespace()
            .map(|s| s.to_string())
            .collect();
        lines[victim] = match kind {
            0 => format!("{} {} abc", fields[0], fields[1]),
            1 => format!("0 {} {}", fields[1], fields[2]),
            2 => format!("{} 99999 {}", fields[0], fields[2]),
            3 => format!("{} {} {} extra", fields[0], fields[1], fields[2]),
            _ => format!("{} {} NaN", fields[0], fields[1]),
        };
        let corrupted = format!("{}\n", lines.join("\n"));

        let want_line = victim + 1; // 1-based
        let (_, one_msg) = parse_err(read_mtx_bytes(corrupted.as_bytes(), 1));
        for t in FANOUTS {
            let (line, msg) = parse_err(read_mtx_bytes(corrupted.as_bytes(), t));
            prop_assert_eq!(line, want_line, "kind {} @ {} threads", kind, t);
            prop_assert_eq!(&msg, &one_msg, "kind {} @ {} threads", kind, t);
        }
    }
}
