//! Matrix Market (`.mtx`) reader/writer.
//!
//! Supports `matrix coordinate {real | integer | pattern}
//! {general | symmetric}` — the subset covering every SuiteSparse/GAP
//! matrix the paper evaluates (§7). [`read_mtx_bytes`] is the one reader:
//! it drives the shared tokenizer in `mspgemm-formats` (this workspace's
//! only `.mtx` lexical layer) over newline-aligned byte ranges of the
//! entry section, parsed concurrently into per-chunk COO bags
//! (line-numbered errors preserved) that merge in file order before the
//! row-parallel `Coo::to_csr` pass. Symmetric files mirror inline, so the
//! triplet order — and with it the CSR, duplicates included — is the same
//! at every fan-out.

use crate::error::IoError;
use mspgemm_formats as formats;
use mspgemm_sparse::{Coo, Csr, Idx};
use std::io::Write;
use std::path::Path;

pub use mspgemm_formats::{MtxField, MtxHeader, MtxSymmetry};

/// Column indices are `u32`; a header declaring more rows/columns than
/// that would make `(idx - 1) as Idx` wrap silently on extreme entries.
fn check_idx_space(h: &MtxHeader, line: usize) -> Result<(), IoError> {
    if h.nrows > Idx::MAX as usize || h.ncols > Idx::MAX as usize {
        return Err(IoError::parse(
            line,
            format!(
                "declared shape {}x{} exceeds the u32 index space",
                h.nrows, h.ncols
            ),
        ));
    }
    Ok(())
}

/// One chunk's parse result: inline-mirrored 0-based triplets, the lines
/// the chunk spans (for global line numbering), and the entries counted
/// against the size line.
struct ChunkBag {
    entries: Vec<(Idx, Idx, f64)>,
    lines: usize,
    seen: usize,
}

/// Parse one newline-aligned byte range of the entry section. Errors
/// carry the 1-based line number *within the chunk*; the merge pass
/// rebases them to file-global numbers.
fn parse_chunk(chunk: &[u8], h: &MtxHeader) -> Result<ChunkBag, (usize, String)> {
    let symmetric = h.symmetry == MtxSymmetry::Symmetric;
    // ~16 bytes per coordinate line is a conservative density guess; the
    // Vec grows normally past it.
    let mut entries = Vec::with_capacity(chunk.len() / 16);
    let (mut lines, mut seen, mut pos) = (0usize, 0usize, 0usize);
    while let Some((line, next)) = formats::next_line(chunk, pos) {
        pos = next;
        lines += 1;
        if formats::is_skippable(line) {
            continue;
        }
        let e = formats::parse_entry(line, h.field).map_err(|m| (lines, m))?;
        formats::validate_entry(h, &e).map_err(|m| (lines, m))?;
        let (i0, j0) = ((e.i - 1) as Idx, (e.j - 1) as Idx);
        entries.push((i0, j0, e.v));
        if symmetric && i0 != j0 {
            entries.push((j0, i0, e.v));
        }
        seen += 1;
    }
    Ok(ChunkBag {
        entries,
        lines,
        seen,
    })
}

/// Don't bother fanning out below this many bytes per chunk when the
/// caller asked for automatic threading — thread spawns would dominate.
const MIN_AUTO_CHUNK: usize = 1 << 16;

/// Hard ceiling on the parse fan-out. The rayon shim maps each chunk to
/// one OS thread (`std::thread::scope` spawns, which abort the process
/// on thread-creation failure), so an absurd `threads` argument must not
/// translate into an absurd thread count.
const MAX_FANOUT: usize = 256;

/// Read a Matrix Market byte buffer with chunked parallel entry parsing.
///
/// Symmetric files are expanded to both triangles (diagonal entries are
/// not duplicated); pattern entries get value `1.0`; duplicate general
/// entries are summed (pattern duplicates collapse to one entry).
///
/// `threads` is the parse fan-out: `0` picks the rayon thread count
/// (scaled down for small inputs); an explicit `N` forces exactly `N`
/// chunks (clamped to 256). The output is identical at every fan-out —
/// same CSR (entry order is preserved, so duplicate merging is
/// bit-identical), same error line numbers and messages — because the
/// chunk boundaries are newline-aligned. The path is byte-oriented, so
/// non-UTF-8 bytes inside comments are tolerated.
pub fn read_mtx_bytes(bytes: &[u8], threads: usize) -> Result<(MtxHeader, Csr<f64>), IoError> {
    let (header, body_off, header_lines) =
        formats::scan_header(bytes).map_err(|e| IoError::parse(e.line, e.msg))?;
    check_idx_space(&header, header_lines)?;
    let body = &bytes[body_off..];
    let parts = if threads == 0 {
        rayon::current_num_threads()
            .min(body.len().div_ceil(MIN_AUTO_CHUNK))
            .max(1)
    } else {
        threads.min(MAX_FANOUT)
    };
    let ranges = formats::chunk_at_newlines(body, parts);

    let mut results: Vec<Option<Result<ChunkBag, (usize, String)>>> = Vec::new();
    results.resize_with(ranges.len(), || None);
    if ranges.len() <= 1 {
        if let Some(r) = ranges.first() {
            results[0] = Some(parse_chunk(&body[r.clone()], &header));
        }
    } else {
        let header = &header;
        rayon::scope(|s| {
            for (slot, r) in results.iter_mut().zip(&ranges) {
                let chunk = &body[r.clone()];
                s.spawn(move |_| *slot = Some(parse_chunk(chunk, header)));
            }
        });
    }

    // Rebase per-chunk line numbers; the first failing chunk reports (all
    // chunks before it parsed fully, so its global base is exact).
    let mut lineno = header_lines;
    let mut bags = Vec::with_capacity(results.len());
    for res in results {
        match res.expect("chunk task completed") {
            Ok(bag) => {
                lineno += bag.lines;
                bags.push(bag);
            }
            Err((local, msg)) => return Err(IoError::parse(lineno + local, msg)),
        }
    }
    let seen: usize = bags.iter().map(|b| b.seen).sum();
    if seen != header.stored_entries {
        let declared = header.stored_entries;
        let msg = format!("size line declared {declared} entries, found {seen}");
        return Err(IoError::parse(lineno, msg));
    }
    let total: usize = bags.iter().map(|b| b.entries.len()).sum();
    let mut entries = Vec::with_capacity(total);
    for mut b in bags {
        entries.append(&mut b.entries);
    }
    let coo = Coo::from_entries(header.nrows, header.ncols, entries);
    // Duplicate general/symmetric entries are summed, pattern duplicates
    // collapse to one entry.
    let csr = if header.field == MtxField::Pattern {
        coo.to_csr(|a, _| a)
    } else {
        coo.to_csr(|a, b| a + b)
    };
    Ok((header, csr))
}

/// Read a `.mtx` file from disk: the whole file is read into memory and
/// parsed by [`read_mtx_bytes`] at the automatic fan-out.
pub fn read_mtx_file(path: impl AsRef<Path>) -> Result<(MtxHeader, Csr<f64>), IoError> {
    read_mtx_bytes(&std::fs::read(path)?, 0)
}

/// Write `a` as `matrix coordinate {field} general` with 1-based indices.
/// `Pattern` omits values.
pub fn write_mtx<W: Write>(w: W, a: &Csr<f64>, field: MtxField) -> Result<(), IoError> {
    let mut w = std::io::BufWriter::new(w);
    let field_name = match field {
        MtxField::Real => "real",
        MtxField::Integer => "integer",
        MtxField::Pattern => "pattern",
    };
    writeln!(w, "%%MatrixMarket matrix coordinate {field_name} general")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (i, j, v) in a.iter() {
        match field {
            MtxField::Real => writeln!(w, "{} {} {}", i + 1, j + 1, v)?,
            MtxField::Integer => writeln!(w, "{} {} {}", i + 1, j + 1, *v as i64)?,
            MtxField::Pattern => writeln!(w, "{} {}", i + 1, j + 1)?,
        }
    }
    w.flush()?;
    Ok(())
}

/// Write a structurally symmetric `a` storing only the lower triangle
/// (`j <= i`), the Matrix Market convention that halves file size for
/// undirected graphs.
///
/// # Errors
/// [`IoError::Format`] if `a` is not square or not symmetric.
pub fn write_mtx_symmetric<W: Write>(w: W, a: &Csr<f64>, field: MtxField) -> Result<(), IoError> {
    if a.nrows() != a.ncols() {
        return Err(IoError::Format(format!(
            "symmetric write needs a square matrix, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    // Count lower-triangle entries and verify the mirror structure AND
    // values: checking every strict-lower entry's mirror (value included)
    // plus equal strict-triangle counts covers unmirrored or
    // unequal-valued entries in either triangle — only the lower triangle
    // is written, so any asymmetry would otherwise be silently rewritten.
    let (mut lower, mut strict_lower, mut strict_upper) = (0usize, 0usize, 0usize);
    for (i, j, v) in a.iter() {
        let j = j as usize;
        if j <= i {
            lower += 1;
        }
        if j < i {
            strict_lower += 1;
            match a.get(j, i as Idx) {
                None => {
                    return Err(IoError::Format(format!(
                        "matrix is not symmetric: ({i},{j}) stored but ({j},{i}) missing"
                    )));
                }
                Some(mirror) if mirror != v => {
                    return Err(IoError::Format(format!(
                        "matrix is not value-symmetric: ({i},{j})={v} but ({j},{i})={mirror}"
                    )));
                }
                Some(_) => {}
            }
        } else if j > i {
            strict_upper += 1;
        }
    }
    if strict_lower != strict_upper {
        return Err(IoError::Format(format!(
            "matrix is not symmetric: {strict_lower} strict-lower vs {strict_upper} strict-upper entries"
        )));
    }
    let mut w = std::io::BufWriter::new(w);
    let field_name = match field {
        MtxField::Real => "real",
        MtxField::Integer => "integer",
        MtxField::Pattern => "pattern",
    };
    writeln!(w, "%%MatrixMarket matrix coordinate {field_name} symmetric")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), lower)?;
    for (i, j, v) in a.iter() {
        if (j as usize) > i {
            continue;
        }
        match field {
            MtxField::Real => writeln!(w, "{} {} {}", i + 1, j + 1, v)?,
            MtxField::Integer => writeln!(w, "{} {} {}", i + 1, j + 1, *v as i64)?,
            MtxField::Pattern => writeln!(w, "{} {}", i + 1, j + 1)?,
        }
    }
    w.flush()?;
    Ok(())
}

/// Write a `.mtx` file to disk (general symmetry, real field).
pub fn write_mtx_file(path: impl AsRef<Path>, a: &Csr<f64>) -> Result<(), IoError> {
    write_mtx(std::fs::File::create(path)?, a, MtxField::Real)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_real_parses_with_header() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % comment\n\
                    \n\
                    3 4 3\n\
                    1 1 1.5\n\
                    % mid-stream comment\n\
                    2 3 -2.0\n\
                    3 4 7\n";
        let (h, m) = read_mtx_bytes(text.as_bytes(), 0).unwrap();
        assert_eq!(h.field, MtxField::Real);
        assert_eq!(h.symmetry, MtxSymmetry::General);
        assert_eq!((h.nrows, h.ncols, h.stored_entries), (3, 4, 3));
        assert_eq!(m.get(0, 0), Some(&1.5));
        assert_eq!(m.get(1, 2), Some(&-2.0));
        assert_eq!(m.get(2, 3), Some(&7.0));
    }

    #[test]
    fn symmetric_expands_lower_triangle() {
        let text = "%%MatrixMarket matrix coordinate integer symmetric\n\
                    3 3 3\n\
                    2 1 5\n\
                    3 1 6\n\
                    2 2 1\n";
        let (h, m) = read_mtx_bytes(text.as_bytes(), 0).unwrap();
        assert_eq!(h.field, MtxField::Integer);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 1), Some(&5.0));
        assert_eq!(m.get(1, 0), Some(&5.0));
        assert_eq!(m.get(1, 1), Some(&1.0));
    }

    #[test]
    fn symmetric_rejects_upper_entries() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 1\n\
                    1 3 2.0\n";
        let e = read_mtx_bytes(text.as_bytes(), 0).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 3, .. }), "{e}");
    }

    #[test]
    fn pattern_dedups_not_sums() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 3\n\
                    1 2\n\
                    1 2\n\
                    2 1\n";
        let (_, m) = read_mtx_bytes(text.as_bytes(), 0).unwrap();
        assert_eq!(m.get(0, 1), Some(&1.0), "pattern duplicates stay 1.0");
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn crlf_and_whitespace_tolerated() {
        let text = "%%MatrixMarket matrix coordinate real general\r\n\
                    2 2 2\r\n\
                    1 1   1.0\r\n\
                    2\t2\t2.0\r\n";
        let (_, m) = read_mtx_bytes(text.as_bytes(), 0).unwrap();
        assert_eq!(m.get(0, 0), Some(&1.0));
        assert_eq!(m.get(1, 1), Some(&2.0));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize)] = &[
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.0\n",
                3,
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 3.0\n",
                3,
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
                3,
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 9\n",
                3,
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n",
                3,
            ),
            (
                "%%MatrixMarket matrix coordinate real general\nbogus size\n",
                2,
            ),
        ];
        // The same position at every fan-out.
        for (text, want_line) in cases {
            for threads in [0usize, 1, 2, 8] {
                match read_mtx_bytes(text.as_bytes(), threads) {
                    Err(IoError::Parse { line, .. }) => {
                        assert_eq!(line, *want_line, "{threads} threads for: {text:?}")
                    }
                    other => panic!("{threads} threads: expected error for {text:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn absurd_size_line_errors_without_allocating() {
        // nnz is untrusted: usize::MAX (and huge-but-allocatable values)
        // must produce Err, not a capacity-overflow panic or OOM.
        for nnz in ["18446744073709551615", "1152921504606846976"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real general\n2 2 {nnz}\n1 1 1.0\n");
            assert!(
                read_mtx_bytes(text.as_bytes(), 4).is_err(),
                "accepted nnz={nnz}"
            );
        }
        // Symmetric doubling must not overflow either.
        let text = format!(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 {}\n1 1 1.0\n",
            usize::MAX
        );
        assert!(read_mtx_bytes(text.as_bytes(), 4).is_err());
    }

    #[test]
    fn huge_declared_shape_rejected() {
        // A shape past u32 would wrap `(idx - 1) as Idx` on extreme
        // entries; the reader refuses at the size line.
        let text = format!(
            "%%MatrixMarket matrix coordinate real general\n{} 2 1\n1 1 1.0\n",
            (Idx::MAX as u64) + 1
        );
        let r = read_mtx_bytes(text.as_bytes(), 2);
        assert!(matches!(r, Err(IoError::Parse { line: 2, .. })), "{r:?}");
    }

    #[test]
    fn symmetric_write_rejects_value_asymmetry() {
        // Pattern-symmetric but value-asymmetric: writing only the lower
        // triangle would silently replace 2.0 with 3.0.
        let a = Csr::from_dense(&[vec![None, Some(2.0)], vec![Some(3.0), None]], 2);
        let mut buf = Vec::new();
        let e = write_mtx_symmetric(&mut buf, &a, MtxField::Real).unwrap_err();
        assert!(format!("{e}").contains("value-symmetric"), "{e}");
    }

    #[test]
    fn nnz_mismatch_detected() {
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_mtx_bytes(short.as_bytes(), 4).is_err());
        let long = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n";
        assert!(read_mtx_bytes(long.as_bytes(), 4).is_err());
    }

    #[test]
    fn bad_banners_rejected() {
        for text in [
            "hello\n",
            "%%MatrixMarket matrix array real general\n",
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
            "",
        ] {
            assert!(
                read_mtx_bytes(text.as_bytes(), 2).is_err(),
                "accepted: {text:?}"
            );
        }
    }

    #[test]
    fn general_roundtrip() {
        let a = Csr::from_dense(
            &[
                vec![Some(1.0), None, Some(2.5)],
                vec![None, Some(-3.0), None],
            ],
            3,
        );
        let mut buf = Vec::new();
        write_mtx(&mut buf, &a, MtxField::Real).unwrap();
        let (_, b) = read_mtx_bytes(&buf, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_roundtrip_halves_stored_entries() {
        // 4-cycle: symmetric, loop-free.
        let mut coo = Coo::new(4, 4);
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3), (3, 0)] {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        let a = coo.to_csr(|x, _| x);
        let mut buf = Vec::new();
        write_mtx_symmetric(&mut buf, &a, MtxField::Real).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("symmetric"));
        assert!(
            text.lines().nth(1).unwrap().ends_with(" 4"),
            "4 stored entries: {text}"
        );
        let (h, b) = read_mtx_bytes(&buf, 0).unwrap();
        assert_eq!(h.symmetry, MtxSymmetry::Symmetric);
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_write_rejects_asymmetric() {
        let a = Csr::from_dense(&[vec![None, Some(1.0)], vec![None, None]], 2);
        let mut buf = Vec::new();
        assert!(write_mtx_symmetric(&mut buf, &a, MtxField::Real).is_err());
    }

    #[test]
    fn pattern_roundtrip() {
        let a = Csr::from_dense(&[vec![Some(1.0), None], vec![Some(1.0), Some(1.0)]], 2);
        let mut buf = Vec::new();
        write_mtx(&mut buf, &a, MtxField::Pattern).unwrap();
        let (h, b) = read_mtx_bytes(&buf, 0).unwrap();
        assert_eq!(h.field, MtxField::Pattern);
        assert_eq!(a, b);
    }

    /// A synthetic text with duplicates, comments between entries, CRLF
    /// endings, and no trailing newline — the stress shape for chunked
    /// parsing.
    fn awkward_text(n: usize) -> String {
        let mut s = String::from("%%MatrixMarket matrix coordinate real general\r\n");
        s.push_str(&format!("{n} {n} {}\r\n", 2 * n));
        for k in 0..n {
            s.push_str(&format!("{} {} {}.5\r\n", k + 1, (k % n) + 1, k));
            if k % 7 == 0 {
                s.push_str("% interleaved comment\r\n");
            }
            // Duplicate coordinates: merge order must match too.
            s.push_str(&format!("{} {} 1", k + 1, (k % n) + 1));
            if k + 1 < n {
                s.push_str("\r\n");
            }
        }
        s
    }

    #[test]
    fn every_fanout_matches_the_one_chunk_parse() {
        let n = 97;
        let text = awkward_text(n);
        let (h1, one) = read_mtx_bytes(text.as_bytes(), 1).unwrap();
        // Each diagonal entry is `k.5` plus its duplicate `1`.
        assert_eq!(one.nnz(), n);
        for k in 0..n {
            assert_eq!(one.get(k, k as Idx), Some(&(k as f64 + 1.5)), "row {k}");
        }
        // 1 << 20 exercises the MAX_FANOUT clamp: an absurd request must
        // neither spawn a thread per line nor change the output.
        for threads in [0usize, 2, 3, 8, 64, 1 << 20] {
            let (h, par) = read_mtx_bytes(text.as_bytes(), threads).unwrap();
            assert_eq!((h.nrows, h.ncols), (h1.nrows, h1.ncols));
            assert_eq!(par, one, "{threads} threads");
            // Byte-identical, not merely value-equal.
            let bits = |m: &Csr<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&par), bits(&one));
        }
    }

    #[test]
    fn parallel_error_line_in_late_chunk() {
        // Enough entries that 4 chunks all carry lines; the poisoned line
        // sits deep in the file and its global number must survive
        // rebasing.
        let mut s = String::from("%%MatrixMarket matrix coordinate real general\n");
        s.push_str("400 400 400\n");
        for k in 0..400 {
            if k == 333 {
                s.push_str("334 334 oops\n");
            } else {
                s.push_str(&format!("{} {} 1.0\n", k + 1, k + 1));
            }
        }
        let want_line = 2 + 333 + 1; // banner + size + preceding entries
        for threads in [1usize, 2, 4, 16] {
            match read_mtx_bytes(s.as_bytes(), threads) {
                Err(IoError::Parse { line, msg }) => {
                    assert_eq!(line, want_line, "{threads} threads");
                    assert!(msg.contains("bad value"), "{msg}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mspgemm_io_mtx_par");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        let a = Csr::from_dense(
            &[
                vec![Some(1.0), None, Some(2.5)],
                vec![None, Some(-3.0), None],
                vec![Some(4.0), None, None],
            ],
            3,
        );
        write_mtx_file(&path, &a).unwrap();
        let (_, b) = read_mtx_file(&path).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }
}
