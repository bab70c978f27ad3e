//! # mspgemm-formats
//!
//! The shared Matrix Market (`.mtx`) lexical layer: banner / size-line /
//! entry tokenizers, header scanning over byte buffers, and
//! newline-aligned chunk splitting for parallel ingest.
//!
//! This crate is a dependency-free leaf: the workspace's one reader,
//! `mspgemm_io::mtx::read_mtx_bytes` (chunked parallel over a byte
//! buffer), tokenizes and validates entries here, and the newline-aligned
//! chunking is what keeps its output and error positions the same at
//! every fan-out.
//!
//! Everything works on `&[u8]`: the parallel reader splits multi-GB
//! buffers into byte ranges, and per-line UTF-8 conversion would be pure
//! overhead — tokens are ASCII in every Matrix Market file in the wild,
//! and non-UTF-8 garbage inside a token still fails cleanly at the
//! numeric parse.

#![warn(missing_docs)]

use std::ops::Range;

/// Value field of a Matrix Market file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtxField {
    /// Floating-point values.
    Real,
    /// Integer values (parsed into `f64`; SuiteSparse graphs use small
    /// weights that are exactly representable).
    Integer,
    /// No stored values; every entry reads as `1.0`.
    Pattern,
}

/// Symmetry declaration of a Matrix Market file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MtxSymmetry {
    /// Entries are stored explicitly.
    General,
    /// Only the lower triangle is stored; off-diagonal entries mirror.
    Symmetric,
}

/// The parsed banner + size line of a Matrix Market file.
#[derive(Clone, Copy, Debug)]
pub struct MtxHeader {
    /// Value field.
    pub field: MtxField,
    /// Symmetry.
    pub symmetry: MtxSymmetry,
    /// Declared rows.
    pub nrows: usize,
    /// Declared columns.
    pub ncols: usize,
    /// Declared stored entries (before symmetric expansion).
    pub stored_entries: usize,
}

/// A lexical/structural error with the 1-based line it was detected on.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// One tokenized coordinate entry, indices still 1-based as in the file.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    /// 1-based row index.
    pub i: usize,
    /// 1-based column index.
    pub j: usize,
    /// Value (`1.0` for pattern files).
    pub v: f64,
}

const fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b'\x0b' | b'\x0c')
}

/// The next line starting at byte `pos`: the line's content (without the
/// terminating `\n` or any trailing `\r`) and the offset of the line
/// after it. `None` once `pos` reaches the end of the buffer; a final
/// line without a trailing newline is still yielded.
pub fn next_line(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    if pos >= bytes.len() {
        return None;
    }
    let rest = &bytes[pos..];
    let (mut line, next) = match rest.iter().position(|&b| b == b'\n') {
        Some(nl) => (&rest[..nl], pos + nl + 1),
        None => (rest, bytes.len()),
    };
    if let [head @ .., b'\r'] = line {
        line = head;
    }
    Some((line, next))
}

/// Whether a line carries no entry: blank or a `%` comment.
pub fn is_skippable(line: &[u8]) -> bool {
    match line.iter().position(|&b| !is_ws(b)) {
        None => true,
        Some(k) => line[k] == b'%',
    }
}

/// Iterator over whitespace-separated tokens of one line.
struct Tokens<'a> {
    rest: &'a [u8],
}

fn tokens(line: &[u8]) -> Tokens<'_> {
    Tokens { rest: line }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.rest.iter().position(|&b| !is_ws(b))?;
        let rest = &self.rest[start..];
        let end = rest.iter().position(|&b| is_ws(b)).unwrap_or(rest.len());
        self.rest = &rest[end..];
        Some(&rest[..end])
    }
}

fn lossy(tok: &[u8]) -> String {
    String::from_utf8_lossy(tok).into_owned()
}

/// Overflow-checked base-10 `usize` from ASCII digits; `None` on empty
/// input, a non-digit byte, or overflow.
fn parse_index(tok: &[u8]) -> Option<usize> {
    if tok.is_empty() {
        return None;
    }
    let mut v: usize = 0;
    for &b in tok {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(d as usize)?;
    }
    Some(v)
}

/// Parse the `%%MatrixMarket ...` banner into field + symmetry.
fn parse_banner(line: &[u8]) -> Result<(MtxField, MtxSymmetry), String> {
    let toks: Vec<&[u8]> = tokens(line).collect();
    let bad = || format!("bad banner: {}", lossy(line));
    if toks.len() < 4
        || !toks[0].eq_ignore_ascii_case(b"%%matrixmarket")
        || !toks[1].eq_ignore_ascii_case(b"matrix")
    {
        return Err(bad());
    }
    if !toks[2].eq_ignore_ascii_case(b"coordinate") {
        return Err(format!(
            "unsupported format '{}' (only 'coordinate')",
            lossy(toks[2])
        ));
    }
    let field = if toks[3].eq_ignore_ascii_case(b"real") {
        MtxField::Real
    } else if toks[3].eq_ignore_ascii_case(b"integer") {
        MtxField::Integer
    } else if toks[3].eq_ignore_ascii_case(b"pattern") {
        MtxField::Pattern
    } else {
        return Err(format!(
            "unsupported value field '{}' (real|integer|pattern)",
            lossy(toks[3])
        ));
    };
    let sym = toks.get(4).copied().unwrap_or(b"general");
    let symmetry = if sym.eq_ignore_ascii_case(b"general") {
        MtxSymmetry::General
    } else if sym.eq_ignore_ascii_case(b"symmetric") {
        MtxSymmetry::Symmetric
    } else {
        return Err(format!(
            "unsupported symmetry '{}' (general|symmetric)",
            lossy(sym)
        ));
    };
    Ok((field, symmetry))
}

/// Parse the `nrows ncols nnz` size line.
fn parse_size_line(line: &[u8]) -> Result<(usize, usize, usize), String> {
    let toks: Vec<&[u8]> = tokens(line).collect();
    if toks.len() != 3 {
        return Err(format!(
            "size line needs 'nrows ncols nnz', got: {}",
            lossy(line).trim()
        ));
    }
    let parse = |tok: &[u8], what: &str| {
        parse_index(tok).ok_or_else(|| format!("bad {what} '{}'", lossy(tok)))
    };
    Ok((
        parse(toks[0], "nrows")?,
        parse(toks[1], "ncols")?,
        parse(toks[2], "nnz")?,
    ))
}

/// Scan the banner, comments, and size line at the head of a buffer.
///
/// Returns the header, the byte offset of the entry section (the first
/// byte after the size line's newline), and the number of lines consumed
/// — the line-number base for error reporting in the entry section.
pub fn scan_header(bytes: &[u8]) -> Result<(MtxHeader, usize, usize), ParseError> {
    let err = |line: usize, msg: String| ParseError { line, msg };
    let mut lineno = 1usize;
    let Some((banner, mut pos)) = next_line(bytes, 0) else {
        return Err(err(1, "empty input".into()));
    };
    let (field, symmetry) = parse_banner(banner).map_err(|m| err(1, m))?;
    while let Some((line, next)) = next_line(bytes, pos) {
        lineno += 1;
        pos = next;
        if is_skippable(line) {
            continue;
        }
        let (nrows, ncols, stored_entries) = parse_size_line(line).map_err(|m| err(lineno, m))?;
        return Ok((
            MtxHeader {
                field,
                symmetry,
                nrows,
                ncols,
                stored_entries,
            },
            pos,
            lineno,
        ));
    }
    Err(err(lineno, "missing size line".into()))
}

/// Tokenize one entry line under the header's value field. Indices stay
/// 1-based; bounds/symmetry checks live in [`validate_entry`].
pub fn parse_entry(line: &[u8], field: MtxField) -> Result<Entry, String> {
    let mut it = tokens(line);
    let tok = it.next().ok_or("entry missing row index")?;
    let i = parse_index(tok).ok_or_else(|| format!("bad row index '{}'", lossy(tok)))?;
    let tok = it.next().ok_or("entry missing column index")?;
    let j = parse_index(tok).ok_or_else(|| format!("bad column index '{}'", lossy(tok)))?;
    let v = if field == MtxField::Pattern {
        1.0
    } else {
        let tok = it.next().ok_or("entry missing value")?;
        let v: f64 = std::str::from_utf8(tok)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad value '{}'", lossy(tok)))?;
        if v.is_nan() {
            return Err("NaN value".into());
        }
        v
    };
    if it.next().is_some() {
        return Err("trailing tokens after entry".into());
    }
    Ok(Entry { i, j, v })
}

/// Check a tokenized entry against the header: 1-based, in bounds, and
/// (for symmetric files) in the lower triangle.
pub fn validate_entry(h: &MtxHeader, e: &Entry) -> Result<(), String> {
    if e.i == 0 || e.j == 0 {
        return Err("indices are 1-based; found 0".into());
    }
    if e.i > h.nrows || e.j > h.ncols {
        return Err(format!(
            "entry ({},{}) outside declared shape {}x{}",
            e.i, e.j, h.nrows, h.ncols
        ));
    }
    if h.symmetry == MtxSymmetry::Symmetric && e.j > e.i {
        return Err(format!(
            "symmetric file stores the lower triangle, found ({},{}) above",
            e.i, e.j
        ));
    }
    Ok(())
}

/// Split a buffer into at most `parts` contiguous byte ranges whose
/// boundaries fall just after `\n` bytes, so no line is ever split
/// across ranges. Covers the buffer exactly, in order; a final line
/// without a trailing newline lands in the last range.
pub fn chunk_at_newlines(bytes: &[u8], parts: usize) -> Vec<Range<usize>> {
    let len = bytes.len();
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.max(1);
    let target = len.div_ceil(parts);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    while start < len {
        let mut end = (start + target).min(len);
        if end < len && bytes[end - 1] != b'\n' {
            end = match bytes[end..].iter().position(|&b| b == b'\n') {
                Some(k) => end + k + 1,
                None => len,
            };
        }
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_handle_crlf_and_missing_final_newline() {
        let b = b"ab\r\ncd\n\nef";
        let (l1, p) = next_line(b, 0).unwrap();
        assert_eq!(l1, b"ab");
        let (l2, p) = next_line(b, p).unwrap();
        assert_eq!(l2, b"cd");
        let (l3, p) = next_line(b, p).unwrap();
        assert_eq!(l3, b"");
        let (l4, p) = next_line(b, p).unwrap();
        assert_eq!(l4, b"ef");
        assert!(next_line(b, p).is_none());
    }

    #[test]
    fn skippable_lines() {
        assert!(is_skippable(b""));
        assert!(is_skippable(b"   \t"));
        assert!(is_skippable(b"% comment"));
        assert!(is_skippable(b"  % indented comment"));
        assert!(!is_skippable(b"1 2 3"));
    }

    #[test]
    fn banner_variants() {
        let (f, s) = parse_banner(b"%%MatrixMarket matrix coordinate real general").unwrap();
        assert_eq!((f, s), (MtxField::Real, MtxSymmetry::General));
        let (f, s) = parse_banner(b"%%matrixmarket MATRIX coordinate PATTERN symmetric").unwrap();
        assert_eq!((f, s), (MtxField::Pattern, MtxSymmetry::Symmetric));
        // Symmetry defaults to general when omitted.
        let (_, s) = parse_banner(b"%%MatrixMarket matrix coordinate integer").unwrap();
        assert_eq!(s, MtxSymmetry::General);
        assert!(parse_banner(b"hello").is_err());
        assert!(parse_banner(b"%%MatrixMarket matrix array real general").is_err());
        assert!(parse_banner(b"%%MatrixMarket matrix coordinate complex general").is_err());
        assert!(parse_banner(b"%%MatrixMarket matrix coordinate real hermitian").is_err());
    }

    #[test]
    fn size_line_parsing() {
        assert_eq!(parse_size_line(b" 3\t4  5 ").unwrap(), (3, 4, 5));
        assert!(parse_size_line(b"3 4").is_err());
        assert!(parse_size_line(b"3 4 5 6").is_err());
        assert!(parse_size_line(b"3 4 x").is_err());
        assert!(parse_size_line(b"3 -4 5").is_err());
        // usize::MAX parses (hardening against it is the reader's job);
        // one past it overflows to an error.
        assert!(parse_size_line(format!("1 1 {}", usize::MAX).as_bytes()).is_ok());
        assert!(parse_size_line(b"1 1 99999999999999999999999999").is_err());
    }

    #[test]
    fn header_scan_positions_and_lines() {
        let text = b"%%MatrixMarket matrix coordinate real general\n% c\n\n3 4 2\n1 1 1.0\n";
        let (h, off, lines) = scan_header(text).unwrap();
        assert_eq!((h.nrows, h.ncols, h.stored_entries), (3, 4, 2));
        assert_eq!(lines, 4);
        assert_eq!(&text[off..], b"1 1 1.0\n");
    }

    #[test]
    fn header_scan_errors_carry_lines() {
        assert_eq!(scan_header(b"").unwrap_err().line, 1);
        assert_eq!(scan_header(b"nope\n").unwrap_err().line, 1);
        let e = scan_header(b"%%MatrixMarket matrix coordinate real general\nbogus size\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        let e = scan_header(b"%%MatrixMarket matrix coordinate real general\n% only comments\n")
            .unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (2, "missing size line"));
    }

    #[test]
    fn entry_tokenizing() {
        let e = parse_entry(b" 3\t7  -2.5 ", MtxField::Real).unwrap();
        assert_eq!(
            e,
            Entry {
                i: 3,
                j: 7,
                v: -2.5
            }
        );
        let e = parse_entry(b"3 7", MtxField::Pattern).unwrap();
        assert_eq!(e.v, 1.0);
        // Integer field parses through the float path exactly.
        assert_eq!(parse_entry(b"1 1 7", MtxField::Integer).unwrap().v, 7.0);
        assert!(parse_entry(b"", MtxField::Real).is_err());
        assert!(parse_entry(b"3", MtxField::Real).is_err());
        assert!(parse_entry(b"3 7", MtxField::Real).is_err());
        assert!(parse_entry(b"3 7 abc", MtxField::Real).is_err());
        assert!(parse_entry(b"3 7 NaN", MtxField::Real).is_err());
        assert!(parse_entry(b"3 7 1.0 9", MtxField::Real).is_err());
        assert!(parse_entry(b"3 7 9", MtxField::Pattern).is_err());
        assert!(parse_entry(b"x 7 1.0", MtxField::Real).is_err());
        assert!(parse_entry(b"-3 7 1.0", MtxField::Real).is_err());
    }

    #[test]
    fn entry_validation() {
        let h = MtxHeader {
            field: MtxField::Real,
            symmetry: MtxSymmetry::Symmetric,
            nrows: 5,
            ncols: 5,
            stored_entries: 0,
        };
        let ok = |i, j| validate_entry(&h, &Entry { i, j, v: 1.0 });
        assert!(ok(5, 5).is_ok());
        assert!(ok(3, 1).is_ok());
        assert!(ok(0, 1).is_err());
        assert!(ok(1, 0).is_err());
        assert!(ok(6, 1).is_err());
        assert!(ok(1, 6).is_err());
        assert!(ok(1, 2).is_err(), "upper triangle rejected when symmetric");
        let g = MtxHeader {
            symmetry: MtxSymmetry::General,
            ..h
        };
        assert!(validate_entry(&g, &Entry { i: 1, j: 2, v: 1.0 }).is_ok());
    }

    #[test]
    fn chunks_cover_and_respect_lines() {
        let text = b"1 1 1.0\n2 2 2.0\n3 3 3.0\n4 4 4.0\n5 5 5.0\n";
        for parts in [1usize, 2, 3, 4, 10, 100] {
            let ranges = chunk_at_newlines(text, parts);
            assert!(ranges.len() <= parts.max(1));
            let mut pos = 0;
            for r in &ranges {
                assert_eq!(r.start, pos, "contiguous");
                assert!(r.end > r.start, "non-empty");
                assert!(
                    r.end == text.len() || text[r.end - 1] == b'\n',
                    "boundary mid-line at {} for parts={parts}",
                    r.end
                );
                pos = r.end;
            }
            assert_eq!(pos, text.len(), "full coverage for parts={parts}");
        }
        assert!(chunk_at_newlines(b"", 4).is_empty());
        // No trailing newline: the tail still lands in the last range.
        let ranges = chunk_at_newlines(b"1 1 1.0\n2 2", 2);
        assert_eq!(ranges.last().unwrap().end, 11);
        // One giant line cannot be split at all.
        assert_eq!(chunk_at_newlines(b"0123456789", 4), vec![0..10]);
    }
}
