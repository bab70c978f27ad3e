//! `.msb` — the Masked-SpGEMM binary cache format.
//!
//! Text `.mtx` parsing dominates experiment start-up on large inputs
//! (float parsing is serial and branchy); `.msb` stores the canonical CSR
//! directly so repeat runs deserialize at memcpy speed — or, on the
//! mmap path, at **no copy at all**. Layout (all
//! little-endian):
//!
//! ```text
//! offset  size            field
//! 0       4               magic  b"MSB\x01"
//! 4       4               version (u32; 2)
//! 8       4               flags   (u32; bit 0 = pattern, no values section)
//! 12      4               reserved (u32, zero)
//! 16      8               nrows (u64)
//! 24      8               ncols (u64)
//! 32      8               nnz   (u64)
//! 40      8*(nrows+1)     rowptr (u64 each)
//! ...     4*nnz           colidx (u32 each)
//! ...     0 or 4          zero padding to an 8-byte boundary
//! ...     8*nnz           values (f64 each; absent when pattern flag set)
//! ```
//!
//! **The alignment contract.** The 40-byte header and the 8-byte rowptr
//! entries already place every section at an 8-aligned offset except
//! `values`, which would drift by 4 whenever `nnz` is odd; the stream
//! zero-pads after `colidx` so that *every* section starts 8-aligned.
//! Because an mmap is page-aligned, in-file alignment equals in-memory
//! alignment — a mapped file can back a [`Csr`] directly via
//! `Arc`-shared sections, making dataset residency ~free at any scale.
//! Version 1 (the same layout without the padding) is no longer read:
//! it is rejected with an error naming `mxm convert` as the way forward.
//!
//! **One decoder.** Every reader — the stream reader ([`read_msb`]), the
//! heap file loader and the mapped file loader behind
//! [`read_msb_file_auto`] — parses the header with [`read_msb_header`]
//! and asks the one `layout` function for the byte range of each section.
//! That function owns every length, overflow, truncation and
//! trailing-byte verdict, so the loaders cannot disagree on what a valid
//! stream is: the heap loader copies the ranges into vectors, the mapped
//! loader casts them in place. Both then re-validate the CSR invariants
//! (monotone rowptr, strictly sorted in-bounds rows) before a matrix
//! exists — a truncated, corrupted, or misaligned cache fails loudly
//! rather than producing garbage timings (or UB).

use crate::error::IoError;
use memmap2::Mmap;
use mspgemm_sparse::{shared_ones, Csr, Idx, SectionOwner, SharedSlice, Storage};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// First 4 bytes of every `.msb` stream.
pub const MSB_MAGIC: [u8; 4] = *b"MSB\x01";
/// The one version this build writes and reads: the 8-byte-aligned,
/// mmap-able layout.
pub const MSB_VERSION: u32 = 2;
/// Flag bit: the stream stores no values section (structural pattern).
pub const MSB_FLAG_PATTERN: u32 = 1;
/// Fixed header size; also the (8-aligned) offset of the rowptr section.
pub const MSB_HEADER_LEN: usize = 40;

/// Parsed fixed-size header of an `.msb` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsbHeader {
    /// Format version.
    pub version: u32,
    /// Flag word ([`MSB_FLAG_PATTERN`]).
    pub flags: u32,
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored entries.
    pub nnz: usize,
}

impl MsbHeader {
    /// Whether the stream stores no values section.
    pub fn is_pattern(&self) -> bool {
        self.flags & MSB_FLAG_PATTERN != 0
    }

    /// Bytes of zero padding between `colidx` and `values` (every
    /// section stays 8-aligned).
    pub fn colidx_pad(&self) -> usize {
        colidx_pad(self.nnz)
    }
}

/// The colidx→values padding of a stream with `nnz` stored entries:
/// 4 bytes when `nnz` is odd, none otherwise.
fn colidx_pad(nnz: usize) -> usize {
    4 * (nnz % 2)
}

/// Read and validate the 40-byte header.
pub fn read_msb_header<R: Read>(r: &mut R) -> Result<MsbHeader, IoError> {
    let mut fixed = [0u8; MSB_HEADER_LEN];
    r.read_exact(&mut fixed).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            IoError::Format("stream shorter than the 40-byte header".into())
        } else {
            IoError::Io(e)
        }
    })?;
    if fixed[0..4] != MSB_MAGIC {
        return Err(IoError::Format(format!(
            "bad magic {:02x?} (expected {:02x?} — is this an .msb file?)",
            &fixed[0..4],
            MSB_MAGIC
        )));
    }
    let u32_at = |o: usize| u32::from_le_bytes(fixed[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(fixed[o..o + 8].try_into().unwrap());
    let version = u32_at(4);
    if version != MSB_VERSION {
        let hint = if version == 1 {
            "; re-run `mxm convert` on the source matrix"
        } else {
            ""
        };
        return Err(IoError::Format(format!(
            "unsupported version {version} (this build reads {MSB_VERSION}){hint}"
        )));
    }
    let flags = u32_at(8);
    if flags & !MSB_FLAG_PATTERN != 0 {
        return Err(IoError::Format(format!("unknown flag bits: {flags:#x}")));
    }
    let (nrows, ncols, nnz) = (u64_at(16), u64_at(24), u64_at(32));
    let max = usize::MAX as u64;
    if nrows > max || ncols > max || nnz > max {
        return Err(IoError::Format("dimensions overflow usize".into()));
    }
    if ncols > Idx::MAX as u64 {
        return Err(IoError::Format(format!(
            "ncols {ncols} exceeds the u32 column-index space"
        )));
    }
    Ok(MsbHeader {
        version,
        flags,
        nrows: nrows as usize,
        ncols: ncols as usize,
        nnz: nnz as usize,
    })
}

/// Where each section of one stream lives, as byte ranges from the start
/// of the stream. The ranges are contiguous, in this order, starting
/// right after the header.
struct Layout {
    rowptr: Range<usize>,
    colidx: Range<usize>,
    pad: Range<usize>,
    /// `None` when the load serves unit values from the process-wide
    /// arena: the stream carries the pattern flag, or the caller asked
    /// for the values range to be skipped.
    values: Option<Range<usize>>,
}

impl Layout {
    /// End of the last range a load materialises — the bytes it reads.
    fn end(&self) -> usize {
        self.values.as_ref().map_or(self.pad.end, |v| v.end)
    }
}

/// The one place section offsets and lengths are computed. Header fields
/// are untrusted, so every product and sum is overflow-checked, and the
/// stream must be exactly as long as the header implies: a short stream
/// is reported against the section the cut falls in, a long one as
/// trailing bytes — *before* any section is allocated, copied or cast.
/// `skip_values` validates the values range like any other but leaves it
/// out of the result.
fn layout(h: &MsbHeader, stream_len: u64, skip_values: bool) -> Result<Layout, IoError> {
    let mut at = MSB_HEADER_LEN;
    let mut section = |what: &str, elems: usize, width: usize| {
        let end = elems
            .checked_mul(width)
            .and_then(|len| at.checked_add(len))
            .ok_or_else(|| IoError::Format(format!("{what} section length overflows")))?;
        if end as u64 > stream_len {
            return Err(IoError::Format(format!("truncated {what} section")));
        }
        Ok(std::mem::replace(&mut at, end)..end)
    };
    let rowptr = section("rowptr", h.nrows.saturating_add(1), 8)?;
    let colidx = section("colidx", h.nnz, 4)?;
    let pad = section("alignment padding", h.colidx_pad(), 1)?;
    let values = if h.is_pattern() {
        None
    } else {
        Some(section("values", h.nnz, 8)?)
    };
    if at as u64 != stream_len {
        return Err(IoError::Format(
            "trailing bytes after the last section".into(),
        ));
    }
    Ok(Layout {
        rowptr,
        colidx,
        pad,
        values: values.filter(|_| !skip_values),
    })
}

/// The bytes of [`Layout::pad`] must be zero.
fn check_pad(pad: &[u8]) -> Result<(), IoError> {
    if pad.iter().any(|&b| b != 0) {
        return Err(IoError::Format(
            "nonzero alignment padding after colidx".into(),
        ));
    }
    Ok(())
}

/// Build the matrix from decoded (or cast) sections, re-validating every
/// CSR invariant.
fn assemble(
    h: &MsbHeader,
    rowptr: Storage<usize>,
    colidx: Storage<Idx>,
    values: Storage<f64>,
) -> Result<Csr<f64>, IoError> {
    Csr::try_from_storage(h.nrows, h.ncols, rowptr, colidx, values)
        .map_err(|e| IoError::Format(format!("invalid CSR in stream: {e}")))
}

/// Decode a section of `W`-byte little-endian elements.
fn decode_le<const W: usize, T>(bytes: &[u8], from: impl Fn([u8; W]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(W)
        .map(|c| from(c.try_into().expect("chunks_exact yields W bytes")))
        .collect()
}

/// The heap loader: copy the ranges of `lay` out of `r` — positioned
/// just past the header; the ranges are contiguous, so sequential reads
/// land on them — into owned vectors. A skipped values range is never
/// read. Allocation is bounded by the stream length `layout` checked.
fn read_heap<R: Read>(r: &mut R, h: &MsbHeader, lay: &Layout) -> Result<Csr<f64>, IoError> {
    let mut copy = |range: &Range<usize>| -> Result<Vec<u8>, IoError> {
        let mut buf = vec![0u8; range.len()];
        r.read_exact(&mut buf)?;
        Ok(buf)
    };
    let rowptr = decode_le(&copy(&lay.rowptr)?, |b| u64::from_le_bytes(b) as usize);
    let colidx = decode_le(&copy(&lay.colidx)?, Idx::from_le_bytes);
    check_pad(&copy(&lay.pad)?)?;
    let values: Storage<f64> = match &lay.values {
        Some(range) => decode_le(&copy(range)?, f64::from_le_bytes).into(),
        None => shared_ones(h.nnz).into(),
    };
    assemble(h, rowptr.into(), colidx.into(), values)
}

/// Cast the `T`s at `range` of the mapping into a [`SharedSlice`] holding
/// the mapping alive — after checking bounds and alignment.
fn shared_section<T: Send + Sync + 'static>(
    map: &Arc<Mmap>,
    range: &Range<usize>,
    what: &str,
) -> Result<SharedSlice<T>, IoError> {
    // Slicing is the bounds check (`layout` already proved it holds).
    let bytes = &map.as_slice()[range.clone()];
    let ptr = bytes.as_ptr();
    if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err(IoError::Format(format!(
            "{what} section at offset {} is misaligned for zero-copy loading",
            range.start
        )));
    }
    // SAFETY: `bytes` lies inside the mapping and holds at least
    // `bytes.len() / size_of::<T>()` `T`s; alignment checked above;
    // u64/u32/f64/usize accept any bit pattern; the Arc'd mapping owns
    // the bytes and is read-only for its whole lifetime.
    Ok(unsafe {
        SharedSlice::from_raw_parts(
            ptr.cast::<T>(),
            bytes.len() / std::mem::size_of::<T>(),
            map.clone() as SectionOwner,
        )
    })
}

/// The mapped loader: map `file` and back a [`Csr`] directly by the
/// ranges of its layout — **zero-copy**: no section is duplicated on the
/// heap; the mapping lives as long as any section (or clone of one, e.g.
/// a derived pattern mask) does. A skipped values range is never cast
/// (nor touched). Returns the matrix and the bytes it materialised.
///
/// # Errors
/// [`IoError::Io`] when the mapping itself is unavailable (the OS refused
/// it, or the target cannot reinterpret the little-endian 64-bit
/// sections in place); [`IoError::Format`] for every verdict on the
/// bytes, exactly as the heap loader words it.
fn map_msb(file: &File, skip_values: bool) -> Result<(Csr<f64>, u64), IoError> {
    if !cfg!(all(target_endian = "little", target_pointer_width = "64")) {
        return Err(IoError::Io(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "zero-copy .msb mapping requires a little-endian 64-bit target",
        )));
    }
    // SAFETY: `Mmap::map` requires that the file not be modified while
    // mapped. The mapping is read-only and every byte is validated below
    // before use. `.msb` files are written via
    // temp-file + atomic rename (load.rs / `mxm convert`), so the
    // mapped inode is never rewritten in place by this toolchain;
    // external truncation while mapped is outside the contract, as
    // with any mmap consumer.
    let map = Arc::new(unsafe { Mmap::map(file) }?);
    // Validation below walks the file front to back exactly once:
    // tell the kernel so read-ahead runs ahead of the scan. Hints
    // only — a refusal (e.g. exotic filesystems) costs nothing.
    map.advise(memmap2::Advice::Sequential).ok();
    let bytes: &[u8] = map.as_slice();
    let h = read_msb_header(&mut &bytes[..])?;
    let lay = layout(&h, bytes.len() as u64, skip_values)?;
    check_pad(&bytes[lay.pad.clone()])?;
    // On this target usize is exactly the on-disk u64 (little-endian,
    // 64-bit) — rowptr reinterprets in place.
    let rowptr = shared_section::<usize>(&map, &lay.rowptr, "rowptr")?;
    let colidx = shared_section::<Idx>(&map, &lay.colidx, "colidx")?;
    let values: Storage<f64> = match &lay.values {
        Some(range) => shared_section::<f64>(&map, range, "values")?.into(),
        None => shared_ones(h.nnz).into(),
    };
    let csr = assemble(&h, rowptr.into(), colidx.into(), values)?;
    // The kernels that consume this matrix gather B rows in A-column
    // order — effectively random page references. Drop the
    // sequential hint and ask for the whole range up front.
    map.advise(memmap2::Advice::Random).ok();
    map.advise(memmap2::Advice::WillNeed).ok();
    Ok((csr, lay.end() as u64))
}

/// How a loaded `.msb` matrix is resident in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsbBackend {
    /// Sections copied into heap-owned vectors.
    Heap,
    /// Sections are `Arc`-shared views into a read-only file mapping —
    /// no on-disk section was copied to the heap. For value loads that
    /// is all of `rowptr`/`colidx`/`values`; a pattern load (values-less
    /// stream, or values range skipped) takes its unit values from the
    /// process-wide arena ([`mspgemm_sparse::shared_ones`]) while
    /// `rowptr`/`colidx` stay mapped
    /// ([`Csr::storage_report`](mspgemm_sparse::Csr::storage_report)
    /// breaks the split down).
    Mmap,
}

impl MsbBackend {
    /// The name reports and the serve protocol print.
    pub fn name(&self) -> &'static str {
        match self {
            MsbBackend::Heap => "heap",
            MsbBackend::Mmap => "mmap",
        }
    }
}

/// Load an `.msb` file through the heap or (with `prefer_mmap`) the
/// mapped loader. With `skip_values` the values range of a value stream
/// is validated by `layout` but not materialised — the heap loader never
/// reads those bytes, the mapped one never casts them — and the matrix
/// gets unit values from the process-wide arena, exactly like a
/// values-less stream. Also returns the bytes the load materialised
/// (header through the last range used).
///
/// Only a failed *mapping* falls back to the heap loader; a format
/// verdict comes from the shared decoder, so it is final and the file is
/// read once.
pub(crate) fn load_msb_file(
    path: &Path,
    prefer_mmap: bool,
    skip_values: bool,
) -> Result<(Csr<f64>, MsbBackend, u64), IoError> {
    let mut file = File::open(path)?;
    if prefer_mmap {
        match map_msb(&file, skip_values) {
            Err(IoError::Io(_)) => {}
            mapped => return mapped.map(|(a, bytes)| (a, MsbBackend::Mmap, bytes)),
        }
    }
    let len = file.metadata()?.len();
    let h = read_msb_header(&mut file)?;
    let lay = layout(&h, len, skip_values)?;
    let a = read_heap(&mut file, &h, &lay)?;
    Ok((a, MsbBackend::Heap, lay.end() as u64))
}

/// Read an `.msb` file, preferring the zero-copy mmap path when asked:
/// files come back [`MsbBackend::Mmap`] with `Arc`-shared sections;
/// targets (or filesystems) that cannot map fall back to the copying
/// loader. Pattern streams load with every value `1.0`, served from the
/// process-wide unit arena.
pub fn read_msb_file_auto(
    path: impl AsRef<Path>,
    prefer_mmap: bool,
) -> Result<(Csr<f64>, MsbBackend), IoError> {
    load_msb_file(path.as_ref(), prefer_mmap, false).map(|(a, backend, _)| (a, backend))
}

/// Read an `.msb` file from disk into heap-owned sections.
pub fn read_msb_file(path: impl AsRef<Path>) -> Result<Csr<f64>, IoError> {
    read_msb_file_auto(path, false).map(|(a, _)| a)
}

/// Read an `.msb` stream into `Csr<f64>`: the stream is slurped, then
/// decoded by the same `layout` + heap loader the file readers use.
/// Pattern streams read with every value `1.0`, served from the
/// process-wide unit arena ([`mspgemm_sparse::shared_ones`]) rather than
/// a private `8·nnz`-byte buffer — [`Csr::values_unit_shared`] is `true`
/// on the result. All structural invariants are re-validated.
pub fn read_msb<R: Read>(mut r: R) -> Result<Csr<f64>, IoError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut rest = bytes.as_slice();
    let h = read_msb_header(&mut rest)?;
    let lay = layout(&h, bytes.len() as u64, false)?;
    read_heap(&mut rest, &h, &lay)
}

/// The one section writer: header, rowptr, colidx, pad, then `values`
/// when given (`None` writes a pattern stream).
fn write_stream<W: Write, T>(w: W, a: &Csr<T>, values: Option<&[f64]>) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    let flags = if values.is_some() {
        0
    } else {
        MSB_FLAG_PATTERN
    };
    w.write_all(&MSB_MAGIC)?;
    w.write_all(&MSB_VERSION.to_le_bytes())?;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    for dim in [a.nrows(), a.ncols(), a.nnz()] {
        w.write_all(&(dim as u64).to_le_bytes())?;
    }
    for &p in a.rowptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &j in a.colidx() {
        w.write_all(&j.to_le_bytes())?;
    }
    w.write_all(&[0u8; 4][..colidx_pad(a.nnz())])?;
    for &v in values.unwrap_or_default() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Write `a` (values included) as an `.msb` stream.
pub fn write_msb<W: Write>(w: W, a: &Csr<f64>) -> Result<(), IoError> {
    write_stream(w, a, Some(a.values()))
}

/// Write the pattern of `a` (no values section), current version.
pub fn write_msb_pattern<W: Write, T>(w: W, a: &Csr<T>) -> Result<(), IoError> {
    write_stream(w, a, None)
}

/// Write an `.msb` file to disk.
pub fn write_msb_file(path: impl AsRef<Path>, a: &Csr<f64>) -> Result<(), IoError> {
    write_msb(File::create(path)?, a)
}

/// Write the pattern of `a` (no values section) to disk — roughly half
/// the bytes of a value file for typical `nnz ≫ nrows` matrices.
pub fn write_msb_pattern_file<T>(path: impl AsRef<Path>, a: &Csr<T>) -> Result<(), IoError> {
    write_msb_pattern(File::create(path)?, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        Csr::from_dense(
            &[
                vec![Some(1.5), None, Some(-2.0)],
                vec![None, None, None],
                vec![Some(0.0), Some(4.25), None],
            ],
            3,
        )
    }

    /// A sample with odd nnz, so the alignment pad is actually present.
    fn sample_odd() -> Csr<f64> {
        Csr::from_dense(
            &[
                vec![Some(1.5), None, Some(-2.0)],
                vec![None, Some(7.25), None],
                vec![Some(0.0), Some(4.25), None],
            ],
            3,
        )
    }

    fn value_stream(a: &Csr<f64>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_msb(&mut buf, a).unwrap();
        buf
    }

    fn pattern_stream(a: &Csr<f64>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_msb_pattern(&mut buf, a).unwrap();
        buf
    }

    /// Write `bytes` to a fresh temp `.msb` path (tests run concurrently,
    /// so every call gets its own file).
    fn msb_file(bytes: &[u8]) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("mspgemm_io_msb_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{}_{n}.msb", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn value_roundtrip() {
        let a = sample();
        assert_eq!(read_msb(value_stream(&a).as_slice()).unwrap(), a);
    }

    #[test]
    fn pattern_roundtrip() {
        let a = sample();
        let buf = pattern_stream(&a);
        // A pattern stream reads with 1.0 everywhere, served from the
        // process-wide unit arena (no private 8·nnz buffer).
        let ones = read_msb(buf.as_slice()).unwrap();
        assert!(ones.values().iter().all(|&v| v == 1.0));
        assert!(ones.values_unit_shared());
        assert_eq!(ones.pattern(), a.pattern());
        // A pattern stream is the value stream minus the values section.
        assert_eq!(buf.len(), value_stream(&a).len() - 8 * a.nnz());
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let a: Csr<f64> = Csr::empty(5, 7);
        assert_eq!(read_msb(value_stream(&a).as_slice()).unwrap(), a);
    }

    #[test]
    fn header_fields() {
        let buf = value_stream(&sample());
        let h = read_msb_header(&mut buf.as_slice()).unwrap();
        assert_eq!(h.version, MSB_VERSION);
        assert!(!h.is_pattern());
        assert_eq!((h.nrows, h.ncols, h.nnz), (3, 3, 4));
        assert_eq!(buf.len(), 40 + 8 * 4 + 4 * 4 + 8 * 4);
    }

    #[test]
    fn v2_pad_is_present_iff_nnz_odd() {
        let (even, odd) = (sample(), sample_odd());
        assert_eq!(even.nnz() % 2, 0);
        assert_eq!(odd.nnz() % 2, 1);
        for (a, pad) in [(&even, 0usize), (&odd, 4)] {
            let buf = value_stream(a);
            let h = read_msb_header(&mut buf.as_slice()).unwrap();
            assert_eq!(h.colidx_pad(), pad);
            assert_eq!(
                buf.len(),
                MSB_HEADER_LEN + 8 * (a.nrows() + 1) + 4 * a.nnz() + pad + 8 * a.nnz()
            );
            // The values section starts 8-aligned within the file.
            assert_eq!((buf.len() - 8 * a.nnz()) % 8, 0);
            assert_eq!(read_msb(buf.as_slice()).unwrap(), *a);
        }
    }

    /// Judge `bytes` with all three readers — the stream reader, the heap
    /// file loader, the mapped file loader — and return the one
    /// `IoError::Format` text they must agree on.
    fn verdict(what: &str, bytes: &[u8]) -> String {
        let path = msb_file(bytes);
        let message = |r: Result<Csr<f64>, IoError>, reader: &str| match r {
            Err(IoError::Format(m)) => m,
            other => panic!("{what}: {reader} reader returned {other:?}"),
        };
        let stream = message(read_msb(bytes), "stream");
        for (prefer_mmap, reader) in [(false, "heap"), (true, "mapped")] {
            let r = read_msb_file_auto(&path, prefer_mmap).map(|(a, _)| a);
            assert_eq!(message(r, reader), stream, "{what}: {reader} vs stream");
        }
        std::fs::remove_file(&path).ok();
        stream
    }

    #[test]
    fn corrupt_streams_get_one_verdict_from_every_reader() {
        let a = sample_odd();
        let good = value_stream(&a);
        let rowptr_end = MSB_HEADER_LEN + 8 * (a.nrows() + 1);
        let colidx_end = rowptr_end + 4 * a.nnz();
        let edit = |at: usize, bytes: &[u8]| {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        let extend = |mut stream: Vec<u8>, tail: &[u8]| {
            stream.extend_from_slice(tail);
            stream
        };
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("empty file", vec![], "shorter than the 40-byte header"),
            (
                "cut inside the header",
                good[..17].to_vec(),
                "40-byte header",
            ),
            ("cut inside rowptr", good[..50].to_vec(), "truncated rowptr"),
            (
                "cut inside colidx",
                good[..colidx_end - 1].to_vec(),
                "truncated colidx",
            ),
            (
                "cut inside the pad",
                good[..colidx_end + 2].to_vec(),
                "truncated alignment padding",
            ),
            (
                "cut inside values",
                good[..good.len() - 5].to_vec(),
                "truncated values",
            ),
            ("flipped magic", edit(0, b"X"), "bad magic"),
            // Version 1 names the way forward.
            ("version 1", edit(4, &1u32.to_le_bytes()), "mxm convert"),
            ("version 99", edit(4, &99u32.to_le_bytes()), "version 99"),
            ("unknown flag bits", edit(8, &[0xfe]), "unknown flag bits"),
            (
                "ncols past u32",
                edit(24, &(1u64 << 32).to_le_bytes()),
                "exceeds the u32",
            ),
            // Absurd dimensions fail on arithmetic or against the stream
            // length — never by attempting the allocation.
            (
                "nrows past usize arithmetic",
                edit(16, &u64::MAX.to_le_bytes()),
                "rowptr section length overflows",
            ),
            (
                "nrows past the stream",
                edit(16, &(1u64 << 60).to_le_bytes()),
                "truncated rowptr",
            ),
            (
                "nnz past usize arithmetic",
                edit(32, &(u64::MAX / 2).to_le_bytes()),
                "colidx section length overflows",
            ),
            (
                "nnz past the stream",
                edit(32, &(1u64 << 60).to_le_bytes()),
                "truncated colidx",
            ),
            (
                "nonzero pad",
                edit(colidx_end, &[0xab]),
                "nonzero alignment padding",
            ),
            (
                "one trailing byte",
                extend(good.clone(), &[0]),
                "trailing bytes",
            ),
            // The header said pattern, so the stream must end after the
            // pad — a values section behind it is trailing garbage.
            (
                "pattern flag with a values tail",
                extend(pattern_stream(&a), &1.0f64.to_le_bytes()),
                "trailing bytes",
            ),
            // Bytes that would be an out-of-bounds slice if trusted.
            (
                "scrambled rowptr entry",
                edit(48, &u64::MAX.to_le_bytes()),
                "invalid CSR",
            ),
            (
                "out-of-bounds column",
                edit(rowptr_end, &u32::MAX.to_le_bytes()),
                "invalid CSR",
            ),
        ];
        for (what, bytes, expect) in &cases {
            let text = verdict(what, bytes);
            assert!(text.contains(expect), "{what}: '{text}' lacks '{expect}'");
        }
        // And every proper prefix of a value and of a pattern stream —
        // each section boundary and interior — is rejected alike.
        for stream in [&good, &pattern_stream(&a)] {
            for cut in 0..stream.len() {
                verdict(&format!("prefix of {cut} bytes"), &stream[..cut]);
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let path = msb_file(&[]);
        let a = sample();
        write_msb_file(&path, &a).unwrap();
        assert_eq!(read_msb_file(&path).unwrap(), a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_load_is_zero_copy_and_equal() {
        for a in [sample(), sample_odd()] {
            let path = msb_file(&value_stream(&a));
            let (m, backend) = read_msb_file_auto(&path, true).unwrap();
            assert_eq!(backend, MsbBackend::Mmap);
            assert_eq!(m, a);
            assert!(m.has_shared_storage());
            let r = m.storage_report();
            assert_eq!(r.heap_bytes, 0, "no per-section heap copy");
            assert_eq!(
                r.shared_bytes,
                8 * (a.nrows() + 1) + 4 * a.nnz() + 8 * a.nnz()
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn pattern_loads_have_no_private_values() {
        // Two ways to a pattern load — a values-less stream, and a value
        // stream whose values range is skipped — on both backends: unit
        // values from the arena, and only header..pad materialised.
        for a in [sample(), sample_odd()] {
            let structure = 8 * (a.nrows() + 1) + 4 * a.nnz();
            let read = (MSB_HEADER_LEN + structure + colidx_pad(a.nnz())) as u64;
            for (bytes, skip_values) in [(pattern_stream(&a), false), (value_stream(&a), true)] {
                let path = msb_file(&bytes);
                for prefer_mmap in [false, true] {
                    let (m, backend, got) = load_msb_file(&path, prefer_mmap, skip_values).unwrap();
                    assert_eq!(backend == MsbBackend::Mmap, prefer_mmap);
                    assert_eq!(got, read, "bytes materialised");
                    assert_eq!(m.pattern(), a.pattern());
                    assert!(m.values().iter().all(|&v| v == 1.0));
                    assert!(m.values_unit_shared(), "values from the arena");
                    let r = m.storage_report();
                    assert_eq!(r.unit_bytes, 8 * a.nnz());
                    if prefer_mmap {
                        assert_eq!(r.heap_bytes, 0, "nothing copied to the heap");
                        assert_eq!(r.shared_bytes, structure);
                    } else {
                        assert_eq!(r.heap_bytes, structure);
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn heap_loader_never_reads_a_skipped_values_range() {
        // A reader that refuses to go past the pad proves the heap
        // loader stops there.
        let a = sample_odd();
        let bytes = value_stream(&a);
        let h = read_msb_header(&mut bytes.as_slice()).unwrap();
        let lay = layout(&h, bytes.len() as u64, true).unwrap();
        let mut upto_pad = &bytes[MSB_HEADER_LEN..lay.pad.end];
        let m = read_heap(&mut upto_pad, &h, &lay).unwrap();
        assert_eq!(m.pattern(), a.pattern());
        assert!(upto_pad.is_empty(), "header..pad read in full");
    }

    #[test]
    fn matrix_outlives_everything_but_its_mapping() {
        let a = sample_odd();
        let path = msb_file(&value_stream(&a));
        let (m, _) = read_msb_file_auto(&path, true).unwrap();
        // Derive a pattern (shares rowptr/colidx with the mapping),
        // drop the original, and read through the clone.
        let p = m.pattern();
        drop(m);
        assert_eq!(p.nnz(), a.nnz());
        assert_eq!(p.row_cols(2), a.row_cols(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn not_preferring_mmap_stays_on_heap() {
        let path = msb_file(&value_stream(&sample()));
        let (m, backend) = read_msb_file_auto(&path, false).unwrap();
        assert_eq!(backend, MsbBackend::Heap);
        assert!(!m.has_shared_storage());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kernels_run_on_mapped_operands() {
        // End-to-end: an mmap-backed operand flows through the push
        // kernels and fingerprints identically to its heap twin.
        let g = mspgemm_gen::er_symmetric(60, 6, 13);
        let path = msb_file(&value_stream(&g));
        let (mapped, _) = read_msb_file_auto(&path, true).unwrap();
        assert!(mapped.has_shared_storage());
        use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
        use mspgemm_sparse::semiring::PlusTimesF64;
        let product = |a: &Csr<f64>| {
            masked_mxm_with_opts::<PlusTimesF64, ()>(
                &a.pattern(),
                a,
                a,
                Algorithm::Hash,
                MaskMode::Mask,
                Phases::One,
                &ExecOpts::default(),
            )
            .unwrap()
        };
        let (heap_c, map_c) = (product(&g), product(&mapped));
        assert_eq!(heap_c, map_c);
        assert_eq!(
            mspgemm_harness::csr_fingerprint(&heap_c),
            mspgemm_harness::csr_fingerprint(&map_c)
        );
        std::fs::remove_file(&path).ok();
    }
}
