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
//! `Arc`-shared sections
//! ([`map_msb_file`]), making dataset residency ~free at any scale.
//! Version 1 (the same layout without the padding) is no longer read:
//! both readers reject it and name `mxm convert` as the way forward.
//!
//! Readers fully validate the header, section lengths, and the CSR
//! invariants (monotone rowptr, strictly sorted in-bounds rows) before
//! constructing the matrix — on the zero-copy path too, where nothing is
//! trusted until the mapped sections pass the same validation. A
//! truncated, corrupted, or misaligned cache fails loudly rather than
//! producing garbage timings (or UB).

use crate::error::IoError;
use mspgemm_sparse::{Csr, Idx};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

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
        (8 - (4 * self.nnz) % 8) % 8
    }
}

fn write_header<W: Write>(
    w: &mut W,
    flags: u32,
    nrows: usize,
    ncols: usize,
    nnz: usize,
) -> Result<(), IoError> {
    w.write_all(&MSB_MAGIC)?;
    w.write_all(&MSB_VERSION.to_le_bytes())?;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&(nrows as u64).to_le_bytes())?;
    w.write_all(&(ncols as u64).to_le_bytes())?;
    w.write_all(&(nnz as u64).to_le_bytes())?;
    Ok(())
}

/// Read and validate the 40-byte header.
pub fn read_msb_header<R: Read>(r: &mut R) -> Result<MsbHeader, IoError> {
    let mut fixed = [0u8; 40];
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

/// Incremental-read granularity: memory is committed only as bytes
/// actually arrive, so a corrupt header declaring absurd dimensions fails
/// with a truncation error instead of a giant up-front allocation.
const READ_CHUNK: usize = 1 << 22;

fn read_bytes_checked<R: Read>(r: &mut R, total: usize, what: &str) -> Result<Vec<u8>, IoError> {
    let mut buf = Vec::new();
    let mut have = 0usize;
    while have < total {
        let step = READ_CHUNK.min(total - have);
        buf.try_reserve(step)
            .map_err(|_| IoError::Format(format!("{what} section too large to allocate")))?;
        buf.resize(have + step, 0);
        r.read_exact(&mut buf[have..have + step]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                IoError::Format(format!("truncated {what} section"))
            } else {
                IoError::Io(e)
            }
        })?;
        have += step;
    }
    Ok(buf)
}

/// `a * b` (+ optional `c`) with overflow mapped to a format error —
/// header fields are untrusted.
fn section_len(elems: usize, width: usize, what: &str) -> Result<usize, IoError> {
    elems
        .checked_mul(width)
        .ok_or_else(|| IoError::Format(format!("{what} section length overflows")))
}

/// The decoded body of an `.msb` stream: rowptr, colidx, values (absent
/// for pattern streams).
type Sections = (Vec<usize>, Vec<Idx>, Option<Vec<f64>>);

fn read_sections<R: Read>(r: &mut R, h: &MsbHeader) -> Result<Sections, IoError> {
    let rowptr_len = section_len(
        h.nrows
            .checked_add(1)
            .ok_or_else(|| IoError::Format("nrows overflows".into()))?,
        8,
        "rowptr",
    )?;
    let buf = read_bytes_checked(r, rowptr_len, "rowptr")?;
    let rowptr: Vec<usize> = buf
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()) as usize)
        .collect();

    let buf = read_bytes_checked(r, section_len(h.nnz, 4, "colidx")?, "colidx")?;
    let colidx: Vec<Idx> = buf
        .chunks_exact(4)
        .map(|c| Idx::from_le_bytes(c.try_into().unwrap()))
        .collect();

    // Zero padding keeps the values section 8-aligned.
    let pad = read_bytes_checked(r, h.colidx_pad(), "alignment padding")?;
    if pad.iter().any(|&b| b != 0) {
        return Err(IoError::Format(
            "nonzero alignment padding after colidx".into(),
        ));
    }

    let values = if h.is_pattern() {
        None
    } else {
        let buf = read_bytes_checked(r, section_len(h.nnz, 8, "values")?, "values")?;
        Some(
            buf.chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        )
    };

    // No trailing garbage.
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok((rowptr, colidx, values)),
        _ => Err(IoError::Format(
            "trailing bytes after the last section".into(),
        )),
    }
}

/// The colidx→values padding a writer must emit for `nnz` stored entries.
fn write_pad(nnz: usize) -> &'static [u8] {
    if !(4 * nnz).is_multiple_of(8) {
        &[0u8; 4]
    } else {
        &[]
    }
}

/// Write `a` (values included) as an `.msb` stream.
pub fn write_msb<W: Write>(w: W, a: &Csr<f64>) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    write_header(&mut w, 0, a.nrows(), a.ncols(), a.nnz())?;
    for &p in a.rowptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &j in a.colidx() {
        w.write_all(&j.to_le_bytes())?;
    }
    w.write_all(write_pad(a.nnz()))?;
    for &v in a.values() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Write the pattern of `a` (no values section), current version.
pub fn write_msb_pattern<W: Write, T>(w: W, a: &Csr<T>) -> Result<(), IoError> {
    let mut w = BufWriter::new(w);
    write_header(&mut w, MSB_FLAG_PATTERN, a.nrows(), a.ncols(), a.nnz())?;
    for &p in a.rowptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &j in a.colidx() {
        w.write_all(&j.to_le_bytes())?;
    }
    w.write_all(write_pad(a.nnz()))?;
    w.flush()?;
    Ok(())
}

/// Read an `.msb` stream into `Csr<f64>`. Pattern streams read with every
/// value `1.0`, served from the process-wide unit arena
/// ([`mspgemm_sparse::shared_ones`]) rather than a private `8·nnz`-byte
/// buffer — [`Csr::values_unit_shared`] is `true` on the result. All
/// structural invariants are re-validated.
pub fn read_msb<R: Read>(r: R) -> Result<Csr<f64>, IoError> {
    let mut r = BufReader::new(r);
    let h = read_msb_header(&mut r)?;
    let (rowptr, colidx, values) = read_sections(&mut r, &h)?;
    let values: mspgemm_sparse::Storage<f64> = match values {
        Some(v) => v.into(),
        None => mspgemm_sparse::shared_ones(h.nnz).into(),
    };
    Csr::try_from_storage(h.nrows, h.ncols, rowptr.into(), colidx.into(), values)
        .map_err(|e| IoError::Format(format!("invalid CSR in stream: {e}")))
}

/// Read an `.msb` stream as a structural pattern, discarding any values.
pub fn read_msb_pattern<R: Read>(r: R) -> Result<Csr<()>, IoError> {
    let mut r = BufReader::new(r);
    let h = read_msb_header(&mut r)?;
    let (rowptr, colidx, _values) = read_sections(&mut r, &h)?;
    Csr::try_from_parts(h.nrows, h.ncols, rowptr, colidx, vec![(); h.nnz])
        .map_err(|e| IoError::Format(format!("invalid CSR in stream: {e}")))
}

/// Write an `.msb` file to disk.
pub fn write_msb_file(path: impl AsRef<Path>, a: &Csr<f64>) -> Result<(), IoError> {
    write_msb(std::fs::File::create(path)?, a)
}

/// Write the pattern of `a` (no values section) to disk — roughly half
/// the bytes of a value file for typical `nnz ≫ nrows` matrices.
pub fn write_msb_pattern_file<T>(path: impl AsRef<Path>, a: &Csr<T>) -> Result<(), IoError> {
    write_msb_pattern(std::fs::File::create(path)?, a)
}

/// Read an `.msb` file from disk.
pub fn read_msb_file(path: impl AsRef<Path>) -> Result<Csr<f64>, IoError> {
    read_msb(std::fs::File::open(path)?)
}

/// How a loaded `.msb` matrix is resident in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsbBackend {
    /// Sections copied into heap-owned vectors (the only option for
    /// non-`mmap` builds and targets that cannot reinterpret the
    /// little-endian sections in place).
    Heap,
    /// Sections are `Arc`-shared views into a read-only file mapping —
    /// no on-disk section was copied to the heap. For value streams that
    /// is all of `rowptr`/`colidx`/`values`; a pattern stream has no
    /// values section on disk, so its unit values come from the
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

#[cfg(all(
    feature = "mmap",
    target_endian = "little",
    target_pointer_width = "64"
))]
mod zero_copy {
    use super::*;
    use memmap2::Mmap;
    use mspgemm_sparse::{SectionOwner, SharedSlice, Storage};
    use std::sync::Arc;

    /// Cast `elems` `T`s at byte offset `off` of the mapping into a
    /// [`SharedSlice`] holding the mapping alive — after checking bounds
    /// (with overflow-safe arithmetic) and alignment.
    fn shared_section<T: Send + Sync + 'static>(
        map: &Arc<Mmap>,
        off: usize,
        elems: usize,
        what: &str,
    ) -> Result<SharedSlice<T>, IoError> {
        let bytes = section_len(elems, std::mem::size_of::<T>(), what)?;
        let end = off
            .checked_add(bytes)
            .ok_or_else(|| IoError::Format(format!("{what} section offset overflows")))?;
        if end > map.len() {
            return Err(IoError::Format(format!("truncated {what} section")));
        }
        let ptr = map.as_slice()[off..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(IoError::Format(format!(
                "{what} section at offset {off} is misaligned for zero-copy loading"
            )));
        }
        // SAFETY: bounds and alignment checked above; u64/u32/f64/usize
        // accept any bit pattern; the Arc'd mapping owns the bytes and is
        // read-only for its whole lifetime.
        Ok(unsafe {
            SharedSlice::from_raw_parts(ptr.cast::<T>(), elems, map.clone() as SectionOwner)
        })
    }

    /// Map an `.msb` file and back a [`Csr`] directly by its sections —
    /// **zero-copy**: `rowptr`/`colidx`/`values` are never duplicated on
    /// the heap; the mapping lives as long as any section (or clone of
    /// one, e.g. a derived pattern mask) does.
    ///
    /// Everything is validated before the matrix exists: header fields,
    /// section bounds, alignment, padding bytes, and the full CSR
    /// structural invariants (monotone rowptr, sorted in-bounds rows).
    ///
    /// # Errors
    /// [`IoError::Format`] for any validation failure (a version-1
    /// header included, exactly as the copying reader reports it), and
    /// [`IoError::Io`] for mapping failures.
    pub fn map_msb_file(path: impl AsRef<Path>) -> Result<Csr<f64>, IoError> {
        let file = std::fs::File::open(path)?;
        // SAFETY (Mmap::map contract): the mapping is read-only and every
        // byte is validated below before use. `.msb` files are written via
        // temp-file + atomic rename (load.rs / `mxm convert`), so the
        // mapped inode is never rewritten in place by this toolchain;
        // external truncation while mapped is outside the contract, as
        // with any mmap consumer.
        let map = Arc::new(unsafe { Mmap::map(&file) }.map_err(IoError::Io)?);
        // Validation below walks the file front to back exactly once:
        // tell the kernel so read-ahead runs ahead of the scan. Hints
        // only — a refusal (e.g. exotic filesystems) costs nothing.
        map.advise(memmap2::Advice::Sequential).ok();
        let bytes: &[u8] = map.as_slice();
        let h = read_msb_header(&mut &bytes[..])?;
        let add = |a: usize, b: usize| {
            a.checked_add(b)
                .ok_or_else(|| IoError::Format("section offset overflows".into()))
        };
        let rowptr_elems = add(h.nrows, 1)?;
        let colidx_off = add(MSB_HEADER_LEN, section_len(rowptr_elems, 8, "rowptr")?)?;
        let pad_off = add(colidx_off, section_len(h.nnz, 4, "colidx")?)?;
        let values_off = add(pad_off, h.colidx_pad())?;
        let total = if h.is_pattern() {
            values_off
        } else {
            add(values_off, section_len(h.nnz, 8, "values")?)?
        };
        if total > bytes.len() {
            return Err(IoError::Format("truncated .msb file".into()));
        }
        if total < bytes.len() {
            return Err(IoError::Format(
                "trailing bytes after the last section".into(),
            ));
        }
        if bytes[pad_off..values_off].iter().any(|&b| b != 0) {
            return Err(IoError::Format(
                "nonzero alignment padding after colidx".into(),
            ));
        }
        // On this target usize is exactly the on-disk u64 (little-endian,
        // 64-bit) — rowptr reinterprets in place.
        let rowptr = shared_section::<usize>(&map, MSB_HEADER_LEN, rowptr_elems, "rowptr")?;
        let colidx = shared_section::<Idx>(&map, colidx_off, h.nnz, "colidx")?;
        // Pattern files carry no values section; serve unit values from
        // the process-wide arena so residency is rowptr+colidx only.
        let values: Storage<f64> = if h.is_pattern() {
            mspgemm_sparse::shared_ones(h.nnz).into()
        } else {
            shared_section::<f64>(&map, values_off, h.nnz, "values")?.into()
        };
        let csr = Csr::try_from_storage(h.nrows, h.ncols, rowptr.into(), colidx.into(), values)
            .map_err(|e| IoError::Format(format!("invalid CSR in mapped stream: {e}")))?;
        // The kernels that consume this matrix gather B rows in A-column
        // order — effectively random page references. Drop the
        // sequential hint and ask for the whole range up front.
        map.advise(memmap2::Advice::Random).ok();
        map.advise(memmap2::Advice::WillNeed).ok();
        Ok(csr)
    }
}

#[cfg(all(
    feature = "mmap",
    not(all(target_endian = "little", target_pointer_width = "64"))
))]
mod zero_copy {
    use super::*;

    /// Zero-copy loading needs a little-endian 64-bit target (the on-disk
    /// sections are reinterpreted in place); this build always falls back
    /// to the copying reader.
    pub fn map_msb_file(path: impl AsRef<Path>) -> Result<Csr<f64>, IoError> {
        let _ = path.as_ref();
        Err(IoError::Format(
            "zero-copy .msb mapping requires a little-endian 64-bit target".into(),
        ))
    }
}

#[cfg(feature = "mmap")]
pub use zero_copy::map_msb_file;

/// Read an `.msb` file, preferring the zero-copy mmap path when asked
/// (and built with the `mmap` feature): files come back
/// [`MsbBackend::Mmap`] with `Arc`-shared sections; non-mmap builds and
/// unsupported targets silently fall back to the copying reader, which
/// also reports the error for a file the mapped path rejected.
pub fn read_msb_file_auto(
    path: impl AsRef<Path>,
    prefer_mmap: bool,
) -> Result<(Csr<f64>, MsbBackend), IoError> {
    #[cfg(feature = "mmap")]
    if prefer_mmap {
        if let Ok(a) = map_msb_file(&path) {
            return Ok((a, MsbBackend::Mmap));
        }
        // Fall through: the heap reader either loads the file (platform
        // limits) or produces the canonical error for it.
    }
    let _ = prefer_mmap;
    Ok((read_msb_file(path)?, MsbBackend::Heap))
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

    #[test]
    fn value_roundtrip() {
        let a = sample();
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        let b = read_msb(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pattern_roundtrip() {
        let a = sample();
        let mut buf = Vec::new();
        write_msb_pattern(&mut buf, &a.pattern()).unwrap();
        let p = read_msb_pattern(buf.as_slice()).unwrap();
        assert_eq!(p, a.pattern());
        // Reading a pattern stream as values gives 1.0 everywhere, served
        // from the process-wide unit arena (no private 8·nnz buffer).
        let ones = read_msb(buf.as_slice()).unwrap();
        assert!(ones.values().iter().all(|&v| v == 1.0));
        assert!(ones.values_unit_shared());
        assert_eq!(ones.pattern(), a.pattern());
        // A pattern stream is the value stream minus the values section.
        let mut full = Vec::new();
        write_msb(&mut full, &a).unwrap();
        assert_eq!(buf.len(), full.len() - 8 * a.nnz());
    }

    #[test]
    fn pattern_stream_rejects_truncation_and_trailing_bytes() {
        let a = sample_odd();
        let mut buf = Vec::new();
        write_msb_pattern(&mut buf, &a).unwrap();
        // Truncation anywhere in a pattern stream still fails loudly.
        for cut in [0, 10, 39, 40, 56, buf.len() - 1] {
            assert!(
                read_msb(&buf[..cut]).is_err(),
                "accepted truncation at {cut}/{}",
                buf.len()
            );
        }
        // Trailing bytes where a values section would sit are rejected:
        // the header said pattern, so the stream must end after colidx.
        let mut trailing = buf.clone();
        trailing.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(matches!(
            read_msb(trailing.as_slice()),
            Err(IoError::Format(_))
        ));
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let a: Csr<f64> = Csr::empty(5, 7);
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        let b = read_msb(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn header_fields() {
        let a = sample();
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        let h = read_msb_header(&mut buf.as_slice()).unwrap();
        assert_eq!(h.version, MSB_VERSION);
        assert!(!h.is_pattern());
        assert_eq!((h.nrows, h.ncols, h.nnz), (3, 3, 4));
        assert_eq!(buf.len(), 40 + 8 * 4 + 4 * 4 + 8 * 4);
    }

    #[test]
    fn rejects_bad_magic_version_flags() {
        let a = sample();
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_msb(bad.as_slice()), Err(IoError::Format(_))));

        let mut bad = buf.clone();
        bad[4] = 99; // version
        assert!(matches!(read_msb(bad.as_slice()), Err(IoError::Format(_))));

        let mut bad = buf.clone();
        bad[8] = 0xfe; // unknown flags
        assert!(matches!(read_msb(bad.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let a = sample();
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        // Truncation at every section boundary and a few interiors.
        for cut in [0, 10, 39, 40, 50, 72, 80, buf.len() - 1] {
            let r = read_msb(&buf[..cut]);
            assert!(r.is_err(), "accepted truncation at {cut}/{}", buf.len());
        }
    }

    #[test]
    fn rejects_absurd_header_dimensions_without_allocating() {
        // A 40-byte stream whose header declares astronomically large
        // sections must fail with a format error — not a capacity-overflow
        // panic or an OOM attempt (the corrupt-sidecar fallback in
        // load.rs depends on getting an Err back).
        for (nrows, nnz) in [
            (u64::MAX / 2, 4u64),
            (1u64 << 60, 4),
            (4, u64::MAX / 2),
            (4, 1u64 << 60),
        ] {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MSB_MAGIC);
            buf.extend_from_slice(&MSB_VERSION.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&0u32.to_le_bytes());
            buf.extend_from_slice(&nrows.to_le_bytes());
            buf.extend_from_slice(&4u64.to_le_bytes()); // ncols
            buf.extend_from_slice(&nnz.to_le_bytes());
            let r = read_msb(buf.as_slice());
            assert!(
                matches!(r, Err(IoError::Format(_))),
                "nrows={nrows} nnz={nnz}: {r:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let a = sample();
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        buf.push(0);
        assert!(matches!(read_msb(buf.as_slice()), Err(IoError::Format(_))));
    }

    #[test]
    fn rejects_corrupt_structure() {
        let a = sample();
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        // Scramble a rowptr entry (offset 40 + 8 = second entry).
        let mut bad = buf.clone();
        bad[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_msb(bad.as_slice()).is_err());
        // Out-of-bounds column index in the colidx section.
        let colidx_off = 40 + 8 * 4;
        let mut bad = buf.clone();
        bad[colidx_off..colidx_off + 4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_msb(bad.as_slice()).is_err());
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

    #[test]
    fn v2_pad_is_present_iff_nnz_odd() {
        let (even, odd) = (sample(), sample_odd());
        assert_eq!(even.nnz() % 2, 0);
        assert_eq!(odd.nnz() % 2, 1);
        for (a, pad) in [(&even, 0usize), (&odd, 4)] {
            let mut buf = Vec::new();
            write_msb(&mut buf, a).unwrap();
            let h = read_msb_header(&mut buf.as_slice()).unwrap();
            assert_eq!(h.version, MSB_VERSION);
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

    #[test]
    fn v2_rejects_nonzero_padding() {
        let a = sample_odd();
        let mut buf = Vec::new();
        write_msb(&mut buf, &a).unwrap();
        let pad_off = MSB_HEADER_LEN + 8 * (a.nrows() + 1) + 4 * a.nnz();
        buf[pad_off] = 0xab;
        assert!(matches!(read_msb(buf.as_slice()), Err(IoError::Format(_))));
    }

    #[cfg(feature = "mmap")]
    mod mmap {
        use super::*;

        fn msb_file(tag: &str, write: impl FnOnce(&mut Vec<u8>)) -> std::path::PathBuf {
            let dir = std::env::temp_dir().join("mspgemm_io_msb_mmap");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(format!("{tag}.msb"));
            let mut buf = Vec::new();
            write(&mut buf);
            std::fs::write(&path, &buf).unwrap();
            path
        }

        #[test]
        fn mapped_load_is_zero_copy_and_equal() {
            for (tag, a) in [("even", sample()), ("odd", sample_odd())] {
                let path = msb_file(tag, |buf| write_msb(&mut *buf, &a).unwrap());
                let (m, backend) = read_msb_file_auto(&path, true).unwrap();
                assert_eq!(backend, MsbBackend::Mmap, "{tag}");
                assert_eq!(m, a, "{tag}");
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
        fn mapped_pattern_load_has_no_private_values() {
            for (tag, a) in [("pat_even", sample()), ("pat_odd", sample_odd())] {
                let path = msb_file(tag, |buf| write_msb_pattern(&mut *buf, &a).unwrap());
                let m = map_msb_file(&path).unwrap();
                assert_eq!(m.pattern(), a.pattern(), "{tag}");
                assert!(m.values().iter().all(|&v| v == 1.0));
                assert!(m.values_unit_shared(), "{tag}: values from the arena");
                let r = m.storage_report();
                assert_eq!(r.heap_bytes, 0, "{tag}: nothing copied to the heap");
                assert_eq!(r.shared_bytes, 8 * (a.nrows() + 1) + 4 * a.nnz());
                assert_eq!(r.unit_bytes, 8 * a.nnz());
                std::fs::remove_file(&path).ok();
            }
        }

        #[test]
        fn matrix_outlives_everything_but_its_mapping() {
            let a = sample_odd();
            let path = msb_file("alive", |buf| write_msb(&mut *buf, &a).unwrap());
            let m = map_msb_file(&path).unwrap();
            // Derive a pattern (shares rowptr/colidx with the mapping),
            // drop the original, and read through the clone.
            let p = m.pattern();
            drop(m);
            assert_eq!(p.nnz(), a.nnz());
            assert_eq!(p.row_cols(2), a.row_cols(2));
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn version_1_is_rejected_identically_by_both_readers() {
            // Value and pattern streams alike: a valid stream whose
            // version byte says 1 names the version and the way forward.
            let a = sample_odd();
            for pattern in [false, true] {
                let path = msb_file("v1", |buf| {
                    if pattern {
                        write_msb_pattern(&mut *buf, &a).unwrap();
                    } else {
                        write_msb(&mut *buf, &a).unwrap();
                    }
                    buf[4] = 1;
                });
                let message = |e: IoError| match e {
                    IoError::Format(m) => m,
                    other => panic!("expected a format error, got {other:?}"),
                };
                let heap = message(read_msb_file(&path).unwrap_err());
                assert!(heap.contains("version 1"), "{heap}");
                assert!(heap.contains("mxm convert"), "{heap}");
                assert_eq!(message(map_msb_file(&path).unwrap_err()), heap);
                for prefer_mmap in [false, true] {
                    let auto = read_msb_file_auto(&path, prefer_mmap).unwrap_err();
                    assert_eq!(message(auto), heap);
                }
                std::fs::remove_file(&path).ok();
            }
        }

        #[test]
        fn not_preferring_mmap_stays_on_heap() {
            let a = sample();
            let path = msb_file("heap", |buf| write_msb(&mut *buf, &a).unwrap());
            let (m, backend) = read_msb_file_auto(&path, false).unwrap();
            assert_eq!(backend, MsbBackend::Heap);
            assert!(!m.has_shared_storage());
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn mapped_load_rejects_corruption_without_ub() {
            let a = sample_odd();
            let mut good = Vec::new();
            write_msb(&mut good, &a).unwrap();
            // Truncations at every section boundary and interior points.
            for cut in [0, 10, 39, 40, 72, good.len() - 5, good.len() - 1] {
                let path = msb_file("trunc", |buf| buf.extend_from_slice(&good[..cut]));
                assert!(map_msb_file(&path).is_err(), "accepted truncation at {cut}");
            }
            // Trailing garbage.
            let path = msb_file("trail", |buf| {
                buf.extend_from_slice(&good);
                buf.push(0);
            });
            assert!(map_msb_file(&path).is_err());
            // Corrupt interior rowptr (would be an OOB slice if trusted).
            let path = msb_file("rowptr", |buf| {
                buf.extend_from_slice(&good);
                buf[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
            });
            assert!(map_msb_file(&path).is_err());
            // Absurd header dims must fail without huge allocations.
            let path = msb_file("dims", |buf| {
                buf.extend_from_slice(&good);
                buf[32..40].copy_from_slice(&(1u64 << 60).to_le_bytes());
            });
            assert!(map_msb_file(&path).is_err());
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn kernels_run_on_mapped_operands() {
            // End-to-end: an mmap-backed operand flows through the push
            // kernels and fingerprints identically to its heap twin.
            let g = mspgemm_gen::er_symmetric(60, 6, 13);
            let path = msb_file("kernel", |buf| write_msb(&mut *buf, &g).unwrap());
            let mapped = map_msb_file(&path).unwrap();
            assert!(mapped.has_shared_storage());
            use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
            use mspgemm_sparse::semiring::PlusTimesF64;
            let heap_c = masked_mxm_with_opts::<PlusTimesF64, ()>(
                &g.pattern(),
                &g,
                &g,
                Algorithm::Hash,
                MaskMode::Mask,
                Phases::One,
                &ExecOpts::default(),
            )
            .unwrap();
            let map_c = masked_mxm_with_opts::<PlusTimesF64, ()>(
                &mapped.pattern(),
                &mapped,
                &mapped,
                Algorithm::Hash,
                MaskMode::Mask,
                Phases::One,
                &ExecOpts::default(),
            )
            .unwrap();
            assert_eq!(heap_c, map_c);
            assert_eq!(
                mspgemm_harness::csr_fingerprint(&heap_c),
                mspgemm_harness::csr_fingerprint(&map_c)
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mspgemm_io_msb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.msb");
        let a = sample();
        write_msb_file(&path, &a).unwrap();
        let b = read_msb_file(&path).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }
}
