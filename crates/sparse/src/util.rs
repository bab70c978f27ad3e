//! Small parallel utilities shared by the sparse kernels: prefix sums,
//! row-partitioned output and a disjoint-write slice.
//!
//! A row-parallel pass writes row `i` into the range a prefix sum gives
//! it and drives the rows in contiguous chunks, so each chunk owns one
//! contiguous piece of the output. [`SlackRows::windows`] hands every
//! chunk its piece through `split_at_mut`: a chunk cannot reach another's
//! rows, and a chunk list that does not tile the rows panics at the split
//! instead of overlapping writes. Only transpose's scatter, whose chunks
//! all write into every output row, keeps [`UnsafeSlice`].

use crate::{Csr, Idx};
use rayon::prelude::*;
use std::cell::Cell;
use std::ops::Range;

/// Sequential exclusive prefix sum. Returns a vector of length
/// `counts.len() + 1` where `out[i] = sum(counts[..i])`; `out[len]` is the
/// total.
pub fn exclusive_prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

/// Parallel exclusive prefix sum (two-pass block scan). Matches
/// [`exclusive_prefix_sum`] exactly; worth it only for large inputs, so small
/// inputs fall through to the sequential version.
pub fn par_exclusive_prefix_sum(counts: &[usize]) -> Vec<usize> {
    const SEQ_CUTOFF: usize = 1 << 14;
    let n = counts.len();
    if n <= SEQ_CUTOFF {
        return exclusive_prefix_sum(counts);
    }
    let nchunks = rayon::current_num_threads().max(1) * 4;
    let chunk = n.div_ceil(nchunks);
    // Pass 1: per-chunk totals.
    let totals: Vec<usize> = counts.par_chunks(chunk).map(|c| c.iter().sum()).collect();
    let chunk_offsets = exclusive_prefix_sum(&totals);
    // Pass 2: scan within each chunk, seeded with the chunk offset.
    let mut out = vec![0usize; n + 1];
    out[n] = chunk_offsets[totals.len()];
    // The output region for chunk `ci` is out[ci*chunk .. ci*chunk+len] —
    // disjoint across chunks, so carve it with chunks_mut.
    out[..n]
        .par_chunks_mut(chunk)
        .zip(counts.par_chunks(chunk))
        .enumerate()
        .for_each(|(ci, (out_chunk, in_chunk))| {
            let mut acc = chunk_offsets[ci];
            for (o, &c) in out_chunk.iter_mut().zip(in_chunk) {
                *o = acc;
                acc += c;
            }
        });
    out
}

/// Row-partitioned output under construction: row `i` has room for
/// `bounds[i]` entries at `offsets[i]` of `cols` / `vals` and records in
/// `sizes[i]` how many it wrote. [`windows`](Self::windows) hands the rows
/// to a parallel pass, [`into_csr`](Self::into_csr) compacts them.
pub struct SlackRows<T> {
    offsets: Vec<usize>,
    cols: Vec<Idx>,
    vals: Vec<T>,
    sizes: Vec<usize>,
    /// What fresh slots hold, kept for the compacted copy: a zero `fill`
    /// allocates zeroed pages instead of writing every slot.
    fill: T,
}

impl<T: Copy + Send + Sync> SlackRows<T> {
    /// Room for `bounds[i]` entries in row `i`, every slot `fill`.
    pub fn new(bounds: &[usize], fill: T) -> Self {
        let offsets = par_exclusive_prefix_sum(bounds);
        let cap = offsets[bounds.len()];
        let (cols, vals, sizes) = (vec![0; cap], vec![fill; cap], vec![0; bounds.len()]);
        Self {
            offsets,
            cols,
            vals,
            sizes,
            fill,
        }
    }

    /// The rows split among `chunks`: window `k` holds rows `chunks[k]`,
    /// their entries and their sizes, each split off with `split_at_mut`.
    ///
    /// # Panics
    /// If `chunks` do not tile the rows in order.
    pub fn windows(&mut self, chunks: &[Range<usize>]) -> Vec<RowWindow<'_, T>> {
        let offsets = &self.offsets;
        let ends = || chunks.iter().map(|r| offsets[r.end]);
        let sizes = split_rows(&mut self.sizes, chunks);
        let out = split_at_ends(&mut self.cols, ends()).into_iter();
        let out = out.zip(split_at_ends(&mut self.vals, ends()));
        (chunks.iter().zip(out).zip(sizes))
            .map(|((r, (cols, vals)), sizes)| RowWindow {
                rows: r.clone(),
                offsets: &offsets[r.start..=r.end],
                cols,
                vals,
                sizes,
            })
            .collect()
    }

    /// The first `sizes[i]` entries of every row, as a tight CSR with
    /// `ncols` columns; rows must be sorted.
    ///
    /// # Panics
    /// If a row's size exceeds its room.
    pub fn into_csr(self, ncols: usize) -> Csr<T> {
        let nrows = self.sizes.len();
        let rooms = self.offsets.windows(2).map(|o| o[1] - o[0]);
        let nnz = rooms.zip(&self.sizes).fold(0, |nnz, (room, &n)| {
            assert!(n <= room, "a row wrote {n} entries into room for {room}");
            nnz + n
        });
        // Every row filled its room: the buffers are already tight.
        if nnz == self.cols.len() {
            return Csr::from_parts_unchecked(nrows, ncols, self.offsets, self.cols, self.vals);
        }
        let mut tight = SlackRows::new(&self.sizes, self.fill);
        tight
            .windows(&row_split(nrows))
            .par_iter_mut()
            .with_max_len(1)
            .for_each(|w| {
                for (i, c, v, size) in w.rows_mut() {
                    let src = self.offsets[i]..self.offsets[i] + c.len();
                    c.copy_from_slice(&self.cols[src.clone()]);
                    v.copy_from_slice(&self.vals[src]);
                    *size = c.len();
                }
            });
        tight.into_csr(ncols)
    }
}

/// One chunk's share of row-partitioned output: its rows, their ranges
/// `offsets[i]..offsets[i + 1]` of `cols` / `vals`, and their slots of the
/// per-row `sizes`. Built by [`SlackRows::windows`].
pub struct RowWindow<'a, T> {
    rows: Range<usize>,
    /// `offsets[rows.start..=rows.end]`.
    offsets: &'a [usize],
    cols: &'a mut [Idx],
    vals: &'a mut [T],
    sizes: &'a mut [usize],
}

impl<T> RowWindow<'_, T> {
    /// Each row of the window in order: its index, its output range and
    /// its size slot.
    ///
    /// # Panics
    /// If the offsets decrease inside the window.
    pub fn rows_mut(
        &mut self,
    ) -> impl Iterator<Item = (usize, &mut [Idx], &mut [T], &mut usize)> + '_ {
        let (mut cols, mut vals) = (&mut *self.cols, &mut *self.vals);
        let rows = self.rows.clone().zip(self.offsets.windows(2));
        rows.zip(self.sizes.iter_mut()).map(move |((i, o), size)| {
            let len = o[1].checked_sub(o[0]).expect("row offsets decrease");
            let (c, v);
            (c, cols) = std::mem::take(&mut cols).split_at_mut(len);
            (v, vals) = std::mem::take(&mut vals).split_at_mut(len);
            (i, c, v, size)
        })
    }
}

/// Split a per-row array among `chunks`: piece `k` is `data[chunks[k]]`.
///
/// # Panics
/// If `chunks` do not tile `0..data.len()` in order.
pub fn split_rows<'a, T>(data: &'a mut [T], chunks: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut at = 0;
    for r in chunks {
        assert!(
            r.start == at && r.start <= r.end,
            "row chunk {r:?} does not start where the last ended (row {at})"
        );
        at = r.end;
    }
    split_at_ends(data, chunks.iter().map(|r| r.end))
}

/// Consecutive windows of `data` ending at `ends`; the last must end at
/// `data.len()`.
fn split_at_ends<T>(mut rest: &mut [T], ends: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    let mut at = 0;
    let out = ends
        .map(|end| {
            let len = end.checked_sub(at).expect("row offsets decrease");
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            (rest, at) = (tail, end);
            head
        })
        .collect();
    assert!(rest.is_empty(), "rows or offsets end short of the output");
    out
}

/// The chunk list of this crate's own row passes: a few contiguous chunks
/// per thread, each claimed as a unit.
pub(crate) fn row_split(nrows: usize) -> Vec<Range<usize>> {
    split_ranges(nrows, rayon::current_num_threads().max(1) * 4)
}

/// A shared slice for concurrent writes to *disjoint* indices in an
/// order no contiguous split can express — transpose's scatter, where
/// every chunk of source rows writes into every output row.
pub struct UnsafeSlice<'a, T> {
    data: &'a [Cell<T>],
}

// SAFETY: the only access through a shared `UnsafeSlice` is `write`, whose
// contract forbids two threads touching one index; writes to distinct
// `Cell`s touch disjoint memory, so sharing the wrapper races on nothing.
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap a mutable slice for disjoint concurrent writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            data: Cell::from_mut(slice).as_slice_of_cells(),
        }
    }

    /// Write `value` at `idx`.
    ///
    /// # Safety
    /// No other thread may access `idx` while the slice is shared.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        self.data[idx].set(value);
    }
}

/// Splits `0..n` into at most `max_parts` contiguous ranges of near-equal
/// length. Used for chunked parallel passes that need per-chunk scratch.
pub fn split_ranges(n: usize, max_parts: usize) -> Vec<Range<usize>> {
    if n == 0 || max_parts == 0 {
        return vec![];
    }
    let parts = max_parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_empty() {
        assert_eq!(exclusive_prefix_sum(&[]), vec![0]);
        assert_eq!(par_exclusive_prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn prefix_sum_basic() {
        assert_eq!(exclusive_prefix_sum(&[3, 0, 2, 5]), vec![0, 3, 3, 5, 10]);
    }

    #[test]
    fn prefix_sum_par_matches_seq() {
        let counts: Vec<usize> = (0..100_000).map(|i| (i * 31 + 7) % 13).collect();
        assert_eq!(
            par_exclusive_prefix_sum(&counts),
            exclusive_prefix_sum(&counts)
        );
    }

    /// Writes every row's index into its range through the windows and
    /// its length into `sizes`; returns `(cols, sizes)`.
    fn fill_through_windows(offsets: &[usize], chunks: &[Range<usize>]) -> (Vec<Idx>, Vec<usize>) {
        let nrows = offsets.len() - 1;
        let mut out = SlackRows {
            offsets: offsets.to_vec(),
            cols: vec![Idx::MAX; offsets[nrows]],
            vals: vec![(); offsets[nrows]],
            sizes: vec![usize::MAX; nrows],
            fill: (),
        };
        let mut windows = out.windows(chunks);
        assert_eq!(windows.len(), chunks.len());
        for w in &mut windows {
            for (i, c, _, size) in w.rows_mut() {
                c.fill(i as Idx);
                *size = c.len();
            }
        }
        (out.cols, out.sizes)
    }

    #[test]
    fn row_windows_tile_the_output() {
        // Rows 1 and 4 are empty, and so is the second chunk.
        let lens = [2, 0, 3, 1, 0, 2];
        let offsets = exclusive_prefix_sum(&lens);
        let (cols, sizes) = fill_through_windows(&offsets, &[0..2, 2..2, 2..5, 5..6]);
        let want: Vec<Idx> = (0..6).flat_map(|i| vec![i as Idx; lens[i]]).collect();
        assert_eq!((cols, sizes), (want, lens.to_vec()));
        // Empty rows only, and no rows at all.
        let (cols, sizes) = fill_through_windows(&[0, 0, 0], &[0..1, 1..2]);
        assert_eq!((cols, sizes), (vec![], vec![0, 0]));
        assert_eq!(fill_through_windows(&[0], &[]), (vec![], vec![]));
    }

    #[test]
    #[should_panic(expected = "does not start where the last ended")]
    fn row_windows_reject_a_boundary_off_by_one() {
        let offsets = exclusive_prefix_sum(&[1, 1, 1, 1]);
        fill_through_windows(&offsets, &[0..2, 1..4]);
    }

    #[test]
    #[should_panic(expected = "row offsets decrease")]
    fn row_windows_reject_offsets_decreasing_at_a_boundary() {
        fill_through_windows(&[0, 2, 5, 4, 6], &[0..2, 2..3, 3..4]);
    }

    #[test]
    #[should_panic(expected = "row offsets decrease")]
    fn row_windows_reject_offsets_decreasing_inside_a_window() {
        fill_through_windows(&[0, 3, 2, 4, 6], &[0..3, 3..4]);
    }

    #[test]
    fn unsafe_slice_disjoint_writes() {
        // Interleaved like transpose's scatter: part `t` writes every
        // index `i ≡ t (mod 7)`.
        let mut buf = vec![0u64; 1000];
        let shared = UnsafeSlice::new(&mut buf);
        (0..7usize).into_par_iter().for_each(|t| {
            for i in (t..1000).step_by(7) {
                // SAFETY: index `i` belongs to part `i % 7` alone.
                unsafe { shared.write(i, i as u64 * 2) };
            }
        });
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64 * 2));
    }

    #[test]
    fn split_ranges_covers_all() {
        for n in [0usize, 1, 5, 17, 100] {
            for parts in [1usize, 2, 3, 8, 64] {
                let rs = split_ranges(n, parts);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                let mut prev_end = 0;
                for r in &rs {
                    assert_eq!(r.start, prev_end);
                    assert!(!r.is_empty());
                    prev_end = r.end;
                }
            }
        }
    }

    #[test]
    fn split_ranges_balanced() {
        let rs = split_ranges(10, 3);
        let lens: Vec<usize> = rs.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![4, 3, 3]);
    }
}
