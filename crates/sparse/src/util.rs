//! Small parallel utilities shared by the sparse kernels: prefix sums and
//! row-partitioned output.
//!
//! A row-parallel pass writes row `i` into the range a prefix sum gives
//! it and drives the rows in contiguous chunks, so each chunk owns one
//! contiguous piece of the output. [`SlackRows::windows`] hands every
//! chunk its piece through `split_at_mut`: a chunk cannot reach another's
//! rows, and a chunk list that does not tile the rows panics at the split
//! instead of overlapping writes. [`crate::transpose()`] splits its output
//! rows the same way, by [`split_entries`], so no pass in this crate
//! shares a buffer between writers.

use crate::{Csr, Idx};
use rayon::prelude::*;
use std::ops::Range;

/// Entries below which a pass over a matrix stays on the calling thread.
/// `masked_spgemm`'s counting passes make 1–2 ns lookups against a
/// drive's fixed cost of publishing a job to the parked workers and
/// joining it (≈ 1–5 µs back-to-back, ≈ 8–12 µs after an idle, on two
/// threads: `abl_schedule`'s `drive_us`); fitted while a drive also
/// re-read the machine's CPU count (2–3 × 18 µs), so conservative there.
/// [`crate::transpose()`]'s parallel path takes 1.2–4× the sequential
/// one's time under 2¹⁶ entries on two threads (0.8× and 1.3× at
/// 65 k), 0.7–0.9× at 2¹⁷, and 0.5–0.7× from 2.6 × 10⁵ up
/// (`docs/DECISIONS.md`, "Transpose floor" and "Transpose by output rows").
pub const PAR_COUNT_MIN: usize = 1 << 17;

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
}

impl<T: Copy + Send + Sync> SlackRows<T> {
    /// Room for `bounds[i]` entries in row `i`, every slot `fill` (a zero
    /// `fill` allocates zeroed pages instead of writing every slot).
    pub fn new(bounds: &[usize], fill: T) -> Self {
        let offsets = par_exclusive_prefix_sum(bounds);
        let cap = offsets[bounds.len()];
        let (cols, vals, sizes) = (vec![0; cap], vec![fill; cap], vec![0; bounds.len()]);
        Self {
            offsets,
            cols,
            vals,
            sizes,
        }
    }

    /// The rows split among `chunks`: window `k` holds rows `chunks[k]`,
    /// their entries and their sizes, each split off with `split_at_mut`.
    ///
    /// # Panics
    /// If `chunks` do not tile the rows in order.
    pub fn windows(&mut self, chunks: &[Range<usize>]) -> Vec<RowWindow<'_, T>> {
        let offsets = &self.offsets;
        let sizes = split_rows(&mut self.sizes, chunks);
        let out = split_entries(&mut self.cols, offsets, chunks).into_iter();
        let out = out.zip(split_entries(&mut self.vals, offsets, chunks));
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
    /// `ncols` columns; rows must be sorted. Compacts in place: each row
    /// moves left into the room the rows before it left over, and the
    /// buffers are then cut to the entries, so the output costs no memory
    /// beyond the slack it was written into.
    ///
    /// # Panics
    /// If a row's size exceeds its room.
    pub fn into_csr(self, ncols: usize) -> Csr<T> {
        let Self {
            mut offsets,
            mut cols,
            mut vals,
            sizes,
        } = self;
        let nrows = sizes.len();
        // Row `i` lands at `at ≤ offsets[i]`, past every row already moved
        // and before every row still to move; `copy_within` handles its
        // overlap with its own old place. `offsets[i]` becomes its start.
        let mut at = 0;
        for (i, &n) in sizes.iter().enumerate() {
            let (start, room) = (offsets[i], offsets[i + 1] - offsets[i]);
            assert!(n <= room, "a row wrote {n} entries into room for {room}");
            if at != start {
                cols.copy_within(start..start + n, at);
                vals.copy_within(start..start + n, at);
            }
            offsets[i] = at;
            at += n;
        }
        offsets[nrows] = at;
        // Every row filled its room: the buffers are already tight.
        if at < cols.len() {
            cols.truncate(at);
            cols.shrink_to_fit();
            vals.truncate(at);
            vals.shrink_to_fit();
        }
        Csr::from_parts_unchecked(nrows, ncols, offsets, cols, vals)
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
    check_tiling(chunks);
    split_at_ends(data, chunks.iter().map(|r| r.end))
}

/// Split the entries of rows stored at `offsets` (row `i` holds
/// `data[offsets[i]..offsets[i + 1]]`) among `chunks`: piece `k` holds the
/// entries of rows `chunks[k]`.
///
/// # Panics
/// If `chunks` do not tile the rows in order, or `offsets` decrease.
pub fn split_entries<'a, T>(
    data: &'a mut [T],
    offsets: &[usize],
    chunks: &[Range<usize>],
) -> Vec<&'a mut [T]> {
    check_tiling(chunks);
    split_at_ends(data, chunks.iter().map(|r| offsets[r.end]))
}

/// Asserts that `chunks` follow each other from row 0, each starting where
/// the last ended.
fn check_tiling(chunks: &[Range<usize>]) {
    let mut at = 0;
    for r in chunks {
        assert!(
            r.start == at && r.start <= r.end,
            "row chunk {r:?} does not start where the last ended (row {at})"
        );
        at = r.end;
    }
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
