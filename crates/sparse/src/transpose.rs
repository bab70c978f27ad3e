//! Parallel CSR transpose (`Aᵀ`). The pull-based Inner algorithm needs `B`
//! in column-major order (§4.1), which we represent as `Bᵀ` in CSR.
//!
//! The parallel path is a scan-based scatter: contiguous row chunks build
//! per-chunk column histograms; an exclusive scan over the chunks turns
//! each histogram into that chunk's disjoint write cursors; each chunk
//! then scatters its own rows. Because chunk `c` holds strictly smaller source-row indices
//! than chunk `c+1` and scatters them in order, every output row ends up
//! sorted by (source) row index — i.e. the transposed rows are sorted, and
//! the CSR invariant is preserved without a sort pass.

use crate::csr::Csr;
use crate::overlay::Overlay;
use crate::util::{exclusive_prefix_sum, split_ranges, UnsafeSlice, PAR_COUNT_MIN};
use crate::Idx;
use rayon::prelude::*;

/// Transpose `a`. Chooses the parallel scan-based scatter when `a` holds
/// at least [`PAR_COUNT_MIN`] entries and the histogram memory is worth
/// it, otherwise a sequential scatter.
pub fn transpose<T: Copy + Send + Sync>(a: &Csr<T>) -> Csr<T> {
    if a.nnz() < PAR_COUNT_MIN {
        return transpose_seq(a);
    }
    let threads = rayon::current_num_threads().max(1);
    // Per-chunk histograms cost `chunks × ncols` words; cap that at ~2× nnz
    // so pathological shapes (hypersparse wide matrices) fall back.
    let mut chunks = threads;
    while chunks > 1 && chunks * a.ncols() > 2 * a.nnz().max(1) {
        chunks /= 2;
    }
    if chunks <= 1 || a.nrows() < 2 * chunks {
        transpose_seq(a)
    } else {
        transpose_par(a, chunks)
    }
}

/// The batch that carries a held `Aᵀ` forward after `a` changed at
/// `changed`: position `(i, j)` maps to `(j, i)`, and its state is read
/// back from the updated `a` — a stored value is an upsert, an absent
/// entry a delete — so overwrites, repeated positions and deletes of
/// absent entries need no rule of their own. Merging the result into the
/// previous transpose equals [`transpose`] of the updated `a`.
///
/// # Panics
/// If a position is out of bounds for `a`.
pub fn transpose_delta<T: Copy>(a: &Csr<T>, changed: &[(Idx, Idx)]) -> Overlay<T> {
    let mut delta = Overlay::new(a.ncols(), a.nrows());
    for &(i, j) in changed {
        delta.set(j, i, a.get(i as usize, j).copied());
    }
    delta
}

/// Sequential transpose: counting sort by column. O(nnz + nrows + ncols).
pub fn transpose_seq<T: Copy>(a: &Csr<T>) -> Csr<T> {
    let (m, n) = (a.nrows(), a.ncols());
    let mut counts = vec![0usize; n];
    for &j in a.colidx() {
        counts[j as usize] += 1;
    }
    let rowptr = exclusive_prefix_sum(&counts);
    let nnz = a.nnz();
    let mut colidx = vec![0 as Idx; nnz];
    let mut values = Vec::with_capacity(nnz);
    if nnz > 0 {
        values = vec![a.values()[0]; nnz];
    }
    let mut cursor = rowptr.clone();
    for i in 0..m {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            let p = cursor[j as usize];
            colidx[p] = i as Idx;
            values[p] = v;
            cursor[j as usize] += 1;
        }
    }
    Csr::from_parts_unchecked(n, m, rowptr, colidx, values)
}

fn transpose_par<T: Copy + Send + Sync>(a: &Csr<T>, chunks: usize) -> Csr<T> {
    let (m, n) = (a.nrows(), a.ncols());
    let nnz = a.nnz();
    let ranges = split_ranges(m, chunks);

    // Pass 1: per-chunk column histograms.
    let mut cursors: Vec<Vec<usize>> = ranges
        .par_iter()
        .map(|r| {
            let mut h = vec![0usize; n];
            for i in r.clone() {
                for &j in a.row_cols(i) {
                    h[j as usize] += 1;
                }
            }
            h
        })
        .collect();

    // An exclusive scan over the chunks turns each histogram into the
    // chunk's offsets inside every output row; what it leaves in `counts`
    // is the row lengths.
    let mut counts = vec![0usize; n];
    for h in &mut cursors {
        counts
            .par_iter_mut()
            .zip(h.par_iter_mut())
            .for_each(|(acc, cell)| (*acc, *cell) = (*acc + *cell, *acc));
    }
    let rowptr = crate::util::par_exclusive_prefix_sum(&counts);

    let mut colidx = vec![0 as Idx; nnz];
    let mut values = if nnz > 0 {
        vec![a.values()[0]; nnz]
    } else {
        Vec::new()
    };
    {
        let cw = UnsafeSlice::new(&mut colidx);
        let vw = UnsafeSlice::new(&mut values);
        ranges
            .par_iter()
            .zip(cursors.par_iter_mut())
            .for_each(|(r, cursor)| {
                for (c, &start) in cursor.iter_mut().zip(&rowptr) {
                    *c += start;
                }
                for i in r.clone() {
                    let (cols, vals) = a.row(i);
                    for (&j, &v) in cols.iter().zip(vals) {
                        let p = cursor[j as usize];
                        // SAFETY: chunk `c` writes output row `j` only in the
                        // `hist[c][j]` slots from its starting cursor, which
                        // end where chunk `c + 1`'s begin (row `j + 1`'s, for
                        // the last chunk): no two chunks share an index.
                        unsafe {
                            cw.write(p, i as Idx);
                            vw.write(p, v);
                        }
                        cursor[j as usize] += 1;
                    }
                }
            });
    }
    Csr::from_parts_unchecked(n, m, rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nr: usize, nc: usize, seed: u64, density_pct: u64) -> Csr<i64> {
        let mut d = vec![vec![None; nc]; nr];
        let mut s = seed | 1;
        for (i, row) in d.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if s % 100 < density_pct {
                    *cell = Some((i * nc + j) as i64);
                }
            }
        }
        Csr::from_dense(&d, nc)
    }

    fn naive_transpose(a: &Csr<i64>) -> Csr<i64> {
        let mut d = vec![vec![None; a.nrows()]; a.ncols()];
        for (i, j, v) in a.iter() {
            d[j as usize][i] = Some(*v);
        }
        Csr::from_dense(&d, a.nrows())
    }

    #[test]
    fn seq_matches_naive() {
        let a = sample(23, 17, 42, 30);
        assert_eq!(transpose_seq(&a), naive_transpose(&a));
    }

    #[test]
    fn par_matches_naive() {
        let a = sample(200, 150, 7, 10);
        let t = transpose_par(&a, 8);
        assert_eq!(t, naive_transpose(&a));
    }

    #[test]
    fn involution() {
        for seed in [1u64, 99, 12345] {
            let a = sample(64, 80, seed, 15);
            assert_eq!(transpose(&transpose(&a)), a);
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let e: Csr<i64> = Csr::empty(5, 3);
        let t = transpose(&e);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 5);
        assert_eq!(t.nnz(), 0);

        let single = Csr::try_from_parts(1, 1, vec![0, 1], vec![0], vec![9i64]).unwrap();
        assert_eq!(transpose(&single), single);
    }

    #[test]
    fn rectangular_shapes() {
        let wide = sample(4, 1000, 3, 5);
        assert_eq!(transpose(&wide), naive_transpose(&wide));
        let tall = sample(1000, 4, 3, 5);
        assert_eq!(transpose(&tall), naive_transpose(&tall));
    }

    #[test]
    fn delta_carries_a_held_transpose_forward() {
        use crate::overlay::DeltaOp::{Delete, Upsert};
        let a = sample(9, 6, 5, 40);
        let at = transpose(&a);
        let hit = a.iter().next().map(|(i, j, _)| (i as Idx, j)).unwrap();
        let mut absent = (0..9 as Idx)
            .flat_map(|i| (0..6 as Idx).map(move |j| (i, j)))
            .filter(|&(i, j)| a.get(i as usize, j).is_none());
        let [gone, new, undone] = [(); 3].map(|()| absent.next().unwrap());
        let at_pos = |(row, col), val| Upsert { row, col, val };
        let ops = [
            // Overwrite: only the value moves, and the last write wins.
            at_pos(hit, -1),
            at_pos(hit, -2),
            // A delete of an absent entry, an insert, and an insert that
            // the same batch takes back.
            Delete {
                row: gone.0,
                col: gone.1,
            },
            at_pos(new, -3),
            at_pos(undone, -4),
            Delete {
                row: undone.0,
                col: undone.1,
            },
        ];
        let mut batch = Overlay::new(9, 6);
        batch.apply_batch(&ops).unwrap();
        let a1 = batch.merged(a.view());
        let changed: Vec<(Idx, Idx)> = ops.iter().map(|op| op.key()).collect();
        let at1 = transpose_delta(&a1, &changed).merged(at.view());
        assert_eq!(at1, transpose(&a1));
        assert_eq!(at1.get(hit.1 as usize, hit.0), Some(&-2));
        assert_eq!(at1.get(new.1 as usize, new.0), Some(&-3));
        assert_eq!(at1.nnz(), at.nnz() + 1);
    }

    #[test]
    fn transposed_rows_are_sorted() {
        let a = sample(300, 120, 11, 20);
        let t = transpose(&a);
        for i in 0..t.nrows() {
            let cols = t.row_cols(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
        }
    }
}
