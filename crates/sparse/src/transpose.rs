//! Parallel CSR transpose (`Aᵀ`). The pull-based Inner algorithm needs `B`
//! in column-major order (§4.1), which we represent as `Bᵀ` in CSR.
//!
//! The parallel path splits the output by rows: contiguous blocks of
//! source rows count their columns, the counts summed give the output row
//! lengths, and the output rows (columns of `A`) are cut into contiguous
//! ranges holding about equal entries. Each task owns one range's slice
//! of the output and walks every source row in order, taking the entries
//! that fall in its columns, so every output row ends up sorted by
//! (source) row index and no two tasks write the same memory.

use crate::csr::Csr;
use crate::ops::reduce::col_nnz;
use crate::overlay::Overlay;
use crate::util::{
    exclusive_prefix_sum, par_exclusive_prefix_sum, split_entries, split_ranges, PAR_COUNT_MIN,
};
use crate::Idx;
use rayon::prelude::*;
use std::ops::Range;

/// Transpose `a`. Takes the parallel path when `a` holds at least
/// [`PAR_COUNT_MIN`] entries, no more rows than entries (every task walks
/// every row) and histograms worth their memory; otherwise a sequential
/// counting sort.
pub fn transpose<T: Copy + Send + Sync>(a: &Csr<T>) -> Csr<T> {
    if a.nnz() < PAR_COUNT_MIN || a.nrows() > a.nnz() {
        return transpose_seq(a);
    }
    // Per-block histograms cost `chunks × ncols` words; cap that at ~2× nnz
    // so pathological shapes (hypersparse wide matrices) fall back.
    let mut chunks = rayon::current_num_threads().max(1);
    while chunks > 1 && chunks * a.ncols() > 2 * a.nnz() {
        chunks /= 2;
    }
    if chunks <= 1 {
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
    let rowptr = exclusive_prefix_sum(&col_nnz(a));
    let nnz = a.nnz();
    let mut colidx = vec![0 as Idx; nnz];
    let mut values = Vec::with_capacity(nnz);
    if nnz > 0 {
        values = vec![a.values()[0]; nnz];
    }
    let mut cursor = rowptr.clone();
    for (i, (cols, vals)) in rows(a) {
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

    // Pass 1: per-block column histograms, summed into the row lengths.
    let hists: Vec<Vec<usize>> = split_ranges(m, chunks)
        .par_iter()
        .map(|r| {
            let mut h = vec![0usize; n];
            for &j in &a.colidx()[a.rowptr()[r.start]..a.rowptr()[r.end]] {
                h[j as usize] += 1;
            }
            h
        })
        .collect();
    let mut counts = vec![0usize; n];
    counts.par_iter_mut().enumerate().for_each(|(j, c)| {
        *c = hists.iter().map(|h| h[j]).sum();
    });
    drop(hists);
    let rowptr = par_exclusive_prefix_sum(&counts);

    // Output rows cut where the entries before them first reach `k / chunks`
    // of the total; a column holding more than a share empties a range.
    let mut cuts: Vec<usize> = (0..chunks)
        .map(|k| rowptr.partition_point(|&p| p < k * nnz / chunks))
        .collect();
    cuts.push(n);
    let ranges: Vec<Range<usize>> = cuts.windows(2).map(|w| w[0]..w[1]).collect();

    let mut colidx = vec![0 as Idx; nnz];
    let mut values = if nnz > 0 {
        vec![a.values()[0]; nnz]
    } else {
        Vec::new()
    };
    // Pass 2: each task walks every source row in order and writes the
    // entries in its own columns through cursors it alone holds.
    let outs = split_entries(&mut colidx, &rowptr, &ranges).into_iter();
    let outs = outs.zip(split_entries(&mut values, &rowptr, &ranges));
    let mut tasks: Vec<_> = ranges.iter().zip(outs).collect();
    tasks.par_iter_mut().for_each(|(cr, (out_cols, out_vals))| {
        let base = rowptr[cr.start];
        let mut cursor: Vec<usize> = rowptr[cr.clone()].iter().map(|&p| p - base).collect();
        for (i, (cols, vals)) in rows(a) {
            let s = cols.partition_point(|&j| (j as usize) < cr.start);
            let e = s + cols[s..].partition_point(|&j| (j as usize) < cr.end);
            for (&j, &v) in cols[s..e].iter().zip(&vals[s..e]) {
                let c = &mut cursor[j as usize - cr.start];
                out_cols[*c] = i as Idx;
                out_vals[*c] = v;
                *c += 1;
            }
        }
    });
    Csr::from_parts_unchecked(n, m, rowptr, colidx, values)
}

/// Every row of `a` with its index, its columns and its values. Reads the
/// three sections once, not once per row as [`Csr::row`] does: on a tall
/// hypersparse matrix the walk is nearly all empty rows.
fn rows<T>(a: &Csr<T>) -> impl Iterator<Item = (usize, (&[Idx], &[T]))> {
    let (rowptr, colidx, values) = (a.rowptr(), a.colidx(), a.values());
    let row = |w: &[usize]| (&colidx[w[0]..w[1]], &values[w[0]..w[1]]);
    rowptr.windows(2).map(row).enumerate()
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
