//! Coordinate (triplet) format — the assembly format. Generators and the
//! Matrix Market reader produce COO; [`Coo::to_csr`] canonicalizes (sorts,
//! merges duplicates) into [`Csr`].

use crate::csr::Csr;
use crate::util::exclusive_prefix_sum;
use crate::Idx;
use rayon::prelude::*;

/// An unordered bag of `(row, col, value)` triplets.
#[derive(Clone, Debug)]
pub struct Coo<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(Idx, Idx, T)>,
}

impl<T: Copy + Send + Sync> Coo<T> {
    /// An empty triplet bag for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// An empty triplet bag with room for `cap` entries — the streaming
    /// ingestion path (Matrix Market readers, edge-list loaders) knows the
    /// entry count up front and avoids regrowth.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Build directly from a triplet vector.
    pub fn from_entries(nrows: usize, ncols: usize, entries: Vec<(Idx, Idx, T)>) -> Self {
        Self {
            nrows,
            ncols,
            entries,
        }
    }

    /// Reserve room for at least `additional` more triplets.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Append one triplet. Duplicates are allowed; they are merged by
    /// [`Coo::to_csr`]'s combiner.
    pub fn push(&mut self, i: Idx, j: Idx, v: T) {
        debug_assert!((i as usize) < self.nrows && (j as usize) < self.ncols);
        self.entries.push((i, j, v));
    }

    /// Number of (possibly duplicate) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triplets have been added.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Access the raw triplets.
    pub fn entries(&self) -> &[(Idx, Idx, T)] {
        &self.entries
    }

    /// Canonicalize to CSR: bucket by row, sort each row by column, merge
    /// duplicates with `combine`. Row-parallel.
    pub fn to_csr(mut self, combine: impl Fn(T, T) -> T + Sync) -> Csr<T> {
        let nrows = self.nrows;
        if self.entries.is_empty() {
            return Csr::empty(nrows, self.ncols);
        }
        // Bucket triplets by row with a counting sort (stable, O(nnz)).
        let mut counts = vec![0usize; nrows];
        for &(i, _, _) in &self.entries {
            counts[i as usize] += 1;
        }
        let offsets = exclusive_prefix_sum(&counts);
        // counting-sort scatter (sequential: cheap relative to generation)
        let filler = (0 as Idx, self.entries[0].2);
        let mut bucketed: Vec<(Idx, T)> = vec![filler; self.entries.len()];
        let mut cursor = offsets.clone();
        for &(i, j, v) in &self.entries {
            let pos = cursor[i as usize];
            bucketed[pos] = (j, v);
            cursor[i as usize] += 1;
        }
        self.entries.clear();
        self.entries.shrink_to_fit();

        // Sort + dedup each row in parallel; rows are disjoint slices.
        let mut row_slices: Vec<&mut [(Idx, T)]> = Vec::with_capacity(nrows);
        {
            let mut rest = bucketed.as_mut_slice();
            for &len in counts.iter().take(nrows) {
                let (head, tail) = rest.split_at_mut(len);
                row_slices.push(head);
                rest = tail;
            }
        }
        let sizes: Vec<usize> = row_slices
            .par_iter_mut()
            .map(|row| {
                row.sort_unstable_by_key(|&(j, _)| j);
                // In-place merge of duplicate columns.
                let mut w = 0usize;
                for r in 0..row.len() {
                    if w > 0 && row[w - 1].0 == row[r].0 {
                        let merged = combine(row[w - 1].1, row[r].1);
                        row[w - 1].1 = merged;
                    } else {
                        row[w] = row[r];
                        w += 1;
                    }
                }
                w
            })
            .collect();

        let rowptr = exclusive_prefix_sum(&sizes);
        let nnz = rowptr[nrows];
        let mut colidx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for (row, &sz) in row_slices.iter().zip(&sizes) {
            for &(j, v) in &row[..sz] {
                colidx.push(j);
                values.push(v);
            }
        }
        Csr::from_parts_unchecked(nrows, self.ncols, rowptr, colidx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_coo() {
        let c: Coo<f64> = Coo::new(3, 3);
        assert!(c.is_empty());
        let m = c.to_csr(|a, b| a + b);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.nrows(), 3);
    }

    #[test]
    fn duplicates_are_combined() {
        let mut c = Coo::new(2, 4);
        c.push(0, 1, 1.0);
        c.push(0, 1, 2.5);
        c.push(0, 3, 1.0);
        c.push(1, 0, 4.0);
        let m = c.to_csr(|a, b| a + b);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), Some(&3.5));
        assert_eq!(m.get(0, 3), Some(&1.0));
        assert_eq!(m.get(1, 0), Some(&4.0));
    }

    #[test]
    fn rows_come_out_sorted() {
        let mut c = Coo::new(1, 10);
        for j in [7u32, 1, 9, 3, 0] {
            c.push(0, j, j as i64);
        }
        let m = c.to_csr(|a, _| a);
        assert_eq!(m.row_cols(0), &[0, 1, 3, 7, 9]);
        assert_eq!(m.row_vals(0), &[0, 1, 3, 7, 9]);
    }

    #[test]
    fn combine_keeps_first_policy() {
        let mut c = Coo::new(1, 4);
        c.push(0, 2, 10i64);
        c.push(0, 2, 20);
        let m = c.to_csr(|first, _| first);
        assert_eq!(m.get(0, 2), Some(&10));
    }

    #[test]
    fn large_random_roundtrip_matches_dense() {
        // Deterministic pseudo-random triplets; verify against a dense map.
        let (nr, nc) = (37, 53);
        let mut c = Coo::new(nr, nc);
        let mut dense = vec![vec![0i64; nc]; nr];
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % nr;
            let j = (state >> 17) as usize % nc;
            let v = (state % 7) as i64 - 3;
            c.push(i as Idx, j as Idx, v);
            dense[i][j] += v;
        }
        let m = c.to_csr(|a, b| a + b);
        for (i, row) in dense.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                match m.get(i, j as Idx) {
                    Some(&got) => assert_eq!(got, v),
                    None => assert_eq!(v, 0, "missing entry ({i},{j}) should be never-touched"),
                }
            }
        }
    }
}
