//! The two forms a product's mask comes in: a structural CSR
//! ([`CsrRef::structure`]), read under either [`MaskMode`], or
//! [`BitRows`], a row-major bit matrix read complemented only.
//!
//! Every complement-capable kernel reads a complemented row as bits, one
//! word per 64 columns: a column is masked out when its bit is set. A
//! [`BitRows`] mask hands its rows over as they are; a complemented CSR
//! row is set into one bit row per executor by the driver before the row
//! and cleared after it ([`crate::phases`]), `O(|m_i|)` like marking it
//! in an accumulator. A caller that grows its mask row by row — BC's
//! visited set, one frontier a level — keeps it as bits and never builds
//! a CSR of it.
//!
//! [`MaskMode`]: crate::MaskMode

use mspgemm_sparse::util::PAR_COUNT_MIN;
use mspgemm_sparse::{Csr, CsrRef, Idx};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Whether column `j`'s bit is set in `row` (a row of [`BitRows`], or the
/// driver's bit row).
#[inline(always)]
pub fn bit(row: &[u64], j: Idx) -> bool {
    outside(row, j) == 0
}

/// `1` when column `j`'s bit is clear in `row` — a complemented mask
/// admits `j` — else `0`: the branch-free test of the row entries'
/// filters.
#[inline(always)]
pub(crate) fn outside(row: &[u64], j: Idx) -> usize {
    (((row[j as usize / 64] >> (j % 64)) & 1) ^ 1) as usize
}

/// An `nrows × ncols` pattern as bits, row-major, `⌈ncols/64⌉` words a
/// row; bit `j % 64` of a row's word `j / 64` holds column `j`. A
/// [`Product`](crate::Product) reads it as a complemented mask
/// ([`Product::complement_of`](crate::Product::complement_of)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitRows {
    nrows: usize,
    ncols: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// All bits clear.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        BitRows {
            nrows,
            ncols,
            words: vec![0; nrows * ncols.div_ceil(64)],
        }
    }

    /// Rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Row `i`'s words.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        let w = self.ncols.div_ceil(64);
        &self.words[i * w..(i + 1) * w]
    }

    /// Whether `(i, j)` is set.
    pub fn contains(&self, i: usize, j: Idx) -> bool {
        bit(self.row(i), j)
    }

    /// Set the bit of every entry of `pattern`, a matrix of this shape —
    /// by rows on the pool when it holds [`PAR_COUNT_MIN`] entries.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn insert<T>(&mut self, pattern: &Csr<T>) {
        assert_eq!(
            (pattern.nrows(), pattern.ncols()),
            (self.nrows, self.ncols),
            "a pattern sets the bits of its own shape"
        );
        let pattern = pattern.view().structure();
        let set = |(i, row): (usize, &mut [u64])| {
            for &j in pattern.row_cols(i) {
                row[j as usize / 64] |= 1 << (j % 64);
            }
        };
        let w = self.ncols.div_ceil(64).max(1);
        if pattern.nnz() < PAR_COUNT_MIN {
            self.words.chunks_exact_mut(w).enumerate().for_each(set);
        } else {
            self.words.par_chunks_mut(w).enumerate().for_each(set);
        }
    }

    /// Set bits in row `i`.
    pub fn row_ones(&self, i: usize) -> usize {
        self.row(i).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `Σ weight(j)` over the set columns of row `i`, walking in each
    /// word its set bits or — subtracted from the word's total — its clear
    /// ones, whichever are fewer: a row costs `O(⌈ncols/64⌉ + Σ min(set,
    /// clear))`, so a nearly full row is as cheap as a nearly empty one.
    /// `word_weights` holds the per-word totals, built by the first row
    /// with a mostly set word.
    pub(crate) fn row_weight(
        &self,
        i: usize,
        weight: impl Fn(usize) -> u64,
        word_weights: &OnceLock<Vec<u64>>,
    ) -> u64 {
        let totals = || {
            word_weights.get_or_init(|| {
                (0..self.ncols.div_ceil(64))
                    .map(|x| (64 * x..(64 * x + 64).min(self.ncols)).map(&weight).sum())
                    .collect()
            })
        };
        let mut sum = 0;
        for (x, &w) in self.row(i).iter().enumerate() {
            let (mut walk, set) = if w.count_ones() <= 32 {
                (w, true)
            } else {
                // Clear bits past `ncols` weigh nothing.
                (!w & valid_bits(self.ncols - 64 * x), false)
            };
            let mut part = 0;
            while walk != 0 {
                part += weight(64 * x + walk.trailing_zeros() as usize);
                walk &= walk - 1;
            }
            sum += if set { part } else { totals()[x] - part };
        }
        sum
    }
}

/// The bits of a word whose first `cols` columns exist.
#[inline]
fn valid_bits(cols: usize) -> u64 {
    if cols >= 64 {
        u64::MAX
    } else {
        (1 << cols) - 1
    }
}

/// A product's mask: a structural CSR, or complemented bit rows.
#[derive(Clone, Copy, Debug)]
pub enum MaskRef<'a> {
    /// The mask's structure, read under either mode.
    Csr(CsrRef<'a, ()>),
    /// Bit rows, read complemented only.
    Bits(&'a BitRows),
}

impl MaskRef<'_> {
    /// Rows.
    pub fn nrows(&self) -> usize {
        match self {
            MaskRef::Csr(m) => m.nrows(),
            MaskRef::Bits(m) => m.nrows(),
        }
    }

    /// Columns.
    pub fn ncols(&self) -> usize {
        match self {
            MaskRef::Csr(m) => m.ncols(),
            MaskRef::Bits(m) => m.ncols(),
        }
    }

    /// Entries of row `i`: its length, or its set bits.
    pub fn row_nnz(&self, i: usize) -> usize {
        match self {
            MaskRef::Csr(m) => m.row_nnz(i),
            MaskRef::Bits(m) => m.row_ones(i),
        }
    }

    /// What a pass over rows `0..i` walks: their entries, or their words.
    pub(crate) fn walked(&self, i: usize) -> usize {
        match self {
            MaskRef::Csr(m) => m.rowptr()[i],
            MaskRef::Bits(m) => i * m.ncols().div_ceil(64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_hold_their_own_entries_only() {
        // 70 columns: two words a row, the second holding 6 columns.
        let d: Vec<Vec<Option<()>>> = (0..3)
            .map(|i| (0..70).map(|j| (j % (i + 2) == 0).then_some(())).collect())
            .collect();
        let pattern = Csr::from_dense(&d, 70);
        let mut bits = BitRows::new(3, 70);
        bits.insert(&pattern);
        assert_eq!(bits.row(1).len(), 2);
        for i in 0..3 {
            for j in 0..70 {
                assert_eq!(
                    bits.contains(i, j),
                    pattern.get(i, j).is_some(),
                    "({i}, {j})"
                );
            }
            assert_eq!(bits.row_ones(i), pattern.row_nnz(i));
        }
    }

    #[test]
    fn row_weight_walks_either_side_of_a_word() {
        // Row 0 nearly empty, row 1 nearly full, over 130 columns: both
        // walks, and a last word of two columns.
        let keep = |i: usize, j: usize| {
            if i == 0 {
                j % 29 == 3
            } else {
                !j.is_multiple_of(31)
            }
        };
        let d: Vec<Vec<Option<()>>> = (0..2)
            .map(|i| (0..130).map(|j| keep(i, j).then_some(())).collect())
            .collect();
        let mut bits = BitRows::new(2, 130);
        bits.insert(&Csr::from_dense(&d, 130));
        let weight = |j: usize| (j * j % 17) as u64 + 1;
        let words = OnceLock::new();
        for i in 0..2 {
            let want: u64 = (0..130).filter(|&j| keep(i, j)).map(weight).sum();
            assert_eq!(bits.row_weight(i, weight, &words), want, "row {i}");
        }
        assert!(words.get().is_some(), "row 1 read the word totals");
    }
}
