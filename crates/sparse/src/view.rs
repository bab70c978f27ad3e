//! [`CsrRef`] — the borrowed CSR view every read-only path consumes.
//!
//! A `CsrRef<'a, T>` is the triple of section slices plus dimensions: it is
//! `Copy`, carries no storage, and is what the push/pull kernels, the flop
//! prefix sums, and fingerprinting actually read. [`Csr`] produces one
//! via [`Csr::view`] (and `From<&Csr>`),
//! whatever its backing — owned heap sections or `Arc`-shared views into
//! an mmap'd `.msb` file.
//!
//! Views carry the same invariants as `Csr` and can be validated without
//! taking ownership ([`CsrRef::try_from_parts`]) — the zero-copy loader
//! validates the on-disk sections through this before trusting them.

use crate::csr::validate_pattern;
use crate::{Csr, Idx};
use rayon::prelude::*;

/// A borrowed CSR: dimensions plus the `rowptr`/`colidx`/`values` slices.
///
/// Invariants match [`Csr`]: `rowptr` has `nrows + 1` monotone entries
/// starting at 0 and ending at `colidx.len()`, rows are strictly sorted,
/// columns are in bounds, and `colidx.len() == values.len()`.
pub struct CsrRef<'a, T> {
    nrows: usize,
    ncols: usize,
    rowptr: &'a [usize],
    colidx: &'a [Idx],
    values: &'a [T],
}

impl<'a, T> Clone for CsrRef<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for CsrRef<'a, T> {}

impl<'a, T> CsrRef<'a, T> {
    /// Build a view from raw slices, validating every invariant — the
    /// borrowed counterpart of [`Csr::try_from_parts`].
    ///
    /// # Errors
    /// A message describing the first violated invariant.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: &'a [usize],
        colidx: &'a [Idx],
        values: &'a [T],
    ) -> Result<Self, String> {
        if colidx.len() != values.len() {
            return Err(format!(
                "colidx.len() {} != values.len() {}",
                colidx.len(),
                values.len()
            ));
        }
        validate_pattern(nrows, ncols, rowptr, colidx)?;
        Ok(Self {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        })
    }

    /// Build a view without validation (debug builds still assert). The
    /// caller promises the [`Csr`] invariants hold.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: &'a [usize],
        colidx: &'a [Idx],
        values: &'a [T],
    ) -> Self {
        debug_assert_eq!(colidx.len(), values.len());
        #[cfg(debug_assertions)]
        if let Err(e) = validate_pattern(nrows, ncols, rowptr, colidx) {
            panic!("CsrRef invariant violated: {e}");
        }
        Self {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Construct without any (even debug) validation — for [`Csr`], whose
    /// own construction paths already uphold the invariants. `view()` is
    /// called on kernel hot paths, so it must stay O(1) in every profile.
    pub(crate) fn new_trusted(
        nrows: usize,
        ncols: usize,
        rowptr: &'a [usize],
        colidx: &'a [Idx],
        values: &'a [T],
    ) -> Self {
        Self {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colidx.len()
    }

    /// The row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn rowptr(&self) -> &'a [usize] {
        self.rowptr
    }

    /// All column indices, concatenated row-major.
    #[inline]
    pub fn colidx(&self) -> &'a [Idx] {
        self.colidx
    }

    /// All values, concatenated row-major.
    #[inline]
    pub fn values(&self) -> &'a [T] {
        self.values
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Column indices of row `i` (sorted, duplicate-free).
    #[inline]
    pub fn row_cols(&self, i: usize) -> &'a [Idx] {
        &self.colidx[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &'a [T] {
        &self.values[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// `(colidx, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&'a [Idx], &'a [T]) {
        let r = self.rowptr[i]..self.rowptr[i + 1];
        (&self.colidx[r.clone()], &self.values[r])
    }

    /// Iterate `(row, col, &value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Idx, &'a T)> + 'a {
        let this = *self;
        (0..this.nrows).flat_map(move |i| {
            let (cols, vals) = this.row(i);
            cols.iter().zip(vals).map(move |(&j, v)| (i, j, v))
        })
    }

    /// Look up entry `(i, j)` by binary search within row `i`.
    pub fn get(&self, i: usize, j: Idx) -> Option<&'a T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|p| &vals[p])
    }

    /// `true` iff no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.colidx.is_empty()
    }

    /// The view's structure: its own `rowptr` / `colidx` beside a `&[()]`
    /// of its length, which owns no memory at any length — O(1), no copy.
    pub fn structure(&self) -> CsrRef<'a, ()> {
        let units: &'a [()] = Vec::leak(vec![(); self.nnz()]);
        CsrRef::new_trusted(self.nrows, self.ncols, self.rowptr, self.colidx, units)
    }

    /// Copy the view into an owned heap-backed [`Csr`].
    pub fn to_csr(&self) -> Csr<T>
    where
        T: Clone,
    {
        Csr::from_parts_unchecked(
            self.nrows,
            self.ncols,
            self.rowptr.to_vec(),
            self.colidx.to_vec(),
            self.values.to_vec(),
        )
    }

    /// The number of multiply-add pairs of a push (Gustavson) product
    /// `self·b` — the borrowed counterpart of [`Csr::flops_with`].
    pub fn flops_with<U>(&self, b: CsrRef<'_, U>) -> u64
    where
        T: Sync,
        U: Sync,
    {
        assert_eq!(self.ncols, b.nrows, "flops_with: inner dimensions differ");
        (0..self.nrows)
            .into_par_iter()
            .map(|i| {
                self.row_cols(i)
                    .iter()
                    .map(|&k| b.row_nnz(k as usize) as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// Per-row multiply counts of the push product `self·b` (no 2×
    /// factor) — the complemented one-phase bound's per-row input.
    pub fn row_flops_with<U>(&self, b: CsrRef<'_, U>) -> Vec<u64>
    where
        T: Sync,
        U: Sync,
    {
        assert_eq!(
            self.ncols, b.nrows,
            "row_flops_with: inner dimensions differ"
        );
        (0..self.nrows)
            .into_par_iter()
            .map(|i| {
                self.row_cols(i)
                    .iter()
                    .map(|&k| b.row_nnz(k as usize) as u64)
                    .sum::<u64>()
            })
            .collect()
    }
}

impl<'a, T> From<&'a Csr<T>> for CsrRef<'a, T> {
    fn from(a: &'a Csr<T>) -> Self {
        a.view()
    }
}

impl<'a, T> std::fmt::Debug for CsrRef<'a, T>
where
    T: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CsrRef {}x{} nnz={}", self.nrows, self.ncols, self.nnz())
    }
}

impl<'a, 'b, T: PartialEq, U> PartialEq<CsrRef<'b, U>> for CsrRef<'a, T>
where
    T: PartialEq<U>,
{
    fn eq(&self, other: &CsrRef<'b, U>) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.rowptr == other.rowptr
            && self.colidx == other.colidx
            && self.values == other.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr<f64> {
        Csr::try_from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn view_mirrors_owner() {
        let a = small();
        let v = a.view();
        assert_eq!(v.nrows(), 3);
        assert_eq!(v.ncols(), 3);
        assert_eq!(v.nnz(), 4);
        assert_eq!(v.row_cols(0), &[0, 2]);
        assert_eq!(v.row_vals(2), &[3.0, 4.0]);
        assert_eq!(v.row_nnz(1), 0);
        assert_eq!(v.get(0, 2), Some(&2.0));
        assert_eq!(v.get(0, 1), None);
        assert!(!v.is_empty());
        let entries: Vec<_> = v.iter().map(|(i, j, &x)| (i, j, x)).collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn structure_shares_the_pattern_sections() {
        let a = small();
        let s = a.view().structure();
        assert_eq!(s.to_csr(), a.pattern());
        assert!(std::ptr::eq(s.rowptr(), a.rowptr()));
        assert!(std::ptr::eq(s.colidx(), a.colidx()));
    }

    #[test]
    fn view_validation_matches_owned() {
        assert!(CsrRef::try_from_parts(1, 3, &[0, 2], &[2, 0], &[1.0, 2.0]).is_err());
        assert!(CsrRef::try_from_parts(1, 3, &[0, 2], &[1, 1], &[1.0, 2.0]).is_err());
        assert!(CsrRef::try_from_parts(1, 3, &[0, 1], &[3], &[1.0]).is_err());
        assert!(CsrRef::try_from_parts(2, 2, &[0, 1], &[0], &[1.0]).is_err());
        assert!(CsrRef::try_from_parts(1, 2, &[0, 1], &[0], &[] as &[f64]).is_err());
        assert!(CsrRef::try_from_parts(1, 2, &[0, 1], &[0], &[1.0]).is_ok());
    }

    #[test]
    fn to_csr_roundtrips() {
        let a = small();
        let b = a.view().to_csr();
        assert_eq!(a, b);
        assert!(a.view() == b.view());
    }

    #[test]
    fn view_flops_match_owned() {
        let a = small();
        assert_eq!(a.view().flops_with(a.view()), a.flops_with(&a));
        assert_eq!(a.view().row_flops_with(a.view()), a.row_flops_with(&a));
    }
}
