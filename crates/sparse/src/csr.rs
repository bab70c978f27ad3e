//! Compressed Sparse Row storage — the format used by every algorithm in the
//! paper (§2.1). Column indices are kept **sorted within each row**; the MCA,
//! Heap and Inner kernels rely on this invariant and every kernel in this
//! workspace preserves it.

use crate::storage::Storage;
use crate::util::UnsafeSlice;
use crate::view::CsrRef;
use crate::Idx;
use rayon::prelude::*;

/// A sparse matrix in CSR form.
///
/// * `rowptr` has `nrows + 1` entries; row `i` occupies
///   `colidx[rowptr[i]..rowptr[i+1]]` / `values[..]`.
/// * Column indices are strictly increasing within each row (no duplicates).
/// * `T = ()` gives a pattern-only matrix (e.g. a structural mask; §2 notes
///   masked SpGEMM never reads mask values).
///
/// Each section is a [`Storage`] — owned heap vectors on every
/// construction path, or `Arc`-shared views (e.g. into an mmap'd `.msb`
/// file) via [`Csr::try_from_storage`]. Backing is invisible to readers:
/// accessors return plain slices, equality and fingerprints compare
/// content, and the mutation entry points copy shared sections to the
/// heap first. Read-only consumers borrow the whole matrix as a
/// [`CsrRef`] via [`Csr::view`].
#[derive(Clone)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    rowptr: Storage<usize>,
    colidx: Storage<Idx>,
    values: Storage<T>,
}

/// Content equality — backing (heap vs shared/mmap) is invisible.
impl<T: PartialEq> PartialEq for Csr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.rowptr.as_slice() == other.rowptr.as_slice()
            && self.colidx.as_slice() == other.colidx.as_slice()
            && self.values.as_slice() == other.values.as_slice()
    }
}

/// Byte totals of a matrix's sections split by backing — the raw material
/// of the serving layer's resident-memory stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageReport {
    /// Bytes in heap-owned sections.
    pub heap_bytes: usize,
    /// Bytes in shared (e.g. mmap-backed) sections, excluding the unit
    /// arena.
    pub shared_bytes: usize,
    /// Bytes of values served by the process-wide unit arena
    /// ([`crate::storage::shared_ones`]) — resident once per process,
    /// not per matrix, so residency sums should not count them per
    /// dataset.
    pub unit_bytes: usize,
}

impl<T> Csr<T> {
    /// An `nrows × ncols` matrix with no stored entries.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1].into(),
            colidx: Vec::new().into(),
            values: Vec::new().into(),
        }
    }

    /// Build from raw parts, validating every invariant.
    ///
    /// # Errors
    /// Returns a message describing the first violated invariant
    /// (lengths, monotone rowptr, column bounds, strict sortedness).
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<Idx>,
        values: Vec<T>,
    ) -> Result<Self, String> {
        if colidx.len() != values.len() {
            return Err(format!(
                "colidx.len() {} != values.len() {}",
                colidx.len(),
                values.len()
            ));
        }
        validate_pattern(nrows, ncols, &rowptr, &colidx)?;
        Ok(Self {
            nrows,
            ncols,
            rowptr: rowptr.into(),
            colidx: colidx.into(),
            values: values.into(),
        })
    }

    /// Build from already-backed sections ([`Storage::Owned`] or
    /// [`Storage::Shared`]), validating every invariant — the entry point
    /// of the zero-copy `.msb` loader, which passes `Shared` sections
    /// viewing an mmap kept alive by their owner `Arc`.
    ///
    /// # Errors
    /// Returns a message describing the first violated invariant.
    pub fn try_from_storage(
        nrows: usize,
        ncols: usize,
        rowptr: Storage<usize>,
        colidx: Storage<Idx>,
        values: Storage<T>,
    ) -> Result<Self, String> {
        if colidx.len() != values.len() {
            return Err(format!(
                "colidx.len() {} != values.len() {}",
                colidx.len(),
                values.len()
            ));
        }
        validate_pattern(nrows, ncols, &rowptr, &colidx)?;
        Ok(Self {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        })
    }

    /// Borrow the whole matrix as a [`CsrRef`] — the view type every
    /// read-only kernel path consumes.
    #[inline]
    pub fn view(&self) -> CsrRef<'_, T> {
        CsrRef::new_trusted(
            self.nrows,
            self.ncols,
            self.rowptr.as_slice(),
            self.colidx.as_slice(),
            self.values.as_slice(),
        )
    }

    /// Whether any section is [`Storage::Shared`] (e.g. mmap-backed).
    pub fn has_shared_storage(&self) -> bool {
        self.rowptr.is_shared() || self.colidx.is_shared() || self.values.is_shared()
    }

    /// Per-backing byte totals of the three sections. The categories are
    /// disjoint: a section is heap-owned, shared (mmap etc.), or a view
    /// of the process-wide unit arena.
    pub fn storage_report(&self) -> StorageReport {
        let mut r = StorageReport::default();
        let mut add = |st: (bool, bool), bytes: usize| match st {
            (true, _) => r.unit_bytes += bytes,
            (_, true) => r.shared_bytes += bytes,
            _ => r.heap_bytes += bytes,
        };
        add(
            (self.rowptr.is_unit_arena(), self.rowptr.is_shared()),
            std::mem::size_of_val(self.rowptr.as_slice()),
        );
        add(
            (self.colidx.is_unit_arena(), self.colidx.is_shared()),
            std::mem::size_of_val(self.colidx.as_slice()),
        );
        add(
            (self.values.is_unit_arena(), self.values.is_shared()),
            std::mem::size_of_val(self.values.as_slice()),
        );
        r
    }

    /// Build from raw parts without validation (debug builds still assert).
    ///
    /// The caller promises the [`Csr`] invariants hold. All internal kernels
    /// construct output through this after producing sorted disjoint rows.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colidx: Vec<Idx>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(colidx.len(), values.len());
        #[cfg(debug_assertions)]
        if let Err(e) = validate_pattern(nrows, ncols, &rowptr, &colidx) {
            panic!("Csr invariant violated: {e}");
        }
        Self {
            nrows,
            ncols,
            rowptr: rowptr.into(),
            colidx: colidx.into(),
            values: values.into(),
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
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// All column indices, concatenated row-major.
    #[inline]
    pub fn colidx(&self) -> &[Idx] {
        &self.colidx
    }

    /// All values, concatenated row-major.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to values (pattern is fixed, values may be edited).
    /// A shared-backed values section is copied to the heap first
    /// (copy-on-write — mapped backings are immutable).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T]
    where
        T: Clone,
    {
        self.values.make_mut()
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.rowptr[i + 1] - self.rowptr[i]
    }

    /// Column indices of row `i` (sorted, duplicate-free).
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[Idx] {
        &self.colidx[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_vals(&self, i: usize) -> &[T] {
        &self.values[self.rowptr[i]..self.rowptr[i + 1]]
    }

    /// `(colidx, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[Idx], &[T]) {
        let r = self.rowptr[i]..self.rowptr[i + 1];
        (&self.colidx[r.clone()], &self.values[r])
    }

    /// Iterate `(row, col, &value)` over all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Idx, &T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, v)| (i, j, v))
        })
    }

    /// Look up entry `(i, j)` by binary search within row `i`.
    pub fn get(&self, i: usize, j: Idx) -> Option<&T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|p| &vals[p])
    }

    /// `true` iff no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.colidx.is_empty()
    }

    /// Map values (pattern preserved). The `rowptr`/`colidx` sections are
    /// cloned as storage — for a shared-backed matrix the result shares
    /// them (an mmap-backed matrix's pattern mask copies nothing).
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr: self.rowptr.clone(),
            colidx: self.colidx.clone(),
            values: self.values.iter().map(f).collect::<Vec<U>>().into(),
        }
    }

    /// Drop the values, keeping the pattern only.
    pub fn pattern(&self) -> Csr<()> {
        self.map(|_| ())
    }

    /// Out-degree (stored entries) of each row.
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.nrows).map(|i| self.row_nnz(i)).collect()
    }

    /// The number of multiply-add pairs a push (Gustavson) product `self·b`
    /// performs, per the paper's flops(·) notation:
    /// `flops = Σ_{A_ik≠0} nnz(B_k*)`. Multiply by 2 for FLOP counts.
    pub fn flops_with<U>(&self, b: &Csr<U>) -> u64
    where
        T: Sync,
        U: Sync,
    {
        self.view().flops_with(b.view())
    }

    /// [`Csr::flops_with`] of `A·b` when the left operand is at hand as
    /// `self = Aᵀ`: column `k` of `A` is row `k` here, so
    /// `flops = Σ_k nnz(Aᵀ_k*)·nnz(B_k*)` — O(rows) over the two row
    /// pointers, no pass over the entries.
    pub fn transposed_flops_with<U>(&self, b: &Csr<U>) -> u64 {
        assert_eq!(
            self.nrows, b.nrows,
            "transposed_flops_with: inner dimensions differ"
        );
        (0..self.nrows)
            .map(|k| (self.row_nnz(k) * b.row_nnz(k)) as u64)
            .sum()
    }

    /// Per-row multiply counts of the push product `self·b` (no 2× factor).
    pub fn row_flops_with<U>(&self, b: &Csr<U>) -> Vec<u64>
    where
        T: Sync,
        U: Sync,
    {
        self.view().row_flops_with(b.view())
    }
}

impl Csr<f64> {
    /// `true` iff the values section is a view of the process-wide unit
    /// arena ([`crate::storage::shared_ones`]) — the signature of a
    /// pattern-loaded matrix, whose unit values cost the process one
    /// shared buffer instead of a private `8·nnz`-byte copy.
    pub fn values_unit_shared(&self) -> bool {
        self.values.is_unit_arena()
    }

    /// Rebind the values section to the shared unit arena,
    /// unconditionally discarding the current values (they become `1.0`
    /// everywhere). Pattern-izes a weighted matrix in place; the private
    /// values buffer is freed (or its mmap section released).
    pub fn set_unit_values(&mut self) {
        self.values = crate::storage::shared_ones(self.nnz()).into();
    }

    /// Rebind the values section to the shared unit arena **iff** every
    /// stored value is already `1.0` (lossless, unlike
    /// [`Csr::set_unit_values`]). Returns whether the values are now
    /// arena-backed. Derived unit-valued matrices (adjacency, transposed
    /// patterns) call this to drop their private all-ones buffers.
    pub fn share_unit_values(&mut self) -> bool {
        if self.values.is_unit_arena() {
            return true;
        }
        if self.values.as_slice().iter().all(|&v| v == 1.0) {
            self.set_unit_values();
            return true;
        }
        false
    }
}

impl<T: Copy + Send + Sync> Csr<T> {
    /// Dense `nrows × ncols` row-major materialization (`None` = structural
    /// zero). Test/reference helper; not for large matrices.
    pub fn to_dense(&self) -> Vec<Vec<Option<T>>> {
        let mut d = vec![vec![None; self.ncols]; self.nrows];
        for (i, j, v) in self.iter() {
            d[i][j as usize] = Some(*v);
        }
        d
    }

    /// Build from a dense `Option<T>` grid (test/reference helper).
    pub fn from_dense(dense: &[Vec<Option<T>>], ncols: usize) -> Self {
        let nrows = dense.len();
        let mut rowptr = Vec::with_capacity(nrows + 1);
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        rowptr.push(0);
        for row in dense {
            assert!(row.len() <= ncols, "dense row wider than ncols");
            for (j, v) in row.iter().enumerate() {
                if let Some(v) = v {
                    colidx.push(j as Idx);
                    values.push(*v);
                }
            }
            rowptr.push(colidx.len());
        }
        Self {
            nrows,
            ncols,
            rowptr: rowptr.into(),
            colidx: colidx.into(),
            values: values.into(),
        }
    }

    /// Identity-pattern square matrix with `value` on the diagonal.
    pub fn diagonal(n: usize, value: T) -> Self {
        Self {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect::<Vec<_>>().into(),
            colidx: (0..n as Idx).collect::<Vec<_>>().into(),
            values: vec![value; n].into(),
        }
    }

    /// Assemble a CSR from per-row closures run in parallel.
    ///
    /// `count(i)` returns an upper bound for row `i`'s entry count;
    /// `fill(i, cols, vals)` writes row `i` into the provided scratch slices
    /// (of length `count(i)`) and returns how many entries it produced.
    /// Rows are then compacted into a tight CSR. Rows must be produced
    /// sorted. This is the shared machinery behind most row-parallel
    /// kernels, including the one-phase masked SpGEMM driver (§6).
    pub fn from_row_fill<C, F>(nrows: usize, ncols: usize, count: C, fill: F, default: T) -> Self
    where
        C: Fn(usize) -> usize + Sync,
        F: Fn(usize, &mut [Idx], &mut [T]) -> usize + Sync,
        T: Send,
    {
        let bounds: Vec<usize> = (0..nrows).into_par_iter().map(&count).collect();
        let offsets = crate::util::par_exclusive_prefix_sum(&bounds);
        let cap = offsets[nrows];
        let mut tmp_cols = vec![0 as Idx; cap];
        let mut tmp_vals = vec![default; cap];
        let mut sizes = vec![0usize; nrows];
        {
            let cols_w = UnsafeSlice::new(&mut tmp_cols);
            let vals_w = UnsafeSlice::new(&mut tmp_vals);
            sizes.par_iter_mut().enumerate().for_each(|(i, size)| {
                let (start, len) = (offsets[i], bounds[i]);
                // SAFETY: offsets come from a prefix sum of bounds, so the
                // per-row ranges are pairwise disjoint.
                let c = unsafe { cols_w.slice_mut(start, len) };
                let v = unsafe { vals_w.slice_mut(start, len) };
                let n = fill(i, c, v);
                debug_assert!(n <= len, "row {i} overflowed its bound");
                *size = n;
            });
        }
        Self::compact(nrows, ncols, &offsets, &sizes, tmp_cols, tmp_vals, default)
    }

    /// Compact slack per-row buffers (row `i` at `offsets[i]`, `sizes[i]`
    /// valid entries) into a tight CSR. Parallel copy into disjoint ranges.
    /// `fill` initializes the destination before the copy (cheap memset-like
    /// pass; avoids unsound uninitialized vectors).
    #[allow(clippy::too_many_arguments)]
    pub fn compact(
        nrows: usize,
        ncols: usize,
        offsets: &[usize],
        sizes: &[usize],
        tmp_cols: Vec<Idx>,
        tmp_vals: Vec<T>,
        fill: T,
    ) -> Self {
        let rowptr = crate::util::par_exclusive_prefix_sum(sizes);
        let nnz = rowptr[nrows];
        // Fast path: bounds were exact, buffers are already tight.
        if nnz == tmp_cols.len() {
            return Self {
                nrows,
                ncols,
                rowptr: rowptr.into(),
                colidx: tmp_cols.into(),
                values: tmp_vals.into(),
            };
        }
        let mut colidx = vec![0 as Idx; nnz];
        let mut values = vec![fill; nnz];
        {
            let cw = UnsafeSlice::new(&mut colidx);
            let vw = UnsafeSlice::new(&mut values);
            (0..nrows).into_par_iter().for_each(|i| {
                let n = sizes[i];
                let src = offsets[i];
                let dst = rowptr[i];
                // SAFETY: destination ranges disjoint by prefix sum.
                let c = unsafe { cw.slice_mut(dst, n) };
                let v = unsafe { vw.slice_mut(dst, n) };
                c.copy_from_slice(&tmp_cols[src..src + n]);
                v.copy_from_slice(&tmp_vals[src..src + n]);
            });
        }
        Self {
            nrows,
            ncols,
            rowptr: rowptr.into(),
            colidx: colidx.into(),
            values: values.into(),
        }
    }
}

/// Validate the structural (pattern) invariants of a CSR triple (shared
/// with [`CsrRef`]'s view validation).
pub(crate) fn validate_pattern(
    nrows: usize,
    ncols: usize,
    rowptr: &[usize],
    colidx: &[Idx],
) -> Result<(), String> {
    if rowptr.len() != nrows + 1 {
        return Err(format!(
            "rowptr length {} != nrows+1 = {}",
            rowptr.len(),
            nrows + 1
        ));
    }
    if rowptr[0] != 0 {
        return Err("rowptr[0] must be 0".into());
    }
    if *rowptr.last().unwrap() != colidx.len() {
        return Err(format!(
            "rowptr[last] = {} != colidx.len() = {}",
            rowptr.last().unwrap(),
            colidx.len()
        ));
    }
    for i in 0..nrows {
        if rowptr[i] > rowptr[i + 1] {
            return Err(format!("rowptr not monotone at row {i}"));
        }
        // Bounds-check before slicing: a corrupt interior rowptr entry can
        // exceed colidx.len() even when rowptr[last] is consistent.
        if rowptr[i + 1] > colidx.len() {
            return Err(format!(
                "rowptr[{}] = {} exceeds colidx.len() = {}",
                i + 1,
                rowptr[i + 1],
                colidx.len()
            ));
        }
        let row = &colidx[rowptr[i]..rowptr[i + 1]];
        for w in row.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("row {i} not strictly sorted: {} >= {}", w[0], w[1]));
            }
        }
        if let Some(&last) = row.last() {
            if last as usize >= ncols {
                return Err(format!("row {i} has column {last} >= ncols {ncols}"));
            }
        }
    }
    Ok(())
}

impl<T: std::fmt::Debug> std::fmt::Debug for Csr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Csr {}x{} nnz={}", self.nrows, self.ncols, self.nnz())?;
        for i in 0..self.nrows.min(20) {
            let (cols, vals) = self.row(i);
            writeln!(
                f,
                "  row {i}: {:?}",
                cols.iter().zip(vals).collect::<Vec<_>>()
            )?;
        }
        if self.nrows > 20 {
            writeln!(f, "  ... ({} more rows)", self.nrows - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
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
    fn basic_accessors() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.row_cols(0), &[0, 2]);
        assert_eq!(a.row_vals(2), &[3.0, 4.0]);
        assert_eq!(a.row_nnz(1), 0);
        assert_eq!(a.get(0, 2), Some(&2.0));
        assert_eq!(a.get(0, 1), None);
    }

    #[test]
    fn dense_roundtrip() {
        let a = small();
        let d = a.to_dense();
        assert_eq!(d[0][0], Some(1.0));
        assert_eq!(d[1][1], None);
        let b = Csr::from_dense(&d, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn validation_rejects_unsorted() {
        let r = Csr::try_from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(r.is_err());
    }

    #[test]
    fn validation_rejects_duplicates() {
        let r = Csr::try_from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(r.is_err());
    }

    #[test]
    fn validation_rejects_col_out_of_bounds() {
        let r = Csr::try_from_parts(1, 3, vec![0, 1], vec![3], vec![1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn validation_rejects_bad_rowptr() {
        assert!(Csr::try_from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(Csr::try_from_parts(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        assert!(
            Csr::try_from_parts(1, 2, vec![1, 1], Vec::<Idx>::new(), Vec::<f64>::new()).is_err()
        );
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = small();
        let entries: Vec<(usize, Idx, f64)> = a.iter().map(|(i, j, v)| (i, j, *v)).collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn flops_counts_gustavson_multiplies() {
        let a = small();
        // flops = Σ_{A_ik≠0} nnz(B_k*) with B = A:
        // row0 hits rows {0,2} of B: 2 + 2 = 4; row2 hits rows {0,1}: 2 + 0 = 2.
        assert_eq!(a.flops_with(&a), 6);
        assert_eq!(a.row_flops_with(&a), vec![4, 0, 2]);
        // The same count from the transposed left operand's row lengths.
        assert_eq!(crate::transpose(&a).transposed_flops_with(&a), 6);
    }

    #[test]
    fn diagonal_matrix() {
        let d = Csr::diagonal(4, 7.0f64);
        assert_eq!(d.nnz(), 4);
        for i in 0..4 {
            assert_eq!(d.get(i, i as Idx), Some(&7.0));
        }
    }

    #[test]
    fn from_row_fill_with_slack() {
        // Each row gets a bound of 4 but fills fewer entries.
        let c = Csr::from_row_fill(
            3,
            8,
            |_| 4,
            |i, cols, vals| {
                let n = i + 1;
                for k in 0..n {
                    cols[k] = k as Idx;
                    vals[k] = (i * 10 + k) as f64;
                }
                n
            },
            0.0,
        );
        assert_eq!(c.nnz(), 6);
        assert_eq!(c.row_cols(2), &[0, 1, 2]);
        assert_eq!(c.row_vals(1), &[10.0, 11.0]);
    }

    #[test]
    fn from_row_fill_exact_bounds_fast_path() {
        let c = Csr::from_row_fill(
            4,
            4,
            |_| 1,
            |i, cols, vals| {
                cols[0] = i as Idx;
                vals[0] = 1.0;
                1
            },
            0.0,
        );
        assert_eq!(c.nnz(), 4);
        assert_eq!(c, Csr::diagonal(4, 1.0));
    }

    #[test]
    fn pattern_and_map() {
        let a = small();
        let p = a.pattern();
        assert_eq!(p.nnz(), a.nnz());
        let doubled = a.map(|v| v * 2.0);
        assert_eq!(doubled.get(2, 1), Some(&8.0));
    }

    #[test]
    fn shared_storage_is_invisible_to_readers() {
        use crate::storage::SharedSlice;
        let owned = small();
        let shared = Csr::try_from_storage(
            3,
            3,
            SharedSlice::from_vec(vec![0usize, 2, 2, 4]).into(),
            SharedSlice::from_vec(vec![0 as Idx, 2, 0, 1]).into(),
            SharedSlice::from_vec(vec![1.0, 2.0, 3.0, 4.0]).into(),
        )
        .unwrap();
        assert_eq!(owned, shared);
        assert!(shared.has_shared_storage());
        assert!(!owned.has_shared_storage());
        let r = shared.storage_report();
        assert_eq!(r.heap_bytes, 0);
        assert_eq!(r.shared_bytes, 4 * 8 + 4 * 4 + 4 * 8);
        let r = owned.storage_report();
        assert_eq!(r.shared_bytes, 0);
        assert_eq!(r.heap_bytes, 4 * 8 + 4 * 4 + 4 * 8);
        // Accessors read through the shared backing.
        assert_eq!(shared.row_cols(0), &[0, 2]);
        assert_eq!(shared.get(2, 1), Some(&4.0));
        // Derived matrices share the pattern sections instead of copying.
        let p = shared.pattern();
        assert!(p.has_shared_storage());
        assert_eq!(p.storage_report().heap_bytes, 0, "pattern values are ()");
        // A clone is cheap and still equal.
        assert_eq!(shared.clone(), owned);
    }

    #[test]
    fn shared_storage_validation_rejects_corrupt_sections() {
        use crate::storage::SharedSlice;
        let r = Csr::try_from_storage(
            2,
            2,
            SharedSlice::from_vec(vec![0usize, 3, 1]).into(),
            SharedSlice::from_vec(vec![0 as Idx]).into(),
            SharedSlice::from_vec(vec![1.0]).into(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn values_mut_copies_shared_sections_on_write() {
        use crate::storage::SharedSlice;
        let mut shared = Csr::try_from_storage(
            1,
            2,
            SharedSlice::from_vec(vec![0usize, 2]).into(),
            SharedSlice::from_vec(vec![0 as Idx, 1]).into(),
            SharedSlice::from_vec(vec![1.0, 2.0]).into(),
        )
        .unwrap();
        shared.values_mut()[0] = 9.0;
        assert_eq!(shared.values(), &[9.0, 2.0]);
        // rowptr/colidx stay shared; only values detached.
        assert!(shared.has_shared_storage());
        assert_eq!(shared.storage_report().heap_bytes, 2 * 8);
    }

    #[test]
    fn empty_matrix() {
        let e: Csr<f64> = Csr::empty(5, 7);
        assert_eq!(e.nnz(), 0);
        assert!(e.is_empty());
        assert_eq!(e.row_cols(4), &[] as &[Idx]);
    }
}
