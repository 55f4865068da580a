//! Compressed Sparse Row matrix.

use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::Result;
use std::sync::OnceLock;
use tsv_simt::{run_parts, setup_parts};

/// The `parts + 1` boundaries that cut the rows delimited by `row_ptr`
/// into `parts` bands of whole units of `unit` rows (the last unit may be
/// short) holding about equal entries. Bands are empty where one unit
/// holds several shares.
pub fn row_bands(row_ptr: &[usize], parts: usize, unit: usize) -> Vec<usize> {
    let nrows = row_ptr.len() - 1;
    let (nnz, units) = (row_ptr[nrows], nrows.div_ceil(unit));
    let mut bounds = vec![0usize];
    for k in 1..parts {
        let row = row_ptr.partition_point(|&p| p < nnz * k / parts).min(nrows);
        bounds.push(row.div_ceil(unit).min(units).max(bounds[k - 1]));
    }
    bounds.push(units);
    bounds
}

/// Orders the rows of one band of [`CsrMatrix::from_coo`] by column and
/// sums their duplicates, moving each row left over the slots the rows
/// before it freed. On entry row `i` holds the slots up to `ends[i]`
/// (absolute, the band starting at slot `first_slot`) of `cols`/`vals`, in
/// input order; on return `ends[i]` is its end relative to the band's
/// first slot. Returns the band's entries kept.
fn sort_rows<T: Copy + std::ops::Add<Output = T>>(
    first_slot: usize,
    ends: &mut [usize],
    cols: &mut [u32],
    vals: &mut [T],
) -> usize {
    let (mut start, mut at) = (0, 0);
    let mut row: Vec<(u32, T)> = Vec::new();
    for end in ends {
        let stop = *end - first_slot;
        if cols[start..stop].windows(2).all(|w| w[0] < w[1]) {
            if at != start {
                cols.copy_within(start..stop, at);
                vals.copy_within(start..stop, at);
            }
            at += stop - start;
        } else {
            row.clear();
            row.extend(
                cols[start..stop]
                    .iter()
                    .copied()
                    .zip(vals[start..stop].iter().copied()),
            );
            row.sort_by_key(|&(c, _)| c);
            let row_start = at;
            for &(c, v) in &row {
                if at > row_start && cols[at - 1] == c {
                    vals[at - 1] = vals[at - 1] + v;
                } else {
                    cols[at] = c;
                    vals[at] = v;
                    at += 1;
                }
            }
        }
        *end = at;
        start = stop;
    }
    at
}

/// A sparse matrix in CSR form: `row_ptr` of length `nrows + 1` delimits the
/// column-index/value run of each row.
///
/// Invariants (checked by [`CsrMatrix::from_parts`]):
/// * `row_ptr[0] == 0`, `row_ptr[nrows] == col_idx.len() == vals.len()`,
/// * `row_ptr` is non-decreasing,
/// * every column index is `< ncols`.
///
/// Column indices within a row are kept sorted by every constructor in this
/// crate; [`CsrMatrix::from_parts`] verifies it so downstream binary searches
/// are sound.
#[derive(Debug, Clone)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<T>,
    /// Memo of [`CsrMatrix::pattern_symmetric`]. Sound because no method
    /// takes `&mut self`: the pattern never changes after construction.
    pattern_symmetric: OnceLock<bool>,
}

/// Equality compares the matrix only, never the symmetry memo.
impl<T: PartialEq> PartialEq for CsrMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.vals == other.vals
    }
}

impl<T: Eq> Eq for CsrMatrix<T> {}

impl<T: Copy> CsrMatrix<T> {
    /// Builds a CSR matrix from raw arrays, validating every invariant.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::MalformedPointers {
                what: format!(
                    "row_ptr has length {}, expected nrows + 1 = {}",
                    row_ptr.len(),
                    nrows + 1
                ),
            });
        }
        if col_idx.len() != vals.len() {
            return Err(SparseError::LengthMismatch {
                what: "col_idx/vals of a CSR matrix",
            });
        }
        if row_ptr[0] != 0 || *row_ptr.last().expect("len >= 1") != col_idx.len() {
            return Err(SparseError::MalformedPointers {
                what: "row_ptr must start at 0 and end at nnz".to_string(),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::MalformedPointers {
                    what: "row_ptr must be non-decreasing".to_string(),
                });
            }
        }
        for r in 0..nrows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(SparseError::MalformedPointers {
                        what: format!("row {r} has unsorted or duplicate column indices"),
                    });
                }
            }
            if let Some(&c) = row.last() {
                if c as usize >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c as usize,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            vals,
            pattern_symmetric: OnceLock::new(),
        })
    }

    /// Converts from COO, sorting row-major and summing duplicates.
    ///
    /// One count of the entries per row and a prefix sum give each row its
    /// slots. The rows are then filled in bands of about equal entries,
    /// each band scanning the COO in order and writing its own rows, so
    /// every row holds its entries in input order: a COO whose rows never
    /// decrease is copied band by band instead. A row whose columns
    /// strictly increase is done; any other is sorted stably by column,
    /// with each run of one coordinate summed left to right. That is the
    /// order of a stable `(row, col)` sort, so duplicates are summed in
    /// input order, without a comparison sort over all entries.
    ///
    /// A COO of [`SETUP_SPLIT`](tsv_simt::SETUP_SPLIT) entries or more is
    /// filled in [`setup_parts`] bands on host threads; the result does
    /// not depend on the band count.
    pub fn from_coo(coo: &CooMatrix<T>) -> Self
    where
        T: std::ops::Add<Output = T> + Default + Send + Sync,
    {
        Self::from_coo_in_parts(coo, setup_parts(coo.nnz()))
    }

    /// [`from_coo`](Self::from_coo) in `parts` row bands. Public only so
    /// the workspace's tests can run the split at any part count.
    #[doc(hidden)]
    pub fn from_coo_in_parts(coo: &CooMatrix<T>, parts: usize) -> Self
    where
        T: std::ops::Add<Output = T> + Default + Send + Sync,
    {
        let nrows = coo.nrows();
        let (rows, cols, vals) = (coo.row_indices(), coo.col_indices(), coo.values());
        let nnz = rows.len();
        // Each row's slots, duplicates included, and whether the rows of
        // the input never decrease.
        let mut row_ptr = vec![0usize; nrows + 1];
        let (mut prev, mut sorted) = (0, true);
        for &r in rows {
            row_ptr[r as usize + 1] += 1;
            sorted &= prev <= r;
            prev = r;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }

        // Bands of whole rows of about `nnz / parts` entries each. A band
        // owns its rows' slots and its rows' entries of `row_ptr[1..]`,
        // which it overwrites with each row's end relative to the band's
        // first slot, after its summed duplicates are dropped.
        let bounds = row_bands(&row_ptr, parts.max(1), 1);
        let base: Vec<usize> = bounds.iter().map(|&r| row_ptr[r]).collect();
        let mut col_idx = vec![0u32; nnz];
        let mut out_vals = vec![T::default(); nnz];
        let parts = bounds.len() - 1;
        let mut bands = Vec::with_capacity(parts);
        let (mut ends, mut ci, mut cv) = (&mut row_ptr[1..], &mut col_idx[..], &mut out_vals[..]);
        for k in 0..parts {
            let (e, rest) = ends.split_at_mut(bounds[k + 1] - bounds[k]);
            let (c, crest) = ci.split_at_mut(base[k + 1] - base[k]);
            let (v, vrest) = cv.split_at_mut(base[k + 1] - base[k]);
            bands.push((bounds[k], base[k], e, c, v));
            (ends, ci, cv) = (rest, crest, vrest);
        }
        let kept = run_parts(bands, |(first_row, first_slot, ends, c, v)| {
            if sorted {
                let slots = first_slot..first_slot + c.len();
                c.copy_from_slice(&cols[slots.clone()]);
                v.copy_from_slice(&vals[slots]);
            } else {
                // Each row's next slot, relative to the band's first.
                let mut next: Vec<usize> = std::iter::once(0)
                    .chain(ends.iter().map(|&e| e - first_slot))
                    .collect();
                let band = first_row..first_row + ends.len();
                for (i, &r) in rows.iter().enumerate() {
                    if band.contains(&(r as usize)) {
                        let slot = &mut next[r as usize - first_row];
                        c[*slot] = cols[i];
                        v[*slot] = vals[i];
                        *slot += 1;
                    }
                }
            }
            sort_rows(first_slot, ends, c, v)
        });

        // Close the gaps summed duplicates left between bands, and make
        // the row ends absolute.
        let mut at = 0;
        for (k, kept) in kept.into_iter().enumerate() {
            if at != base[k] {
                col_idx.copy_within(base[k]..base[k] + kept, at);
                out_vals.copy_within(base[k]..base[k] + kept, at);
            }
            for end in &mut row_ptr[bounds[k] + 1..=bounds[k + 1]] {
                *end += at;
            }
            at += kept;
        }
        col_idx.truncate(at);
        out_vals.truncate(at);
        Self {
            nrows,
            ncols: coo.ncols(),
            row_ptr,
            col_idx,
            vals: out_vals,
            pattern_symmetric: OnceLock::new(),
        }
    }

    /// An empty (all-zero) matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
            pattern_symmetric: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The row pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array (length `nnz`).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array (length `nnz`).
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.vals[s..e])
    }

    /// Number of stored entries in row `i` (the out-degree for adjacency
    /// matrices).
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Looks up a single entry (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> Option<T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&(j as u32)).ok().map(|k| vals[k])
    }

    /// Iterates `(row, col, value)` over stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Converts to COO triplets.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut rows = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            rows.extend(std::iter::repeat_n(r as u32, self.row_nnz(r)));
        }
        CooMatrix::from_triplets(
            self.nrows,
            self.ncols,
            rows,
            self.col_idx.clone(),
            self.vals.clone(),
        )
        .expect("CSR invariants imply valid COO")
    }

    /// Converts to CSC by a counting transpose pass.
    pub fn to_csc(&self) -> CscMatrix<T> {
        let mut col_ptr = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            col_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut next = col_ptr.clone();
        let mut row_idx = vec![0u32; self.nnz()];
        let mut vals = self.vals.clone();
        for r in 0..self.nrows {
            let (cols, rvals) = self.row(r);
            for (&c, &v) in cols.iter().zip(rvals) {
                let slot = next[c as usize];
                row_idx[slot] = r as u32;
                vals[slot] = v;
                next[c as usize] += 1;
            }
        }
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, col_ptr, row_idx, vals)
    }

    /// Returns `Aᵀ` in CSR form.
    pub fn transpose(&self) -> Self {
        let csc = self.to_csc();
        // A CSC matrix is the CSR of its transpose with roles swapped.
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: csc.col_ptr().to_vec(),
            col_idx: csc.row_idx().to_vec(),
            vals: csc.values().to_vec(),
            pattern_symmetric: OnceLock::new(),
        }
    }

    /// True when the sparsity pattern is symmetric: every stored `(i, j)`
    /// has a stored `(j, i)`. Values are ignored; a non-square matrix is
    /// never symmetric.
    ///
    /// One O(nnz) pass with a cursor per row: visiting the entries in
    /// row-major order meets the entries of column `j` in ascending row
    /// order, so each must be the next unmatched entry of row `j`. The
    /// answer is memoized, so repeated calls on one matrix are free.
    pub fn pattern_symmetric(&self) -> bool {
        *self.pattern_symmetric.get_or_init(|| {
            if self.nrows != self.ncols {
                return false;
            }
            let mut cursor = self.row_ptr[..self.nrows].to_vec();
            for r in 0..self.nrows {
                for &c in self.row(r).0 {
                    let c = c as usize;
                    let k = cursor[c];
                    if k == self.row_ptr[c + 1] || self.col_idx[k] as usize != r {
                        return false;
                    }
                    cursor[c] = k + 1;
                }
            }
            true
        })
    }

    /// True when the sparsity pattern and values are symmetric (requires a
    /// square matrix).
    pub fn is_symmetric(&self) -> bool
    where
        T: PartialEq,
    {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        t.row_ptr == self.row_ptr && t.col_idx == self.col_idx && t.vals == self.vals
    }

    /// Converts to a dense row-major buffer (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<T>
    where
        T: Default,
    {
        let mut dense = vec![T::default(); self.nrows * self.ncols];
        for (r, c, v) in self.iter() {
            dense[r * self.ncols + c] = v;
        }
        dense
    }
}

impl CsrMatrix<f64> {
    /// Makes the pattern symmetric by adding `Aᵀ`'s missing entries (values
    /// are kept where both directions exist; new entries copy the mirrored
    /// value). Used to turn directed generator output into undirected graphs.
    pub fn symmetrize(&self) -> Self {
        let mut coo = self.to_coo();
        for (r, c, v) in self.iter() {
            if r != c && self.get(c, r).is_none() {
                coo.push(c, r, v);
            }
        }
        coo.to_csr()
    }

    /// Removes diagonal entries (self-loops for adjacency matrices).
    pub fn without_diagonal(&self) -> Self {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            if r != c {
                coo.push(r, c, v);
            }
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.to_csr()
    }

    #[test]
    fn from_coo_builds_expected_structure() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.col_idx(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_coo_orders_unsorted_rows() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(2, 1, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 0, 3.0);
        coo.push(0, 0, 4.0);
        let m = coo.to_csr();
        assert_eq!(m.row_ptr(), &[0, 2, 3, 4]);
        assert_eq!(m.col_idx(), &[0, 2, 0, 1]);
        assert_eq!(m.values(), &[4.0, 2.0, 3.0, 1.0]);
    }

    #[test]
    fn from_coo_orders_unsorted_columns_within_a_row() {
        let mut coo = CooMatrix::new(2, 5);
        coo.push(0, 1, 1.0);
        coo.push(1, 4, 2.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 2, 4.0);
        let m = coo.to_csr();
        assert_eq!(m.row_ptr(), &[0, 1, 4]);
        assert_eq!(m.col_idx(), &[1, 0, 2, 4]);
        assert_eq!(m.values(), &[1.0, 3.0, 4.0, 2.0]);
    }

    #[test]
    fn from_coo_sums_duplicates_in_input_order() {
        // Left to right, 1e16 + 1.0 rounds back to 1e16 and the total is
        // 0.0; any other order of the three terms gives 1.0.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 5.0);
        coo.push(0, 1, 1e16);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, -1e16);
        let m = coo.to_csr();
        assert_eq!(m.col_idx(), &[0, 1, 1]);
        assert_eq!(m.values(), &[2.0, 0.0, 5.0]);
        // Rows that never decrease take the path without the row scatter.
        let mut sorted = CooMatrix::new(1, 2);
        for v in [1e16, 1.0, -1e16] {
            sorted.push(0, 1, v);
        }
        assert_eq!(sorted.to_csr().values(), &[0.0]);
    }

    #[test]
    fn from_coo_in_parts_matches_one_part() {
        // Rows in order and out of it, duplicates that sum differently in
        // any other order, empty rows and more bands than rows.
        let mut coos = Vec::new();
        let mut scattered = CooMatrix::<f64>::new(40, 30);
        let mut state = 7u64;
        for _ in 0..600 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (r, c) = ((state >> 33) as usize % 40, (state >> 13) as usize % 30);
            if r % 9 != 4 {
                scattered.push(r, c, [1e16, 1.0, -1e16][(state >> 5) as usize % 3]);
            }
        }
        coos.push(scattered.clone());
        coos.push(scattered.to_csr().to_coo());
        let mut tiny = CooMatrix::new(3, 3);
        for (r, c, v) in [(2, 1, 1.0f64), (0, 2, 2.0), (2, 1, 3.0), (0, 0, 4.0)] {
            tiny.push(r, c, v);
        }
        coos.push(tiny);
        coos.push(CooMatrix::new(0, 5));
        coos.push(CooMatrix::new(6, 6));
        for coo in &coos {
            let one = CsrMatrix::from_coo_in_parts(coo, 1);
            assert!(CsrMatrix::from_parts(
                one.nrows(),
                one.ncols(),
                one.row_ptr().to_vec(),
                one.col_idx().to_vec(),
                one.values().to_vec()
            )
            .is_ok());
            for parts in 2..=5 {
                let split = CsrMatrix::from_coo_in_parts(coo, parts);
                assert_eq!(split, one, "{parts} parts");
                assert_eq!(
                    split
                        .values()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    one.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
        // The summed duplicates close up across bands.
        let one = CsrMatrix::from_coo_in_parts(&coos[0], 1);
        assert!(one.nnz() < coos[0].nnz());
    }

    #[test]
    fn row_bands_split_rows_by_entries() {
        let row_ptr = [0, 10, 10, 12, 30, 31, 40];
        assert_eq!(row_bands(&row_ptr, 1, 1), [0, 6]);
        // Each cut is at the first row boundary at or past its share.
        assert_eq!(row_bands(&row_ptr, 2, 1), [0, 4, 6]);
        assert_eq!(row_bands(&row_ptr, 4, 1), [0, 1, 4, 4, 6]);
        // In units of 4 rows: the last unit is short.
        assert_eq!(row_bands(&row_ptr, 2, 4), [0, 1, 2]);
        // More bands than rows: empty bands.
        assert_eq!(row_bands(&[0, 5], 3, 1), [0, 1, 1, 1]);
        assert_eq!(row_bands(&[0], 2, 1), [0, 0, 0]);
    }

    #[test]
    fn row_access_and_get() {
        let m = sample();
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[3.0, 4.0]);
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn from_parts_rejects_bad_pointers() {
        let e = CsrMatrix::<f64>::from_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));

        let e = CsrMatrix::<f64>::from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn from_parts_rejects_unsorted_rows() {
        let e = CsrMatrix::<f64>::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn from_parts_rejects_out_of_bounds_column() {
        let e = CsrMatrix::<f64>::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn coo_roundtrip_preserves_matrix() {
        let m = sample();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn csc_conversion_matches_dense() {
        let m = sample();
        let csc = m.to_csc();
        assert_eq!(csc.to_dense(), m.to_dense());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        let d = m.to_dense();
        let td = t.to_dense();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(d[r * 3 + c], td[c * 3 + r]);
            }
        }
    }

    #[test]
    fn symmetrize_produces_symmetric_pattern() {
        let s = sample().symmetrize();
        // Pattern symmetry: every (i, j) has a mirrored (j, i). Values where
        // both directions pre-existed are kept as-is, so only the pattern is
        // guaranteed symmetric.
        for (r, c, _) in s.iter() {
            assert!(s.get(c, r).is_some(), "missing mirror of ({r},{c})");
        }
        // (2, 1) existed only one way; its mirror copies the value.
        assert_eq!(s.get(1, 2), Some(4.0));
        // Both (0, 2) and (2, 0) pre-existed with different values: kept.
        assert_eq!(s.get(0, 2), Some(2.0));
        assert_eq!(s.get(2, 0), Some(3.0));
    }

    #[test]
    fn without_diagonal_strips_self_loops() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        let m = coo.to_csr().without_diagonal();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), None);
    }

    fn from_pairs(n: usize, m: usize, pairs: &[(usize, usize)]) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, m);
        for &(r, c) in pairs {
            coo.push(r, c, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn pattern_symmetric_cases() {
        // Symmetric pattern with unequal mirrored values: still symmetric.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 5.0);
        coo.push(1, 2, 2.0);
        coo.push(2, 1, 2.0);
        assert!(coo.to_csr().pattern_symmetric());
        // One missing mirror.
        assert!(!from_pairs(3, 3, &[(0, 1), (1, 0), (1, 2)]).pattern_symmetric());
        // Same row counts, wrong partner: (0,1),(1,2),(2,0) is a cycle.
        assert!(!from_pairs(3, 3, &[(0, 1), (1, 2), (2, 0)]).pattern_symmetric());
        // Diagonal only.
        assert!(from_pairs(4, 4, &[(0, 0), (2, 2), (3, 3)]).pattern_symmetric());
        // Empty rows between symmetric pairs, and the empty matrix.
        assert!(from_pairs(6, 6, &[(0, 5), (5, 0), (3, 3)]).pattern_symmetric());
        assert!(CsrMatrix::<f64>::zeros(5, 5).pattern_symmetric());
        // Non-square is never symmetric, even when empty.
        assert!(!from_pairs(2, 3, &[(0, 0), (1, 1)]).pattern_symmetric());
        assert!(!CsrMatrix::<f64>::zeros(2, 3).pattern_symmetric());
        // `sample` has (0,2),(2,0) but (2,1) without (1,2).
        assert!(!sample().pattern_symmetric());
        assert!(sample().symmetrize().pattern_symmetric());
    }

    #[test]
    fn pattern_symmetric_memo_survives_clone_and_is_ignored_by_eq() {
        let a = from_pairs(3, 3, &[(0, 1), (1, 0)]);
        let fresh = a.clone();
        assert!(a.pattern_symmetric());
        // The clone of a queried matrix carries the memo.
        let warm = a.clone();
        assert_eq!(warm.pattern_symmetric.get(), Some(&true));
        assert_eq!(fresh.pattern_symmetric.get(), None);
        // Equality ignores whether the memo is filled.
        assert_eq!(warm, fresh);
        assert_eq!(a, fresh);
        assert_ne!(a, from_pairs(3, 3, &[(0, 1)]));
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::<f64>::zeros(4, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.nrows(), 4);
        assert_eq!(z.ncols(), 7);
        assert_eq!(z.iter().count(), 0);
    }
}
