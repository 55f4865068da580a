//! Coordinate-list (triplet) sparse matrix.
//!
//! COO is the interchange format of the workspace: generators emit it,
//! MatrixMarket I/O reads into it, and the tiled builder in `tsv-core`
//! consumes it. It is also the format the paper uses for the *very sparse*
//! tiles extracted from the tiled structure (§3.2.1).

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::Result;

/// A sparse matrix stored as parallel `(row, col, val)` triplet arrays.
///
/// Duplicate coordinates are allowed until [`CooMatrix::sum_duplicates`] is
/// called; conversions to compressed formats sum duplicates implicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy> CooMatrix<T> {
    /// Creates an empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix of the given shape with entry capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Builds a matrix from triplet arrays, validating bounds and lengths.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::LengthMismatch {
                what: "rows/cols/vals of a COO matrix",
            });
        }
        for (&r, &c) in rows.iter().zip(&cols) {
            if r as usize >= nrows || c as usize >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r as usize,
                    col: c as usize,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(Self {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        })
    }

    /// Appends one entry. Panics in debug builds if out of bounds; use
    /// [`CooMatrix::try_push`] for a checked insert.
    pub fn push(&mut self, row: usize, col: usize, val: T) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(val);
    }

    /// Appends one entry, returning an error when out of bounds.
    pub fn try_push(&mut self, row: usize, col: usize, val: T) -> Result<()> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.push(row, col, val);
        Ok(())
    }

    /// Moves every entry of `other` to the end of `self`, in order,
    /// leaving `other` empty with its capacity kept. Both must have the
    /// same shape.
    pub(crate) fn append(&mut self, other: &mut Self) {
        debug_assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols));
        self.rows.append(&mut other.rows);
        self.cols.append(&mut other.cols);
        self.vals.append(&mut other.vals);
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (including any duplicates).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row indices of the stored entries.
    pub fn row_indices(&self) -> &[u32] {
        &self.rows
    }

    /// Column indices of the stored entries.
    pub fn col_indices(&self) -> &[u32] {
        &self.cols
    }

    /// Values of the stored entries.
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Iterates over `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r as usize, c as usize, v))
    }

    /// Returns the transpose (entries re-labelled, shape swapped).
    pub fn transpose(&self) -> Self {
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            rows: self.cols.clone(),
            cols: self.rows.clone(),
            vals: self.vals.clone(),
        }
    }

    /// Converts to CSR, summing duplicate coordinates.
    pub fn to_csr(&self) -> CsrMatrix<T>
    where
        T: std::ops::Add<Output = T> + Default + Send + Sync,
    {
        CsrMatrix::from_coo(self)
    }

    /// Converts to CSC, summing duplicate coordinates.
    pub fn to_csc(&self) -> CscMatrix<T>
    where
        T: std::ops::Add<Output = T> + Default + Send + Sync,
    {
        CscMatrix::from_coo(self)
    }

    /// Converts to a dense row-major buffer (for tests and tiny matrices).
    pub fn to_dense(&self) -> Vec<T>
    where
        T: std::ops::Add<Output = T> + Default,
    {
        let mut dense = vec![T::default(); self.nrows * self.ncols];
        for (r, c, v) in self.iter() {
            let slot = &mut dense[r * self.ncols + c];
            *slot = *slot + v;
        }
        dense
    }
}

impl<T: Copy + std::ops::Add<Output = T> + Default + Send + Sync> CooMatrix<T> {
    /// Sorts row-major and sums entries sharing a coordinate in input
    /// order, through [`CsrMatrix::from_coo`].
    pub fn sum_duplicates(&mut self) {
        *self = CsrMatrix::from_coo(self).to_coo();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        let mut m = CooMatrix::new(3, 4);
        m.push(0, 1, 2.0);
        m.push(2, 3, -1.0);
        m.push(1, 0, 4.0);
        m
    }

    #[test]
    fn construction_and_accessors() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 3);
        let triplets: Vec<_> = m.iter().collect();
        assert_eq!(triplets[0], (0, 1, 2.0));
    }

    #[test]
    fn from_triplets_validates_bounds() {
        let err = CooMatrix::from_triplets(2, 2, vec![0, 5], vec![0, 0], vec![1.0, 1.0]);
        assert!(matches!(
            err,
            Err(SparseError::IndexOutOfBounds { row: 5, .. })
        ));
    }

    #[test]
    fn from_triplets_validates_lengths() {
        let err = CooMatrix::from_triplets(2, 2, vec![0], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
    }

    #[test]
    fn try_push_checks_bounds() {
        let mut m = CooMatrix::<f64>::new(2, 2);
        assert!(m.try_push(1, 1, 1.0).is_ok());
        assert!(m.try_push(2, 0, 1.0).is_err());
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn sum_duplicates_merges_and_sorts() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 1, 1.0);
        m.push(0, 0, 2.0);
        m.push(1, 1, 3.0);
        m.sum_duplicates();
        assert_eq!(m.nnz(), 2);
        let t: Vec<_> = m.iter().collect();
        assert_eq!(t, vec![(0, 0, 2.0), (1, 1, 4.0)]);

        // Without duplicates it only orders the entries row-major.
        let mut m = sample();
        m.sum_duplicates();
        assert_eq!(m.row_indices(), &[0, 1, 2]);
    }

    #[test]
    fn transpose_swaps_shape_and_coords() {
        let t = sample().transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert!(t.iter().any(|e| e == (1, 0, 2.0)));
    }

    #[test]
    fn to_dense_sums_duplicates() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.5);
        m.push(0, 0, 0.5);
        let d = m.to_dense();
        assert_eq!(d, vec![2.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let mut m = CooMatrix::<f64>::new(5, 5);
        m.sum_duplicates();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.to_dense().len(), 25);
    }
}
