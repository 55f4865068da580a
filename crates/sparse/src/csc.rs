//! Compressed Sparse Column matrix.
//!
//! The vector-driven SpMSpV direction (Algorithm 2 of the paper) and the
//! CombBLAS bucket baseline both walk columns, so CSC is a first-class
//! format here rather than a transpose trick.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::Result;

/// A sparse matrix in CSC form: `col_ptr` of length `ncols + 1` delimits the
/// row-index/value run of each column. Row indices within a column are kept
/// sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscMatrix<T> {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Copy> CscMatrix<T> {
    /// Builds a CSC matrix from raw arrays, validating every invariant.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self> {
        if col_ptr.len() != ncols + 1 {
            return Err(SparseError::MalformedPointers {
                what: format!(
                    "col_ptr has length {}, expected ncols + 1 = {}",
                    col_ptr.len(),
                    ncols + 1
                ),
            });
        }
        if row_idx.len() != vals.len() {
            return Err(SparseError::LengthMismatch {
                what: "row_idx/vals of a CSC matrix",
            });
        }
        if col_ptr[0] != 0 || *col_ptr.last().expect("len >= 1") != row_idx.len() {
            return Err(SparseError::MalformedPointers {
                what: "col_ptr must start at 0 and end at nnz".to_string(),
            });
        }
        for w in col_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::MalformedPointers {
                    what: "col_ptr must be non-decreasing".to_string(),
                });
            }
        }
        for c in 0..ncols {
            let col = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            for w in col.windows(2) {
                if w[1] <= w[0] {
                    return Err(SparseError::MalformedPointers {
                        what: format!("column {c} has unsorted or duplicate row indices"),
                    });
                }
            }
            if let Some(&r) = col.last() {
                if r as usize >= nrows {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r as usize,
                        col: c,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            vals,
        })
    }

    /// Internal constructor for callers that already guarantee the
    /// invariants (e.g. the CSR→CSC counting transpose).
    pub(crate) fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        debug_assert_eq!(col_ptr.len(), ncols + 1);
        debug_assert_eq!(row_idx.len(), vals.len());
        Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            vals,
        }
    }

    /// Converts from COO by building the CSR of the transpose.
    pub fn from_coo(coo: &CooMatrix<T>) -> Self
    where
        T: std::ops::Add<Output = T> + Default + Send + Sync,
    {
        let t = coo.transpose().to_csr();
        Self {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            col_ptr: t.row_ptr().to_vec(),
            row_idx: t.col_idx().to_vec(),
            vals: t.values().to_vec(),
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

    /// The column pointer array (length `ncols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row index array (length `nnz`).
    pub fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    /// The value array (length `nnz`).
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Row indices and values of column `j`.
    pub fn col(&self, j: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.vals[s..e])
    }

    /// Number of stored entries in column `j` (the in-degree for adjacency
    /// matrices).
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Converts to CSR by a counting transpose pass.
    pub fn to_csr(&self) -> CsrMatrix<T>
    where
        T: std::ops::Add<Output = T>,
    {
        // The CSC arrays are exactly the CSR arrays of Aᵀ; transposing that
        // CSR yields A in CSR form.
        let t = CsrMatrix::from_parts(
            self.ncols,
            self.nrows,
            self.col_ptr.clone(),
            self.row_idx.clone(),
            self.vals.clone(),
        )
        .expect("CSC invariants imply a valid transpose CSR");
        t.transpose()
    }

    /// Converts to a dense row-major buffer (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<T>
    where
        T: Default,
    {
        let mut dense = vec![T::default(); self.nrows * self.ncols];
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                dense[r as usize * self.ncols + j] = v;
            }
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        CscMatrix::from_coo(&coo)
    }

    #[test]
    fn from_coo_builds_expected_structure() {
        let m = sample();
        assert_eq!(m.col_ptr(), &[0, 2, 3, 4]);
        assert_eq!(m.row_idx(), &[0, 2, 2, 0]);
        assert_eq!(m.values(), &[1.0, 3.0, 4.0, 2.0]);
    }

    #[test]
    fn col_access() {
        let m = sample();
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 3.0]);
        assert_eq!(m.col_nnz(1), 1);
    }

    #[test]
    fn csr_roundtrip_preserves_matrix() {
        let m = sample();
        let back = m.to_csr().to_csc();
        assert_eq!(back, m);
    }

    #[test]
    fn from_parts_validates() {
        let e = CscMatrix::<f64>::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));

        let e = CscMatrix::<f64>::from_parts(2, 1, vec![0, 1], vec![9], vec![1.0]);
        assert!(matches!(e, Err(SparseError::IndexOutOfBounds { .. })));

        let e = CscMatrix::<f64>::from_parts(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn dense_matches_csr_dense() {
        let m = sample();
        assert_eq!(m.to_dense(), m.to_csr().to_dense());
    }
}
