//! The CombBLAS SpMSpV-bucket algorithm (Azad & Buluç, IPDPS '17).
//!
//! Two phases over the CSC matrix:
//!
//! 1. **Scatter** — for every nonzero `x_j`, the entries of column `j` are
//!    scaled and appended to *buckets* that partition the row space, so
//!    that the merge phase has locality.
//! 2. **Merge** — each bucket accumulates its `(row, value)` pairs into a
//!    dense accumulator slice and emits the nonzero rows.
//!
//! This is the strongest published SpMSpV comparator in the paper (they
//! ported it to the GPU). Its weakness versus tiles is structural: the
//! scattered triples are written to and re-read from global memory, and
//! the merge revisits them — roughly 3× the traffic of the tile kernels
//! per useful flop, with no O(1) empty-region skipping.

use crate::CHUNK_THREADS;
use tsv_simt::stats::KernelStats;
use tsv_sparse::{CscMatrix, SparseError, SparseVector};

/// Number of row-space buckets per thread (the CombBLAS heuristic
/// of a few buckets per core keeps the merge balanced).
const BUCKETS_PER_THREAD: usize = 4;

/// Computes `y = A x` with the bucket algorithm; returns the result and
/// counted work.
pub fn bucket_spmspv(
    a: &CscMatrix<f64>,
    x: &SparseVector<f64>,
) -> Result<(SparseVector<f64>, KernelStats), SparseError> {
    if a.ncols() != x.len() {
        return Err(SparseError::DimensionMismatch {
            op: "bucket_spmspv",
            expected: a.ncols(),
            found: x.len(),
        });
    }
    let n = a.nrows();
    if n == 0 || x.nnz() == 0 {
        return Ok((SparseVector::zeros(n), KernelStats::default()));
    }

    let n_buckets = CHUNK_THREADS * BUCKETS_PER_THREAD;
    let bucket_len = n.div_ceil(n_buckets);

    // Phase 1: scatter, one chunk of the frontier per thread; each
    // chunk fills its private bucket lists, which are then concatenated per
    // bucket.
    let chunk = x.nnz().div_ceil(CHUNK_THREADS).max(1);
    let entries: Vec<(usize, f64)> = x.iter().collect();
    type ScatterPartial = (Vec<Vec<(u32, f64)>>, KernelStats);
    let partials: Vec<ScatterPartial> = entries
        .chunks(chunk)
        .map(|part| {
            let mut stats = KernelStats::default();
            stats.warps += 1;
            let mut local: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_buckets];
            for &(j, xj) in part {
                let (rows, vals) = a.col(j);
                stats.read_scattered(8); // col_ptr lookup
                stats.read(rows.len() * 12);
                for (&i, &aij) in rows.iter().zip(vals) {
                    let b = i as usize / bucket_len;
                    local[b].push((i, aij * xj));
                    stats.flop(1);
                    stats.write_scattered(12); // the scattered triple hits memory
                    stats.atomic(1); // the GPU port bumps the bucket tail pointer
                }
            }
            (local, stats)
        })
        .collect();

    let mut stats = KernelStats::default();
    let mut buckets: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_buckets];
    for (local, s) in partials {
        stats += s;
        for (b, mut list) in local.into_iter().enumerate() {
            buckets[b].append(&mut list);
        }
    }

    // Phase 2: merge each bucket through a dense accumulator slice.
    let merged: Vec<(Vec<(u32, f64)>, KernelStats)> = buckets
        .iter()
        .enumerate()
        .map(|(b, list)| {
            let mut s = KernelStats::default();
            if list.is_empty() {
                return (Vec::new(), s);
            }
            s.warps += 1;
            let lo = b * bucket_len;
            let hi = ((b + 1) * bucket_len).min(n);
            let mut acc = vec![0.0f64; hi - lo];
            let mut touched: Vec<u32> = Vec::new();
            for &(i, v) in list {
                let k = i as usize - lo;
                if acc[k] == 0.0 {
                    touched.push(i);
                }
                acc[k] += v;
                s.read(12); // re-read the scattered triple
                s.write_scattered(8); // random accumulator update within the bucket
                s.flop(1);
            }
            touched.sort_unstable();
            let out: Vec<(u32, f64)> = touched
                .into_iter()
                .filter(|&i| acc[i as usize - lo] != 0.0)
                .map(|i| (i, acc[i as usize - lo]))
                .collect();
            s.write(out.len() * 12);
            (out, s)
        })
        .collect();

    let mut indices = Vec::new();
    let mut vals = Vec::new();
    for (list, s) in merged {
        stats += s;
        for (i, v) in list {
            indices.push(i);
            vals.push(v);
        }
    }
    let y = SparseVector::from_parts(n, indices, vals)
        .expect("buckets emit sorted disjoint row ranges");
    Ok((y, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsv_sparse::gen::{random_sparse_vector, rmat, uniform_random, RmatConfig};
    use tsv_sparse::reference::spmspv_col;

    #[test]
    fn matches_reference() {
        let a = uniform_random(500, 500, 5000, 11).to_csr().to_csc();
        for sp in [0.001, 0.01, 0.2] {
            let x = random_sparse_vector(500, sp, 1);
            let (y, stats) = bucket_spmspv(&a, &x).unwrap();
            let expect = spmspv_col(&a, &x).unwrap();
            assert!(y.max_abs_diff(&expect) < 1e-9, "sparsity {sp}");
            assert!(stats.flops > 0);
        }
    }

    #[test]
    fn matches_reference_on_powerlaw() {
        let a = rmat(RmatConfig::new(9, 8), 5).to_csr().to_csc();
        let x = random_sparse_vector(a.ncols(), 0.05, 2);
        let (y, _) = bucket_spmspv(&a, &x).unwrap();
        let expect = spmspv_col(&a, &x).unwrap();
        assert!(y.max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn work_counters_are_the_same_on_every_host() {
        // `CHUNK_THREADS`, not the host's core count, sizes the buckets and
        // the scatter chunks, so the warp count and traffic are these
        // literals on any host.
        let a = rmat(RmatConfig::new(9, 8), 5).to_csr().to_csc();
        let x = random_sparse_vector(a.ncols(), 0.05, 2);
        let (_, stats) = bucket_spmspv(&a, &x).unwrap();
        let pinned = KernelStats {
            gmem_read_bytes: 5584,
            gmem_write_bytes: 5920,
            gmem_scattered_bytes: 4688,
            atomics: 224,
            flops: 448,
            bitops: 0,
            warps: 10,
            lane_steps: 0,
        };
        assert_eq!(stats, pinned);
    }

    #[test]
    fn empty_inputs() {
        let a = uniform_random(50, 50, 100, 1).to_csr().to_csc();
        let x = SparseVector::<f64>::zeros(50);
        let (y, stats) = bucket_spmspv(&a, &x).unwrap();
        assert_eq!(y.nnz(), 0);
        assert_eq!(stats, KernelStats::default());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = uniform_random(50, 50, 100, 1).to_csr().to_csc();
        let x = SparseVector::<f64>::zeros(51);
        assert!(bucket_spmspv(&a, &x).is_err());
    }

    #[test]
    fn traffic_exceeds_tiled_kernel_per_flop() {
        // The structural cost: scatter+merge touches each product at least
        // twice (write + re-read) beyond the column read.
        let a = uniform_random(400, 400, 4000, 3).to_csr().to_csc();
        let x = random_sparse_vector(400, 0.1, 1);
        let (_, stats) = bucket_spmspv(&a, &x).unwrap();
        let products = stats.flops / 2; // scatter + merge each count 1
        assert!(stats.gmem_write_bytes >= products * 12);
    }
}
