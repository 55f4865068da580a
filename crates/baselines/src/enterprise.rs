//! Enterprise-style BFS (Liu & Huang, SC '15).
//!
//! Enterprise's contribution is frontier *load balancing by out-degree*:
//! each iteration classifies frontier vertices into small/middle/large
//! bins and assigns each bin an execution granularity (thread, warp,
//! block), so a handful of hub vertices cannot serialize a warp. It also
//! adopts direction switching. Here the bins map to chunk granularities,
//! each chunk one counted warp: the small bin is processed in coarse
//! chunks, the middle bin a few vertices per chunk, and large vertices
//! split their adjacency lists across chunks.

use crate::bfs_common::{
    gather, validate_bfs_input, vertex_chunks, BaselineBfsResult, BaselineIteration, Bitmap,
    VisitedSet,
};
use crate::CHUNK_THREADS;
use std::time::Instant;
use tsv_simt::stats::KernelStats;
use tsv_sparse::{CsrMatrix, SparseError};

/// Degree boundary between the small and middle bins (a warp's width).
const SMALL_DEGREE: usize = 32;
/// Degree boundary between the middle and large bins (a block's width).
const LARGE_DEGREE: usize = 256;
/// Beamer-style direction constants (Enterprise adopts the same scheme).
const ALPHA: usize = 15;
const BETA: usize = 18;

/// Runs Enterprise-style BFS from `source`.
pub fn enterprise_bfs(a: &CsrMatrix<f64>, source: usize) -> Result<BaselineBfsResult, SparseError> {
    validate_bfs_input(a, source)?;
    let n = a.nrows();
    let symmetric = a.pattern_symmetric();

    let mut levels = vec![-1i32; n];
    levels[source] = 0;
    let visited = VisitedSet::new(n);
    visited.try_visit(source);

    let mut frontier: Vec<u32> = vec![source as u32];
    let mut iterations = Vec::new();
    let mut total_stats = KernelStats::default();
    let mut level = 0i32;
    let total_edges = a.nnz();
    let mut explored_edges = a.row_nnz(source);
    let mut bottom_up = false;

    while !frontier.is_empty() {
        let start = Instant::now();
        let frontier_edges: usize = frontier.iter().map(|&v| a.row_nnz(v as usize)).sum();

        if symmetric {
            if !bottom_up && frontier_edges * ALPHA > total_edges.saturating_sub(explored_edges) {
                bottom_up = true;
            } else if bottom_up && frontier.len() * BETA < n {
                bottom_up = false;
            }
        }

        let (next, stats, strategy) = if bottom_up {
            let bitmap = Bitmap::from_list(n, &frontier);
            bottom_up_step(a, &bitmap, &visited)
        } else {
            binned_top_down(a, &frontier, &visited)
        };

        let wall = start.elapsed();
        iterations.push(BaselineIteration {
            frontier: frontier.len(),
            strategy,
            stats,
            wall,
        });
        total_stats += stats;

        level += 1;
        for &v in &next {
            levels[v as usize] = level;
            explored_edges += a.row_nnz(v as usize);
        }
        frontier = next;
    }

    Ok(BaselineBfsResult {
        levels,
        iterations,
        total_stats,
    })
}

/// Top-down with degree-classified bins.
fn binned_top_down(
    a: &CsrMatrix<f64>,
    frontier: &[u32],
    visited: &VisitedSet,
) -> (Vec<u32>, KernelStats, &'static str) {
    // Classification pass (Enterprise does this with a scan kernel).
    let mut small = Vec::new();
    let mut middle = Vec::new();
    let mut large = Vec::new();
    let mut stats = KernelStats::default();
    for &u in frontier {
        let d = a.row_nnz(u as usize);
        stats.read(8);
        if d < SMALL_DEGREE {
            small.push(u);
        } else if d < LARGE_DEGREE {
            middle.push(u);
        } else {
            large.push(u);
        }
    }

    let mut next = Vec::new();

    // Small bin: coarse chunks, one task handles many low-degree vertices.
    let chunk = small.len().div_ceil(CHUNK_THREADS).max(64);
    let (v, s) = expand_chunks(a, &small, chunk, visited);
    next.extend(v);
    stats += s;

    // Middle bin: finer chunks (one "warp" per few vertices).
    let (v, s) = expand_chunks(a, &middle, 4, visited);
    next.extend(v);
    stats += s;

    // Large bin: split each adjacency list across tasks.
    for &u in &large {
        let (cols, _) = a.row(u as usize);
        let (v, s) = gather(cols.chunks(LARGE_DEGREE).map(|seg| {
            let mut st = KernelStats::default();
            st.warps += 1;
            st.read(seg.len() * 4);
            let mut local = Vec::new();
            for &v in seg {
                st.atomic(1);
                if visited.try_visit(v as usize) {
                    local.push(v);
                    st.write(4);
                }
            }
            st.lane_steps += seg.len().div_ceil(32) as u64 * 32;
            (local, st)
        }));
        next.extend(v);
        stats += s;
    }

    (next, stats, "binned-top-down")
}

fn expand_chunks(
    a: &CsrMatrix<f64>,
    bin: &[u32],
    chunk: usize,
    visited: &VisitedSet,
) -> (Vec<u32>, KernelStats) {
    gather(bin.chunks(chunk.max(1)).map(|part| {
        let mut st = KernelStats::default();
        st.warps += 1;
        let mut local = Vec::new();
        for &u in part {
            let (cols, _) = a.row(u as usize);
            st.read_scattered(8);
            st.read(cols.len() * 4);
            for &v in cols {
                st.atomic(1);
                if visited.try_visit(v as usize) {
                    local.push(v);
                    st.write(4);
                }
            }
            st.lane_steps += cols.len().div_ceil(32) as u64 * 32;
        }
        (local, st)
    }))
}

fn bottom_up_step(
    a: &CsrMatrix<f64>,
    frontier: &Bitmap,
    visited: &VisitedSet,
) -> (Vec<u32>, KernelStats, &'static str) {
    let n = a.nrows();
    let chunk = (n / (CHUNK_THREADS * 8)).max(64);
    let (next, stats) = gather(vertex_chunks(n, chunk).map(|part| {
        let mut st = KernelStats::default();
        st.warps += 1;
        let mut local = Vec::new();
        for v in part {
            if visited.contains(v) {
                continue;
            }
            let (cols, _) = a.row(v);
            st.read(8 + 4);
            for (k, &u) in cols.iter().enumerate() {
                st.read_scattered(4); // frontier bitmap probe
                if frontier.get(u as usize) {
                    if visited.try_visit(v) {
                        local.push(v as u32);
                        st.atomic(1);
                        st.write(4);
                    }
                    st.lane_steps += (k + 1) as u64;
                    break;
                }
            }
        }
        (local, st)
    }));
    (next, stats, "bottom-up")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsv_sparse::gen::{banded, grid2d, rmat, RmatConfig};
    use tsv_sparse::reference::bfs_levels;

    #[test]
    fn matches_serial_on_grid() {
        let a = grid2d(22, 17).to_csr().without_diagonal();
        let r = enterprise_bfs(&a, 0).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, 0).unwrap());
    }

    #[test]
    fn matches_serial_on_skewed_graph() {
        // Power-law graphs exercise all three bins.
        let a = rmat(RmatConfig::new(10, 16), 4).to_csr();
        let source = (0..a.nrows()).find(|&v| a.row_nnz(v) > 0).unwrap();
        let r = enterprise_bfs(&a, source).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, source).unwrap());
    }

    #[test]
    fn matches_serial_on_banded() {
        let a = banded(400, 6, 0.8, 7).to_csr();
        let r = enterprise_bfs(&a, 7).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, 7).unwrap());
    }

    #[test]
    fn hub_heavy_star_graph_is_handled() {
        // One hub of degree n-1 exercises the large bin's split path.
        let n = 1000;
        let mut coo = tsv_sparse::CooMatrix::new(n, n);
        for v in 1..n {
            coo.push(0, v, 1.0);
            coo.push(v, 0, 1.0);
        }
        let a = coo.to_csr();
        let r = enterprise_bfs(&a, 0).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, 0).unwrap());
        assert_eq!(r.reached(), n);
    }

    #[test]
    fn rejects_bad_source() {
        let a = grid2d(4, 4).to_csr();
        assert!(enterprise_bfs(&a, 100).is_err());
    }
}
