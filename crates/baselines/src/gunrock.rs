//! Gunrock-style BFS (Wang et al., PPoPP '16).
//!
//! Gunrock expresses BFS as advance/filter operators over a frontier
//! worklist, with Beamer direction optimization: top-down expands the
//! frontier queue edge by edge; once the frontier's edge count approaches
//! the remaining work it switches to bottom-up, scanning unvisited
//! vertices for frontier parents; it switches back when the frontier
//! shrinks. The α/β hysteresis below uses the canonical constants.
//!
//! Compared to TileBFS, the frontier is an explicit vertex queue (4 bytes
//! per vertex, atomically deduplicated) rather than bitmask tiles — more
//! traffic and more atomics per discovered vertex on dense frontiers.

use crate::bfs_common::{
    gather, validate_bfs_input, vertex_chunks, BaselineBfsResult, BaselineIteration, Bitmap,
    VisitedSet,
};
use crate::CHUNK_THREADS;
use std::time::Instant;
use tsv_simt::stats::KernelStats;
use tsv_sparse::{CsrMatrix, SparseError};

/// Switch to bottom-up when `frontier_edges * ALPHA > unexplored_edges`.
const ALPHA: usize = 15;
/// Switch back to top-down when `frontier_size * BETA < n`.
const BETA: usize = 18;

/// Runs Gunrock-style BFS from `source`. For asymmetric patterns the
/// bottom-up direction is disabled (its parent scan requires in-edges).
pub fn gunrock_bfs(a: &CsrMatrix<f64>, source: usize) -> Result<BaselineBfsResult, SparseError> {
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

        // Beamer direction heuristic.
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
            top_down_step(a, &frontier, &visited)
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

/// Advance + filter: expand every frontier vertex's adjacency, claiming
/// unvisited neighbors atomically.
fn top_down_step(
    a: &CsrMatrix<f64>,
    frontier: &[u32],
    visited: &VisitedSet,
) -> (Vec<u32>, KernelStats, &'static str) {
    let chunk = frontier.len().div_ceil(CHUNK_THREADS).max(16);
    let (next, stats) = gather(frontier.chunks(chunk).map(|part| {
        let mut stats = KernelStats::default();
        stats.warps += 1;
        let mut local = Vec::new();
        for &u in part {
            let (cols, _) = a.row(u as usize);
            stats.read_scattered(8); // row_ptr lookup of a queued vertex
            stats.read(cols.len() * 4);
            for &v in cols {
                stats.atomic(1);
                if visited.try_visit(v as usize) {
                    local.push(v);
                    stats.write(4);
                }
            }
            stats.lane_steps += cols.len().div_ceil(32) as u64 * 32;
        }
        (local, stats)
    }));
    (next, stats, "top-down")
}

/// Bottom-up: every unvisited vertex scans its (in-)neighbors for a
/// frontier member.
fn bottom_up_step(
    a: &CsrMatrix<f64>,
    frontier: &Bitmap,
    visited: &VisitedSet,
) -> (Vec<u32>, KernelStats, &'static str) {
    let n = a.nrows();
    let chunk = (n / (CHUNK_THREADS * 8)).max(64);
    let (next, stats) = gather(vertex_chunks(n, chunk).map(|part| {
        let mut stats = KernelStats::default();
        stats.warps += 1;
        let mut local = Vec::new();
        for v in part {
            if visited.contains(v) {
                continue;
            }
            let (cols, _) = a.row(v);
            stats.read(8 + 4); // row header + streamed neighbor ids
            for (k, &u) in cols.iter().enumerate() {
                stats.read_scattered(4); // frontier bitmap probe
                if frontier.get(u as usize) {
                    if visited.try_visit(v) {
                        local.push(v as u32);
                        stats.atomic(1);
                        stats.write(4);
                    }
                    stats.lane_steps += (k + 1) as u64;
                    break; // first parent suffices
                }
            }
        }
        (local, stats)
    }));
    (next, stats, "bottom-up")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsv_sparse::gen::{geometric_graph, grid2d, rmat, RmatConfig};
    use tsv_sparse::reference::bfs_levels;
    use tsv_sparse::CooMatrix;

    #[test]
    fn matches_serial_on_grid() {
        let a = grid2d(25, 18).to_csr().without_diagonal();
        let r = gunrock_bfs(&a, 0).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, 0).unwrap());
        assert!(r.total_stats.warps > 0);
    }

    #[test]
    fn matches_serial_on_powerlaw_and_uses_bottom_up() {
        let a = rmat(RmatConfig::new(10, 16), 8).to_csr();
        let source = (0..a.nrows()).find(|&v| a.row_nnz(v) > 0).unwrap();
        let r = gunrock_bfs(&a, source).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, source).unwrap());
        // A dense RMAT explosion should trigger the direction switch.
        assert!(
            r.iterations.iter().any(|it| it.strategy == "bottom-up"),
            "expected a bottom-up iteration on a power-law graph"
        );
    }

    #[test]
    fn matches_serial_on_road_like() {
        let a = geometric_graph(800, 4.0, 3).to_csr();
        let source = (0..a.nrows()).find(|&v| a.row_nnz(v) > 0).unwrap();
        let r = gunrock_bfs(&a, source).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, source).unwrap());
    }

    #[test]
    fn directed_graph_stays_top_down_and_correct() {
        let n = 60;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
        }
        let a = coo.to_csr();
        let r = gunrock_bfs(&a, 0).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, 0).unwrap());
        assert!(r.iterations.iter().all(|it| it.strategy == "top-down"));
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = grid2d(4, 4).to_csr();
        assert!(gunrock_bfs(&a, 99).is_err());
    }

    #[test]
    fn iteration_trace_covers_all_levels() {
        let a = grid2d(12, 12).to_csr().without_diagonal();
        let r = gunrock_bfs(&a, 0).unwrap();
        let max_level = *r.levels.iter().max().unwrap() as usize;
        assert!(r.iterations.len() >= max_level);
        assert!(r.wall().as_nanos() > 0);
    }
}
