//! Brandes betweenness centrality over TileBFS level structure.
//!
//! For each source, TileBFS provides the level sets; the forward sweep
//! counts shortest paths level by level (each level is a masked SpMSpV
//! over (+, ×)), and the backward sweep accumulates dependencies. Exact
//! betweenness uses every vertex as a source; `betweenness` takes a
//! source list so callers can sample (the standard approximation).

use tsv_baselines::CHUNK_THREADS;
use tsv_core::bfs::{tile_bfs_with_workspace, BfsOptions, BfsWorkspace, TileBfsGraph};
use tsv_core::exec::ExecCtx;
use tsv_sparse::{CsrMatrix, SparseError};

/// Computes (optionally sampled) betweenness centrality of an undirected
/// graph. `sources` lists the Brandes roots; pass all vertices for the
/// exact measure. Scores follow the undirected convention (each path
/// counted once).
pub fn betweenness(a: &CsrMatrix<f64>, sources: &[usize]) -> Result<Vec<f64>, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.nrows();
    let g = TileBfsGraph::from_csr(a)?;
    for &s in sources {
        if s >= n {
            return Err(SparseError::IndexOutOfBounds {
                row: s,
                col: 0,
                nrows: n,
                ncols: 1,
            });
        }
    }

    // One Brandes pass per source, summed per chunk of sources and then
    // over the chunks. Each chunk amortizes one BFS workspace over its
    // share instead of allocating frontiers per source, and calls the
    // TileBFS driver on the shared `g` directly instead of owning an
    // engine. There are `CHUNK_THREADS` chunks, on any host, which fixes
    // the order the floating-point partials are summed in.
    let ctx = ExecCtx::default();
    let chunk = sources.len().div_ceil(CHUNK_THREADS).max(1);
    let partials: Vec<Vec<f64>> = sources
        .chunks(chunk)
        .map(|part| {
            let mut bc = vec![0.0f64; n];
            let mut ws = BfsWorkspace::new();
            for &s in part {
                brandes_pass(a, &g, s, &mut ws, &mut bc, &ctx);
            }
            bc
        })
        .collect();

    let mut bc = vec![0.0f64; n];
    for p in partials {
        for (acc, v) in bc.iter_mut().zip(p) {
            *acc += v;
        }
    }
    // Each undirected path is found from both endpoints' perspectives.
    for v in &mut bc {
        *v /= 2.0;
    }
    Ok(bc)
}

/// Like [`betweenness`], but computes the per-source level sets in batches
/// of 64 with [`tsv_apps_msbfs`](crate::msbfs::multi_source_bfs), so every
/// adjacency read during the BFS phase is shared by up to 64 traversals.
/// Results are identical to [`betweenness`].
pub fn betweenness_msbfs(a: &CsrMatrix<f64>, sources: &[usize]) -> Result<Vec<f64>, SparseError> {
    if a.nrows() != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: a.nrows(),
            ncols: a.ncols(),
        });
    }
    let n = a.nrows();
    let mut bc = vec![0.0f64; n];
    for batch in sources.chunks(64) {
        let levels = crate::msbfs::multi_source_bfs(a, batch)?;
        // Each source's dependencies start from zero and are then added
        // to the total, source by source.
        let mut acc = vec![0.0f64; n];
        for (&s, ls) in batch.iter().zip(&levels) {
            acc.fill(0.0);
            brandes_sweeps(a, s, ls, &mut acc);
            for (total, &v) in bc.iter_mut().zip(&acc) {
                *total += v;
            }
        }
    }
    for v in &mut bc {
        *v /= 2.0;
    }
    Ok(bc)
}

fn brandes_pass(
    a: &CsrMatrix<f64>,
    g: &TileBfsGraph,
    source: usize,
    ws: &mut BfsWorkspace,
    bc: &mut [f64],
    ctx: &ExecCtx,
) {
    let levels = match tile_bfs_with_workspace(g, source, BfsOptions::default(), ws, ctx) {
        Ok(r) => r.levels,
        Err(_) => return,
    };
    brandes_sweeps(a, source, &levels, bc);
}

/// Forward path counting and backward dependency accumulation over a
/// precomputed level assignment.
fn brandes_sweeps(a: &CsrMatrix<f64>, source: usize, levels: &[i32], bc: &mut [f64]) {
    let n = a.nrows();
    let max_level = *levels.iter().max().unwrap_or(&0);
    if max_level <= 0 {
        return;
    }
    let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); (max_level + 1) as usize];
    for (v, &l) in levels.iter().enumerate() {
        if l >= 0 {
            by_level[l as usize].push(v as u32);
        }
    }

    // Forward: path counts.
    let mut sigma = vec![0.0f64; n];
    sigma[source] = 1.0;
    for (l, level_set) in by_level.iter().enumerate().skip(1) {
        for &v in level_set {
            let v = v as usize;
            let (nbrs, _) = a.row(v);
            let mut s = 0.0;
            for &u in nbrs {
                if levels[u as usize] == l as i32 - 1 {
                    s += sigma[u as usize];
                }
            }
            sigma[v] = s;
        }
    }

    // Backward: dependency accumulation.
    let mut delta = vec![0.0f64; n];
    for l in (1..=max_level as usize).rev() {
        for &v in &by_level[l] {
            let v = v as usize;
            let (nbrs, _) = a.row(v);
            for &u in nbrs {
                let u = u as usize;
                if levels[u] == l as i32 - 1 && sigma[v] > 0.0 {
                    delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v]);
                }
            }
            if v != source {
                bc[v] += delta[v];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsv_sparse::CooMatrix;

    fn undirected(n: usize, edges: &[(usize, usize)]) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        coo.to_csr()
    }

    fn exact(a: &CsrMatrix<f64>) -> Vec<f64> {
        let all: Vec<usize> = (0..a.nrows()).collect();
        betweenness(a, &all).unwrap()
    }

    #[test]
    fn path_graph_has_known_values() {
        // Path 0-1-2-3-4: bc(v) for interior v at distance k from the end
        // is (k)(n-1-k) pairs routed through it.
        let a = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bc = exact(&a);
        assert_eq!(bc, vec![0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_center_carries_everything() {
        // Star with center 0 and 4 leaves: every leaf pair routes through
        // the center: C(4,2) = 6 pairs.
        let a = undirected(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let bc = exact(&a);
        assert_eq!(bc[0], 6.0);
        assert!(bc[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cycle_is_uniform() {
        let a = undirected(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let bc = exact(&a);
        for &v in &bc {
            assert!((v - bc[0]).abs() < 1e-12, "cycle must be uniform: {bc:?}");
        }
        assert!(bc[0] > 0.0);
    }

    #[test]
    fn split_paths_share_credit() {
        // Two disjoint 2-hop routes between 0 and 3: each midpoint gets
        // half a pair from (0,3) plus its own adjacent pairs' paths.
        let a = undirected(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let bc = exact(&a);
        assert!((bc[1] - 0.5).abs() < 1e-12, "{bc:?}");
        assert!((bc[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_subset_of_sources_is_partial() {
        let a = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let partial = betweenness(&a, &[0]).unwrap();
        let full = exact(&a);
        for (p, f) in partial.iter().zip(&full) {
            assert!(p <= f, "sampled {p} exceeds exact {f}");
        }
    }

    #[test]
    fn msbfs_variant_matches_per_source_variant() {
        let a = tsv_sparse::gen::geometric_graph(300, 4.5, 7).to_csr();
        let sources: Vec<usize> = (0..80).map(|i| (i * 3) % 300).collect();
        let plain = betweenness(&a, &sources).unwrap();
        let batched = betweenness_msbfs(&a, &sources).unwrap();
        for (v, (p, b)) in plain.iter().zip(&batched).enumerate() {
            assert!((p - b).abs() < 1e-9, "vertex {v}: {p} vs {b}");
        }
    }

    #[test]
    fn scores_are_the_same_bits_on_every_host() {
        // `CHUNK_THREADS`, not the host's core count, cuts the sources into
        // chunks, which fixes the order the partial scores are summed in.
        let a = tsv_sparse::gen::geometric_graph(300, 4.5, 7).to_csr();
        let sources: Vec<usize> = (0..80).map(|i| (i * 3) % 300).collect();
        let bc = betweenness(&a, &sources).unwrap();
        let hash = bc.iter().fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits());
        let max = bc.iter().copied().fold(0.0f64, f64::max);
        assert_eq!(
            (hash, max.to_bits()),
            (0x7759_adf3_47cd_bc89, 0x40b5_d6c6_1861_8618)
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = undirected(4, &[(0, 1)]);
        assert!(betweenness(&a, &[9]).is_err());
        let mut rect = CooMatrix::new(2, 3);
        rect.push(0, 2, 1.0);
        assert!(betweenness(&rect.to_csr(), &[0]).is_err());
    }
}
