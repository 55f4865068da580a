//! TileBFS (§3.4): direction-optimized BFS over bitmask tiles.
//!
//! [`TileBfsGraph::from_csr`] converts an adjacency matrix into the bitmask
//! tile structure (choosing `nt` by the paper's order rule) and
//! [`tile_bfs`] runs the traversal, switching per iteration among
//! [`push_csc`](push_csc::push_csc) (K1), [`push_csr`](push_csr::push_csr)
//! (K2) and [`pull_csc`](pull_csc::pull_csc) (K3) according to frontier
//! density and the unvisited count. Extracted very-sparse edges are applied
//! by a separate per-iteration pass (the paper's GSwitch hybrid).
//!
//! Every BFS launch passes a work estimate of 0, so it runs on the calling
//! thread on any backend: each BFS launch that was timed split over
//! threads ran slower than inline (DESIGN §10).

pub mod policy;
pub mod pull_csc;
pub mod push_csc;
pub mod push_csr;
pub(crate) mod verify;

pub use policy::{KernelKind, KernelSet, PolicyThresholds};

use crate::exec::ExecCtx;
use crate::tile::bitvec::iter_bits;
use crate::tile::{BitFrontier, BitTileMatrix, TileSize};
use std::time::{Duration, Instant};
use tsv_simt::analyze::PlanReport;
use tsv_simt::atomic::AtomicWords;
use tsv_simt::setup_parts;
use tsv_simt::stats::KernelStats;
use tsv_simt::trace::{self, IterationInfo};
use tsv_simt::warp::WARP_SIZE;
use tsv_sparse::{CsrMatrix, SparseError};

/// An adjacency matrix prepared for TileBFS.
#[derive(Debug, Clone)]
pub struct TileBfsGraph {
    bit: BitTileMatrix,
    n: usize,
    symmetric: bool,
    /// Push-CSR's `(row tile, segment)` work list, precomputed once — it
    /// depends only on the matrix structure.
    segments: Vec<(u32, u32)>,
}

impl TileBfsGraph {
    /// Builds the BFS structure with the paper's defaults: `nt` from the
    /// matrix order (>10 000 → 64, else 32) and extraction threshold 2.
    pub fn from_csr<T: Copy + Sync>(a: &CsrMatrix<T>) -> Result<Self, SparseError> {
        Self::with_params(a, TileSize::for_bfs(a.nrows()).nt().max(32), 2)
    }

    /// Builds with explicit tile size (32 or 64) and extraction threshold.
    ///
    /// The graph convention is *row adjacency*: entry `(u, v)` is the edge
    /// `u → v`, matching [`tsv_sparse::reference::bfs_levels`]. The SpMSpV
    /// formulation `y = Ax` pushes along columns, so for an asymmetric
    /// pattern the bitmask structure is built from `Aᵀ`; symmetric patterns
    /// (the paper's undirected setting) skip the transpose.
    pub fn with_params<T: Copy + Sync>(
        a: &CsrMatrix<T>,
        nt: usize,
        extract_threshold: usize,
    ) -> Result<Self, SparseError> {
        Self::build(a, nt, extract_threshold, setup_parts(a.nnz()))
    }

    /// [`from_csr`](Self::from_csr) with the bit tiles converted in
    /// `parts` bands of row tiles. Public only so the workspace's tests can
    /// run the split at any part count.
    #[doc(hidden)]
    pub fn from_csr_in_parts<T: Copy + Sync>(
        a: &CsrMatrix<T>,
        parts: usize,
    ) -> Result<Self, SparseError> {
        Self::build(a, TileSize::for_bfs(a.nrows()).nt().max(32), 2, parts)
    }

    fn build<T: Copy + Sync>(
        a: &CsrMatrix<T>,
        nt: usize,
        extract_threshold: usize,
        parts: usize,
    ) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        // The symmetry test is one pass over the pattern; only an
        // asymmetric input pays for the transpose.
        let symmetric = a.pattern_symmetric();
        let bit = if symmetric {
            BitTileMatrix::from_csr_in_parts(a, nt, extract_threshold, parts)?
        } else {
            BitTileMatrix::from_csr_in_parts(&a.transpose(), nt, extract_threshold, parts)?
        };
        let segments = push_csr::csr_segments(&bit);
        Ok(Self {
            n: a.nrows(),
            bit,
            symmetric,
            segments,
        })
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying bitmask tile structure.
    pub fn bit(&self) -> &BitTileMatrix {
        &self.bit
    }

    /// Whether the adjacency pattern is symmetric (undirected graph); the
    /// pull kernel is only eligible when it is.
    pub fn symmetric(&self) -> bool {
        self.symmetric
    }

    /// Push-CSR's precomputed `(row tile, segment)` work list.
    pub fn csr_segments(&self) -> &[(u32, u32)] {
        &self.segments
    }
}

/// Options for [`tile_bfs`].
#[derive(Debug, Clone, Copy)]
pub struct BfsOptions {
    /// Which kernels the policy may use (Figure 9's ablation knob).
    pub kernels: KernelSet,
    /// Selection thresholds.
    pub thresholds: PolicyThresholds,
    /// Run the plan-time static race verifier over every kernel shape the
    /// policy may launch, before the first iteration. The report lands in
    /// [`BfsResult::analysis`]; malformed launch geometry surfaces as
    /// [`SparseError::Plan`] instead of a mid-kernel panic.
    pub verify: bool,
}

impl Default for BfsOptions {
    fn default() -> Self {
        Self {
            kernels: KernelSet::All,
            thresholds: PolicyThresholds::default(),
            verify: false,
        }
    }
}

/// One BFS iteration's record (feeds Figures 9 and 10).
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// The level this iteration discovered (source is level 0; the first
    /// iteration discovers level 1).
    pub level: u32,
    /// Kernel selected by the policy.
    pub kernel: KernelKind,
    /// Frontier size entering the iteration.
    pub frontier: usize,
    /// Vertices discovered by the iteration.
    pub discovered: usize,
    /// Vertices still unvisited entering the iteration — together with
    /// `frontier` this is exactly what the policy saw when it picked
    /// `kernel`.
    pub unvisited: usize,
    /// Work counters (tile kernel + extra-edge pass).
    pub stats: KernelStats,
    /// Wall-clock time of the iteration on the CPU substrate.
    pub wall: Duration,
}

/// Result of a TileBFS run.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Level of each vertex (`-1` when unreachable).
    pub levels: Vec<i32>,
    /// Per-iteration trace.
    pub iterations: Vec<IterationRecord>,
    /// Summed work counters.
    pub total_stats: KernelStats,
    /// The static verifier's report, when [`BfsOptions::verify`] was set.
    pub analysis: Option<PlanReport>,
}

impl BfsResult {
    /// Number of vertices reached (including the source).
    pub fn reached(&self) -> usize {
        self.levels.iter().filter(|&&l| l >= 0).count()
    }

    /// Total wall time across iterations.
    pub fn wall(&self) -> Duration {
        self.iterations.iter().map(|r| r.wall).sum()
    }
}

/// Reusable traversal scratch for [`tile_bfs_with_workspace`] (and the
/// engine layer built on it): the four bit frontiers, the push kernels'
/// atomic accumulator, a word staging buffer and the frontier vertex list.
/// Buffers are (re)sized once per graph geometry and then reused across
/// runs and iterations, so steady-state traversals allocate only their
/// result.
#[derive(Debug)]
pub struct BfsWorkspace {
    x: BitFrontier,
    m: BitFrontier,
    y: BitFrontier,
    unvisited: BitFrontier,
    y_atomic: AtomicWords,
    y_words: Vec<u64>,
    frontier: Vec<u32>,
    runs: u64,
    reallocs: u64,
}

impl BfsWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            x: BitFrontier::new(0, 32),
            m: BitFrontier::new(0, 32),
            y: BitFrontier::new(0, 32),
            unvisited: BitFrontier::new(0, 32),
            y_atomic: AtomicWords::zeroed(0),
            y_words: Vec::new(),
            frontier: Vec::new(),
            runs: 0,
            reallocs: 0,
        }
    }

    fn prepare(&mut self, g: &TileBfsGraph) {
        let nt = g.bit.nt();
        if self.x.len() != g.n || self.x.nt() != nt {
            self.x = BitFrontier::new(g.n, nt);
            self.m = BitFrontier::new(g.n, nt);
            self.y = BitFrontier::new(g.n, nt);
            self.unvisited = BitFrontier::new(g.n, nt);
            self.y_atomic = AtomicWords::zeroed(g.bit.n_tiles());
            self.y_words = vec![0u64; g.bit.n_tiles()];
            self.reallocs += 1;
        }
    }

    /// Completed traversals.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Times the buffers were (re)sized for a new graph geometry.
    pub fn reallocs(&self) -> u64 {
        self.reallocs
    }
}

impl Default for BfsWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs TileBFS from `source`.
///
/// This is the one-shot convenience form: it builds a fresh
/// [`BfsWorkspace`] per call. Repeated traversals (betweenness chunks,
/// multi-source sweeps) should hold a [`crate::exec::BfsEngine`] or call
/// [`tile_bfs_with_workspace`] with a kept workspace.
///
/// ```
/// use tsv_core::bfs::{tile_bfs, BfsOptions, TileBfsGraph};
///
/// let a = tsv_sparse::gen::grid2d(12, 12).to_csr().without_diagonal();
/// let g = TileBfsGraph::from_csr(&a).unwrap();
/// let result = tile_bfs(&g, 0, BfsOptions::default()).unwrap();
///
/// assert_eq!(result.levels, tsv_sparse::reference::bfs_levels(&a, 0).unwrap());
/// assert_eq!(result.reached(), 144);
/// ```
pub fn tile_bfs(
    g: &TileBfsGraph,
    source: usize,
    opts: BfsOptions,
) -> Result<BfsResult, SparseError> {
    let mut ws = BfsWorkspace::new();
    tile_bfs_with_workspace(g, source, opts, &mut ws, &ExecCtx::default())
}

/// The TileBFS driver: runs the direction-switching traversal from
/// `source`, reusing `ws` for every per-iteration buffer.
///
/// Every per-iteration kernel launch (and the extracted-edge pass) runs
/// through `ctx`, each in its own epoch of `ctx.sanitizer`, so conflicts
/// are attributed to the kernel and iteration that made them. The traversal,
/// policy decisions and work counters are backend-independent. Each
/// iteration reads the clock once at entry and once at exit; that one
/// measurement is both [`IterationRecord::wall`] and the duration of the
/// iteration's `"bfs"` event on `ctx.tracer` (which carries the kernel
/// label, frontier density, unvisited count and work counters).
pub fn tile_bfs_with_workspace(
    g: &TileBfsGraph,
    source: usize,
    opts: BfsOptions,
    ws: &mut BfsWorkspace,
    ctx: &ExecCtx,
) -> Result<BfsResult, SparseError> {
    let tracer = ctx.tracer.as_deref();
    if source >= g.n {
        return Err(SparseError::IndexOutOfBounds {
            row: source,
            col: 0,
            nrows: g.n,
            ncols: 1,
        });
    }
    let analysis = if opts.verify {
        Some(verify::verify_bfs_plan(g, opts.kernels).map_err(crate::spmspv::verify::plan_error)?)
    } else {
        None
    };
    ws.prepare(g);
    let BfsWorkspace {
        x,
        m,
        y,
        unvisited,
        y_atomic,
        y_words,
        frontier,
        runs,
        ..
    } = ws;

    let n = g.n;
    let mut levels = vec![-1i32; n];
    levels[source] = 0;

    x.clear();
    x.set(source);
    m.clear();
    m.set(source);
    let mut visited = 1usize;

    let mut iterations = Vec::new();
    let mut total_stats = KernelStats::default();
    let mut level = 0u32;

    loop {
        let frontier_size = x.count_ones();
        if frontier_size == 0 {
            break;
        }
        let unvisited_count = n - visited;
        let density = frontier_size as f64 / n as f64;
        let unvisited_frac = unvisited_count as f64 / n as f64;
        let kernel = policy::choose(
            density,
            unvisited_frac,
            opts.kernels,
            g.symmetric(),
            opts.thresholds,
        );

        let start = Instant::now();
        let mut stats = match kernel {
            KernelKind::PushCsc => {
                y_atomic.clear();
                let s = push_csc::push_csc_into(ctx, &g.bit, x, m, frontier, y_atomic);
                y_atomic.copy_into(y_words);
                y.load_words(y_words);
                s
            }
            KernelKind::PushCsr => {
                y_atomic.clear();
                let s = push_csr::push_csr_into(ctx, &g.bit, x, m, &g.segments, y_atomic);
                y_atomic.copy_into(y_words);
                y.load_words(y_words);
                s
            }
            KernelKind::PullCsc => {
                m.complement_into(unvisited);
                let s = pull_csc::pull_csc_into(ctx, &g.bit, m, unvisited, y_words);
                y.load_words(y_words);
                s
            }
        };
        if g.bit.extra_nnz() > 0 {
            // Walk whichever side of the extracted edges is smaller: the
            // frontier's out-lists, or (where pulling is allowed) the
            // unvisited vertices' lists, one warp per vertex tile.
            if opts.kernels == KernelSet::All
                && g.symmetric()
                && unvisited_count + g.bit.n_tiles() < frontier_size
            {
                stats += extra_pull_into(ctx, &g.bit, x, m, y, y_words);
            } else {
                stats += extra_pass_into(ctx, &g.bit, x, m, y, frontier, y_atomic, y_words);
            }
        }
        let wall = start.elapsed();

        let discovered = y.count_ones();
        let info = IterationInfo {
            level: level + 1,
            frontier: frontier_size,
            discovered,
            unvisited: unvisited_count,
            density,
        };
        trace::iteration(tracer, kernel.trace_label(), Some(stats), info, start, wall);
        iterations.push(IterationRecord {
            level: level + 1,
            kernel,
            frontier: frontier_size,
            discovered,
            unvisited: unvisited_count,
            stats,
            wall,
        });
        total_stats += stats;

        if discovered == 0 {
            break;
        }
        level += 1;
        for v in y.iter_vertices() {
            levels[v] = level as i32;
        }
        visited += discovered;
        m.or_assign(y);
        std::mem::swap(x, y);
    }
    *runs += 1;

    Ok(BfsResult {
        levels,
        iterations,
        total_stats,
        analysis,
    })
}

/// Applies the extracted very-sparse edges for one iteration, in place on
/// `y`. The pass is frontier-driven (like the GSwitch traversal the paper
/// delegates this part to): only the out-lists of frontier vertices are
/// walked, each unvisited target joining `y`. `scratch` and `staging` are
/// caller-owned buffers of `n_tiles` words.
#[allow(clippy::too_many_arguments)]
fn extra_pass_into(
    ctx: &ExecCtx,
    bit: &BitTileMatrix,
    x: &BitFrontier,
    m: &BitFrontier,
    y: &mut BitFrontier,
    frontier: &mut Vec<u32>,
    scratch: &mut AtomicWords,
    staging: &mut [u64],
) -> KernelStats {
    let nt = y.nt();
    scratch.load_from(y.words());
    frontier.clear();
    frontier.extend(x.iter_vertices().map(|v| v as u32));
    let chunk = WARP_SIZE;
    let n_warps = frontier.len().div_ceil(chunk);
    let words = &*scratch;

    let stats = ctx.launch("bfs/extra-pass", n_warps, 0, |warp| {
        let start = warp.warp_id * chunk;
        let end = (start + chunk).min(frontier.len());
        for &c in &frontier[start..end] {
            warp.stats.read(4); // the frontier vertex (streamed)
            warp.stats.read_scattered(8); // extra_src_ptr probe
            let out = bit.extra_out(c as usize);
            warp.stats.read(out.len() * 4);
            for &r in out {
                let r = r as usize;
                warp.stats.read_scattered(8); // mask probe
                warp.read("mask", r / nt, 0);
                if !m.get(r) {
                    words.fetch_or(r / nt, 1u64 << (r % nt));
                    warp.stats.atomic(1);
                    warp.rmw("y-frontier", r / nt, 0);
                }
            }
            warp.stats.lane_steps += out.len().div_ceil(WARP_SIZE) as u64 * WARP_SIZE as u64;
        }
    });

    words.copy_into(staging);
    y.load_words(staging);
    stats
}

/// The pull form of [`extra_pass_into`], for symmetric patterns only. There
/// the extracted edges are symmetric too: a tile and its mirror hold equally
/// many entries, so both or neither are extracted, and the list of `r` also
/// holds the vertices with an extracted edge into `r`. One warp per output
/// word tests only the unvisited vertices the tile kernel did not find,
/// each stopping at its first extracted neighbor in the frontier. The
/// driver picks it when the unvisited vertices plus one warp per tile are
/// fewer than the frontier vertices, where the push form walks frontier
/// lists whose targets are all visited. `staging` is a caller-owned buffer
/// of `n_tiles` words.
fn extra_pull_into(
    ctx: &ExecCtx,
    bit: &BitTileMatrix,
    x: &BitFrontier,
    m: &BitFrontier,
    y: &mut BitFrontier,
    staging: &mut [u64],
) -> KernelStats {
    let nt = y.nt();
    let word_bytes = nt / 8;
    staging.copy_from_slice(y.words());

    let stats = ctx.launch_over_chunks("bfs/extra-pull", staging, 1, 0, |warp, out| {
        let rt = warp.warp_id;
        // Each warp owns its output word: a plain exclusive store.
        warp.write("y-words", rt, 0);
        warp.read("mask", rt, 0);
        let open = !m.word(rt) & m.tile_valid_mask(rt) & !out[0];
        warp.stats.read(2 * word_bytes); // mask word + the tile kernel's word
        warp.stats.bitop(2);
        let mut found = 0u64;
        for lr in iter_bits(open) {
            warp.stats.read(8); // extra_src_ptr (ascending vertices: streamed)
            let mut steps = 0usize;
            for &c in bit.extra_out(rt * nt + lr) {
                let c = c as usize;
                steps += 1;
                warp.read("frontier", c / nt, 0);
                if x.get(c) {
                    found |= 1u64 << lr;
                    break; // one parent in the frontier is enough
                }
            }
            warp.stats.read(steps * 4);
            warp.stats.read_scattered(steps * word_bytes); // frontier probes
            warp.stats.lane_steps += steps as u64;
        }
        if found != 0 {
            out[0] |= found;
            warp.stats.write(word_bytes);
        }
    });

    y.load_words(staging);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsv_sparse::gen::{geometric_graph, grid2d, rmat, RmatConfig};
    use tsv_sparse::reference::bfs_levels;
    use tsv_sparse::CooMatrix;

    fn assert_levels_match(a: &CsrMatrix<f64>, source: usize, opts: BfsOptions) {
        let g = TileBfsGraph::from_csr(a).unwrap();
        let result = tile_bfs(&g, source, opts).unwrap();
        let expect = bfs_levels(a, source).unwrap();
        assert_eq!(result.levels, expect, "kernels {:?}", opts.kernels);
    }

    #[test]
    fn matches_serial_bfs_on_grid() {
        let a = grid2d(20, 15).to_csr().without_diagonal();
        for set in [KernelSet::PushCscOnly, KernelSet::PushOnly, KernelSet::All] {
            assert_levels_match(
                &a,
                0,
                BfsOptions {
                    kernels: set,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn matches_serial_bfs_on_powerlaw() {
        let a = rmat(RmatConfig::new(9, 8), 3).to_csr();
        // Pick a source with outgoing edges.
        let source = (0..a.nrows()).find(|&v| a.row_nnz(v) > 0).unwrap();
        for set in [KernelSet::PushCscOnly, KernelSet::PushOnly, KernelSet::All] {
            assert_levels_match(
                &a,
                source,
                BfsOptions {
                    kernels: set,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn matches_serial_bfs_on_road_like_graph() {
        let a = geometric_graph(600, 4.0, 9).to_csr();
        let source = (0..a.nrows()).find(|&v| a.row_nnz(v) > 0).unwrap();
        assert_levels_match(&a, source, BfsOptions::default());
    }

    #[test]
    fn matches_serial_bfs_with_extraction() {
        let a = rmat(RmatConfig::new(8, 3), 7).to_csr();
        let g = TileBfsGraph::with_params(&a, 32, 3).unwrap();
        assert!(g.bit().extra_nnz() > 0);
        let source = (0..a.nrows()).find(|&v| a.row_nnz(v) > 0).unwrap();
        let result = tile_bfs(&g, source, BfsOptions::default()).unwrap();
        assert_eq!(result.levels, bfs_levels(&a, source).unwrap());
    }

    #[test]
    fn extra_pull_matches_extra_push_on_symmetric_graphs() {
        // Both forms of the extracted-edge pass must add the same vertices
        // to a tile kernel's output, over visited masks `m ⊇ x` of every
        // density.
        let a = rmat(RmatConfig::new(9, 3), 11).to_csr();
        let g = TileBfsGraph::with_params(&a, 32, 3).unwrap();
        assert!(g.symmetric() && g.bit().extra_nnz() > 0);
        let n = g.n();
        let mut staging = vec![0u64; g.bit().n_tiles()];
        let mut scratch = AtomicWords::zeroed(g.bit().n_tiles());
        let mut list = Vec::new();
        for (cut, stride) in [(0usize, 3usize), (n / 3, 2), (n / 2, 5), (n - 20, 1)] {
            let mut x = BitFrontier::new(n, 32);
            let mut m = BitFrontier::new(n, 32);
            for v in 0..cut {
                m.set(v);
                if v % stride == 0 {
                    x.set(v);
                }
            }
            let (tile_y, _) = push_csr::push_csr(&g.bit, &x, &m);
            let mut pushed = tile_y.clone();
            let ctx = ExecCtx::default();
            extra_pass_into(
                &ctx,
                &g.bit,
                &x,
                &m,
                &mut pushed,
                &mut list,
                &mut scratch,
                &mut staging,
            );
            let mut pulled = tile_y.clone();
            extra_pull_into(&ctx, &g.bit, &x, &m, &mut pulled, &mut staging);
            assert_eq!(pulled, pushed, "cut {cut} stride {stride}");
        }
    }

    #[test]
    fn directed_graph_disables_pull_and_stays_correct() {
        // Directed cycle: asymmetric pattern.
        let n = 50;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push((i + 1) % n, i, 1.0);
        }
        let a = coo.to_csr();
        let g = TileBfsGraph::from_csr(&a).unwrap();
        assert!(!g.symmetric());
        let r = tile_bfs(&g, 0, BfsOptions::default()).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, 0).unwrap());
        assert!(r
            .iterations
            .iter()
            .all(|it| it.kernel != KernelKind::PullCsc));
    }

    #[test]
    fn pull_kernel_engages_near_the_end() {
        // Dense frontier + nearly-complete coverage triggers K3 on a small
        // symmetric graph when thresholds are loose.
        let a = grid2d(30, 30).to_csr().without_diagonal();
        let g = TileBfsGraph::from_csr(&a).unwrap();
        let opts = BfsOptions {
            kernels: KernelSet::All,
            thresholds: PolicyThresholds {
                push_csc_density: 0.01,
                pull_unvisited_frac: 0.5,
            },
            ..Default::default()
        };
        let r = tile_bfs(&g, 0, opts).unwrap();
        assert_eq!(r.levels, bfs_levels(&a, 0).unwrap());
        assert!(
            r.iterations
                .iter()
                .any(|it| it.kernel == KernelKind::PullCsc),
            "expected at least one pull iteration"
        );
    }

    #[test]
    fn unreachable_vertices_keep_minus_one() {
        let mut coo = CooMatrix::new(70, 70);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(5, 6, 1.0);
        coo.push(6, 5, 1.0);
        let a = coo.to_csr();
        let g = TileBfsGraph::from_csr(&a).unwrap();
        let r = tile_bfs(&g, 0, BfsOptions::default()).unwrap();
        assert_eq!(r.reached(), 2);
        assert_eq!(r.levels[5], -1);
    }

    #[test]
    fn trace_records_iterations() {
        let a = grid2d(10, 10).to_csr().without_diagonal();
        let g = TileBfsGraph::from_csr(&a).unwrap();
        let r = tile_bfs(&g, 0, BfsOptions::default()).unwrap();
        // 10x10 grid from a corner: 18 levels.
        let max_level = *r.levels.iter().max().unwrap() as usize;
        assert_eq!(max_level, 18);
        assert!(r.iterations.len() >= max_level);
        assert_eq!(
            r.iterations.iter().map(|i| i.discovered).sum::<usize>(),
            r.reached() - 1
        );
        assert!(r.wall() > Duration::ZERO);
        assert!(r.total_stats.warps > 0);
    }

    #[test]
    fn invalid_source_rejected() {
        let a = grid2d(4, 4).to_csr();
        let g = TileBfsGraph::from_csr(&a).unwrap();
        assert!(tile_bfs(&g, 99, BfsOptions::default()).is_err());
    }

    #[test]
    fn workspace_reuse_matches_one_shot() {
        let a = grid2d(20, 15).to_csr().without_diagonal();
        let g = TileBfsGraph::from_csr(&a).unwrap();
        assert!(!g.csr_segments().is_empty());
        let mut ws = BfsWorkspace::new();
        let ctx = ExecCtx::default();
        let r1 = tile_bfs_with_workspace(&g, 0, BfsOptions::default(), &mut ws, &ctx).unwrap();
        let r2 = tile_bfs_with_workspace(&g, 5, BfsOptions::default(), &mut ws, &ctx).unwrap();
        let one1 = tile_bfs(&g, 0, BfsOptions::default()).unwrap();
        let one2 = tile_bfs(&g, 5, BfsOptions::default()).unwrap();
        assert_eq!(r1.levels, one1.levels);
        assert_eq!(r2.levels, one2.levels);
        assert_eq!(r1.total_stats, one1.total_stats);
        assert_eq!(r2.total_stats, one2.total_stats);
        assert_eq!(ws.runs(), 2);
        assert_eq!(ws.reallocs(), 1, "second run must reuse the buffers");
    }

    #[test]
    fn bfs_rule_picks_tile_size_by_order() {
        let small = grid2d(10, 10).to_csr();
        let g = TileBfsGraph::from_csr(&small).unwrap();
        assert_eq!(g.bit().nt(), 32);
    }
}
