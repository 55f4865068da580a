//! Launches big enough to split: on inputs whose work estimates cross the native backend's gate ([`SPLIT_WORK`], 2^16 =
//! 65 536 tile entries' worth of work), every output bit, every
//! `KernelStats` counter and the sanitizer's counts are the same on
//! `model`, `native:1`, `native:2` and `native:4`. The conformance zoo is
//! too small to cross the gate, so these inputs are sized for it:
//!
//! * SpMSpV on a band: a 24 576-row band of half-width 16, 80% filled
//!   (~650 k entries), times a vector of density 0.5. Every column tile of
//!   `x` is occupied, so the row-tile launch's estimate — the column tiles
//!   `x` opens at the average entries per tile — is about every tiled
//!   entry, far above the gate. The band has no side COO.
//! * SpMSpV on a web graph of 32 768 rows, about a quarter of whose
//!   entries sit in the side COO: single lanes at densities 0.1 and 0.01,
//!   and batches of the paper's Figure 6 densities of width 1, 2, 5 and
//!   8. Between them they split the row-tile launch and the side-COO
//!   pass, and the test checks that both estimates reach the gate.
//! * BFS: a scale-15 R-MAT graph (~900 k edges, 32 768 vertices), whose
//!   sweeps visit more edges than the gate. BFS launches pass no estimate
//!   and run on the calling thread on every backend (split BFS launches
//!   measured slower), so this checks that a graph above the gate keeps
//!   its levels and counters on native backends too.
//!
//! Each test first checks that its input is above the gate.

use std::sync::Arc;
use tilespmspv::core::bfs::TileBfsGraph;
use tilespmspv::core::exec::{BfsEngine, SpMSpVEngine};
use tilespmspv::core::semiring::PlusTimes;
use tilespmspv::core::spmspv::generic::{coo_pass_work, opened_entries};
use tilespmspv::core::tile::{TileConfig, TiledVector};
use tilespmspv::simt::sanitize::Sanitizer;
use tilespmspv::simt::{ExecBackend, KernelStats, SPLIT_WORK};
use tilespmspv::sparse::gen::{banded, random_sparse_vector, rmat, webgraph, RmatConfig};
use tilespmspv::sparse::SparseVector;

fn backends() -> [ExecBackend; 4] {
    [
        ExecBackend::model(),
        ExecBackend::native(Some(1)),
        ExecBackend::native(Some(2)),
        ExecBackend::native(Some(4)),
    ]
}

/// Indices and value bits of a sparse vector.
fn bits(y: &SparseVector<f64>) -> (Vec<u32>, Vec<u64>) {
    (
        y.indices().to_vec(),
        y.values().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn split_spmspv_launches_keep_plus_times_bits_stats_and_sanitizer_counts() {
    let n = 24_576;
    let a = banded(n, 16, 0.8, 3).to_csr();
    let mut engine = SpMSpVEngine::<PlusTimes>::from_csr(&a, TileConfig::default()).unwrap();
    let xs = [
        random_sparse_vector(n, 0.5, 11),
        random_sparse_vector(n, 0.5, 12),
    ];
    let tiles = engine.matrix();
    let opened = opened_entries(tiles, [&TiledVector::from_sparse(&xs[0], tiles.nt())]);
    assert!(
        opened >= SPLIT_WORK,
        "{opened} entries do not cross the gate"
    );

    type Run = (
        (Vec<u32>, Vec<u64>),
        KernelStats,
        Vec<(Vec<u32>, Vec<u64>)>,
        KernelStats,
    );
    let mut reference: Option<(Run, (u64, u64, u64))> = None;
    for backend in backends() {
        let san = Arc::new(Sanitizer::new());
        let ctx = engine.ctx_mut();
        ctx.backend = backend.clone();
        ctx.sanitizer = Some(Arc::clone(&san));
        let (y, single) = engine.multiply(&xs[0]).unwrap();
        let (ys, batch) = engine.multiply_batch(&xs).unwrap();
        assert_eq!(
            ys[0], y,
            "{backend:?}: a batch lane equals its single multiply"
        );
        let run = (
            bits(&y),
            single.stats,
            ys.iter().map(bits).collect(),
            batch.stats,
        );
        let s = san.summary();
        let counts = (s.launches, s.accesses, s.violations);
        assert_eq!(s.violations, 0, "{backend:?}");
        match &reference {
            None => reference = Some((run, counts)),
            Some((r, c)) => {
                assert!(
                    run == *r,
                    "{backend:?}: output bits or stats differ from model"
                );
                assert_eq!(
                    counts, *c,
                    "{backend:?}: sanitizer counts differ from model"
                );
            }
        }
    }
}

/// One backend's run of the web-graph test: per single lane its output
/// bits and counters, per batch its lanes' bits and counters.
type WebRun = (
    Vec<((Vec<u32>, Vec<u64>), KernelStats)>,
    Vec<(Vec<(Vec<u32>, Vec<u64>)>, KernelStats)>,
);

#[test]
fn split_launches_on_a_web_graph_with_a_side_coo_keep_bits_stats_and_sanitizer_counts() {
    let n = 32_768;
    let a = webgraph(n, 24.0, 0.8, 50, 7).to_csr();
    let mut engine = SpMSpVEngine::<PlusTimes>::from_csr(&a, TileConfig::default()).unwrap();
    let singles = [
        random_sparse_vector(n, 0.1, 21),
        random_sparse_vector(n, 0.01, 22),
    ];
    // Figure 6's densities, in the order a pool of them repeats.
    let mixed: Vec<_> = (0..8)
        .map(|i| random_sparse_vector(n, [0.1, 0.01, 0.001, 0.0001][i % 4], 30 + i as u64))
        .collect();
    let batches = [&mixed[..1], &mixed[..2], &mixed[..5], &mixed[..]];

    let tiles = engine.matrix();
    assert!(tiles.extra().nnz() * 5 > a.nnz(), "a fifth in the side COO");
    let dense_lane = &singles[0];
    let opened = opened_entries(tiles, [&TiledVector::from_sparse(dense_lane, tiles.nt())]);
    assert!(opened >= SPLIT_WORK, "row-tile launch: {opened} entries");
    let coo = coo_pass_work(tiles, dense_lane);
    assert!(coo >= SPLIT_WORK, "COO pass: {coo} below the gate");

    let mut reference: Option<(WebRun, (u64, u64, u64))> = None;
    for backend in backends() {
        let san = Arc::new(Sanitizer::new());
        let ctx = engine.ctx_mut();
        ctx.backend = backend.clone();
        ctx.sanitizer = Some(Arc::clone(&san));
        let mut run: WebRun = (Vec::new(), Vec::new());
        for x in &singles {
            let (y, report) = engine.multiply(x).unwrap();
            run.0.push((bits(&y), report.stats));
        }
        for xs in batches {
            let (ys, report) = engine.multiply_batch(xs).unwrap();
            run.1.push((ys.iter().map(bits).collect(), report.stats));
        }
        assert_eq!(
            run.1[0].0[0], run.1[1].0[0],
            "{backend:?}: lane 0 at widths 1 and 2"
        );
        let s = san.summary();
        let counts = (s.launches, s.accesses, s.violations);
        assert_eq!(s.violations, 0, "{backend:?}");
        match &reference {
            None => reference = Some((run, counts)),
            Some((r, c)) => {
                for (i, (got, want)) in run.0.iter().zip(&r.0).enumerate() {
                    assert!(got == want, "{backend:?}: single {i} differs from model");
                }
                for (i, (got, want)) in run.1.iter().zip(&r.1).enumerate() {
                    assert!(got == want, "{backend:?}: batch {i} differs from model");
                }
                assert_eq!(
                    counts, *c,
                    "{backend:?}: sanitizer counts differ from model"
                );
            }
        }
    }
}

#[test]
fn bfs_above_the_gate_stays_inline_and_keeps_levels_and_stats() {
    let a = rmat(RmatConfig::new(15, 16), 5).to_csr();
    assert!(
        a.nnz() >= SPLIT_WORK,
        "{} edges are below the gate",
        a.nnz()
    );
    let n = a.nrows();
    let source = (0..n).max_by_key(|&v| a.row_nnz(v)).unwrap();
    let mut engine = BfsEngine::new(TileBfsGraph::from_csr(&a).unwrap());

    let mut reference = None;
    for backend in backends() {
        engine.ctx_mut().backend = backend.clone();
        let r = engine.run(source).unwrap();
        let per_level: Vec<_> = r
            .iterations
            .iter()
            .map(|it| (it.kernel, it.discovered, it.stats))
            .collect();
        let run = (r.levels, per_level, r.total_stats);
        match &reference {
            None => reference = Some(run),
            Some(reference) => assert!(run == *reference, "{backend:?} differs from model"),
        }
    }
}
