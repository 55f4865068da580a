//! Comparator implementations for the TileSpMSpV evaluation (§4.1).
//!
//! Every algorithm the paper measures against is implemented here on the
//! same SIMT substrate as TileSpMSpV/TileBFS, so comparisons reflect the
//! algorithms rather than the harness:
//!
//! * [`tilespmv`] — TileSpMV (Niu et al., IPDPS '21): the same tiled
//!   storage, but a dense-vector SpMV that must touch every stored tile.
//! * [`bsr`] — cuSPARSE `bsrmv` stand-in: Block Sparse Row with dense
//!   `nt × nt` blocks, padding every non-empty block with zeros.
//! * [`combblas`] — the SpMSpV-bucket algorithm of CombBLAS (Azad & Buluç,
//!   IPDPS '17): column gather into row-range buckets, then per-bucket
//!   merge.
//! * [`gunrock`] — Gunrock-style BFS: frontier-queue advance/filter with
//!   Beamer direction switching.
//! * [`gswitch`] — GSwitch-style BFS: per-iteration strategy selection
//!   among sparse push, dense push and pull, driven by a cost model.
//! * [`enterprise`] — Enterprise-style BFS: out-degree-classified frontier
//!   bins with per-bin granularity, plus direction switching.

#![forbid(unsafe_code)]

pub mod bfs_common;
pub mod bsr;
pub mod combblas;
pub mod enterprise;
pub mod gswitch;
pub mod gunrock;
pub mod tilespmv;

/// The threads the comparators cut their work for: combblas's buckets
/// and scatter chunks, the BFS baselines' chunk sizes and bc's source
/// chunks (`tsv-apps`). The chunks run one after another, so the count
/// changes no speed, only the work counters (`KernelStats::warps`) and
/// the order bc sums its floating-point partials in. It is fixed, so that
/// both are the same on every host; 2 is the core count of the host that
/// recorded the committed `results/`.
pub const CHUNK_THREADS: usize = 2;

pub use bfs_common::BaselineBfsResult;
pub use bsr::BsrMatrix;
pub use combblas::bucket_spmspv;
pub use enterprise::enterprise_bfs;
pub use gswitch::gswitch_bfs;
pub use gunrock::gunrock_bfs;
pub use tilespmv::{tile_spmv, tile_spmv_into};
