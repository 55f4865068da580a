//! Set-up in parts: MatrixMarket ingest, the CSR build and the tile
//! conversions give the same bits at every part count.
//!
//! A set-up layer splits over host threads only when its input reaches
//! [`SETUP_SPLIT`] entries, and there is no knob to force it. These tests
//! call each layer's `*_in_parts` entry point with an explicit part count
//! instead, so the split runs at 1, 2, 3 and 4 parts on inputs of any
//! size: perfbench's three generators (banded, web graph, R-MAT) at a
//! fraction of its order, and the conformance zoo, whose directed
//! patterns build their bit tiles from the transpose. The error cases of a
//! split ingest live with the reader (`crates/sparse/src/io.rs`), which
//! can place a bad line in a chosen part.

mod common;

use tilespmspv::core::bfs::TileBfsGraph;
use tilespmspv::core::tile::{TileConfig, TileMatrix, TileSize};
use tilespmspv::simt::SETUP_SPLIT;
use tilespmspv::sparse::gen::{banded, rmat, webgraph, RmatConfig};
use tilespmspv::sparse::io::{read_matrix_market_in_parts, write_matrix_market_to};
use tilespmspv::sparse::{CooMatrix, CsrMatrix};

/// The inputs: the three generators of perfbench's workloads, then the
/// conformance zoo, each as a COO matrix in the order a file lists it.
fn inputs() -> Vec<(String, CooMatrix<f64>)> {
    let mut all = vec![
        ("banded".to_string(), banded(3000, 16, 0.8, 11)),
        ("web".to_string(), webgraph(3000, 24.0, 0.8, 50, 12)),
        ("rmat".to_string(), rmat(RmatConfig::new(11, 8), 13)),
    ];
    for (name, csr) in common::conformance_zoo() {
        all.push((name, csr.to_coo()));
    }
    all
}

/// Two tile configurations: the default, and 32-wide tiles with more
/// extracted and more dense tiles.
fn configs() -> [TileConfig; 2] {
    [
        TileConfig::default(),
        TileConfig {
            tile_size: TileSize::S32,
            extract_threshold: 4,
            dense_threshold: 0.5,
        },
    ]
}

#[test]
fn every_setup_layer_is_bit_identical_at_every_part_count() {
    for (name, coo) in inputs() {
        assert!(coo.nnz() < SETUP_SPLIT, "{name} runs one part by default");
        let mut mtx = Vec::new();
        write_matrix_market_to(&mut mtx, &coo).unwrap();
        let coo = read_matrix_market_in_parts(&mtx[..], Some(1)).unwrap();
        let csr = CsrMatrix::from_coo_in_parts(&coo, 1);
        assert_eq!(csr, coo.to_csr(), "{name}: one part is the default");
        let tiles: Vec<_> = configs()
            .map(|cfg| TileMatrix::from_csr_in_parts(&csr, cfg, 1))
            .into();
        let square = csr.nrows() == csr.ncols();
        let bfs = square.then(|| format!("{:?}", TileBfsGraph::from_csr_in_parts(&csr, 1)));
        for parts in 2..=4 {
            let split = read_matrix_market_in_parts(&mtx[..], Some(parts)).unwrap();
            assert_eq!(split, coo, "{name}: COO in {parts} parts");
            let split = CsrMatrix::from_coo_in_parts(&coo, parts);
            assert_eq!(split, csr, "{name}: CSR in {parts} parts");
            let bits =
                |m: &CsrMatrix<f64>| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&split), bits(&csr), "{name}: CSR value bits");
            for (cfg, one) in configs().into_iter().zip(&tiles) {
                let split = TileMatrix::from_csr_in_parts(&csr, cfg, parts);
                assert_eq!(&split, one, "{name}: tiles {cfg:?} in {parts} parts");
                assert_eq!(split.to_csr(), csr, "{name}: lossless");
            }
            if let Some(one) = &bfs {
                let split = TileBfsGraph::from_csr_in_parts(&csr, parts);
                assert_eq!(
                    &format!("{split:?}"),
                    one,
                    "{name}: bit tiles in {parts} parts"
                );
            }
        }
    }
}
