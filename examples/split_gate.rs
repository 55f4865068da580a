//! Split gate check: what an empty split costs, and how much a `native:2`
//! engine, which splits every launch whose work estimate reaches
//! [`SPLIT_WORK`], gains over a `model` engine, which splits nothing, on
//! the two SpMSpV inputs of the perfbench benchmark.
//!
//! The empty split is [`run_parts`] over two parts that do nothing: the
//! median of 2000 back to back ("hot"), and of 200 each timed right after
//! ~3 ms of single-threaded random writes over 8 MiB, as a perfbench query
//! follows its serial reference run ("after work").
//!
//! Both inputs are perfbench's, at its seed 7: the FEM-class band and the
//! host-structured web graph of 32 768 rows, and a pool of 200 query
//! vectors at the four densities of the paper's Figure 6. Every multiply
//! is followed by the serial CSR reference kernel, as in perfbench, so
//! each query starts with the caches and the second core in the state a
//! benchmark query meets. The two engines alternate query by query, and
//! each query keeps its best time over the rounds.
//!
//! It prints, per density, the median over the pool's queries of their
//! best times on each engine, and for the whole pool the reference's time
//! over the engine's (perfbench's `query_speedup`). To re-check a gate,
//! change [`SPLIT_WORK`] and compare the `native:2` column with the
//! `model` one: a density whose launches cross the gate should read
//! faster split, and one below it as fast as `model`.
//!
//! Run with `cargo run --release --example split_gate` (about 10 s).
//! Split timings depend on the host; report them with its core count.

use std::time::Instant;
use tilespmspv::core::exec::SpMSpVEngine;
use tilespmspv::core::semiring::PlusTimes;
use tilespmspv::core::tile::{TileConfig, TileMatrix};
use tilespmspv::simt::{host_threads, run_parts, ExecBackend, SPLIT_WORK};
use tilespmspv::sparse::gen::{banded, random_sparse_vector, webgraph};
use tilespmspv::sparse::{reference, CooMatrix, SparseVector};

/// Matrix order, as in perfbench.
const N: usize = 32_768;
/// Query vectors in the pool; slot `i` takes `DENSITIES[i % 4]`.
const POOL: usize = 200;
/// The four vector densities of the paper's Figure 6.
const DENSITIES: [f64; 4] = [0.1, 0.01, 0.001, 0.0001];
/// Passes over the pool; each query keeps its best time.
const ROUNDS: usize = 4;
/// perfbench's default seed.
const SEED: u64 = 7;

/// perfbench's seed of input stream `i` (one splitmix64 step).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// µs of one [`run_parts`] over two empty parts.
fn empty_split() -> f64 {
    let start = Instant::now();
    std::hint::black_box(run_parts(0..2, std::hint::black_box));
    start.elapsed().as_secs_f64() * 1e6
}

/// Random single-threaded writes over `buf` for `ms` milliseconds.
fn random_writes(buf: &mut [u64], ms: u64) {
    let start = Instant::now();
    let mut state = SEED;
    while start.elapsed().as_millis() < u128::from(ms) {
        for _ in 0..1024 {
            state = mix(state, 0);
            let i = (state % buf.len() as u64) as usize;
            buf[i] = buf[i].wrapping_add(state);
        }
    }
    std::hint::black_box(buf);
}

fn main() {
    println!("split gate: SPLIT_WORK = {SPLIT_WORK} estimated tile entries");
    let hot = median((0..2000).map(|_| empty_split()).collect());
    let mut buf = vec![0u64; (8 << 20) / 8];
    let after_work = median(
        (0..200)
            .map(|_| {
                random_writes(&mut buf, 3);
                empty_split()
            })
            .collect(),
    );
    println!(
        "empty split ({} hardware threads): hot {hot:.1} µs, after work {after_work:.1} µs",
        host_threads()
    );
    let inputs: [(&str, CooMatrix<f64>); 2] = [
        ("spmspv-fem", banded(N, 16, 0.8, mix(SEED, 0))),
        ("spmspv-web", webgraph(N, 24.0, 0.8, 50, mix(SEED, 0))),
    ];
    for (name, coo) in inputs {
        let csr = coo.to_csr();
        let tiles = TileMatrix::from_csr(&csr, TileConfig::default()).expect("generated matrix");
        let pool: Vec<SparseVector<f64>> = (0..POOL)
            .map(|i| random_sparse_vector(N, DENSITIES[i % 4], mix(SEED, 1 + i as u64)))
            .collect();
        let backends = [ExecBackend::model(), ExecBackend::native(Some(2))];
        let mut engines = backends.clone().map(|backend| {
            let mut engine = SpMSpVEngine::<PlusTimes>::new(tiles.clone());
            engine.ctx_mut().backend = backend;
            engine
        });
        // Best µs per query: the engines', then the reference's.
        let mut best = [[f64::INFINITY; POOL]; 3];
        for round in 0..ROUNDS {
            for (q, x) in pool.iter().enumerate() {
                let mut outputs = Vec::with_capacity(2);
                for k in 0..2 {
                    let e = (k + q + round) % 2;
                    let start = Instant::now();
                    let (y, _) = engines[e].multiply(x).expect("pool vectors fit");
                    best[e][q] = best[e][q].min(start.elapsed().as_secs_f64() * 1e6);
                    outputs.push(y);
                    let start = Instant::now();
                    std::hint::black_box(reference::spmspv_row(&csr, x).expect("pool vectors fit"));
                    best[2][q] = best[2][q].min(start.elapsed().as_secs_f64() * 1e6);
                }
                assert_eq!(outputs[0], outputs[1], "{name}: query {q} differs");
            }
        }
        println!("{name}: best-of-{ROUNDS} µs, median over each density's queries");
        println!("  density      model   native:2  native/model");
        for (d, density) in DENSITIES.iter().enumerate() {
            let of = |e: usize| median(best[e].iter().skip(d).step_by(4).copied().collect());
            let (m, n) = (of(0), of(1));
            println!("  {density:<8} {m:>9.1} {n:>10.1} {:>13.3}", n / m);
        }
        let total = |e: usize| best[e].iter().sum::<f64>();
        println!(
            "  pool reference/engine: model {:.3}, {} {:.3}",
            total(2) / total(0),
            backends[1].describe(),
            total(2) / total(1)
        );
    }
}
