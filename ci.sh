#!/usr/bin/env bash
# Local CI: the same gate the GitHub workflow runs.
# The workspace has no registry dependency and builds offline from its
# committed Cargo.lock; only loom-model/ needs a reachable crates.io
# registry, for loom.
set -euo pipefail
cd "$(dirname "$0")"

# Dependency gate: no workspace manifest may name a registry dependency
# (path dependencies, such as the `proptest` harness in crates/proptest,
# are the workspace's own code).
cargo metadata --no-deps --format-version 1 | python3 -c '
import json, sys
bad = sorted(
    "%s: %s (%s)" % (p["name"], d["name"], d["source"])
    for p in json.load(sys.stdin)["packages"]
    for d in p["dependencies"]
    if d["source"] is not None
)
sys.exit("registry dependencies:\n  " + "\n  ".join(bad) if bad else 0)
'

# Unsafe-code gate: every crate's lib.rs forbids unsafe code, except
# tsv-simt's, which denies it and allows it in one module, the split's
# helper-thread pool. Only that module may hold `unsafe`, each use with a
# `// SAFETY:` comment right above it, and its tests run in release mode.
python3 -c '
import re, subprocess, sys
files = subprocess.run(
    ["git", "ls-files", "--cached", "--others", "--exclude-standard", "*.rs"],
    capture_output=True, text=True, check=True,
).stdout.split()
pool = "crates/simt/src/split/pool.rs"
bad = []
for lib in ["src/lib.rs"] + sorted(f for f in files if re.fullmatch(r"crates/[^/]+/src/lib\.rs", f)):
    want = "#![deny(unsafe_code)]" if lib == "crates/simt/src/lib.rs" else "#![forbid(unsafe_code)]"
    if want not in open(lib).read().splitlines():
        bad.append("%s: no %s" % (lib, want))
for f in files:
    lines = open(f).read().splitlines()
    for i, line in enumerate(lines):
        code = line.split("//")[0]
        if "allow(unsafe_code)" in code and (f, lines[i + 1].strip()) != ("crates/simt/src/split.rs", "mod pool;"):
            bad.append("%s:%d: allows unsafe code outside the pool module" % (f, i + 1))
        if not re.search(r"\bunsafe\b", code):
            continue
        if f != pool:
            bad.append("%s:%d: unsafe outside %s" % (f, i + 1, pool))
            continue
        j = i - 1
        while j >= 0 and lines[j].strip().startswith("//") and not lines[j].strip().startswith("// SAFETY:"):
            j -= 1
        if j < 0 or not lines[j].strip().startswith("// SAFETY:"):
            bad.append("%s:%d: unsafe without a // SAFETY: comment" % (f, i + 1))
sys.exit("unsafe-code gate:\n  " + "\n  ".join(bad) if bad else 0)
'
cargo test --release -q -p tsv-simt split

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc warnings (broken or ambiguous intra-doc links) fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release --workspace
cargo test -q --workspace

# The benchmark package is a workspace of its own (path dependencies on the
# library crates, third-party crates patched to the offline stand-ins), so
# the workspace build above never compiles it. Build it here so that a
# library API change cannot break the benchmark unnoticed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# Benchmark correctness smoke: one short run of every workload, which
# checks the n=32768 engines' answers against the CSR reference on the
# native backend (the only place those sizes are checked). The result's
# last line must report `"correct": true`. The target directory is the
# one the build above filled, so nothing recompiles.
for workload in spmspv-fem spmspv-web bfs-kron; do
    CARGO_TARGET_DIR=perfbench/target python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 1 | tail -n 1 | grep -q '"correct": true'
done

# Per-layer benchmark smoke: a traced run reports the set-up layers
# (MatrixMarket ingest, CSR build, tile conversion) next to the kernel
# spans, and must still check its answers.
layers="$(CARGO_TARGET_DIR=perfbench/target python3 perfbench/run.py \
    --workload bfs-kron --seed 1 --seconds 1 --trace 1 | tail -n 1)"
echo "$layers" | grep -q '"tile_convert_ms"'
echo "$layers" | grep -q '"correct": true'

# Telemetry smoke: an instrumented run must emit a Chrome trace and a run
# summary that parse back with at least one kernel span. `repro trace`
# validates both documents itself and exits nonzero on any failure; the
# grep double-checks the kernel-span count from the outside.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
./target/release/repro trace --scale tiny --out "$trace_dir" | tee "$trace_dir/log"
grep -E 'validated: [0-9]+ events \([1-9][0-9]* kernel spans\)' "$trace_dir/log" >/dev/null
test -s "$trace_dir/trace.json" && test -s "$trace_dir/trace.summary.json"

# Bench regression gate and perf-trajectory report: regenerate the
# machine-readable tables at tiny scale, diff every row's modeled device
# time against the committed baselines, and render the diff to REPORT.md.
# The modeled times are deterministic functions of the kernels' work
# counters, so a >25% drift is a real change in counted work, not
# measurement noise. Exits nonzero on any regressed or vanished row, after
# writing the report. Native SpMSpV/BFS bit-identity with the model and
# the batched table's 1.5x geomean floor are asserted inside the binary;
# the batched table itself is never diffed against a baseline.
./target/release/repro bench --scale tiny --out "$trace_dir" --check results/baselines
test -s "$trace_dir/REPORT.md" && test -s "$trace_dir/BENCH_batched.json"

# Metrics smoke: a run with --metrics-out must emit a valid Prometheus
# exposition of its trace (the one launch under its kernel label, plus
# the phase histograms), and --report must print the roofline
# utilization table. The table's rows and the exposition are views of
# the run's trace, so a BFS and a batched multiply must each expose and
# print their own kernel rows too.
./target/release/tsv spmspv gen:rmat:10 --sparsity 0.05 \
    --metrics-out "$trace_dir/metrics.prom" --report | tee "$trace_dir/mlog"
grep 'utilization:' "$trace_dir/mlog" >/dev/null
grep -Fx 'tsv_kernel_launches_total{kernel="spmspv/row-tile"} 1' "$trace_dir/metrics.prom" >/dev/null
grep 'tsv_engine_phase_ns' "$trace_dir/metrics.prom" >/dev/null
./target/release/tsv bfs gen:grid:40:40 --metrics-out "$trace_dir/bfs.prom" >/dev/null
grep -F 'tsv_kernel_launches_total{kernel="bfs/' "$trace_dir/bfs.prom" >/dev/null
./target/release/tsv bfs gen:grid:40:40 --report | grep -E '^bfs/[a-z-]+ +[0-9]' >/dev/null
./target/release/tsv spmspv gen:rmat:10 --batch 4 --report \
    | grep -E '^spmspv/row-tile-batched +[0-9]' >/dev/null

# Ingest round-trip smoke: a generated matrix written as MatrixMarket, a
# copy of it with CRLF line endings, and that copy converted back must be
# byte-identical to the first file. The banded generator lists its rows
# out of order, so the CSR build runs its row scatter.
./target/release/tsv convert gen:banded:20000:16 "$trace_dir/a.mtx" >/dev/null
sed 's/$/\r/' "$trace_dir/a.mtx" > "$trace_dir/a_crlf.mtx"
./target/release/tsv convert "$trace_dir/a_crlf.mtx" "$trace_dir/b.mtx" >/dev/null
cmp "$trace_dir/a.mtx" "$trace_dir/b.mtx"

# Split set-up smoke: a file of 870 k entries crosses the set-up split
# gate (`tsv_simt::SETUP_SPLIT`), so on a multi-core runner its ingest,
# CSR build and tile conversion run in parts on host threads. `tsv info`
# and a multiply on the file must print the lines they print on the
# generator spec, the multiply's wall time aside.
./target/release/tsv convert gen:banded:32768:16 "$trace_dir/split.mtx" >/dev/null
for run in "info" "spmspv --sparsity 0.1"; do
    read -r cmd flags <<<"$run"
    from_gen=$(./target/release/tsv "$cmd" gen:banded:32768:16 $flags | sed 's/^time: [0-9.]* ms *//')
    from_file=$(./target/release/tsv "$cmd" "$trace_dir/split.mtx" $flags | sed 's/^time: [0-9.]* ms *//')
    if [ "$from_file" != "$from_gen" ]; then
        echo "tsv $run: the file printed '$from_file', the spec '$from_gen'" >&2
        exit 1
    fi
done

# Race-sanitizer gate. First the sanitizer's own test surface in release
# mode (the shadow log makes sanitized runs slow in debug): the detector
# unit tests, the schedule-permutation harness, and the engine-level
# sanitizer integration. Then the full sweep: every SpMSpV kernel ×
# semiring, a batch per kernel choice, a complete BFS and a 4-source
# MS-BFS per matrix run under the sanitizer over the tiny corpus, and
# schedule-permutation replay
# certifies bitwise (PlusTimes) / semantic (MinPlus, OrAnd) determinism.
# `repro sanitize` exits nonzero on any conflict or permutation-dependent
# output. Its whole sanitizer line is pinned as well: the access count
# moves when a kernel body drops (or gains) a log call, on any backend.
# Of it, 1466 launches and 490111 accesses are the SpMSpV and TileBFS
# runs, the rest the per-matrix MS-BFS runs.
cargo test --release -q -p tsv-simt -p tsv-core
./target/release/repro sanitize --scale tiny | tee "$trace_dir/sanlog"
grep -Fx 'sanitizer: 2419 launches, 21868335 accesses, 0 violations' "$trace_dir/sanlog" >/dev/null

# Plan-time static race verifier. `repro analyze` sweeps the corpus
# (kernel × both backends, plus BFS) through the
# analyzer and cross-checks every verdict against the dynamic sanitizer:
# each default-path plan must prove, a Proved verdict must show zero
# dynamic conflicts, and a non-Proved verdict must be justified by
# observed atomic claims. The CLI smoke drives --verify-plan end to end;
# the column push buffers per-warp partials, so its plan carries a merge
# whose determinism proof must appear.
./target/release/repro analyze --scale tiny
./target/release/tsv spmspv gen:rmat:10 --verify-plan | grep 'proved' >/dev/null
./target/release/tsv spmspv gen:banded:2000:8 --kernel col --verify-plan | grep 'merge-determinism.*consumed exactly once' >/dev/null
./target/release/tsv bfs gen:grid:40:40 --verify-plan | grep 'plan bfs/' >/dev/null

# loom model checking: exhaustive interleaving exploration of the atomic
# merge primitives (frontier fetch_or, PlusTimes CAS-add bit-identity,
# workspace pool handoff) with `--cfg loom` swapping the atomic views
# onto loom's model-checked types. loom-model/ is a package outside the
# workspace that compiles crates/simt/src/atomic.rs by path.
RUSTFLAGS="--cfg loom" cargo test --release -q --manifest-path loom-model/Cargo.toml

# Native-backend gate: the conformance suite (every kernel × semiring
# against the dense oracle) and the backend-equivalence
# property tests, with the native backend at one thread and at four.
# PlusTimes must be bit-identical to the modeled grid at every width.
TSV_NATIVE_THREADS=1 cargo test --release -q --test conformance_dense --test proptest_backend
TSV_NATIVE_THREADS=4 cargo test --release -q --test conformance_dense --test proptest_backend
./target/release/tsv spmspv gen:rmat:12 --backend native:4 | grep 'backend: native:4' >/dev/null
./target/release/tsv bfs gen:grid:64 --backend native:2 | grep 'backend: native:2' >/dev/null
# The race sanitizer watches a native launch as it does a modeled one: a
# sanitized run on a native backend must print the modeled run's whole
# sanitizer line (launches, accesses, violations), so a lost epoch or a
# dropped log call fails here, not only a conflict. The BFS launches stay
# on the caller; the banded run's row-tile launch (~710 k estimated
# entries at density 0.1) crosses the split gate and logs from two
# threads, and so do the web graph's row-tile launch and side-COO pass,
# single and in a batch of eight.
for run in "spmspv gen:rmat:12 native:4" "bfs gen:grid:64 native:2" \
    "spmspv gen:banded:32768:16 native:2 0.1" \
    "spmspv gen:web:32768:24 native:2 0.1" "spmspv gen:web:32768:24 native:2 0.1 8"; do
    read -r cmd input native sparsity batch <<<"$run"
    flags=(--sanitize ${sparsity:+--sparsity "$sparsity"} ${batch:+--batch "$batch"})
    model_line=$(./target/release/tsv "$cmd" "$input" --backend model "${flags[@]}" | grep '^sanitizer: ')
    native_line=$(./target/release/tsv "$cmd" "$input" --backend "$native" "${flags[@]}" | grep '^sanitizer: ')
    echo "$model_line" | grep ' 0 violations$' >/dev/null
    if [ "$native_line" != "$model_line" ]; then
        echo "sanitizer on $native: '$native_line', on model: '$model_line'" >&2
        exit 1
    fi
done

# Batched multi-frontier gate: the differential suite (one batched
# multiply of B frontiers ≡ B single multiplies with the same options,
# kernel choice × backend × B ∈ {1, 2, 7, 32} plus
# Figure 6 mixed and all-sparse batches over the conformance corpus; at
# B = 1 also the same work counters, since a single multiply runs the
# same driver as a one-lane batch) at one and at four native threads,
# the batched analyzer/sanitizer cross-check proptests, a --batch CLI
# smoke covering the batched kernel label, the per-width plan proof and
# a sanitized, proved all-push batch, and a sanitized, proved single
# multiply through the same driver.
TSV_NATIVE_THREADS=1 cargo test --release -q --test batched_equivalence
TSV_NATIVE_THREADS=4 cargo test --release -q --test batched_equivalence
cargo test --release -q --test proptest_analyze
./target/release/tsv spmspv gen:rmat:12 --batch 4 --backend native:4 | grep 'batch: 4 lanes' >/dev/null
./target/release/tsv spmspv gen:rmat:12 --batch 4 --verify-plan | grep '/b4' >/dev/null
./target/release/tsv spmspv gen:rmat:12 --batch 8 --kernel col --sanitize --verify-plan | grep 'proved' >/dev/null
single=$(./target/release/tsv spmspv gen:rmat:12 --kernel col --sanitize --verify-plan)
echo "$single" | grep 'plan spmspv/col-tile: proved' >/dev/null
echo "$single" | grep 'merge-determinism' >/dev/null
echo "$single" | grep '0 violations' >/dev/null
# Vector-driven tile walks on a web graph at both ends: a sparse x walks
# only the tile columns it holds, a full x makes one flat pass per tile;
# both must stay race-free and proved.
for sparsity in 0.02 1.0; do
    web=$(./target/release/tsv spmspv gen:web:4000 --sparsity "$sparsity" --sanitize --verify-plan)
    echo "$web" | grep ' 0 violations' >/dev/null
    echo "$web" | grep 'proved' >/dev/null
done
