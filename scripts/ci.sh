#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 build/test gate.
#
# Everything here is offline-safe: all dependencies are workspace path
# crates (including the `compat/` stand-ins for rand/proptest/criterion),
# so no network access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace (tier-1)"
# --workspace matters: a bare root build compiles only the `udse`
# facade crate, not the repro/udse-inspect binaries the smoke below
# runs.
cargo build --release --workspace

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# perfbench is its own workspace (the benchmark of record builds it from
# the checkout), so the workspace build above does not compile it. Build
# and test it here, so a shrinking udse-obs or udse-core API cannot
# silently break the benchmark.
echo "==> cargo clippy + cargo test --release on perfbench"
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Thread-determinism smoke: the same quick figures at one and two pool
# threads must print byte-identical stdout — every simulation is a pure
# function of its inputs and the pool reassembles results in input
# order, so the worker count may change only wall time. The §8
# artifacts ride along: `residuals` batches its evaluations across the
# pool, and the other four run single-design simulations outside it.
echo "==> thread-determinism smoke: repro --quick --jobs 1 vs --jobs 2"
rm -rf target/jobs-smoke
mkdir -p target/jobs-smoke
./target/release/repro --quick --jobs 1 --manifest target/jobs-smoke/jobs1.json fig1 fig2 \
    > target/jobs-smoke/jobs1.out
./target/release/repro --quick --jobs 2 fig1 fig2 > target/jobs-smoke/jobs2.out
diff target/jobs-smoke/jobs1.out target/jobs-smoke/jobs2.out
./target/release/repro --quick --jobs 1 assoc stalls inorder workloads residuals \
    > target/jobs-smoke/s8-jobs1.out
./target/release/repro --quick --jobs 2 assoc stalls inorder workloads residuals \
    > target/jobs-smoke/s8-jobs2.out
diff target/jobs-smoke/s8-jobs1.out target/jobs-smoke/s8-jobs2.out
# The manifest must carry the fused-sweep throughput gauge and
# per-design allocation ratio (the floor and resource gates below read
# them) and the oracle's stream-memoization counters; losing any of them
# would silently disable a gate.
for key in '"sweep.designs_per_sec"' '"sweep.allocs_per_design"' \
        '"sim.precompute.hits"' '"sim.precompute.misses"'; do
    if ! grep -qF "${key}" target/jobs-smoke/jobs1.json; then
        echo "==> manifest is missing ${key}" >&2
        exit 1
    fi
done

# Query smoke: the `repro query` subcommand must answer a constrained
# optimum and a what-if delta from the CLI with exit 0 and byte-stable
# stdout (two runs of the same query diff clean — the canonical wire
# format has no timestamps or machine-dependent fields). The manifest
# written alongside must carry the engine's counters, and
# `udse-inspect show` must render them as the query-engine section.
echo "==> query smoke: repro query (constrained optimum + what-if delta)"
rm -rf target/query-smoke
mkdir -p target/query-smoke
opt_query='{"query_version":1,"type":"constrained_optimum","bench":null,"objective":"efficiency","constraints":[{"axis":"dl1_kb","min":null,"max":64.0},{"axis":"depth_fo4","min":18.0,"max":18.0}],"stride":500}'
./target/release/repro query --quick --manifest target/query-smoke/opt.manifest.json \
    "${opt_query}" > target/query-smoke/opt1.json
./target/release/repro query --quick "${opt_query}" > target/query-smoke/opt2.json
diff target/query-smoke/opt1.json target/query-smoke/opt2.json
whatif_query='{"query_version":1,"type":"what_if","bench":"mcf","base":{"idx":[2,1,1,0,4,3,0],"fo4":18},"alternative":{"idx":[2,2,1,1,0,1,0],"fo4":18}}'
./target/release/repro query --quick "${whatif_query}" > target/query-smoke/whatif.json
grep -qF '"type": "delta"' target/query-smoke/whatif.json
for key in '"query.executed"' '"query.cache.misses"' '"query.designs_per_sec"'; do
    if ! grep -qF "${key}" target/query-smoke/opt.manifest.json; then
        echo "==> query manifest is missing ${key}" >&2
        exit 1
    fi
done
echo "==> udse-inspect show renders the query-engine section"
./target/release/udse-inspect show target/query-smoke/opt.manifest.json \
    | grep -qF 'query engine:'

# Regression gate: re-run the fixed-seed benchmark and diff against the
# committed baseline. Model quality gates hard (the fixed seed makes it
# machine-independent); wall time is demoted to a warning with
# --warn-wall since CI machines differ. See scripts/bench.sh for the
# tolerance bands.
#
# Baseline selection: the BASELINE pointer file names the canonical
# baseline manifest (mtime ordering breaks on fresh clones, where git
# gives every file the checkout time). Newest-by-mtime is the fallback
# for trees that predate the pointer.
baseline=""
if [ -f BASELINE ]; then
    baseline=$(tr -d '[:space:]' < BASELINE)
    if [ ! -f "${baseline}" ]; then
        echo "==> BASELINE points to missing file '${baseline}'" >&2
        exit 1
    fi
else
    baseline=$(ls -t BENCH_*.json 2>/dev/null | head -n1 || true)
fi
if [ -n "${baseline}" ]; then
    echo "==> scripts/bench.sh (regression gate vs ${baseline})"
    scripts/bench.sh target/bench-current.json
    # Resource gates (hard failures, unlike the warn-only wall/gauge
    # watches): the fixed seed makes allocation counts deterministic, so
    # a rise beyond the band is a real code regression. alloc.bytes may
    # double before failing (model-layer churn is legitimate);
    # sweep.allocs_per_design guards the fused sweep's allocation-free
    # inner loop — the 0.05 floor absorbs per-chunk bookkeeping noise
    # while still catching a per-design allocation creeping in (which
    # would land at >= 1.0).
    #
    # The --min-gauge floors are absolute, not relative to the baseline:
    # quick-mode sweeps run ~13M designs/sec on the SoA walker, and a
    # collapse back to per-point spline evaluation lands near 2M. The
    # 5M floor sits far from both, so machine noise cannot trip it but
    # losing the compiled fast path always does.
    #
    # sim.instructions_per_sec watches the decomposed cycle oracle the
    # same way: with one preflight per trace and memoized sub-config
    # streams the quick workload simulates about 21M insts/sec at
    # --jobs 1 on a 2-vCPU 2.1 GHz Xeon. A design run on its own through
    # `Simulator::run_with_warmup` (its own preflight and streams) takes
    # 1.3-1.7x as long as the streamed run alone at the quick trace
    # length, so losing the sharing lands near 12-16M. The 15M floor
    # sits below a healthy run and trips on most of that collapse range.
    #
    # The query-engine watches guard the unified query layer the studies
    # now run on: query.cache.hits is a deterministic counter (table2's
    # nine per-benchmark optima share one materialized all-benchmark
    # scan, so a hit-count drop means the memoized-delegation path broke)
    # and query.designs_per_sec is the engine's fused-scan throughput —
    # both warn on a >50% fall and on going missing entirely.
    echo "==> udse-inspect diff ${baseline} target/bench-current.json --warn-wall --tol-gauge sweep.designs_per_sec:50 --tol-gauge query.designs_per_sec:50 --tol-gauge query.cache.hits:50 --min-gauge sweep.designs_per_sec:5000000 --min-gauge sim.instructions_per_sec:15000000 --tol-resource alloc.bytes:100 --tol-resource sweep.allocs_per_design:100:0.05"
    ./target/release/udse-inspect diff "${baseline}" target/bench-current.json --warn-wall \
        --tol-gauge sweep.designs_per_sec:50 \
        --tol-gauge query.designs_per_sec:50 \
        --tol-gauge query.cache.hits:50 \
        --min-gauge sweep.designs_per_sec:5000000 \
        --min-gauge sim.instructions_per_sec:15000000 \
        --tol-resource alloc.bytes:100 \
        --tol-resource sweep.allocs_per_design:100:0.05
else
    echo "==> no BENCH_*.json baseline; skipping regression gate (run scripts/bench.sh and commit the output)"
fi

echo "ci: all checks passed"
