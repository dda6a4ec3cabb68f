#!/usr/bin/env bash
# Offline CI for the ema-gnn workspace.
#
# The workspace has zero external dependencies (path-only crates), so
# every step below runs with the network disabled. `--offline` makes
# cargo fail loudly if a registry dependency ever sneaks back in.
#
# Usage: scripts/ci.sh [--with-bench]
#   --with-bench  also run the microbenchmark suites (fast settings)
#                 to validate the bench harness end to end.

set -euo pipefail
cd "$(dirname "$0")/.."

WITH_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --with-bench) WITH_BENCH=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build (all targets)"
cargo build --offline --workspace --all-targets

echo "==> cargo test (EMA_KERNEL=scalar)"
# The whole suite once per kernel backend: the scalar bit-identity
# oracle and the SIMD hot path (on machines without AVX2+FMA the simd
# run degrades to scalar and is a cheap no-op re-check). Backend-pinned
# tests (properties, backend_equivalence, the determinism fixtures)
# scope their own backend, so these env runs primarily sweep everything
# that follows the process default.
EMA_KERNEL=scalar cargo test --offline --workspace -q

echo "==> cargo test (EMA_KERNEL=simd)"
EMA_KERNEL=simd cargo test --offline --workspace -q

echo "==> cargo test (EMA_THREADS=4)"
# Re-run the suite on a 4-worker cohort executor: results must be
# byte-identical to the sequential run (the exec engine's guarantee).
# This run covers, among the rest:
# - the member-forward equivalence properties
#   (crates/models/tests/batched_equivalence.rs): the one training
#   forward, predict_windows over one individual's windows, and the
#   predict_cohort loop over 1-4 individuals on one tape that perfbench
#   times, pinned to the per-window oracle (each window through
#   predict_window on its own), values and every parameter gradient;
# - the scalar fixtures (tests/scalar_fixtures.rs), which freeze every
#   model kind, both cohort runners and every experiment preset byte
#   for byte on this 4-worker executor;
# - the sharded-cohort grids in tests/determinism.rs: shard boundaries
#   must never change numbers. Shard size sets job and generation
#   granularity (each shard job generates its slice and runs its
#   members one at a time, each end to end), not a training group, so
#   shard sizes 1, 2
#   and 4 (including the 2-shard x 2-individual shape) pin job layout
#   and scheduling out of every result, for the LSTM, A3TGCN and MTGNN
#   (the model of the stream_graph benchmark workload);
# - the cluster-warm-start grid in tests/determinism.rs: the warm-started
#   sharded cohort stays byte-identical across thread counts and shard
#   sizes (the plan is built once on the caller thread).
EMA_THREADS=4 cargo test --offline --workspace -q

echo "==> table and figure binaries (--scale tiny, EMA_THREADS=4, EMA_OBS=off)"
# Every binary of scripts/regenerate_all.sh must run at tiny scale and
# exit 0, so a panic in any table, figure or paper-reference footer
# fails here. Each results/<name>.json tracked at quick scale must be
# written anew (table1 only prints): move the tracked files aside so
# the check sees only what this run wrote, and put them back afterwards
# (or on any earlier exit). The BENCH_* suites are not touched.
mkdir -p target/ci_stash
tracked=()
for f in results/*.json; do
  case "${f##*/}" in BENCH_*) ;; *) tracked+=("${f##*/}") ;; esac
done
for f in "${tracked[@]}"; do mv "results/$f" target/ci_stash/; done
restore_results() {
  for f in "${tracked[@]}"; do mv -f "target/ci_stash/$f" results/ 2>/dev/null || true; done
}
trap restore_results EXIT
# A misspelled flag must stop the binary with a usage line and exit
# status 2 before it runs anything or writes its results file.
status=0
cargo run --offline -q --release -p ema-bench --bin cluster_compare -- --scal tiny > /dev/null 2>&1 || status=$?
if [ "$status" != 2 ] || [ -e results/cluster_compare.json ]; then
  echo "cluster_compare --scal tiny: expected exit status 2 and no results file, got $status" >&2
  exit 1
fi
EMA_THREADS=4 EMA_OBS=off scripts/regenerate_all.sh tiny > /dev/null
for f in "${tracked[@]}"; do
  if [ ! -s "results/$f" ]; then
    echo "regenerate_all.sh tiny: results/$f was not written" >&2
    exit 1
  fi
done
restore_results
trap - EXIT

echo "==> bench_gate argument and missing-suite checks"
# A NaN tolerance would pass every comparison; the gate must refuse it
# with a usage line and exit status 2 before reading either suite.
status=0
cargo run --offline -q -p ema-bench --bin bench_gate -- \
  results/BENCH_pipeline.json results/BENCH_pipeline.json --tolerance nan > /dev/null 2>&1 || status=$?
if [ "$status" != 2 ]; then
  echo "bench_gate --tolerance nan: expected exit status 2, got $status" >&2
  exit 1
fi
# A suite that cannot be read must stop the gate with an error line and
# exit status 2, not a panic.
rm -f target/ci_missing.json
status=0
cargo run --offline -q -p ema-bench --bin bench_gate -- \
  target/ci_missing.json results/BENCH_pipeline.json > /dev/null 2>&1 || status=$?
if [ "$status" != 2 ]; then
  echo "bench_gate with a missing suite: expected exit status 2, got $status" >&2
  exit 1
fi

echo "==> ema-tensor tests (release)"
# The SIMD kernels are unsafe code whose loops the optimizer reshapes;
# run their equivalence properties as optimized code too.
cargo test --release --offline -p ema-tensor -q

echo "==> perfbench tests"
# perfbench is its own Cargo workspace, so the workspace build above
# never compiles it; it calls the model and training API directly
# (train_cohort, and predict_cohort: the loop of one member forward
# per individual on one tape), and its replay must reproduce the
# pipeline bit for bit.
cargo test --release --offline --manifest-path perfbench/Cargo.toml -q

echo "==> cargo clippy"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc"
# Broken or private intra-doc links fail here, e.g. a link left
# pointing at a deleted item.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> obs smoke (EMA_OBS=full)"
# Trains one tiny individual with full tracing; the example itself
# re-parses every JSONL line with ema_core::Json and panics on any
# malformed event, so a green run validates the whole obs path.
EMA_OBS=full cargo run --offline -q -p ema-core --example obs_loss_curve > /dev/null
test -s results/obs/obs_loss_curve.jsonl
test -s results/obs/obs_loss_curve.summary.json
test -s results/obs/obs_loss_curve.folded

echo "==> obs_report smoke"
# Renders the run's span profile / kernel table / utilization report;
# exits nonzero when the manifest carries no span profile, so a
# silently-dead profiler fails CI here.
cargo run --offline -q -p ema-bench --bin obs_report -- obs_loss_curve > /dev/null

echo "==> cohort_stream smoke (release, EMA_OBS=off)"
# Streams 256 individuals in shards of 16 on the release build; the
# example asserts that every outcome comes back.
EMA_OBS=off cargo run --offline -q --release -p ema-core --example cohort_stream > /dev/null

echo "==> examples smoke (release, EMA_OBS=off)"
# The four examples no step above runs, each end to end on the release
# build; none writes a file. A panic or a nonzero exit fails CI here.
for example in quickstart personalized_forecasting graph_structures graph_learning; do
  EMA_OBS=off cargo run --offline -q --release -p ema-core --example "$example" > /dev/null
done

if [ "$WITH_BENCH" = 1 ]; then
  echo "==> cargo bench"
  # Snapshot the committed training-epoch suite *before* benching (the
  # bench run overwrites results/BENCH_*.json in place), and stash the
  # recorded suites so the CI rerun does not clobber them — they are
  # restored after the gate. The rerun uses the harness's *default*
  # sampling so its medians are methodology-identical to the committed
  # baseline (the whole workspace suite costs well under a minute);
  # short-budget reruns proved systematically biased on shared hosts.
  mkdir -p target/bench_ci_stash
  git show HEAD:results/BENCH_training_epoch.json > target/bench_baseline_training_epoch.json
  git show HEAD:results/BENCH_pipeline.json > target/bench_baseline_pipeline.json
  cp results/BENCH_*.json target/bench_ci_stash/ 2>/dev/null || true
  restore_bench_results() { cp target/bench_ci_stash/BENCH_*.json results/ 2>/dev/null || true; }
  trap restore_bench_results EXIT
  cargo bench --offline --workspace

  echo "==> bench regression gate"
  # Fails on any median >15% slower — or any allocs/iter >15% higher —
  # than the committed baselines. Timing allowances are scaled by the
  # suite's least-inflated sibling benchmark (leave-one-out, capped at
  # 1.5x; see bench_gate.rs) so uniform shared-host load doesn't trip
  # the gate while differential hot-loop regressions still do. Gates
  # both the training-epoch suite and the cohort-throughput pipeline
  # suite.
  cargo run --offline -q -p ema-bench --bin bench_gate -- \
    target/bench_baseline_training_epoch.json results/BENCH_training_epoch.json \
    target/bench_baseline_pipeline.json results/BENCH_pipeline.json
fi

echo "==> CI green"
