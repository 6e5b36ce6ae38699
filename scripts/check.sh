#!/usr/bin/env bash
# Repo-wide gate: build, tests, lints, and the parallel-driver
# determinism regression. Run from the repository root.
# Each step is timed; a per-step and total wall-clock summary prints at
# the end so slow steps are easy to spot.
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_SECS=()
TOTAL_START=$SECONDS

step() {
    local name="$1"
    shift
    echo "==> $name"
    local start=$SECONDS
    "$@"
    local secs=$((SECONDS - start))
    STEP_NAMES+=("$name")
    STEP_SECS+=("$secs")
    echo "    (${secs}s)"
}

step "cargo build --release --workspace" \
    cargo build --release --workspace

step "cargo test -q --workspace" \
    cargo test -q --workspace

step "cargo clippy --workspace --all-targets -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings

step "determinism regression (sequential vs 4 threads)" \
    cargo test -q -p acp-bench --test determinism

step "incremental-vs-full global-state equivalence regression" \
    cargo test -q -p acp-bench --test equivalence

step "chaos harness: fault-plan determinism + audit regressions" \
    cargo test -q -p acp-bench --test chaos
step "failover regression" \
    cargo test -q --test failover

step "sharded-runtime determinism/equivalence suite" \
    cargo test -q -p acp-bench --test sharding

step "tenant-isolation property battery" \
    cargo test -q -p acp-model --test properties
step "tenant scenario battery" \
    cargo test -q --test tenants

step "chaos smoke (quick grid, seed 42, audit must be clean)" \
    cargo run --release -q -p acp-bench --bin chaos_soak -- --smoke --seed 42 --assert-no-leaks

step "sharded chaos smoke (shards=4, byte-identical by contract)" \
    cargo run --release -q -p acp-bench --bin chaos_soak -- --smoke --seed 42 --shards 4 --assert-no-leaks

step "tenanted chaos smoke (standard mix, isolation must hold)" \
    cargo run --release -q -p acp-bench --bin chaos_soak -- --smoke --seed 42 --tenants --assert-no-leaks

step "repair smoke (repair must dominate restart survival, audit clean)" \
    cargo run --release -q -p acp-bench --bin chaos_soak -- --smoke --seed 42 --repair --assert-no-leaks

step "fig_scale smoke (10k nodes x 50k sessions, RSS ceiling)" \
    cargo run --release -q -p acp-bench --bin scale_smoke

step "perf-ratio gate (quick snapshot vs BENCH_baseline.json)" \
    bash scripts/perf_gate.sh

step "benchmark self-tests (drivers match run_scenario/fig_scale counters and digests)" \
    cargo test --release --manifest-path perfbench/Cargo.toml

step "criterion benches compile" \
    cargo bench --workspace --no-run

echo
echo "Step timings:"
for i in "${!STEP_NAMES[@]}"; do
    printf '  %4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done
printf 'Total: %ss\n' "$((SECONDS - TOTAL_START))"
echo "All checks passed."
