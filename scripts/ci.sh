#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, and the full test suite.
#
# Usage: scripts/ci.sh
# Environment: FT_THREADS caps the worker count of the parallel sweeps the
# tests and experiment binaries run (default: available cores).

set -euo pipefail
cd "$(dirname "$0")/.."

# Run one stage and print its wall seconds.
stage() {
    local title=$1 start=$SECONDS
    shift
    echo "==> $title"
    "$@"
    echo "<== $((SECONDS - start))s  $title"
}

stage "cargo fmt --check" \
    cargo fmt --check

stage "cargo clippy --all-targets -- -D warnings" \
    cargo clippy --all-targets -- -D warnings

stage "layering: wbmem (the paper's Section-2 machine) depends on nothing but the rand stand-in" \
    bash -c 'tree=$(cargo tree -p wbmem --offline -e normal) && ! grep -q ftobs <<< "$tree"'

stage "cargo build --release" \
    cargo build --release

stage "cargo test -q" \
    cargo test -q

stage "the two suites that read FT_THREADS, at FT_THREADS=2 (parallel sweeps/engine)" \
    env FT_THREADS=2 cargo test -q -p modelcheck --test differential_pardpor \
        -p fence-trade --test integration_locks_models

stage "benchmark/ package builds and its smoke test passes (bench_probe calls wbmem/por signatures directly)" \
    bash -c 'cd benchmark && cargo test --offline'

stage "E1/E3/E4/E6/E9/E10: the paper's Section-5 tables and the deterministic β/ρ tables (RMR accounting, n up to 256) regenerate byte-for-byte" \
    bash -c 'for e in e1_bakery e3_tradeoff e4_encoding e6_stack_invariants e9_cas e10_steady_state; do
            cargo run --release -p ft-bench --bin exp_$e > /dev/null || exit 1
        done
        git diff --exit-code results/e1_bakery.txt results/e3_tradeoff.txt results/e4_encoding.txt \
            results/e4b_codebooks.txt results/e6_stack_invariants.txt results/e9_cas.txt \
            results/e9b_cas_check.txt results/e10_steady_state.txt'

stage "E11 crash-recovery experiment (n = 2)" \
    env FT_E11_FAST=1 cargo run --release -p ft-bench --bin exp_e11_crash_recovery

stage "E12 reduction experiment (fast mode: n = 2 factors only)" \
    env FT_E12_FAST=1 cargo run --release -p ft-bench --bin exp_e12_reduction

stage "E16 synthesis experiment (fast mode: n = 2 CEGAR + Pareto sweep; fails on a placement that left results/e16_synthesis.txt or a minimisation that used no witness)" \
    env FT_E16_FAST=1 cargo run --release -p ft-bench --bin exp_e16_synthesis

stage "E17 estimator + trace experiment (fast mode: 2 cells, 2 cuts, traced pardpor/resume)" \
    env FT_E17_FAST=1 cargo run --release -p ft-bench --bin exp_e17_estimator

stage "obs_trace smoke run (forest validation + Chrome trace export of the E17 stream)" \
    bash -c "cargo run --release -p ft-bench --bin obs_trace results/obs/e17_trace.jsonl > /dev/null"

stage "obs_report smoke run (renders the JSONL the E12 run just wrote)" \
    bash -c "cargo run --release -p ft-bench --bin obs_report > /dev/null"

stage "E15 resume-overhead experiment (fast mode)" \
    env FT_E15_FAST=1 cargo run --release -p ft-bench --bin exp_e15_resume

stage "guards: every wall-clock gate (checkpoint smoke + overhead ≤10%, pardpor dispatch ≤5% + scaling ≥1.5x, recorder overhead ≤5%, disabled-path baseline)" \
    cargo run --release -p ft-bench --bin guards

echo "CI green."
