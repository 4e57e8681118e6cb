#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, and the full test suite.
#
# Usage: scripts/ci.sh
# Environment: FT_THREADS caps the worker count of the parallel sweeps the
# tests and experiment binaries run (default: available cores).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q (FT_THREADS=2, exercises the parallel sweeps/engine)"
FT_THREADS=2 cargo test -q

echo "==> benchmark/ package builds and its smoke test passes (bench_probe calls wbmem/por signatures directly)"
(cd benchmark && cargo test --offline)

echo "==> DPOR differential suite (FT_THREADS=2)"
FT_THREADS=2 cargo test -q -p modelcheck --test differential_dpor

echo "==> work-stealing parallel DPOR differential suite (FT_THREADS=2)"
FT_THREADS=2 cargo test -q -p modelcheck --test differential_pardpor

echo "==> checkpoint/resume differential suite (interrupt + resume == uninterrupted, FT_THREADS=2)"
FT_THREADS=2 cargo test -q -p modelcheck --test differential_resume

echo "==> E11 crash-recovery experiment (n = 2)"
FT_E11_FAST=1 cargo run --release -p ft-bench --bin exp_e11_crash_recovery

echo "==> E12 reduction experiment (fast mode: n = 2 factors only)"
FT_E12_FAST=1 cargo run --release -p ft-bench --bin exp_e12_reduction

echo "==> fence-synthesis differential suite (engine x model x crash matrix + minimality proptest, FT_THREADS=2)"
FT_THREADS=2 cargo test -q -p ftsynth --test differential_synth

echo "==> E16 synthesis experiment (fast mode: n = 2 CEGAR + Pareto sweep)"
FT_E16_FAST=1 cargo run --release -p ft-bench --bin exp_e16_synthesis

echo "==> differential tracing suite (traced == untraced verdicts/metrics + span-forest proptest, FT_THREADS=2)"
FT_THREADS=2 cargo test -q -p modelcheck --test differential_trace

echo "==> E17 estimator + trace experiment (fast mode: 2 cells, 2 cuts, traced pardpor/resume)"
FT_E17_FAST=1 cargo run --release -p ft-bench --bin exp_e17_estimator

echo "==> obs_trace smoke run (forest validation + Chrome trace export of the E17 stream)"
cargo run --release -p ft-bench --bin obs_trace results/obs/e17_trace.jsonl > /dev/null

echo "==> obs_report smoke run (renders the JSONL the E12 run just wrote)"
cargo run --release -p ft-bench --bin obs_report > /dev/null

echo "==> observability overhead guard (enabled and traced ≤5%, disabled ≤10% vs baseline, bakery3_pso)"
cargo run --release -p ft-bench --bin obs_overhead

echo "==> parallel DPOR guard (≥1.5x scaling on multi-core, ≤5% threads=1 regression, filter3_pso)"
cargo run --release -p ft-bench --bin pardpor_guard

echo "==> fleet guard (kill-one-worker chaos smoke: fleet verdict+metrics == fault-free fleet; skipped on 1 core)"
cargo run --release -p ft-bench --bin fleet_guard

echo "==> E18 fleet experiment (fast mode: 2 cells x fault-free + chaos fleets, exactness asserted)"
FT_E18_FAST=1 cargo run --release -p ft-bench --bin exp_e18_fleet

echo "==> E15 resume-overhead experiment (fast mode)"
FT_E15_FAST=1 cargo run --release -p ft-bench --bin exp_e15_resume

echo "==> kill-and-resume smoke + checkpoint guard (n=3 DPOR cut -> checkpoint -> resume == fresh; overhead ≤10%)"
cargo run --release -p ft-bench --bin checkpoint_guard

echo "CI green."
