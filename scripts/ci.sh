#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, build, and the full test suite.
#
# Usage: scripts/ci.sh
# Environment: FT_THREADS caps the worker count of the parallel sweeps the
# tests and experiments run over independent cells (default: available
# cores). The checker itself spawns no thread.

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

stage "layering: wbmem (the paper's Section-2 machine) and lowerbound (its Section-5 encoder) do not depend on ftobs; no crate forecasts a run's size, writes trace spans, supervises workers with a watchdog, writes periodic/interrupt checkpoints, counts steps only for a recorder, streams events, weights fence sites or brings back the work-stealing frontier; the checker never reads locality" \
    bash -c 'for c in wbmem lowerbound; do
            tree=$(cargo tree -p $c --offline -e normal) && ! grep -q ftobs <<< "$tree" || exit 1
        done
        ! grep -rqE "TreeEstimator|est_total_states|eta_ms|TraceCtx|SpanId|trace_ctx|trace_root" crates/*/src || exit 1
        ! grep -rqE "FT_WATCHDOG_MS|WatchdogTrips|every_transitions|on_interrupt" crates/*/src || exit 1
        ! grep -rqE "reset_counts|is_live" crates/*/src || exit 1
        ! grep -rqE "pareto_explore|fence_weight|rmr_weight|conflict_counts" crates/*/src || exit 1
        ! grep -rqE "ForkQueue|check_shared|worker_count|fn donor" crates/*/src || exit 1
        ! grep -rqE "JsonlSink|maybe_heartbeat|hot_pc|emit_snapshot|obs_report|RecorderBuilder" crates/*/src || exit 1
        ! grep -rqE "LocalityTracker|\.locality\(\)" crates/modelcheck/src'

stage "cargo build --release" \
    cargo build --release

stage "cargo test -q" \
    cargo test -q

stage "lowerbound by_definition over every permutation of four (debug, where the decoder re-checks every memo hit; tier-1 runs a fixed sample)" \
    cargo test -q -p lowerbound --test by_definition -- --ignored

stage "simlocks reread_by_walking and parked_rotation, long variants in release: plain steps (with the idle-read memo) against recorded steps at n = 8 and 16 with ten times the schedules (tier-1 runs n = 4 and 8); the parked rotation against the full rotation at n = 64 and 256 (tier-1 runs n ≤ 32)" \
    bash -c 'cargo test -q --release -p simlocks --test reread_by_walking -- --ignored || exit 1
        cargo test -q --release -p simlocks --test parked_rotation -- --ignored'

stage "differential_resume over the full n = 2 lock × model × fence-mask × crash matrix for each engine the suite names, each interrupted at a transition cut and resumed (tier-1 runs a fixed sample per engine)" \
    cargo test -q -p modelcheck --test differential_resume -- --ignored

stage "the termination walk in release: termination_walk with its n = 3 cells (ignored unoptimised), and differential_termination's 4 000 random livelocking programs (ignored in tier-1)" \
    bash -c 'cargo test -q --release -p modelcheck --test termination_walk || exit 1
        cargo test -q --release -p modelcheck --test differential_termination -- --include-ignored'

stage "integration_locks_models, whose cell sweep reads FT_THREADS, at FT_THREADS=2" \
    env FT_THREADS=2 cargo test -q -p fence-trade --test integration_locks_models

stage "benchmark/ package builds and its smoke test passes (bench_probe calls wbmem/por signatures directly)" \
    bash -c 'cd benchmark && cargo test --offline'

# Pinned by exclusion: every table under results/ but the timing list of
# EXPERIMENTS.md.
stage "exp --fast all: E1–E12 regenerate every pinned table under results/ byte-for-byte and write no table that is not committed; E14 (one round, writes nothing), E15, E16 (n = 2 only: fails on a row that differs from results/e16_synthesis.txt in any cell — iterations, cores, states, seeded/full checks, placement — or a minimisation that used no witness) pass their own checks" \
    bash -c 'cargo run --release -p ft-bench -- --fast all > /dev/null || exit 1
        pinned=(results ":!results/e15_resume.txt" ":!results/manifest.txt")
        git diff --exit-code -- "${pinned[@]}" || exit 1
        stray=$(git status --porcelain --untracked-files=all -- "${pinned[@]}")
        [ -z "$stray" ] || { echo "not committed:"; echo "$stray"; exit 1; }'

stage "exp guards: the checkpoint gates (smoke: cut + resume == fresh verdict; cost per snapshot MiB)" \
    cargo run --release -p ft-bench -- guards

echo "CI green."
