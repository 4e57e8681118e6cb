#!/usr/bin/env bash
# The benchmark's one command. Builds benchmark/ (and every crate it links)
# in release mode, then:
#
#   run.sh [--workload W] [--seed S] [--seconds N | --passes N] [--trace [0|1]] [--out FILE]
#       runs workload W (default: all five, one process each), checks every
#       output, prints every metric by name with its unit; the last line of
#       each run is the result as one JSON object. --trace (or --trace 1)
#       selects the traced run (per-layer metrics + out/trace-W.jsonl).
#   run.sh --compare A.jsonl B.jsonl
#       gates two sets of runs written with --out; exit 1 on a breach.
#
# Everything is read and written inside the checkout (build output goes to
# $CARGO_TARGET_DIR, default .bench_build at the root).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release"

if [[ "${1:-}" == "--compare" ]]; then
    shift
    exec "$bin/bench_compare" "$@"
fi

tool=bench_e2e
workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --workload) workload="${args[i + 1]:-}" ;;
        --trace) [[ "${args[i + 1]:-}" == "0" ]] || tool=bench_probe ;;
    esac
done

if [[ -n "$workload" ]]; then
    exec "$bin/$tool" "$@"
fi
for w in exhaustive reduced synth resume tables; do
    "$bin/$tool" --workload "$w" "$@"
done
