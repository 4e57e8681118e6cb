//! Harness shared by the two benchmark binaries.
//!
//! * [`cells`] — the five workloads, their cells, and the one function
//!   that runs a cell through the workspace's public entry points.
//! * [`harness`] — argument parsing, order statistics, the in-memory span
//!   recorder, a minimal JSON reader/writer, and `/proc` readings.
//! * [`metrics`] — the names and units of every metric.
//! * [`oracle`] — the untimed reference results (CloneDfs counts, re-verified
//!   placements, the must-fail canary).
//! * [`compare`] — the two-result-files regression gate.
//!
//! `bench_e2e` (end-to-end numbers, untraced) uses only [`cells::run_cell`];
//! `bench_probe` (the traced run) additionally times calls into single
//! layers. See `benchmark/README.md` for what every metric means.

#![forbid(unsafe_code)]

pub mod cells;
pub mod compare;
pub mod harness;
pub mod metrics;
pub mod oracle;
