//! `ftobs`: a zero-dependency metrics layer for the fence-trade
//! exploration engines.
//!
//! Every check counts its own steps; a [`Recorder`] streams what one or
//! more checks counted:
//!
//! - **Counters** (states, transitions, per-class machine steps — fences
//!   β(E), commits, crashes — sleep-set hits, ample fallbacks, …),
//!   batched per walk in a [`Tally`] so no exploration step touches
//!   shared memory to count;
//! - **Histograms** (write-buffer depth, DFS depth) with log-scale
//!   buckets and bit-exact mergeable snapshots;
//! - **Gauges** (frontier high-water mark, dedup-table occupancy);
//! - **Events**: flat single-line JSON records streamed to an optional
//!   shared JSONL file sink, including a rate-limited `heartbeat`
//!   (states/sec, frontier, budget clock) and a final `snapshot` rollup;
//! - **Hot-pc table**: per-process program-counter hit counts with
//!   human-readable labels registered from `fencevm` programs.
//!
//! The first three are counted whether or not a recorder is attached:
//! `modelcheck` fills `Stats.metrics` with the check's own totals and
//! hands them to the recorder once, at the end. A recorder adds the last
//! two, and only an enabled one costs anything: [`Recorder::disabled`]
//! carries no allocation and every method on it is a single branch —
//! `exp guards` in CI holds the enabled path to ≤5%.
//! [`MetricsSnapshot`] is `Copy` and its equality covers only the
//! deterministic counter subset, so `modelcheck::Stats` embeds one and
//! the engine differential suites can assert bit-identical metrics across
//! CloneDfs/Undo/Parallel/Dpor.
//!
//! Offline report rendering for the JSONL streams lives in [`report`]
//! (driven by `exp obs-report` in `crates/bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod recorder;
pub mod report;

pub use events::{encode_line, JsonlSink, J};
pub use metrics::{
    bucket_floor, bucket_index, hist_field, Gauge, HistSnapshot, Metric, MetricsSnapshot,
    ProcSteps, GAUGES, HIST_BUCKETS, MAX_PROCS, METRICS,
};
pub use recorder::{Progress, Recorder, RecorderBuilder, Tally, DEFAULT_HEARTBEAT_MS, MAX_PCS};
