//! `ftobs`: a zero-dependency counting layer for the fence-trade
//! exploration engines.
//!
//! Every check counts its own steps into one [`MetricsSnapshot`] shape:
//!
//! - **Counters** (states, transitions, per-class machine steps — fences
//!   β(E), commits, crashes — sleep-set hits, ample fallbacks, …),
//!   counted per walk so no exploration step touches shared memory;
//! - **Histograms** (write-buffer depth, DFS depth) with log-scale
//!   buckets and bit-exact mergeable snapshots;
//! - **Gauges** (frontier high-water mark, dedup-table occupancy).
//!
//! `modelcheck` fills `Stats.metrics` with a check's totals whether or
//! not a [`Recorder`] is attached; an enabled recorder is only the sum of
//! the totals of the checks it is attached to, and a disabled one
//! ([`Recorder::disabled`]) carries no allocation. [`MetricsSnapshot`] is
//! `Copy` and its equality covers only the deterministic counter subset,
//! so `modelcheck::Stats` embeds one and the engine differential suites
//! can assert bit-identical metrics across CloneDfs/Undo/Dpor.
//! [`encode_line`] renders a snapshot as one flat JSON line (a
//! counterexample artifact's `metrics:` line) and [`parse_line`] reads it
//! back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod metrics;
pub mod recorder;

pub use events::{encode_line, parse_line, J};
pub use metrics::{
    bucket_index, Gauge, HistSnapshot, Metric, MetricsSnapshot, ProcSteps, GAUGES, HIST_BUCKETS,
    MAX_PROCS, METRICS,
};
pub use recorder::Recorder;
