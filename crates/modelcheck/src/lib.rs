//! # modelcheck — exhaustive schedule exploration for write-buffer programs
//!
//! An explicit-state model checker over the [`wbmem`] machine. A state is a
//! full system configuration (shared memory, write buffers, process
//! states); transitions are every schedule element the machine accepts —
//! both *which process steps* and, crucially for PSO, *which buffered write
//! commits*. Exploration is exhaustive up to a state budget, so for small
//! `n` the checker decides:
//!
//! * **Mutual exclusion** — at most one process annotated in-CS in any
//!   reachable state. (Annotations flip exactly at acquire-completion and
//!   release-start, and because the explorer can always park a process
//!   inside its critical section, any hold-interval overlap in any
//!   execution manifests as a reachable double-annotation state.)
//! * **Permutation of returns** — object-level sanity for counters/queues.
//! * **Termination** — every reachable state can still reach an all-done
//!   state (no deadlock, no inescapable livelock).
//!
//! The [`elision`] module searches fence placements, regenerating the
//! paper's TSO/PSO separation as a machine-checked table: Peterson's lock
//! with a single store–load fence is correct under TSO and demonstrably
//! broken under PSO, with the violating schedule printed.
//!
//! ## Example
//!
//! ```
//! use modelcheck::{check, CheckConfig, Verdict};
//! use simlocks::{build_mutex, FenceMask, LockKind};
//! use wbmem::MemoryModel;
//!
//! let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
//! let verdict = check(&inst.machine(MemoryModel::Pso), &CheckConfig::default());
//! assert!(verdict.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod dpor;
pub mod driver;
pub mod elision;
mod kernel;
pub mod outcomes;
mod resume;

pub use checker::{
    check, CheckConfig, CheckError, CheckpointPolicy, Counterexample, Coverage, Engine, Stats,
    Verdict,
};
pub use driver::{all_ok, check_under_models, ModelVerdict};
pub use elision::{elision_table, minimal_fences, ElisionRow};
pub use ftobs::{MetricsSnapshot, Recorder};
pub use outcomes::{terminal_outcomes, Outcome};
pub use por::{Snapshot, SnapshotError};
pub use resume::resume;
