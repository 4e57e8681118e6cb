//! # por — partial-order reduction for the write-buffer machine
//!
//! The model checker's schedule space blows up doubly fast: process
//! interleavings multiply with commit orders (the system may flush any
//! buffered write at any point). Most of those schedules are equivalent —
//! they differ only in the order of steps that *commute*. This crate
//! provides the machinery to skip the redundant ones while preserving
//! every verdict the checker can produce:
//!
//! * [`SleepSet`] — transition-level pruning. A choice already explored
//!   from a sibling branch, and independent of everything since, is put to
//!   sleep: re-exploring it could only re-derive known states. Sleep sets
//!   preserve *all reachable states* (only redundant edges are skipped).
//! * [`VisitTable`] — state caching compatible with sleep sets: a state
//!   is re-entered iff no recorded visit used a subset sleep set (and, for
//!   bounded runs, at least as much remaining budget). One flat table,
//!   keyed by fingerprint ([`FpHeads`]) or by the caller's dense state ids
//!   ([`DenseHeads`]), grown in [`Segmented`] arrays that never move.
//! * [`select_ample`] / [`expand`] / [`expand_into`] — state-level
//!   pruning. When every pending choice of one process is invisible to
//!   the per-state properties and independent of every other process's
//!   entire future (static analysis + buffered writes + recovery code),
//!   only that process is scheduled. This is where the order-of-magnitude
//!   state reductions come from. [`ample::decide`] is the decision with
//!   its [`ample::Fallback`] reason; a caller that counts reasons pairs it
//!   with [`partition_into`].
//! * [`step_weight`] — an optional reorder bound that restricts the
//!   search to schedules with at most `k` steps where a program overtakes
//!   its own pending stores (bound 0 ≡ SC-equivalent schedules).
//! * [`Snapshot`] / [`ForkPoint`] — a versioned, checksummed, atomically
//!   written on-disk image of an interrupted exploration (its open DFS
//!   frames as replayable continuations + visited fingerprints + run
//!   metadata), the substrate of the checker's checkpoint/resume support.
//! * [`FpTable`] — a lock-free sharded fingerprint table. No engine uses
//!   it; the `benchmark/` harness still times its insert path.
//!
//! Independence is decided by [`wbmem::Footprint`]s, reported by the
//! machine for every schedule choice; soundness of the relation per memory
//! model is argued in the repository's `DESIGN.md`. The DFS driving these
//! pieces lives in the `modelcheck` crate (`Engine::Dpor`); this crate
//! deliberately depends only on `wbmem` so the reduction can be reused by
//! any explorer over the machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ample;
pub mod bound;
pub mod expand;
pub mod fork;
pub mod fptable;
pub mod segmented;
pub mod sleep;
pub mod snapshot;
pub mod visited;

pub use ample::select as select_ample;
pub use bound::step_weight;
pub use expand::{expand, expand_into, partition_into, Expansion};
pub use fork::ForkPoint;
pub use fptable::FpTable;
pub use segmented::Segmented;
pub use sleep::SleepSet;
pub use snapshot::{BaseCounts, RunMeta, Snapshot, SnapshotError};
pub use visited::{DenseHeads, FpHeads, Heads, VisitTable};
