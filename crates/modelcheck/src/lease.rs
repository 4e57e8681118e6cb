//! Fleet lease execution — the worker-process half of multi-process
//! exploration (`ftfleet`).
//!
//! A **lease** is a self-contained slice of an interrupted exploration:
//! a [`por::Snapshot`] whose `visited` set is the supervisor's accepted
//! state set at issue time, whose `forks` are the frontier slice this
//! worker owns, and whose `base.states` carries the global state count
//! (so the `max_states` limit trips at the right global point). Base
//! transition/terminal counts and metrics are zeroed by the supervisor:
//! a lease result reports **deltas only**, and the supervisor owns the
//! accumulated totals.
//!
//! [`run_lease`] validates the lease against this process's program and
//! configuration (the checks [`crate::resume`] applies), runs the seeded
//! work-stealing sweep (`pardpor.rs`) without the coordinator's
//! verdict discipline — no sequential rerun, and no local termination
//! pass: a worker process sees only its slice of the graph, which would
//! report bogus stuck states — and returns the raw outcome plus a result
//! snapshot ready to ship back.
//!
//! ## Why results are exact
//!
//! The supervisor accepts results in deterministic lease order and
//! rejects any result whose claimed fingerprints intersect previously
//! accepted claims. An accepted run therefore never *reached* a state an
//! earlier accepted run claimed (reaching an unseeded state always
//! claims it), so its execution is bit-identical to the same slice run
//! sequentially after its predecessors — the resume-chain property the
//! differential suite already pins down. Summing accepted deltas thus
//! reproduces an uninterrupted single-process run exactly, including the
//! deterministic metrics in diagnostic mode.

use std::time::Instant;

use por::{BaseCounts, RunMeta, Snapshot};
use wbmem::{FpSet, Machine, Process};

use crate::checker::{bounded_root, run_meta_of, CheckConfig, Engine};
use crate::pardpor::sweep;

/// How a lease run ended. Encoded into result files by the fleet crate
/// via [`code`](LeaseStatus::code)/[`from_code`](LeaseStatus::from_code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseStatus {
    /// The slice was explored to exhaustion; `forks` is empty.
    Completed,
    /// The deadline or a stop trigger cut the sweep short; `forks` holds
    /// the unexplored remainder.
    BudgetHit,
    /// The global state count overran `max_states`. The supervisor
    /// cancels the fleet and reruns sequentially for the exact verdict.
    LimitHit,
    /// A property violation was found. The supervisor cancels the fleet
    /// and reruns sequentially for the exact counterexample.
    Violated,
}

impl LeaseStatus {
    /// Stable wire encoding for result files.
    #[must_use]
    pub const fn code(self) -> u8 {
        match self {
            LeaseStatus::Completed => 0,
            LeaseStatus::BudgetHit => 1,
            LeaseStatus::LimitHit => 2,
            LeaseStatus::Violated => 3,
        }
    }

    /// Decode [`code`](Self::code); `None` for unknown bytes (torn or
    /// corrupt result files).
    #[must_use]
    pub const fn from_code(code: u8) -> Option<LeaseStatus> {
        match code {
            0 => Some(LeaseStatus::Completed),
            1 => Some(LeaseStatus::BudgetHit),
            2 => Some(LeaseStatus::LimitHit),
            3 => Some(LeaseStatus::Violated),
            _ => None,
        }
    }
}

/// What [`run_lease`] hands back: the status plus a result snapshot
/// whose `visited` holds only the fingerprints this run claimed first,
/// whose `base`/`metrics` are this run's deltas, and whose `forks` are
/// the unexplored remainder (empty on [`LeaseStatus::Completed`]).
#[derive(Debug)]
pub struct LeaseOutcome {
    /// How the sweep ended.
    pub status: LeaseStatus,
    /// Delta snapshot to ship back to the supervisor.
    pub result: Snapshot,
}

/// The run metadata a checkpoint, lease, or result for `(initial,
/// config)` must carry — the shared source of truth for the three
/// validation checks in [`crate::resume`] and [`run_lease`]. The
/// program hash is taken over the crash-bounded root when the
/// configuration injects crashes, exactly as the engines hash it.
#[must_use]
pub fn run_meta<P: Process>(initial: &Machine<P>, config: &CheckConfig) -> RunMeta {
    run_meta_of(config, bounded_root(initial, config).fingerprint())
}

/// Validate a snapshot's metadata against the expected metadata for this
/// process's program and configuration, and that the engine can continue
/// one at all. Error messages name the first mismatch; shared by
/// [`crate::resume`] and [`run_lease`] so the two read paths cannot drift.
pub fn validate_meta(meta: &RunMeta, expect: &RunMeta) -> Result<(), String> {
    if meta.engine != expect.engine {
        return Err(format!(
            "engine mismatch: checkpoint was written by `{}`, resuming as `{}`",
            meta.engine, expect.engine
        ));
    }
    if meta.config_hash != expect.config_hash {
        return Err(
            "configuration mismatch: checkpoint was written under different \
             properties/bounds/crash settings"
                .to_string(),
        );
    }
    if meta.program_hash != expect.program_hash {
        return Err(
            "program mismatch: checkpoint was written for a different initial state".to_string(),
        );
    }
    // Every kernel engine can continue a checkpoint (a sequential one as
    // one worker, a parallel one as itself); the oracle has no
    // serialized form.
    if expect.engine == Engine::CloneDfs.label() {
        let label = &expect.engine;
        return Err(format!(
            "engine `{label}` does not support checkpoint/resume"
        ));
    }
    Ok(())
}

/// Execute one lease in this process and return the delta result.
///
/// `initial` is the **unbounded** root machine (the crash bound from
/// `config` is applied here, as in [`crate::check`]); `lease` is the
/// snapshot the supervisor issued. Errors — metadata mismatches, an
/// unsupported engine, or a worker panic — should surface as a nonzero
/// process exit so the supervisor retries (and eventually poisons) the
/// lease; they are never silently absorbed.
///
/// The `config.recorder` must be fresh for the delta metrics to mean
/// anything; `ft_worker` runs one lease per process, which guarantees
/// it.
pub fn run_lease<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    lease: Snapshot,
) -> Result<LeaseOutcome, String> {
    let start = Instant::now();
    let expect = run_meta(initial, config);
    validate_meta(&lease.meta, &expect)?;

    let root = bounded_root(initial, config);
    // The lease's visited set pre-seeds the first-visit table, so this
    // run claims only states no earlier accepted run claimed, and
    // `base.states` carries the global state count. No watchdog: worker
    // processes are supervised externally via heartbeat files.
    let deadline = config.budget.map(|b| start + b);
    let seed = (
        lease.visited.as_slice(),
        Some(lease.forks),
        lease.base.states as usize,
    );
    let (run, table) = sweep(&root, config, deadline, None, seed);
    if let Some(msg) = run.panicked {
        return Err(format!("lease worker panicked: {msg}"));
    }
    config
        .recorder
        .gauge_set(ftobs::Gauge::DedupOccupancy, table.len() as u64);
    let status = if run.violated {
        LeaseStatus::Violated
    } else if run.states > config.max_states {
        LeaseStatus::LimitHit
    } else if run.budget_hit {
        LeaseStatus::BudgetHit
    } else {
        LeaseStatus::Completed
    };
    // Deltas only: what this run claimed first and counted itself.
    let seeded: FpSet = lease.visited.iter().copied().collect();
    let mut visited = table.export();
    visited.retain(|fp| !seeded.contains(fp));
    Ok(LeaseOutcome {
        status,
        result: Snapshot {
            meta: expect,
            base: BaseCounts {
                states: (run.states as u64).saturating_sub(lease.base.states),
                transitions: run.transitions as u64,
                terminal_states: run.terminals.len() as u64,
                sleep_hits: run.sleep_hits as u64,
            },
            metrics: config.recorder.snapshot(),
            forks: run.forks,
            visited,
            edges: run.edges,
            terminals: run.terminals,
        },
    })
}
