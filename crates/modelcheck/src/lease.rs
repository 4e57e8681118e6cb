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
//! configuration (the same three checks [`crate::resume`] applies),
//! runs the seeded work-stealing sweep with the verdict discipline
//! stripped — no sequential rerun, no local termination pass — and
//! returns the raw outcome plus a result snapshot ready to ship back.
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

use por::{RunMeta, Snapshot};
use wbmem::{Machine, Process};

use crate::checker::{config_hash, CheckConfig, Engine};
use crate::pardpor::{check_lease, ResumeSeed};

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
    let program_hash = if config.max_crashes > 0 {
        let mut m = initial.clone();
        m.set_crash_bound(config.crash_semantics, config.max_crashes);
        m.fingerprint()
    } else {
        initial.fingerprint()
    };
    RunMeta {
        engine: config.engine.label().to_string(),
        config_hash: config_hash(config),
        program_hash,
    }
}

/// Validate a snapshot's metadata against the expected metadata for this
/// process's program and configuration. Error messages name the first
/// mismatch; shared by [`crate::resume`] and [`run_lease`] so the two
/// read paths cannot drift.
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
    Ok(())
}

/// Map a checkpointing engine onto the seeded continuation coordinator's
/// `(threads, reorder_bound)` parameters — one worker in diagnostic mode
/// replays the undo engine exactly, one worker with the original bound
/// replays the DPOR engine, and the parallel engine continues as itself.
/// Errors for engines that do not support checkpoint/resume.
pub fn continuation_params(engine: Engine) -> Result<(usize, Option<u32>), String> {
    match engine {
        Engine::Undo => Ok((1, Some(u32::MAX))),
        Engine::Dpor { reorder_bound } => Ok((1, reorder_bound)),
        Engine::ParallelDpor {
            threads,
            reorder_bound,
        } => Ok((threads, reorder_bound)),
        Engine::CloneDfs | Engine::Parallel { .. } => Err(format!(
            "engine `{}` does not support checkpoint/resume",
            engine.label()
        )),
    }
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
    let (threads, reorder_bound) = continuation_params(config.engine)?;

    let crash_root;
    let root = if config.max_crashes > 0 {
        let mut m = initial.clone();
        m.set_crash_bound(config.crash_semantics, config.max_crashes);
        crash_root = m;
        &crash_root
    } else {
        initial
    };

    let deadline = config.budget.map(|b| start + b);
    let seed = ResumeSeed {
        visited: lease.visited,
        forks: lease.forks,
        base: lease.base,
        metrics: lease.metrics,
        edges: Vec::new(),
        terminals: Vec::new(),
    };
    let run = check_lease(root, config, threads, reorder_bound, deadline, seed);
    if let Some(msg) = run.panicked {
        return Err(format!("lease worker panicked: {msg}"));
    }
    let status = if run.violated {
        LeaseStatus::Violated
    } else if run.limit_hit {
        LeaseStatus::LimitHit
    } else if run.budget_hit {
        LeaseStatus::BudgetHit
    } else {
        LeaseStatus::Completed
    };
    Ok(LeaseOutcome {
        status,
        result: Snapshot {
            meta: expect,
            base: run.base,
            metrics: config.recorder.snapshot(),
            forks: run.forks,
            visited: run.claimed,
            edges: run.edges,
            terminals: run.terminals,
        },
    })
}
