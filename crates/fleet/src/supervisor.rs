//! The fleet supervisor: prime, lease, supervise, merge, conclude.
//!
//! [`run_fleet`] drives a whole multi-process check:
//!
//! 1. **Prime** — an in-process run with a stop-after-N-transitions
//!    checkpoint policy builds a frontier worth partitioning. If the
//!    space finishes (or a violation appears) before the stop triggers,
//!    the verdict is returned directly — trivially exact.
//! 2. **Lease** — the checkpoint's fork points are sliced round-robin
//!    into lease units. Each lease snapshot carries the accepted visited
//!    set at issue time, the global state count (so `max_states` trips
//!    at the right point), and zeroed metrics — workers report deltas.
//! 3. **Supervise** — worker processes are spawned up to the
//!    concurrency cap and watched through heartbeat files. A dead,
//!    stalled, or torn-result worker costs one fault: the lease is
//!    re-issued after exponential backoff, until `max_attempts` faults
//!    poison it. Whatever a worker's exit status, a valid result file is
//!    still honored — a `kill -9` *after* the atomic commit loses no
//!    work.
//! 4. **Merge** — results are accepted in lease order; a result whose
//!    claimed fingerprints intersect the accepted set is stale (its seed
//!    predates a conflicting acceptance) and is re-leased with the
//!    current seed — this is what makes accepted deltas sum exactly
//!    (see `crates/modelcheck/src/lease.rs`). A violation or state-limit
//!    report cancels the fleet and reruns in-process for the exact
//!    counterexample, mirroring the parallel engine's own discipline.
//! 5. **Conclude** — accepted state merges into one snapshot; leftover
//!    work (poisoned slices, budget remainders) becomes its frontier
//!    and [`modelcheck::resume`] completes it in-process — the
//!    degradation ladder's last rung. With no budget this always
//!    terminates with a definitive verdict, chaos or no chaos.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ftobs::{Metric, MetricsSnapshot, Recorder, J};
use modelcheck::{check, resume, CheckConfig, Coverage, LeaseStatus, Stats, Verdict};
use por::{BaseCounts, ForkPoint, Snapshot};
use wbmem::FpSet;

use crate::spec::JobSpec;
use crate::wire::{read_result, write_atomic_bytes};

/// Supervisor tuning knobs. `worker_bin` and `dir` have no useful
/// defaults; everything else does (see [`FleetConfig::new`]).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Path to the `ft_worker` binary (see [`locate_worker`]).
    pub worker_bin: PathBuf,
    /// Maximum concurrently running worker processes.
    pub workers: usize,
    /// Target number of lease slices the frontier is partitioned into.
    pub leases: usize,
    /// Faults (crash/stall/torn result) a lease survives before it is
    /// poisoned and left to the in-process endgame.
    pub max_attempts: u32,
    /// Heartbeat periods without a beat before a worker counts as
    /// stalled and is killed.
    pub stall_beats: u32,
    /// Base retry backoff; doubles per fault on the same lease.
    pub backoff_ms: u64,
    /// Transitions the in-process prime phase runs before checkpointing
    /// the frontier for partitioning.
    pub prime_transitions: u64,
    /// Scratch directory for job/lease/result/heartbeat files.
    pub dir: PathBuf,
    /// `FT_CHAOS` value injected into workers (`None` scrubs the
    /// variable from their environment, so ambient chaos cannot leak
    /// in).
    pub chaos: Option<String>,
}

impl FleetConfig {
    /// A config with default tuning: 2 workers, 4 leases, 3 attempts,
    /// 10-beat stall deadline, 25 ms base backoff, 2000-transition
    /// prime.
    #[must_use]
    pub fn new(worker_bin: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> FleetConfig {
        FleetConfig {
            worker_bin: worker_bin.into(),
            workers: 2,
            leases: 4,
            max_attempts: 3,
            stall_beats: 10,
            backoff_ms: 25,
            prime_transitions: 2000,
            dir: dir.into(),
            chaos: None,
        }
    }
}

/// What the fleet went through, over and above the verdict. The same
/// counts land in the obs metrics (`leases_issued`, `leases_reassigned`,
/// `workers_lost`, `poisoned_leases`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Lease attempts started (including reassignments).
    pub leases_issued: u64,
    /// Leases re-issued after a fault or a stale-seed rejection.
    pub leases_reassigned: u64,
    /// Worker processes that died, stalled, or returned garbage.
    pub workers_lost: u64,
    /// Leases that exhausted their fault budget and fell through to the
    /// in-process endgame.
    pub poisoned_leases: u64,
}

/// A fleet run's outcome: the verdict (same type and discipline as the
/// in-process engines) plus the supervision counters.
#[derive(Debug)]
pub struct FleetReport {
    /// The check's verdict.
    pub verdict: Verdict,
    /// Supervision counters.
    pub stats: FleetStats,
}

/// Locate the `ft_worker` binary: `FT_WORKER_BIN` if set, else a
/// sibling of the current executable (also probing one directory up,
/// where cargo puts bins relative to test executables in `deps/`).
#[must_use]
pub fn locate_worker() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("FT_WORKER_BIN") {
        if !p.is_empty() {
            return Some(PathBuf::from(p));
        }
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("ft_worker{}", std::env::consts::EXE_SUFFIX);
    let dir = exe.parent()?;
    for d in [Some(dir), dir.parent()].into_iter().flatten() {
        let cand = d.join(&name);
        if cand.exists() {
            return Some(cand);
        }
    }
    None
}

/// Where a lease slot is in its lifecycle.
enum SlotState {
    /// Waiting to be (re)spawned once `not_before` passes.
    Pending { not_before: Instant },
    /// A worker process is on it.
    Running(Running),
    /// A validated result is in, waiting for head-of-line acceptance.
    Done {
        status: LeaseStatus,
        snap: Box<Snapshot>,
    },
    /// Result accepted and merged.
    Accepted,
    /// Fault budget exhausted; slice deferred to the endgame.
    Poisoned,
}

struct Running {
    child: Child,
    attempt: u32,
    result_path: PathBuf,
    hb_path: PathBuf,
    last_beat: Instant,
    beat_seen: Vec<u8>,
}

struct Slot {
    forks: Vec<ForkPoint>,
    /// Next attempt number (also the file-name disambiguator, so a
    /// killed attempt's late write can never satisfy a newer one).
    attempt: u32,
    /// Faults so far (stale-seed rejections are *not* faults: they are
    /// bounded by construction, one per slot once it is head-of-line).
    faults: u32,
    state: SlotState,
}

/// Run `job` across a supervised worker fleet. `recorder` receives the
/// supervision counters and, in the endgame, the exploration's own
/// metrics; pass an enabled recorder to get the merged
/// [`MetricsSnapshot`] in the verdict's stats (bit-identical, in
/// diagnostic mode, to a fault-free single-process run — the chaos
/// differential suite's pinned property).
#[must_use]
pub fn run_fleet(job: &JobSpec, fleet: &FleetConfig, recorder: Recorder) -> FleetReport {
    let start = Instant::now();
    let machine = job.program.machine();
    let config = job.config(recorder);
    let mut stats = FleetStats::default();

    // --- phase 1: prime in-process until the frontier is worth slicing.
    let prime_path = fleet.dir.join("prime.ftc");
    let mut prime_cfg = config.clone();
    prime_cfg.checkpoint =
        Some(modelcheck::CheckpointPolicy::at(&prime_path).stop_after(fleet.prime_transitions));
    let prime_verdict = check(&machine, &prime_cfg);
    let has_checkpoint = matches!(
        &prime_verdict,
        Verdict::Inconclusive(_, cov) if cov.checkpoint.is_some()
    );
    if !has_checkpoint {
        // The space completed (or failed) before the stop triggered:
        // the in-process verdict is the verdict.
        return FleetReport {
            verdict: prime_verdict,
            stats,
        };
    }
    let prime = match Snapshot::read(&prime_path) {
        Ok(s) => s,
        Err(_) => {
            // Our own just-written checkpoint does not validate: fall
            // straight down the degradation ladder to a fresh
            // single-process run.
            config.recorder.reset_counts();
            return FleetReport {
                verdict: check(&machine, &config),
                stats,
            };
        }
    };
    // The prime phase's counters live on inside `prime.metrics`; the
    // endgame merges snapshot metrics with the recorder's, so the live
    // counts must start from zero or they would be double-counted.
    config.recorder.reset_counts();

    // --- phase 2: partition the frontier into lease slices.
    let nslices = fleet.leases.clamp(1, prime.forks.len().max(1));
    let mut slots: Vec<Slot> = (0..nslices)
        .map(|_| Slot {
            forks: Vec::new(),
            attempt: 0,
            faults: 0,
            state: SlotState::Pending { not_before: start },
        })
        .collect();
    for (i, fork) in prime.forks.iter().enumerate() {
        slots[i % nslices].forks.push(fork.clone());
    }

    let job_path = fleet.dir.join("job.txt");
    if let Err(e) = write_atomic_bytes(&job_path, job.to_text().as_bytes()) {
        config.recorder.reset_counts();
        let _ = e;
        return FleetReport {
            verdict: check(&machine, &config),
            stats,
        };
    }

    // Accepted state: the supervisor's source of truth.
    let mut acc_set: FpSet = prime.visited.iter().copied().collect();
    let mut acc_base = prime.base;
    let mut acc_metrics = prime.metrics;
    let mut acc_edges = prime.edges.clone();
    let mut acc_terminals = prime.terminals.clone();
    let mut leftovers: Vec<ForkPoint> = Vec::new();

    let deadline = config.budget.map(|b| start + b);
    let stall =
        Duration::from_millis(job.heartbeat_ms.max(1) * u64::from(fleet.stall_beats.max(1)));
    let mut next_accept = 0usize;
    let mut budget_exhausted = false;

    // --- phase 3: the supervision loop.
    'supervise: loop {
        // Accept validated results strictly in lease order.
        while next_accept < slots.len() {
            let slot = &mut slots[next_accept];
            match &slot.state {
                SlotState::Done { .. } => {}
                SlotState::Poisoned => {
                    next_accept += 1;
                    continue;
                }
                _ => break,
            }
            let SlotState::Done { status, snap } =
                std::mem::replace(&mut slot.state, SlotState::Accepted)
            else {
                unreachable!()
            };
            if snap.visited.iter().any(|fp| acc_set.contains(fp)) {
                // Stale seed: a later-accepted predecessor claimed one of
                // these states first. Re-lease with the current seed;
                // bounded because no earlier slot can accept anymore.
                slot.state = SlotState::Pending {
                    not_before: Instant::now(),
                };
                stats.leases_reassigned += 1;
                config.recorder.incr(Metric::LeasesReassigned);
                config.recorder.event(
                    "fleet_lease_rejected",
                    &[("lease", J::U(next_accept as u64))],
                );
                continue;
            }
            match status {
                LeaseStatus::Violated | LeaseStatus::LimitHit => {
                    // Same discipline as the parallel engine: cancel
                    // everything and rerun in-process for the exact
                    // verdict and counterexample.
                    return FleetReport {
                        verdict: cancel_and_rerun(&machine, &config, &mut slots, &stats),
                        stats,
                    };
                }
                LeaseStatus::Completed | LeaseStatus::BudgetHit => {
                    acc_set.extend(snap.visited.iter().copied());
                    acc_base.states += snap.base.states;
                    acc_base.transitions += snap.base.transitions;
                    acc_base.terminal_states += snap.base.terminal_states;
                    acc_base.sleep_hits += snap.base.sleep_hits;
                    acc_metrics.merge(&snap.metrics);
                    acc_edges.extend(snap.edges.iter().copied());
                    acc_terminals.extend(snap.terminals.iter().copied());
                    leftovers.extend(snap.forks.iter().cloned());
                    next_accept += 1;
                    if acc_base.states > config.max_states as u64 {
                        return FleetReport {
                            verdict: cancel_and_rerun(&machine, &config, &mut slots, &stats),
                            stats,
                        };
                    }
                }
            }
        }

        if slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Accepted | SlotState::Poisoned))
        {
            break 'supervise;
        }

        // Enforce the wall-clock budget across the whole fleet.
        if let Some(d) = deadline {
            if Instant::now() >= d {
                for slot in &mut slots {
                    if let SlotState::Running(r) = &mut slot.state {
                        let _ = r.child.kill();
                        let _ = r.child.wait();
                    }
                    if !matches!(slot.state, SlotState::Accepted) {
                        slot.state = SlotState::Poisoned;
                        leftovers.append(&mut slot.forks);
                    }
                }
                budget_exhausted = true;
                break 'supervise;
            }
        }

        // Spawn pending leases up to the concurrency cap.
        let running = slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Running(_)))
            .count();
        let mut free = fleet.workers.max(1).saturating_sub(running);
        for (id, slot) in slots.iter_mut().enumerate() {
            if free == 0 {
                break;
            }
            let ready = matches!(
                &slot.state,
                SlotState::Pending { not_before } if Instant::now() >= *not_before
            );
            if !ready {
                continue;
            }
            let lease_seed = {
                let mut v: Vec<u128> = acc_set.iter().copied().collect();
                v.sort_unstable();
                v
            };
            let attempt = slot.attempt;
            slot.attempt += 1;
            let lease_path = fleet.dir.join(format!("lease_{id}_{attempt}.ftc"));
            let result_path = fleet.dir.join(format!("result_{id}_{attempt}.ftr"));
            let hb_path = fleet.dir.join(format!("hb_{id}_{attempt}"));
            let lease = Snapshot {
                meta: prime.meta.clone(),
                base: BaseCounts {
                    states: acc_base.states,
                    ..BaseCounts::default()
                },
                metrics: MetricsSnapshot::default(),
                forks: slot.forks.clone(),
                visited: lease_seed,
                edges: Vec::new(),
                terminals: Vec::new(),
            };
            if lease.write_atomic(&lease_path).is_err() {
                fault(
                    slot,
                    id,
                    fleet,
                    &config.recorder,
                    &mut stats,
                    &mut leftovers,
                );
                continue;
            }
            let mut cmd = Command::new(&fleet.worker_bin);
            cmd.arg(&job_path)
                .arg(&lease_path)
                .arg(&result_path)
                .arg(&hb_path)
                .arg(id.to_string())
                .arg(attempt.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            match &fleet.chaos {
                Some(spec) => {
                    cmd.env("FT_CHAOS", spec);
                }
                None => {
                    cmd.env_remove("FT_CHAOS");
                }
            }
            match cmd.spawn() {
                Ok(child) => {
                    stats.leases_issued += 1;
                    config.recorder.incr(Metric::LeasesIssued);
                    slot.state = SlotState::Running(Running {
                        child,
                        attempt,
                        result_path,
                        hb_path,
                        last_beat: Instant::now(),
                        beat_seen: Vec::new(),
                    });
                    free -= 1;
                }
                Err(_) => {
                    fault(
                        slot,
                        id,
                        fleet,
                        &config.recorder,
                        &mut stats,
                        &mut leftovers,
                    );
                }
            }
        }

        // Poll running workers: exits, results, heartbeats.
        for (id, slot) in slots.iter_mut().enumerate() {
            let SlotState::Running(r) = &mut slot.state else {
                continue;
            };
            let exited = match r.child.try_wait() {
                Ok(Some(_)) => true,
                Ok(None) => false,
                Err(_) => true,
            };
            if !exited {
                // Stall detection: the heartbeat file's content must
                // keep changing.
                if let Ok(beat) = std::fs::read(&r.hb_path) {
                    if beat != r.beat_seen {
                        r.beat_seen = beat;
                        r.last_beat = Instant::now();
                    }
                }
                if r.last_beat.elapsed() > stall {
                    let _ = r.child.kill();
                    let _ = r.child.wait();
                } else {
                    continue;
                }
            }
            // The worker is gone (exited or just killed for stalling).
            // Whatever its exit status, a valid committed result is
            // honored — the atomic rename either fully happened or not.
            let (attempt, result_path) = (r.attempt, r.result_path.clone());
            match read_result(&result_path, id as u64, attempt) {
                Ok(wire) => {
                    slot.state = SlotState::Done {
                        status: wire.status,
                        snap: Box::new(wire.snapshot),
                    };
                }
                Err(_) => {
                    fault(
                        slot,
                        id,
                        fleet,
                        &config.recorder,
                        &mut stats,
                        &mut leftovers,
                    );
                }
            }
        }

        std::thread::sleep(Duration::from_millis((job.heartbeat_ms / 4).clamp(2, 25)));
    }

    // --- phase 4: merge and conclude.
    let mut acc_vec: Vec<u128> = acc_set.into_iter().collect();
    acc_vec.sort_unstable();
    let merged = Snapshot {
        meta: prime.meta.clone(),
        base: acc_base,
        metrics: acc_metrics,
        forks: leftovers,
        visited: acc_vec,
        edges: acc_edges,
        terminals: acc_terminals,
    };
    let merged_path = fleet.dir.join("merged.ftc");
    if merged.write_atomic(&merged_path).is_err() {
        config.recorder.reset_counts();
        restore_counters(&config.recorder, &stats);
        return FleetReport {
            verdict: check(&machine, &config),
            stats,
        };
    }

    if budget_exhausted && !merged.forks.is_empty() {
        // Nothing left to run within budget: report the merged partial
        // coverage directly, checkpoint included so a later resume can
        // continue from exactly here.
        let mut metrics = merged.metrics;
        metrics.merge(&config.recorder.snapshot());
        #[allow(clippy::cast_possible_truncation)]
        let verdict = Verdict::Inconclusive(
            Stats {
                states: merged.base.states as usize,
                transitions: merged.base.transitions as usize,
                terminal_states: merged.base.terminal_states as usize,
                elapsed: start.elapsed(),
                metrics,
            },
            Coverage {
                frontier: merged.forks.len(),
                sleep_hits: merged.base.sleep_hits as usize,
                checkpoint: Some(merged_path),
                est_total_states: None,
                est_remaining: None,
            },
        );
        return FleetReport { verdict, stats };
    }

    // The endgame: resume the merged snapshot in-process. This finishes
    // any leftover frontier (poisoned slices — the degradation ladder's
    // last rung), runs the termination pass over the merged edge graph,
    // and applies the standard resume verdict discipline, including the
    // prior+own metrics merge.
    config.recorder.event(
        "fleet_endgame",
        &[
            ("leftover_forks", J::U(merged.forks.len() as u64)),
            ("poisoned", J::U(stats.poisoned_leases)),
        ],
    );
    FleetReport {
        verdict: resume(&machine, &config, &merged_path),
        stats,
    }
}

/// Record one fault against `slot`: retry with exponential backoff, or
/// poison it once the budget is gone (its slice defers to the endgame).
fn fault(
    slot: &mut Slot,
    id: usize,
    fleet: &FleetConfig,
    recorder: &Recorder,
    stats: &mut FleetStats,
    leftovers: &mut Vec<ForkPoint>,
) {
    slot.faults += 1;
    stats.workers_lost += 1;
    recorder.incr(Metric::WorkersLost);
    if slot.faults >= fleet.max_attempts.max(1) {
        slot.state = SlotState::Poisoned;
        leftovers.append(&mut slot.forks);
        stats.poisoned_leases += 1;
        recorder.incr(Metric::PoisonedLeases);
        recorder.event("fleet_lease_poisoned", &[("lease", J::U(id as u64))]);
    } else {
        let backoff = fleet.backoff_ms << (slot.faults - 1).min(8);
        slot.state = SlotState::Pending {
            not_before: Instant::now() + Duration::from_millis(backoff),
        };
        stats.leases_reassigned += 1;
        recorder.incr(Metric::LeasesReassigned);
        recorder.event(
            "fleet_lease_reassigned",
            &[
                ("lease", J::U(id as u64)),
                ("faults", J::U(u64::from(slot.faults))),
            ],
        );
    }
}

/// A lease reported a violation or the state limit: kill every running
/// worker and rerun the whole check in this process for the exact
/// verdict — the same sequential-rerun discipline the parallel engine
/// applies to its own workers' reports.
fn cancel_and_rerun<P: wbmem::Process>(
    machine: &wbmem::Machine<P>,
    config: &CheckConfig,
    slots: &mut [Slot],
    stats: &FleetStats,
) -> Verdict {
    for slot in slots.iter_mut() {
        if let SlotState::Running(r) = &mut slot.state {
            let _ = r.child.kill();
            let _ = r.child.wait();
        }
    }
    config.recorder.reset_counts();
    restore_counters(&config.recorder, stats);
    check(machine, config)
}

/// Re-apply the supervision counters after a `reset_counts` so the
/// final verdict's metrics still tell the fleet's story (they sit past
/// the deterministic range, so differential comparisons ignore them).
fn restore_counters(recorder: &Recorder, stats: &FleetStats) {
    recorder.add(Metric::LeasesIssued, stats.leases_issued);
    recorder.add(Metric::LeasesReassigned, stats.leases_reassigned);
    recorder.add(Metric::WorkersLost, stats.workers_lost);
    recorder.add(Metric::PoisonedLeases, stats.poisoned_leases);
}
