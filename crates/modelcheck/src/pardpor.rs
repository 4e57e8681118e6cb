//! The work-stealing parallel DPOR engine ([`Engine::ParallelDpor`]).
//!
//! Multiplies the repo's two performance levers: the `por` reduction
//! (sleep sets + ample sets + reorder bound, exactly as in
//! [`crate::dpor`]) and multi-core sweep (as in `Engine::Parallel`).
//! Every worker runs the sequential reduced DFS verbatim; the only
//! additions are *where states are deduplicated* and *how idle workers
//! get work*:
//!
//! * **Dedup** rides on [`por::FpTable`], a lock-free sharded
//!   fingerprint table (CAS insert, write-once slots), so the one
//!   structure every worker touches on every transition takes no locks.
//!   The global table decides *first visits* — state counting and
//!   property checks happen exactly once across all workers. The
//!   sleep-set/budget *dominance* pruning ([`por::VisitTable`] is not
//!   thread-safe, and its antichains are order-dependent anyway) stays
//!   worker-local: a worker may therefore re-explore a state another
//!   worker covered. That is strictly *less* pruning than the
//!   sequential engine — sound by the same argument that makes
//!   dominance pruning optional. Under sleep sets alone (termination
//!   mode, diagnostic mode) both engines visit exactly the reachable
//!   states, so `Stats.states` matches the sequential count. Under
//!   *ample* pruning the dropped-state set is traversal-dependent for
//!   any DPOR (the cycle proviso consults the path that reached the
//!   state), so a re-exploration with a smaller sleep set can reach a
//!   handful of states the sequential order happened to drop — counts
//!   may differ by a sliver; verdicts never do.
//! * **Work distribution** is fork-point stealing: at its poll cadence a
//!   busy worker donates the unexplored remainder of its bottom-most
//!   frame — replay path, sleep set, taken siblings, ample-excluded
//!   choices, remaining reorder budget ([`por::ForkPoint`]) — into a
//!   bounded queue ([`por::ForkQueue`]); an idle worker re-materializes
//!   the state by replaying the path on a fresh machine clone
//!   ([`wbmem::Machine::replay_path`], unrecorded so metrics stay
//!   clean) and continues the frame as the owner would have. The path's
//!   intermediate fingerprints pre-seed the thief's on-stack set, so
//!   the cycle proviso fires for the thief exactly where it would have
//!   for the owner. See DESIGN.md §7 for the full soundness argument.
//!
//! **Verdict discipline** mirrors `Engine::Parallel`, with the
//! sequential fallback being [`crate::dpor::check_dpor`] so results stay
//! bit-identical to [`Engine::Dpor`](crate::Engine::Dpor): any
//! violation, state-limit overrun, stuck state, or worker panic cancels
//! the sweep (metrics reset) and reruns sequentially; budget expiry
//! returns [`Verdict::Inconclusive`] with merged coverage. In the
//! diagnostic disabled-reduction mode (`reorder_bound ==
//! Some(u32::MAX)`) the global table is the *only* pruning rule, a
//! completed sweep expands every reachable state exactly once, and the
//! run's [`ftobs::MetricsSnapshot`] is bit-identical to the sequential
//! engines' — the property the differential suite pins down. In reduced
//! mode `Stats.transitions` may exceed the sequential count by the
//! cross-worker re-explorations, and under ample pruning `Stats.states`
//! may drift by the proviso's path dependence (above); verdicts do not
//! differ.
//!
//! Tiny runs skip all of this: below a state threshold (default 4096;
//! override with `FT_PARDPOR_SEQ`, `0` disables the gate) the check
//! runs [`check_dpor`] outright — first capped at the threshold, and
//! only if that overflows does the parallel machinery spin up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ftobs::{
    EstStats, Gauge, Metric, MetricsSnapshot, Progress, SpanId, TraceCtx, TreeEstimator, J,
};
use por::{
    expand, step_weight, BaseCounts, ForkPoint, ForkQueue, FpTable, RunMeta, SleepSet, Snapshot,
    VisitTable,
};
use wbmem::{FpMap, FpSet, Machine, Process, SchedElem, StepOutcome, UndoToken};

use crate::checker::{
    config_hash, find_stuck, in_cs_count, merge_id, panic_message, returns_are_permutation,
    violates_invariant, without_checkpoint, write_checkpoint, CheckConfig, CheckError,
    CheckpointPolicy, Coverage, Stats, Verdict,
};
use crate::dpor::check_dpor;

/// States below which coordination is not worth paying for (the
/// sequential engine explores them first; only an overflow starts the
/// workers). `FT_PARDPOR_SEQ` overrides; `0` disables the gate — the
/// differential tests use that to force the parallel path onto spaces
/// of every size.
fn seq_threshold() -> usize {
    std::env::var("FT_PARDPOR_SEQ")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
}

/// What one work-stealing worker reports back; the superset of the
/// plain parallel engine's report plus the DPOR- and stealing-specific
/// tallies.
#[derive(Default)]
struct PReport {
    transitions: usize,
    /// Fingerprints of the all-done states this worker first visited.
    terminal_fps: Vec<u128>,
    /// `(parent fp, child fp)` edges, taken and slept-probed (collected
    /// only when the termination check is on).
    edges: Vec<(u128, u128)>,
    /// Worker saw a property violation (details come from the
    /// sequential rerun).
    violated: bool,
    /// Open DFS frames when the worker stopped early.
    frontier: usize,
    sleep_hits: usize,
    /// Fork points this worker donated.
    published: u64,
    /// Fork points this worker took and re-materialized.
    stolen: u64,
    /// Open frames serialized on a graceful stop (checkpoint policy
    /// only); merged with the queue's pending tasks into the snapshot.
    forks: Vec<ForkPoint>,
    /// This worker's tree-size samples, merged by the coordinator into
    /// the sweep-wide progress estimate.
    est: EstStats,
}

/// The exploration state a resumed run starts from, decoded from a
/// [`Snapshot`] by [`crate::resume`]: the fingerprints pre-seed the
/// global first-visit table (so already-counted states are not
/// re-counted or re-checked), the fork points seed the work queue, and
/// the base counts/metrics/graph fold into the final statistics so the
/// combined run reports what an uninterrupted one would have.
pub(crate) struct ResumeSeed {
    pub(crate) visited: Vec<u128>,
    pub(crate) forks: Vec<ForkPoint>,
    pub(crate) base: BaseCounts,
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) edges: Vec<(u128, u128)>,
    pub(crate) terminals: Vec<u128>,
}

/// Watchdog cadence: a busy worker whose heartbeat does not advance for
/// two consecutive intervals is declared stalled. `FT_WATCHDOG_MS`
/// overrides the default 5000ms interval (the supervised tests use a
/// few tens of milliseconds).
fn watchdog_interval() -> Option<Duration> {
    std::env::var("FT_WATCHDOG_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
}

/// One frame of a worker's reduced DFS — the sequential engine's frame
/// plus `depth` (how many schedule elements reach it from the root), so
/// a donation can snapshot the frame's replay path in O(depth).
struct PFrame<P> {
    fp: u128,
    depth: usize,
    sleep: SleepSet,
    choices: Vec<SchedElem>,
    next: usize,
    taken: Vec<(SchedElem, wbmem::Footprint)>,
    excluded: Vec<SchedElem>,
    remaining: u32,
    token: Option<UndoToken<P>>,
}

enum TaskEnd {
    Completed,
    Aborted,
}

/// The coordinator; see the module docs. Entered via [`crate::check`]
/// with [`Engine::ParallelDpor`](crate::Engine::ParallelDpor), or via
/// [`crate::resume`] with a [`ResumeSeed`] decoded from a checkpoint —
/// the seeded path is also how the *sequential* engines resume: one
/// worker consuming their serialized frontier runs the same DFS they
/// would have (with the diagnostic mode reproducing `Engine::Undo`'s
/// exact edge multiset).
pub(crate) fn check_pardpor<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    threads: usize,
    reorder_bound: Option<u32>,
    deadline: Option<Instant>,
    resume: Option<ResumeSeed>,
) -> Verdict {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let seeded = resume.is_some();
    if threads <= 1 && !seeded {
        return traced_seq("seq_gate", initial, config, reorder_bound, deadline);
    }

    // Sequential gate: small spaces never pay for coordination. A capped
    // sequential run either finishes (its verdict is what the uncapped
    // sequential engine would return, since the cap was never hit) or
    // overflows, in which case its partial metrics are dropped and the
    // parallel sweep starts from scratch. A resumed run skips the gate:
    // its work-list is the snapshot's frontier, not the root.
    let threshold = seq_threshold();
    if threshold > 0 && !seeded {
        if config.max_states <= threshold {
            return traced_seq("seq_gate", initial, config, reorder_bound, deadline);
        }
        let mut capped = config.clone();
        capped.max_states = threshold;
        let v = traced_seq("seq_gate", initial, &capped, reorder_bound, deadline);
        if !matches!(v, Verdict::StateLimit(_)) {
            return v;
        }
        config.recorder.reset_counts();
    }

    // Root-state checks mirror the sequential engine; any violation is
    // reproduced sequentially for an identical verdict. The invariant is
    // a user-supplied function, so even the root evaluation is guarded.
    // A resumed run skips them: the interrupted run already checked the
    // root (a root violation returns before any checkpoint is written).
    if !seeded {
        if config.check_mutex && in_cs_count(initial) > 1 {
            return traced_seq("seq_rerun", initial, config, reorder_bound, deadline);
        }
        match catch_unwind(AssertUnwindSafe(|| violates_invariant(config, initial))) {
            Ok(false) => {}
            Ok(true) => return traced_seq("seq_rerun", initial, config, reorder_bound, deadline),
            Err(payload) => {
                return Verdict::Error(
                    Stats::default(),
                    CheckError::Panic(format!(
                        "root invariant: {}",
                        panic_message(payload.as_ref())
                    )),
                )
            }
        }
    }

    let disable_reduction = reorder_bound == Some(u32::MAX);
    let use_ample = !config.check_termination && !disable_reduction;
    let budget0 = reorder_bound.unwrap_or(u32::MAX);
    let obs = &config.recorder;
    let policy = config.checkpoint.as_ref();

    let table = FpTable::new();
    let root_fp = initial.fingerprint();
    // Unpack the seed: pre-seed the global first-visit table (resumed
    // workers neither re-count nor re-check states the interrupted run
    // covered) and keep the base counts/metrics/graph for the merge.
    let (base, seed_metrics, seed_edges, seed_terminals, seed_forks) = match resume {
        Some(seed) => {
            for &fp in &seed.visited {
                table.insert(fp);
            }
            (
                seed.base,
                Some(seed.metrics),
                seed.edges,
                seed.terminals,
                Some(seed.forks),
            )
        }
        None => (BaseCounts::default(), None, Vec::new(), Vec::new(), None),
    };
    table.insert(root_fp);
    let state_count = AtomicUsize::new(if seeded { base.states as usize } else { 1 });
    // Transitions executed by *this* process — `stop_after_transitions`
    // is a per-run cut, so a resumed run makes progress before its own
    // cut can fire again.
    let transitions_now = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let budget_hit = AtomicBool::new(false);
    let tripped = AtomicBool::new(false);
    if !seeded {
        obs.on_state(0);
        if initial.all_done() {
            obs.incr(Metric::TerminalStates);
        }
    }

    // Seed the queue: on a fresh run the root's expansion as the first
    // fork point (root sleep is empty, so nothing is slept and
    // `x.slept == 0`); on a resumed run the snapshot's frontier.
    let forks = match seed_forks {
        Some(forks) => forks,
        None => {
            let mut v = Vec::new();
            if !initial.all_done() {
                let root_choices = initial.choices();
                let mut x = expand(initial, &root_choices, &SleepSet::new(), use_ample, obs);
                if disable_reduction {
                    x.explore.reverse();
                }
                v.push(ForkPoint {
                    path: Vec::new(),
                    sleep: SleepSet::new(),
                    taken: Vec::new(),
                    choices: x.explore,
                    excluded: x.excluded,
                    remaining: budget0,
                    // Root work descends from the engine (or resume) span.
                    span: obs.trace_root().0,
                });
            }
            v
        }
    };
    if seeded {
        obs.add(Metric::ResumeReplayed, forks.len() as u64);
    }
    let queue = ForkQueue::new((threads * 2).max(forks.len()));
    for fork in forks {
        let accepted = queue.publish(fork);
        debug_assert!(accepted.is_ok(), "fresh queue rejected a seed fork point");
    }

    // Per-worker liveness for the watchdog: a heartbeat counter bumped at
    // every poll and task boundary, and a busy flag raised while a task
    // is being executed (an idle worker blocked on the queue is not
    // stalled — the queue wakes it on close).
    let heartbeats: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let busy: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
    let workers_done = AtomicBool::new(false);
    // The watchdog runs whenever a checkpoint policy is set (supervised
    // mode) or `FT_WATCHDOG_MS` is exported explicitly.
    let watchdog = watchdog_interval()
        .or_else(|| policy.map(|_| Duration::from_millis(5000)))
        .filter(|d| !d.is_zero());

    // Workers run under `catch_unwind`: a panicking property closure (or
    // a bug, including a fingerprint-table overflow) must not abort the
    // checker. On panic the worker cancels its peers and closes the
    // queue so blocked takers wake; the caller then falls back to a
    // deterministic sequential rerun, itself guarded.
    let results: Vec<Result<PReport, String>> = std::thread::scope(|scope| {
        if let Some(interval) = watchdog {
            // Supervisor: declare a busy worker stalled after two
            // consecutive intervals without a heartbeat, then cancel the
            // sweep (the coordinator checkpoints what was saved and
            // falls back to the sequential engine). Scoped threads
            // cannot be abandoned, so a worker wedged in a non-polling
            // loop still delays the join — the watchdog covers the
            // slow-but-responsive case and turns it into a deterministic
            // sequential run instead of an indefinitely degraded sweep.
            let heartbeats = &heartbeats;
            let busy = &busy;
            let workers_done = &workers_done;
            let tripped = &tripped;
            let cancel = &cancel;
            let queue = &queue;
            scope.spawn(move || {
                let mut last: Vec<u64> = heartbeats
                    .iter()
                    .map(|h| h.load(Ordering::Relaxed))
                    .collect();
                let mut stale = vec![0u32; last.len()];
                let tick = interval.min(Duration::from_millis(25));
                let mut next = Instant::now() + interval;
                while !workers_done.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    if workers_done.load(Ordering::Relaxed) {
                        return;
                    }
                    if Instant::now() < next {
                        continue;
                    }
                    next = Instant::now() + interval;
                    for (w, h) in heartbeats.iter().enumerate() {
                        let beat = h.load(Ordering::Relaxed);
                        if busy[w].load(Ordering::Relaxed) && beat == last[w] {
                            stale[w] += 1;
                            if stale[w] >= 2 {
                                tripped.store(true, Ordering::SeqCst);
                                cancel.store(true, Ordering::SeqCst);
                                queue.close();
                                return;
                            }
                        } else {
                            stale[w] = 0;
                        }
                        last[w] = beat;
                    }
                }
            });
        }
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let table = &table;
                let queue = &queue;
                let state_count = &state_count;
                let transitions_now = &transitions_now;
                let cancel = &cancel;
                let budget_hit = &budget_hit;
                let heartbeat = &heartbeats[w];
                let busy = &busy[w];
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        Worker {
                            initial,
                            config,
                            table,
                            queue,
                            state_count,
                            transitions_now,
                            cancel,
                            budget_hit,
                            deadline,
                            policy,
                            heartbeat,
                            busy,
                            index: w,
                            low_water: threads,
                            disable_reduction,
                            use_ample,
                            synced_transitions: 0,
                            report: PReport::default(),
                            visited: VisitTable::new(),
                            est: TreeEstimator::new(),
                            tctx: config.recorder.trace_ctx(),
                            cur_span: SpanId::NONE,
                        }
                        .run()
                    }));
                    if out.is_err() {
                        cancel.store(true, Ordering::SeqCst);
                        queue.close();
                    }
                    out
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(payload)) => Err(panic_message(payload.as_ref())),
                Err(payload) => Err(panic_message(payload.as_ref())),
            })
            .collect();
        workers_done.store(true, Ordering::SeqCst);
        results
    });

    if let Some(msg) = results.iter().find_map(|r| r.as_ref().err().cloned()) {
        // A worker panicked. Rerun the sequential DPOR engine
        // (deterministic, guarded); if the panic is deterministic too,
        // surface it as an error verdict instead of aborting the
        // process. The partial sweep's metrics are dropped first, and
        // the checkpoint policy is stripped so a stop trigger cannot cut
        // the rerun short of the verdict it exists to reproduce.
        config.recorder.reset_counts();
        let rerun = without_checkpoint(config);
        return match catch_unwind(AssertUnwindSafe(|| {
            traced_seq("seq_rerun", initial, &rerun, reorder_bound, deadline)
        })) {
            Ok(verdict) => verdict,
            Err(payload) => Verdict::Error(
                Stats::default(),
                CheckError::Panic(format!(
                    "pardpor worker: {msg}; sequential rerun: {}",
                    panic_message(payload.as_ref())
                )),
            ),
        };
    }
    let mut reports: Vec<PReport> = results.into_iter().filter_map(Result::ok).collect();

    // Stealing/contention observability. These counters sit past the
    // deterministic range, so the diagnostic-mode snapshot equality with
    // the sequential engines is unaffected; the rerun paths below reset
    // counts anyway, so their runs stand alone.
    if obs.is_enabled() {
        obs.add(
            Metric::ForkPublished,
            reports.iter().map(|r| r.published).sum(),
        );
        obs.add(Metric::ForkStolen, reports.iter().map(|r| r.stolen).sum());
        obs.add(Metric::FpContention, table.contention());
    }

    let sleep_total =
        reports.iter().map(|r| r.sleep_hits).sum::<usize>() + base.sleep_hits as usize;
    let stats = Stats {
        states: state_count.load(Ordering::SeqCst),
        transitions: reports.iter().map(|r| r.transitions).sum::<usize>()
            + base.transitions as usize,
        terminal_states: reports.iter().map(|r| r.terminal_fps.len()).sum::<usize>()
            + usize::from(!seeded && initial.all_done())
            + base.terminal_states as usize,
        ..Stats::default()
    };

    // Serialize the merged frontier — the queue's undrained tasks plus
    // every worker's stashed open frames — into one snapshot. The base
    // counts/metrics fold the resumed prior in, so a twice-interrupted
    // run still sums to the uninterrupted totals.
    let write_stop_checkpoint = |reports: &mut [PReport]| -> Option<std::path::PathBuf> {
        let pol = policy?;
        let mut forks: Vec<ForkPoint> = queue.drain();
        for r in reports.iter_mut() {
            forks.append(&mut r.forks);
        }
        let mut edges = seed_edges.clone();
        let mut terminals = seed_terminals.clone();
        if !seeded && initial.all_done() {
            terminals.push(root_fp);
        }
        for r in reports.iter() {
            edges.extend(r.edges.iter().copied());
            terminals.extend(r.terminal_fps.iter().copied());
        }
        let own = obs.snapshot();
        let metrics = match &seed_metrics {
            Some(prior) => prior.merged(&own),
            None => own,
        };
        let snap = Snapshot {
            meta: RunMeta {
                engine: config.engine.label().to_string(),
                config_hash: config_hash(config),
                program_hash: root_fp,
            },
            base: BaseCounts {
                states: stats.states as u64,
                transitions: stats.transitions as u64,
                terminal_states: stats.terminal_states as u64,
                sleep_hits: sleep_total as u64,
            },
            metrics,
            forks,
            visited: table.export(),
            edges,
            terminals,
        };
        write_checkpoint(obs, pol, &snap)
    };

    if tripped.load(Ordering::SeqCst) {
        // The watchdog declared a worker stalled: save what the sweep
        // covered (best effort), then degrade to the deterministic
        // sequential engine — same discipline as the panic path, so the
        // final verdict is still bit-identical to `Engine::Dpor`. The
        // trip counter is bumped *after* the reset so it survives into
        // the rerun's final snapshot.
        let _ = write_stop_checkpoint(&mut reports);
        let stalled_frontier = reports.iter().map(|r| r.frontier).sum::<usize>() as u64;
        obs.event("watchdog_trip", &[("frontier", J::U(stalled_frontier))]);
        {
            let mut tctx = obs.trace_ctx();
            let _ = tctx.instant(
                "watchdog",
                SpanId(obs.trace_root().0),
                &[("frontier", J::U(stalled_frontier))],
            );
        }
        config.recorder.reset_counts();
        obs.incr(Metric::WatchdogTrips);
        return traced_seq(
            "seq_rerun",
            initial,
            &without_checkpoint(config),
            reorder_bound,
            deadline,
        );
    }

    let limit_hit = state_count.load(Ordering::SeqCst) > config.max_states;
    if limit_hit || reports.iter().any(|r| r.violated) {
        // The sweep stopped early; reproduce the exact sequential
        // verdict (counterexample included, still honoring the remaining
        // budget), with the partial sweep's metrics dropped and the
        // checkpoint policy stripped — the result is bit-identical to a
        // direct `Engine::Dpor` run.
        config.recorder.reset_counts();
        return traced_seq(
            "seq_rerun",
            initial,
            &without_checkpoint(config),
            reorder_bound,
            deadline,
        );
    }
    if budget_hit.load(Ordering::SeqCst) || cancel.load(Ordering::SeqCst) {
        let checkpoint = write_stop_checkpoint(&mut reports);
        let est_merged = reports
            .iter()
            .fold(EstStats::default(), |acc, r| acc.merged(&r.est));
        return Verdict::Inconclusive(
            stats,
            Coverage {
                frontier: reports.iter().map(|r| r.frontier).sum(),
                sleep_hits: sleep_total,
                checkpoint,
                ..Coverage::default()
            }
            .with_estimate(est_merged.estimate(stats.states as u64)),
        );
    }

    if config.check_termination {
        // Merge the per-worker fingerprint graphs (taken + slept-probed
        // edges — with ample off under the termination check and sleep
        // sets pruning edges only, the merged graph covers the full
        // reachable graph, like the sequential engine's) plus, on a
        // resumed run, the interrupted run's serialized graph, and run
        // the same reverse-reachability pass. Ids are arbitrary; the
        // stuck state's identity and counterexample come from the rerun.
        let mut ids: FpMap<u32> = FpMap::default();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut terminal: Vec<u32> = Vec::new();
        let Some(root) = merge_id(&mut ids, root_fp) else {
            return Verdict::Error(stats, CheckError::TooManyStates);
        };
        if !seeded && initial.all_done() {
            terminal.push(root);
        }
        for &(a, b) in &seed_edges {
            match (merge_id(&mut ids, a), merge_id(&mut ids, b)) {
                (Some(ia), Some(ib)) => edges.push((ia, ib)),
                _ => return Verdict::Error(stats, CheckError::TooManyStates),
            }
        }
        for &t in &seed_terminals {
            let Some(it) = merge_id(&mut ids, t) else {
                return Verdict::Error(stats, CheckError::TooManyStates);
            };
            terminal.push(it);
        }
        for report in &reports {
            for &(a, b) in &report.edges {
                match (merge_id(&mut ids, a), merge_id(&mut ids, b)) {
                    (Some(ia), Some(ib)) => edges.push((ia, ib)),
                    _ => return Verdict::Error(stats, CheckError::TooManyStates),
                }
            }
            for &t in &report.terminal_fps {
                let Some(it) = merge_id(&mut ids, t) else {
                    return Verdict::Error(stats, CheckError::TooManyStates);
                };
                terminal.push(it);
            }
        }
        if find_stuck(ids.len(), &edges, &terminal).is_some() {
            config.recorder.reset_counts();
            return traced_seq(
                "seq_rerun",
                initial,
                &without_checkpoint(config),
                reorder_bound,
                deadline,
            );
        }
    }

    obs.gauge_set(Gauge::DedupOccupancy, table.len() as u64);
    Verdict::Ok(stats)
}

/// What one fleet lease sweep produced: the raw outcome with **no
/// verdict discipline applied**. The fleet supervisor owns cancellation,
/// sequential reruns, and the merged termination pass, so a lease run
/// never falls back to [`check_dpor`] and never runs [`find_stuck`]
/// locally — a worker process only sees its slice of the graph, and a
/// partial graph would report bogus stuck states.
pub(crate) struct LeaseRun {
    /// A worker hit a property violation (mutex, permutation, or
    /// invariant). Details come from the supervisor's sequential rerun.
    pub(crate) violated: bool,
    /// The global state count (lease base + local claims) overran
    /// `max_states`.
    pub(crate) limit_hit: bool,
    /// The deadline or a stop trigger cut the sweep short; `forks` holds
    /// the unexplored remainder.
    pub(crate) budget_hit: bool,
    /// A worker thread panicked (message preserved); the caller should
    /// surface this as a process-level failure.
    pub(crate) panicked: Option<String>,
    /// Fingerprints this run claimed first — exactly the states *not* in
    /// the lease's visited seed that the sweep reached. The supervisor's
    /// conflict check intersects these against previously accepted
    /// claims.
    pub(crate) claimed: Vec<u128>,
    /// Delta counts (this run only; the lease's base is subtracted).
    pub(crate) base: BaseCounts,
    /// Unexplored fork points at an early stop (empty on completion).
    pub(crate) forks: Vec<ForkPoint>,
    /// New `(parent, child)` edges (termination mode only).
    pub(crate) edges: Vec<(u128, u128)>,
    /// New terminal-state fingerprints.
    pub(crate) terminals: Vec<u128>,
}

/// Run one fleet lease: the seeded work-stealing sweep of
/// [`check_pardpor`] with the coordinator's verdict discipline stripped.
/// The lease's visited set pre-seeds the global first-visit table (so
/// this run claims only states no earlier accepted run claimed — the
/// supervisor enforces that by conflict rejection), its fork points seed
/// the queue, and `seed.base.states` carries the global state count so
/// the `max_states` limit trips at the right global point. All counts
/// and metrics reported are this run's deltas.
///
/// No watchdog runs here: worker processes are supervised externally via
/// heartbeat files, and a wedged sweep is killed and re-leased.
pub(crate) fn check_lease<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    threads: usize,
    reorder_bound: Option<u32>,
    deadline: Option<Instant>,
    seed: ResumeSeed,
) -> LeaseRun {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let disable_reduction = reorder_bound == Some(u32::MAX);
    let use_ample = !config.check_termination && !disable_reduction;
    let obs = &config.recorder;
    // A policy is required for workers to stash their open frames on an
    // early stop (that is how the unexplored remainder survives into the
    // result); when the caller did not set one, a trigger-less dummy
    // serves — its path is never written.
    let pol = config
        .checkpoint
        .clone()
        .unwrap_or_else(|| CheckpointPolicy::at(std::path::PathBuf::new()));
    let policy = Some(&pol);

    let table = FpTable::new();
    let seed_set: FpSet = seed.visited.iter().copied().collect();
    for &fp in &seed.visited {
        table.insert(fp);
    }
    let state_count = AtomicUsize::new(seed.base.states as usize);
    let transitions_now = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let budget_hit = AtomicBool::new(false);

    obs.add(Metric::ResumeReplayed, seed.forks.len() as u64);
    let queue = ForkQueue::new((threads * 2).max(seed.forks.len()));
    for fork in seed.forks {
        let accepted = queue.publish(fork);
        debug_assert!(accepted.is_ok(), "fresh queue rejected a lease fork point");
    }

    let heartbeats: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let busy: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();

    let results: Vec<Result<PReport, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let table = &table;
                let queue = &queue;
                let state_count = &state_count;
                let transitions_now = &transitions_now;
                let cancel = &cancel;
                let budget_hit = &budget_hit;
                let heartbeat = &heartbeats[w];
                let busy = &busy[w];
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        Worker {
                            initial,
                            config,
                            table,
                            queue,
                            state_count,
                            transitions_now,
                            cancel,
                            budget_hit,
                            deadline,
                            policy,
                            heartbeat,
                            busy,
                            index: w,
                            low_water: threads,
                            disable_reduction,
                            use_ample,
                            synced_transitions: 0,
                            report: PReport::default(),
                            visited: VisitTable::new(),
                            est: TreeEstimator::new(),
                            tctx: config.recorder.trace_ctx(),
                            cur_span: SpanId::NONE,
                        }
                        .run()
                    }));
                    if out.is_err() {
                        cancel.store(true, Ordering::SeqCst);
                        queue.close();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(report)) => Ok(report),
                Ok(Err(payload)) => Err(panic_message(payload.as_ref())),
                Err(payload) => Err(panic_message(payload.as_ref())),
            })
            .collect()
    });

    let panicked = results.iter().find_map(|r| r.as_ref().err().cloned());
    let mut reports: Vec<PReport> = results.into_iter().filter_map(Result::ok).collect();

    if obs.is_enabled() {
        obs.add(
            Metric::ForkPublished,
            reports.iter().map(|r| r.published).sum(),
        );
        obs.add(Metric::ForkStolen, reports.iter().map(|r| r.stolen).sum());
        obs.add(Metric::FpContention, table.contention());
        obs.gauge_set(Gauge::DedupOccupancy, table.len() as u64);
    }

    let mut forks: Vec<ForkPoint> = queue.drain();
    for r in &mut reports {
        forks.append(&mut r.forks);
    }
    let states_now = state_count.load(Ordering::SeqCst);
    let claimed: Vec<u128> = table
        .export()
        .into_iter()
        .filter(|fp| !seed_set.contains(fp))
        .collect();
    LeaseRun {
        violated: reports.iter().any(|r| r.violated),
        limit_hit: states_now > config.max_states,
        budget_hit: budget_hit.load(Ordering::SeqCst),
        panicked,
        claimed,
        base: BaseCounts {
            states: (states_now as u64).saturating_sub(seed.base.states),
            transitions: reports.iter().map(|r| r.transitions).sum::<usize>() as u64,
            terminal_states: reports.iter().map(|r| r.terminal_fps.len()).sum::<usize>() as u64,
            sleep_hits: reports.iter().map(|r| r.sleep_hits).sum::<usize>() as u64,
        },
        forks,
        edges: reports
            .iter()
            .flat_map(|r| r.edges.iter().copied())
            .collect(),
        terminals: reports
            .iter()
            .flat_map(|r| r.terminal_fps.iter().copied())
            .collect(),
    }
}

/// Run the sequential DPOR engine wrapped in a causal span (`seq_gate`
/// for the small-space gate, `seq_rerun` for verdict-reproduction
/// fallbacks), parented on the surrounding engine span.
fn traced_seq<P: Process>(
    name: &str,
    initial: &Machine<P>,
    config: &CheckConfig,
    reorder_bound: Option<u32>,
    deadline: Option<Instant>,
) -> Verdict {
    let mut tctx = config.recorder.trace_ctx();
    let span = tctx.begin();
    let v = check_dpor(initial, config, reorder_bound, deadline);
    tctx.end(
        span,
        name,
        SpanId(config.recorder.trace_root().0),
        &[("verdict", J::s(v.label()))],
    );
    v
}

/// One work-stealing worker: takes fork points off the queue,
/// re-materializes them, and runs the sequential reduced DFS over the
/// continuation, donating its own fork points when peers go hungry.
struct Worker<'a, P: Process> {
    initial: &'a Machine<P>,
    config: &'a CheckConfig,
    table: &'a FpTable,
    queue: &'a ForkQueue,
    state_count: &'a AtomicUsize,
    /// Shared per-run transition total, fed from the per-worker counts
    /// at poll cadence — the `stop_after_transitions` trigger watches it.
    transitions_now: &'a AtomicUsize,
    cancel: &'a AtomicBool,
    budget_hit: &'a AtomicBool,
    deadline: Option<Instant>,
    /// Checkpoint policy: when set, graceful stops serialize the open
    /// frames into the report for the coordinator's snapshot.
    policy: Option<&'a CheckpointPolicy>,
    /// Liveness beacon for the watchdog, bumped at every poll and task
    /// boundary.
    heartbeat: &'a AtomicU64,
    /// Raised while a task is being executed (idle queue waits are not
    /// stalls).
    busy: &'a AtomicBool,
    /// This worker's index (the `worker` field on its task spans).
    index: usize,
    /// Donate when fewer than this many fork points are pending.
    low_water: usize,
    disable_reduction: bool,
    use_ample: bool,
    /// Transitions already pushed into `transitions_now`.
    synced_transitions: usize,
    report: PReport,
    /// Worker-local dominance pruning (see the module docs: local-only
    /// is sound, it just prunes less than the sequential single table).
    visited: VisitTable,
    /// Worker-local tree-size sampler (stats shipped in the report).
    est: TreeEstimator,
    /// Per-worker span writer (bounded buffer; flushed at task ends).
    tctx: TraceCtx,
    /// The task span currently open, parent for publish instants.
    cur_span: SpanId,
}

impl<P: Process> Worker<'_, P> {
    fn run(mut self) -> PReport {
        while let Some(task) = self.queue.take() {
            self.busy.store(true, Ordering::Relaxed);
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            // The steal edge: this task's span descends from the donor's
            // `publish` instant (or the engine/resume root for seeds).
            let steal_parent = SpanId(task.span);
            let depth = task.path.len();
            let tspan = self.tctx.begin();
            self.cur_span = tspan.id;
            let end = self.run_task(task);
            self.cur_span = SpanId::NONE;
            self.tctx.end(
                tspan,
                "task",
                steal_parent,
                &[
                    ("worker", J::U(self.index as u64)),
                    ("depth", J::U(depth as u64)),
                    ("aborted", J::B(matches!(end, TaskEnd::Aborted))),
                ],
            );
            self.busy.store(false, Ordering::Relaxed);
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            self.queue.done();
            if matches!(end, TaskEnd::Aborted) {
                break;
            }
        }
        self.sync_transitions();
        self.report.est = self.est.stats();
        self.tctx.flush();
        self.report
    }

    /// Fold the transitions executed since the last sync into the shared
    /// per-run total (what `stop_after_transitions` watches).
    fn sync_transitions(&mut self) {
        let delta = self.report.transitions - self.synced_transitions;
        if delta > 0 {
            self.transitions_now.fetch_add(delta, Ordering::Relaxed);
            self.synced_transitions = self.report.transitions;
        }
    }

    /// Abort helper: raise `cancel`, wake blocked peers, record the open
    /// frontier.
    fn abort(&mut self, open_frames: usize) -> TaskEnd {
        self.cancel.store(true, Ordering::SeqCst);
        self.queue.close();
        self.report.frontier += open_frames;
        TaskEnd::Aborted
    }

    /// Serialize every open frame with unexplored choices into the
    /// report, for the coordinator's stop snapshot. Only called on
    /// graceful stops with a checkpoint policy set — violation and
    /// state-limit aborts discard the sweep entirely.
    fn stash_frames(&mut self, frames: &[PFrame<P>], path: &[SchedElem]) {
        if self.policy.is_none() {
            return;
        }
        for f in frames {
            if f.next < f.choices.len() {
                self.report.forks.push(ForkPoint {
                    path: path[..f.depth].to_vec(),
                    sleep: f.sleep.clone(),
                    taken: f.taken.clone(),
                    choices: f.choices[f.next..].to_vec(),
                    excluded: f.excluded.clone(),
                    remaining: f.remaining,
                    span: self.cur_span.0,
                });
            }
        }
    }

    #[allow(clippy::too_many_lines)] // the sequential DFS body, kept in one piece on purpose
    fn run_task(&mut self, task: ForkPoint) -> TaskEnd {
        let obs = &self.config.recorder;
        let model = self.initial.config().model;
        self.report.stolen += 1;
        self.est.begin_task();
        let mut scratch: Vec<SchedElem> = Vec::new();

        // Re-materialize the fork point on a fresh machine. The replay
        // is unrecorded (the recorder attaches afterwards) so it cannot
        // pollute the step metrics shared with the sequential engines.
        // The intermediate fingerprints pre-seed the on-stack multiset:
        // they are exactly the ancestors the owner had on its stack, so
        // the cycle proviso keeps firing at the same places. A replay
        // failure is a logic error; the panic lands in the coordinator's
        // catch_unwind and degrades to the sequential rerun.
        let mut m = self.initial.clone();
        let mut on_stack: FpMap<u32> = FpMap::default();
        let mut path: Vec<SchedElem> = Vec::with_capacity(task.path.len() + 32);
        for &e in &task.path {
            *on_stack.entry(m.fingerprint()).or_insert(0) += 1;
            assert!(
                m.replay_path(std::slice::from_ref(&e), &mut scratch),
                "pardpor: fork-point path failed to replay"
            );
            path.push(e);
        }
        let task_fp = m.fingerprint();
        m.set_recorder(obs.clone());
        let mut tally = obs.tally();

        let mut frames: Vec<PFrame<P>> = Vec::new();
        *on_stack.entry(task_fp).or_insert(0) += 1;
        self.est.push(task.choices.len());
        frames.push(PFrame {
            fp: task_fp,
            depth: path.len(),
            sleep: task.sleep,
            choices: task.choices,
            next: 0,
            taken: task.taken,
            excluded: task.excluded,
            remaining: task.remaining,
            token: None,
        });

        let mut steps_since_poll = 0usize;
        loop {
            steps_since_poll += 1;
            if steps_since_poll >= 256 {
                steps_since_poll = 0;
                self.heartbeat.fetch_add(1, Ordering::Relaxed);
                self.sync_transitions();
                if self.cancel.load(Ordering::Relaxed) {
                    // A peer stopped the sweep; if it stopped gracefully
                    // the coordinator still snapshots this frontier.
                    self.stash_frames(&frames, &path);
                    self.report.frontier += frames.len();
                    return TaskEnd::Aborted;
                }
                if let Some(pol) = self.policy {
                    let stop = pol
                        .stop_requested(self.transitions_now.load(Ordering::Relaxed) as u64)
                        || pol.max_occupancy.is_some_and(|cap| self.table.len() >= cap);
                    if stop {
                        self.budget_hit.store(true, Ordering::SeqCst);
                        self.stash_frames(&frames, &path);
                        return self.abort(frames.len());
                    }
                }
                if obs.is_enabled() {
                    obs.gauge_max(Gauge::MaxFrontier, (frames.len() + self.queue.len()) as u64);
                    let now = Instant::now();
                    let spent = match (self.config.budget, self.deadline) {
                        (Some(b), Some(d)) => {
                            Some(b.saturating_sub(d.saturating_duration_since(now)))
                        }
                        _ => None,
                    };
                    obs.maybe_heartbeat(&Progress {
                        states: self.state_count.load(Ordering::Relaxed) as u64,
                        transitions: self.report.transitions as u64,
                        frontier: frames.len() as u64,
                        budget: self.config.budget,
                        spent,
                        // Worker-local samples extrapolated over the
                        // global state count: coarse, but live.
                        estimate: self
                            .est
                            .estimate(self.state_count.load(Ordering::Relaxed) as u64),
                    });
                }
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.budget_hit.store(true, Ordering::SeqCst);
                    self.stash_frames(&frames, &path);
                    return self.abort(frames.len());
                }
                if frames.len() > 1 && self.queue.wants_work(self.low_water) {
                    self.donate(&mut frames, &path);
                }
            }

            let Some(top) = frames.last_mut() else { break };
            if top.next == top.choices.len() {
                let frame = frames.pop().expect("non-empty stack");
                self.est.pop();
                match on_stack.get_mut(&frame.fp) {
                    Some(1) => {
                        on_stack.remove(&frame.fp);
                    }
                    Some(c) => *c -= 1,
                    None => unreachable!("frame fingerprint missing from the stack set"),
                }
                if let Some(token) = frame.token {
                    m.undo(token);
                    path.pop();
                }
                continue;
            }
            let elem = top.choices[top.next];
            top.next += 1;
            let parent_fp = top.fp;
            let parent_depth = top.depth;
            let parent_remaining = top.remaining;

            let weight = if self.disable_reduction {
                0
            } else {
                step_weight(&m, elem)
            };
            if weight > parent_remaining {
                self.est.leaf();
                continue; // beyond the reorder bound: neither taken nor slept
            }

            let (out, token) = m.step_recorded(elem);
            if matches!(out, StepOutcome::NoOp) {
                tally.noop_step();
                self.est.leaf();
                m.undo(token);
                continue;
            }
            let efp = token.footprint();
            self.report.transitions += 1;
            tally.on_transition();
            let fp = m.fingerprint();
            if self.config.check_termination {
                self.report.edges.push((parent_fp, fp));
            }

            // Cycle proviso (C3), exactly as in the sequential engine:
            // the thief's on-stack set contains the replayed ancestors,
            // so a cycle closing through the stolen subtree still forces
            // the full expansion.
            if on_stack.contains_key(&fp) && !top.excluded.is_empty() {
                let reinstated: Vec<SchedElem> = top.excluded.drain(..).collect();
                for e in reinstated {
                    if top.sleep.contains(e) {
                        self.report.sleep_hits += 1;
                        obs.incr(Metric::SleepHits);
                    } else {
                        top.choices.push(e);
                    }
                }
            }

            let mut child_sleep = if self.disable_reduction {
                SleepSet::new()
            } else {
                top.sleep.inherit(efp, model)
            };
            if !self.disable_reduction {
                for &(se, sf) in &top.taken {
                    if sf.independent(efp, model) {
                        child_sleep.insert(se, sf);
                    }
                }
                top.taken.push((elem, efp));
            }

            let child_remaining = parent_remaining - weight;
            // Global first-visit gate: state counting and property
            // checks happen exactly once across all workers. In
            // diagnostic mode this is also the (only) pruning rule; in
            // reduced mode pruning is the worker-local dominance table.
            let fresh = self.table.insert(fp);
            let claimed = if self.disable_reduction {
                fresh
            } else {
                self.visited.try_claim(fp, &child_sleep, child_remaining)
            };
            if !claimed {
                self.est.leaf();
                if self.disable_reduction {
                    tally.dedup_hit();
                } else {
                    self.report.sleep_hits += 1;
                    obs.incr(Metric::SleepHits);
                }
                m.undo(token);
                continue;
            }

            if fresh {
                tally.on_state(frames.len() as u64);
                let states = self.state_count.fetch_add(1, Ordering::SeqCst) + 1;
                if states > self.config.max_states {
                    return self.abort(frames.len());
                }
                if self.config.check_mutex && in_cs_count(&m) > 1 {
                    self.report.violated = true;
                    return self.abort(frames.len());
                }
                if violates_invariant(self.config, &m) {
                    self.report.violated = true;
                    return self.abort(frames.len());
                }
                if m.all_done() {
                    self.report.terminal_fps.push(fp);
                    tally.terminal_state();
                    self.est.leaf();
                    if self.config.check_permutation && !returns_are_permutation(&m) {
                        self.report.violated = true;
                        return self.abort(frames.len());
                    }
                    m.undo(token);
                    continue;
                }
            } else if m.all_done() {
                // Re-entered terminal state (smaller sleep set or another
                // worker's first visit): nothing to expand.
                self.est.leaf();
                m.undo(token);
                continue;
            }

            m.choices_into(&mut scratch);
            debug_assert!(!scratch.is_empty(), "non-terminal state has no choices");
            let mut x = expand(&m, &scratch, &child_sleep, self.use_ample, obs);
            if self.disable_reduction {
                x.explore.reverse();
            }
            self.report.sleep_hits += x.slept;
            if self.config.check_termination && x.slept > 0 {
                // Slept-edge probes, fingerprint-keyed (no global id
                // space until merge time).
                for &e in &scratch {
                    if !child_sleep.contains(e) {
                        continue;
                    }
                    obs.incr(Metric::SleptProbes);
                    let (pout, ptoken) = m.step_recorded(e);
                    if !matches!(pout, StepOutcome::NoOp) {
                        self.report.edges.push((fp, m.fingerprint()));
                    }
                    m.undo(ptoken);
                }
            }
            *on_stack.entry(fp).or_insert(0) += 1;
            self.est.push(x.explore.len());
            path.push(elem);
            frames.push(PFrame {
                fp,
                depth: parent_depth + 1,
                sleep: child_sleep,
                choices: x.explore,
                next: 0,
                taken: Vec::new(),
                excluded: x.excluded,
                remaining: child_remaining,
                token: Some(token),
            });
        }
        TaskEnd::Completed
    }

    /// Donate the bottom-most frame with unexplored choices (the largest
    /// subtrees sit lowest) — unless it is the current top, which the
    /// owner keeps so it never strands itself. The donated remainder is
    /// an exact continuation relocation: same choices (in order), same
    /// sleep set, same taken list, the excluded choices move with it
    /// (the thief's on-stack set contains every ancestor the proviso
    /// could need them for), same remaining budget. On publish the
    /// owner's cursor jumps to the end — exactly one side owns the
    /// remainder at any time. A full queue puts everything back.
    fn donate(&mut self, frames: &mut [PFrame<P>], path: &[SchedElem]) {
        let top = frames.len() - 1;
        let Some(k) = (0..top).find(|&k| frames[k].next < frames[k].choices.len()) else {
            return;
        };
        let f = &mut frames[k];
        // The publish instant is the causal anchor the thief's task span
        // points back at. Emitted before the publish so its id precedes
        // any span the thief allocates; a rejected publish leaves a
        // childless instant behind, which the validator tolerates.
        let shed = (f.choices.len() - f.next) as u64;
        let span = self.tctx.instant(
            "publish",
            self.cur_span,
            &[("worker", J::U(self.index as u64)), ("choices", J::U(shed))],
        );
        let fork = ForkPoint {
            path: path[..f.depth].to_vec(),
            sleep: f.sleep.clone(),
            taken: f.taken.clone(),
            choices: f.choices[f.next..].to_vec(),
            excluded: std::mem::take(&mut f.excluded),
            remaining: f.remaining,
            span: span.0,
        };
        match self.queue.publish(fork) {
            Ok(()) => {
                f.next = f.choices.len();
                self.report.published += 1;
            }
            Err(fork) => f.excluded = fork.excluded,
        }
    }
}
