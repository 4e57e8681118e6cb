//! The work-stealing [`Frontier`] (`Shared`) and its coordinator: what
//! [`Engine::Parallel`](crate::Engine::Parallel) (`NoReduction`) and
//! [`Engine::ParallelDpor`](crate::Engine::ParallelDpor) (`SleepAmple`;
//! `NoReduction` when it checks termination unbounded) add to the
//! kernel's walk, and what [`crate::resume`] re-enters
//! through. DESIGN.md §7 has the fork-point protocol and the soundness
//! argument; in short:
//!
//! * **First visits** are decided by the lock-free [`por::FpTable`]:
//!   state counting and property checks happen exactly once across all
//!   workers. Without a reduction that gate is also the only pruning
//!   rule, so a completed sweep's statistics and deterministic metrics
//!   are bit-identical to the sequential engines'. Under `SleepAmple`
//!   the dominance table stays worker-local: `Stats.transitions` may
//!   exceed the sequential count by cross-worker re-explorations, and
//!   under ample pruning (whose dropped-state set is traversal-dependent
//!   for any DPOR) `Stats.states` may drift by a sliver; verdicts never
//!   differ.
//! * **Work distribution**: at its poll cadence a busy worker donates the
//!   unexplored remainder of its bottom-most frame ([`por::ForkPoint`])
//!   into a bounded [`por::ForkQueue`]; an idle worker replays the path
//!   and continues the frame as the owner would have.
//! * **Verdict discipline** ([`check_shared`]): a violation, state-limit
//!   overrun, stuck state, worker panic or watchdog trip cancels the
//!   sweep (metrics reset) and reruns the sequential engine of the same
//!   reduction, so those verdicts are bit-identical to it; a budget or
//!   stop trigger returns [`Verdict::Inconclusive`] with the merged
//!   frontier checkpointed. One worker is the sequential engine itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ftobs::{Gauge, Metric, J};
use por::{ForkPoint, ForkQueue, FpHeads, FpTable, Snapshot};
use wbmem::{FpMap, Machine, Process, SchedElem};

use crate::checker::{
    find_stuck, panic_message, poll_observe, run_meta_of, write_checkpoint, CheckConfig,
    CheckError, Coverage, Stats, Verdict,
};
use crate::dpor::SleepAmple;
use crate::kernel::{
    root_fork, sequential, Dfs, Frontier, Halt, NoReduction, Properties, Reduction, Visitor,
};

/// `0` workers means one per available core.
pub(crate) fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// What one worker found; reports merge by [`absorb`](Report::absorb)
/// into the outcome of a [`sweep`], whose last four fields the
/// coordinator fills in.
#[derive(Default)]
struct Report {
    transitions: usize,
    /// Fingerprints of the all-done states first visited.
    terminals: Vec<u128>,
    /// `(parent, child)` edges walked (termination check only).
    edges: Vec<(u128, u128)>,
    /// A property violation was seen; a sequential rerun has the details.
    violated: bool,
    /// Open DFS frames at an early stop.
    frontier: usize,
    sleep_hits: usize,
    /// The unexplored remainder at an early stop: every open frame, plus
    /// (after the merge) the queue's undrained tasks.
    forks: Vec<ForkPoint>,
    /// A worker thread panicked (first message).
    panicked: Option<String>,
    /// The global state count: the seed's plus this sweep's first visits.
    states: usize,
    /// The deadline or a stop trigger cut the sweep short.
    budget_hit: bool,
    /// The watchdog declared a worker stalled.
    tripped: bool,
}

impl Report {
    fn absorb(&mut self, mut o: Report) {
        self.transitions += o.transitions;
        self.terminals.append(&mut o.terminals);
        self.edges.append(&mut o.edges);
        self.violated |= o.violated;
        self.frontier += o.frontier;
        self.sleep_hits += o.sleep_hits;
        self.forks.append(&mut o.forks);
    }
}

/// What the workers of one sweep share.
struct Pool {
    table: FpTable,
    queue: ForkQueue,
    state_count: AtomicUsize,
    /// Transitions executed by *this* sweep, fed from the workers at
    /// poll cadence — `stop_after_transitions` is a per-run cut, so a
    /// resumed run makes progress before its own cut can fire again.
    transitions_now: AtomicUsize,
    cancel: AtomicBool,
    budget_hit: AtomicBool,
}

/// The coordinator with verdict discipline; see the module docs. Entered
/// via [`crate::check`], or via [`crate::resume`] with the checkpoint to
/// continue — also for the *sequential* engines, as one worker. The
/// checkpoint's fingerprints pre-seed the first-visit table (so counted
/// states are not re-counted or re-checked), its fork points seed the
/// queue, and its counts, metrics and graph fold into the statistics
/// and into the next checkpoint, so chains of interrupts keep summing.
pub(crate) fn check_shared<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    resume: Option<Snapshot>,
) -> Verdict {
    let obs = &config.recorder;
    let panicked = |context: &str, payload: Box<dyn std::any::Any + Send>| {
        let msg = format!("{context}{}", panic_message(payload.as_ref()));
        Verdict::Error(Stats::default(), CheckError::Panic(msg))
    };
    // The sequential engine of the same reduction. User code (the
    // annotation invariant) runs inside every walk; a panic there must
    // surface as an error verdict, not abort the caller.
    let seq = |config: &CheckConfig, context: &str| {
        let run = || sequential(initial, config, deadline);
        catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|p| panicked(context, p))
    };
    // Reproduce a verdict sequentially: the partial sweep's metrics are
    // dropped so the rerun's counts stand alone, and the checkpoint
    // policy is stripped so a stop trigger cannot re-fire on the
    // restarted transition count and cut the rerun short of the verdict
    // it exists to reproduce.
    let unstoppable = || CheckConfig {
        checkpoint: None,
        ..config.clone()
    };
    let rerun = |context: &str| {
        obs.reset_counts();
        seq(&unstoppable(), context)
    };

    // `run` accumulates the whole exploration — the interrupted prior, if
    // any, plus this sweep — in the shape of the next checkpoint.
    let root_fp = initial.fingerprint();
    let seeded = resume.is_some();
    let mut run = resume.unwrap_or_default();
    run.visited.push(root_fp);
    // A resumed run skips the root checks: its work-list is the snapshot's
    // frontier, and the interrupted run already counted and checked the
    // root.
    if !seeded {
        if worker_count(config.engine.workers()) <= 1 {
            return seq(config, ""); // the sequential engine itself
        }
        match catch_unwind(AssertUnwindSafe(|| Properties::new(config).state(initial))) {
            Ok(Ok(())) => {}
            Ok(Err(_)) => return rerun(""),
            Err(payload) => return panicked("root invariant: ", payload),
        }
        obs.tally().on_state(0);
        run.base.states = 1;
        if initial.all_done() {
            obs.incr(Metric::TerminalStates);
            run.base.terminal_states = 1;
            run.terminals.push(root_fp);
        }
    }

    // The watchdog runs whenever a checkpoint policy is set (supervised
    // mode) or `FT_WATCHDOG_MS` is exported explicitly (the supervised
    // tests use a few tens of milliseconds).
    let policy = config.checkpoint.as_ref();
    let watchdog = std::env::var("FT_WATCHDOG_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .or(policy.map(|_| 5000))
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis);
    let forks = seeded.then(|| std::mem::take(&mut run.forks));
    let seed = (run.visited.as_slice(), forks, run.base.states as usize);
    let (mut report, table) = sweep(initial, config, deadline, watchdog, seed);
    if let Some(msg) = &report.panicked {
        // If the panic is deterministic the rerun hits it too.
        return rerun(&format!("worker: {msg}; sequential rerun: "));
    }

    run.base.states = report.states as u64;
    run.base.transitions += report.transitions as u64;
    run.base.terminal_states += report.terminals.len() as u64;
    run.base.sleep_hits += report.sleep_hits as u64;
    run.edges.append(&mut report.edges);
    run.terminals.append(&mut report.terminals);
    let stats = Stats {
        states: report.states,
        transitions: run.base.transitions as usize,
        terminal_states: run.base.terminal_states as usize,
        ..Stats::default()
    };

    let (frontier, sleep_hits) = (report.frontier, run.base.sleep_hits as usize);
    let discard = report.states > config.max_states || report.violated;

    // Stopped short of a verdict: the merged frontier as a checkpoint.
    let mut checkpoint = || {
        let policy = policy?;
        run.meta = run_meta_of(config, root_fp);
        run.metrics.merge(&obs.snapshot());
        run.forks = std::mem::take(&mut report.forks);
        run.visited = table.export();
        write_checkpoint(obs, policy, &run)
    };
    if report.tripped {
        // The watchdog declared a worker stalled: save what the sweep
        // covered (best effort), then degrade to the sequential engine.
        // The trip counter is bumped *after* the reset so it survives
        // into the rerun's final snapshot.
        let _ = checkpoint();
        let stalled = [("frontier", J::U(frontier as u64))];
        obs.event("watchdog_trip", &stalled);
        obs.reset_counts();
        obs.incr(Metric::WatchdogTrips);
        return seq(&unstoppable(), "");
    }
    if discard {
        return rerun("");
    }
    if report.budget_hit {
        let coverage = Coverage {
            frontier,
            sleep_hits,
            checkpoint: checkpoint(),
        };
        return Verdict::Inconclusive(stats, coverage);
    }

    if config.check_termination {
        // The workers' fingerprint graphs (every edge walked: unbounded,
        // that is the full reachable graph) plus, on a resumed run, the
        // interrupted run's graph. Ids are arbitrary; the stuck state's
        // identity and counterexample come from the rerun.
        let mut ids: FpMap<u32> = FpMap::default();
        let mut id = |fp: u128| {
            let next = ids.len() as u32;
            *ids.entry(fp).or_insert(next)
        };
        id(root_fp);
        let edges: Vec<(u32, u32)> = run.edges.iter().map(|&(a, b)| (id(a), id(b))).collect();
        let terminals: Vec<u32> = run.terminals.iter().map(|&t| id(t)).collect();
        if u32::try_from(ids.len()).is_err() {
            return Verdict::Error(stats, CheckError::TooManyStates);
        }
        if find_stuck(ids.len(), &edges, &terminals).is_some() {
            return rerun("");
        }
    }

    obs.gauge_set(Gauge::DedupOccupancy, table.len() as u64);
    Verdict::Ok(stats)
}

/// Spawn `threads` workers over the seeded first-visit table and work
/// queue, join them, and merge what they found; [`check_shared`] turns
/// that into a verdict. `seed` is `(fingerprints already visited, fork
/// points to start from — `None` for the root's expansion —, states
/// already counted)`. `watchdog`, when set, supervises the workers'
/// heartbeats at that interval.
fn sweep<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    watchdog: Option<Duration>,
    seed: (&[u128], Option<Vec<ForkPoint>>, usize),
) -> (Report, FpTable) {
    let threads = worker_count(config.engine.workers());
    // The walk [`sequential`] picks for `config`, except under an
    // unbounded termination check: a task's cycle proviso sees only the
    // task's own stack, so a cycle through two tasks could keep every
    // state on it ample-reduced, and the sweep takes every edge instead.
    // A resumed sequential `Dpor` runs here too, and explores what its
    // checkpoint's frames had excluded ([`NoReduction`]).
    match config.engine.reduction() {
        Some(u32::MAX) => sweep_with(initial, config, threads, deadline, watchdog, seed, || {
            NoReduction::<true>
        }),
        None if config.check_termination => {
            sweep_with(initial, config, threads, deadline, watchdog, seed, || {
                NoReduction::<false>
            })
        }
        bound => sweep_with(initial, config, threads, deadline, watchdog, seed, || {
            SleepAmple::<FpHeads>::new(initial, config, bound)
        }),
    }
}

fn sweep_with<P: Process, R: Reduction<P, u128>>(
    initial: &Machine<P>,
    config: &CheckConfig,
    threads: usize,
    deadline: Option<Instant>,
    watchdog: Option<Duration>,
    (visited, forks, states): (&[u128], Option<Vec<ForkPoint>>, usize),
    make: impl Fn() -> R + Sync,
) -> (Report, FpTable) {
    let obs = &config.recorder;
    let forks = match forks {
        Some(forks) => {
            obs.add(Metric::ResumeReplayed, forks.len() as u64);
            forks
        }
        None if initial.all_done() => Vec::new(),
        None => vec![root_fork(initial, &mut make(), obs)],
    };
    let pool = Pool {
        table: FpTable::new(),
        queue: ForkQueue::new((threads * 2).max(forks.len())),
        state_count: AtomicUsize::new(states),
        transitions_now: AtomicUsize::new(0),
        cancel: AtomicBool::new(false),
        budget_hit: AtomicBool::new(false),
    };
    for &fp in visited {
        pool.table.insert(fp);
    }
    for fork in forks {
        let accepted = pool.queue.publish(fork);
        debug_assert!(accepted.is_ok(), "fresh queue rejected a seed fork point");
    }

    // Per-worker liveness for the watchdog: a heartbeat counter bumped at
    // every poll and task boundary, and a busy flag raised while a task
    // is being executed (an idle worker blocked on the queue is not
    // stalled — the queue wakes it on close).
    let heartbeats: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let busy: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
    // Raised by the coordinator once it has joined the workers; the
    // supervisor waits on it, so a sweep ends when its workers do.
    let workers_done = (Mutex::new(false), Condvar::new());
    let tripped = AtomicBool::new(false);

    // Workers run under `catch_unwind`: a panicking property closure (or
    // a bug, including a fingerprint-table overflow) must not abort the
    // checker. On panic the worker cancels its peers and closes the
    // queue so blocked takers wake.
    let mut report = std::thread::scope(|scope| {
        if let Some(interval) = watchdog {
            // Supervisor: declare a busy worker stalled after two
            // consecutive intervals without a heartbeat, then cancel the
            // sweep. Scoped threads cannot be abandoned, so a worker
            // wedged in a non-polling loop still delays the join — the
            // watchdog covers the slow-but-responsive case and turns it
            // into a deterministic sequential run instead of an
            // indefinitely degraded sweep. Between looks it waits on
            // `workers_done` for one interval; the flag is read under the
            // lock before every wait, so no wake-up is lost and a sweep
            // that ended first costs no wait at all.
            let (heartbeats, busy, pool) = (&heartbeats, &busy, &pool);
            let ((done, wake), tripped) = (&workers_done, &tripped);
            scope.spawn(move || {
                let beat = |w: usize| heartbeats[w].load(Ordering::Relaxed);
                let mut seen: Vec<_> = (0..threads).map(|w| (beat(w), Instant::now())).collect();
                let mut finished = done.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    finished = wake
                        .wait_timeout_while(finished, interval, |finished| !*finished)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                    if *finished {
                        return;
                    }
                    for (w, (last, since)) in seen.iter_mut().enumerate() {
                        if *last != beat(w) || !busy[w].load(Ordering::Relaxed) {
                            (*last, *since) = (beat(w), Instant::now());
                        } else if since.elapsed() >= 2 * interval {
                            tripped.store(true, Ordering::SeqCst);
                            pool.cancel.store(true, Ordering::SeqCst);
                            pool.queue.close();
                            return;
                        }
                    }
                }
            });
        }
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let worker = Shared {
                    initial,
                    config,
                    deadline,
                    pool: &pool,
                    heartbeat: &heartbeats[w],
                    busy: &busy[w],
                    low_water: threads,
                    unsynced: 0,
                    report: Report::default(),
                };
                let (pool, make) = (&pool, &make);
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| worker.run(make())));
                    if out.is_err() {
                        pool.cancel.store(true, Ordering::SeqCst);
                        pool.queue.close();
                    }
                    out
                })
            })
            .collect();
        let mut report = Report::default();
        for handle in handles {
            match handle.join() {
                Ok(Ok(r)) => report.absorb(r),
                Ok(Err(payload)) | Err(payload) => {
                    report
                        .panicked
                        .get_or_insert(panic_message(payload.as_ref()));
                }
            }
        }
        let (done, wake) = &workers_done;
        *done.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_one();
        report
    });
    // The queue's undrained tasks are unexplored frontier too.
    report.forks.splice(0..0, pool.queue.drain());
    report.states = pool.state_count.load(Ordering::SeqCst);
    report.budget_hit = pool.budget_hit.load(Ordering::SeqCst);
    report.tripped = tripped.load(Ordering::SeqCst);
    // The contention counter sits past the deterministic range, so
    // snapshot equality with the sequential engines is unaffected.
    obs.add(Metric::FpContention, pool.table.contention());
    (report, pool.table)
}

/// One work-stealing worker, the [`Frontier`] of every task it runs:
/// first visits go through the shared table, early stops raise the
/// shared flags, and the open frames of a stopped walk are stashed in the
/// report for the coordinator's snapshot.
struct Shared<'a, P: Process> {
    initial: &'a Machine<P>,
    config: &'a CheckConfig,
    deadline: Option<Instant>,
    pool: &'a Pool,
    /// Liveness for the watchdog; see [`sweep_with`].
    heartbeat: &'a AtomicU64,
    busy: &'a AtomicBool,
    /// Donate when fewer than this many fork points are pending.
    low_water: usize,
    /// Transitions not yet pushed into `Pool::transitions_now`.
    unsynced: usize,
    report: Report,
}

impl<P: Process> Shared<'_, P> {
    /// Take fork points off the queue until none can ever appear again,
    /// running each as one kernel walk.
    fn run<R: Reduction<P, u128>>(mut self, mut reduction: R) -> Report {
        let (initial, config) = (self.initial, self.config);
        while let Some(task) = self.pool.queue.take() {
            self.busy.store(true, Ordering::Relaxed);
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            config.recorder.incr(Metric::ForkStolen);

            let obs = &config.recorder;
            let mut dfs = Dfs::start(initial, task, |fp| fp, &mut reduction, obs);
            let halt = dfs.run(config, &mut self, &mut Properties::new(config));
            let open = dfs.depth();
            drop(dfs);
            match halt {
                None | Some(Halt::Stopped) => {}
                Some(Halt::Violation(..) | Halt::StateLimit) => {
                    // The sweep is discarded; a sequential rerun decides.
                    self.report.violated |= matches!(halt, Some(Halt::Violation(..)));
                    self.report.frontier += open;
                    self.abort();
                }
                Some(Halt::TooManyStates) => unreachable!("fingerprints never run out"),
            }
            self.busy.store(false, Ordering::Relaxed);
            self.heartbeat.fetch_add(1, Ordering::Relaxed);
            self.pool.queue.done();
            if halt.is_some() {
                break;
            }
        }
        self.sync_transitions();
        self.report.sleep_hits = Reduction::<P, u128>::sleep_hits(&reduction);
        self.report
    }

    /// Fold the transitions executed since the last sync into the shared
    /// per-run total (what `stop_after_transitions` watches).
    fn sync_transitions(&mut self) {
        let unsynced = std::mem::take(&mut self.unsynced);
        self.pool
            .transitions_now
            .fetch_add(unsynced, Ordering::Relaxed);
    }

    /// Stop the whole sweep and wake blocked peers.
    fn abort(&self) {
        self.pool.cancel.store(true, Ordering::SeqCst);
        self.pool.queue.close();
    }

    /// The walk is stopping short: keep its open frames for the
    /// coordinator (a violation or limit abort discards them unread).
    fn stash<R: Reduction<P, u128>>(&mut self, dfs: &Dfs<'_, P, R, u128>) {
        self.report.forks.extend(dfs.open_forks());
        self.report.frontier += dfs.depth();
    }
}

impl<P: Process> Frontier<P> for Shared<'_, P> {
    type Node = u128;

    fn poll_mask(&self) -> usize {
        256 - 1
    }

    /// Liveness, peers' cancellation, stop triggers, and donation.
    #[inline(never)]
    fn poll<R: Reduction<P, u128>>(
        &mut self,
        dfs: &mut Dfs<'_, P, R, u128>,
        _iters: usize,
    ) -> bool {
        self.heartbeat.fetch_add(1, Ordering::Relaxed);
        self.sync_transitions();
        let (pool, config) = (self.pool, self.config);
        if pool.cancel.load(Ordering::Relaxed) {
            self.stash(dfs);
            return true;
        }
        let progress = Stats {
            states: pool.state_count.load(Ordering::Relaxed),
            transitions: self.report.transitions,
            ..Stats::default()
        };
        let expired = poll_observe(
            &config.recorder,
            &progress,
            dfs.depth() + pool.queue.len(),
            pool.table.len(),
            config.budget,
            self.deadline,
        );
        let transitions = pool.transitions_now.load(Ordering::Relaxed) as u64;
        let triggered = config
            .checkpoint
            .as_ref()
            .is_some_and(|pol| pol.stop_requested(transitions));
        if expired || triggered {
            pool.budget_hit.store(true, Ordering::SeqCst);
            self.stash(dfs);
            self.abort();
            return true;
        }
        if dfs.depth() > 1 && pool.queue.wants_work(self.low_water) {
            if let Some(k) = dfs.donor() {
                // An exact continuation relocation: on publish the
                // owner's window closes, so exactly one side owns the
                // remainder at any time.
                if pool.queue.publish(dfs.fork_at(k)).is_ok() {
                    dfs.close(k);
                    config.recorder.incr(Metric::ForkPublished);
                }
            }
        }
        false
    }

    fn transition(&mut self) {
        self.report.transitions += 1;
        self.unsynced += 1;
    }

    fn visit(&mut self, fp: u128, from: u128, _elem: SchedElem) -> Option<(u128, bool)> {
        if self.config.check_termination {
            self.report.edges.push((from, fp));
        }
        Some((fp, self.pool.table.insert(fp)))
    }

    fn count_state(&mut self) -> usize {
        self.pool.state_count.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn terminal(&mut self, fp: u128) {
        self.report.terminals.push(fp);
    }
}
