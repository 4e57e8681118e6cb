//! The work-stealing [`Frontier`] (`Shared`) and its coordinator: what
//! [`Engine::Parallel`](crate::Engine::Parallel) (`NoReduction`) and
//! [`Engine::ParallelDpor`](crate::Engine::ParallelDpor) (`SleepAmple`)
//! add to the kernel's walk, and what [`crate::resume`] re-enters
//! through. Under the termination check both run their sequential twin
//! instead: the check reads one walk's whole graph, and a task's cycle
//! proviso cannot vouch for a cycle through two workers' tasks. DESIGN.md
//! §7 has the fork-point protocol and the soundness argument; in short:
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
//!   overrun or worker panic cancels the sweep (its counts are dropped) and
//!   reruns the sequential engine of the same reduction, so those verdicts are
//!   bit-identical to it; a budget or stop trigger returns
//!   [`Verdict::Inconclusive`] with the merged frontier checkpointed. One
//!   worker is the sequential engine itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use ftobs::{Gauge, Metric, Tally};
use por::{ForkPoint, ForkQueue, FpHeads, FpTable, Snapshot};
use wbmem::{Machine, Process, SchedElem};

use crate::checker::{
    panic_message, poll_observe, run_meta_of, write_checkpoint, CheckConfig, CheckError, Coverage,
    Stats, Verdict,
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
/// into the outcome of a [`sweep`], whose last three fields the
/// coordinator fills in.
#[derive(Default)]
struct Report {
    /// The counts of every walk the worker ran.
    tally: Tally,
    transitions: usize,
    /// All-done states first visited.
    terminals: usize,
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
}

impl Report {
    fn absorb(&mut self, mut o: Report) {
        self.tally.merge(&o.tally);
        self.transitions += o.transitions;
        self.terminals += o.terminals;
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
/// queue, and its counts and metrics fold into the statistics and into
/// the next checkpoint, so chains of interrupts keep summing. Under the
/// termination check a fresh run is the sequential engine; `dispatch`
/// refused the checkpoint policy, so no such run is ever resumed.
///
/// `totals` receives the counts of the run the verdict came from: the
/// sweep's, or a sequential rerun's alone.
pub(crate) fn check_shared<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    resume: Option<Snapshot>,
    totals: &mut Tally,
) -> Verdict {
    let obs = &config.recorder;
    let panicked = |context: &str, payload: Box<dyn std::any::Any + Send>| {
        let msg = format!("{context}{}", panic_message(payload.as_ref()));
        Verdict::Error(Stats::default(), CheckError::Panic(msg))
    };
    // The sequential engine of the same reduction. User code (the
    // annotation invariant) runs inside every walk; a panic there must
    // surface as an error verdict, not abort the caller.
    let seq = |config: &CheckConfig, context: &str, totals: &mut Tally| {
        let run = || sequential(initial, config, deadline, totals);
        catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|p| panicked(context, p))
    };
    // Reproduce a verdict sequentially, counting into the totals the
    // sweep never reached: the rerun's counts stand alone. The
    // checkpoint policy is stripped so a stop trigger cannot re-fire on
    // the restarted transition count and cut the rerun short of the
    // verdict it exists to reproduce.
    let unstoppable = || CheckConfig {
        checkpoint: None,
        ..config.clone()
    };
    let rerun = |context: &str, totals: &mut Tally| seq(&unstoppable(), context, totals);

    // `run` accumulates the whole exploration — the interrupted prior, if
    // any, plus this sweep — in the shape of the next checkpoint.
    let root_fp = initial.fingerprint();
    let seeded = resume.is_some();
    let mut run = resume.unwrap_or_default();
    run.visited.push(root_fp);
    // The root's counts, kept with the sweep's.
    let mut root = Tally::default();
    // A resumed run skips the root checks: its work-list is the snapshot's
    // frontier, and the interrupted run already counted and checked the
    // root.
    if !seeded {
        if worker_count(config.engine.workers()) <= 1 || config.check_termination {
            return seq(config, "", totals); // the sequential engine itself
        }
        match catch_unwind(AssertUnwindSafe(|| Properties::new(config).state(initial))) {
            Ok(Ok(())) => {}
            Ok(Err(_)) => return rerun("", totals),
            Err(payload) => return panicked("root invariant: ", payload),
        }
        root.on_state(0);
        run.base.states = 1;
        if initial.all_done() {
            root.incr(Metric::TerminalStates);
            run.base.terminal_states = 1;
        }
    }

    let forks = seeded.then(|| std::mem::take(&mut run.forks));
    let seed = (run.visited.as_slice(), forks, run.base.states as usize);
    let (mut report, table) = sweep(initial, config, deadline, seed);
    if let Some(msg) = &report.panicked {
        // If the panic is deterministic the rerun hits it too.
        return rerun(&format!("worker: {msg}; sequential rerun: "), totals);
    }

    run.base.states = report.states as u64;
    run.base.transitions += report.transitions as u64;
    run.base.terminal_states += report.terminals as u64;
    run.base.sleep_hits += report.sleep_hits as u64;
    let stats = Stats {
        states: report.states,
        transitions: run.base.transitions as usize,
        terminal_states: run.base.terminal_states as usize,
        ..Stats::default()
    };

    let (frontier, sleep_hits) = (report.frontier, run.base.sleep_hits as usize);
    let discard = report.states > config.max_states || report.violated;

    if discard {
        return rerun("", totals);
    }
    totals.merge(&root);
    totals.merge(&report.tally);
    if report.budget_hit {
        // Stopped short of a verdict: the merged frontier as a checkpoint.
        let checkpoint = config.checkpoint.as_ref().and_then(|policy| {
            run.meta = run_meta_of(config, root_fp);
            run.metrics.merge(&totals.snapshot());
            run.forks = std::mem::take(&mut report.forks);
            run.visited = table.export();
            write_checkpoint(obs, totals, policy, &run)
        });
        let coverage = Coverage {
            frontier,
            sleep_hits,
            checkpoint,
        };
        return Verdict::Inconclusive(stats, coverage);
    }

    totals.gauge_set(Gauge::DedupOccupancy, table.len() as u64);
    Verdict::Ok(stats)
}

/// Spawn `threads` workers over the seeded first-visit table and work
/// queue, join them, and merge what they found, counts included;
/// [`check_shared`] turns that into a verdict. `seed` is `(fingerprints
/// already visited, fork points to start from — `None` for the root's
/// expansion —, states already counted)`.
fn sweep<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    seed: (&[u128], Option<Vec<ForkPoint>>, usize),
) -> (Report, FpTable) {
    let threads = worker_count(config.engine.workers());
    // The walk [`sequential`] picks for `config`.
    match config.engine.reduction() {
        Some(u32::MAX) => sweep_with(initial, config, threads, deadline, seed, || NoReduction),
        bound => sweep_with(initial, config, threads, deadline, seed, || {
            SleepAmple::<FpHeads>::new(initial, config, bound)
        }),
    }
}

fn sweep_with<P: Process, R: Reduction<P, u128>>(
    initial: &Machine<P>,
    config: &CheckConfig,
    threads: usize,
    deadline: Option<Instant>,
    (visited, forks, states): (&[u128], Option<Vec<ForkPoint>>, usize),
    make: impl Fn() -> R + Sync,
) -> (Report, FpTable) {
    let mut counted = Tally::default();
    let forks = match forks {
        Some(forks) => {
            counted.add(Metric::ResumeReplayed, forks.len() as u64);
            forks
        }
        None if initial.all_done() => Vec::new(),
        None => vec![root_fork(initial, &mut make(), &mut counted)],
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

    // Workers run under `catch_unwind`: a panicking property closure (or
    // a bug, including a fingerprint-table overflow) must not abort the
    // checker. On panic the worker cancels its peers and closes the
    // queue so blocked takers wake.
    let mut report = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let worker = Shared {
                    initial,
                    config,
                    deadline,
                    pool: &pool,
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
        report
    });
    // The queue's undrained tasks are unexplored frontier too.
    report.forks.splice(0..0, pool.queue.drain());
    report.states = pool.state_count.load(Ordering::SeqCst);
    report.budget_hit = pool.budget_hit.load(Ordering::SeqCst);
    // The contention counter sits past the deterministic range, so
    // snapshot equality with the sequential engines is unaffected.
    counted.add(Metric::FpContention, pool.table.contention());
    report.tally.merge(&counted);
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
            let obs = &config.recorder;
            let mut dfs = Dfs::start(initial, task, |fp| fp, &mut reduction, obs);
            dfs.tally.incr(Metric::ForkStolen);
            let halt = dfs.run(config, &mut self, &mut Properties::new(config));
            let open = dfs.depth();
            self.report.tally.merge(&dfs.tally);
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

    /// Peers' cancellation, stop triggers, and donation.
    #[inline(never)]
    fn poll<R: Reduction<P, u128>>(
        &mut self,
        dfs: &mut Dfs<'_, P, R, u128>,
        _iters: usize,
    ) -> bool {
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
        let frontier = dfs.depth() + pool.queue.len();
        let expired = poll_observe(
            &config.recorder,
            &mut dfs.tally,
            &progress,
            frontier,
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
                    dfs.tally.incr(Metric::ForkPublished);
                }
            }
        }
        false
    }

    fn transition(&mut self) {
        self.report.transitions += 1;
        self.unsynced += 1;
    }

    fn visit(&mut self, fp: u128, _from: u128, _elem: SchedElem) -> Option<(u128, bool)> {
        Some((fp, self.pool.table.insert(fp)))
    }

    fn count_state(&mut self) -> usize {
        self.pool.state_count.fetch_add(1, Ordering::SeqCst) + 1
    }

    fn terminal(&mut self, _fp: u128) {
        self.report.terminals += 1;
    }
}
