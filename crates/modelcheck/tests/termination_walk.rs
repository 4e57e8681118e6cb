//! What a termination check walks.
//!
//! The check is a reverse-reachability pass over the graph the walk
//! builds. An unbounded `Engine::Dpor` builds it with ample sets and no
//! sleep sets, entering each state once; `Engine::ParallelDpor` runs that
//! same walk (its cycle proviso is per task, so it cannot build the graph
//! itself). Checked here on every E12/E12b cell and the fence-free n = 2
//! masks, under TSO and PSO:
//!
//! * every label is `Engine::Undo`'s;
//! * a `Dpor` walk that completes (`ok`, `NO-TERMINATION`) counts no more
//!   states or transitions than `Undo`, strictly fewer states on every
//!   fenced cell, and exactly `Undo`'s terminal states — the all-done
//!   states are the machine's deadlocks, which the reduction keeps;
//! * `ParallelDpor` × 2 returns `Dpor`'s verdict with its statistics and
//!   deterministic metrics, bit for bit;
//! * each `NO-TERMINATION` counterexample, and each alternate, replays to
//!   a state from which `Undo` finds nothing that finishes;
//! * a safety violation stops where the order meets it first, so only its
//!   label is `Undo`'s, and its counterexample replays on a fresh machine;
//! * nothing sleeps.
//!
//! The three n = 3 cells of 66–191 k states take ~25 s unoptimised and
//! ~1 s optimised, so they run under `cargo test --release` only.

use ftobs::Metric;
use modelcheck::{check, CheckConfig, Engine, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind, OrderingInstance, ANNOT_IN_CS};
use wbmem::{Machine, MemoryModel, ProcId, Process, SchedElem, StepOutcome};

const DPOR: Engine = Engine::Dpor {
    reorder_bound: None,
};

const PARDPOR: Engine = Engine::ParallelDpor {
    threads: 2,
    reorder_bound: None,
};

fn config(engine: Engine) -> CheckConfig {
    CheckConfig {
        max_states: 1_000_000,
        ..CheckConfig::default()
    }
    .with_engine(engine)
}

/// Every element of `schedule` takes a real step from `m`.
fn replay<P: Process>(m: &mut Machine<P>, schedule: &[SchedElem], ctx: &str) {
    for (i, &elem) in schedule.iter().enumerate() {
        let out = m.step(elem);
        assert!(
            !matches!(out, StepOutcome::NoOp),
            "{ctx}: step {i} ({elem:?}) was a no-op"
        );
    }
}

fn sleep_hits(v: &Verdict) -> u64 {
    v.stats().metrics.get(Metric::SleepHits)
}

/// `schedule` leads from `machine` to a state `Undo` calls stuck: nothing
/// finishes from there, so the check fails at the root.
fn ends_stuck<P: Process>(machine: &Machine<P>, schedule: &[SchedElem], ctx: &str) {
    let mut m = machine.clone();
    replay(&mut m, schedule, ctx);
    let Verdict::NoTermination(_, cex) = check(&m, &config(Engine::Undo)) else {
        panic!("{ctx}: {schedule:?} ends in a state that can finish");
    };
    assert!(cex.schedule.is_empty(), "{ctx}: {schedule:?} is not stuck");
}

/// How [`walks_within_undos_graph`] went on one cell's two models.
#[derive(Default)]
struct Walked {
    /// `Dpor` walks that completed.
    completed: usize,
    /// Of those, the ones that counted fewer states than `Undo`.
    fewer: usize,
    /// Counterexamples and alternates replayed.
    replayed: usize,
}

/// Check `inst` under TSO and PSO.
fn walks_within_undos_graph(inst: &OrderingInstance) -> Walked {
    let mut walked = Walked::default();
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        let ctx = format!("{} {model}", inst.name);
        let machine = inst.machine(model);
        let undo = check(&machine, &config(Engine::Undo));
        let red = check(&machine, &config(DPOR));
        let par = check(&machine, &config(PARDPOR));
        assert!(
            !matches!(undo, Verdict::StateLimit(_)),
            "{ctx}: raise max_states"
        );
        assert_eq!(red.label(), undo.label(), "{ctx}: verdict labels");
        assert_eq!(par.label(), undo.label(), "{ctx}: pardpor label");
        assert_eq!(sleep_hits(&red), 0, "{ctx}: dpor slept");
        assert_eq!(sleep_hits(&par), 0, "{ctx}: pardpor slept");

        let (r, u, p) = (red.stats(), undo.stats(), par.stats());
        match &red {
            Verdict::Ok(_) | Verdict::NoTermination(..) => {
                assert!(r.states <= u.states, "{ctx}: states");
                assert!(r.transitions <= u.transitions, "{ctx}: transitions");
                assert_eq!(r.terminal_states, u.terminal_states, "{ctx}: terminals");
                walked.completed += 1;
                walked.fewer += usize::from(r.states < u.states);
            }
            Verdict::MutexViolation(_, cex) => {
                let mut m = machine.clone();
                replay(&mut m, &cex.schedule, &ctx);
                let in_cs = (0..inst.n)
                    .filter(|&p| m.annotation(ProcId::from(p)) == ANNOT_IN_CS)
                    .count();
                assert!(in_cs >= 2, "{ctx}: replay ends with {in_cs} in CS");
                walked.replayed += 1;
            }
            other => panic!("{ctx}: unexpected {}", other.label()),
        }
        assert_eq!(p, r, "{ctx}: pardpor stats and metrics");
        let schedules = |v: &Verdict| {
            v.counterexample()
                .map(|c| (c.schedule.clone(), c.alternates.clone()))
        };
        assert_eq!(
            schedules(&par),
            schedules(&red),
            "{ctx}: pardpor counterexample"
        );
        if let Verdict::NoTermination(_, cex) = &red {
            for schedule in std::iter::once(&cex.schedule).chain(&cex.alternates) {
                ends_stuck(&machine, schedule, &ctx);
                walked.replayed += 1;
            }
        }
    }
    walked
}

#[test]
fn a_termination_checking_dpor_walks_within_undos_graph() {
    let fenced = [
        (LockKind::Peterson, 2),
        (LockKind::Ttas, 2),
        (LockKind::Bakery, 2),
        (LockKind::Filter, 2),
        (LockKind::Ttas, 3),
    ];
    let fence_free = [LockKind::Peterson, LockKind::Ttas, LockKind::Bakery];
    // TTAS with its exit drain stripped too: a process that returns with
    // its unlock still buffered strands the others.
    let mut hangs = build_mutex(LockKind::Ttas, 3, FenceMask::ALL);
    for prog in &mut hangs.programs {
        *prog = fencevm::strip_fences(prog).program.into();
    }
    let mut total = Walked::default();
    for inst in fenced.map(|(kind, n)| build_mutex(kind, n, FenceMask::ALL)) {
        let walked = walks_within_undos_graph(&inst);
        assert_eq!(walked.fewer, 2, "{}: fewer states than undo", inst.name);
        total.completed += walked.completed;
        total.replayed += walked.replayed;
    }
    let unfenced = fence_free.map(|kind| build_mutex(kind, 2, FenceMask::NONE));
    for inst in unfenced.into_iter().chain([hangs]) {
        let walked = walks_within_undos_graph(&inst);
        total.completed += walked.completed;
        total.replayed += walked.replayed;
    }
    assert_eq!(
        total.completed, 14,
        "all but the fence-free Peterson/Bakery walks"
    );
    assert_eq!(
        total.replayed, 10,
        "4 mutex violations and 2 stuck regions, one entry per process"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "~25 s unoptimised: run with --release")]
fn the_large_n3_cells_walk_within_undos_graph() {
    for kind in [LockKind::Bakery, LockKind::Filter, LockKind::Gt { f: 2 }] {
        let walked = walks_within_undos_graph(&build_mutex(kind, 3, FenceMask::ALL));
        assert_eq!(walked.completed, 2, "{kind}");
        assert_eq!(walked.fewer, 2, "{kind}: fewer states than undo");
    }
}
