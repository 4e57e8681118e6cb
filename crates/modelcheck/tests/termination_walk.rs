//! A termination check walks every edge.
//!
//! The check is a reverse-reachability pass over the whole state graph,
//! so with `check_termination` on nothing may be pruned: an unbounded
//! `Engine::Dpor` runs the exhaustive walk in the reduced engine's
//! front-first order, and `Engine::ParallelDpor` the `Parallel` sweep.
//! Checked here on every E12/E12b cell and the fence-free n = 2 masks,
//! under TSO and PSO:
//!
//! * a walk that completes (`ok`, `NO-TERMINATION`) counts exactly
//!   `Engine::Undo`'s states, transitions and terminal states — the order
//!   differs, the graph does not;
//! * a safety violation stops where the order meets it first, so only its
//!   label is `Undo`'s, and its counterexample replays on a fresh machine;
//! * nothing sleeps, and `ParallelDpor` × 2 counts the same states as
//!   `Dpor`.
//!
//! The three n = 3 cells of 66–191 k states take ~25 s unoptimised and
//! ~1 s optimised, so they run under `cargo test --release` only.

use ftobs::Metric;
use modelcheck::{check, CheckConfig, Engine, Recorder, Verdict};
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
    .with_recorder(Recorder::builder().quiet(true).build())
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

/// Check `inst` under TSO and PSO; returns how many of the two walks
/// completed and how many counterexamples were replayed.
fn walks_undos_graph(inst: &OrderingInstance) -> (usize, usize) {
    let (mut completed, mut replayed) = (0, 0);
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
        assert_eq!(par.label(), red.label(), "{ctx}: pardpor label");
        assert_eq!(par.stats().states, red.stats().states, "{ctx}: pardpor");
        assert_eq!(sleep_hits(&red), 0, "{ctx}: dpor slept");
        assert_eq!(sleep_hits(&par), 0, "{ctx}: pardpor slept");

        match &red {
            Verdict::Ok(_) | Verdict::NoTermination(..) => {
                let (r, u) = (red.stats(), undo.stats());
                assert_eq!(r.states, u.states, "{ctx}: states");
                assert_eq!(r.transitions, u.transitions, "{ctx}: transitions");
                assert_eq!(r.terminal_states, u.terminal_states, "{ctx}: terminals");
                completed += 1;
            }
            Verdict::MutexViolation(_, cex) => {
                let mut m = machine.clone();
                replay(&mut m, &cex.schedule, &ctx);
                let in_cs = (0..inst.n)
                    .filter(|&p| m.annotation(ProcId::from(p)) == ANNOT_IN_CS)
                    .count();
                assert!(in_cs >= 2, "{ctx}: replay ends with {in_cs} in CS");
                replayed += 1;
            }
            other => panic!("{ctx}: unexpected {}", other.label()),
        }
        if let Verdict::NoTermination(_, cex) = &red {
            // The schedule ends in the stuck region: nothing finishes
            // from where it leads.
            let mut m = machine.clone();
            replay(&mut m, &cex.schedule, &ctx);
            assert_eq!(check(&m, &config(DPOR)).label(), "NO-TERMINATION", "{ctx}");
            replayed += 1;
        }
    }
    (completed, replayed)
}

#[test]
fn a_termination_checking_dpor_walks_undos_graph() {
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
    let cells = fenced
        .map(|(kind, n)| build_mutex(kind, n, FenceMask::ALL))
        .into_iter()
        .chain(fence_free.map(|kind| build_mutex(kind, 2, FenceMask::NONE)))
        .chain([hangs]);
    let (mut completed, mut replayed) = (0, 0);
    for inst in cells {
        let (c, r) = walks_undos_graph(&inst);
        (completed, replayed) = (completed + c, replayed + r);
    }
    assert_eq!(
        completed, 14,
        "all but the fence-free Peterson/Bakery walks"
    );
    assert_eq!(replayed, 6, "4 mutex violations and 2 stuck regions");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "~25 s unoptimised: run with --release")]
fn the_large_n3_cells_walk_undos_graph() {
    for kind in [LockKind::Bakery, LockKind::Filter, LockKind::Gt { f: 2 }] {
        let (completed, _) = walks_undos_graph(&build_mutex(kind, 3, FenceMask::ALL));
        assert_eq!(completed, 2, "{kind}");
    }
}
