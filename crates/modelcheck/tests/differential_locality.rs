//! The machine a search walks classifies no access as local or remote
//! ([`wbmem::Machine::forget_locality`]); the machine a counterexample is
//! rendered on does. Neither may show in a verdict: on the n = 2 E12
//! matrix — every lock with every fence and with none, under TSO and PSO,
//! with a crash budget of 0 and 1 — every engine reaches the same verdict
//! and counts the same states, transitions and terminal states with the
//! recorder disabled and enabled, and every counterexample's trace is what
//! stepping the caller's machine through its schedule prints, `[RMR]`
//! marks included.

use std::fmt::Write as _;

use modelcheck::{check, CheckConfig, Counterexample, Engine, Recorder, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind, ANNOT_IN_CS};
use wbmem::{CrashSemantics, Machine, MemoryModel, Process, StepOutcome};

const LOCKS: [LockKind; 4] = [
    LockKind::Peterson,
    LockKind::Ttas,
    LockKind::Bakery,
    LockKind::Filter,
];

const ENGINES: [Engine; 5] = [
    Engine::CloneDfs,
    Engine::Undo,
    Engine::Parallel { threads: 2 },
    Engine::Dpor {
        reorder_bound: None,
    },
    Engine::ParallelDpor {
        threads: 2,
        reorder_bound: None,
    },
];

/// What a verdict says about the state space.
fn counts(v: &Verdict) -> (&'static str, usize, usize, usize) {
    let s = v.stats();
    (v.label(), s.states, s.transitions, s.terminal_states)
}

/// The trace of `schedule` as a plain replay on `initial` prints it.
fn replayed<P: Process>(initial: &Machine<P>, cex: &Counterexample) -> String {
    let mut m = initial.clone();
    let mut out = String::new();
    for (i, &e) in cex.schedule.iter().enumerate() {
        if let StepOutcome::Stepped(ev) = m.step(e) {
            let _ = writeln!(out, "{i:5}  {ev}");
        }
    }
    let in_cs: Vec<usize> = (0..m.n())
        .filter(|&i| m.annotation(wbmem::ProcId::from(i)) == ANNOT_IN_CS)
        .collect();
    let _ = writeln!(
        out,
        "       in-CS: {in_cs:?}  returns: {:?}",
        m.return_values()
    );
    out
}

#[test]
fn verdicts_counts_and_traces_do_not_depend_on_the_recorder() {
    let (mut traces, mut marked) = (0, 0);
    for kind in LOCKS {
        for mask in [FenceMask::ALL, FenceMask::NONE] {
            let inst = build_mutex(kind, 2, mask);
            for model in [MemoryModel::Tso, MemoryModel::Pso] {
                for max_crashes in [0u32, 1] {
                    let mut caller = inst.machine(model);
                    caller.set_crash_bound(CrashSemantics::DiscardBuffer, max_crashes);
                    for engine in ENGINES {
                        let config = CheckConfig::default()
                            .with_crashes(CrashSemantics::DiscardBuffer, max_crashes)
                            .with_engine(engine);
                        let ctx = format!(
                            "{}/{model}/crashes={max_crashes}/{}",
                            inst.name,
                            engine.label()
                        );
                        let off = check(&caller, &config.clone());
                        let on = check(&caller, &config.with_recorder(Recorder::enabled()));
                        assert_eq!(counts(&off), counts(&on), "{ctx}");
                        for cex in [&off, &on].into_iter().filter_map(Verdict::counterexample) {
                            assert_eq!(cex.trace, replayed(&caller, cex), "{ctx}");
                            traces += 1;
                            marked += usize::from(cex.trace.contains("[RMR]"));
                        }
                    }
                }
            }
        }
    }
    assert!(
        traces > 0 && marked > 0,
        "{marked} of {traces} traces mark an RMR"
    );
}
