//! Differential test of the termination check on programs that can
//! livelock.
//!
//! The other random generators in this suite write straight-line code,
//! which always finishes, so none of them ever meets `NO-TERMINATION`.
//! Here each process is 1–4 operations drawn from register traffic, CAS,
//! swaps, fences and annotations, plus two loops: a spin that reads a
//! register until it holds a value, and a CAS that retries until it sees
//! its expected value. A spin on a value nobody stores, or on a store
//! still sitting in a returned process's buffer, never ends. Programs of
//! 2–3 processes are checked under SC, TSO and PSO, with at most one
//! `DiscardBuffer` crash, by `Engine::Undo` and by an unbounded
//! `Engine::Dpor`, which keeps its ample sets under the check:
//!
//! * the two labels are equal;
//! * a completed `Dpor` walk counts no more states than `Undo`'s, and
//!   some count fewer;
//! * each `NO-TERMINATION` counterexample of `Dpor`, and each alternate,
//!   replays on the unreduced machine to a state from which `Undo` finds
//!   nothing that finishes;
//! * both `ok` and `NO-TERMINATION` occur.
//!
//! The tier-1 run draws 200 cases (~4 s unoptimised); the ignored one
//! draws 4 000 (~4 s optimised: `cargo test --release -p modelcheck
//! --test differential_termination -- --ignored`).

use fencevm::{Asm, CondOp, VmProc};
use modelcheck::{check, CheckConfig, Engine, Verdict};
use proptest::prelude::*;
use proptest::TestRng;
use simlocks::ANNOT_IN_CS;
use wbmem::{
    CrashSemantics, Machine, MachineConfig, MemoryLayout, MemoryModel, SchedElem, StepOutcome,
};

/// One operation of a random program.
#[derive(Clone, Copy, Debug)]
enum Op {
    Write {
        reg: i64,
        val: i64,
    },
    Read {
        reg: i64,
    },
    Cas {
        reg: i64,
        expect: i64,
        new: i64,
    },
    Swap {
        reg: i64,
        val: i64,
    },
    Fence,
    Annot {
        in_cs: bool,
    },
    /// Read `reg` until it holds `val`.
    SpinUntil {
        reg: i64,
        val: i64,
    },
    /// CAS `reg` from `expect` to `new` until the CAS sees `expect`.
    CasRetry {
        reg: i64,
        expect: i64,
        new: i64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..2i64, 0..3i64).prop_map(|(reg, val)| Op::Write { reg, val }),
        (0..2i64).prop_map(|reg| Op::Read { reg }),
        (0..2i64, 0..2i64, 0..3i64).prop_map(|(reg, expect, new)| Op::Cas { reg, expect, new }),
        (0..2i64, 0..3i64).prop_map(|(reg, val)| Op::Swap { reg, val }),
        Just(Op::Fence),
        any::<bool>().prop_map(|in_cs| Op::Annot { in_cs }),
        (0..2i64, 0..3i64).prop_map(|(reg, val)| Op::SpinUntil { reg, val }),
        (0..2i64, 0..2i64, 0..3i64).prop_map(|(reg, expect, new)| Op::CasRetry {
            reg,
            expect,
            new
        }),
    ]
}

/// A configuration: the processes' programs, the model and the crash
/// budget.
fn case_strategy() -> impl Strategy<Value = (Vec<Vec<Op>>, MemoryModel, u32)> {
    let program = prop::collection::vec(op_strategy(), 1..5);
    let models = vec![MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
    (
        prop::collection::vec(program, 2..4),
        prop::sample::select(models),
        0u32..2,
    )
}

fn assemble(name: &str, ops: &[Op]) -> VmProc {
    let mut a = Asm::new(name);
    let scratch = a.local("scratch");
    for &op in ops {
        match op {
            Op::Write { reg, val } => a.write(reg, val),
            Op::Read { reg } => a.read(reg, scratch),
            Op::Cas { reg, expect, new } => a.cas(reg, expect, new, scratch),
            Op::Swap { reg, val } => a.swap(reg, val, scratch),
            Op::Fence => a.fence(),
            Op::Annot { in_cs } => a.annot(if in_cs { ANNOT_IN_CS } else { 7 }),
            Op::SpinUntil { reg, val } => {
                let top = a.here();
                a.read(reg, scratch);
                a.jmp_if(CondOp::Ne, scratch, val, top);
            }
            Op::CasRetry { reg, expect, new } => {
                let top = a.here();
                a.cas(reg, expect, new, scratch);
                a.jmp_if(CondOp::Ne, scratch, expect, top);
            }
        }
    }
    a.ret(0i64);
    VmProc::new(a.assemble().into())
}

fn machine(progs: &[Vec<Op>], model: MemoryModel) -> Machine<VmProc> {
    let procs = progs
        .iter()
        .enumerate()
        .map(|(i, ops)| assemble(&format!("p{i}"), ops))
        .collect();
    Machine::new(MachineConfig::new(model, MemoryLayout::unowned()), procs)
}

fn config(engine: Engine, max_crashes: u32) -> CheckConfig {
    CheckConfig {
        max_states: 200_000,
        ..CheckConfig::default()
    }
    .with_engine(engine)
    .with_crashes(CrashSemantics::DiscardBuffer, max_crashes)
}

/// Whether `schedule` replays step by step from `root` to a state from
/// which `Undo` finds nothing that finishes. `root` carries the crash
/// bound, so a crash in the schedule steps as it did in the check.
fn ends_stuck(root: &Machine<VmProc>, schedule: &[SchedElem], undo: &CheckConfig) -> bool {
    let mut m = root.clone();
    let steps = schedule
        .iter()
        .all(|&e| !matches!(m.step(e), StepOutcome::NoOp));
    steps && matches!(check(&m, undo), Verdict::NoTermination(_, cex) if cex.schedule.is_empty())
}

/// What a run of cases saw.
#[derive(Default, Debug)]
struct Seen {
    ok: usize,
    no_termination: usize,
    other: usize,
    /// Completed `Dpor` walks that counted fewer states than `Undo`.
    fewer: usize,
}

/// How one configuration went: `Dpor`'s label, and whether its walk
/// completed with fewer states than `Undo`'s.
type Outcome = (&'static str, bool);

/// Check one configuration; an `Err` names the broken claim.
fn differ(progs: &[Vec<Op>], model: MemoryModel, max_crashes: u32) -> Result<Outcome, String> {
    let m = machine(progs, model);
    let undo_cfg = config(Engine::Undo, max_crashes);
    let undo = check(&m, &undo_cfg);
    let dpor = check(
        &m,
        &config(
            Engine::Dpor {
                reorder_bound: None,
            },
            max_crashes,
        ),
    );
    if matches!(undo, Verdict::StateLimit(_)) {
        return Err("raise max_states: a capped run cannot be compared".into());
    }
    if dpor.label() != undo.label() {
        return Err(format!("dpor {} vs undo {}", dpor.label(), undo.label()));
    }
    let completed = matches!(dpor, Verdict::Ok(_) | Verdict::NoTermination(..));
    let (d, u) = (dpor.stats().states, undo.stats().states);
    if completed && d > u {
        return Err(format!("dpor counted {d} states, undo {u}"));
    }
    if let Verdict::NoTermination(_, cex) = &dpor {
        let mut root = m.clone();
        root.set_crash_bound(CrashSemantics::DiscardBuffer, max_crashes);
        let schedules = std::iter::once(&cex.schedule).chain(&cex.alternates);
        for schedule in schedules {
            if !ends_stuck(&root, schedule, &undo_cfg) {
                return Err(format!("{schedule:?} does not end in a stuck state"));
            }
        }
    }
    Ok((dpor.label(), completed && d < u))
}

/// Draw `cases` configurations from the stream named `name` and check
/// each; returns the labels seen.
fn run(name: &str, cases: usize) -> Seen {
    let mut rng = TestRng::from_name(name);
    let strategy = case_strategy();
    let mut seen = Seen::default();
    for case in 0..cases {
        let (progs, model, max_crashes) = strategy.sample(&mut rng);
        let (label, fewer) = match differ(&progs, model, max_crashes) {
            Ok(outcome) => outcome,
            Err(e) => panic!("case {case}: {progs:?} {model} crashes={max_crashes}: {e}"),
        };
        match label {
            "ok" => seen.ok += 1,
            "NO-TERMINATION" => seen.no_termination += 1,
            _ => seen.other += 1,
        }
        seen.fewer += usize::from(fewer);
    }
    seen
}

#[test]
fn dpor_decides_termination_as_undo_does() {
    let seen = run("dpor_decides_termination_as_undo_does", 200);
    assert!(seen.ok > 0 && seen.no_termination > 0, "{seen:?}");
    assert!(seen.fewer > 0, "{seen:?}");
}

#[test]
#[ignore = "4 000 cases: run with --release -- --ignored"]
fn dpor_decides_termination_as_undo_does_at_length() {
    let seen = run("dpor_decides_termination_as_undo_does_at_length", 4_000);
    assert!(seen.ok > 0 && seen.no_termination > 0, "{seen:?}");
    assert!(seen.fewer > 0, "{seen:?}");
}
