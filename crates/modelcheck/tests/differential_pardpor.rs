//! Differential test for the work-stealing parallel DPOR engine against
//! the sequential DPOR engine.
//!
//! `Engine::ParallelDpor` promises *bit-identical verdicts* to
//! `Engine::Dpor` with the same reorder bound, on every configuration: it
//! runs the same reduction per worker, shares only a fingerprint table
//! (which can never prune more than the sequential visit table), and
//! defers every early stop (violation, state limit, panic) to a
//! sequential rerun. Under the termination check it *is* `Engine::Dpor`,
//! statistics included. In the `Some(u32::MAX)` diagnostic mode it
//! additionally promises a *bit-identical* [`MetricsSnapshot`]: with
//! reduction off, the global table is the only pruning rule, so a
//! completed sweep executes the exact edge multiset of the sequential
//! engines.

use modelcheck::{check, CheckConfig, Engine, Verdict};
use proptest::prelude::*;
use simlocks::{build_mutex, FenceMask, LockKind, ANNOT_IN_CS};
use wbmem::{
    CrashSemantics, Machine, MachineConfig, MemoryLayout, MemoryModel, ProcId, StepOutcome,
};

/// Worker count: `FT_THREADS` if set (the CI entry point runs this suite
/// with `FT_THREADS=2`), otherwise 4 — enough that stealing actually
/// happens even on a single-core host (blocked takers still race for
/// published fork points).
fn threads() -> usize {
    std::env::var("FT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

fn dpor() -> Engine {
    Engine::Dpor {
        reorder_bound: None,
    }
}

fn pardpor() -> Engine {
    Engine::ParallelDpor {
        threads: threads(),
        reorder_bound: None,
    }
}

const MODELS: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

/// Replay a mutex counterexample on a fresh *unreduced* machine: every
/// element must take a real step and the final state must witness the
/// violation.
fn assert_mutex_cex_replays(
    inst: &simlocks::OrderingInstance,
    model: MemoryModel,
    config: &CheckConfig,
    cex: &modelcheck::Counterexample,
) {
    let mut m = inst.machine(model);
    if config.max_crashes > 0 {
        m.set_crash_bound(config.crash_semantics, config.max_crashes);
    }
    for (i, &elem) in cex.schedule.iter().enumerate() {
        let out = m.step(elem);
        assert!(
            !matches!(out, StepOutcome::NoOp),
            "{}/{model}: counterexample step {i} ({elem:?}) was a no-op",
            inst.name
        );
    }
    let in_cs = (0..2)
        .filter(|&i| m.annotation(ProcId::from(i)) == ANNOT_IN_CS)
        .count();
    assert!(
        in_cs >= 2,
        "{}/{model}: replayed counterexample ends with {in_cs} processes in CS",
        inst.name
    );
}

/// Under the termination check `ParallelDpor` runs `Dpor` itself, so the
/// two agree on every count, whatever the verdict.
fn termination_counts(seq: &Verdict, par: &Verdict) -> Result<(), String> {
    let (p, s) = (par.stats(), seq.stats());
    if p == s {
        Ok(())
    } else {
        Err(format!(
            "pardpor {} states / {} transitions / {} terminal, dpor {} / {} / {}",
            p.states, p.transitions, p.terminal_states, s.states, s.transitions, s.terminal_states
        ))
    }
}

/// Run one configuration under both engines and compare labels; returns
/// whether the configuration was violating.
fn compare(inst: &simlocks::OrderingInstance, model: MemoryModel, config: &CheckConfig) -> bool {
    let seq = check(&inst.machine(model), &config.clone().with_engine(dpor()));
    let par = check(&inst.machine(model), &config.clone().with_engine(pardpor()));
    let ctx = format!(
        "{} {model} crashes={} term={}",
        inst.name, config.max_crashes, config.check_termination
    );
    assert!(
        !matches!(seq, Verdict::StateLimit(_)) && !matches!(par, Verdict::StateLimit(_)),
        "{ctx}: raise max_states — a capped run cannot be compared"
    );
    assert_eq!(seq.label(), par.label(), "{ctx}: verdict labels");
    if config.check_termination {
        if let Err(e) = termination_counts(&seq, &par) {
            panic!("{ctx}: {e}");
        }
    }
    if let Verdict::MutexViolation(_, cex) = &par {
        assert_mutex_cex_replays(inst, model, config, cex);
    }
    par.is_violation()
}

/// The full n = 2 safety matrix: every fence mask of every lock under
/// every model, with and without a crash budget.
#[test]
fn pardpor_agrees_on_the_full_n2_safety_matrix() {
    let base = CheckConfig {
        check_termination: false,
        max_states: 1_000_000,
        ..CheckConfig::default()
    };
    let mut configs = 0usize;
    let mut violations = 0usize;
    for kind in [LockKind::Peterson, LockKind::Ttas, LockKind::Bakery] {
        let probe = build_mutex(kind, 2, FenceMask::ALL);
        for mask in FenceMask::enumerate(probe.fence_sites) {
            let inst = build_mutex(kind, 2, mask);
            for model in MODELS {
                for max_crashes in [0u32, 1] {
                    let config = base
                        .clone()
                        .with_crashes(CrashSemantics::DiscardBuffer, max_crashes);
                    violations += usize::from(compare(&inst, model, &config));
                    configs += 1;
                }
            }
        }
    }
    assert!(configs >= 150, "matrix actually swept ({configs} configs)");
    assert!(
        violations >= 20,
        "matrix includes violating configs ({violations})"
    );
}

/// With termination checking on, `Dpor` drops its sleep sets and keeps
/// its ample sets, and `ParallelDpor` runs that same walk: the same
/// NO-TERMINATION verdicts, including the crash-induced ones, and the
/// same counts.
#[test]
fn pardpor_agrees_with_termination_checking() {
    let base = CheckConfig {
        max_states: 1_000_000,
        ..CheckConfig::default()
    };
    let mut violations = 0usize;
    for (kind, mask, model, max_crashes) in [
        (LockKind::Peterson, FenceMask::ALL, MemoryModel::Tso, 0u32),
        (LockKind::Peterson, FenceMask::ALL, MemoryModel::Pso, 0),
        (
            LockKind::Peterson,
            FenceMask::only(&[simlocks::peterson::SITE_VICTIM]),
            MemoryModel::Pso,
            0,
        ),
        (LockKind::Ttas, FenceMask::ALL, MemoryModel::Pso, 1),
        (
            LockKind::RecoverableTtas,
            FenceMask::ALL,
            MemoryModel::Pso,
            1,
        ),
        (LockKind::Bakery, FenceMask::ALL, MemoryModel::Pso, 0),
        (LockKind::Bakery, FenceMask::NONE, MemoryModel::Tso, 0),
    ] {
        let inst = build_mutex(kind, 2, mask);
        let config = base
            .clone()
            .with_crashes(CrashSemantics::DiscardBuffer, max_crashes);
        violations += usize::from(compare(&inst, model, &config));
    }
    assert!(violations >= 2, "set includes violating configs");
}

/// Drain-buffer crash semantics with a multi-crash budget: a crash's
/// drain commits the whole buffer (a many-cell dependence footprint),
/// and with `max_crashes >= 2` a recovered process can refill and drain
/// *again* — fork points donated across workers must carry the remaining
/// crash budget and the post-drain buffer state exactly. The existing
/// matrices stop at single-crash drain cells; this pins the chain.
#[test]
fn pardpor_agrees_under_multi_crash_drain() {
    let base = CheckConfig {
        check_termination: false,
        max_states: 1_000_000,
        ..CheckConfig::default()
    };
    for kind in [LockKind::Ttas, LockKind::RecoverableTtas] {
        let inst = build_mutex(kind, 2, FenceMask::ALL);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            for max_crashes in [1u32, 2] {
                let config = base
                    .clone()
                    .with_crashes(CrashSemantics::DrainBuffer, max_crashes);
                compare(&inst, model, &config);
            }
        }
    }
}

/// Reorder bounds travel with the donated fork points (the remaining
/// budget is part of the continuation); bounded verdicts must coincide,
/// including the bound-0 ≡ SC collapse.
#[test]
fn pardpor_agrees_under_reorder_bounds() {
    let mask = FenceMask::only(&[simlocks::peterson::SITE_RELEASE]);
    let inst = build_mutex(LockKind::Peterson, 2, mask);
    for bound in [Some(0u32), Some(1), Some(2), None] {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let seq = check(
                &inst.machine(model),
                &CheckConfig::default().with_engine(Engine::Dpor {
                    reorder_bound: bound,
                }),
            );
            let par = check(
                &inst.machine(model),
                &CheckConfig::default().with_engine(Engine::ParallelDpor {
                    threads: threads(),
                    reorder_bound: bound,
                }),
            );
            assert_eq!(
                seq.label(),
                par.label(),
                "bound {bound:?} under {model}: verdict labels"
            );
        }
    }
}

/// Diagnostic disabled-reduction mode: the sweep executes the exact edge
/// multiset of the exhaustive engines, so the deterministic part of the
/// metrics snapshot — and the `Stats` stamped into the verdict — must be
/// **bit-identical** to sequential diagnostic DPOR, on ok and violating
/// cells alike.
#[test]
fn diagnostic_mode_metrics_are_bit_identical() {
    for (kind, mask, name) in [
        (LockKind::Peterson, FenceMask::ALL, "peterson_all"),
        (
            LockKind::Peterson,
            FenceMask::only(&[simlocks::peterson::SITE_VICTIM]),
            "peterson_victim_only",
        ),
        (LockKind::Ttas, FenceMask::ALL, "ttas_all"),
        (LockKind::Filter, FenceMask::ALL, "filter_all"),
    ] {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let inst = build_mutex(kind, 2, mask);
            let seq = check(
                &inst.machine(model),
                &CheckConfig::default().with_engine(Engine::Dpor {
                    reorder_bound: Some(u32::MAX),
                }),
            );
            let par = check(
                &inst.machine(model),
                &CheckConfig::default().with_engine(Engine::ParallelDpor {
                    threads: 2,
                    reorder_bound: Some(u32::MAX),
                }),
            );
            assert_eq!(seq.label(), par.label(), "{name}/{model}: verdict labels");
            assert_eq!(
                seq.stats().states,
                par.stats().states,
                "{name}/{model}: states"
            );
            assert_eq!(
                seq.stats().transitions,
                par.stats().transitions,
                "{name}/{model}: transitions"
            );
            let (s, p) = (seq.stats().metrics, par.stats().metrics);
            assert_eq!(
                s,
                p,
                "{name}/{model}: diagnostic metrics drift\n  dpor:    {:?}\n  pardpor: {:?}",
                s.deterministic_key(),
                p.deterministic_key()
            );
            // The final snapshot is also stamped into the verdict.
            assert_eq!(par.stats().metrics, p, "{name}/{model}: stamped snapshot");
        }
    }
}

// --- random programs ---

/// One step of a random straight-line program.
#[derive(Clone, Copy, Debug)]
enum Op {
    Write { reg: i64, val: i64 },
    Read { reg: i64 },
    Cas { reg: i64, expect: i64, new: i64 },
    Swap { reg: i64, val: i64 },
    Fence,
    Annot { in_cs: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3i64, 0..3i64).prop_map(|(reg, val)| Op::Write { reg, val }),
        (0..3i64).prop_map(|reg| Op::Read { reg }),
        (0..3i64, 0..2i64, 0..3i64).prop_map(|(reg, expect, new)| Op::Cas { reg, expect, new }),
        (0..3i64, 0..3i64).prop_map(|(reg, val)| Op::Swap { reg, val }),
        Just(Op::Fence),
        any::<bool>().prop_map(|in_cs| Op::Annot { in_cs }),
    ]
}

fn assemble(name: &str, ops: &[Op]) -> fencevm::VmProc {
    let mut a = fencevm::Asm::new(name);
    let scratch = a.local("scratch");
    for &op in ops {
        match op {
            Op::Write { reg, val } => a.write(reg, val),
            Op::Read { reg } => a.read(reg, scratch),
            Op::Cas { reg, expect, new } => a.cas(reg, expect, new, scratch),
            Op::Swap { reg, val } => a.swap(reg, val, scratch),
            Op::Fence => a.fence(),
            Op::Annot { in_cs } => a.annot(if in_cs { ANNOT_IN_CS } else { 7 }),
        }
    }
    a.ret(0i64);
    fencevm::VmProc::new(a.assemble().into())
}

fn random_machine(progs: &[Vec<Op>], model: MemoryModel) -> Machine<fencevm::VmProc> {
    let procs = progs
        .iter()
        .enumerate()
        .map(|(i, ops)| assemble(&format!("p{i}"), ops))
        .collect();
    Machine::new(MachineConfig::new(model, MemoryLayout::unowned()), procs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On arbitrary small two-process programs — random register traffic,
    /// RMW ops, fences, and annotations (so mutex violations actually
    /// occur) — the parallel engine returns the same verdict label as the
    /// sequential DPOR engine, under every model, with and without a
    /// crash budget, with the work-stealing path forced on.
    #[test]
    fn pardpor_matches_dpor_on_random_programs(
        prog0 in prop::collection::vec(op_strategy(), 0..6),
        prog1 in prop::collection::vec(op_strategy(), 0..6),
        model_ix in 0..MODELS.len(),
        max_crashes in 0u32..2,
        termination in any::<bool>(),
    ) {
        let model = MODELS[model_ix];
        let config = CheckConfig {
            check_termination: termination,
            max_states: 1_000_000,
            ..CheckConfig::default()
        }
        .with_crashes(CrashSemantics::DiscardBuffer, max_crashes);

        let progs = [prog0, prog1];
        let seq = check(
            &random_machine(&progs, model),
            &config.clone().with_engine(dpor()),
        );
        let par = check(
            &random_machine(&progs, model),
            &config.clone().with_engine(pardpor()),
        );
        prop_assert_eq!(
            seq.label(),
            par.label(),
            "{:?} {} crashes={} term={}",
            progs,
            model,
            max_crashes,
            termination
        );
        if termination {
            let counts = termination_counts(&seq, &par);
            prop_assert!(counts.is_ok(), "{:?} {}: {}", progs, model, counts.unwrap_err());
        }
    }
}
