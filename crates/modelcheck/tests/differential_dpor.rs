//! Differential test for the DPOR engine against the exhaustive engines.
//!
//! Unlike `differential_engines.rs` (which demands bit-identical `Stats`),
//! the reduced search legitimately explores *fewer* states and transitions
//! — that difference is the point. What must coincide is the **verdict
//! label**: on every lock × memory-model × fence-mask × crash configuration
//! at `n = 2`, `Engine::Dpor` and `Engine::Undo` must agree on whether the
//! properties hold, and any mutex counterexample the reduced engine
//! produces must replay on a fresh *unreduced* machine to a real
//! two-in-CS state without ever taking a no-op step.
//!
//! `max_states` is set high enough that no configuration in the matrix
//! hits the limit: a `StateLimit` cut-off point is engine-specific, so a
//! capped run would turn a legitimate stats difference into a spurious
//! label difference. A guard assertion enforces this.

use modelcheck::{check, CheckConfig, Engine, Verdict};
use proptest::prelude::*;
use simlocks::{build_mutex, FenceMask, LockKind, ANNOT_IN_CS};
use wbmem::{
    CrashSemantics, Machine, MachineConfig, MemoryLayout, MemoryModel, ProcId, StepOutcome,
};

fn dpor() -> Engine {
    Engine::Dpor {
        reorder_bound: None,
    }
}

const MODELS: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

/// Replay a mutex counterexample on a fresh machine (crash bound applied
/// when the config used one): every element must take a real step and the
/// final state must witness the violation.
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

/// Run one configuration under both engines and compare labels; returns
/// whether the configuration was violating.
fn compare(inst: &simlocks::OrderingInstance, model: MemoryModel, config: &CheckConfig) -> bool {
    let undo = check(
        &inst.machine(model),
        &config.clone().with_engine(Engine::Undo),
    );
    let red = check(&inst.machine(model), &config.clone().with_engine(dpor()));
    let ctx = format!(
        "{} {model} crashes={} term={}",
        inst.name, config.max_crashes, config.check_termination
    );
    assert!(
        !matches!(undo, Verdict::StateLimit(_)) && !matches!(red, Verdict::StateLimit(_)),
        "{ctx}: raise max_states — a capped run cannot be compared"
    );
    assert_eq!(undo.label(), red.label(), "{ctx}: verdict labels");
    // Only completed explorations have comparable state counts: a violating
    // run stops at the first violation, and the engines reach theirs at
    // different points. (NO-TERMINATION *is* a completed exploration — the
    // verdict comes from the reverse pass after the sweep finishes.)
    if undo.is_ok() || matches!(undo, Verdict::NoTermination(..)) {
        assert!(
            red.stats().states <= undo.stats().states,
            "{ctx}: reduction must never visit more states ({} vs {})",
            red.stats().states,
            undo.stats().states
        );
    }
    if let Verdict::MutexViolation(_, cex) = &red {
        assert_mutex_cex_replays(inst, model, config, cex);
    }
    red.is_violation()
}

/// The full n = 2 safety matrix: every fence mask of every lock under every
/// model, with and without a crash budget.
#[test]
fn dpor_agrees_on_the_full_n2_safety_matrix() {
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

/// With termination checking on, the engine switches to sleep-sets-only
/// (plus edge probing); verdicts must still coincide — including the
/// crash-induced NO-TERMINATION cases.
#[test]
fn dpor_agrees_with_termination_checking() {
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

/// Drain-buffer crash semantics change the dependence footprint of crash
/// steps (a draining crash commits the buffer); the engines must agree
/// there too.
#[test]
fn dpor_agrees_under_drain_buffer_crashes() {
    let base = CheckConfig {
        check_termination: false,
        max_states: 1_000_000,
        ..CheckConfig::default()
    };
    for kind in [
        LockKind::Ttas,
        LockKind::RecoverableTtas,
        LockKind::Peterson,
    ] {
        let inst = build_mutex(kind, 2, FenceMask::ALL);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let config = base.clone().with_crashes(CrashSemantics::DrainBuffer, 1);
            compare(&inst, model, &config);
        }
    }
    // Multi-crash drain cells: with `max_crashes >= 2` the same process
    // can crash, recover, refill its buffer, and drain again — the
    // second drain's dependence footprint covers writes the first drain
    // already committed, a chain single-crash cells never exercise.
    // (Trimmed to the two cheapest locks; the full-lock single-crash
    // sweep above pins the rest of the matrix.)
    for kind in [LockKind::Ttas, LockKind::RecoverableTtas] {
        let inst = build_mutex(kind, 2, FenceMask::ALL);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let config = base.clone().with_crashes(CrashSemantics::DrainBuffer, 2);
            compare(&inst, model, &config);
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On arbitrary small two-process programs — random register traffic,
    /// RMW ops, fences, and annotations (so mutex violations actually
    /// occur) — the reduced engine returns the same verdict label as the
    /// undo engine, under every model, with and without a crash budget.
    #[test]
    fn dpor_matches_undo_on_random_programs(
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
        let undo = check(
            &random_machine(&progs, model),
            &config.clone().with_engine(Engine::Undo),
        );
        let red = check(
            &random_machine(&progs, model),
            &config.clone().with_engine(dpor()),
        );
        prop_assert_eq!(
            undo.label(),
            red.label(),
            "{:?} {} crashes={} term={}",
            progs,
            model,
            max_crashes,
            termination
        );
        if undo.is_ok() {
            prop_assert!(red.stats().states <= undo.stats().states);
        }
    }
}
