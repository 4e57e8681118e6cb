//! The parked rotation held to the rotation that visits every process.
//! `run_to_completion` skips a spinner re-reading an unchanged register
//! until a store to it wakes the spinner, and charges the skipped reads in
//! one add; the reference below is the loop it replaced, which issues every
//! element. On untraced machines (a traced one never parks) the two must
//! agree on the result, the counters, the return values, every register
//! and the rest of the state, whether the budget runs out or not.
//!
//! Charging a woken process for the slot of the writer's round it has not
//! reached yet, or waking it late, fails here.

use std::sync::Arc;

use fencevm::{Asm, CondOp, Src, VmProc};
use simlocks::{
    build_ordering, build_steady_state, run_to_completion, LockKind, ObjectKind, OrderingInstance,
};
use wbmem::{Machine, MachineConfig, MemoryLayout, MemoryModel, ProcId, SchedElem};

/// The rotation that visits every process: each round issues one element
/// to every process that has not returned, in id order, and every element
/// counts against the budget.
fn reference_rotation(m: &mut Machine<VmProc>, max_steps: usize) -> bool {
    let mut live: Vec<ProcId> = (0..m.n())
        .map(ProcId::from)
        .filter(|&p| !m.is_done(p))
        .collect();
    let mut budget = max_steps;
    while !live.is_empty() && budget > 0 {
        live.retain(|&p| {
            if budget == 0 {
                return true;
            }
            budget -= 1;
            m.step(SchedElem::op(p));
            !m.is_done(p)
        });
    }
    live.is_empty()
}

/// Run `root` under both rotations with `budget` and compare everything.
fn assert_same_run(label: &str, root: &Machine<VmProc>, budget: usize) {
    let mut reference = root.clone();
    let mut parked = root.clone();
    let expected = reference_rotation(&mut reference, budget);
    let done = run_to_completion(&mut parked, budget);
    let at = format!("{label} budget {budget}");
    assert_eq!(done, expected, "{at}: result");
    assert_eq!(parked.counters(), reference.counters(), "{at}: counters");
    assert_eq!(
        parked.return_values(),
        reference.return_values(),
        "{at}: return values"
    );
    assert!(
        parked.memory_cells().eq(reference.memory_cells()),
        "{at}: registers"
    );
    assert_eq!(parked.state_key(), reference.state_key(), "{at}: state");
}

/// Whether `kind` builds an instance of `n` processes.
fn fits(kind: LockKind, n: usize) -> bool {
    match kind {
        LockKind::Peterson => n == 2,
        LockKind::Tournament => n.is_power_of_two(),
        _ => true,
    }
}

/// The budgets of one instance: cut inside the first rounds, cut later,
/// a fixed odd cut, and enough to finish.
fn budgets(n: usize) -> [usize; 4] {
    [3 * n + 1, 50 * n + 7, 997, 50_000_000]
}

/// Every object under every model at every budget.
fn assert_instance(kind: LockKind, n: usize) -> usize {
    let mut cases = 0;
    for object in [
        ObjectKind::Counter,
        ObjectKind::Queue,
        ObjectKind::FetchIncrement,
    ] {
        let inst = build_ordering(kind, n, object);
        cases += assert_every_model(&inst);
    }
    cases
}

fn assert_every_model(inst: &OrderingInstance) -> usize {
    let mut cases = 0;
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        let root = inst.machine(model);
        for budget in budgets(inst.n) {
            assert_same_run(&format!("{} {model}", inst.name), &root, budget);
            cases += 1;
        }
    }
    cases
}

const KINDS: [LockKind; 11] = [
    LockKind::Bakery,
    LockKind::BakeryPaperListing,
    LockKind::Peterson,
    LockKind::Tournament,
    LockKind::Gt { f: 2 },
    LockKind::Gt { f: 3 },
    LockKind::Ttas,
    LockKind::Mcs,
    LockKind::Filter,
    LockKind::RecoverableTtas,
    LockKind::RecoverableBakery,
];

#[test]
fn the_parked_rotation_is_the_full_rotation() {
    let mut cases = 0;
    for kind in KINDS {
        for n in [2, 3, 4, 5, 8, 16, 32] {
            if fits(kind, n) {
                cases += assert_instance(kind, n);
            }
        }
    }
    for kind in [
        LockKind::Bakery,
        LockKind::Gt { f: 2 },
        LockKind::Ttas,
        LockKind::Mcs,
    ] {
        for (n, passages) in [(2, 5), (4, 3), (8, 2)] {
            cases += assert_every_model(&build_steady_state(kind, n, passages));
        }
    }
    println!("{cases} cases");
}

/// Also with tagged writes, where a store of the same payload is a new
/// value and a woken spinner leaves its memo.
#[test]
fn the_parked_rotation_is_the_full_rotation_with_tagged_writes() {
    for kind in [LockKind::Bakery, LockKind::Gt { f: 2 }, LockKind::Mcs] {
        let inst = build_ordering(kind, 8, ObjectKind::Counter);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let cfg = MachineConfig::new(model, inst.layout.clone()).with_tagged_writes();
            let root = inst.machine_from(cfg);
            for budget in budgets(inst.n) {
                assert_same_run(&format!("{} {model} tagged", inst.name), &root, budget);
            }
        }
    }
}

/// The long variant: n = 64 and 256, with a cut deep into the run. Run it
/// in release: `cargo test --release -p simlocks --test parked_rotation --
/// --ignored`.
#[test]
#[ignore = "long variant, run in release"]
fn the_parked_rotation_is_the_full_rotation_at_scale() {
    for kind in [
        LockKind::Bakery,
        LockKind::Gt { f: 2 },
        LockKind::Gt { f: 3 },
        LockKind::Tournament,
    ] {
        for n in [64, 256] {
            let inst = build_ordering(kind, n, ObjectKind::Counter);
            let root = inst.machine(MemoryModel::Pso);
            for budget in [3 * n + 1, 50 * n + 7, 20_000 * n + 3, 1_000_000_000] {
                assert_same_run(&inst.name, &root, budget);
            }
        }
    }
}

/// Two processes that spin on register 0 until it holds 1, which nobody
/// ever writes.
fn spinning_forever() -> Machine<VmProc> {
    let mut asm = Asm::new("spin-on-0");
    let t = asm.local("t");
    let spin = asm.here();
    asm.read(Src::Imm(0), t);
    asm.jmp_if(CondOp::Ne, t, 1i64, spin);
    asm.ret(0i64);
    let prog = Arc::new(asm.assemble());
    let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
    Machine::new(cfg, vec![VmProc::new(prog.clone()), VmProc::new(prog)])
}

#[test]
fn a_rotation_of_spinners_on_nothing_ends_without_issuing_its_budget() {
    assert_same_run("spin-on-0", &spinning_forever(), 10_001);
    // Issued one element at a time, this budget takes hours.
    let mut m = spinning_forever();
    let start = std::time::Instant::now();
    assert!(!run_to_completion(&mut m, 1_000_000_000_000));
    for p in 0..2 {
        assert_eq!(m.counters().proc(p).reads, 500_000_000_000, "p{p}");
    }
    assert!(start.elapsed().as_secs() < 10, "took {:?}", start.elapsed());
}
