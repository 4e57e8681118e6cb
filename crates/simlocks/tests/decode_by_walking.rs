//! The operation a `VmProc` keeps decoded for its pc, held to the program
//! text. On random walks over the E12 and E12b cells and a crash-hardened
//! Bakery that crashes — through `step`, through `step_recorded` and
//! `undo`, and through `clone_from` between processes of different
//! programs — every process's `poised()` must equal the instruction at its
//! pc decoded anew under its locals. A refresh that one of those
//! paths skips leaves the previous instruction's operation behind, and
//! fails here.

use fencevm::{Instr, Src, VmProc};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::{
    CrashSemantics, Machine, MachineConfig, MemoryModel, Poised, ProcId, Process, RegId, Value,
};

/// The instruction at `p`'s pc, decoded by the definition.
fn decode(p: &VmProc) -> Poised {
    let eval = |src: Src| match src {
        Src::Imm(x) => x,
        Src::Loc(l) => p.local(l),
    };
    let reg = |src| RegId(u32::try_from(eval(src)).expect("a register id"));
    let int = |src| u64::try_from(eval(src)).expect("a non-negative operand");
    match p.program().instrs()[p.pc()] {
        Instr::Read { addr, .. } => Poised::Read(reg(addr)),
        Instr::Write { addr, val } => Poised::Write(reg(addr), Value::Int(int(val))),
        Instr::Fence => Poised::Fence,
        Instr::Cas {
            addr,
            expected,
            new,
            ..
        } => Poised::Cas {
            reg: reg(addr),
            expected: int(expected),
            new: Value::Int(int(new)),
        },
        Instr::Swap { addr, new, .. } => Poised::Swap {
            reg: reg(addr),
            new: Value::Int(int(new)),
        },
        Instr::Return { val } => Poised::Return(int(val)),
        ref other => panic!("pc {} rests on internal instruction {other:?}", p.pc()),
    }
}

fn assert_current(label: &str, after: &str, p: &VmProc) {
    assert_eq!(
        p.poised(),
        decode(p),
        "{label}: {} at pc {} after {after}",
        p.program().name(),
        p.pc()
    );
}

fn assert_all_current(label: &str, after: &str, m: &Machine<VmProc>) {
    for q in 0..m.n() {
        assert_current(label, after, m.process(ProcId::from(q)));
    }
}

/// What a walk went through.
#[derive(Default)]
struct Seen {
    steps: usize,
    undos: usize,
    crashes: usize,
    foreign_clones: usize,
}

/// Take `walks` random walks of up to `steps` from `root`, odd ones through
/// `step_recorded` with random runs of undos, checking every process after
/// every step and undo. After each step one process is also copied with
/// `clone_from` into a slot of `pool`, which holds processes of every
/// program walked so far.
fn walk(
    label: &str,
    root: &Machine<VmProc>,
    rng: &mut SmallRng,
    pool: &mut Vec<VmProc>,
    (walks, steps): (usize, usize),
    seen: &mut Seen,
) {
    pool.extend((0..root.n()).map(|q| root.process(ProcId::from(q)).clone()));
    for w in 0..walks {
        let mut m = root.clone();
        let recorded = w % 2 == 1;
        let mut tokens = Vec::new();
        for _ in 0..steps {
            let choices = m.choices();
            if choices.is_empty() {
                break;
            }
            let e = choices[rng.gen_range(0..choices.len())];
            if recorded {
                tokens.push(m.step_recorded(e).1);
            } else {
                m.step(e);
            }
            seen.steps += 1;
            seen.crashes += usize::from(e.crash);
            assert_all_current(label, &format!("{e:?}"), &m);
            if recorded && rng.gen_range(0..4) == 0 {
                for _ in 0..rng.gen_range(1..tokens.len() + 1) {
                    m.undo(tokens.pop().expect("counted"));
                    seen.undos += 1;
                    assert_all_current(label, "an undo", &m);
                }
            }
            let from = m.process(ProcId::from(rng.gen_range(0..m.n())));
            let slot = rng.gen_range(0..pool.len());
            let slot = &mut pool[slot];
            let foreign = !std::sync::Arc::ptr_eq(slot.program(), from.program());
            seen.foreign_clones += usize::from(foreign);
            slot.clone_from(from);
            assert_eq!(slot, from);
            assert_current(label, "clone_from", slot);
        }
    }
}

#[test]
fn every_poised_operation_on_a_walk_is_the_decoded_instruction() {
    let mut rng = SmallRng::seed_from_u64(0xdec0_de00);
    let mut pool = Vec::new();
    let mut seen = Seen::default();
    // The E12 (n = 2) and E12b (n = 3) cells.
    let cells = [
        (LockKind::Peterson, 2),
        (LockKind::Ttas, 2),
        (LockKind::Bakery, 2),
        (LockKind::Filter, 2),
        (LockKind::Ttas, 3),
        (LockKind::Bakery, 3),
        (LockKind::Filter, 3),
        (LockKind::Gt { f: 2 }, 3),
    ];
    for (kind, n) in cells {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let label = format!("{} {model}", inst.name);
            let m = inst.machine(model);
            walk(&label, &m, &mut rng, &mut pool, (8, 300), &mut seen);
        }
    }
    let rbakery = build_mutex(LockKind::RecoverableBakery, 2, FenceMask::ALL);
    for semantics in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
        let cfg =
            MachineConfig::new(MemoryModel::Pso, rbakery.layout.clone()).with_crashes(semantics, 2);
        let label = format!("{} {semantics:?}", rbakery.name);
        let m = rbakery.machine_from(cfg);
        walk(&label, &m, &mut rng, &mut pool, (20, 300), &mut seen);
    }
    assert!(seen.steps > 20_000, "{} steps", seen.steps);
    assert!(seen.undos > 10_000, "{} undos", seen.undos);
    assert!(seen.crashes > 500, "{} crashes", seen.crashes);
    assert!(
        seen.foreign_clones > 10_000,
        "{} clones across programs",
        seen.foreign_clones
    );
}
