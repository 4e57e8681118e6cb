//! `Machine::solo_outcome`, which keeps one saved configuration and finds a
//! solo run's loop by Brent's check, held to the set-of-states definition:
//! `solo_by_revisit` below puts every configuration of the run into a hash
//! set and stops at the first one seen twice. At every state of random
//! walks over six locks under SC, TSO and PSO, with tagged and untagged
//! writes, both must give every process the same `Terminates` (steps and
//! return value), or both `Diverges`, the fast check no earlier than the
//! first revisit and no later than three times its step. The registers the
//! run reads from memory (`solo_outcome_reading`) must be the reference
//! run's.
//!
//! A cycle check that compares only the program state, not the buffer and
//! the commits the run made itself, fails here.

// A `VmProc` key reaches `Program`'s cell of lazily derived access
// summaries; `VmProc` hashes a program by its digest and compares it by
// `Arc` identity, and the cell is part of neither.
#![allow(clippy::mutable_key_type)]

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use fencevm::{Asm, CondOp, VmProc};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simlocks::{build_ordering, LockKind, ObjectKind, OrderingInstance, RegAlloc};
use wbmem::{
    Machine, MachineConfig, MemoryModel, Poised, ProcId, Process, RegId, SoloOutcome, Value,
    WriteBuffer,
};

/// One configuration of a solo run: process, buffer, sorted overlay.
type SoloState = (VmProc, WriteBuffer, Vec<(RegId, Value)>);

/// The step bound of the reference; the fast check gets three times it.
const BOUND: usize = 20_000;

/// A solo run by definition: the outcome, and the registers it read from
/// shared memory.
fn solo_by_revisit(
    m: &Machine<VmProc>,
    p: ProcId,
    max_steps: usize,
) -> (SoloOutcome, BTreeSet<RegId>) {
    let mut reads = BTreeSet::new();
    if let Some(ret) = m.return_value(p) {
        return (SoloOutcome::Terminates { steps: 0, ret }, reads);
    }
    let mut prog = m.process(p).clone();
    let mut buffer = m.buffer(p).clone();
    let mut overlay: HashMap<RegId, Value> = HashMap::new();
    let mut seen: HashSet<SoloState> = HashSet::new();
    let mut observe = |overlay: &HashMap<RegId, Value>, reg: RegId| {
        overlay.get(&reg).copied().unwrap_or_else(|| {
            reads.insert(reg);
            m.memory(reg)
        })
    };
    for steps in 0..max_steps {
        let mut key: Vec<(RegId, Value)> = overlay.iter().map(|(&r, &v)| (r, v)).collect();
        key.sort_unstable();
        if !seen.insert((prog.clone(), buffer.clone(), key)) {
            return (SoloOutcome::Diverges { steps }, reads);
        }
        let drain = |buffer: &mut WriteBuffer, overlay: &mut HashMap<RegId, Value>| {
            let reg = buffer.fence_commit_target()?;
            overlay.insert(reg, buffer.take(reg).expect("committable"));
            Some(())
        };
        match prog.poised() {
            Poised::Return(ret) => return (SoloOutcome::Terminates { steps, ret }, reads),
            Poised::Done => return (SoloOutcome::Terminates { steps, ret: 0 }, reads),
            Poised::Fence => {
                if drain(&mut buffer, &mut overlay).is_none() {
                    prog.advance(None);
                }
            }
            Poised::Cas { reg, expected, new } => {
                if drain(&mut buffer, &mut overlay).is_none() {
                    let observed = observe(&overlay, reg);
                    if observed.payload() == expected {
                        overlay.insert(reg, new);
                    }
                    prog.advance(Some(observed));
                }
            }
            Poised::Swap { reg, new } => {
                if drain(&mut buffer, &mut overlay).is_none() {
                    let observed = observe(&overlay, reg);
                    overlay.insert(reg, new);
                    prog.advance(Some(observed));
                }
            }
            Poised::Read(reg) => {
                let v = buffer.read(reg).unwrap_or_else(|| observe(&overlay, reg));
                prog.advance(Some(v));
            }
            Poised::Write(reg, value) => {
                prog.advance(None);
                if m.config().model.buffers_writes() {
                    buffer.push(reg, value);
                } else {
                    overlay.insert(reg, value);
                }
            }
        }
    }
    (SoloOutcome::Unknown, reads)
}

/// Verdicts compared, by kind.
#[derive(Default)]
struct Tally {
    terminates: usize,
    diverges: usize,
}

/// Hold `p`'s solo outcome from `m` to the definition.
fn assert_solo_by_definition(label: &str, m: &Machine<VmProc>, p: ProcId, tally: &mut Tally) {
    let (expected, expected_reads) = solo_by_revisit(m, p, BOUND);
    let mut reads = BTreeSet::new();
    let got = m.solo_outcome_reading(p, 3 * BOUND, |reg| {
        reads.insert(reg);
    });
    assert_eq!(
        m.solo_outcome(p, 3 * BOUND),
        got,
        "{label} {p}: the plain form"
    );
    match (expected, got) {
        (SoloOutcome::Terminates { .. }, _) => {
            assert_eq!(got, expected, "{label} {p}");
            tally.terminates += 1;
        }
        (SoloOutcome::Diverges { steps: first }, SoloOutcome::Diverges { steps }) => {
            assert!(
                first <= steps && steps <= 3 * first,
                "{label} {p}: first revisit at {first}, detected at {steps}"
            );
            tally.diverges += 1;
        }
        _ => panic!("{label} {p}: expected {expected:?}, got {got:?}"),
    }
    assert_eq!(
        reads, expected_reads,
        "{label} {p}: registers read from memory"
    );
}

/// Random walks of `steps` elements from `inst`'s initial configuration
/// under every model, with and without tagged writes; every process's solo
/// outcome is checked at every state.
fn walk_instance(
    inst: &OrderingInstance,
    (walks, steps): (usize, usize),
    rng: &mut SmallRng,
) -> Tally {
    let mut tally = Tally::default();
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        for tagged in [false, true] {
            let mut cfg = MachineConfig::new(model, inst.layout.clone());
            if tagged {
                cfg = cfg.with_tagged_writes();
            }
            let root = inst.machine_from(cfg);
            for walk in 0..walks {
                let mut m = root.clone();
                for k in 0..steps {
                    let label =
                        format!("{} {model} tagged={tagged} walk {walk} step {k}", inst.name);
                    for p in (0..m.n()).map(ProcId::from) {
                        assert_solo_by_definition(&label, &m, p, &mut tally);
                    }
                    let choices = m.choices();
                    if choices.is_empty() {
                        break;
                    }
                    m.step(choices[rng.gen_range(0..choices.len())]);
                }
            }
        }
    }
    tally
}

fn run(n: usize, walks_steps: (usize, usize), seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for kind in [
        LockKind::Bakery,
        LockKind::Gt { f: 2 },
        LockKind::Tournament,
        LockKind::Filter,
        LockKind::Ttas,
        LockKind::Mcs,
    ] {
        let inst = build_ordering(kind, n, ObjectKind::Counter);
        let tally = walk_instance(&inst, walks_steps, &mut rng);
        println!(
            "{}: {} terminating and {} diverging solo runs",
            inst.name, tally.terminates, tally.diverges
        );
        assert!(
            tally.terminates > 0,
            "{}: no solo run terminated",
            inst.name
        );
        assert!(tally.diverges > 0, "{}: no solo run diverged", inst.name);
    }
}

#[test]
fn solo_outcomes_match_the_set_of_states_check_on_random_walks() {
    run(4, (2, 150), 0x5010_0001);
}

/// The long variant: n = 8 and more, longer walks. Run it in release:
/// `cargo test --release -p simlocks --test solo_by_walking -- --ignored`.
#[test]
#[ignore = "long variant, run in release"]
fn solo_outcomes_match_the_set_of_states_check_on_long_random_walks() {
    run(8, (6, 400), 0x5010_0002);
}

/// A one-process instance running `body`, with `regs` registers.
fn solo_instance(name: &str, regs: usize, body: impl FnOnce(&mut Asm)) -> OrderingInstance {
    let mut alloc = RegAlloc::new();
    for _ in 0..regs {
        alloc.alloc(None);
    }
    let mut asm = Asm::new(name);
    body(&mut asm);
    OrderingInstance {
        name: name.into(),
        n: 1,
        programs: vec![Arc::new(asm.assemble())],
        layout: alloc.into_layout(),
        fence_sites: 0,
    }
}

/// Check `inst`'s one process under every model after `init` stores, and
/// return the outcomes.
fn hand_case(inst: &OrderingInstance, init: &[(u32, u64)]) -> Vec<SoloOutcome> {
    let mut tally = Tally::default();
    [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso]
        .into_iter()
        .map(|model| {
            let mut m = inst.machine_from(MachineConfig::new(model, inst.layout.clone()));
            for &(reg, value) in init {
                m.init_reg(RegId(reg), Value::Int(value));
            }
            let label = format!("{} {model}", inst.name);
            assert_solo_by_definition(&label, &m, ProcId(0), &mut tally);
            m.solo_outcome(ProcId(0), 3 * BOUND)
        })
        .collect()
}

#[test]
fn a_two_read_alternating_spinner_diverges() {
    // The Peterson node's wait: spin while the rival's flag is up and the
    // turn is the rival's, reading the two registers by turns.
    let inst = solo_instance("peterson-wait", 2, |asm| {
        let (flag, turn) = (asm.local("flag"), asm.local("turn"));
        let spin = asm.here();
        let done = asm.label();
        asm.read(0i64, flag);
        asm.jmp_if(CondOp::Eq, flag, 0i64, done);
        asm.read(1i64, turn);
        asm.jmp_if(CondOp::Eq, turn, 1i64, spin);
        asm.bind(done);
        asm.ret(0i64);
    });
    for out in hand_case(&inst, &[(0, 1), (1, 1)]) {
        assert!(matches!(out, SoloOutcome::Diverges { .. }), "{out:?}");
    }
    for out in hand_case(&inst, &[(0, 1), (1, 0)]) {
        assert_eq!(out, SoloOutcome::Terminates { steps: 2, ret: 0 });
    }
}

#[test]
fn a_loop_entered_after_a_long_prefix_is_caught_within_three_times_its_revisit() {
    // 100 writes to R0, then a spin on R1 that also counts modulo `period`:
    // the cycle is `period` states long and starts 100 steps in, so the
    // saved state is refreshed many times before it lies on the cycle.
    for period in [1i64, 37, 300] {
        let inst = solo_instance(&format!("prefix-spin/{period}"), 2, |asm| {
            let (i, j, t) = (asm.local("i"), asm.local("j"), asm.local("t"));
            let prefix = asm.here();
            asm.write(0i64, i);
            asm.add(i, i, 1i64);
            asm.jmp_if(CondOp::Lt, i, 100i64, prefix);
            let spin = asm.here();
            asm.read(1i64, t);
            asm.add(j, j, 1i64);
            asm.rem(j, j, period);
            asm.jmp_if(CondOp::Eq, t, 0i64, spin);
            asm.ret(0i64);
        });
        for out in hand_case(&inst, &[]) {
            let SoloOutcome::Diverges { steps } = out else {
                panic!("{}: {out:?}", inst.name);
            };
            assert!(steps >= 100 + period as usize, "{}: {steps}", inst.name);
        }
        for out in hand_case(&inst, &[(1, 1)]) {
            assert_eq!(out, SoloOutcome::Terminates { steps: 101, ret: 0 });
        }
    }
}

#[test]
fn a_loop_whose_program_state_repeats_over_new_commits_terminates() {
    // Seven reads bring the run to the loop head at step 7, where the check
    // saves it. Back at the head the locals are as before, but the run's
    // own commit has raised R0 by one; the fourth pass reads 3 and returns.
    let inst = solo_instance("count-to-three", 2, |asm| {
        let (x, y) = (asm.local("x"), asm.local("y"));
        for _ in 0..7 {
            asm.read(1i64, y);
        }
        let head = asm.here();
        let done = asm.label();
        asm.read(0i64, x);
        asm.jmp_if(CondOp::Eq, x, 3i64, done);
        asm.add(x, x, 1i64);
        asm.write(0i64, x);
        asm.fence();
        asm.mov(x, 0i64);
        asm.jmp(head);
        asm.bind(done);
        asm.ret(7i64);
    });
    for out in hand_case(&inst, &[]) {
        assert!(
            matches!(out, SoloOutcome::Terminates { ret: 7, .. }),
            "{out:?}"
        );
    }
}
