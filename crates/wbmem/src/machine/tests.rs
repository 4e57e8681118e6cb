//! Unit tests of the machine: the step rule, accounting, undo, crashes,
//! footprints.

use super::*;
use crate::event::EventKind;
use crate::footprint::FootprintKind;
use crate::sched::SchedElem;

/// A scripted process for tests: executes a fixed list of operations.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(super) struct Script {
    ops: Vec<Poised>,
    pc: usize,
    last_read: Option<Value>,
}

impl Script {
    pub(super) fn new(ops: Vec<Poised>) -> Self {
        Script {
            ops,
            pc: 0,
            last_read: None,
        }
    }
}

impl Process for Script {
    fn poised(&self) -> Poised {
        self.ops.get(self.pc).copied().unwrap_or(Poised::Done)
    }
    fn advance(&mut self, read_value: Option<Value>) {
        if read_value.is_some() {
            self.last_read = read_value;
        }
        self.pc += 1;
    }
    fn recoverable(&self) -> bool {
        true
    }
    fn crash_recover(&mut self) {
        self.pc = 0;
        self.last_read = None;
    }
}

pub(super) fn r(i: u32) -> RegId {
    RegId(i)
}
pub(super) fn p(i: u32) -> ProcId {
    ProcId(i)
}

pub(super) fn pso_machine(procs: Vec<Script>) -> Machine<Script> {
    Machine::new(
        MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_trace(),
        procs,
    )
}

#[test]
fn write_is_buffered_until_committed_pso() {
    let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0)));
    assert_eq!(m.memory(r(0)), Value::Bot, "write must not be visible yet");
    assert!(m.buffer(p(0)).contains(r(0)));
    m.step(SchedElem::commit(p(0), r(0)));
    assert_eq!(m.memory(r(0)), Value::Int(1));
    assert!(m.buffer_is_empty(p(0)));
}

#[test]
fn fence_blocks_until_buffer_empty() {
    let w = Script::new(vec![
        Poised::Write(r(3), Value::Int(1)),
        Poised::Write(r(1), Value::Int(2)),
        Poised::Fence,
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    // Fence with two buffered writes: first (p,⊥) commits smallest reg.
    let out = m.step(SchedElem::op(p(0)));
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Commit { reg, .. }) if *reg == r(1)
    ));
    // Second commits the remaining write; third executes the fence.
    m.step(SchedElem::op(p(0)));
    let out = m.step(SchedElem::op(p(0)));
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Fence)
    ));
    assert_eq!(m.counters().proc(0).fences, 1);
    m.step(SchedElem::op(p(0)));
    assert!(m.all_done());
}

#[test]
fn reads_are_served_from_own_buffer() {
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(9)),
        Poised::Read(r(0)),
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0)));
    let out = m.step(SchedElem::op(p(0)));
    match out.event().map(|e| &e.kind) {
        Some(EventKind::Read {
            value,
            from_memory,
            remote,
            ..
        }) => {
            assert_eq!(*value, Value::Int(9));
            assert!(!from_memory);
            assert!(!remote, "buffer reads hit the cache");
        }
        other => panic!("expected read event, got {other:?}"),
    }
}

#[test]
fn pso_allows_write_reordering_tso_does_not() {
    let writer = || {
        Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(1), Value::Int(2)),
            Poised::Return(0),
        ])
    };
    // PSO: the second write can commit first.
    let mut m = pso_machine(vec![writer()]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    let out = m.step(SchedElem::commit(p(0), r(1)));
    assert!(matches!(out, StepOutcome::Stepped(_)));
    assert_eq!(m.memory(r(1)), Value::Int(2));
    assert_eq!(m.memory(r(0)), Value::Bot, "older write still pending");

    // TSO: naming the younger write falls through (no commit possible,
    // and the poised op — return — runs instead).
    let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned());
    let mut m = Machine::new(cfg, vec![writer()]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    let out = m.step(SchedElem::commit(p(0), r(1)));
    assert!(
        matches!(out.event().map(|e| &e.kind), Some(EventKind::Return { .. })),
        "TSO must not commit the younger write; the element falls through to return"
    );
    assert_eq!(m.memory(r(1)), Value::Bot);
}

#[test]
fn sc_commits_writes_immediately() {
    let w = Script::new(vec![Poised::Write(r(0), Value::Int(5)), Poised::Return(0)]);
    let cfg = MachineConfig::new(MemoryModel::Sc, MemoryLayout::unowned()).with_trace();
    let mut m = Machine::new(cfg, vec![w]);
    let out = m.step(SchedElem::op(p(0)));
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Commit { .. })
    ));
    assert_eq!(m.memory(r(0)), Value::Int(5));
    // The trace records both the write and the commit.
    assert_eq!(m.trace().len(), 2);
}

#[test]
fn rmr_accounting_first_remote_then_cached() {
    // p1 reads a register twice; first read is remote, second is a
    // cache hit (same value).
    let reader = Script::new(vec![
        Poised::Read(r(0)),
        Poised::Read(r(0)),
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![reader]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    let c = m.counters().proc(0);
    assert_eq!(c.reads, 2);
    assert_eq!(c.remote_reads, 1);
    assert_eq!(c.rmrs, 1);
}

#[test]
fn rmr_accounting_invalidation_by_other_writer() {
    // p0 reads R twice, p1 commits a new value in between: both of p0's
    // reads are remote.
    let reader = Script::new(vec![
        Poised::Read(r(0)),
        Poised::Read(r(0)),
        Poised::Return(0),
    ]);
    let writer = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let mut m = pso_machine(vec![reader, writer]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(1)));
    m.step(SchedElem::commit(p(1), r(0)));
    m.step(SchedElem::op(p(0)));
    assert_eq!(m.counters().proc(0).remote_reads, 2);
}

#[test]
fn dsm_segment_reads_are_always_local() {
    let mut layout = MemoryLayout::unowned();
    layout.assign(r(0), p(0));
    let reader = Script::new(vec![Poised::Read(r(0)), Poised::Return(0)]);
    let cfg = MachineConfig::new(MemoryModel::Pso, layout);
    let mut m = Machine::new(cfg, vec![reader]);
    m.step(SchedElem::op(p(0)));
    assert_eq!(m.counters().proc(0).rmrs, 0);
}

#[test]
fn commit_ownership_makes_repeat_commits_local() {
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Write(r(0), Value::Int(2)),
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::commit(p(0), r(0))); // first commit: remote
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::commit(p(0), r(0))); // second: local (owned)
    let c = m.counters().proc(0);
    assert_eq!(c.commits, 2);
    assert_eq!(c.remote_commits, 1);
}

#[test]
fn return_records_value_and_finalizes() {
    let w = Script::new(vec![Poised::Return(42)]);
    let mut m = pso_machine(vec![w]);
    assert_eq!(m.nb_final(), 0);
    m.step(SchedElem::op(p(0)));
    assert_eq!(m.return_value(p(0)), Some(42));
    assert_eq!(m.nb_final(), 1);
    assert!(m.all_done());
    assert_eq!(m.poised(p(0)), Poised::Done);
    // Further elements are no-ops.
    assert_eq!(m.step(SchedElem::op(p(0))), StepOutcome::NoOp);
}

#[test]
fn tagging_makes_written_values_unique() {
    let w = |reg| Script::new(vec![Poised::Write(reg, Value::Int(1)), Poised::Return(0)]);
    let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_tagged_writes();
    let mut m = Machine::new(cfg, vec![w(r(0)), w(r(1))]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(1)));
    m.step(SchedElem::commit(p(0), r(0)));
    m.step(SchedElem::commit(p(1), r(1)));
    let a = m.memory(r(0));
    let b = m.memory(r(1));
    assert_ne!(a, b);
    assert_eq!(a.payload(), b.payload());
}

#[test]
fn solo_outcome_detects_termination_and_divergence() {
    // Terminating: write, fence, return.
    let fin = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Fence,
        Poised::Return(7),
    ]);
    // Diverging: spin reading r(9) forever (Script has no loops, so
    // emulate with a long repeat — divergence needs a real looping
    // process; use a custom one).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Spinner;
    impl Process for Spinner {
        fn poised(&self) -> Poised {
            Poised::Read(RegId(9))
        }
        fn advance(&mut self, _v: Option<Value>) {}
    }
    let m = pso_machine(vec![fin]);
    assert!(matches!(
        m.solo_outcome(p(0), 1000),
        SoloOutcome::Terminates { ret: 7, .. }
    ));

    let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
    let m = Machine::new(cfg, vec![Spinner]);
    assert!(matches!(
        m.solo_outcome(p(0), 1000),
        SoloOutcome::Diverges { .. }
    ));
}

#[test]
fn solo_outcome_does_not_mutate() {
    let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let m = pso_machine(vec![w]);
    let key_before = m.state_key();
    let _ = m.solo_outcome(p(0), 100);
    assert_eq!(m.state_key(), key_before);
}

#[test]
fn choices_enumerate_commits_and_ops() {
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Write(r(1), Value::Int(2)),
        Poised::Fence,
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    // Fence-blocked with two buffered writes: exactly the two commits.
    let cs = m.choices();
    assert_eq!(
        cs,
        vec![SchedElem::commit(p(0), r(0)), SchedElem::commit(p(0), r(1))]
    );
}

#[test]
fn choices_empty_iff_all_done() {
    let w = Script::new(vec![Poised::Return(0)]);
    let mut m = pso_machine(vec![w]);
    assert!(!m.choices().is_empty());
    m.step(SchedElem::op(p(0)));
    assert!(m.choices().is_empty());
    assert!(m.all_done());
}

#[test]
fn state_key_ignores_counters() {
    let reader = Script::new(vec![
        Poised::Read(r(0)),
        Poised::Read(r(0)),
        Poised::Return(0),
    ]);
    let mut a = pso_machine(vec![reader.clone()]);
    let mut b = pso_machine(vec![reader]);
    a.step(SchedElem::op(p(0)));
    a.step(SchedElem::op(p(0)));
    b.step(SchedElem::op(p(0)));
    b.step(SchedElem::op(p(0)));
    assert_eq!(a.state_key(), b.state_key());
}

#[test]
fn init_reg_sets_memory_without_accounting() {
    let reader = Script::new(vec![Poised::Read(r(5)), Poised::Return(0)]);
    let mut m = pso_machine(vec![reader]);
    m.init_reg(r(5), Value::Int(33));
    assert_eq!(m.memory(r(5)), Value::Int(33));
    assert_eq!(m.counters().total().commits, 0);
    m.step(SchedElem::op(p(0)));
    // First read of an init value is still remote (never observed).
    assert_eq!(m.counters().proc(0).remote_reads, 1);
}

#[test]
fn run_schedule_counts_effective_steps() {
    let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let mut m = pso_machine(vec![w]);
    let sched = vec![
        SchedElem::op(p(0)),
        SchedElem::op(p(0)),
        SchedElem::op(p(0)),
    ];
    let steps = m.run_schedule(&sched);
    assert_eq!(steps, 2, "third element is a no-op after return");
}

#[test]
fn tso_reads_see_youngest_own_buffered_write() {
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Write(r(0), Value::Int(2)),
        Poised::Read(r(0)),
        Poised::Return(0),
    ]);
    let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned());
    let mut m = Machine::new(cfg, vec![w]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    let out = m.step(SchedElem::op(p(0)));
    match out.event().map(|e| &e.kind) {
        Some(EventKind::Read {
            value, from_memory, ..
        }) => {
            assert_eq!(*value, Value::Int(2), "youngest write wins");
            assert!(!from_memory);
        }
        other => panic!("expected read, got {other:?}"),
    }
    // Both queued entries still commit, in order.
    m.step(SchedElem::commit(p(0), r(0)));
    assert_eq!(m.memory(r(0)), Value::Int(1));
    m.step(SchedElem::commit(p(0), r(0)));
    assert_eq!(m.memory(r(0)), Value::Int(2));
}

#[test]
fn tso_fence_drains_in_program_order() {
    let w = Script::new(vec![
        Poised::Write(r(9), Value::Int(1)),
        Poised::Write(r(2), Value::Int(2)),
        Poised::Fence,
        Poised::Return(0),
    ]);
    let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned()).with_trace();
    let mut m = Machine::new(cfg, vec![w]);
    m.run_solo(p(0), 100);
    let commits: Vec<RegId> = m
        .trace()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Commit { reg, .. } => Some(reg),
            _ => None,
        })
        .collect();
    assert_eq!(
        commits,
        vec![r(9), r(2)],
        "FIFO drain: program order, not register order"
    );
}

#[test]
fn swap_observes_then_stores_unconditionally() {
    let w = Script::new(vec![
        Poised::Swap {
            reg: r(0),
            new: Value::Int(5),
        },
        Poised::Swap {
            reg: r(0),
            new: Value::Int(6),
        },
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    let out = m.step(SchedElem::op(p(0)));
    match out.event().map(|e| &e.kind) {
        Some(EventKind::Swap {
            observed,
            stored,
            remote,
            ..
        }) => {
            assert!(observed.is_bot());
            assert_eq!(stored.payload(), 5);
            assert!(remote, "first swap of an unowned register is remote");
        }
        other => panic!("expected swap, got {other:?}"),
    }
    let out = m.step(SchedElem::op(p(0)));
    match out.event().map(|e| &e.kind) {
        Some(EventKind::Swap {
            observed, remote, ..
        }) => {
            assert_eq!(observed.payload(), 5);
            assert!(!remote, "p owns the register after its own swap");
        }
        other => panic!("expected swap, got {other:?}"),
    }
    assert_eq!(m.memory(r(0)).payload(), 6);
    assert_eq!(m.counters().proc(0).swap_ops, 2);
    assert_eq!(m.counters().proc(0).remote_swaps, 1);
}

#[test]
fn swap_drains_the_buffer_first() {
    let w = Script::new(vec![
        Poised::Write(r(3), Value::Int(7)),
        Poised::Swap {
            reg: r(0),
            new: Value::Int(1),
        },
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0)));
    let out = m.step(SchedElem::op(p(0)));
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Commit { .. })
    ));
    let out = m.step(SchedElem::op(p(0)));
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Swap { .. })
    ));
}

#[test]
fn cas_succeeds_and_fails_by_payload() {
    let w = Script::new(vec![
        Poised::Cas {
            reg: r(0),
            expected: 0,
            new: Value::Int(5),
        }, // ⊥ payload 0 → succeeds
        Poised::Cas {
            reg: r(0),
            expected: 0,
            new: Value::Int(9),
        }, // now 5 → fails
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    let out = m.step(SchedElem::op(p(0)));
    match out.event().map(|e| &e.kind) {
        Some(EventKind::Cas { stored, remote, .. }) => {
            assert_eq!(*stored, Some(Value::Int(5)));
            assert!(remote, "first CAS of an unowned register is remote");
        }
        other => panic!("expected cas event, got {other:?}"),
    }
    let out = m.step(SchedElem::op(p(0)));
    match out.event().map(|e| &e.kind) {
        Some(EventKind::Cas {
            stored,
            observed,
            remote,
            ..
        }) => {
            assert_eq!(*stored, None, "payload 5 != expected 0");
            assert_eq!(*observed, Value::Int(5));
            assert!(!remote, "p owns the register after its own CAS commit");
        }
        other => panic!("expected cas event, got {other:?}"),
    }
    assert_eq!(m.memory(r(0)), Value::Int(5));
    assert_eq!(m.counters().proc(0).cas_ops, 2);
    assert_eq!(m.counters().proc(0).remote_cas, 1);
}

#[test]
fn cas_drains_the_buffer_first() {
    let w = Script::new(vec![
        Poised::Write(r(3), Value::Int(7)),
        Poised::Cas {
            reg: r(0),
            expected: 0,
            new: Value::Int(1),
        },
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0))); // buffered write
    let out = m.step(SchedElem::op(p(0))); // cas poised, buffer non-empty → commit
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Commit { .. })
    ));
    assert_eq!(m.memory(r(3)), Value::Int(7));
    let out = m.step(SchedElem::op(p(0))); // now the CAS itself
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Cas { .. })
    ));
}

#[test]
fn cas_atomicity_under_contention() {
    // Two processes race a CAS on the same register: exactly one wins.
    let racer = || {
        Script::new(vec![
            Poised::Cas {
                reg: r(0),
                expected: 0,
                new: Value::Int(1),
            },
            Poised::Return(0),
        ])
    };
    let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_tagged_writes();
    let mut m = Machine::new(cfg, vec![racer(), racer()]);
    let e0 = m.step(SchedElem::op(p(0)));
    let e1 = m.step(SchedElem::op(p(1)));
    let wins = [e0, e1]
        .iter()
        .filter(|o| {
            matches!(
                o.event().map(|e| &e.kind),
                Some(EventKind::Cas {
                    stored: Some(_),
                    ..
                })
            )
        })
        .count();
    assert_eq!(wins, 1, "exactly one CAS succeeds");
}

#[test]
fn solo_outcome_handles_cas() {
    let w = Script::new(vec![
        Poised::Write(r(1), Value::Int(2)),
        Poised::Cas {
            reg: r(0),
            expected: 0,
            new: Value::Int(1),
        },
        Poised::Return(4),
    ]);
    let m = pso_machine(vec![w]);
    assert!(matches!(
        m.solo_outcome(p(0), 100),
        SoloOutcome::Terminates { ret: 4, .. }
    ));
}

/// Everything a correct undo must restore — not just the behavioural
/// state, but accounting, locality, trace, and nonces.
pub(super) type FullSnapshot<P> = (
    StateKey<P>,
    Counters,
    Option<LocalityTracker>,
    Vec<Event>,
    u64,
);

/// Capture a [`FullSnapshot`].
pub(super) fn full_snapshot<P: Process>(m: &Machine<P>) -> FullSnapshot<P> {
    (
        m.state_key(),
        m.counters().clone(),
        m.locality().cloned(),
        m.trace().events().to_vec(),
        m.next_nonce,
    )
}

/// Drive a machine through every enabled choice depth-first, undoing on
/// the way back, asserting the machine is restored exactly at every
/// backtrack. Covers commits, fence drains, reads, writes, and returns
/// for whichever scripts/model are supplied.
pub(super) fn assert_undo_round_trips(m: &mut Machine<Script>, depth: usize) {
    if depth == 0 {
        return;
    }
    for elem in m.choices() {
        let before = full_snapshot(m);
        let (out, token) = m.step_recorded(elem);
        if matches!(out, StepOutcome::Stepped(_)) {
            assert_undo_round_trips(m, depth - 1);
        }
        m.undo(token);
        assert_eq!(
            full_snapshot(m),
            before,
            "undo of {elem:?} must restore the machine"
        );
    }
}

#[test]
fn undo_restores_machine_exactly_across_models() {
    let scripts = || {
        vec![
            Script::new(vec![
                Poised::Write(r(0), Value::Int(1)),
                Poised::Write(r(1), Value::Int(2)),
                Poised::Fence,
                Poised::Read(r(2)),
                Poised::Return(0),
            ]),
            Script::new(vec![
                Poised::Read(r(0)),
                Poised::Write(r(2), Value::Int(3)),
                Poised::Return(1),
            ]),
        ]
    };
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        let cfg = MachineConfig::new(model, MemoryLayout::unowned())
            .with_tagged_writes()
            .with_trace();
        let mut m = Machine::new(cfg, scripts());
        assert_undo_round_trips(&mut m, 6);
    }
}

#[test]
fn undo_restores_cas_and_swap_steps() {
    let scripts = vec![
        Script::new(vec![
            Poised::Cas {
                reg: r(0),
                expected: 0,
                new: Value::Int(5),
            },
            Poised::Swap {
                reg: r(1),
                new: Value::Int(6),
            },
            Poised::Return(0),
        ]),
        Script::new(vec![
            Poised::Cas {
                reg: r(0),
                expected: 0,
                new: Value::Int(7),
            },
            Poised::Return(1),
        ]),
    ];
    let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_trace();
    let mut m = Machine::new(cfg, scripts);
    assert_undo_round_trips(&mut m, 5);
}

#[test]
fn undo_of_noop_is_harmless() {
    let w = Script::new(vec![Poised::Return(0)]);
    let mut m = pso_machine(vec![w]);
    m.step(SchedElem::op(p(0)));
    let before = full_snapshot(&m);
    let (out, token) = m.step_recorded(SchedElem::op(p(0)));
    assert_eq!(out, StepOutcome::NoOp);
    m.undo(token);
    assert_eq!(full_snapshot(&m), before);
}

#[test]
fn choices_into_reuses_buffer_and_matches_choices() {
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Write(r(1), Value::Int(2)),
        Poised::Fence,
        Poised::Return(0),
    ]);
    let mut m = pso_machine(vec![w]);
    let mut buf = Vec::new();
    loop {
        m.choices_into(&mut buf);
        assert_eq!(buf, m.choices());
        match buf.first().copied() {
            Some(elem) => {
                m.step(elem);
            }
            None => break,
        }
    }
    assert!(m.all_done());
}

#[test]
fn replay_path_rematerializes_and_validates() {
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Write(r(1), Value::Int(2)),
        Poised::Fence,
        Poised::Return(0),
    ]);
    let base = pso_machine(vec![w]);
    // Drive one copy forward, recording the schedule taken.
    let mut walked = base.clone();
    let mut path = Vec::new();
    let mut buf = Vec::new();
    loop {
        walked.choices_into(&mut buf);
        match buf.last().copied() {
            Some(e) => {
                walked.step(e);
                path.push(e);
            }
            None => break,
        }
    }
    assert!(!path.is_empty());
    // Replaying the schedule from a fresh copy reaches the same state.
    let mut replayed = base.clone();
    assert!(replayed.replay_path(&path, &mut buf));
    assert_eq!(replayed.state_key(), walked.state_key());
    // An element that is not a current choice is rejected.
    let mut fresh = base.clone();
    assert!(!fresh.replay_path(&[SchedElem::commit(ProcId::from(0usize), r(5))], &mut buf));
}

fn crash_machine(
    model: MemoryModel,
    semantics: CrashSemantics,
    max_crashes: u32,
    procs: Vec<Script>,
) -> Machine<Script> {
    let cfg = MachineConfig::new(model, MemoryLayout::unowned())
        .with_trace()
        .with_crashes(semantics, max_crashes);
    Machine::new(cfg, procs)
}

#[test]
fn crash_discards_buffered_writes_and_restarts() {
    let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let mut m = crash_machine(MemoryModel::Pso, CrashSemantics::DiscardBuffer, 1, vec![w]);
    m.step(SchedElem::op(p(0)));
    assert!(m.buffer(p(0)).contains(r(0)));
    let out = m.step(SchedElem::crash(p(0)));
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Crash { lost: 1 })
    ));
    assert!(m.buffer_is_empty(p(0)), "the buffered write is lost");
    assert_eq!(m.memory(r(0)), Value::Bot, "it never reached memory");
    assert_eq!(m.crashes(p(0)), 1);
    assert_eq!(m.counters().proc(0).crashes, 1);
    // The program restarted: it is poised at the write again.
    assert!(matches!(m.poised(p(0)), Poised::Write(_, _)));
}

#[test]
fn crash_with_drain_semantics_flushes_the_buffer() {
    let w = Script::new(vec![
        Poised::Write(r(5), Value::Int(1)),
        Poised::Write(r(2), Value::Int(2)),
        Poised::Return(0),
    ]);
    let mut m = crash_machine(MemoryModel::Pso, CrashSemantics::DrainBuffer, 1, vec![w]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    let out = m.step(SchedElem::crash(p(0)));
    assert!(matches!(
        out.event().map(|e| &e.kind),
        Some(EventKind::Crash { lost: 0 })
    ));
    assert!(m.buffer_is_empty(p(0)));
    assert_eq!(m.memory(r(5)), Value::Int(1));
    assert_eq!(m.memory(r(2)), Value::Int(2));
    assert_eq!(
        m.counters().proc(0).commits,
        2,
        "drained commits are charged"
    );
    // Trace: write, write, commit (smallest reg first), commit, crash.
    let kinds: Vec<&EventKind> = m.trace().events().iter().map(|e| &e.kind).collect();
    assert!(matches!(kinds[2], EventKind::Commit { reg, .. } if *reg == r(2)));
    assert!(matches!(kinds[3], EventKind::Commit { reg, .. } if *reg == r(5)));
    assert!(matches!(kinds[4], EventKind::Crash { .. }));
}

#[test]
fn crash_respects_the_budget_and_recoverability() {
    // No budget: the crash element is a no-op.
    let w = || Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let mut m = pso_machine(vec![w()]);
    assert_eq!(m.step(SchedElem::crash(p(0))), StepOutcome::NoOp);

    // Budget of 1: the second crash is a no-op.
    let mut m = crash_machine(
        MemoryModel::Pso,
        CrashSemantics::DiscardBuffer,
        1,
        vec![w()],
    );
    assert!(matches!(
        m.step(SchedElem::crash(p(0))),
        StepOutcome::Stepped(_)
    ));
    assert_eq!(m.step(SchedElem::crash(p(0))), StepOutcome::NoOp);

    // Non-recoverable process: never crashes.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Rigid;
    impl Process for Rigid {
        fn poised(&self) -> Poised {
            Poised::Return(0)
        }
        fn advance(&mut self, _v: Option<Value>) {}
    }
    let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned())
        .with_crashes(CrashSemantics::DiscardBuffer, 2);
    let mut m = Machine::new(cfg, vec![Rigid]);
    assert_eq!(m.step(SchedElem::crash(p(0))), StepOutcome::NoOp);
    assert!(m.choices().iter().all(|e| !e.crash));
}

#[test]
fn choices_offer_crashes_only_under_a_budget() {
    let w = || Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let m = pso_machine(vec![w()]);
    assert!(m.choices().iter().all(|e| !e.crash));

    let mut m = crash_machine(
        MemoryModel::Pso,
        CrashSemantics::DiscardBuffer,
        1,
        vec![w()],
    );
    assert_eq!(m.choices().iter().filter(|e| e.crash).count(), 1);
    // A fence-blocked process can still crash.
    let fenced = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Fence,
        Poised::Return(0),
    ]);
    let mut mf = crash_machine(
        MemoryModel::Pso,
        CrashSemantics::DiscardBuffer,
        1,
        vec![fenced],
    );
    mf.step(SchedElem::op(p(0)));
    let cs = mf.choices();
    assert!(cs.iter().any(|e| e.crash));
    assert!(cs.iter().any(|e| e.reg.is_some()));
    // Once the budget is spent, the crash choice disappears.
    m.step(SchedElem::crash(p(0)));
    assert!(m.choices().iter().all(|e| !e.crash));
}

#[test]
fn crash_state_is_behaviourally_relevant() {
    let w = || Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
    let mut a = crash_machine(
        MemoryModel::Pso,
        CrashSemantics::DiscardBuffer,
        1,
        vec![w()],
    );
    let b = crash_machine(
        MemoryModel::Pso,
        CrashSemantics::DiscardBuffer,
        1,
        vec![w()],
    );
    a.step(SchedElem::crash(p(0)));
    // Post-crash, `a` is back at its initial program state but has spent
    // its budget — the state keys must differ.
    assert_ne!(a.state_key(), b.state_key());
    use std::hash::Hasher as _;
    let fp = |m: &Machine<Script>| {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        m.hash_state(&mut h);
        h.finish()
    };
    assert_ne!(fp(&a), fp(&b));
}

#[test]
fn undo_restores_crash_steps_exactly() {
    let scripts = || {
        vec![
            Script::new(vec![
                Poised::Write(r(0), Value::Int(1)),
                Poised::Write(r(1), Value::Int(2)),
                Poised::Fence,
                Poised::Return(0),
            ]),
            Script::new(vec![
                Poised::Read(r(0)),
                Poised::Write(r(0), Value::Int(3)),
                Poised::Return(1),
            ]),
        ]
    };
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        for semantics in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
            let cfg = MachineConfig::new(model, MemoryLayout::unowned())
                .with_tagged_writes()
                .with_trace()
                .with_crashes(semantics, 1);
            let mut m = Machine::new(cfg, scripts());
            assert_undo_round_trips(&mut m, 5);
        }
    }
}

#[test]
fn crash_records_nest_and_are_reused() {
    // Two crashes live on the trail at once, then a third, after both were
    // undone, overwrites the first one's record with another buffer.
    let w = |a: u64, b: u64| {
        Script::new(vec![
            Poised::Write(r(0), Value::Int(a)),
            Poised::Write(r(1), Value::Int(b)),
            Poised::Return(0),
        ])
    };
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        for semantics in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
            let cfg = MachineConfig::new(model, MemoryLayout::unowned())
                .with_trace()
                .with_crashes(semantics, 1);
            let mut m = Machine::new(cfg, vec![w(1, 2), w(3, 4)]);
            for e in [p(0), p(0), p(1)] {
                m.step(SchedElem::op(e));
            }
            let before = full_snapshot(&m);
            let (_, first) = m.step_recorded(SchedElem::crash(p(0)));
            let after_first = full_snapshot(&m);
            let (_, second) = m.step_recorded(SchedElem::crash(p(1)));
            m.undo(second);
            assert_eq!(full_snapshot(&m), after_first, "{model} {semantics:?}");
            m.undo(first);
            assert_eq!(full_snapshot(&m), before, "{model} {semantics:?}");
            m.step(SchedElem::op(p(1)));
            let before = full_snapshot(&m);
            let (_, again) = m.step_recorded(SchedElem::crash(p(1)));
            m.undo(again);
            assert_eq!(full_snapshot(&m), before, "{model} {semantics:?}");
            assert!(m.trail.is_empty());
        }
    }
}

#[test]
fn undo_restores_tso_same_register_drain() {
    // A TSO drain can commit the same register twice; the LIFO rollback
    // must restore the intermediate value correctly.
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Write(r(0), Value::Int(2)),
        Poised::Return(0),
    ]);
    let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned())
        .with_trace()
        .with_crashes(CrashSemantics::DrainBuffer, 1);
    let mut m = Machine::new(cfg, vec![w]);
    m.step(SchedElem::op(p(0)));
    m.step(SchedElem::op(p(0)));
    let before = full_snapshot(&m);
    let (out, token) = m.step_recorded(SchedElem::crash(p(0)));
    assert!(matches!(out, StepOutcome::Stepped(_)));
    assert_eq!(m.memory(r(0)), Value::Int(2), "both entries drained");
    m.undo(token);
    assert_eq!(full_snapshot(&m), before);
}

#[test]
fn try_step_rejects_unknown_processes() {
    let w = Script::new(vec![Poised::Return(0)]);
    let mut m = pso_machine(vec![w]);
    assert_eq!(
        m.try_step(SchedElem::op(p(7))),
        Err(MachineError::NoSuchProc { proc: p(7), n: 1 })
    );
    assert!(m.try_step(SchedElem::op(p(0))).is_ok());
    assert_eq!(m.try_run_schedule(&[SchedElem::op(p(0))]), Ok(0));
}

#[test]
fn run_solo_terminates_process() {
    let w = Script::new(vec![
        Poised::Write(r(0), Value::Int(1)),
        Poised::Fence,
        Poised::Return(3),
    ]);
    let mut m = pso_machine(vec![w]);
    let out = m.run_solo(p(0), 100);
    assert!(matches!(out, SoloOutcome::Terminates { ret: 3, .. }));
    assert_eq!(m.memory(r(0)), Value::Int(1), "fence forced the commit");
}

/// Check, over an exhaustive bounded exploration, that
/// `choice_footprint`'s prediction agrees with the step the machine
/// actually takes (classified from the emitted event), and that
/// `step_recorded` stamps that same footprint on its token.
fn assert_footprints_predict_steps(m: &mut Machine<Script>, depth: usize) {
    if depth == 0 {
        return;
    }
    for elem in m.choices() {
        let predicted = m.choice_footprint(elem);
        assert_eq!(predicted.proc, elem.proc);
        let was_sc_write = !elem.crash
            && elem.reg.is_none()
            && !m.config().model.buffers_writes()
            && matches!(m.poised(elem.proc), Poised::Write(..));
        let drains_expected = elem.crash
            && m.config().crash_semantics == CrashSemantics::DrainBuffer
            && !m.buffer_is_empty(elem.proc);
        let (out, token) = m.step_recorded(elem);
        assert_eq!(token.footprint(), predicted, "token reports the footprint");
        let event = out.event().expect("choices() offers only real steps");
        let actual = match event.kind {
            EventKind::Read {
                reg, from_memory, ..
            } => {
                if from_memory {
                    FootprintKind::Read(reg)
                } else {
                    FootprintKind::Local
                }
            }
            EventKind::Write { .. } | EventKind::Fence => FootprintKind::Local,
            EventKind::Cas { reg, stored, .. } => {
                if stored.is_some() {
                    FootprintKind::Write(reg)
                } else {
                    FootprintKind::Read(reg)
                }
            }
            EventKind::Swap { reg, .. } => FootprintKind::Write(reg),
            // An SC-mode write commits immediately; the primary event is
            // the commit, but the footprint classifies it as a program
            // write (both advance the program and write the cell).
            EventKind::Commit { reg, .. } if was_sc_write => FootprintKind::Write(reg),
            EventKind::Commit { reg, .. } => FootprintKind::Commit(reg),
            EventKind::Return { .. } => FootprintKind::Return,
            EventKind::Crash { .. } => FootprintKind::Crash {
                drains: drains_expected,
            },
        };
        assert_eq!(
            predicted.kind, actual,
            "{elem:?}: predicted {predicted:?}, stepped to {event:?}"
        );
        assert_footprints_predict_steps(m, depth - 1);
        m.undo(token);
    }
}

#[test]
fn footprint_prediction_matches_actual_steps() {
    let scripts = || {
        vec![
            Script::new(vec![
                Poised::Write(r(0), Value::Int(1)),
                Poised::Write(r(1), Value::Int(2)),
                Poised::Fence,
                Poised::Read(r(2)),
                Poised::Return(0),
            ]),
            Script::new(vec![
                Poised::Cas {
                    reg: r(0),
                    expected: 0,
                    new: Value::Int(5),
                },
                Poised::Swap {
                    reg: r(2),
                    new: Value::Int(6),
                },
                Poised::Read(r(1)),
                Poised::Return(1),
            ]),
        ]
    };
    for model in MemoryModel::ALL {
        for (sem, crashes) in [
            (CrashSemantics::DiscardBuffer, 0),
            (CrashSemantics::DiscardBuffer, 1),
            (CrashSemantics::DrainBuffer, 1),
        ] {
            let cfg = MachineConfig::new(model, MemoryLayout::unowned())
                .with_trace()
                .with_crashes(sem, crashes);
            let mut m = Machine::new(cfg, scripts());
            assert_footprints_predict_steps(&mut m, 5);
        }
    }
}

// ---------- clone_from ----------

/// A [`Script`] whose reads of register 0 spin while they return ⊥: the
/// process stays poised at the read, unchanged, so a plain step there
/// leaves its idle-read memo set.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SpinScript(Script);

impl Process for SpinScript {
    fn poised(&self) -> Poised {
        self.0.poised()
    }
    fn advance(&mut self, read: Option<Value>) {
        self.advance_idle(read);
    }
    fn advance_idle(&mut self, read: Option<Value>) -> bool {
        if self.0.poised() == Poised::Read(r(0)) && read == Some(Value::Bot) {
            return true;
        }
        self.0.advance(read);
        false
    }
    fn recoverable(&self) -> bool {
        true
    }
    fn crash_recover(&mut self) {
        self.0.crash_recover();
    }
}

/// One machine to walk: its scripts, configuration, whether it forgets
/// its locality tracker, and the walk.
type WalkSpec = (Vec<Vec<Poised>>, MachineConfig, bool, Vec<(u8, usize)>);

fn arb_walk_spec() -> impl proptest::Strategy<Value = WalkSpec> {
    use proptest::prelude::*;
    let op = prop_oneof![
        (0u32..3).prop_map(|i| Poised::Read(r(i))),
        (0u32..3, 0u64..3).prop_map(|(i, v)| Poised::Write(r(i), Value::Int(v))),
        Just(Poised::Fence),
        (0u32..3, 0u64..3, 0u64..3).prop_map(|(i, expected, new)| Poised::Cas {
            reg: r(i),
            expected,
            new: Value::Int(new),
        }),
        (0u32..3, 0u64..3).prop_map(|(i, new)| Poised::Swap {
            reg: r(i),
            new: Value::Int(new),
        }),
    ];
    let scripts = prop::collection::vec(prop::collection::vec(op, 0..8), 1..4);
    let config = (
        prop::sample::select(MemoryModel::ALL.to_vec()),
        prop::sample::select(vec![
            None,
            Some(CrashSemantics::DiscardBuffer),
            Some(CrashSemantics::DrainBuffer),
        ]),
        (any::<bool>(), any::<bool>()),
        prop::collection::vec(prop::option::of(0u32..3), 3),
    )
        .prop_map(|(model, crash, (tagged, traced), owners)| {
            let layout = (0u32..)
                .zip(owners)
                .filter_map(|(i, o)| o.map(|o| (r(i), p(o))))
                .collect();
            let mut config = MachineConfig::new(model, layout);
            if let Some(semantics) = crash {
                config = config.with_crashes(semantics, 1);
            }
            config.tag_writes = tagged;
            config.record_trace = traced;
            config
        });
    let walk = prop::collection::vec((0u8..4, 0usize..16), 0..40);
    (scripts, config, any::<bool>(), walk)
}

/// What undoing every outstanding recorded step must return a machine to.
type Base = (FullSnapshot<SpinScript>, u128);

fn base(m: &Machine<SpinScript>) -> Base {
    (full_snapshot(m), m.fingerprint())
}

/// Run `calls` on `m`: plain steps (only while no recorded step is
/// outstanding), recorded steps, crashes and undos. Returns the tokens of
/// the recorded steps still outstanding, and the machine as it was before
/// the first of them.
fn walk(m: &mut Machine<SpinScript>, calls: &[(u8, usize)]) -> (Vec<UndoToken<SpinScript>>, Base) {
    let mut tokens = Vec::new();
    let mut before = base(m);
    for &(call, pick) in calls {
        let choices = m.choices();
        let elem = match call {
            2 => {
                if let Some(token) = tokens.pop() {
                    m.undo(token);
                }
                continue;
            }
            3 => SchedElem::crash(ProcId::from(pick % m.n())),
            _ if choices.is_empty() => continue,
            _ => choices[pick % choices.len()],
        };
        if call == 0 && tokens.is_empty() {
            m.step(elem);
            before = base(m);
        } else {
            tokens.push(m.step_recorded(elem).1);
        }
    }
    (tokens, before)
}

fn walked(spec: &WalkSpec) -> (Machine<SpinScript>, Vec<UndoToken<SpinScript>>, Base) {
    let (scripts, config, forget, calls) = spec;
    let procs = scripts
        .iter()
        .zip(0..)
        .map(|(ops, ret)| {
            let mut ops = ops.clone();
            ops.push(Poised::Return(ret));
            SpinScript(Script::new(ops))
        })
        .collect();
    let mut m = Machine::new(config.clone(), procs);
    if *forget {
        m.forget_locality();
    }
    let (tokens, before) = walk(&mut m, calls);
    (m, tokens, before)
}

/// Everything a clone must reproduce: the state and its fingerprint
/// (kept or not), the accounting, tracker, trace and nonce, the enabled
/// choices, every idle-read memo, and the configuration.
#[allow(clippy::type_complexity)]
fn cloned_view(
    m: &Machine<SpinScript>,
) -> (
    FullSnapshot<SpinScript>,
    u128,
    Option<u128>,
    Vec<SchedElem>,
    Vec<Option<Value>>,
    (MemoryModel, MemoryLayout, bool, bool, CrashSemantics, u32),
) {
    let c = m.config();
    (
        full_snapshot(m),
        m.fingerprint(),
        m.fp,
        m.choices(),
        (0..m.n()).map(|i| m.idle_read(ProcId::from(i))).collect(),
        (
            c.model,
            c.layout.clone(),
            c.tag_writes,
            c.record_trace,
            c.crash_semantics,
            c.max_crashes,
        ),
    )
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    /// `clone_from` gives what `clone` gives, into a machine of another
    /// program, process count, model, crash setting, tagging, tracing and
    /// locality — a walked one with recorded steps outstanding: the same
    /// configuration, accounting, trace, memos and choices, an empty
    /// trail, and from there the same walk. The source, untouched, still
    /// undoes its own recorded steps back to where its last plain step
    /// left it.
    #[test]
    fn clone_from_gives_what_clone_gives(
        source in arb_walk_spec(),
        target in arb_walk_spec(),
        more in proptest::collection::vec((0u8..4, 0usize..16), 0..20),
    ) {
        let (mut src, mut tokens, before) = walked(&source);
        let (mut dst, _void, _) = walked(&target);
        let mut fresh = src.clone();
        dst.clone_from(&src);
        proptest::prop_assert!(dst.trail.is_empty());
        proptest::prop_assert!(dst.kept_fingerprint_is_current());
        proptest::prop_assert_eq!(cloned_view(&dst), cloned_view(&fresh));
        proptest::prop_assert_eq!(cloned_view(&dst), cloned_view(&src));

        let (a, _) = walk(&mut dst, &more);
        let (b, _) = walk(&mut fresh, &more);
        proptest::prop_assert_eq!(a.len(), b.len());
        proptest::prop_assert_eq!(cloned_view(&dst), cloned_view(&fresh));

        while let Some(token) = tokens.pop() {
            src.undo(token);
        }
        proptest::prop_assert!(src.trail.is_empty());
        proptest::prop_assert_eq!(base(&src), before);
    }
}
