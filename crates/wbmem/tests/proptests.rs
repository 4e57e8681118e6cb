//! Property-based tests for the write-buffer machine semantics.

use proptest::prelude::*;
use wbmem::rmr::LocalityTracker;
use wbmem::{
    Counters, CrashSemantics, Event, EventKind, FpSet, Machine, MachineConfig, MemoryLayout,
    MemoryModel, Poised, ProcId, Process, RegId, SchedElem, StateKey, StepOutcome, Value,
    WriteBuffer,
};

// ---------- buffer-level properties ----------

fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..8, 0u8..16), 0..40)
}

proptest! {
    /// PSO: reading a register from the buffer always yields the most
    /// recent pending write to it, and the buffer holds at most one entry
    /// per register.
    #[test]
    fn pso_buffer_read_is_last_write(ops in arb_ops()) {
        let mut buf = WriteBuffer::new(MemoryModel::Pso);
        let mut latest = std::collections::HashMap::new();
        for (r, v) in ops {
            let (reg, val) = (RegId(u32::from(r)), Value::Int(u64::from(v)));
            buf.push(reg, val);
            latest.insert(reg, val);
            prop_assert_eq!(buf.read(reg), Some(val));
        }
        prop_assert_eq!(buf.len(), latest.len());
        for (reg, val) in latest {
            prop_assert_eq!(buf.read(reg), Some(val));
            prop_assert!(buf.can_commit(reg));
        }
    }

    /// TSO: commits drain in exactly push order, regardless of registers.
    #[test]
    fn tso_buffer_commits_fifo(ops in arb_ops()) {
        let mut buf = WriteBuffer::new(MemoryModel::Tso);
        for &(r, v) in &ops {
            buf.push(RegId(u32::from(r)), Value::Int(u64::from(v)));
        }
        let mut drained = Vec::new();
        while let Some(reg) = buf.fence_commit_target() {
            let val = buf.take(reg).expect("head is committable");
            drained.push((reg, val));
        }
        let expect: Vec<(RegId, Value)> = ops
            .iter()
            .map(|&(r, v)| (RegId(u32::from(r)), Value::Int(u64::from(v))))
            .collect();
        prop_assert_eq!(drained, expect);
    }

    /// PSO: a fence-blocked process always commits the smallest buffered
    /// register first.
    #[test]
    fn pso_fence_target_is_minimum(ops in arb_ops()) {
        let mut buf = WriteBuffer::new(MemoryModel::Pso);
        for &(r, v) in &ops {
            buf.push(RegId(u32::from(r)), Value::Int(u64::from(v)));
        }
        if let Some(target) = buf.fence_commit_target() {
            let min = buf.regs().into_iter().min().unwrap();
            prop_assert_eq!(target, min);
        } else {
            prop_assert!(buf.is_empty());
        }
    }
}

// ---------- machine-level properties ----------

/// A scripted process usable as a proptest value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Script {
    ops: Vec<Poised>,
    pc: usize,
}

impl Process for Script {
    fn poised(&self) -> Poised {
        self.ops.get(self.pc).copied().unwrap_or(Poised::Done)
    }
    fn advance(&mut self, _v: Option<Value>) {
        self.pc += 1;
    }
    fn recoverable(&self) -> bool {
        true
    }
    fn crash_recover(&mut self) {
        self.pc = 0;
    }
}

fn arb_script(max_len: usize) -> impl Strategy<Value = Script> {
    let op = prop_oneof![
        (0u32..6).prop_map(|r| Poised::Read(RegId(r))),
        (0u32..6, 0u64..8).prop_map(|(r, v)| Poised::Write(RegId(r), Value::Int(v))),
        Just(Poised::Fence),
    ];
    prop::collection::vec(op, 0..max_len).prop_map(|mut ops| {
        ops.push(Poised::Return(0));
        Script { ops, pc: 0 }
    })
}

fn arb_layout() -> impl Strategy<Value = MemoryLayout> {
    prop::collection::vec(prop::option::of(0u32..3), 6).prop_map(|owners| {
        owners
            .into_iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|p| (RegId(i as u32), ProcId(p))))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any schedule and model: RMR totals decompose into remote reads
    /// plus remote commits, buffers are empty after completion (every
    /// program ends fence-free... via run_solo draining), and solo runs are
    /// deterministic (two identical machines agree on everything).
    #[test]
    fn solo_runs_are_deterministic_and_account_consistently(
        scripts in prop::collection::vec(arb_script(12), 1..4),
        layout in arb_layout(),
        model in prop::sample::select(vec![MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso]),
    ) {
        let config = MachineConfig::new(model, layout);
        let mk = || Machine::new(config.clone(), scripts.clone());
        let mut a = mk();
        let mut b = mk();
        for i in 0..scripts.len() {
            a.run_solo(ProcId::from(i), 10_000);
            b.run_solo(ProcId::from(i), 10_000);
        }
        prop_assert!(a.all_done());
        prop_assert_eq!(a.state_key(), b.state_key());
        for i in 0..scripts.len() {
            let c = a.counters().proc(i);
            prop_assert_eq!(c.rmrs, c.remote_reads + c.remote_commits);
            prop_assert!(c.remote_reads <= c.reads);
            prop_assert!(c.remote_commits <= c.commits);
        }
    }

    /// Commits never invent values: after any random schedule, every
    /// register's content is ⊥ or some value that was written by someone.
    #[test]
    fn memory_holds_only_written_values(
        scripts in prop::collection::vec(arb_script(10), 1..4),
        choices in prop::collection::vec((0usize..4, prop::option::of(0u32..6)), 0..200),
        model in prop::sample::select(vec![MemoryModel::Tso, MemoryModel::Pso]),
    ) {
        let config = MachineConfig::new(model, MemoryLayout::unowned()).with_tagged_writes();
        let mut m = Machine::new(config, scripts.clone());
        for (p, r) in choices {
            if p < scripts.len() {
                m.step(SchedElem { proc: ProcId::from(p), reg: r.map(RegId), crash: false });
            }
        }
        for r in 0..6u32 {
            let v = m.memory(RegId(r));
            // Tagged values carry unique nonces assigned at write steps, so
            // any non-⊥ value must be Tagged.
            let valid = v.is_bot() || matches!(v, Value::Tagged { .. });
            prop_assert!(valid);
        }
    }

    /// The enabled-choices enumeration is sound and complete: every choice
    /// steps, and a no-choice machine is all-done.
    #[test]
    fn choices_are_exactly_the_enabled_elements(
        scripts in prop::collection::vec(arb_script(8), 1..3),
        picks in prop::collection::vec(0usize..8, 0..60),
    ) {
        let config = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        let mut m = Machine::new(config, scripts);
        for pick in picks {
            let choices = m.choices();
            if choices.is_empty() {
                prop_assert!(m.all_done());
                break;
            }
            let elem = choices[pick % choices.len()];
            let out = m.step(elem);
            let stepped = matches!(out, wbmem::StepOutcome::Stepped(_));
            prop_assert!(stepped, "enabled choice {:?} did not step", elem);
        }
    }
}

// ---------- state fingerprint ----------

/// Scripts over three registers with CAS and swap, so same-register
/// double writes (two TSO queue entries, one replaced PSO entry) and
/// buffer-draining read-modify-writes are common.
fn arb_rmw_script(max_len: usize) -> impl Strategy<Value = Script> {
    let op = prop_oneof![
        (0u32..3).prop_map(|r| Poised::Read(RegId(r))),
        (0u32..3, 0u64..3).prop_map(|(r, v)| Poised::Write(RegId(r), Value::Int(v))),
        Just(Poised::Fence),
        (0u32..3, 0u64..3, 0u64..3).prop_map(|(r, expected, new)| Poised::Cas {
            reg: RegId(r),
            expected,
            new: Value::Int(new),
        }),
        (0u32..3, 0u64..3).prop_map(|(r, new)| Poised::Swap {
            reg: RegId(r),
            new: Value::Int(new),
        }),
    ];
    prop::collection::vec(op, 0..max_len).prop_map(|mut ops| {
        ops.push(Poised::Return(0));
        Script { ops, pc: 0 }
    })
}

fn arb_machine_config() -> impl Strategy<Value = MachineConfig> {
    (
        prop::sample::select(vec![MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso]),
        prop::sample::select(vec![
            None,
            Some(CrashSemantics::DiscardBuffer),
            Some(CrashSemantics::DrainBuffer),
        ]),
        any::<bool>(),
    )
        .prop_map(|(model, crash, tagged)| {
            let mut config = MachineConfig::new(model, MemoryLayout::unowned());
            if let Some(semantics) = crash {
                config = config.with_crashes(semantics, 1);
            }
            if tagged {
                config = config.with_tagged_writes();
            }
            config
        })
}

/// Every state reachable from `m`, by full state key, with the fingerprint
/// `step_recorded`/`undo` kept for it.
fn reachable(
    m: &mut Machine<Script>,
    seen: &mut std::collections::HashMap<StateKey<Script>, u128>,
) {
    for elem in m.choices() {
        let (out, token) = m.step_recorded(elem);
        if matches!(out, StepOutcome::Stepped(_))
            && seen.insert(m.state_key(), m.fingerprint()).is_none()
        {
            reachable(m, seen);
        }
        m.undo(token);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Along any walk of recorded steps and undos, the fingerprint the
    /// machine keeps equals the one a freshly built machine hashes from
    /// scratch after replaying the same path with plain steps, and every
    /// undo restores the exact prior value.
    #[test]
    fn fingerprint_follows_recorded_steps_and_undo(
        scripts in prop::collection::vec(arb_rmw_script(8), 1..4),
        config in arb_machine_config(),
        walk in prop::collection::vec((0usize..16, 0u8..4), 0..80),
    ) {
        let mut m = Machine::new(config.clone(), scripts.clone());
        let mut path = Vec::new();
        let mut trail = Vec::new();
        for (pick, action) in walk {
            let choices = m.choices();
            if action == 0 || choices.is_empty() {
                // Backtrack one step (if any).
                if let Some((token, fp_before)) = trail.pop() {
                    m.undo(token);
                    path.pop();
                    prop_assert_eq!(m.fingerprint(), fp_before);
                }
            } else {
                let elem = choices[pick % choices.len()];
                let fp_before = m.fingerprint();
                let (out, token) = m.step_recorded(elem);
                prop_assert!(matches!(out, StepOutcome::Stepped(_)));
                trail.push((token, fp_before));
                path.push(elem);
            }
            let mut fresh = Machine::new(config.clone(), scripts.clone());
            fresh.run_schedule(&path);
            prop_assert_eq!(fresh.state_key(), m.state_key());
            prop_assert_eq!(fresh.fingerprint(), m.fingerprint(), "path {:?}", &path);
        }
    }

    /// Over the whole reachable space of small random programs, fingerprints
    /// and full state keys induce the same partition: as many distinct
    /// fingerprints as distinct states.
    #[test]
    fn fingerprints_partition_reachable_states_exactly(
        scripts in prop::collection::vec(arb_rmw_script(6), 1..3),
        config in arb_machine_config(),
    ) {
        let mut m = Machine::new(config, scripts);
        let mut seen = std::collections::HashMap::new();
        seen.insert(m.state_key(), m.fingerprint());
        reachable(&mut m, &mut seen);
        let fps: FpSet = seen.values().copied().collect();
        prop_assert_eq!(fps.len(), seen.len());
    }
}

// ---------- forgetting locality ----------

/// `out` as a machine that forgot its locality tracker reports it: every
/// step local.
fn local(out: StepOutcome) -> StepOutcome {
    let StepOutcome::Stepped(mut event) = out else {
        return out;
    };
    if let EventKind::Read { remote, .. }
    | EventKind::Commit { remote, .. }
    | EventKind::Cas { remote, .. }
    | EventKind::Swap { remote, .. } = &mut event.kind
    {
        *remote = false;
    }
    StepOutcome::Stepped(event)
}

/// Everything an undo back to a point must restore.
type FullSnapshot = (
    StateKey<Script>,
    u128,
    Counters,
    Option<LocalityTracker>,
    Vec<Event>,
);

fn full_snapshot(m: &Machine<Script>) -> FullSnapshot {
    (
        m.state_key(),
        m.fingerprint(),
        m.counters().clone(),
        m.locality().cloned(),
        m.trace().events().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A machine that forgot its locality tracker walks the same state
    /// space as one that kept it: driven by the same plain steps,
    /// recorded steps, crash elements and undos, under every model and
    /// both crash semantics, the two agree after every call on the state,
    /// its fingerprint, the enabled choices and the events, while the
    /// forgetful machine's counters stay zero: it accounts for nothing. Undoing
    /// every recorded step restores each machine exactly, its own caches,
    /// ownership and trace included. A plain step is taken only with no
    /// recorded step outstanding, and moves the point the undos return to.
    #[test]
    fn forgetting_locality_never_changes_the_state_space(
        scripts in prop::collection::vec(arb_rmw_script(8), 1..4),
        config in arb_machine_config(),
        layout in arb_layout(),
        calls in prop::collection::vec((0u8..4, 0usize..16), 0..80),
    ) {
        let config = MachineConfig { layout, ..config.with_trace() };
        let mut kept = Machine::new(config.clone(), scripts.clone());
        let mut forgot = Machine::new(config, scripts);
        forgot.forget_locality();
        prop_assert!(kept.locality().is_some() && forgot.locality().is_none());
        let mut start = (full_snapshot(&kept), full_snapshot(&forgot));
        let mut tokens = Vec::new();
        for (call, pick) in calls {
            let choices = kept.choices();
            let elem = match call {
                2 => {
                    if let Some((a, b)) = tokens.pop() {
                        kept.undo(a);
                        forgot.undo(b);
                    }
                    None
                }
                3 => Some(SchedElem::crash(ProcId::from(pick % kept.n()))),
                _ if choices.is_empty() => None,
                _ => Some(choices[pick % choices.len()]),
            };
            if let Some(elem) = elem {
                if call == 0 && tokens.is_empty() {
                    prop_assert_eq!(local(kept.step(elem)), forgot.step(elem));
                    start = (full_snapshot(&kept), full_snapshot(&forgot));
                } else {
                    let (a, b) = (kept.step_recorded(elem), forgot.step_recorded(elem));
                    prop_assert_eq!(local(a.0), b.0);
                    tokens.push((a.1, b.1));
                }
            }
            prop_assert_eq!(kept.state_key(), forgot.state_key());
            prop_assert_eq!(kept.fingerprint(), forgot.fingerprint());
            prop_assert_eq!(kept.choices(), forgot.choices());
            prop_assert_eq!(forgot.counters(), &Counters::new(forgot.n()));
        }
        while let Some((a, b)) = tokens.pop() {
            kept.undo(a);
            forgot.undo(b);
        }
        prop_assert_eq!((full_snapshot(&kept), full_snapshot(&forgot)), start);
    }
}
