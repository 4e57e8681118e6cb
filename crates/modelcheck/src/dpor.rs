//! The partial-order reduction ([`SleepAmple`]): the [`Reduction`] behind
//! [`Engine::Dpor`](crate::Engine::Dpor), pruning the kernel's walk with
//! the `por` crate's machinery (DESIGN.md §5c).
//!
//! * **Sleep sets** skip transitions whose effect was already explored on
//!   an independent sibling branch. They prune *edges only* — every
//!   reachable state is still visited — but the termination check reads
//!   every edge of the graph it walks, so **with `check_termination` on
//!   nothing is put to sleep**.
//! * **Ample sets** skip whole subtrees by scheduling a single process
//!   whose pending choices are invisible and independent of every other
//!   process's future. The cycle proviso (no ample step may close a DFS
//!   cycle without a full expansion) is enforced here. They stay on under
//!   an unbounded termination check: the all-done states are the
//!   machine's deadlocks, which a persistent-set walk reaches from every
//!   state it enters, and every cycle of the walked graph holds a fully
//!   expanded state, so the graph holds a stuck state whenever the
//!   machine has one (DESIGN.md §5c). Such a walk enters a state exactly
//!   on its first visit. A bounded termination check keeps them off.
//! * **Reorder bound** (optional): prune schedules that overtake pending
//!   buffered writes more than `k` times — under a bounded termination
//!   check, the only pruning left. A bounded `Ok` is a bounded claim. A
//!   safety violation (mutex, invariant, permutation) found under a bound
//!   is a real execution. `NO-TERMINATION` is a claim about *every*
//!   continuation of a state, so a bounded walk reports it only for a
//!   state whose whole forward closure it explored: states the bound
//!   refused an edge at count as able to finish, and so does whatever
//!   reaches them. Unbounded, nothing is budgeted: `admit` takes every
//!   choice at full budget.
//! * **Dominance**: a state is re-entered unless a recorded visit used a
//!   subset sleep set and at least as much budget ([`VisitTable`]). The
//!   table is keyed by the state's dense id, so it repeats no lookup the
//!   walk already made. A resumed run starts it empty: it may re-explore
//!   a state the interrupted run covered, which is less pruning, never
//!   more. An unbounded termination check keeps no table.
//!
//! Per-frame state is three small buffers (sleep set, taken siblings,
//! ample-excluded choices). They are recycled rather than allocated: a
//! [`SleepFrame`] the kernel hands back — popped off the stack, or never
//! pushed — joins a spare list with its buffers intact, and
//! [`arrive`](Reduction::arrive) builds the next child in one of those.
//! Whoever takes a spare frame overwrites every field.

use ftobs::{Metric, MetricsSnapshot};
use por::{step_weight, DenseHeads, ForkPoint, SleepSet, VisitTable};
use wbmem::{Footprint, FpMap, Machine, MemoryModel, Process, SchedElem};

use crate::checker::CheckConfig;
use crate::kernel::{Edge, Reduction};

/// Sleep sets + ample sets + reorder bound; see the module docs.
pub(crate) struct SleepAmple {
    model: MemoryModel,
    mode: Mode,
    /// Reorder budget of the root state (`u32::MAX` = unbounded).
    budget: u32,
    visited: VisitTable<DenseHeads>,
    /// Fingerprints on the DFS stack (a multiset: re-exploration under a
    /// smaller sleep set can nest a state inside itself).
    on_stack: FpMap<u32>,
    sleep_hits: usize,
    /// Frames that left the walk, kept for their buffers.
    spare: Vec<SleepFrame>,
}

/// What prunes a [`SleepAmple`] walk, fixed by the check it serves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Sleep sets, ample sets and dominance: a check without termination.
    Reduce,
    /// Ample sets only, and each state entered exactly on its first
    /// visit: an unbounded termination check.
    Ample,
    /// Dominance under the reorder budget only: a bounded termination
    /// check.
    Budget,
}

/// The reduction state of one DFS frame.
#[derive(Default)]
pub(crate) struct SleepFrame {
    fp: u128,
    /// Sleep set the state was entered with.
    sleep: SleepSet,
    /// Siblings already explored from this state, with their footprints —
    /// the candidates to put to sleep in later children.
    taken: Vec<(SchedElem, Footprint)>,
    /// Ample-pruned choices, reinstated if the proviso fires.
    excluded: Vec<SchedElem>,
    /// Remaining reorder budget on entry to this state.
    remaining: u32,
}

impl SleepAmple {
    pub(crate) fn new<P: Process>(
        initial: &Machine<P>,
        config: &CheckConfig,
        reorder_bound: Option<u32>,
    ) -> Self {
        let mode = match (config.check_termination, reorder_bound) {
            (false, _) => Mode::Reduce,
            (true, None) => Mode::Ample,
            (true, Some(_)) => Mode::Budget,
        };
        SleepAmple {
            model: initial.config().model,
            mode,
            budget: reorder_bound.unwrap_or(u32::MAX),
            visited: VisitTable::default(),
            on_stack: FpMap::default(),
            sleep_hits: 0,
            spare: Vec::new(),
        }
    }

    /// Record the root's visit in the dominance table. A first-visit walk
    /// keeps no table.
    pub(crate) fn claim_root(&mut self, root: u32) {
        if self.mode != Mode::Ample {
            self.visited.try_claim(root, &SleepSet::new(), self.budget);
        }
    }

    fn sleep_hit(&mut self, tally: &mut MetricsSnapshot) {
        self.sleep_hits += 1;
        tally.incr(Metric::SleepHits);
    }
}

impl<P: Process> Reduction<P> for SleepAmple {
    type Frame = SleepFrame;
    const LIFO: bool = false;
    const FOOTPRINTS: bool = true;

    fn begin_task(&mut self) {
        self.on_stack.clear();
    }

    fn on_stack(&mut self, fp: impl FnOnce() -> u128) {
        *self.on_stack.entry(fp()).or_insert(0) += 1;
    }

    fn off_stack(&mut self, frame: SleepFrame) {
        match self.on_stack.get_mut(&frame.fp) {
            Some(1) => {
                self.on_stack.remove(&frame.fp);
            }
            Some(c) => *c -= 1,
            None => unreachable!("frame fingerprint missing from the stack set"),
        }
        self.spare.push(frame);
    }

    fn discard(&mut self, frame: SleepFrame) {
        self.spare.push(frame);
    }

    fn root_budget(&self) -> u32 {
        self.budget
    }

    fn adopt(&mut self, fp: u128, task: &mut ForkPoint) -> SleepFrame {
        SleepFrame {
            fp,
            sleep: std::mem::take(&mut task.sleep),
            taken: std::mem::take(&mut task.taken),
            excluded: std::mem::take(&mut task.excluded),
            remaining: task.remaining,
        }
    }

    fn describe(frame: &SleepFrame, fork: &mut ForkPoint) {
        fork.sleep = frame.sleep.clone();
        fork.taken = frame.taken.clone();
        fork.excluded = frame.excluded.clone();
        fork.remaining = frame.remaining;
    }

    fn admit(&self, m: &Machine<P>, frame: &SleepFrame, elem: SchedElem) -> Option<u32> {
        // Unbounded, there is no budget to spend: an arrival that had
        // overtaken less must not look like a better visit.
        if self.budget == u32::MAX {
            return Some(u32::MAX);
        }
        frame.remaining.checked_sub(step_weight(m, elem))
    }

    fn arrive(
        &mut self,
        top: &mut SleepFrame,
        arena: &mut Vec<SchedElem>,
        edge: &Edge,
        tally: &mut MetricsSnapshot,
    ) -> Option<SleepFrame> {
        // Cycle proviso (C3): a reduced step that lands on a state still
        // on the stack could postpone the pruned processes forever around
        // the cycle; fall back to full expansion of this frame.
        if !top.excluded.is_empty() && self.on_stack.contains_key(&edge.to) {
            tally.incr(Metric::AmpleProvisoUpgrades);
            for e in top.excluded.drain(..) {
                if top.sleep.contains(e) {
                    self.sleep_hit(tally);
                } else {
                    arena.push(e);
                }
            }
        }
        // Sleep set for the child: surviving inherited entries, plus every
        // already-explored sibling that is independent of this step (none
        // is kept when nothing may sleep, so the set stays empty). The
        // child's frame is a recycled one; every field is overwritten.
        let mut child = self.spare.pop().unwrap_or_default();
        top.sleep
            .inherit_into(edge.footprint, self.model, &mut child.sleep);
        for &(se, sf) in &top.taken {
            if sf.independent(edge.footprint, self.model) {
                child.sleep.insert(se, sf);
            }
        }
        if self.mode == Mode::Reduce {
            top.taken.push((edge.elem, edge.footprint));
        }
        let enter = match self.mode {
            Mode::Ample => edge.fresh,
            Mode::Reduce | Mode::Budget => {
                self.visited.try_claim(edge.node, &child.sleep, edge.budget)
            }
        };
        if !enter {
            if self.mode == Mode::Ample {
                tally.incr(Metric::DedupHits);
            } else {
                self.sleep_hit(tally);
            }
            self.spare.push(child);
            return None;
        }
        child.fp = edge.to;
        child.taken.clear();
        child.excluded.clear();
        child.remaining = edge.budget;
        Some(child)
    }

    fn expand(
        &mut self,
        m: &Machine<P>,
        choices: &[SchedElem],
        frame: &mut SleepFrame,
        arena: &mut Vec<SchedElem>,
        tally: &mut MetricsSnapshot,
    ) {
        debug_assert!(frame.excluded.is_empty(), "expanding a frame twice");
        let ample = self.mode != Mode::Budget;
        let decision = ample.then(|| por::ample::decide(m, choices));
        let slept = por::partition_into(
            choices,
            &frame.sleep,
            decision.and_then(Result::ok),
            arena,
            &mut frame.excluded,
        );
        if let Some(decision) = decision {
            por::ample::count(decision, |metric| tally.incr(metric));
        }
        tally.add(Metric::SleepHits, slept as u64);
        self.sleep_hits += slept;
    }

    fn sleep_hits(&self) -> usize {
        self.sleep_hits
    }
}

#[cfg(test)]
mod tests {
    use crate::checker::{check, in_cs_count, CheckConfig, Engine, Verdict};
    use simlocks::{build_mutex, FenceMask, LockKind};
    use wbmem::MemoryModel;
    use wbmem::StepOutcome;

    fn dpor() -> Engine {
        Engine::Dpor {
            reorder_bound: None,
        }
    }

    fn cfg() -> CheckConfig {
        CheckConfig::default().with_engine(dpor())
    }

    #[test]
    fn fully_fenced_peterson_is_correct_under_all_models() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let v = check(&inst.machine(model), &cfg());
            assert!(v.is_ok(), "{model}: {}", v.label());
        }
    }

    #[test]
    fn broken_peterson_is_still_caught_and_replays() {
        let mask = FenceMask::only(&[simlocks::peterson::SITE_VICTIM]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let v = check(&inst.machine(MemoryModel::Pso), &cfg());
        let Verdict::MutexViolation(_, cex) = v else {
            panic!("expected violation, got {}", v.label());
        };
        // The schedule must reproduce the violation on an unreduced machine.
        let mut m = inst.machine(MemoryModel::Pso);
        for &e in &cex.schedule {
            assert!(
                !matches!(m.step(e), StepOutcome::NoOp),
                "counterexample contains a no-op step"
            );
        }
        assert_eq!(in_cs_count(&m), 2, "replay reaches the double-CS state");
    }

    #[test]
    fn reduction_shrinks_the_explored_space() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let base = CheckConfig {
            check_termination: false, // enable ample pruning
            ..CheckConfig::default()
        };
        let full = check(&inst.machine(MemoryModel::Pso), &base);
        let reduced = check(
            &inst.machine(MemoryModel::Pso),
            &base.clone().with_engine(dpor()),
        );
        assert!(full.is_ok() && reduced.is_ok());
        assert!(
            reduced.stats().states < full.stats().states,
            "dpor {} vs undo {}",
            reduced.stats().states,
            full.stats().states
        );
        assert!(reduced.stats().transitions < full.stats().transitions);
    }

    #[test]
    fn an_unbounded_walk_spends_no_budget() {
        use super::{SleepAmple, SleepFrame};
        use crate::kernel::Reduction;
        use fencevm::{Asm, VmProc};
        use wbmem::{Machine, MachineConfig, MemoryLayout, ProcId, RegId, SchedElem};

        let mut a = Asm::new("w2");
        a.write(0i64, 1i64);
        a.write(1i64, 2i64);
        a.fence();
        a.ret(0i64);
        let config = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        let mut m = Machine::new(config, vec![VmProc::new(a.assemble().into())]);
        let p = ProcId(0);
        m.step(SchedElem::op(p)); // the first write is buffered
        let (op, commit) = (SchedElem::op(p), SchedElem::commit(p, RegId(0)));

        let admit = |bound: Option<u32>, elem| {
            let red = SleepAmple::new(&m, &cfg(), bound);
            let frame = SleepFrame {
                remaining: Reduction::<VmProc>::root_budget(&red),
                ..SleepFrame::default()
            };
            Reduction::<VmProc>::admit(&red, &m, &frame, elem)
        };
        assert_eq!(admit(None, op), Some(u32::MAX), "nothing to count");
        assert_eq!(admit(None, commit), Some(u32::MAX));
        for k in 1..=3 {
            assert_eq!(admit(Some(k), op), Some(k - 1), "an overtake costs one");
            assert_eq!(admit(Some(k), commit), Some(k), "a commit is free");
        }
        assert_eq!(admit(Some(0), op), None, "bound 0 refuses the overtake");
    }

    #[test]
    fn a_termination_check_puts_nothing_to_sleep() {
        use super::{SleepAmple, SleepFrame};
        use crate::kernel::{Edge, Reduction};
        use fencevm::{Asm, VmProc};
        use wbmem::{Machine, MachineConfig, MemoryLayout, ProcId, SchedElem};

        // Two writers of distinct registers: their first steps commute.
        let writer = |reg: i64| {
            let mut a = Asm::new("w");
            a.write(reg, 1i64);
            a.fence();
            a.ret(0i64);
            VmProc::new(a.assemble().into())
        };
        let config = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        let m = Machine::new(config, vec![writer(0), writer(1)]);
        let first = SchedElem::op(ProcId(0));
        // The sleep set of the second child of the root, under a bound.
        let second_child_sleeps = |check_termination: bool| {
            let config = CheckConfig {
                check_termination,
                ..cfg()
            };
            let mut red = SleepAmple::new(&m, &config, Some(2));
            red.claim_root(0);
            let mut top = SleepFrame {
                remaining: 2,
                ..SleepFrame::default()
            };
            let (mut arena, mut tally) = (Vec::new(), ftobs::MetricsSnapshot::default());
            let mut child = None;
            for (node, elem) in [(1, first), (2, SchedElem::op(ProcId(1)))] {
                let edge = Edge {
                    elem,
                    footprint: m.choice_footprint(elem),
                    to: u128::from(node),
                    node,
                    fresh: true,
                    budget: 2,
                };
                let arrived =
                    Reduction::<VmProc>::arrive(&mut red, &mut top, &mut arena, &edge, &mut tally);
                child = Some(arrived.expect("a first visit is entered"));
            }
            child.expect("two children").sleep.contains(first)
        };
        assert!(second_child_sleeps(false), "the reduced walk sleeps it");
        assert!(!second_child_sleeps(true), "a termination check does not");
    }

    #[test]
    fn termination_violations_agree_with_undo() {
        // Naive TTAS deadlocks under crashes; the DPOR engine (with the
        // termination check on, every edge and no ample) must find the
        // same verdict.
        let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
        let mut config = cfg();
        config.max_states = 500_000;
        config.check_termination = true;
        let config = config.with_crashes(wbmem::CrashSemantics::DiscardBuffer, 1);
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        assert!(
            matches!(v, Verdict::NoTermination(..)),
            "expected NO-TERMINATION, got {}",
            v.label()
        );
    }

    #[test]
    fn reorder_bound_zero_matches_sc_verdicts() {
        // Fenceless Peterson violates mutex under PSO via write overtaking,
        // but is correct under SC. Bound 0 restricts PSO exploration to
        // SC-equivalent schedules, so the violation disappears.
        let mask = FenceMask::only(&[simlocks::peterson::SITE_RELEASE]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let full = check(&inst.machine(MemoryModel::Pso), &cfg());
        assert!(matches!(full, Verdict::MutexViolation(..)));

        let bounded = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: Some(0),
        });
        let v = check(&inst.machine(MemoryModel::Pso), &bounded);
        assert!(v.is_ok(), "bound 0 ≡ SC: {}", v.label());

        // One overtake is already enough for this bug.
        let bounded1 = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: Some(1),
        });
        let v = check(&inst.machine(MemoryModel::Pso), &bounded1);
        assert!(
            matches!(v, Verdict::MutexViolation(..)),
            "bound 1 finds it: {}",
            v.label()
        );
    }

    #[test]
    fn budget_expiry_reports_sleep_hits() {
        let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
        let config = cfg().with_budget(std::time::Duration::ZERO);
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        match v {
            Verdict::Inconclusive(stats, coverage) => {
                assert!(stats.states >= 1);
                assert!(coverage.frontier >= 1);
                // sleep_hits is a counter, not a guarantee — just make sure
                // the field is plumbed (type-level check, really).
                let _ = coverage.sleep_hits;
            }
            other => panic!("expected inconclusive, got {}", other.label()),
        }
    }

    /// `kind` at `n` with its own fences stripped and one inserted after
    /// each baseline pc of `placement`.
    fn placed(kind: LockKind, n: usize, placement: &[&[usize]]) -> simlocks::OrderingInstance {
        let mut inst = build_mutex(kind, n, FenceMask::ALL);
        for (prog, after) in inst.programs.iter_mut().zip(placement) {
            let bare = fencevm::strip_fences(prog).program;
            *prog = fencevm::insert_fences_after(&bare, after).program.into();
        }
        inst
    }

    fn label_at(inst: &simlocks::OrderingInstance, reorder_bound: Option<u32>) -> &'static str {
        let config = CheckConfig::default().with_engine(Engine::Dpor { reorder_bound });
        check(&inst.machine(MemoryModel::Pso), &config).label()
    }

    #[test]
    fn a_bounded_walk_reports_no_termination_only_where_the_full_one_does() {
        // Two correct synthesized placements that bounds 1–3 used to call
        // stuck: unbudgeted slept-edge probes named states no budgeted
        // path walked to, and those had no out-edges in the graph.
        let correct = [
            placed(LockKind::Bakery, 2, &[&[0, 10, 30], &[10, 30]]),
            placed(LockKind::Mcs, 3, &[&[18], &[18], &[18]]),
        ];
        for inst in &correct {
            assert_eq!(label_at(inst, None), "ok", "{}", inst.name);
            for bound in 1..=3 {
                let label = label_at(inst, Some(bound));
                assert_ne!(label, "NO-TERMINATION", "{} at bound {bound}", inst.name);
            }
        }
        // A real one survives the bound: the fence-free TTAS baseline
        // orphans its exit write with a single overtake.
        let baseline = placed(LockKind::Ttas, 4, &[&[], &[], &[], &[]]);
        assert_eq!(label_at(&baseline, None), "NO-TERMINATION");
        assert_eq!(label_at(&baseline, Some(1)), "NO-TERMINATION");
    }

    #[test]
    fn no_termination_hands_back_one_stuck_entry_per_process() {
        // Fence-free TTAS: whichever process returns with its unlock
        // still buffered strands the others. One exploration names each.
        let baseline = placed(LockKind::Ttas, 3, &[&[], &[], &[]]);
        let machine = baseline.machine(MemoryModel::Pso);
        let Verdict::NoTermination(_, cex) = check(&machine, &cfg()) else {
            panic!("expected NO-TERMINATION");
        };
        let schedules: Vec<_> = std::iter::once(&cex.schedule)
            .chain(&cex.alternates)
            .collect();
        let mut enterers: Vec<_> = schedules
            .iter()
            .map(|s| s.last().expect("the root can finish").proc)
            .collect();
        enterers.sort_unstable();
        enterers.dedup();
        assert_eq!(enterers.len(), 3, "one entry per process: {enterers:?}");
        for schedule in schedules {
            // The step before the last can still finish; the last cannot.
            let (last, before) = schedule.split_last().expect("non-empty");
            let mut m = machine.clone();
            assert_eq!(m.run_schedule(before), before.len());
            assert!(check(&m, &cfg())
                .counterexample()
                .is_some_and(|c| !c.schedule.is_empty()));
            assert!(matches!(m.step(*last), StepOutcome::Stepped(_)));
            let Verdict::NoTermination(_, from_here) = check(&m, &cfg()) else {
                panic!("an entry of the stuck region is stuck");
            };
            assert!(from_here.schedule.is_empty());
        }
        // The oracle keeps its single counterexample.
        let oracle = CheckConfig::default().with_engine(Engine::CloneDfs);
        let Verdict::NoTermination(_, cex) = check(&machine, &oracle) else {
            panic!("expected NO-TERMINATION");
        };
        assert!(cex.alternates.is_empty());
    }
}
