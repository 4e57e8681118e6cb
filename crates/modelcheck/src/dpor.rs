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
//! Every per-state datum is indexed by the dense id the kernel hands out
//! with each [`Edge`] — the state's *node* — so none of it is hashed: the
//! dominance table's heads, and the on-stack multiset the cycle proviso
//! reads, a count per node (re-exploration under a smaller sleep set can
//! nest a state inside itself). Both grow in [`Segmented`] arrays that
//! never move, taken from the thread's [spare](crate::spare) and
//! [stowed](SleepAmple::stow) back: they come empty, and may hold segments
//! a check before this one allocated.
//!
//! Per-frame state is three small buffers (sleep set, taken siblings,
//! ample-excluded choices) and a budget, in a [`SleepFrame`] the
//! reduction keeps on its own stack, indexed by DFS depth; the kernel's
//! frame holds only its depth. The slots above the top keep their
//! buffers: [`arrive`](Reduction::arrive) builds the next child's sleep
//! set in place in the slot above the top and overwrites every field, so
//! a child that is never entered, or never pushed, leaves nothing to hand
//! back, and a frame is never moved or copied.

use ftobs::{Metric, MetricsSnapshot};
use por::{step_weight, DenseHeads, ForkPoint, Segmented, SleepSet, VisitTable};
use wbmem::{Footprint, Machine, MemoryModel, Process, SchedElem};

use crate::checker::CheckConfig;
use crate::kernel::{Edge, Reduction};
use crate::spare::Tables;

/// Sleep sets + ample sets + reorder bound; see the module docs.
pub(crate) struct SleepAmple {
    model: MemoryModel,
    mode: Mode,
    /// Reorder budget of the root state (`u32::MAX` = unbounded).
    budget: u32,
    visited: VisitTable<DenseHeads>,
    /// How often each node is on the DFS stack (zero past the end).
    on_stack: Segmented<u32>,
    sleep_hits: usize,
    /// The open frames' reduction state by DFS depth, the task's own
    /// state at 0; slots above the top are kept for their buffers.
    frames: Vec<SleepFrame>,
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
    /// The reduction for `config`'s check of `initial`, keeping its
    /// per-node data in the dominance table and on-stack counts it takes
    /// from `tables`, which come empty.
    pub(crate) fn new<P: Process>(
        initial: &Machine<P>,
        config: &CheckConfig,
        reorder_bound: Option<u32>,
        tables: &mut Tables,
    ) -> Self {
        let visited = std::mem::take(&mut tables.visited);
        let on_stack = std::mem::take(&mut tables.on_stack);
        debug_assert!(visited.is_empty() && on_stack.is_empty());
        let mode = match (config.check_termination, reorder_bound) {
            (false, _) => Mode::Reduce,
            (true, None) => Mode::Ample,
            (true, Some(_)) => Mode::Budget,
        };
        SleepAmple {
            model: initial.config().model,
            mode,
            budget: reorder_bound.unwrap_or(u32::MAX),
            visited,
            on_stack,
            sleep_hits: 0,
            frames: Vec::new(),
        }
    }

    /// Hand the dominance table and the on-stack counts back to `tables`.
    pub(crate) fn stow(&mut self, tables: &mut Tables) {
        tables.visited = std::mem::take(&mut self.visited);
        tables.on_stack = std::mem::take(&mut self.on_stack);
    }

    /// Record the root's visit in the dominance table. A first-visit walk
    /// keeps no table.
    pub(crate) fn claim_root(&mut self, root: u32) {
        if self.mode != Mode::Ample {
            self.visited.try_claim(root, &SleepSet::new(), self.budget);
        }
    }
}

/// The first slept choice of `frame` that is not enabled at `m`'s state
/// with the footprint it was put to sleep with, if any. There is none: the
/// [`VisitTable`] compares sleep sets by choice on that account (`por`'s
/// `sleep` module docs).
fn stale_sleep_entry<P: Process>(
    m: &Machine<P>,
    choices: &[SchedElem],
    frame: &SleepFrame,
) -> Option<(SchedElem, Footprint)> {
    frame
        .sleep
        .iter()
        .find(|&(e, fp)| !choices.contains(&e) || m.choice_footprint(e) != fp)
}

impl<P: Process> Reduction<P> for SleepAmple {
    /// The frame's depth: its slot in [`SleepAmple::frames`].
    type Frame = u32;
    const LIFO: bool = false;
    const FOOTPRINTS: bool = true;

    fn on_stack(&mut self, node: u32) {
        let node = node as usize;
        if node >= self.on_stack.len() {
            self.on_stack.resize(node, 0);
            self.on_stack.push(1);
        } else {
            *self.on_stack.get_mut(node) += 1;
        }
    }

    fn off_stack(&mut self, node: u32) {
        let count = self.on_stack.get_mut(node as usize);
        debug_assert!(*count > 0, "node {node} left a stack it was not on");
        *count -= 1;
    }

    fn root_budget(&self) -> u32 {
        self.budget
    }

    fn adopt(&mut self, task: &mut ForkPoint) -> u32 {
        if self.frames.is_empty() {
            self.frames.push(SleepFrame::default());
        }
        let frame = &mut self.frames[0];
        frame.sleep = std::mem::take(&mut task.sleep);
        frame.taken = std::mem::take(&mut task.taken);
        frame.excluded = std::mem::take(&mut task.excluded);
        frame.remaining = task.remaining;
        0
    }

    fn describe(&self, frame: u32, fork: &mut ForkPoint) {
        let frame = &self.frames[frame as usize];
        fork.sleep.clone_from(&frame.sleep);
        fork.taken.clone_from(&frame.taken);
        fork.excluded.clone_from(&frame.excluded);
        fork.remaining = frame.remaining;
    }

    fn admit(&self, m: &Machine<P>, frame: u32, elem: SchedElem) -> Option<u32> {
        // Unbounded, there is no budget to spend: an arrival that had
        // overtaken less must not look like a better visit.
        if self.budget == u32::MAX {
            return Some(u32::MAX);
        }
        let remaining = self.frames[frame as usize].remaining;
        remaining.checked_sub(step_weight(m, elem))
    }

    fn arrive(
        &mut self,
        top: u32,
        arena: &mut Vec<SchedElem>,
        edge: &Edge,
        tally: &mut MetricsSnapshot,
    ) -> Option<u32> {
        let depth = top as usize + 1;
        if self.frames.len() == depth {
            self.frames.push(SleepFrame::default());
        }
        let (below, above) = self.frames.split_at_mut(depth);
        let (top, child) = (&mut below[depth - 1], &mut above[0]);
        // Cycle proviso (C3): a reduced step that lands on a state still
        // on the stack could postpone the pruned processes forever around
        // the cycle; fall back to full expansion of this frame.
        let node = edge.node as usize;
        let stack = &self.on_stack;
        if !top.excluded.is_empty() && node < stack.len() && *stack.get(node) > 0 {
            tally.incr(Metric::AmpleProvisoUpgrades);
            for e in top.excluded.drain(..) {
                if top.sleep.contains(e) {
                    self.sleep_hits += 1;
                    tally.incr(Metric::SleepHits);
                } else {
                    arena.push(e);
                }
            }
        }
        // Sleep set for the child, built in the slot above the top:
        // surviving inherited entries, plus every already-explored sibling
        // that is independent of this step (none is kept when nothing may
        // sleep, so the set stays empty).
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
                self.sleep_hits += 1;
                tally.incr(Metric::SleepHits);
            }
            return None;
        }
        child.taken.clear();
        child.excluded.clear();
        child.remaining = edge.budget;
        Some(u32::try_from(depth).expect("DFS depth fits in u32"))
    }

    fn expand(
        &mut self,
        m: &Machine<P>,
        choices: &[SchedElem],
        frame: u32,
        arena: &mut Vec<SchedElem>,
        tally: &mut MetricsSnapshot,
    ) {
        let frame = &mut self.frames[frame as usize];
        debug_assert!(frame.excluded.is_empty(), "expanding a frame twice");
        debug_assert_eq!(
            stale_sleep_entry(m, choices, frame),
            None,
            "a slept choice is disabled or changed its footprint"
        );
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
        use super::SleepAmple;
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
            let mut red = SleepAmple::new(&m, &cfg(), bound, &mut crate::spare::Tables::default());
            let mut task = por::ForkPoint {
                remaining: Reduction::<VmProc>::root_budget(&red),
                ..por::ForkPoint::default()
            };
            let frame = Reduction::<VmProc>::adopt(&mut red, &mut task);
            Reduction::<VmProc>::admit(&red, &m, frame, elem)
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
        use super::SleepAmple;
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
            let mut red =
                SleepAmple::new(&m, &config, Some(2), &mut crate::spare::Tables::default());
            red.claim_root(0);
            let mut task = por::ForkPoint {
                remaining: 2,
                ..por::ForkPoint::default()
            };
            let top = Reduction::<VmProc>::adopt(&mut red, &mut task);
            let (mut arena, mut tally) = (Vec::new(), ftobs::MetricsSnapshot::default());
            let mut child = None;
            for (node, elem) in [(1, first), (2, SchedElem::op(ProcId(1)))] {
                let edge = Edge {
                    elem,
                    footprint: m.choice_footprint(elem),
                    node,
                    fresh: true,
                    budget: 2,
                };
                let arrived =
                    Reduction::<VmProc>::arrive(&mut red, top, &mut arena, &edge, &mut tally);
                child = Some(arrived.expect("a first visit is entered"));
            }
            let child = child.expect("two children") as usize;
            red.frames[child].sleep.contains(first)
        };
        assert!(second_child_sleeps(false), "the reduced walk sleeps it");
        assert!(!second_child_sleeps(true), "a termination check does not");
    }

    /// Every slept choice is enabled, with the footprint it went to sleep
    /// with, at every state the reduced walk expands (`SleepAmple::expand`
    /// asserts it in debug builds) — the contract the choice-only
    /// `VisitTable` rests on — on the E12 n = 2 matrix: every lock family
    /// under SC, TSO and PSO, fully fenced and fence-free, without crashes
    /// and with one crash of either semantics.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "the footprint check is a debug assertion"
    )]
    fn slept_choices_keep_their_footprints_on_the_n2_matrix() {
        use wbmem::CrashSemantics;

        let kinds = [
            LockKind::Peterson,
            LockKind::Bakery,
            LockKind::BakeryPaperListing,
            LockKind::Tournament,
            LockKind::Gt { f: 2 },
            LockKind::Ttas,
            LockKind::Mcs,
            LockKind::Filter,
            LockKind::RecoverableTtas,
            LockKind::RecoverableBakery,
        ];
        let crashes = [
            (CrashSemantics::DiscardBuffer, 0),
            (CrashSemantics::DiscardBuffer, 1),
            (CrashSemantics::DrainBuffer, 1),
        ];
        let base = CheckConfig {
            check_termination: false,
            max_states: 1_000_000,
            ..cfg()
        };
        let (mut checks, mut slept) = (0, 0);
        for kind in kinds {
            for mask in [FenceMask::ALL, FenceMask::NONE] {
                let inst = build_mutex(kind, 2, mask);
                for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
                    for (semantics, max_crashes) in crashes {
                        let config = base.clone().with_crashes(semantics, max_crashes);
                        let v = check(&inst.machine(model), &config);
                        assert!(!matches!(v, Verdict::StateLimit(_)), "{}", inst.name);
                        slept += v.stats().metrics.get(ftobs::Metric::SleepHits);
                        checks += 1;
                    }
                }
            }
        }
        assert_eq!(checks, 180);
        assert!(slept > 10_000, "the matrix sleeps: {slept} sleep hits");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed its footprint")]
    fn a_stale_sleep_footprint_is_caught_in_debug_builds() {
        use super::SleepAmple;
        use crate::kernel::Reduction;
        use fencevm::{Asm, VmProc};
        use wbmem::{
            Footprint, FootprintKind, Machine, MachineConfig, MemoryLayout, ProcId, RegId,
            SchedElem,
        };

        let writer = |reg: i64| {
            let mut a = Asm::new("w");
            a.write(reg, 1i64);
            a.fence();
            a.ret(0i64);
            VmProc::new(a.assemble().into())
        };
        let config = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        let m = Machine::new(config, vec![writer(0), writer(1)]);
        let second = SchedElem::op(ProcId(1));
        // Its write enters the buffer (`Local`); the forged entry says it
        // reads register 1.
        let forged = Footprint {
            proc: ProcId(1),
            kind: FootprintKind::Read(RegId(1)),
        };
        assert_ne!(m.choice_footprint(second), forged);
        let mut red = SleepAmple::new(&m, &cfg(), None, &mut crate::spare::Tables::default());
        let mut task = por::ForkPoint::default();
        task.sleep.insert(second, forged);
        let frame = Reduction::<VmProc>::adopt(&mut red, &mut task);
        let (mut arena, mut tally) = (Vec::new(), ftobs::MetricsSnapshot::default());
        let choices = m.choices();
        Reduction::<VmProc>::expand(&mut red, &m, &choices, frame, &mut arena, &mut tally);
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
