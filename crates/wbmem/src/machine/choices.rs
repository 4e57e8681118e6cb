//! The enabled schedule elements of a configuration, the dependence
//! footprint of each, and path replay over them.

use super::step::Action;
use super::{CrashSemantics, Machine, StepOutcome};
use crate::footprint::{Footprint, FootprintKind};
use crate::process::{Poised, Process};
use crate::reg::ProcId;
use crate::sched::SchedElem;

impl<P: Process> Machine<P> {
    /// The dependence footprint of schedule element `elem` in the current
    /// configuration, *without* taking the step: which shared cell the step
    /// would read, write, or commit, classified for the independence
    /// relation ([`Footprint::independent`]).
    ///
    /// The prediction starts from the same case analysis as
    /// [`step`](Self::step) itself, and
    /// [`step_recorded`](Self::step_recorded) stamps it on the token it
    /// returns; a disabled element (no-op) reports `Local`.
    #[must_use]
    pub fn choice_footprint(&self, elem: SchedElem) -> Footprint {
        Footprint {
            proc: elem.proc,
            kind: self.footprint_of(elem.proc, self.resolve(elem)),
        }
    }

    /// The footprint of `p` performing `action`.
    #[inline]
    pub(super) fn footprint_of(&self, p: ProcId, action: Action) -> FootprintKind {
        let slot = &self.procs[p.index()];
        match action {
            Action::NoOp => FootprintKind::Local,
            Action::Crash => FootprintKind::Crash {
                drains: self.config.crash_semantics == CrashSemantics::DrainBuffer
                    && !slot.buffer.is_empty(),
            },
            Action::Commit(reg) => FootprintKind::Commit(reg),
            Action::Op(poised) => match poised {
                Poised::Fence | Poised::Done => FootprintKind::Local,
                Poised::Cas { reg, expected, .. } => {
                    if self.memory(reg).payload() == expected {
                        FootprintKind::Write(reg)
                    } else {
                        FootprintKind::Read(reg)
                    }
                }
                Poised::Swap { reg, .. } => FootprintKind::Write(reg),
                Poised::Read(reg) => match slot.buffer.read(reg) {
                    Some(_) => FootprintKind::Local,
                    None => FootprintKind::Read(reg),
                },
                Poised::Write(reg, _) => {
                    if self.config.model.buffers_writes() {
                        FootprintKind::Local
                    } else {
                        FootprintKind::Write(reg)
                    }
                }
                Poised::Return(_) => FootprintKind::Return,
            },
        }
    }

    /// Every schedule element that would produce a step from the current
    /// configuration, with duplicates removed: all committable buffered
    /// writes of every unfinished process, plus `(p, ⊥)` where that is not
    /// just a synonym for the smallest-register fence commit, plus a crash
    /// of every process with crash budget left (when crash injection is
    /// enabled).
    #[must_use]
    pub fn choices(&self) -> Vec<SchedElem> {
        let mut out = Vec::new();
        self.choices_into(&mut out);
        out
    }

    /// [`choices`](Self::choices) into a caller-provided buffer (cleared
    /// first), so a search loop can reuse one allocation across nodes.
    pub fn choices_into(&self, out: &mut Vec<SchedElem>) {
        out.clear();
        for (i, slot) in self.procs.iter().enumerate() {
            if slot.returned.is_some() {
                continue;
            }
            let p = ProcId::from(i);
            slot.buffer
                .for_each_commit_choice(|reg| out.push(SchedElem::commit(p, reg)));
            let fence_blocked = matches!(
                slot.prog.poised(),
                Poised::Fence | Poised::Cas { .. } | Poised::Swap { .. }
            ) && !slot.buffer.is_empty();
            if !fence_blocked {
                out.push(SchedElem::op(p));
            }
            // A crash is schedulable even when `p` is fence-blocked —
            // crash-at-a-fence (writes still buffered) is exactly the
            // hazard recoverable algorithms must survive.
            if self.may_crash(slot) {
                out.push(SchedElem::crash(p));
            }
        }
    }

    /// Re-materialize a previously explored state by replaying `path`
    /// from the current configuration: every element must be one of the
    /// state's [`choices`](Self::choices) and must produce an effective
    /// step. This is the work-stealing explorers' fork-point replay —
    /// O(path) instead of cloning another worker's machine, validated
    /// against [`choices_into`](Self::choices_into) at each step so a
    /// stale or corrupted path is detected instead of silently steered
    /// into a different state. `scratch` is the caller's reusable choice
    /// buffer.
    ///
    /// Returns `true` iff the whole path applied. On `false` the machine
    /// is left mid-path; callers must discard it (the explorers treat
    /// this as a logic error and panic into their sequential fallback).
    #[must_use]
    pub fn replay_path(&mut self, path: &[SchedElem], scratch: &mut Vec<SchedElem>) -> bool {
        for &e in path {
            self.choices_into(scratch);
            if !scratch.contains(&e) || matches!(self.step(e), StepOutcome::NoOp) {
                return false;
            }
        }
        true
    }
}
