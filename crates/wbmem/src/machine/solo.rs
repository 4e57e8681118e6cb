//! Running one process alone: for real ([`Machine::run_solo`]) or as a
//! question about the current configuration ([`Machine::solo_outcome`]).

use std::collections::{HashMap, HashSet};

use super::{Machine, SoloOutcome};
use crate::buffer::WriteBuffer;
use crate::process::{Poised, Process};
use crate::reg::{ProcId, RegId};
use crate::sched::SchedElem;
use crate::value::Value;

impl<P: Process> Machine<P> {
    /// Run `(p, ⊥)` elements until `p` finishes or `max_steps` effective
    /// steps elapse. Returns the solo outcome; the machine is mutated.
    pub fn run_solo(&mut self, p: ProcId, max_steps: usize) -> SoloOutcome {
        for steps in 0..max_steps {
            if let Some(ret) = self.return_value(p) {
                return SoloOutcome::Terminates { steps, ret };
            }
            self.step(SchedElem::op(p));
        }
        match self.return_value(p) {
            Some(ret) => SoloOutcome::Terminates {
                steps: max_steps,
                ret,
            },
            None => SoloOutcome::Unknown,
        }
    }

    /// Decide whether `p` would enter a final state running alone from the
    /// current configuration, **without mutating the machine**.
    ///
    /// Since processes are deterministic and a solo run with eager commits
    /// is unique, divergence is detected exactly: if the solo run revisits a
    /// configuration (process state, buffer, and memory overlay), it spins
    /// forever. `max_steps` is a safety bound for genuinely unbounded
    /// progress; exceeding it yields [`SoloOutcome::Unknown`].
    #[must_use]
    pub fn solo_outcome(&self, p: ProcId, max_steps: usize) -> SoloOutcome {
        if let Some(ret) = self.return_value(p) {
            return SoloOutcome::Terminates { steps: 0, ret };
        }
        let slot = &self.procs[p.index()];
        let mut prog = slot.prog.clone();
        let mut buffer = slot.buffer.clone();
        // Commits during the solo run land in an overlay so we never clone
        // or mutate shared memory. (The std tables here hash with
        // `RandomState`: a solo run is not on the step/undo path, and its
        // containers were left out of the flat-state rewrite.)
        let mut overlay: HashMap<RegId, Value> = HashMap::new();
        type SoloState<P> = (P, WriteBuffer, Vec<(RegId, Value)>);
        let mut seen: HashSet<SoloState<P>> = HashSet::new();

        for steps in 0..max_steps {
            let mut overlay_key: Vec<(RegId, Value)> =
                overlay.iter().map(|(&r, &v)| (r, v)).collect();
            overlay_key.sort_unstable();
            if !seen.insert((prog.clone(), buffer.clone(), overlay_key)) {
                return SoloOutcome::Diverges { steps };
            }
            match prog.poised() {
                Poised::Return(ret) => return SoloOutcome::Terminates { steps, ret },
                Poised::Done => {
                    // A `Process` reporting Done without the machine having
                    // seen its return step cannot occur for well-formed
                    // programs; treat it as termination with value 0.
                    return SoloOutcome::Terminates { steps, ret: 0 };
                }
                Poised::Fence => {
                    if let Some(reg) = buffer.fence_commit_target() {
                        let Some(v) = buffer.take(reg) else {
                            debug_assert!(false, "fence target is committable");
                            return SoloOutcome::Unknown;
                        };
                        overlay.insert(reg, v);
                    } else {
                        prog.advance(None);
                    }
                }
                Poised::Cas { reg, expected, new } => {
                    if let Some(target) = buffer.fence_commit_target() {
                        let Some(v) = buffer.take(target) else {
                            debug_assert!(false, "fence target is committable");
                            return SoloOutcome::Unknown;
                        };
                        overlay.insert(target, v);
                    } else {
                        let observed = overlay
                            .get(&reg)
                            .copied()
                            .unwrap_or_else(|| self.memory(reg));
                        if observed.payload() == expected {
                            overlay.insert(reg, new);
                        }
                        prog.advance(Some(observed));
                    }
                }
                Poised::Swap { reg, new } => {
                    if let Some(target) = buffer.fence_commit_target() {
                        let Some(v) = buffer.take(target) else {
                            debug_assert!(false, "fence target is committable");
                            return SoloOutcome::Unknown;
                        };
                        overlay.insert(target, v);
                    } else {
                        let observed = overlay
                            .get(&reg)
                            .copied()
                            .unwrap_or_else(|| self.memory(reg));
                        overlay.insert(reg, new);
                        prog.advance(Some(observed));
                    }
                }
                Poised::Read(reg) => {
                    let v = buffer
                        .read(reg)
                        .or_else(|| overlay.get(&reg).copied())
                        .unwrap_or_else(|| self.memory(reg));
                    prog.advance(Some(v));
                }
                Poised::Write(reg, value) => {
                    // Tagging is irrelevant to control flow (programs see
                    // only payloads), so solo runs skip it.
                    prog.advance(None);
                    if self.config.model.buffers_writes() {
                        buffer.push(reg, value);
                    } else {
                        overlay.insert(reg, value);
                    }
                }
            }
        }
        SoloOutcome::Unknown
    }
}
