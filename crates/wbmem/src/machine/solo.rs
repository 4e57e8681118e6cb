//! Running one process alone: for real ([`Machine::run_solo`]) or as a
//! question about the current configuration ([`Machine::solo_outcome`]).

use super::{Machine, SoloOutcome};
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
    /// progress; exceeding it yields [`SoloOutcome::Unknown`]. A revisit is
    /// noticed at most about three times as many steps in as it happens
    /// (see [`solo_outcome_reading`](Self::solo_outcome_reading)).
    #[must_use]
    pub fn solo_outcome(&self, p: ProcId, max_steps: usize) -> SoloOutcome {
        self.solo_outcome_reading(p, max_steps, |_| {})
    }

    /// [`solo_outcome`](Self::solo_outcome), calling `read_memory(reg)` for
    /// every value the solo run takes from shared memory (a read that
    /// neither `p`'s buffer nor the run's own commits serve, and the
    /// observed value of a CAS or swap), repeats included. The outcome is a
    /// function of `p`'s state, `p`'s buffer and the memory of exactly
    /// those registers: a store to any other register leaves it unchanged.
    ///
    /// The run keeps one saved state, refreshed (with `clone_from`) after
    /// 1, 2, 4, … steps, and compares every later state against it
    /// (Brent's cycle check). Once the saved state lies on the cycle and
    /// the window is at least the cycle's length, the next pass round the
    /// cycle meets it. So no step allocates or hashes, and a revisit at
    /// step `t` is reported by step ~3t.
    pub fn solo_outcome_reading(
        &self,
        p: ProcId,
        max_steps: usize,
        mut read_memory: impl FnMut(RegId),
    ) -> SoloOutcome {
        if let Some(ret) = self.return_value(p) {
            return SoloOutcome::Terminates { steps: 0, ret };
        }
        let slot = &self.procs[p.index()];
        let mut prog = slot.prog.clone();
        let mut buffer = slot.buffer.clone();
        // Commits during the solo run land in an overlay, sorted by
        // register, so we never clone or mutate shared memory.
        let mut overlay: Vec<(RegId, Value)> = Vec::new();
        let mut saved = (prog.clone(), buffer.clone(), overlay.clone());
        let mut window = 1;
        let mut since_saved = 0;

        for steps in 0..max_steps {
            if since_saved > 0 && prog == saved.0 && buffer == saved.1 && overlay == saved.2 {
                return SoloOutcome::Diverges { steps };
            }
            if since_saved == window {
                saved.0.clone_from(&prog);
                saved.1.clone_from(&buffer);
                saved.2.clone_from(&overlay);
                window *= 2;
                since_saved = 0;
            }
            since_saved += 1;
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
                        overlay_store(&mut overlay, reg, v);
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
                        overlay_store(&mut overlay, target, v);
                    } else {
                        let observed = overlay_load(&overlay, reg).unwrap_or_else(|| {
                            read_memory(reg);
                            self.memory(reg)
                        });
                        if observed.payload() == expected {
                            overlay_store(&mut overlay, reg, new);
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
                        overlay_store(&mut overlay, target, v);
                    } else {
                        let observed = overlay_load(&overlay, reg).unwrap_or_else(|| {
                            read_memory(reg);
                            self.memory(reg)
                        });
                        overlay_store(&mut overlay, reg, new);
                        prog.advance(Some(observed));
                    }
                }
                Poised::Read(reg) => {
                    let v = buffer
                        .read(reg)
                        .or_else(|| overlay_load(&overlay, reg))
                        .unwrap_or_else(|| {
                            read_memory(reg);
                            self.memory(reg)
                        });
                    prog.advance(Some(v));
                }
                Poised::Write(reg, value) => {
                    // Tagging is irrelevant to control flow (programs see
                    // only payloads), so solo runs skip it.
                    prog.advance(None);
                    if self.config.model.buffers_writes() {
                        buffer.push(reg, value);
                    } else {
                        overlay_store(&mut overlay, reg, value);
                    }
                }
            }
        }
        SoloOutcome::Unknown
    }
}

/// The value a solo run's own commits left in `reg`, if any.
fn overlay_load(overlay: &[(RegId, Value)], reg: RegId) -> Option<Value> {
    overlay
        .binary_search_by_key(&reg, |&(r, _)| r)
        .ok()
        .map(|i| overlay[i].1)
}

/// Record a solo run's commit of `value` to `reg`, keeping `overlay` sorted.
fn overlay_store(overlay: &mut Vec<(RegId, Value)>, reg: RegId, value: Value) {
    match overlay.binary_search_by_key(&reg, |&(r, _)| r) {
        Ok(i) => overlay[i].1 = value,
        Err(i) => overlay.insert(i, (reg, value)),
    }
}
