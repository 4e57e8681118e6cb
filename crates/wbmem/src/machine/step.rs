//! The step rule: what a schedule element does in the current
//! configuration ([`Action`]), and doing it — reads, writes, fences,
//! CAS/swap, commits, returns — with their RMR accounting and events.
//! Every mutation goes through the recording methods of `trail`, so the
//! same code serves [`Machine::step`] and [`Machine::step_recorded`].

use super::trail::StepAcc;
use super::{Machine, MachineError, StepOutcome};
use crate::counters::bit;
use crate::event::{Event, EventKind};
use crate::process::{Poised, Process};
use crate::reg::{ProcId, RegId};
use crate::sched::SchedElem;
use crate::value::Value;

/// What a schedule element does in the current configuration:
/// [`Machine::step`]'s three-case rule, resolved.
#[derive(Clone, Copy)]
pub(super) enum Action {
    /// Nothing: the process is in a final state, or may not crash.
    NoOp,
    /// Crash the process.
    Crash,
    /// Commit the buffered write to this register: the element names it,
    /// or the process is poised at a fence, CAS or swap over a non-empty
    /// buffer and this is the register that drains next.
    Commit(RegId),
    /// Perform the poised operation (never [`Poised::Done`]).
    Op(Poised),
}

impl<P: Process> Machine<P> {
    /// Apply one schedule element, following the paper's rule:
    ///
    /// 1. If the element names a register `R` and `p` has a committable
    ///    buffered write to `R`, the step commits it.
    /// 2. Otherwise, if `p` is poised at `fence()` with a non-empty buffer,
    ///    the step commits the write to the smallest buffered register
    ///    (oldest, under TSO).
    /// 3. Otherwise the step performs `p`'s poised operation (read, write,
    ///    fence, or return). If `p` is in a final state, nothing happens.
    ///
    /// A spinning process re-reads a register that has not changed, and
    /// the read changes nothing: not the process, not its cache. When
    /// `p`'s last step was such a read, taken by this method, the machine
    /// keeps its value as `p`'s *idle-read memo*, and `p`'s next element
    /// is answered from it if the element is no crash, names no
    /// committable register, and the read would return the same value
    /// (buffer first, then memory): the step counts a read and emits a
    /// local `Read` event without advancing `p`. The result is exactly the
    /// full rule's. `p` is unchanged, so it is poised at the same read;
    /// the same value makes the advance idle again; and the pair is `p`'s
    /// cache's last, which only `p`'s own steps move, so the read is local
    /// and observing it again changes nothing. Every other step of `p`
    /// drops the memo, and so does [`step_recorded`](Self::step_recorded),
    /// which never sets it, and [`undo`](Self::undo), so a search walks the
    /// full rule. [`run_round_robin`](Self::run_round_robin) goes further
    /// and skips a process with its memo set until its register is
    /// stored to.
    pub fn step(&mut self, elem: SchedElem) -> StepOutcome {
        self.fp = None;
        if let Some(out) = self.reread(elem) {
            return out;
        }
        let action = self.resolve(elem);
        self.perform::<false>(elem.proc, action, &mut StepAcc::default())
    }

    /// The step of `elem` answered from its process's idle-read memo, if
    /// the memo answers it (see [`step`](Self::step)); the memo is dropped
    /// otherwise.
    #[inline]
    fn reread(&mut self, elem: SchedElem) -> Option<StepOutcome> {
        let p = elem.proc;
        let slot = &mut self.procs[p.index()];
        let value = slot.idle_read.take()?;
        let Poised::Read(reg) = slot.prog.poised() else {
            return None;
        };
        if elem.crash || elem.reg.is_some_and(|r| slot.buffer.can_commit(r)) {
            return None;
        }
        let (now, from_memory) = match slot.buffer.read(reg) {
            Some(v) => (v, false),
            None => (self.mem.get(reg).unwrap_or(Value::Bot), true),
        };
        if now != value {
            return None;
        }
        slot.idle_read = Some(value);
        let bits = if from_memory {
            bit::READS
        } else {
            bit::READS | bit::BUFFER_READS
        };
        self.count::<false>(p, bits, &mut StepAcc::default());
        Some(self.emit(
            p,
            EventKind::Read {
                reg,
                value,
                from_memory,
                remote: false,
            },
        ))
    }

    /// What `elem` does here: the step rule's case analysis, shared by the
    /// step itself and by [`choice_footprint`](Self::choice_footprint)'s
    /// prediction of it.
    #[inline]
    pub(super) fn resolve(&self, elem: SchedElem) -> Action {
        let slot = &self.procs[elem.proc.index()];
        if slot.returned.is_some() {
            return Action::NoOp;
        }
        if elem.crash {
            return if self.may_crash(slot) {
                Action::Crash
            } else {
                Action::NoOp
            };
        }
        if let Some(reg) = elem.reg.filter(|&r| slot.buffer.can_commit(r)) {
            return Action::Commit(reg);
        }
        let poised = slot.prog.poised();
        match poised {
            // A CAS or swap orders the store buffer like a fence: drain
            // first.
            Poised::Fence | Poised::Cas { .. } | Poised::Swap { .. } => {
                match slot.buffer.fence_commit_target() {
                    Some(target) => Action::Commit(target),
                    None => Action::Op(poised),
                }
            }
            Poised::Done => Action::NoOp,
            Poised::Read(_) | Poised::Write(..) | Poised::Return(_) => Action::Op(poised),
        }
    }

    pub(super) fn perform<const REC: bool>(
        &mut self,
        p: ProcId,
        action: Action,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        match action {
            Action::NoOp | Action::Op(Poised::Done) => StepOutcome::NoOp,
            Action::Crash => self.do_crash::<REC>(p, acc),
            Action::Commit(reg) => self.do_commit::<REC>(p, reg, acc),
            Action::Op(Poised::Fence) => {
                self.count::<REC>(p, bit::FENCES, acc);
                self.advance::<REC>(p, None, acc);
                self.emit(p, EventKind::Fence)
            }
            Action::Op(Poised::Cas { reg, expected, new }) => {
                self.do_cas::<REC>(p, reg, expected, new, acc)
            }
            Action::Op(Poised::Swap { reg, new }) => self.do_swap::<REC>(p, reg, new, acc),
            Action::Op(Poised::Read(reg)) => self.do_read::<REC>(p, reg, acc),
            Action::Op(Poised::Write(reg, value)) => self.do_write::<REC>(p, reg, value, acc),
            Action::Op(Poised::Return(value)) => {
                self.finish::<REC>(p, value, acc);
                self.emit(p, EventKind::Return { value })
            }
        }
    }

    fn do_read<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        let (value, from_memory) = match self.procs[p.index()].buffer.read(reg) {
            Some(v) => (v, false),
            None => (self.memory(reg), true),
        };
        let local = self.observe_read::<REC>(p, reg, value);
        let mut bits = bit::READS;
        if !from_memory {
            bits |= bit::BUFFER_READS;
        }
        if !local {
            bits |= bit::REMOTE_READS | bit::RMRS;
        }
        self.count::<REC>(p, bits, acc);
        // Only a plain step memoizes (see `step`).
        if self.advance::<REC>(p, Some(value), acc) && !REC {
            self.procs[p.index()].idle_read = Some(value);
        }
        self.emit(
            p,
            EventKind::Read {
                reg,
                value,
                from_memory,
                remote: !local,
            },
        )
    }

    fn do_write<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        value: Value,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        let value = self.stamped::<REC>(value, acc);
        self.count::<REC>(p, bit::WRITES, acc);
        self.observe::<REC>(p, reg, value);
        self.advance::<REC>(p, None, acc);
        if self.config.model.buffers_writes() {
            let undo = self.procs[p.index()].buffer.push_recorded(reg, value);
            self.buffer_mutated::<REC>(p, undo, Some(value), acc);
            self.emit(p, EventKind::Write { reg, value })
        } else {
            // SC: the write commits immediately; record both effects.
            if self.config.record_trace {
                self.trace.push(Event {
                    proc: p,
                    kind: EventKind::Write { reg, value },
                });
            }
            self.commit_to_memory::<REC>(p, reg, value, acc)
        }
    }

    fn do_cas<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        expected: u64,
        new: Value,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        debug_assert!(
            self.procs[p.index()].buffer.is_empty(),
            "CAS requires a drained buffer"
        );
        let observed = self.memory(reg);
        let success = observed.payload() == expected;
        let (stored, local) = if success {
            // A successful CAS writes memory: charge it like a commit.
            let value = self.stamped::<REC>(new, acc);
            let local = self.store::<REC>(p, reg, value, acc);
            self.observe::<REC>(p, reg, value);
            self.observe::<REC>(p, reg, observed);
            (Some(value), local)
        } else {
            // A failed CAS only observes: charge it like a read.
            (None, self.observe_read::<REC>(p, reg, observed))
        };
        let remote = if local {
            0
        } else {
            bit::REMOTE_CAS | bit::RMRS
        };
        self.count::<REC>(p, bit::CAS_OPS | remote, acc);
        self.advance::<REC>(p, Some(observed), acc);
        self.emit(
            p,
            EventKind::Cas {
                reg,
                observed,
                stored,
                remote: !local,
            },
        )
    }

    fn do_swap<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        new: Value,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        debug_assert!(
            self.procs[p.index()].buffer.is_empty(),
            "swap requires a drained buffer"
        );
        let observed = self.memory(reg);
        // A swap always writes memory: charge it by the commit rule.
        let stored = self.stamped::<REC>(new, acc);
        let local = self.store::<REC>(p, reg, stored, acc);
        self.observe::<REC>(p, reg, stored);
        self.observe::<REC>(p, reg, observed);
        let remote = if local {
            0
        } else {
            bit::REMOTE_SWAPS | bit::RMRS
        };
        self.count::<REC>(p, bit::SWAP_OPS | remote, acc);
        self.advance::<REC>(p, Some(observed), acc);
        self.emit(
            p,
            EventKind::Swap {
                reg,
                observed,
                stored,
                remote: !local,
            },
        )
    }

    fn do_commit<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        let (value, undo) = self.procs[p.index()].buffer.take_recorded(reg);
        let Some(value) = value else {
            // Callers establish committability first; reaching this arm is a
            // machine bug, not a schedulable outcome.
            debug_assert!(false, "do_commit requires a committable buffered write");
            return StepOutcome::NoOp;
        };
        self.buffer_mutated::<REC>(p, undo, None, acc);
        self.commit_to_memory::<REC>(p, reg, value, acc)
    }

    pub(super) fn commit_to_memory<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        value: Value,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        let local = self.store::<REC>(p, reg, value, acc);
        let remote = if local {
            0
        } else {
            bit::REMOTE_COMMITS | bit::RMRS
        };
        self.count::<REC>(p, bit::COMMITS | remote, acc);
        self.emit(
            p,
            EventKind::Commit {
                reg,
                value,
                remote: !local,
            },
        )
    }

    pub(super) fn emit(&mut self, p: ProcId, kind: EventKind) -> StepOutcome {
        let event = Event { proc: p, kind };
        if self.config.record_trace {
            self.trace.push(event.clone());
        }
        StepOutcome::Stepped(event)
    }

    /// Like [`step`](Self::step), but validates the element first and
    /// returns a typed error instead of panicking when the element names a
    /// process the machine does not have.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoSuchProc`] if `elem.proc` is outside `0..n`.
    pub fn try_step(&mut self, elem: SchedElem) -> Result<StepOutcome, MachineError> {
        if elem.proc.index() >= self.procs.len() {
            return Err(MachineError::NoSuchProc {
                proc: elem.proc,
                n: self.procs.len(),
            });
        }
        Ok(self.step(elem))
    }

    /// Apply a whole schedule; returns the number of elements that produced
    /// a step.
    pub fn run_schedule(&mut self, schedule: &[SchedElem]) -> usize {
        schedule
            .iter()
            .filter(|&&e| matches!(self.step(e), StepOutcome::Stepped(_)))
            .count()
    }

    /// Apply a whole schedule through [`try_step`](Self::try_step); returns
    /// the number of effective steps, or the first validation error.
    ///
    /// # Errors
    ///
    /// The first [`MachineError`] any element produces.
    pub fn try_run_schedule(&mut self, schedule: &[SchedElem]) -> Result<usize, MachineError> {
        let mut steps = 0;
        for &e in schedule {
            if matches!(self.try_step(e)?, StepOutcome::Stepped(_)) {
                steps += 1;
            }
        }
        Ok(steps)
    }
}
