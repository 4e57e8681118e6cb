//! Crash steps: when a process may crash, and what the crash does to its
//! buffer, program and budget.

use super::trail::StepAcc;
use super::{CrashSemantics, Machine, ProcSlot, StepOutcome};
use crate::buffer::WriteBuffer;
use crate::counters::bit;
use crate::event::EventKind;
use crate::process::Process;
use crate::reg::{ProcId, RegId};
use crate::value::Value;

impl<P: Process> Machine<P> {
    /// Whether `slot`'s process may be crashed now: crash injection is on,
    /// its budget is not spent, and its program is recoverable.
    pub(super) fn may_crash(&self, slot: &ProcSlot<P>) -> bool {
        self.config.max_crashes > 0
            && slot.crashes < self.config.max_crashes
            && slot.prog.recoverable()
    }

    /// Crash process `p` (which [`may_crash`](Self::may_crash)): apply the
    /// configured buffer semantics, wipe the program back to its recovery
    /// entry, spend one unit of crash budget.
    pub(super) fn do_crash<const REC: bool>(
        &mut self,
        p: ProcId,
        acc: &mut StepAcc,
    ) -> StepOutcome {
        let i = p.index();
        // The buffer is empty afterwards under either semantics.
        let empty = WriteBuffer::new(self.config.model);
        let buffer = std::mem::replace(&mut self.procs[i].buffer, empty);
        // A draining crash flushes in fence-drain order: FIFO under TSO,
        // smallest register first under PSO. Each commit is charged and
        // traced like any other, and its pre-images land on the trail
        // above the crash record, which must therefore be logged first.
        let pending: Vec<(RegId, Value)> = match self.config.crash_semantics {
            CrashSemantics::DrainBuffer => buffer.iter().collect(),
            CrashSemantics::DiscardBuffer => Vec::new(),
        };
        let lost = buffer.len() - pending.len();
        self.buffer_wiped::<REC>(p, buffer, acc);
        for (reg, value) in pending {
            self.commit_to_memory::<REC>(p, reg, value, acc);
        }
        self.save_prog::<REC>(p, acc);
        self.procs[i].prog.crash_recover();
        self.procs[i].crashes += 1;
        self.count::<REC>(p, bit::CRASHES, acc);
        self.emit(p, EventKind::Crash { lost })
    }
}
