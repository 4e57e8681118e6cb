//! Crash steps: when a process may crash, and what the crash does to its
//! buffer, program and budget.

use super::trail::StepAcc;
use super::{CrashSemantics, Machine, ProcSlot, StepOutcome};
use crate::counters::bit;
use crate::event::EventKind;
use crate::process::Process;
use crate::reg::ProcId;

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
        // The buffer is empty afterwards under either semantics. Its
        // pre-image is logged first: a draining crash flushes in
        // fence-drain order — FIFO under TSO, smallest register first
        // under PSO — charging and tracing each commit like any other, and
        // their pre-images land on the trail above the crash record.
        self.buffer_wiped::<REC>(p, acc);
        let lost = match self.config.crash_semantics {
            CrashSemantics::DrainBuffer => {
                while let Some((reg, value)) = self.procs[i].buffer.pop_drain() {
                    self.commit_to_memory::<REC>(p, reg, value, acc);
                }
                0
            }
            CrashSemantics::DiscardBuffer => {
                let lost = self.procs[i].buffer.len();
                self.procs[i].buffer.clear();
                lost
            }
        };
        self.save_prog::<REC>(p, acc);
        self.procs[i].prog.crash_recover();
        self.procs[i].crashes += 1;
        self.count::<REC>(p, bit::CRASHES, acc);
        self.emit(p, EventKind::Crash { lost })
    }
}
