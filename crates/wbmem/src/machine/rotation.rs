//! Running every process in rotation ([`Machine::run_round_robin`]), with
//! the processes that can only re-read an unchanged value parked until
//! their register is written.

use super::{Machine, StepOutcome};
use crate::event::EventKind;
use crate::process::{Poised, Process};
use crate::reg::{ProcId, RegId, DENSE_REGS};
use crate::sched::SchedElem;

/// No process: the end of a parked list.
const NONE: u32 = u32::MAX;

/// The rotation's bookkeeping: which processes take their slots for real,
/// and which sit out parked on a register.
struct Rotation {
    /// One bit per process that takes its slot for real.
    active: Vec<u64>,
    /// Processes that have not returned, parked ones included.
    live: usize,
    /// Per process: the round it parked in.
    parked_at: Vec<u64>,
    /// Per process: the next process parked on the same register.
    next: Vec<u32>,
    /// Per register below [`DENSE_REGS`]: the last process parked on it.
    head: Vec<u32>,
}

impl Rotation {
    fn new<P: Process>(m: &Machine<P>) -> Self {
        let n = m.n();
        let mut active = vec![0u64; n.div_ceil(64)];
        let mut live = 0;
        for p in (0..n).filter(|&p| !m.is_done(ProcId::from(p))) {
            active[p / 64] |= 1 << (p % 64);
            live += 1;
        }
        Rotation {
            active,
            live,
            parked_at: vec![0; n],
            next: vec![NONE; n],
            head: Vec::new(),
        }
    }

    /// The first active process from `from` on, in id order.
    fn next_active(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.active.get(w)? & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.active.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    fn deactivate(&mut self, p: usize) {
        self.active[p / 64] &= !(1 << (p % 64));
    }

    fn activate(&mut self, p: usize) {
        self.active[p / 64] |= 1 << (p % 64);
    }

    fn park(&mut self, p: usize, reg: RegId, round: u64) {
        let r = reg.index();
        if self.head.len() <= r {
            self.head.resize(r + 1, NONE);
        }
        self.deactivate(p);
        self.parked_at[p] = round;
        self.next[p] = self.head[r];
        self.head[r] = p as u32;
    }
}

impl<P: Process> Machine<P> {
    /// Round-robin the processes until every one finishes or `max_steps`
    /// schedule elements have been issued. Returns `true` on completion.
    ///
    /// Each round gives one `(p, ⊥)` element to every process that has not
    /// returned, in id order; a process leaves the rotation with its
    /// return. `max_steps` counts the elements issued.
    ///
    /// Most elements of a contended run go to spinners re-reading an
    /// unchanged register, which [`step`](Self::step) answers from the
    /// idle-read memo with nothing but a counted read. So a process whose
    /// step leaves its memo set is *parked* on the register `r` it is
    /// poised to read, and skipped until a step stores to `r` (a commit, a
    /// successful CAS or a swap) and wakes it. Each slot it sat out is
    /// added to its reads (and buffered reads, if its value is buffered)
    /// in one add. That is exactly what the skipped elements would have
    /// done: a parked process takes no step, so its state and buffer are
    /// frozen, and only a store to `r` can change the value its read
    /// returns. A woken process takes a real step, whose memo checks the
    /// value again. When no process is left to take a step, every
    /// remaining round is idle and charged at once. A machine that records
    /// its trace never parks (every read event must be in the trace), nor
    /// does a process poised to read a register at or above
    /// [`DENSE_REGS`].
    pub fn run_round_robin(&mut self, max_steps: usize) -> bool {
        let park = !self.config.record_trace;
        let mut rot = Rotation::new(self);
        let mut budget = max_steps;
        let mut round = 0u64;
        while rot.live > 0 && budget > 0 {
            // The last round, cut short by the budget, issues its elements
            // one by one, to the parked processes too.
            let last = budget < rot.live;
            if last {
                self.wake_all(&mut rot, round);
            } else if rot.next_active(0).is_none() {
                // Nobody can store: every round the budget pays for is idle.
                let idle = budget / rot.live;
                budget -= idle * rot.live;
                round += idle as u64;
                continue;
            } else {
                budget -= rot.live;
            }
            let mut from = 0;
            while let Some(p) = rot.next_active(from) {
                if last {
                    if budget == 0 {
                        break;
                    }
                    budget -= 1;
                }
                from = p + 1;
                let out = self.step(SchedElem::op(ProcId::from(p)));
                let slot = &self.procs[p];
                if slot.returned.is_some() {
                    rot.deactivate(p);
                    rot.live -= 1;
                } else if park && slot.idle_read.is_some() {
                    if let Poised::Read(reg) = slot.prog.poised() {
                        if reg.index() < DENSE_REGS {
                            rot.park(p, reg, round);
                        }
                    }
                }
                if let Some(reg) = stored_reg(&out) {
                    self.wake(&mut rot, reg, p, round);
                }
            }
            round += 1;
        }
        self.wake_all(&mut rot, round);
        rot.live == 0
    }

    /// Wake every process parked on `reg` in `round`, in the slot of
    /// process `writer`, which just stored to it. Each sat out the rounds
    /// between the one it parked in and this one, and this round's slot too
    /// if it comes before the writer's; one after it takes that slot.
    fn wake(&mut self, rot: &mut Rotation, reg: RegId, writer: usize, round: u64) {
        let Some(head) = rot.head.get_mut(reg.index()) else {
            return;
        };
        let mut q = std::mem::replace(head, NONE);
        while q != NONE {
            let i = q as usize;
            let sat_out = round + u64::from(i < writer) - rot.parked_at[i] - 1;
            self.charge_idle_reads(i, sat_out);
            rot.activate(i);
            q = rot.next[i];
        }
    }

    /// Wake every parked process at the start of `round`.
    fn wake_all(&mut self, rot: &mut Rotation, round: u64) {
        for r in 0..rot.head.len() {
            self.wake(rot, RegId(r as u32), 0, round);
        }
    }

    /// Count `k` idle re-reads of process `i`, parked at its poised read
    /// (nothing, on a machine that [forgot](Self::forget_locality) its
    /// accounting).
    fn charge_idle_reads(&mut self, i: usize, k: u64) {
        if self.locality.is_none() {
            return;
        }
        let slot = &self.procs[i];
        let Poised::Read(reg) = slot.prog.poised() else {
            unreachable!("a parked process is poised to read");
        };
        let counters = self.counters.proc_mut(i);
        counters.reads += k;
        if slot.buffer.read(reg).is_some() {
            counters.buffer_reads += k;
        }
    }
}

/// The register a step stored to in shared memory, if it stored.
fn stored_reg(out: &StepOutcome) -> Option<RegId> {
    match out.event()?.kind {
        EventKind::Commit { reg, .. }
        | EventKind::Swap { reg, .. }
        | EventKind::Cas {
            reg,
            stored: Some(_),
            ..
        } => Some(reg),
        _ => None,
    }
}
