//! The undo trail: what [`Machine::step_recorded`] saves, where, and how
//! [`Machine::undo`] puts it back.
//!
//! A recorded step appends its pre-images to LIFO storage the machine owns
//! — a fixed-size [`StepRecord`], the typed [`PreImage`]s of what it
//! overwrote, the program state it advanced past — and hands the caller an
//! [`UndoToken`] that only marks the spot. The step rule reports what it
//! changes through the small recording methods at the end of this file;
//! with `REC` off (plain [`Machine::step`]) each compiles to the bare
//! mutation.

use std::marker::PhantomData;

use super::step::Action;
use super::{entry_fp, Machine, StepOutcome, FP_BUFFERED, FP_MEM};
use crate::buffer::{BufferUndo, WriteBuffer};
use crate::counters::ProcCounters;
use crate::footprint::{Footprint, FootprintKind};
use crate::process::Process;
use crate::reg::{ProcId, RegId};
use crate::sched::SchedElem;
use crate::value::Value;

/// The receipt for one [`Machine::step_recorded`] call: hand it back to
/// [`Machine::undo`] to reverse the step.
///
/// The step's pre-images — its mutation footprint is small: one process's
/// program and buffer, at most one shared-memory cell, one process's
/// counters, and on a machine that keeps its locality tracker at most one
/// commit-ownership entry and two cache entries — are not in the token: the machine keeps them on its own
/// undo trail, and the token only marks where the step's record sits
/// there. Recording and reversing a step is O(footprint), not O(machine),
/// which is what makes depth-first search backtrack by undoing instead of
/// cloning whole configurations, and a token is small enough to sit in
/// every search frame.
///
/// Tokens must be applied to the machine that produced them, in reverse
/// order of the steps they record (LIFO); a clone of that machine starts
/// with an empty trail and accepts none of them.
#[derive(Debug)]
pub struct UndoToken<P> {
    /// Recorded steps on the trail below this one.
    mark: u32,
    /// The dependence footprint of the recorded step (predicted from the
    /// pre-step configuration; see [`Machine::choice_footprint`]).
    footprint: Footprint,
    _machine: PhantomData<fn(P)>,
}

impl<P> UndoToken<P> {
    /// The dependence footprint of the step this token records: which
    /// process moved and which shared cell the step read, wrote, or
    /// committed. Computed from the pre-step configuration, so it describes
    /// the step actually taken (e.g. a read reports `Local` when it was
    /// served from the process's own buffer). A token of
    /// [`Machine::step_recorded_blind`] reports `Local` whatever the step.
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        self.footprint
    }
}

/// What one recorded step did besides what its [`PreImage`]s say: the
/// [`bit`](crate::counters::bit)s of the counters it raised, plus the flags
/// below.
type Did = u32;
/// The step advanced the program: its prior state is on the process's
/// [`SavedProgs`].
const DID_PROG: Did = 1 << 13;
/// The step was the process's return.
const DID_RETURN: Did = 1 << 14;
/// The step drew a write nonce.
const DID_NONCE: Did = 1 << 15;
/// The step pushed onto or popped from a TSO queue.
const DID_QUEUE: Did = 1 << 16;
/// The step was a crash.
const DID_CRASH: Did = 1 << 17;
/// Any of these changed the moved process's fingerprint component.
const DID_PROC_COMPONENT: Did = DID_PROG | DID_RETURN | DID_QUEUE | DID_CRASH;

/// What a step in progress has done so far ([`Did`]) and the XOR of the
/// fingerprint components it removed and added, the moved process's own
/// aside. Only a recorded step fills it in.
#[derive(Default)]
pub(super) struct StepAcc {
    did: Did,
    fp_delta: u128,
}

/// The fixed-size part of one recorded step.
#[derive(Debug)]
struct StepRecord {
    /// XOR of every fingerprint component the step removed or added.
    fp_delta: u128,
    /// The moved process's fingerprint component before the step.
    proc_fp: u128,
    trace_len: usize,
    /// [`Trail::pre`] entries below the step's own.
    pre_mark: u32,
    did: Did,
}

/// One overwritten piece of state, as logged on the [`Trail`].
#[derive(Debug)]
enum PreImage {
    /// A shared-memory cell's prior content.
    Mem(RegId, Option<Value>),
    /// A commit-ownership entry's prior owner.
    Committer(RegId, Option<ProcId>),
    /// A cache entry the step newly inserted.
    Cache(RegId, Value),
    /// How to reverse the step's buffer mutation.
    Buffer(BufferUndo),
    /// What a crash wiped. A crash exceeds every per-step bound — a drain
    /// commits the whole buffer, charging a commit each — so the buffer and
    /// the counters are restored wholesale from the newest record of the
    /// trail's [`SavedCrashes`]; the cells and ownership entries the drain
    /// overwrote follow it as ordinary pre-images.
    Crash,
}

/// A crashed process's buffer, counters and crash count before the crash.
#[derive(Debug)]
struct CrashUndo {
    buffer: WriteBuffer,
    counters: ProcCounters,
    crashes: u32,
}

/// The crash records of the trail, oldest first. Records above `live` are
/// kept for reuse: saving into one copies the buffer into the record's
/// own allocation, so a crash step allocates only while the trail reaches
/// a new number of crashes.
#[derive(Debug, Default)]
struct SavedCrashes {
    slots: Vec<CrashUndo>,
    live: usize,
}

impl SavedCrashes {
    fn save(&mut self, buffer: &WriteBuffer, counters: ProcCounters, crashes: u32) {
        match self.slots.get_mut(self.live) {
            Some(slot) => {
                slot.buffer.clone_from(buffer);
                slot.counters = counters;
                slot.crashes = crashes;
            }
            None => self.slots.push(CrashUndo {
                buffer: buffer.clone(),
                counters,
                crashes,
            }),
        }
        self.live += 1;
    }

    /// The newest record, which the caller restores from.
    fn pop(&mut self) -> &CrashUndo {
        self.live -= 1;
        &self.slots[self.live]
    }
}

/// One process's saved program states, oldest first. Slots above `live`
/// are kept for reuse: saving into one is [`Clone::clone_from`], which for
/// a `fencevm` process copies registers and never touches the shared
/// program's reference count.
#[derive(Debug)]
struct SavedProgs<P> {
    slots: Vec<P>,
    live: usize,
}

impl<P> Default for SavedProgs<P> {
    fn default() -> Self {
        SavedProgs {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<P: Clone> SavedProgs<P> {
    fn save(&mut self, prog: &P) {
        match self.slots.get_mut(self.live) {
            Some(slot) => slot.clone_from(prog),
            None => self.slots.push(prog.clone()),
        }
        self.live += 1;
    }

    /// Overwrite `prog` with the newest saved state.
    fn restore(&mut self, prog: &mut P) {
        self.live -= 1;
        prog.clone_from(&self.slots[self.live]);
    }
}

/// The machine's undo trail: everything [`Machine::step_recorded`] saves
/// and [`Machine::undo`] restores, in LIFO storage that is reused as the
/// search backtracks, so a step moves nothing bulky and allocates only
/// while the trail reaches a new depth. A cloned machine starts with an
/// empty trail: tokens name positions on the trail of the machine that
/// issued them.
#[derive(Debug)]
pub(super) struct Trail<P> {
    steps: Vec<StepRecord>,
    pre: Vec<PreImage>,
    /// Indexed by process; sized on first use.
    progs: Vec<SavedProgs<P>>,
    crashes: SavedCrashes,
}

impl<P> Default for Trail<P> {
    fn default() -> Self {
        Trail {
            steps: Vec::new(),
            pre: Vec::new(),
            progs: Vec::new(),
            crashes: SavedCrashes::default(),
        }
    }
}

impl<P> Trail<P> {
    /// Drop every recorded step, keeping the storage for reuse.
    pub(super) fn clear(&mut self) {
        self.steps.clear();
        self.pre.clear();
        for saved in &mut self.progs {
            saved.live = 0;
        }
        self.crashes.live = 0;
    }

    /// Whether the trail holds no recorded step.
    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.steps.is_empty()
            && self.pre.is_empty()
            && self.progs.iter().all(|s| s.live == 0)
            && self.crashes.live == 0
    }
}

impl<P: Process> Machine<P> {
    /// Like [`step`](Self::step), but also records on the machine's undo
    /// trail what the step overwrote, and returns the [`UndoToken`] that
    /// [`undo`](Self::undo) accepts to restore the pre-step machine —
    /// counters, trace, and any caches and ownership the locality tracker
    /// keeps included — in O(footprint) time. A `NoOp` step yields a trivial (but still valid) token.
    pub fn step_recorded(&mut self, elem: SchedElem) -> (StepOutcome, UndoToken<P>) {
        let action = self.resolve(elem);
        let kind = self.footprint_of(elem.proc, action);
        self.step_onto_trail(elem.proc, action, kind)
    }

    /// [`step_recorded`](Self::step_recorded) for a caller that never reads
    /// the token's footprint: skips predicting it, and the token reports
    /// `Local`.
    pub fn step_recorded_blind(&mut self, elem: SchedElem) -> (StepOutcome, UndoToken<P>) {
        let action = self.resolve(elem);
        self.step_onto_trail(elem.proc, action, FootprintKind::Local)
    }

    fn step_onto_trail(
        &mut self,
        p: ProcId,
        action: Action,
        kind: FootprintKind,
    ) -> (StepOutcome, UndoToken<P>) {
        let i = p.index();
        self.procs[i].idle_read = None;
        let fp = self.keep_fingerprint();
        let depth = |len: usize| u32::try_from(len).expect("undo trail depth fits in u32");
        let mark = depth(self.trail.steps.len());
        let pre_mark = depth(self.trail.pre.len());
        let trace_len = self.trace.len();
        let mut acc = StepAcc::default();
        let out = self.perform::<true>(p, action, &mut acc);
        let proc_fp = self.procs[i].fp;
        if acc.did & DID_PROC_COMPONENT != 0 {
            self.procs[i].fp = self.proc_fp(i);
            acc.fp_delta ^= proc_fp ^ self.procs[i].fp;
        }
        self.fp = Some(fp ^ acc.fp_delta);
        self.trail.steps.push(StepRecord {
            fp_delta: acc.fp_delta,
            proc_fp,
            trace_len,
            pre_mark,
            did: acc.did,
        });
        debug_assert!(self.kept_fingerprint_is_current());
        let token = UndoToken {
            mark,
            footprint: Footprint { proc: p, kind },
            _machine: PhantomData,
        };
        (out, token)
    }

    /// Reverse the step that produced `token`. Tokens must be applied to
    /// the machine that produced them, newest first (LIFO) — the depth-first
    /// search discipline.
    pub fn undo(&mut self, token: UndoToken<P>) {
        let rec = self
            .trail
            .steps
            .pop()
            .expect("undo of a step this machine's trail does not hold");
        debug_assert_eq!(
            self.trail.steps.len(),
            token.mark as usize,
            "tokens are undone newest first, on the machine that issued them"
        );
        let p = token.footprint.proc;
        let i = p.index();
        self.procs[i].idle_read = None;
        // A crash restores the counters wholesale below, over this. A
        // machine that forgot its accounting leaves them alone.
        let counting = self.locality.is_some();
        if counting {
            self.counters.proc_mut(i).unbump(rec.did);
        }
        if rec.did & DID_NONCE != 0 {
            self.next_nonce -= 1;
        }
        if rec.did & DID_PROG != 0 {
            self.trail.progs[i].restore(&mut self.procs[i].prog);
        }
        if rec.did & DID_RETURN != 0 {
            self.procs[i].returned = None;
        }
        // Newest first: a TSO drain can commit one register twice.
        while self.trail.pre.len() > rec.pre_mark as usize {
            match self.trail.pre.pop().expect("length checked") {
                PreImage::Mem(reg, old) => {
                    self.mem.set(reg, old);
                }
                PreImage::Committer(reg, old) => {
                    if let Some(locality) = &mut self.locality {
                        locality.set_last_committer(reg, old);
                    }
                }
                PreImage::Cache(reg, value) => {
                    if let Some(locality) = &mut self.locality {
                        locality.unobserve(p, reg, value);
                    }
                }
                PreImage::Buffer(undo) => self.procs[i].buffer.apply_undo(undo),
                PreImage::Crash => {
                    let crash = self.trail.crashes.pop();
                    self.procs[i].buffer.clone_from(&crash.buffer);
                    self.procs[i].crashes = crash.crashes;
                    if counting {
                        *self.counters.proc_mut(i) = crash.counters;
                    }
                }
            }
        }
        self.trace.truncate(rec.trace_len);
        self.procs[i].fp = rec.proc_fp;
        if let Some(fp) = &mut self.fp {
            *fp ^= rec.fp_delta;
        }
        debug_assert!(self.kept_fingerprint_is_current());
    }

    /// Raise `p`'s counters named by `bits` ([`bit`](crate::counters::bit)),
    /// unless the machine [forgot](Machine::forget_locality) its locality
    /// and with it its accounting.
    pub(super) fn count<const REC: bool>(&mut self, p: ProcId, bits: u32, acc: &mut StepAcc) {
        if self.locality.is_none() {
            return;
        }
        self.counters.proc_mut(p.index()).bump(bits);
        if REC {
            acc.did |= bits;
        }
    }

    /// Advance `p`'s program past its poised operation. Returns whether
    /// that left the program idle ([`Process::advance_idle`]).
    pub(super) fn advance<const REC: bool>(
        &mut self,
        p: ProcId,
        read: Option<Value>,
        acc: &mut StepAcc,
    ) -> bool {
        self.save_prog::<REC>(p, acc);
        self.procs[p.index()].prog.advance_idle(read)
    }

    /// Put `p` in its final state, returning `value`.
    pub(super) fn finish<const REC: bool>(&mut self, p: ProcId, value: u64, acc: &mut StepAcc) {
        self.procs[p.index()].returned = Some(value);
        if REC {
            acc.did |= DID_RETURN;
        }
    }

    /// Save `p`'s program state ahead of a step that changes it.
    pub(super) fn save_prog<const REC: bool>(&mut self, p: ProcId, acc: &mut StepAcc) {
        if REC {
            debug_assert_eq!(acc.did & DID_PROG, 0, "a step saves the program once");
            let i = p.index();
            if self.trail.progs.len() <= i {
                let n = self.procs.len();
                self.trail.progs.resize_with(n, SavedProgs::default);
            }
            self.trail.progs[i].save(&self.procs[i].prog);
            acc.did |= DID_PROG;
        }
    }

    /// The value a write of `value` stores: itself, or — when the machine
    /// tags writes — its payload with a fresh nonce.
    pub(super) fn stamped<const REC: bool>(&mut self, value: Value, acc: &mut StepAcc) -> Value {
        if !self.config.tag_writes {
            return value;
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        if REC {
            acc.did |= DID_NONCE;
        }
        Value::Tagged {
            payload: value.payload(),
            nonce,
        }
    }

    /// Note in `p`'s cache that it observed `value` at `reg`; returns
    /// whether the entry is new (never, without a locality tracker).
    pub(super) fn observe<const REC: bool>(&mut self, p: ProcId, reg: RegId, value: Value) -> bool {
        let Some(locality) = &mut self.locality else {
            return false;
        };
        let fresh = locality.observe(p, reg, value);
        if fresh && REC {
            self.trail.pre.push(PreImage::Cache(reg, value));
        }
        fresh
    }

    /// [`observe`](Self::observe) for a value `p` read: returns whether
    /// the read was local — the tracker's `read_is_local`, asked of the
    /// cache with the one lookup that also updates it (always local,
    /// without a tracker).
    pub(super) fn observe_read<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        value: Value,
    ) -> bool {
        !self.observe::<REC>(p, reg, value) || self.config.layout.is_local_to(reg, p)
    }

    /// Store `value` in shared memory on `p`'s behalf: the cell and its
    /// ownership change hands. Returns whether the store was local to `p`
    /// (always, without a locality tracker).
    pub(super) fn store<const REC: bool>(
        &mut self,
        p: ProcId,
        reg: RegId,
        value: Value,
        acc: &mut StepAcc,
    ) -> bool {
        let old = self.mem.set(reg, Some(value));
        if REC {
            self.trail.pre.push(PreImage::Mem(reg, old));
            acc.fp_delta ^= entry_fp(FP_MEM, reg, old) ^ entry_fp(FP_MEM, reg, Some(value));
        }
        let Some(locality) = &mut self.locality else {
            return true;
        };
        let local = locality.commit_is_local(&self.config.layout, p, reg);
        let owner = locality.record_commit(p, reg);
        if REC && owner != Some(p) {
            self.trail.pre.push(PreImage::Committer(reg, owner));
        }
        local
    }

    /// Log the buffer mutation `undo` reverses, which left `now` buffered
    /// for its register.
    pub(super) fn buffer_mutated<const REC: bool>(
        &mut self,
        p: ProcId,
        undo: BufferUndo,
        now: Option<Value>,
        acc: &mut StepAcc,
    ) {
        if !REC {
            return;
        }
        let buffered = FP_BUFFERED | p.index() as u64;
        match undo {
            BufferUndo::None => return,
            // A TSO queue is part of the process component.
            BufferUndo::PopBack | BufferUndo::PushFront(..) => acc.did |= DID_QUEUE,
            BufferUndo::RestorePso(reg, old) => {
                acc.fp_delta ^= entry_fp(buffered, reg, old) ^ entry_fp(buffered, reg, now);
            }
            BufferUndo::Insert(reg, was) => {
                acc.fp_delta ^= entry_fp(buffered, reg, Some(was)) ^ entry_fp(buffered, reg, now);
            }
        }
        self.trail.pre.push(PreImage::Buffer(undo));
    }

    /// Log that a crash is about to wipe `p`'s buffer: the wholesale
    /// pre-image a crash is undone from ([`PreImage::Crash`]).
    pub(super) fn buffer_wiped<const REC: bool>(&mut self, p: ProcId, acc: &mut StepAcc) {
        if !REC {
            return;
        }
        let i = p.index();
        let buffer = &self.procs[i].buffer;
        acc.did |= DID_CRASH;
        if let WriteBuffer::Pso(entries) = buffer {
            for &(reg, v) in entries.iter() {
                acc.fp_delta ^= entry_fp(FP_BUFFERED | i as u64, reg, Some(v));
            }
        }
        let counters = *self.counters.proc(i);
        self.trail
            .crashes
            .save(buffer, counters, self.procs[i].crashes);
        self.trail.pre.push(PreImage::Crash);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{assert_undo_round_trips, full_snapshot, p, pso_machine, r, Script};
    use super::super::MachineConfig;
    use super::*;
    use crate::model::MemoryModel;
    use crate::process::Poised;
    use crate::reg::MemoryLayout;

    #[test]
    fn a_clone_starts_with_an_empty_trail_and_the_original_keeps_undoing() {
        let scripts = vec![
            Script::new(vec![
                Poised::Write(r(0), Value::Int(1)),
                Poised::Write(r(1), Value::Int(2)),
                Poised::Fence,
                Poised::Return(0),
            ]),
            Script::new(vec![Poised::Read(r(0)), Poised::Return(1)]),
        ];
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_trace();
        let mut m = Machine::new(cfg, scripts);
        let initial = full_snapshot(&m);
        let mut tokens = Vec::new();
        for _ in 0..3 {
            let elem = m.choices()[0];
            tokens.push(m.step_recorded(elem).1);
        }
        let midway = full_snapshot(&m);

        // The clone is the same configuration with the same fingerprint,
        // but owns no recorded step: its trail starts empty and grows and
        // shrinks on its own.
        let mut fork = m.clone();
        assert!(fork.trail.steps.is_empty() && fork.trail.pre.is_empty());
        assert!(fork.trail.progs.is_empty());
        assert_eq!(full_snapshot(&fork), midway);
        assert_eq!(fork.fingerprint(), m.fingerprint());
        assert_undo_round_trips(&mut fork, 4);
        assert_eq!(full_snapshot(&fork), midway);
        assert!(fork.trail.steps.is_empty() && fork.trail.pre.is_empty());

        // The original, stepped further and rewound, still undoes the
        // steps taken before the clone.
        assert_undo_round_trips(&mut m, 4);
        while let Some(token) = tokens.pop() {
            m.undo(token);
        }
        assert_eq!(full_snapshot(&m), initial);
        assert!(m.trail.steps.is_empty() && m.trail.pre.is_empty());
        assert!(m.trail.progs.iter().all(|saved| saved.live == 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "newest first")]
    fn undoing_out_of_order_is_caught_in_debug_builds() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(1), Value::Int(2)),
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        let (_, older) = m.step_recorded(SchedElem::op(p(0)));
        let (_, _newer) = m.step_recorded(SchedElem::op(p(0)));
        m.undo(older);
    }

    #[test]
    fn a_blind_recorded_step_differs_only_in_the_footprint_it_reports() {
        let w = Script::new(vec![Poised::Read(r(0)), Poised::Return(0)]);
        let mut seeing = pso_machine(vec![w.clone()]);
        let mut blind = pso_machine(vec![w]);
        let (out, token) = seeing.step_recorded(SchedElem::op(p(0)));
        let (blind_out, blind_token) = blind.step_recorded_blind(SchedElem::op(p(0)));
        assert_eq!(out, blind_out);
        assert_eq!(token.footprint().kind, FootprintKind::Read(r(0)));
        assert_eq!(blind_token.footprint().kind, FootprintKind::Local);
        assert_eq!(blind_token.footprint().proc, p(0));
        assert_eq!(full_snapshot(&seeing), full_snapshot(&blind));
        assert_eq!(seeing.fingerprint(), blind.fingerprint());
        blind.undo(blind_token);
        seeing.undo(token);
        assert_eq!(full_snapshot(&seeing), full_snapshot(&blind));
    }
}
