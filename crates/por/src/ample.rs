//! Ample (persistent) process sets.
//!
//! At a state where some process `p`'s next steps provably cannot interact
//! with anything any *other* process will ever do, every interleaving is
//! equivalent to one that lets `p` move first — so it suffices to explore
//! only `p`'s choices. This is the classical ample-set construction,
//! instantiated for the write-buffer machine:
//!
//! * **C0/C1 (persistence)** — every choice of `p` must be independent of
//!   every other unfinished process's *entire future*. The future is
//!   over-approximated by the process's static [`FutureAccess`] summary
//!   (from its current pc, folding in the recovery section when it can
//!   still crash) plus the registers currently in its write buffer (future
//!   commits, and the target of a buffer-draining crash). A process's own
//!   choice set depends only on its local state, so other processes can
//!   never enable or disable a choice of `p`; independence of effects is
//!   all that must be checked.
//! * **C2 (invisibility)** — the checked properties observe annotations
//!   and return values only. A choice of `p` is invisible iff it is not a
//!   crash, not a return, and — for the operation choice — advancing
//!   cannot execute an `Annot` ([`wbmem::Process::op_may_annotate`]).
//!   Commits never touch either.
//! * **C3 (cycle proviso)** — enforced by the *caller*: if an ample step
//!   closes a cycle (lands on a state still on the DFS stack), the state
//!   is upgraded to full expansion. [`select`] only proposes candidates.

use wbmem::{FootprintKind, Machine, ProcId, Process, SchedElem};

/// Whether `q` has a choice among `choices`, and if so whether one of
/// them is a crash.
fn active(choices: &[SchedElem], q: ProcId) -> Option<bool> {
    let mut mine = choices.iter().filter(|e| e.proc == q).peekable();
    mine.peek()?;
    Some(mine.any(|e| e.crash))
}

/// Pick a process whose choices form an ample set at the machine's current
/// state, or `None` if every candidate fails (the caller then expands
/// fully). Candidates are tried in process-id order, so selection is
/// deterministic. Returns `None` when only one process still has choices —
/// reduction would be vacuous.
#[must_use]
pub fn select<P: Process>(m: &Machine<P>, choices: &[SchedElem]) -> Option<ProcId> {
    let first = choices.first()?.proc;
    if choices.iter().all(|e| e.proc == first) {
        return None;
    }
    let procs = || (0..m.n()).map(ProcId::from);
    procs().find(|&p| {
        // C2: a crash is visible (annotation reset), and so is an
        // operation that may change the annotation.
        active(choices, p) == Some(false)
            && !(choices.contains(&SchedElem::op(p)) && m.process(p).op_may_annotate())
            && procs().all(|q| q == p || independent_of_future(m, choices, p, q))
    })
}

/// C0/C1 for one pair: whether every choice of `p` is independent of
/// everything `q` may still do — `q`'s static summary from its current
/// pc, plus the registers in its write buffer (future commits).
fn independent_of_future<P: Process>(
    m: &Machine<P>,
    choices: &[SchedElem],
    p: ProcId,
    q: ProcId,
) -> bool {
    let Some(can_crash) = active(choices, q) else {
        return true; // finished: no future
    };
    let future = m.process(q).future_access(can_crash);
    let buffered = m.buffer(q);
    let may_write = |r| future.writes.may_contain(r) || buffered.contains(r);
    choices
        .iter()
        .filter(|e| e.proc == p)
        .all(|&e| match m.choice_footprint(e).kind {
            FootprintKind::Local => true,
            FootprintKind::Return | FootprintKind::Crash { .. } => false, // visible
            FootprintKind::Read(r) => !may_write(r),
            FootprintKind::Write(r) | FootprintKind::Commit(r) => {
                !may_write(r) && !future.reads.may_contain(r)
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fencevm::{Asm, VmProc};
    use wbmem::{MachineConfig, MemoryLayout, MemoryModel, RegId, Value};

    fn machine(procs: Vec<VmProc>) -> Machine<VmProc> {
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        Machine::new(cfg, procs)
    }

    fn writer(name: &str, reg: i64) -> VmProc {
        let mut a = Asm::new(name);
        a.write(reg, 1i64);
        a.fence();
        a.ret(0i64);
        VmProc::new(a.assemble().into())
    }

    fn reader(name: &str, reg: i64) -> VmProc {
        let mut a = Asm::new(name);
        let t = a.local("t");
        a.read(reg, t);
        a.ret(t);
        VmProc::new(a.assemble().into())
    }

    #[test]
    fn disjoint_registers_admit_an_ample_process() {
        let m = machine(vec![writer("w0", 0), writer("w1", 1)]);
        let choices = m.choices();
        assert_eq!(
            select(&m, &choices),
            Some(ProcId(0)),
            "disjoint writers commute; lowest id wins"
        );
    }

    #[test]
    fn shared_register_blocks_both_candidates() {
        // A CAS hits memory directly (no buffering), so its write-like
        // footprint conflicts with the other process's future read — and
        // the reader's footprint conflicts with the future CAS. (A plain
        // buffered write would be `Local` and legitimately ample: the
        // conflict only appears once the commit is pending, see
        // `pending_buffered_write_counts_as_a_future_write`.)
        let mut a = Asm::new("casser");
        let t = a.local("t");
        a.cas(0i64, 0i64, 1i64, t);
        a.ret(0i64);
        let m = machine(vec![VmProc::new(a.assemble().into()), reader("r", 0)]);
        let choices = m.choices();
        assert_eq!(select(&m, &choices), None, "CAS vs future read conflict");
    }

    #[test]
    fn pending_buffered_write_counts_as_a_future_write() {
        // p1 has already buffered a write to reg 0 and is fence-blocked on
        // it; p0 wants to read reg 0. The static summary of p1's *future*
        // instructions no longer contains the write — only the buffer does.
        let mut a = Asm::new("buffered");
        a.write(0i64, 1i64);
        a.fence();
        a.ret(0i64);
        let p1 = VmProc::new(a.assemble().into());
        let mut m = machine(vec![reader("r", 0), p1]);
        m.step(SchedElem::op(ProcId(1))); // the write enters p1's buffer
        let choices = m.choices();
        assert!(
            choices.iter().any(|e| e.reg.is_some()),
            "commit choice exists"
        );
        assert_eq!(
            select(&m, &choices),
            None,
            "p0's read conflicts with the pending commit; p1's commit \
             conflicts with p0's future read"
        );
    }

    #[test]
    fn annotating_step_is_never_ample() {
        let mut a = Asm::new("annotator");
        a.write(0i64, 1i64);
        a.annot(1);
        a.fence();
        a.ret(0i64);
        let p0 = VmProc::new(a.assemble().into());
        let m = machine(vec![p0, writer("w1", 1)]);
        let choices = m.choices();
        assert_eq!(
            select(&m, &choices),
            Some(ProcId(1)),
            "p0's op would annotate (visible); p1 still qualifies"
        );
    }

    #[test]
    fn returning_step_is_never_ample() {
        let mut a = Asm::new("ret_now");
        a.ret(0i64);
        let m = machine(vec![VmProc::new(a.assemble().into()), writer("w", 1)]);
        let choices = m.choices();
        assert_eq!(
            select(&m, &choices),
            Some(ProcId(1)),
            "returns are visible; the disjoint writer qualifies"
        );
    }

    #[test]
    fn crash_choices_disqualify_the_crashing_process() {
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned())
            .with_crashes(wbmem::CrashSemantics::DiscardBuffer, 1);
        let m = Machine::new(cfg, vec![writer("w0", 0), writer("w1", 1)]);
        let choices = m.choices();
        assert!(choices.iter().any(|e| e.crash));
        assert_eq!(
            select(&m, &choices),
            None,
            "every process can still crash (visible)"
        );
    }

    #[test]
    fn solo_process_needs_no_reduction() {
        let mut m = machine(vec![writer("w0", 0), writer("w1", 1)]);
        m.init_reg(RegId(9), Value::Int(0));
        // Finish p1 entirely; only p0 remains active.
        while m.return_value(ProcId(1)).is_none() {
            m.step(SchedElem::op(ProcId(1)));
        }
        let choices = m.choices();
        assert!(choices.iter().all(|e| e.proc == ProcId(0)));
        assert_eq!(select(&m, &choices), None);
    }
}
