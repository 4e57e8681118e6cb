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
//!   all that must be checked. A choice that touches no shared cell —
//!   `Local`, or a return — is independent of every rival step
//!   ([`wbmem::Footprint::independent`]), so it is accepted without
//!   reading any rival.
//! * **C2 (invisibility)** — the per-state properties (mutex, the
//!   annotation invariant) observe annotations only. A choice of `p` is
//!   invisible iff it is not a crash (which resets the annotation) and —
//!   for the operation choice — advancing cannot execute an `Annot`
//!   ([`wbmem::Process::op_may_annotate`]). Commits never touch an
//!   annotation, and neither does a return: it marks the process finished
//!   and changes nothing else. Return *values* are read by one property,
//!   the permutation check, and only at all-done states. Those are the
//!   machine's deadlocks (a finished process has no choices, an unfinished
//!   one always has one), and a search that expands a persistent set at
//!   every state reaches every deadlock whether or not the steps it
//!   reorders are visible — so a return needs neither C2 nor a rival
//!   check. A process poised at a return over a non-empty buffer still has
//!   its commit choices, and those go through C1 like any other.
//! * **C3 (cycle proviso)** — enforced by the *caller*: if an ample step
//!   closes a cycle (lands on a state still on the DFS stack), the state
//!   is upgraded to full expansion. [`decide`] only proposes candidates.
//!
//! [`FutureAccess`]: wbmem::FutureAccess

use ftobs::Metric;
use wbmem::{FootprintKind, Machine, ProcId, Process, SchedElem};

/// Why no process's choices form an ample set at a state, so all enabled
/// choices are explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fallback {
    /// Only one process still has choices: reduction would be vacuous.
    Vacuous,
    /// No process passed C2: each can crash or is poised at an operation
    /// that may annotate.
    Visible,
    /// A process passed C2 and lost C1: one of its choices touches a cell
    /// some rival may still access.
    Conflict,
}

/// Report one [`decide`] outcome to `incr`, a counter sink: an applied
/// set under [`Metric::AmpleApplied`], a fallback under
/// [`Metric::AmpleFallbacks`] *and* under the counter of its reason, so
/// the total stays the sum of the three.
pub fn count(decision: Result<ProcId, Fallback>, mut incr: impl FnMut(Metric)) {
    match decision {
        Ok(_) => incr(Metric::AmpleApplied),
        Err(why) => {
            incr(Metric::AmpleFallbacks);
            incr(match why {
                Fallback::Vacuous => Metric::AmpleFallbackVacuous,
                Fallback::Visible => Metric::AmpleFallbackVisible,
                Fallback::Conflict => Metric::AmpleFallbackConflict,
            });
        }
    }
}

/// `choices` cut into one slice per process. The machine lists a
/// process's choices contiguously ([`Machine::choices_into`]).
fn by_process(choices: &[SchedElem]) -> impl Iterator<Item = &[SchedElem]> {
    let mut rest = choices;
    std::iter::from_fn(move || {
        let p = rest.first()?.proc;
        let len = rest.iter().take_while(|e| e.proc == p).count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// Pick a process whose choices form an ample set at the machine's current
/// state, or say why every candidate fails (the caller then expands
/// fully). `choices` is the state's enabled set as
/// [`Machine::choices_into`] lists it: grouped by process, in process-id
/// order. Candidates are tried in that order, so selection is
/// deterministic.
pub fn decide<P: Process>(m: &Machine<P>, choices: &[SchedElem]) -> Result<ProcId, Fallback> {
    debug_assert!(
        choices.windows(2).all(|w| w[0].proc <= w[1].proc),
        "choices are not grouped by process"
    );
    if choices.last().map(|e| e.proc) == choices.first().map(|e| e.proc) {
        return Err(Fallback::Vacuous);
    }
    let mut why = Fallback::Visible;
    for mine in by_process(choices) {
        let p = mine[0].proc;
        // C2: a crash is visible (annotation reset), and so is an
        // operation that may change the annotation.
        let visible = mine
            .iter()
            .any(|e| e.crash || (e.reg.is_none() && m.process(p).op_may_annotate()));
        if visible {
            continue;
        }
        if mine.iter().all(|&e| independent_of_rivals(m, choices, e)) {
            return Ok(p);
        }
        why = Fallback::Conflict;
    }
    Err(why)
}

/// [`decide`] without the reason.
#[must_use]
pub fn select<P: Process>(m: &Machine<P>, choices: &[SchedElem]) -> Option<ProcId> {
    decide(m, choices).ok()
}

/// C0/C1 for one choice `e`: whether it is independent of everything each
/// rival with a run in `choices` may still do — the rival's static summary
/// from its current pc, plus the registers in its write buffer (future
/// commits). A finished rival has no run and no future.
fn independent_of_rivals<P: Process>(m: &Machine<P>, choices: &[SchedElem], e: SchedElem) -> bool {
    let (r, writes) = match m.choice_footprint(e).kind {
        FootprintKind::Local | FootprintKind::Return => return true,
        FootprintKind::Crash { .. } => return false, // visible
        FootprintKind::Read(r) => (r, false),
        FootprintKind::Write(r) | FootprintKind::Commit(r) => (r, true),
    };
    by_process(choices)
        .filter(|theirs| theirs[0].proc != e.proc)
        .all(|theirs| {
            let q = theirs[0].proc;
            let can_crash = theirs.iter().any(|e| e.crash);
            let future = m.process(q).future_access(can_crash);
            let conflicts = future.writes.may_contain(r)
                || m.buffer(q).contains(r)
                || (writes && future.reads.may_contain(r));
            !conflicts
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
        assert_eq!(
            decide(&m, &choices),
            Err(Fallback::Conflict),
            "CAS vs future read conflict"
        );
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
    fn a_return_is_ample_unless_a_buffered_write_under_it_conflicts() {
        let mut a = Asm::new("ret_now");
        a.ret(0i64);
        let m = machine(vec![VmProc::new(a.assemble().into()), writer("w", 1)]);
        assert_eq!(
            decide(&m, &m.choices()),
            Ok(ProcId(0)),
            "a return touches no cell and no per-state property reads it"
        );

        // p0 writes reg 0 and returns without a fence; p1 reads reg 0.
        let mut a = Asm::new("leaky");
        a.write(0i64, 1i64);
        a.ret(0i64);
        let mut m = machine(vec![VmProc::new(a.assemble().into()), reader("r", 0)]);
        m.step(SchedElem::op(ProcId(0)));
        let choices = m.choices();
        assert_eq!(
            m.choice_footprint(SchedElem::op(ProcId(0))).kind,
            FootprintKind::Return
        );
        assert!(choices.contains(&SchedElem::commit(ProcId(0), RegId(0))));
        assert_eq!(
            decide(&m, &choices),
            Err(Fallback::Conflict),
            "the commit under p0's return races with p1's read, and p1's \
             read with the commit"
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
            decide(&m, &choices),
            Err(Fallback::Visible),
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
        assert_eq!(decide(&m, &choices), Err(Fallback::Vacuous));
    }

    /// Whether `q` has a choice among `choices`, and if so whether one of
    /// them is a crash.
    fn active(choices: &[SchedElem], q: ProcId) -> Option<bool> {
        let mut mine = choices.iter().filter(|e| e.proc == q).peekable();
        mine.peek()?;
        Some(mine.any(|e| e.crash))
    }

    /// C2 by definition: `p` has choices, none a crash, and its operation
    /// (if enabled) cannot annotate.
    fn invisible(m: &Machine<VmProc>, choices: &[SchedElem], p: ProcId) -> bool {
        active(choices, p) == Some(false)
            && !(choices.contains(&SchedElem::op(p)) && m.process(p).op_may_annotate())
    }

    /// C0/C1 by definition, for one ordered pair: every choice of `p` is
    /// independent of `q`'s summary and buffer.
    fn independent_of_future(
        m: &Machine<VmProc>,
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
                FootprintKind::Local | FootprintKind::Return => true,
                FootprintKind::Crash { .. } => false,
                FootprintKind::Read(r) => !may_write(r),
                FootprintKind::Write(r) | FootprintKind::Commit(r) => {
                    !may_write(r) && !future.reads.may_contain(r)
                }
            })
    }

    /// The selection rule as the module docs state it, quantifier for
    /// quantifier: the reference [`decide`] is held to.
    fn decide_by_definition(
        m: &Machine<VmProc>,
        choices: &[SchedElem],
    ) -> Result<ProcId, Fallback> {
        let first = choices[0].proc;
        if choices.iter().all(|e| e.proc == first) {
            return Err(Fallback::Vacuous);
        }
        let procs = || (0..m.n()).map(ProcId::from);
        procs()
            .find(|&p| {
                invisible(m, choices, p)
                    && procs().all(|q| q == p || independent_of_future(m, choices, p, q))
            })
            .ok_or(if procs().any(|p| invisible(m, choices, p)) {
                Fallback::Conflict
            } else {
                Fallback::Visible
            })
    }

    #[test]
    fn decide_agrees_with_the_definition_on_random_walks() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use simlocks::{build_mutex, FenceMask, LockKind};
        use wbmem::CrashSemantics;

        // The E12 (n = 2) and E12b (n = 3) cells.
        let cells = [
            (LockKind::Peterson, 2),
            (LockKind::Ttas, 2),
            (LockKind::Bakery, 2),
            (LockKind::Filter, 2),
            (LockKind::Ttas, 3),
            (LockKind::Bakery, 3),
            (LockKind::Filter, 3),
            (LockKind::Gt { f: 2 }, 3),
        ];
        let crashes = [
            None,
            Some(CrashSemantics::DiscardBuffer),
            Some(CrashSemantics::DrainBuffer),
        ];
        let mut rng = SmallRng::seed_from_u64(0x5eed_a3b1e);
        let (mut states, mut ample, mut reasons) = (0, 0, [0; 3]);
        for (kind, n) in cells {
            let inst = build_mutex(kind, n, FenceMask::ALL);
            for model in [MemoryModel::Tso, MemoryModel::Pso] {
                for crash in crashes {
                    let mut cfg = MachineConfig::new(model, inst.layout.clone());
                    if let Some(semantics) = crash {
                        cfg = cfg.with_crashes(semantics, 1);
                    }
                    let root = inst.machine_from(cfg);
                    for _walk in 0..12 {
                        let mut m = root.clone();
                        for _step in 0..400 {
                            let choices = m.choices();
                            if choices.is_empty() {
                                break;
                            }
                            let e = choices[rng.gen_range(0..choices.len())];
                            let got = decide(&m, &choices);
                            assert_eq!(
                                got,
                                decide_by_definition(&m, &choices),
                                "{} {model} crash {crash:?}: {choices:?}",
                                inst.name
                            );
                            states += 1;
                            match got {
                                Ok(_) => ample += 1,
                                Err(why) => reasons[why as usize] += 1,
                            }
                            m.step(e);
                        }
                    }
                }
            }
        }
        // The walks must reach every outcome, or the comparison is vacuous.
        assert!(states > 40_000, "{states} states compared");
        assert!(
            ample > 1_000 && reasons.iter().all(|&r| r > 1_000),
            "{ample} {reasons:?}"
        );
    }
}
