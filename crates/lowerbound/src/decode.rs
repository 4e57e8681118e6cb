//! The decoder: extended configurations → executions (Section 5.1).
//!
//! An extended configuration is a system configuration plus the `n` command
//! stacks. The decoding rules below deterministically produce the unique
//! execution `E(Γ)`:
//!
//! * **(D1)** If some process is *commit enabled* (top `commit`, poised at a
//!   fence with a non-empty buffer), the smallest such `p` is about to
//!   commit to its smallest buffered register `R` — but if some waiting
//!   process `q` with `wait-hidden-commit(k)` on top also holds a buffered
//!   write to `R`, then `q` commits first (that commit is *hidden*: `p`'s
//!   commit will overwrite it before anyone reads).
//! * **(D2)** Otherwise the smallest *non-commit enabled* process (top
//!   `proceed`, solo-terminating, poised at a read/write, a rank-correct
//!   return, or an empty-buffer fence) takes its operation step. Reads of
//!   buffered registers and returns feed the `wait-read-finish` /
//!   `wait-local-finish` bookkeeping of other stacks.
//! * **(D3)** If every process is waiting or finished, the execution ends.
//!
//! The rules only ever look at the *top* of a stack and at whether it is
//! empty. [`Decoder`] turns that into a resumable decode: it checkpoints
//! itself when a watched process's stack first empties, and the encoder
//! continues from there after appending a command at that stack's bottom
//! instead of decoding the whole prefix again.

use fencevm::VmProc;
use wbmem::{
    Event, EventKind, Machine, Poised, ProcId, RegId, SchedElem, SoloOutcome, StepOutcome,
    WriteBuffer,
};

use crate::command::{Command, Stacks};

/// Decoder resource bounds.
#[derive(Clone, Copy, Debug)]
pub struct DecodeOptions {
    /// Maximum steps in the decoded execution.
    pub max_steps: usize,
    /// Initial step bound for solo-termination checks (divergence is
    /// detected exactly by configuration revisit; this bound only guards
    /// unbounded progress).
    pub solo_bound: usize,
    /// Ceiling for the solo-bound backoff: an inconclusive check retries
    /// with a doubled bound until it exceeds this cap, and only then
    /// reports [`DecodeError::SoloUnknown`] (carrying every bound tried).
    pub solo_bound_cap: usize,
}

impl Default for DecodeOptions {
    fn default() -> Self {
        DecodeOptions {
            max_steps: 2_000_000,
            solo_bound: 500_000,
            solo_bound_cap: 8_000_000,
        }
    }
}

/// One decoded step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedStep {
    /// The schedule element applied.
    pub elem: SchedElem,
    /// The resulting event.
    pub event: Event,
    /// Whether this was a *hidden* commit (executed by a waiting process).
    pub hidden: bool,
}

/// The decoded execution and everything the encoder needs to extend it.
#[derive(Clone, Debug)]
pub struct DecodeOutcome {
    /// The machine at the final configuration `C_i`.
    pub machine: Machine<VmProc>,
    /// The stacks as left by decoding (consumed commands removed).
    pub stacks: Stacks,
    /// The execution, step by step.
    pub steps: Vec<DecodedStep>,
    /// For each process, the number of steps after which its stack was
    /// empty for the *first* time (`Some(0)` if it started empty, `None` if
    /// it never emptied).
    pub stack_empty_at: Vec<Option<usize>>,
}

impl DecodeOutcome {
    /// The events of the suffix `E**` starting at step `from`.
    #[must_use]
    pub fn suffix(&self, from: usize) -> &[DecodedStep] {
        &self.steps[from.min(self.steps.len())..]
    }

    /// The decoded execution as a [`wbmem::Trace`] (for
    /// [`segment_accessors`](wbmem::Trace::segment_accessors)).
    #[must_use]
    pub fn trace(&self) -> wbmem::Trace {
        self.steps.iter().map(|s| s.event.clone()).collect()
    }
}

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// A solo-termination check stayed inconclusive through every retry of
    /// the doubling backoff.
    SoloUnknown {
        /// The process whose classification failed.
        proc: ProcId,
        /// Every step bound tried, in order (the last one hit the cap).
        bounds: Vec<usize>,
    },
    /// The execution exceeded `max_steps`.
    MaxSteps {
        /// The bound that was hit.
        steps: usize,
    },
    /// An internal consistency violation (a decoder bug or a non-ordering
    /// algorithm).
    Internal(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::SoloUnknown { proc, bounds } => {
                write!(
                    f,
                    "solo-termination check for {proc} inconclusive after bounds {bounds:?}"
                )
            }
            DecodeError::MaxSteps { steps } => write!(f, "decode exceeded {steps} steps"),
            DecodeError::Internal(msg) => write!(f, "decoder invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn is_commit_enabled(m: &Machine<VmProc>, st: &Stacks, p: ProcId) -> bool {
    matches!(st.top(p), Some(Command::Commit))
        && matches!(m.poised(p), Poised::Fence)
        && !m.buffer_is_empty(p)
}

/// The cheap part of the non-commit-enabled test (everything but the solo
/// run).
fn op_permits_step(m: &Machine<VmProc>, p: ProcId) -> bool {
    match m.poised(p) {
        Poised::Read(_) | Poised::Write(_, _) => true,
        Poised::Return(r) => r == m.nb_final(),
        Poised::Fence => m.buffer_is_empty(p),
        // The encoding construction is defined for read/write algorithms;
        // the paper handles comparison primitives by simulation ([12]). A
        // CAS-using program is therefore never scheduled here — encoding it
        // stalls with diagnostics rather than silently mis-encoding.
        Poised::Cas { .. } | Poised::Swap { .. } => false,
        Poised::Done => false,
    }
}

/// The smallest register with a pending write in `buf` (the register D1
/// commits next), read without building the sorted register list.
fn smallest_buffered(buf: &WriteBuffer) -> Option<RegId> {
    match buf {
        WriteBuffer::Sc => None,
        WriteBuffer::Tso(q) => q.iter().map(|&(r, _)| r).min(),
        WriteBuffer::Pso(m) => m.first().map(|&(r, _)| r),
    }
}

/// Whether `p` would enter a final state running alone from `m`, with
/// every register the deciding solo run read from memory left in `reads`
/// (sorted, without repeats).
fn solo_terminates(
    m: &Machine<VmProc>,
    p: ProcId,
    opts: &DecodeOptions,
    reads: &mut Vec<RegId>,
) -> Result<bool, DecodeError> {
    // Retry-with-backoff: an `Unknown` within the bound usually just means
    // the bound was too small for this (terminating) solo run, so double it
    // up to the cap before giving up. The bound history is only touched
    // once a retry happens; `reads` keeps its allocation between runs.
    let mut bound = opts.solo_bound.max(1);
    let mut tried = Vec::new();
    loop {
        reads.clear();
        let outcome = m.solo_outcome_reading(p, bound, |reg| reads.push(reg));
        reads.sort_unstable();
        reads.dedup();
        match outcome {
            SoloOutcome::Terminates { .. } => return Ok(true),
            SoloOutcome::Diverges { .. } => return Ok(false),
            SoloOutcome::Unknown => {
                tried.push(bound);
                if bound >= opts.solo_bound_cap {
                    return Err(DecodeError::SoloUnknown {
                        proc: p,
                        bounds: tried,
                    });
                }
                bound = (bound * 2).min(opts.solo_bound_cap);
            }
        }
    }
}

/// One process's solo verdict and the registers whose memory it depends on.
#[derive(Clone, Debug, Default)]
struct SoloVerdict {
    terminates: Option<bool>,
    /// Sorted: the registers the solo run read from memory, and those the
    /// process has committed along that run since.
    reads: Vec<RegId>,
}

/// Solo-termination verdicts, reused across steps and commits.
///
/// A verdict for `p` depends only on `p`'s program state, `p`'s buffer and
/// the memory of the registers its solo run read from memory. `p`'s own
/// operation steps move it along that very solo path, so every state it
/// reaches inherits the verdict, and reads no register outside the set. So
/// does `p`'s commit of the register its solo run would commit next (`p` at
/// a fence, the register its buffer drains first): the run reads that
/// register back from its own commit, which now sits in memory, so the
/// register joins the set. A commit by `q` to `R` therefore drops `q`'s own
/// verdict only if the commit left `q`'s solo path (a hidden commit), and
/// otherwise only the verdicts whose set holds `R`; every other verdict
/// survives it.
#[derive(Clone, Debug)]
struct SoloMemo {
    verdicts: Vec<SoloVerdict>,
}

impl SoloMemo {
    fn new(n: usize) -> Self {
        SoloMemo {
            verdicts: vec![SoloVerdict::default(); n],
        }
    }

    fn terminates(
        &mut self,
        m: &Machine<VmProc>,
        p: ProcId,
        opts: &DecodeOptions,
    ) -> Result<bool, DecodeError> {
        let slot = &mut self.verdicts[p.index()];
        if let Some(verdict) = slot.terminates {
            if cfg!(debug_assertions) {
                let mut fresh = Vec::new();
                assert_eq!(
                    solo_terminates(m, p, opts, &mut fresh),
                    Ok(verdict),
                    "stale solo verdict for {p}"
                );
                assert!(
                    fresh.iter().all(|r| slot.reads.binary_search(r).is_ok()),
                    "{p}'s solo run read {fresh:?}, outside its kept read set {:?}",
                    slot.reads
                );
            }
            return Ok(verdict);
        }
        let verdict = solo_terminates(m, p, opts, &mut slot.reads)?;
        slot.terminates = Some(verdict);
        Ok(verdict)
    }

    /// Forget the verdicts a commit by `q` to `reg` may have changed;
    /// `solo_step` says whether the commit is the next step of `q`'s solo
    /// run.
    fn committed(&mut self, q: ProcId, reg: RegId, solo_step: bool) {
        for (i, slot) in self.verdicts.iter_mut().enumerate() {
            let at = slot.reads.binary_search(&reg);
            if i != q.index() {
                if at.is_ok() {
                    slot.terminates = None;
                }
            } else if !solo_step {
                slot.terminates = None;
            } else if let Err(at) = at {
                slot.reads.insert(at, reg);
            }
        }
    }
}

fn is_non_commit_enabled(
    m: &Machine<VmProc>,
    st: &Stacks,
    p: ProcId,
    opts: &DecodeOptions,
    solo: &mut SoloMemo,
) -> Result<bool, DecodeError> {
    if m.is_done(p) || !matches!(st.top(p), Some(Command::Proceed)) || !op_permits_step(m, p) {
        return Ok(false);
    }
    solo.terminates(m, p, opts)
}

/// The decoder at the moment the watched process's stack first emptied:
/// everything but the steps, which the resumed decoder truncates in place.
#[derive(Debug)]
struct Checkpoint {
    machine: Machine<VmProc>,
    stacks: Stacks,
    stack_empty_at: Vec<Option<usize>>,
    steps_len: usize,
    solo: SoloMemo,
}

/// A resumable decode of one extended configuration.
///
/// Rules D1–D3 observe a stack only through its top command and its
/// emptiness. A command appended at the *bottom* of `p`'s stack is therefore
/// invisible until the step after which `p`'s stack would have been empty:
/// the decodes of `S` and of `S + (cmd at p's bottom)` share their first
/// `stack_empty_at[p]` steps. While running, the decoder keeps one
/// [`Checkpoint`] of itself at exactly that step for the process it
/// `watch`es, and [`resume_with`](Self::resume_with) continues from it.
#[derive(Debug)]
pub(crate) struct Decoder {
    out: DecodeOutcome,
    solo: SoloMemo,
    watch: Option<ProcId>,
    checkpoint: Option<Checkpoint>,
}

impl Decoder {
    /// A decoder at the extended configuration `(initial, stacks)`, zero
    /// steps in, that checkpoints when `watch`'s stack empties.
    pub(crate) fn new(initial: &Machine<VmProc>, stacks: &Stacks, watch: Option<ProcId>) -> Self {
        let n = initial.n();
        assert_eq!(stacks.n(), n, "stack count must match process count");
        Decoder {
            out: DecodeOutcome {
                machine: initial.clone(),
                stacks: stacks.clone(),
                steps: Vec::new(),
                stack_empty_at: (0..n)
                    .map(|i| stacks.is_empty_of(ProcId::from(i)).then_some(0))
                    .collect(),
            },
            solo: SoloMemo::new(n),
            watch,
            checkpoint: None,
        }
    }

    /// The decode so far; after a successful [`run`](Self::run), the decode
    /// of the whole extended configuration.
    pub(crate) fn outcome(&self) -> &DecodeOutcome {
        &self.out
    }

    pub(crate) fn into_outcome(self) -> DecodeOutcome {
        self.out
    }

    /// Rewind to the step at which `p`'s stack first emptied and append
    /// `cmd` there, so that the next [`run`](Self::run) completes the decode
    /// of the stacks extended by `cmd` at `p`'s bottom. Returns `false`, and
    /// changes nothing, if there is no such checkpoint: `p` is not the
    /// watched process, or its stack did not empty after step 0. The caller
    /// then starts a new decoder from the initial configuration.
    pub(crate) fn resume_with(&mut self, p: ProcId, cmd: Command) -> bool {
        if self.watch != Some(p) {
            return false;
        }
        let Some(cp) = self.checkpoint.take() else {
            return false;
        };
        self.out.machine = cp.machine;
        self.out.stacks = cp.stacks;
        self.out.stack_empty_at = cp.stack_empty_at;
        self.out.steps.truncate(cp.steps_len);
        self.solo = cp.solo;
        debug_assert!(self.out.stacks.is_empty_of(p));
        self.out.stacks.push_bottom(p, cmd);
        self.out.stack_empty_at[p.index()] = None;
        true
    }

    /// Append `step` to the execution and do the per-step bookkeeping:
    /// drop the solo verdicts a commit may have changed, note first-empty
    /// stacks, and checkpoint if the watched stack is among them.
    /// `solo_step` says whether the step is the next step of its process's
    /// solo run.
    fn record(&mut self, step: DecodedStep, solo_step: bool) {
        if let EventKind::Commit { reg, .. } = step.event.kind {
            self.solo.committed(step.event.proc, reg, solo_step);
        }
        let out = &mut self.out;
        out.steps.push(step);
        let now = out.steps.len();
        for (i, slot) in out.stack_empty_at.iter_mut().enumerate() {
            if slot.is_none() && out.stacks.is_empty_of(ProcId::from(i)) {
                *slot = Some(now);
            }
        }
        if self
            .watch
            .is_some_and(|w| out.stack_empty_at[w.index()] == Some(now))
        {
            self.checkpoint = Some(Checkpoint {
                machine: out.machine.clone(),
                stacks: out.stacks.clone(),
                stack_empty_at: out.stack_empty_at.clone(),
                steps_len: now,
                solo: self.solo.clone(),
            });
        }
    }

    /// Apply rules D1/D2 until D3 ends the execution.
    pub(crate) fn run(&mut self, opts: &DecodeOptions) -> Result<(), DecodeError> {
        let n = self.out.machine.n();
        loop {
            if self.out.steps.len() >= opts.max_steps {
                return Err(DecodeError::MaxSteps {
                    steps: opts.max_steps,
                });
            }
            let m = &mut self.out.machine;
            let st = &mut self.out.stacks;

            // ---- Rule D1: a commit step. ----
            let commit_enabled = (0..n)
                .map(ProcId::from)
                .find(|&p| is_commit_enabled(m, st, p));
            if let Some(p) = commit_enabled {
                let r = smallest_buffered(m.buffer(p))
                    .expect("commit-enabled process has a non-empty buffer");
                // A waiting hidden-committer takes precedence.
                let q = (0..n).map(ProcId::from).find(|&q| {
                    matches!(st.top(q), Some(Command::WaitHiddenCommit(k)) if *k > 0)
                        && m.buffer(q).contains(r)
                });
                let pstar = q.unwrap_or(p);
                let hidden = q.is_some();
                let pre_len = m.buffer(pstar).len();
                // `p` is at a fence: its solo run commits next, and this
                // very register unless `smallest_buffered` is not the one
                // the buffer drains first (TSO). A hidden commit is `q`'s,
                // off its solo path, hence `!hidden`. No decode observes
                // that guard, so no test pins it: without it `q` would keep
                // its verdict with `r` added to its read set — which is
                // sound too, since committing its own buffered write
                // changes nothing `q` reads — and `p`, still commit-enabled
                // on `r`, commits `r` before any D2 step asks for a verdict,
                // which drops `q`'s through that set either way.
                let solo_step = !hidden && m.buffer(p).fence_commit_target() == Some(r);

                let event = match m.step(SchedElem::commit(pstar, r)) {
                    StepOutcome::Stepped(e) => e,
                    StepOutcome::NoOp => {
                        return Err(DecodeError::Internal(format!(
                            "commit of {r} by {pstar} did not step"
                        )))
                    }
                };

                if hidden {
                    // (D1b) decrement the wait-hidden-commit counter.
                    match st.pop_top(pstar) {
                        Some(Command::WaitHiddenCommit(k)) => {
                            if k > 1 {
                                st.push_top(pstar, Command::WaitHiddenCommit(k - 1));
                            }
                        }
                        other => {
                            return Err(DecodeError::Internal(format!(
                                "hidden committer {pstar} had top {other:?}"
                            )))
                        }
                    }
                } else if pre_len == 1 {
                    // (D1a) the batch is fully committed.
                    if st.pop_top(pstar) != Some(Command::Commit) {
                        return Err(DecodeError::Internal(format!(
                            "commit-enabled {pstar} had non-commit top"
                        )));
                    }
                }

                // (D1c) the commit accesses the register owner's segment.
                if let Some(owner) = m.config().layout.owner(r) {
                    if owner != pstar && matches!(st.top(owner), Some(Command::WaitLocalFinish(..)))
                    {
                        st.with_top_mut(owner, |c| {
                            if let Command::WaitLocalFinish(_, s) = c {
                                s.insert(pstar);
                            }
                        });
                    }
                }

                self.record(
                    DecodedStep {
                        elem: SchedElem::commit(pstar, r),
                        event,
                        hidden,
                    },
                    solo_step,
                );
                continue;
            }

            // ---- Rule D2: a read/write/return/fence step. ----
            let mut chosen: Option<ProcId> = None;
            for i in 0..n {
                let p = ProcId::from(i);
                if is_non_commit_enabled(m, st, p, opts, &mut self.solo)? {
                    chosen = Some(p);
                    break;
                }
            }
            let Some(p) = chosen else {
                return Ok(()); // (D3) all waiting or finished.
            };

            let event = match m.step(SchedElem::op(p)) {
                StepOutcome::Stepped(e) => e,
                StepOutcome::NoOp => {
                    return Err(DecodeError::Internal(format!("enabled {p} did not step")))
                }
            };

            // (D2a) pop `proceed` once p is poised at a fence/return/done.
            if matches!(
                m.poised(p),
                Poised::Fence | Poised::Return(_) | Poised::Done
            ) && st.pop_top(p) != Some(Command::Proceed)
            {
                return Err(DecodeError::Internal(format!(
                    "{p} stepped without proceed on top"
                )));
            }

            match &event.kind {
                EventKind::Return { .. } => {
                    // (D2b) processes waiting for p's termination.
                    for qi in 0..n {
                        let q = ProcId::from(qi);
                        if q == p {
                            continue;
                        }
                        let pop = match st.top(q) {
                            Some(Command::WaitReadFinish(_, s))
                            | Some(Command::WaitLocalFinish(_, s)) => s.contains(&p),
                            _ => false,
                        };
                        if pop {
                            match st.pop_top(q).expect("just inspected") {
                                Command::WaitReadFinish(k, s) => {
                                    if k > 1 {
                                        st.push_top(q, Command::WaitReadFinish(k - 1, s));
                                    }
                                }
                                Command::WaitLocalFinish(k, s) => {
                                    if k > 1 {
                                        st.push_top(q, Command::WaitLocalFinish(k - 1, s));
                                    }
                                }
                                _ => unreachable!("matched wait command above"),
                            }
                        }
                    }
                }
                EventKind::Read {
                    reg,
                    from_memory: true,
                    ..
                } => {
                    let reg = *reg;
                    // (D2c) readers of registers another process is about to
                    // commit.
                    for qi in 0..n {
                        let q = ProcId::from(qi);
                        if q == p {
                            continue;
                        }
                        if matches!(st.top(q), Some(Command::WaitReadFinish(..)))
                            && m.buffer(q).contains(reg)
                        {
                            st.with_top_mut(q, |c| {
                                if let Command::WaitReadFinish(_, s) = c {
                                    s.insert(p);
                                }
                            });
                        }
                    }
                    // (D2d) readers of q's memory segment.
                    if let Some(owner) = m.config().layout.owner(reg) {
                        if owner != p && matches!(st.top(owner), Some(Command::WaitLocalFinish(..)))
                        {
                            st.with_top_mut(owner, |c| {
                                if let Command::WaitLocalFinish(_, s) = c {
                                    s.insert(p);
                                }
                            });
                        }
                    }
                }
                _ => {} // (D2e)
            }

            // An operation step is the next step of `p`'s solo run (under
            // SC, a write is also its commit).
            self.record(
                DecodedStep {
                    elem: SchedElem::op(p),
                    event,
                    hidden: false,
                },
                true,
            );
        }
    }
}

/// Whether two decodes are the same execution ending in the same extended
/// configuration (the counters included, so β and ρ agree too).
pub(crate) fn same_decode(a: &DecodeOutcome, b: &DecodeOutcome) -> bool {
    a.steps == b.steps
        && a.stacks == b.stacks
        && a.stack_empty_at == b.stack_empty_at
        && a.machine.state_key() == b.machine.state_key()
        && a.machine.counters() == b.machine.counters()
}

/// Decode the execution determined by `(initial, stacks)`.
///
/// # Errors
///
/// Returns an error if a solo check is inconclusive or the step bound is
/// exceeded; both indicate a malformed program or insufficient bounds
/// rather than a property of the encoding.
pub fn decode(
    initial: &Machine<VmProc>,
    stacks: &Stacks,
    opts: &DecodeOptions,
) -> Result<DecodeOutcome, DecodeError> {
    let mut decoder = Decoder::new(initial, stacks, None);
    decoder.run(opts)?;
    Ok(decoder.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlocks::{build_ordering, LockKind, ObjectKind};
    use wbmem::MachineConfig;

    fn tagged_machine(inst: &simlocks::OrderingInstance) -> Machine<VmProc> {
        let cfg =
            MachineConfig::new(wbmem::MemoryModel::Pso, inst.layout.clone()).with_tagged_writes();
        inst.machine_from(cfg)
    }

    #[test]
    fn empty_stacks_decode_to_the_empty_execution() {
        let inst = build_ordering(LockKind::Bakery, 3, ObjectKind::Counter);
        let m = tagged_machine(&inst);
        let out = decode(&m, &Stacks::new(3), &DecodeOptions::default()).unwrap();
        assert!(out.steps.is_empty());
        assert_eq!(out.stack_empty_at, vec![Some(0); 3]);
    }

    #[test]
    fn single_proceed_runs_to_the_first_fence_with_pending_writes() {
        // Bakery p0: write C[0] (buffered), then fence with non-empty
        // buffer -> must stop there. The proceed command should carry p0
        // through exactly one step (the write).
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        st.push_bottom(ProcId(0), Command::Proceed);
        let out = decode(&m, &st, &DecodeOptions::default()).unwrap();
        assert_eq!(out.steps.len(), 1);
        assert!(matches!(out.steps[0].event.kind, EventKind::Write { .. }));
        assert!(matches!(out.machine.poised(ProcId(0)), Poised::Fence));
        assert!(!out.machine.buffer_is_empty(ProcId(0)));
        // The proceed was consumed when p0 became poised at the fence.
        assert!(out.stacks.is_empty_of(ProcId(0)));
        assert_eq!(out.stack_empty_at[0], Some(1));
    }

    #[test]
    fn proceed_then_commit_advances_through_the_fence() {
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        st.push_bottom(ProcId(0), Command::Proceed);
        st.push_bottom(ProcId(0), Command::Commit);
        st.push_bottom(ProcId(0), Command::Proceed);
        let out = decode(&m, &st, &DecodeOptions::default()).unwrap();
        // write C0; commit C0; fence; then proceed through the doorway scan
        // (2 reads of T) until the next fence with pending writes (ticket
        // batch: T[0] := 1 after writing C[0] := 0? order: T then C — two
        // buffered writes).
        let kinds: Vec<&EventKind> = out.steps.iter().map(|s| &s.event.kind).collect();
        assert!(matches!(kinds[0], EventKind::Write { .. }));
        assert!(matches!(kinds[1], EventKind::Commit { .. }));
        assert!(matches!(kinds[2], EventKind::Fence));
        // After the scan, p0 is poised at the ticket fence with T buffered.
        assert!(matches!(out.machine.poised(ProcId(0)), Poised::Fence));
        assert!(!out.machine.buffer_is_empty(ProcId(0)));
    }

    /// The exact command script for one solo Bakery-2 counter passage:
    /// five write batches (doorway open, ticket, doorway close, counter,
    /// release), each `proceed` + `commit`, then three `proceed`s for the
    /// release fence, the final fence, and the return step.
    fn bakery2_full_script() -> Vec<Command> {
        let mut v = Vec::new();
        for _ in 0..5 {
            v.push(Command::Proceed);
            v.push(Command::Commit);
        }
        v.extend([Command::Proceed, Command::Proceed, Command::Proceed]);
        v
    }

    /// A raw two-process instance where both write one shared register and
    /// return fixed ranks (p0 → 0, p1 → 1).
    fn two_writer_instance() -> simlocks::OrderingInstance {
        use std::sync::Arc;
        let mut alloc = simlocks::RegAlloc::new();
        let _shared = alloc.alloc(None); // R0
        let mk = |who: i64| {
            let mut asm = fencevm::Asm::new(format!("writer{who}"));
            asm.write(0i64, who + 1);
            asm.fence();
            asm.ret(who);
            Arc::new(asm.assemble())
        };
        simlocks::OrderingInstance {
            name: "two-writer".into(),
            n: 2,
            programs: vec![mk(0), mk(1)],
            layout: alloc.into_layout(),
            fence_sites: 0,
        }
    }

    #[test]
    fn return_rank_gate_blocks_wrong_rank() {
        // p1 returns the constant 1, but running alone it would be the
        // first to finish — rank 0. The gate `return(r) ⟺ r = NbFinal`
        // must park it forever at its return step.
        let inst = two_writer_instance();
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        for cmd in [
            Command::Proceed,
            Command::Commit,
            Command::Proceed,
            Command::Proceed,
        ] {
            st.push_bottom(ProcId(1), cmd);
        }
        let out = decode(&m, &st, &DecodeOptions::default()).unwrap();
        assert!(
            !out.machine.is_done(ProcId(1)),
            "the rank gate must block return(1)"
        );
        assert!(matches!(out.machine.poised(ProcId(1)), Poised::Return(1)));

        // Whereas a full script for bakery-p1 alone returns rank 0: the
        // counter is an ordering object, ranks follow completion order.
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        for cmd in bakery2_full_script() {
            st.push_bottom(ProcId(1), cmd);
        }
        let out = decode(&m, &st, &DecodeOptions::default()).unwrap();
        assert_eq!(out.machine.return_value(ProcId(1)), Some(0));
    }

    #[test]
    fn hidden_commit_interleaves_before_visible_commit() {
        // p0 buffers a write to R0 and carries wait-hidden-commit(1); p1
        // buffers its own write to R0 and carries commit. When p1 becomes
        // commit enabled on R0, rule D1 makes p0 commit *first* (hidden),
        // and p1's visible commit immediately overwrites it.
        let inst = two_writer_instance();
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        for cmd in [
            Command::Proceed,
            Command::WaitHiddenCommit(1),
            Command::Proceed,
            Command::Proceed,
        ] {
            st.push_bottom(ProcId(0), cmd);
        }
        for cmd in [
            Command::Proceed,
            Command::Commit,
            Command::Proceed,
            Command::Proceed,
        ] {
            st.push_bottom(ProcId(1), cmd);
        }
        let out = decode(&m, &st, &DecodeOptions::default()).unwrap();
        assert!(out.machine.all_done());
        assert_eq!(out.machine.return_value(ProcId(0)), Some(0));
        assert_eq!(out.machine.return_value(ProcId(1)), Some(1));
        // p1's value survives; p0's write was hidden.
        assert_eq!(out.machine.memory(wbmem::RegId(0)).payload(), 2);
        let commits: Vec<(&DecodedStep, u64)> = out
            .steps
            .iter()
            .filter_map(|s| match s.event.kind {
                EventKind::Commit { value, .. } => Some((s, value.payload())),
                _ => None,
            })
            .collect();
        assert_eq!(commits.len(), 2);
        assert!(commits[0].0.hidden, "p0's commit is hidden");
        assert_eq!(commits[0].1, 1);
        assert!(!commits[1].0.hidden, "p1's commit is visible");
        assert_eq!(commits[1].1, 2);
        assert_eq!(
            commits[0].0.event.proc,
            ProcId(0),
            "the hidden commit belongs to the waiting process"
        );
    }

    #[test]
    fn wait_read_finish_protects_a_reader_then_releases_the_writer() {
        // p0 buffers a write to R0 and must wait (wait-read-finish) for one
        // early reader of R0 to finish before committing. p1 reads R0 from
        // memory (D2c adds it to the set), finishes (D2b decrements), and
        // only then does p0's commit land.
        use std::sync::Arc;
        let mut alloc = simlocks::RegAlloc::new();
        let _r0 = alloc.alloc(None);
        let writer = {
            let mut asm = fencevm::Asm::new("writer");
            asm.write(0i64, 7i64);
            asm.fence();
            asm.ret(1i64);
            Arc::new(asm.assemble())
        };
        let reader = {
            let mut asm = fencevm::Asm::new("reader");
            let t = asm.local("t");
            asm.read(0i64, t);
            asm.fence();
            asm.ret(0i64);
            Arc::new(asm.assemble())
        };
        let inst = simlocks::OrderingInstance {
            name: "writer-reader".into(),
            n: 2,
            programs: vec![writer, reader],
            layout: alloc.into_layout(),
            fence_sites: 0,
        };
        let m = tagged_machine(&inst);

        let mut st = Stacks::new(2);
        for cmd in [
            Command::Proceed,
            Command::WaitReadFinish(1, Default::default()),
            Command::Commit,
            Command::Proceed,
            Command::Proceed,
        ] {
            st.push_bottom(ProcId(0), cmd);
        }
        for cmd in [Command::Proceed, Command::Proceed, Command::Proceed] {
            st.push_bottom(ProcId(1), cmd);
        }
        let out = decode(&m, &st, &DecodeOptions::default()).unwrap();
        assert!(out.machine.all_done());
        assert_eq!(out.machine.return_value(ProcId(0)), Some(1));
        assert_eq!(out.machine.return_value(ProcId(1)), Some(0));

        // The reader's memory read saw the initial value (the write was
        // still buffered), and the commit landed strictly after the reader
        // returned.
        let read_at = out
            .steps
            .iter()
            .position(|s| {
                matches!(s.event.kind,
                    EventKind::Read { reg, from_memory: true, value, .. }
                        if reg == wbmem::RegId(0) && value.is_bot())
            })
            .expect("protected read exists");
        let reader_ret = out
            .steps
            .iter()
            .position(|s| {
                s.event.proc == ProcId(1) && matches!(s.event.kind, EventKind::Return { .. })
            })
            .expect("reader returns");
        let commit_at = out
            .steps
            .iter()
            .position(|s| {
                s.event.proc == ProcId(0)
                    && matches!(s.event.kind, EventKind::Commit { reg, .. } if reg == wbmem::RegId(0))
            })
            .expect("writer commits");
        assert!(read_at < reader_ret && reader_ret < commit_at);
    }

    #[test]
    fn solo_backoff_recovers_from_a_too_small_initial_bound() {
        // A bound of 1 is far too small for a full Bakery passage, but the
        // doubling backoff reaches a sufficient bound and decoding proceeds
        // exactly as with the default options.
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        for cmd in bakery2_full_script() {
            st.push_bottom(ProcId(0), cmd);
        }
        let tight = DecodeOptions {
            solo_bound: 1,
            ..DecodeOptions::default()
        };
        let out = decode(&m, &st, &tight).unwrap();
        let reference = decode(&m, &st, &DecodeOptions::default()).unwrap();
        assert_eq!(out.steps.len(), reference.steps.len());
        assert_eq!(out.machine.return_value(ProcId(0)), Some(0));
    }

    #[test]
    fn solo_backoff_reports_the_bound_history_at_the_cap() {
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        for cmd in bakery2_full_script() {
            st.push_bottom(ProcId(0), cmd);
        }
        let hopeless = DecodeOptions {
            solo_bound: 1,
            solo_bound_cap: 4,
            ..DecodeOptions::default()
        };
        let err = decode(&m, &st, &hopeless).unwrap_err();
        match &err {
            DecodeError::SoloUnknown { proc, bounds } => {
                assert_eq!(*proc, ProcId(0));
                assert_eq!(bounds, &vec![1, 2, 4]);
            }
            other => panic!("expected SoloUnknown, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("[1, 2, 4]"), "message: {msg}");
    }

    #[test]
    fn a_commit_drops_only_the_solo_verdicts_that_read_its_register() {
        // p0 buffers R2, reads R0 from memory, buffers R2 again and fences:
        // its solo run reads R0 and nothing else from memory. p1 writes
        // R1, R2 and R0.
        use std::sync::Arc;
        let mut alloc = simlocks::RegAlloc::new();
        for _ in 0..3 {
            alloc.alloc(None);
        }
        let p0 = {
            let mut asm = fencevm::Asm::new("p0");
            let t = asm.local("t");
            asm.write(2i64, 1i64);
            asm.read(0i64, t);
            asm.write(2i64, 2i64);
            asm.fence();
            asm.ret(0i64);
            Arc::new(asm.assemble())
        };
        let p1 = {
            let mut asm = fencevm::Asm::new("p1");
            asm.write(1i64, 1i64);
            asm.write(2i64, 1i64);
            asm.write(0i64, 1i64);
            asm.fence();
            asm.ret(1i64);
            Arc::new(asm.assemble())
        };
        let inst = simlocks::OrderingInstance {
            name: "read-scope".into(),
            n: 2,
            programs: vec![p0, p1],
            layout: alloc.into_layout(),
            fence_sites: 0,
        };
        let mut m = tagged_machine(&inst);
        let opts = DecodeOptions::default();
        let mut memo = SoloMemo::new(2);
        let (p0, p1) = (ProcId(0), ProcId(1));
        // Commit `q`'s buffered `reg` and tell the memo, as `Decoder::run`
        // does: the commit is a solo step when `q` is at a fence and `reg`
        // drains first.
        let commit = |m: &mut Machine<VmProc>, memo: &mut SoloMemo, q: ProcId, reg: u32| {
            let solo_step = matches!(m.poised(q), Poised::Fence)
                && m.buffer(q).fence_commit_target() == Some(RegId(reg));
            let event = match m.step(SchedElem::commit(q, RegId(reg))) {
                StepOutcome::Stepped(e) => e,
                StepOutcome::NoOp => panic!("{q} could not commit R{reg}"),
            };
            let EventKind::Commit { reg, .. } = event.kind else {
                panic!("not a commit: {event:?}");
            };
            memo.committed(event.proc, reg, solo_step);
        };

        // Whether p0's next `terminates` is a memo hit (in debug builds,
        // checked against a fresh solo run) rather than a solo run.
        let kept = |memo: &SoloMemo| memo.verdicts[0].terminates.is_some();

        m.step(SchedElem::op(p0)); // p0 buffers R2
        assert_eq!(memo.terminates(&m, p0, &opts), Ok(true));
        assert_eq!(memo.verdicts[0].reads, vec![RegId(0)]);

        // A commit outside p0's read set keeps its verdict.
        m.step(SchedElem::op(p1)); // p1 buffers R1
        commit(&mut m, &mut memo, p1, 1);
        assert!(kept(&memo), "a commit to R1 dropped p0's verdict");
        assert_eq!(memo.terminates(&m, p0, &opts), Ok(true));

        // p0's own commit before its fence drops it, though R2 is not in
        // the set: its solo run would read R0 first.
        commit(&mut m, &mut memo, p0, 2);
        assert!(!kept(&memo), "p0's off-path commit kept its verdict");
        assert_eq!(memo.terminates(&m, p0, &opts), Ok(true));

        // A commit to R0 drops it.
        m.step(SchedElem::op(p1)); // p1 buffers R2
        m.step(SchedElem::op(p1)); // p1 buffers R0
        commit(&mut m, &mut memo, p1, 0);
        assert!(!kept(&memo), "a commit to R0 kept p0's verdict");
        assert_eq!(memo.terminates(&m, p0, &opts), Ok(true));

        // At the fence, p0's commit is its solo run's next step: the
        // verdict stays, and now depends on R2 too.
        m.step(SchedElem::op(p0)); // p0 reads R0
        m.step(SchedElem::op(p0)); // p0 buffers R2
        assert!(kept(&memo), "p0's own operation steps dropped its verdict");
        commit(&mut m, &mut memo, p0, 2);
        assert!(kept(&memo), "p0's fence commit dropped its verdict");
        assert_eq!(memo.terminates(&m, p0, &opts), Ok(true));
        assert_eq!(memo.verdicts[0].reads, vec![RegId(0), RegId(2)]);

        // So a commit to R2 by p1 drops it.
        commit(&mut m, &mut memo, p1, 2);
        assert!(!kept(&memo), "a commit to R2 kept p0's verdict");
        assert_eq!(memo.terminates(&m, p0, &opts), Ok(true));
    }

    #[test]
    fn wait_local_finish_holds_a_process_back() {
        // p1 must wait for 1 accessor of its segment to finish before its
        // first step. Give p0 a full budget; p0's doorway reads T[1] (in
        // p1's segment), so p0 is the accessor; p1 should take no step
        // until p0 returns, then run with its own budget.
        let inst = build_ordering(LockKind::Bakery, 2, ObjectKind::Counter);
        let m = tagged_machine(&inst);
        let mut st = Stacks::new(2);
        st.push_bottom(ProcId(1), Command::WaitLocalFinish(1, Default::default()));
        for cmd in bakery2_full_script() {
            st.push_bottom(ProcId(0), cmd);
        }
        for cmd in bakery2_full_script() {
            st.push_bottom(ProcId(1), cmd);
        }
        let out = decode(&m, &st, &DecodeOptions::default()).unwrap();
        assert!(out.machine.is_done(ProcId(0)));
        assert!(out.machine.is_done(ProcId(1)));
        assert_eq!(out.machine.return_value(ProcId(0)), Some(0));
        assert_eq!(out.machine.return_value(ProcId(1)), Some(1));
        // p1's first step must come after p0's return step.
        let p0_return = out
            .steps
            .iter()
            .position(|s| {
                s.event.proc == ProcId(0) && matches!(s.event.kind, EventKind::Return { .. })
            })
            .expect("p0 returns");
        let p1_first = out
            .steps
            .iter()
            .position(|s| s.event.proc == ProcId(1))
            .expect("p1 steps");
        assert!(
            p1_first > p0_return,
            "p1 stepped at {p1_first}, p0 returned at {p0_return}"
        );
    }
}
