//! The shared-memory machine: configurations, the step rule, and accounting.
//!
//! This module holds the machine's state — shared memory indexed by
//! register, one slot per process, the locality tracker (unless the
//! machine forgot it), counters, trace — its accessors, and the state
//! fingerprint. The rest of
//! [`Machine`] lives in the submodules:
//!
//! * `step` — the step rule: what a schedule element does here, and
//!   doing it;
//! * `trail` — the undo trail: what a recorded step saves inside the
//!   machine, the small [`UndoToken`] it hands out, and `undo`;
//! * `crash` — crash steps;
//! * `solo` — running one process alone, for real or as a question;
//! * `rotation` — running every process in rotation, with idle spinners
//!   parked until their register is written;
//! * `choices` — the enabled schedule elements and their dependence
//!   footprints.

use crate::buffer::WriteBuffer;
use crate::counters::Counters;
use crate::event::{Event, Trace};
use crate::fingerprint::FpHasher;
use crate::model::MemoryModel;
use crate::process::{Poised, Process};
use crate::reg::{MemoryLayout, ProcId, RegId, RegMap};
use crate::rmr::LocalityTracker;
use crate::value::Value;

mod choices;
mod crash;
mod rotation;
mod solo;
mod step;
#[cfg(test)]
mod tests;
mod trail;

use trail::Trail;
pub use trail::UndoToken;

/// What a crash step does to the crashed process's write buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CrashSemantics {
    /// The buffer is volatile and lost with the process: pending writes
    /// never reach shared memory (the store-buffer model of recoverable
    /// mutual exclusion — a crash can swallow a write the program already
    /// performed).
    #[default]
    DiscardBuffer,
    /// The buffer is flushed on the way down: every pending write commits,
    /// in fence-drain order, before the process state is reset (hardware
    /// whose cache subsystem drains the store buffer when a core fails).
    DrainBuffer,
}

impl std::fmt::Display for CrashSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashSemantics::DiscardBuffer => write!(f, "discard"),
            CrashSemantics::DrainBuffer => write!(f, "drain"),
        }
    }
}

/// A typed machine-level failure, returned by the `try_` stepping APIs
/// instead of panicking on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// A schedule element named a process id outside `0..n`.
    NoSuchProc {
        /// The out-of-range process id.
        proc: ProcId,
        /// The machine's process count.
        n: usize,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::NoSuchProc { proc, n } => {
                write!(
                    f,
                    "schedule element names {proc}, but the machine has {n} processes"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// Static machine parameters.
#[derive(Debug)]
pub struct MachineConfig {
    /// Memory model governing buffering and commit order.
    pub model: MemoryModel,
    /// DSM segment assignment for RMR accounting.
    pub layout: MemoryLayout,
    /// Make every written value globally unique by tagging it with a nonce
    /// (the lower-bound proof's w.l.o.g. assumption that all written values
    /// are distinct). Algorithms observe only payloads, so behaviour is
    /// unchanged; only cache-locality accounting becomes strict.
    pub tag_writes: bool,
    /// Record an execution [`Trace`]. Off by default; turn on for analysis.
    pub record_trace: bool,
    /// What a crash step does to the crashed process's write buffer.
    pub crash_semantics: CrashSemantics,
    /// Crash-fault budget per process. `0` (the default) disables crash
    /// injection entirely: crash elements are no-ops and
    /// [`choices`](Machine::choices) never offers them.
    pub max_crashes: u32,
}

impl Clone for MachineConfig {
    fn clone(&self) -> Self {
        MachineConfig {
            layout: self.layout.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s layout allocations.
    fn clone_from(&mut self, source: &Self) {
        let MachineConfig {
            model,
            ref layout,
            tag_writes,
            record_trace,
            crash_semantics,
            max_crashes,
        } = *source;
        self.layout.clone_from(layout);
        self.model = model;
        self.tag_writes = tag_writes;
        self.record_trace = record_trace;
        self.crash_semantics = crash_semantics;
        self.max_crashes = max_crashes;
    }
}

impl MachineConfig {
    /// A configuration with tagging, tracing, and crash injection disabled.
    #[must_use]
    pub fn new(model: MemoryModel, layout: MemoryLayout) -> Self {
        MachineConfig {
            model,
            layout,
            tag_writes: false,
            record_trace: false,
            crash_semantics: CrashSemantics::DiscardBuffer,
            max_crashes: 0,
        }
    }

    /// Enable write tagging.
    #[must_use]
    pub fn with_tagged_writes(mut self) -> Self {
        self.tag_writes = true;
        self
    }

    /// Enable trace recording.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enable crash injection: up to `max_crashes` crash steps per process,
    /// with the given buffer semantics.
    #[must_use]
    pub fn with_crashes(mut self, semantics: CrashSemantics, max_crashes: u32) -> Self {
        self.crash_semantics = semantics;
        self.max_crashes = max_crashes;
        self
    }
}

/// One process's slot in a configuration.
#[derive(Debug)]
struct ProcSlot<P> {
    prog: P,
    buffer: WriteBuffer,
    returned: Option<u64>,
    /// Crash steps already spent on this process (bounded by
    /// `MachineConfig::max_crashes`). Part of the behavioural state: a
    /// process with crash budget left can still be crashed, one without
    /// cannot, so two configurations differing only here have different
    /// futures.
    crashes: u32,
    /// This process's fingerprint component ([`Machine::proc_fp`]);
    /// current exactly while [`Machine::fp`] is kept.
    fp: u128,
    /// The value of the process's last step, when that step was a plain
    /// [`Machine::step`] read that left the process idle (see
    /// [`Process::advance_idle`]): the process is still poised at that
    /// read, and its cache's last pair is that read's. Every other step
    /// of the process, and an undo of one, drops it. Not state: no key,
    /// fingerprint or equality reads it.
    idle_read: Option<Value>,
}

impl<P: Clone> Clone for ProcSlot<P> {
    fn clone(&self) -> Self {
        ProcSlot {
            prog: self.prog.clone(),
            buffer: self.buffer.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s program and buffer allocations.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        let ProcSlot {
            ref prog,
            ref buffer,
            returned,
            crashes,
            fp,
            idle_read,
        } = *source;
        self.prog.clone_from(prog);
        self.buffer.clone_from(buffer);
        self.returned = returned;
        self.crashes = crashes;
        self.fp = fp;
        self.idle_read = idle_read;
    }
}

/// The result of applying one schedule element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The element had no effect (the process was in a final state, or a
    /// named commit was not committable and no operation applied).
    NoOp,
    /// A step was taken; the primary event describes it. (An SC-mode write
    /// records both a `Write` and a `Commit` in the trace; the `Commit` is
    /// the primary event.)
    Stepped(Event),
}

impl StepOutcome {
    /// The event of the step, if one was taken.
    #[must_use]
    pub fn event(&self) -> Option<&Event> {
        match self {
            StepOutcome::NoOp => None,
            StepOutcome::Stepped(e) => Some(e),
        }
    }
}

/// Outcome of running a process alone from the current configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoloOutcome {
    /// The process reaches a final state after `steps` further steps.
    Terminates {
        /// Steps taken to reach the final state.
        steps: usize,
        /// The value returned.
        ret: u64,
    },
    /// The process provably never finishes alone: its solo execution
    /// revisited a configuration (it is spinning on unchanged memory).
    Diverges {
        /// Steps taken before the revisit was detected. That is not the
        /// step of the first revisit: a run that first returns to an
        /// earlier configuration at step `t` is caught at some step up to
        /// about `3t`, when it meets the one configuration the check keeps
        /// (see [`Machine::solo_outcome_reading`]). A `max_steps` below
        /// the detection step yields [`Unknown`](Self::Unknown).
        steps: usize,
    },
    /// The step bound was exhausted without termination or a revisit.
    Unknown,
}

impl SoloOutcome {
    /// Whether the process enters a final state in every (fair) solo run.
    #[must_use]
    pub fn terminates(self) -> bool {
        matches!(self, SoloOutcome::Terminates { .. })
    }
}

/// A snapshot of the behaviourally relevant machine state (shared memory,
/// buffers, process states, return flags) — everything that determines
/// future behaviour, and nothing that doesn't (no counters, no caches, no
/// trace). Two configurations are the same state exactly when their keys
/// are equal; searches key their visited sets by the
/// [`fingerprint`](Machine::fingerprint) of the same state instead.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StateKey<P: Process> {
    mem: Vec<(RegId, Value)>,
    procs: Vec<(P, WriteBuffer, Option<u64>, u32)>,
}
/// Domain tags of the fingerprint components, in the high half of each
/// component's first hashed word (the low half is the process index, or
/// zero).
const FP_MEM: u64 = 1 << 32;
const FP_BUFFERED: u64 = 2 << 32;
const FP_PROC: u64 = 3 << 32;

/// The fingerprint component of one `reg ↦ value` entry of the slot family
/// `tag` — a shared-memory cell ([`FP_MEM`]) or a PSO-buffered write of
/// process `i` (`FP_BUFFERED | i`); zero for an absent entry.
fn entry_fp(tag: u64, reg: RegId, value: Option<Value>) -> u128 {
    use std::hash::{Hash as _, Hasher as _};
    let Some(value) = value else { return 0 };
    let mut h = FpHasher::new();
    h.write_u64(tag);
    (reg, value).hash(&mut h);
    h.finish128()
}

/// A system configuration plus the machinery to evolve it: the paper's
/// `Exec_A(C; σ)` made executable.
///
/// See the [crate docs](crate) for the model; see [`Machine::step`] for the
/// step rule.
///
/// A clone is the same configuration — counters, trace, locality tracker
/// (or its absence) and kept fingerprint included — with an empty undo
/// trail. [`Clone::clone_from`] gives the same machine into an existing
/// one, reusing its allocations and, for a `fencevm` process running the
/// same program, leaving the shared program's reference count alone.
#[derive(Debug)]
pub struct Machine<P: Process> {
    config: MachineConfig,
    mem: RegMap<Value>,
    procs: Vec<ProcSlot<P>>,
    /// `None` once [`forget_locality`](Self::forget_locality) dropped it.
    locality: Option<LocalityTracker>,
    counters: Counters,
    trace: Trace,
    next_nonce: u64,
    /// The state fingerprint, while it is being kept up to date: set by
    /// [`step_recorded`](Self::step_recorded) and [`undo`](Self::undo),
    /// dropped by every other mutation (see
    /// [`fingerprint`](Self::fingerprint)).
    fp: Option<u128>,
    trail: Trail<P>,
}

impl<P: Process> Clone for Machine<P> {
    fn clone(&self) -> Self {
        Machine {
            config: self.config.clone(),
            mem: self.mem.clone(),
            procs: self.procs.clone(),
            locality: self.locality.clone(),
            counters: self.counters.clone(),
            trace: self.trace.clone(),
            next_nonce: self.next_nonce,
            fp: self.fp,
            trail: Trail::default(),
        }
    }

    /// Field by field into `self`'s allocations; `self`'s trail is
    /// emptied (its storage kept), so its tokens are void, as if `self`
    /// were a fresh clone.
    fn clone_from(&mut self, source: &Self) {
        let Machine {
            ref config,
            ref mem,
            ref procs,
            ref locality,
            ref counters,
            ref trace,
            next_nonce,
            fp,
            trail: _,
        } = *source;
        self.config.clone_from(config);
        self.mem.clone_from(mem);
        self.procs.clone_from(procs);
        self.locality.clone_from(locality);
        self.counters.clone_from(counters);
        self.trace.clone_from(trace);
        self.next_nonce = next_nonce;
        self.fp = fp;
        self.trail.clear();
    }
}

impl<P: Process> Machine<P> {
    /// A machine at the initial configuration: every register ⊥, every
    /// buffer empty, every process at its initial state.
    #[must_use]
    pub fn new(config: MachineConfig, procs: Vec<P>) -> Self {
        let n = procs.len();
        let model = config.model;
        Machine {
            config,
            mem: RegMap::default(),
            procs: procs
                .into_iter()
                .map(|prog| ProcSlot {
                    prog,
                    buffer: WriteBuffer::new(model),
                    returned: None,
                    crashes: 0,
                    fp: 0,
                    idle_read: None,
                })
                .collect(),
            locality: Some(LocalityTracker::new(n)),
            counters: Counters::new(n),
            trace: Trace::new(),
            next_nonce: 0,
            fp: None,
            trail: Trail::default(),
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// The machine's configuration parameters.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Pre-execution register initialization: sets shared memory directly,
    /// without a step, without accounting, and without granting anyone
    /// commit ownership.
    pub fn init_reg(&mut self, reg: RegId, value: Value) {
        self.fp = None;
        self.mem.set(reg, Some(value));
    }

    /// Set the crash-fault budget and semantics after construction (the
    /// model checker applies `CheckConfig` crash settings this way, without
    /// rebuilding the machine).
    pub fn set_crash_bound(&mut self, semantics: CrashSemantics, max_crashes: u32) {
        self.config.crash_semantics = semantics;
        self.config.max_crashes = max_crashes;
    }

    /// Crash steps already spent on process `p`.
    #[must_use]
    pub fn crashes(&self, p: ProcId) -> u32 {
        self.procs[p.index()].crashes
    }

    /// The current value of `reg` in shared memory (⊥ if never committed).
    #[must_use]
    pub fn memory(&self, reg: RegId) -> Value {
        self.mem.get(reg).unwrap_or(Value::Bot)
    }

    /// Every shared-memory cell holding a non-⊥ value, in register order.
    pub fn memory_cells(&self) -> impl Iterator<Item = (RegId, Value)> + '_ {
        self.mem.iter().filter(|(_, value)| !value.is_bot())
    }

    /// The operation process `p` is poised to execute (`next_p(C)`), or
    /// [`Poised::Done`] if `p` has returned.
    #[must_use]
    pub fn poised(&self, p: ProcId) -> Poised {
        let slot = &self.procs[p.index()];
        if slot.returned.is_some() {
            Poised::Done
        } else {
            slot.prog.poised()
        }
    }

    /// Process `p`'s idle-read memo (see [`step`](Self::step)): the value
    /// its last step read, if that was a plain step that left it idle.
    /// Not part of the state; for tests and diagnostics.
    #[must_use]
    pub fn idle_read(&self, p: ProcId) -> Option<Value> {
        self.procs[p.index()].idle_read
    }

    /// Whether `p` is in a final state.
    #[must_use]
    pub fn is_done(&self, p: ProcId) -> bool {
        self.procs[p.index()].returned.is_some()
    }

    /// Whether every process is in a final state.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.procs.iter().all(|s| s.returned.is_some())
    }

    /// The number of processes in a final state (the paper's `NbFinal(C)`).
    #[must_use]
    pub fn nb_final(&self) -> u64 {
        self.procs.iter().filter(|s| s.returned.is_some()).count() as u64
    }

    /// The value `p` returned, if it has.
    #[must_use]
    pub fn return_value(&self, p: ProcId) -> Option<u64> {
        self.procs[p.index()].returned
    }

    /// All return values, indexed by process id (`None` for unfinished).
    #[must_use]
    pub fn return_values(&self) -> Vec<Option<u64>> {
        self.procs.iter().map(|s| s.returned).collect()
    }

    /// Process `p`'s write buffer.
    #[must_use]
    pub fn buffer(&self, p: ProcId) -> &WriteBuffer {
        &self.procs[p.index()].buffer
    }

    /// Process `p`'s program state (for static-analysis hooks such as
    /// [`Process::future_access`]).
    #[must_use]
    pub fn process(&self, p: ProcId) -> &P {
        &self.procs[p.index()].prog
    }

    /// Whether `p`'s write buffer is empty.
    #[must_use]
    pub fn buffer_is_empty(&self, p: ProcId) -> bool {
        self.procs[p.index()].buffer.is_empty()
    }

    /// Process `p`'s program annotation (see
    /// [`Process::annotation`]).
    #[must_use]
    pub fn annotation(&self, p: ProcId) -> u64 {
        self.procs[p.index()].prog.annotation()
    }

    /// Fence/RMR accounting so far.
    #[must_use]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The recorded trace (empty unless `record_trace` was set).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The locality tracker (caches and commit ownership), unless the
    /// machine [forgot](Self::forget_locality) it.
    #[must_use]
    pub fn locality(&self) -> Option<&LocalityTracker> {
        self.locality.as_ref()
    }

    /// Stop accounting for good: drop the locality tracker and freeze the
    /// [`counters`](Self::counters). From here on no read or store probes
    /// a cache or moves commit ownership, every event reports a local
    /// step, and no step raises a counter (nor an undo lowers one: the
    /// counters keep what they held when the tracker was dropped). The
    /// state, its fingerprint and the enabled choices are those of a
    /// machine that kept both, and so are the events but for their
    /// `remote` flags; clones inherit the absence. A search, which
    /// explores states rather than one execution's cost, calls this on
    /// the machine it walks and counts steps from their events.
    pub fn forget_locality(&mut self) {
        self.locality = None;
    }

    /// Stream the behaviourally relevant state (exactly what
    /// [`state_key`](Self::state_key) captures) into a caller-chosen
    /// hasher, without materializing a snapshot. O(state); searches that
    /// key a visited set use [`fingerprint`](Self::fingerprint) instead.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash as _;
        self.mem.len().hash(h);
        for (reg, value) in self.mem.iter() {
            reg.hash(h);
            value.hash(h);
        }
        self.procs.len().hash(h);
        for slot in &self.procs {
            slot.prog.hash(h);
            slot.buffer.hash(h);
            slot.returned.hash(h);
            slot.crashes.hash(h);
        }
    }

    /// The 128-bit fingerprint of the behaviourally relevant state: equal
    /// [`state_key`](Self::state_key)s give equal fingerprints, and
    /// distinct ones collide with probability ~2⁻¹²⁸. It is the XOR of one
    /// [`FpHasher`] digest per state component — each keyed by the slot it
    /// fills, so a state never holds two equal components that would
    /// cancel:
    ///
    /// * a memory cell: `(reg, value)`;
    /// * a PSO buffer entry: `(proc, reg, value)`;
    /// * a process: `(proc, program state, return value, crash count)`,
    ///   followed under TSO by its FIFO queue in order (the queue's order
    ///   is state, a set of entries would lose it).
    ///
    /// The value depends on nothing but the state (no random seeds, no
    /// addresses), so it agrees across threads, OS processes and runs.
    ///
    /// [`step_recorded`](Self::step_recorded) and [`undo`](Self::undo) keep
    /// the fingerprint current in O(step footprint) — each process's
    /// component is kept next to its slot, so a step hashes the moved
    /// process once, after it moved; every other mutation
    /// ([`step`](Self::step), [`init_reg`](Self::init_reg)) drops it, and
    /// this method then rehashes the whole state.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.fp
            .unwrap_or_else(|| self.fold_components(|i| self.proc_fp(i)))
    }

    /// The XOR of every fingerprint component, taking process `i`'s from
    /// `proc_component(i)`.
    fn fold_components(&self, mut proc_component: impl FnMut(usize) -> u128) -> u128 {
        let mut fp = 0;
        for (reg, value) in self.mem.iter() {
            fp ^= entry_fp(FP_MEM, reg, Some(value));
        }
        for (i, slot) in self.procs.iter().enumerate() {
            fp ^= proc_component(i);
            if let WriteBuffer::Pso(entries) = &slot.buffer {
                for &(reg, value) in entries.iter() {
                    fp ^= entry_fp(FP_BUFFERED | i as u64, reg, Some(value));
                }
            }
        }
        fp
    }

    /// The fingerprint, kept from here on: rehashes the state, every
    /// process's component included, unless it is being kept already.
    pub(super) fn keep_fingerprint(&mut self) -> u128 {
        if let Some(fp) = self.fp {
            return fp;
        }
        for i in 0..self.procs.len() {
            self.procs[i].fp = self.proc_fp(i);
        }
        let fp = self.fold_components(|i| self.procs[i].fp);
        self.fp = Some(fp);
        fp
    }

    /// Whether the kept fingerprint and process components (if kept) are
    /// what a rehash of the state gives.
    pub(super) fn kept_fingerprint_is_current(&self) -> bool {
        let Some(fp) = self.fp else { return true };
        let mut components_current = true;
        let rehashed = self.fold_components(|i| {
            let component = self.proc_fp(i);
            components_current &= component == self.procs[i].fp;
            component
        });
        components_current && rehashed == fp
    }

    /// The fingerprint component of process `i`.
    pub(super) fn proc_fp(&self, i: usize) -> u128 {
        use std::hash::{Hash as _, Hasher as _};
        let slot = &self.procs[i];
        let mut h = FpHasher::new();
        h.write_u64(FP_PROC | i as u64);
        slot.prog.hash(&mut h);
        slot.returned.hash(&mut h);
        h.write_u32(slot.crashes);
        if let WriteBuffer::Tso(queue) = &slot.buffer {
            h.write_usize(queue.len());
            for entry in queue {
                entry.hash(&mut h);
            }
        }
        h.finish128()
    }

    /// A hashable snapshot of the behaviourally relevant state.
    #[must_use]
    pub fn state_key(&self) -> StateKey<P> {
        let mut mem = Vec::with_capacity(self.mem.len());
        mem.extend(self.mem.iter());
        StateKey {
            mem,
            procs: self
                .procs
                .iter()
                .map(|s| (s.prog.clone(), s.buffer.clone(), s.returned, s.crashes))
                .collect(),
        }
    }
}
