//! The shared-memory machine: configurations, the step rule, and accounting.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::buffer::{BufferUndo, WriteBuffer};
use crate::counters::{Counters, ProcCounters};
use crate::event::{Event, EventKind, Trace};
use crate::fingerprint::FpHasher;
use crate::footprint::{Footprint, FootprintKind};
use crate::model::MemoryModel;
use crate::process::{Poised, Process};
use crate::reg::{MemoryLayout, ProcId, RegId};
use crate::rmr::LocalityTracker;
use crate::sched::SchedElem;
use crate::value::Value;

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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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
        /// Steps taken before the revisit was detected.
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
/// trace). Used as the visited-set key by the model checker.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StateKey<P: Process> {
    mem: Vec<(RegId, Value)>,
    procs: Vec<(P, WriteBuffer, Option<u64>, u32)>,
}

/// Everything needed to reverse one [`Machine::step_recorded`] call.
///
/// A step's mutation footprint is small — one process's program and buffer,
/// at most one shared-memory cell, at most one commit-ownership entry, at
/// most two cache entries, one process's counters — so recording it and
/// reversing it is O(footprint), not O(machine). This is what makes
/// depth-first search backtrack by undoing instead of cloning whole
/// configurations. The token also carries the step's effect on the state
/// fingerprint ([`Machine::fingerprint`]) as one XOR delta, so rewinding
/// the fingerprint costs one XOR however large the state is.
///
/// A token owns no heap memory unless the saved program state does (the
/// `fencevm` interpreter's is inline) or the step was a crash, whose
/// unbounded pre-image is boxed.
///
/// Tokens must be applied to the machine that produced them, in reverse
/// order of the steps they record (LIFO).
#[derive(Clone, Debug)]
pub struct UndoToken<P> {
    proc: ProcId,
    /// The dependence footprint of the recorded step (predicted from the
    /// pre-step configuration; see [`Machine::choice_footprint`]).
    footprint: Footprint,
    /// The program state before the step, if the step advanced it.
    prog: Option<P>,
    returned: Option<u64>,
    buffer: BufferUndo,
    /// `(reg, prior value)` for the shared-memory cell the step wrote.
    mem: Option<(RegId, Option<Value>)>,
    /// `(reg, prior owner)` for the commit-ownership entry the step moved.
    committer: Option<(RegId, Option<ProcId>)>,
    /// Cache entries the step newly inserted (a step observes ≤ 2 values).
    cache: [Option<(RegId, Value)>; 2],
    counters: ProcCounters,
    /// Crash budget spent by the process before the step.
    crashes: u32,
    /// The crash footprint, if the step was a crash. A crash exceeds every
    /// per-step bound of the fields above (a drain commits the whole buffer
    /// — many memory cells, many ownership moves), so its pre-image rides in
    /// a dedicated boxed record; crash-free steps pay one unused `None`.
    crash: Option<Box<CrashUndo>>,
    next_nonce: u64,
    trace_len: usize,
    /// XOR of the fingerprint components the step removed and added.
    fp_delta: u128,
}

impl<P> UndoToken<P> {
    /// The dependence footprint of the step this token records: which
    /// process moved and which shared cell the step read, wrote, or
    /// committed. Computed from the pre-step configuration, so it describes
    /// the step actually taken (e.g. a read reports `Local` when it was
    /// served from the process's own buffer).
    #[must_use]
    pub fn footprint(&self) -> Footprint {
        self.footprint
    }
}

/// The full pre-image of a crash step: the buffer as it was before the
/// crash, plus (for draining semantics) every memory cell the drain
/// overwrote and every commit-ownership entry it moved, in commit order.
#[derive(Clone, Debug)]
struct CrashUndo {
    buffer: WriteBuffer,
    mem: Vec<(RegId, Option<Value>)>,
    committers: Vec<(RegId, Option<ProcId>)>,
}

/// Collects the pre-images of the commits a draining crash performs. The
/// ordinary [`UndoToken`] sink asserts one-mutation-per-step bounds that a
/// drain legitimately exceeds, so crash commits are funneled through this
/// sink instead and the result is attached to the token as a [`CrashUndo`].
#[derive(Default)]
struct CrashRecorder {
    mem: Vec<(RegId, Option<Value>)>,
    committers: Vec<(RegId, Option<ProcId>)>,
}

impl<P> UndoSink<P> for CrashRecorder {
    fn mem_overwritten(&mut self, reg: RegId, old: Option<Value>) {
        self.mem.push((reg, old));
    }
    fn committer_moved(&mut self, reg: RegId, old: Option<ProcId>) {
        self.committers.push((reg, old));
    }
}

/// Receives the pre-images of a step's mutations as they happen. The unit
/// sink `()` compiles to nothing (plain [`Machine::step`]); an
/// [`UndoToken`] records them ([`Machine::step_recorded`]).
trait UndoSink<P> {
    fn save_prog(&mut self, _prog: &P) {}
    fn mem_overwritten(&mut self, _reg: RegId, _old: Option<Value>) {}
    fn committer_moved(&mut self, _reg: RegId, _old: Option<ProcId>) {}
    fn cache_inserted(&mut self, _reg: RegId, _value: Value) {}
    fn buffer_mutated(&mut self, _undo: BufferUndo) {}
    // Boxed because the recording sink stores it whole in the `UndoToken`;
    // the no-op default just drops it.
    #[allow(clippy::boxed_local)]
    fn crashed(&mut self, _undo: Box<CrashUndo>) {}
}

impl<P> UndoSink<P> for () {}

impl<P: Process> UndoSink<P> for UndoToken<P> {
    fn save_prog(&mut self, prog: &P) {
        if self.prog.is_none() {
            self.prog = Some(prog.clone());
        }
    }
    fn mem_overwritten(&mut self, reg: RegId, old: Option<Value>) {
        debug_assert!(self.mem.is_none(), "a step writes at most one cell");
        self.mem = Some((reg, old));
    }
    fn committer_moved(&mut self, reg: RegId, old: Option<ProcId>) {
        debug_assert!(self.committer.is_none(), "a step commits at most once");
        self.committer = Some((reg, old));
    }
    fn cache_inserted(&mut self, reg: RegId, value: Value) {
        let slot = self
            .cache
            .iter_mut()
            .find(|s| s.is_none())
            .expect("a step observes at most two values");
        *slot = Some((reg, value));
    }
    fn buffer_mutated(&mut self, undo: BufferUndo) {
        debug_assert_eq!(
            self.buffer,
            BufferUndo::None,
            "a step mutates the buffer at most once"
        );
        self.buffer = undo;
    }
    fn crashed(&mut self, undo: Box<CrashUndo>) {
        debug_assert!(self.crash.is_none(), "a step crashes at most once");
        self.crash = Some(undo);
    }
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
#[derive(Clone, Debug)]
pub struct Machine<P: Process> {
    config: MachineConfig,
    mem: BTreeMap<RegId, Value>,
    procs: Vec<ProcSlot<P>>,
    locality: LocalityTracker,
    counters: Counters,
    trace: Trace,
    next_nonce: u64,
    /// The state fingerprint, while it is being kept up to date: set by
    /// [`step_recorded`](Self::step_recorded) and [`undo`](Self::undo),
    /// dropped by every other mutation (see
    /// [`fingerprint`](Self::fingerprint)).
    fp: Option<u128>,
    // Observability hook: shared (Arc-backed) recorder, disabled by
    // default. Excluded from `fingerprint`/`hash_state`/`state_key` (those
    // enumerate fields explicitly) and from replay semantics; clones share
    // it, so every clone of an instrumented machine reports to the same
    // sink.
    obs: ftobs::Recorder,
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
            mem: BTreeMap::new(),
            procs: procs
                .into_iter()
                .map(|prog| ProcSlot {
                    prog,
                    buffer: WriteBuffer::new(model),
                    returned: None,
                    crashes: 0,
                })
                .collect(),
            locality: LocalityTracker::new(n),
            counters: Counters::new(n),
            trace: Trace::new(),
            next_nonce: 0,
            fp: None,
            obs: ftobs::Recorder::disabled(),
        }
    }

    /// Attach a metrics recorder: every subsequent executed step (and
    /// undo) is classified and counted through it. Clones of the machine
    /// share the recorder. Pass [`ftobs::Recorder::disabled`] to detach.
    pub fn set_recorder(&mut self, obs: ftobs::Recorder) {
        self.obs = obs;
    }

    /// The attached metrics recorder (disabled unless
    /// [`set_recorder`](Self::set_recorder) was called).
    #[must_use]
    pub fn recorder(&self) -> &ftobs::Recorder {
        &self.obs
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
        self.mem.insert(reg, value);
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
        self.mem.get(&reg).copied().unwrap_or(Value::Bot)
    }

    /// Every shared-memory cell holding a non-⊥ value, in register order.
    pub fn memory_cells(&self) -> impl Iterator<Item = (RegId, Value)> + '_ {
        let cells = self.mem.iter().map(|(&reg, &value)| (reg, value));
        cells.filter(|(_, value)| !value.is_bot())
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

    /// The locality tracker (caches and commit ownership).
    #[must_use]
    pub fn locality(&self) -> &LocalityTracker {
        &self.locality
    }

    /// Stream the behaviourally relevant state (exactly what
    /// [`state_key`](Self::state_key) captures) into a caller-chosen
    /// hasher, without materializing a snapshot. O(state); searches that
    /// key a visited set use [`fingerprint`](Self::fingerprint) instead.
    pub fn hash_state<H: std::hash::Hasher>(&self, h: &mut H) {
        use std::hash::Hash as _;
        self.mem.len().hash(h);
        for (reg, value) in &self.mem {
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
    /// the fingerprint current in O(step footprint); every other mutation
    /// ([`step`](Self::step), [`init_reg`](Self::init_reg)) drops it, and
    /// this method then rehashes the whole state.
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        self.fp.unwrap_or_else(|| self.fingerprint_from_scratch())
    }

    fn fingerprint_from_scratch(&self) -> u128 {
        let mut fp = 0;
        for (&reg, &value) in &self.mem {
            fp ^= entry_fp(FP_MEM, reg, Some(value));
        }
        for (i, slot) in self.procs.iter().enumerate() {
            fp ^= self.proc_fp(i);
            if let WriteBuffer::Pso(entries) = &slot.buffer {
                for (&reg, &value) in entries {
                    fp ^= entry_fp(FP_BUFFERED | i as u64, reg, Some(value));
                }
            }
        }
        fp
    }

    /// The fingerprint component of process `i`.
    fn proc_fp(&self, i: usize) -> u128 {
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

    /// What the step recorded in `token` did to the fingerprint. `proc_before`
    /// is the moved process's component before the step, or `None` when the
    /// step cannot have changed it.
    fn fp_delta(&self, token: &UndoToken<P>, proc_before: Option<u128>) -> u128 {
        let i = token.proc.index();
        let buffered = FP_BUFFERED | i as u64;
        // A cell's change: its component before, XOR its component now.
        let cell_delta = |reg: RegId, old: Option<Value>| {
            entry_fp(FP_MEM, reg, old) ^ entry_fp(FP_MEM, reg, self.mem.get(&reg).copied())
        };
        let mut delta = proc_before.map_or(0, |before| before ^ self.proc_fp(i));
        if let Some((reg, old)) = token.mem {
            delta ^= cell_delta(reg, old);
        }
        // TSO queue mutations are part of the process component.
        match token.buffer {
            BufferUndo::RestorePso(reg, old) => {
                let now = self.procs[i].buffer.read(reg);
                delta ^= entry_fp(buffered, reg, old) ^ entry_fp(buffered, reg, now);
            }
            BufferUndo::Insert(reg, v) => delta ^= entry_fp(buffered, reg, Some(v)),
            BufferUndo::None | BufferUndo::PopBack | BufferUndo::PushFront(..) => {}
        }
        if let Some(crash) = &token.crash {
            // The buffer is empty afterwards under either semantics.
            if let WriteBuffer::Pso(entries) = &crash.buffer {
                for (&reg, &v) in entries {
                    delta ^= entry_fp(buffered, reg, Some(v));
                }
            }
            // A TSO drain can commit one register twice: the first
            // pre-image is the cell's value before the crash.
            for (k, &(reg, old)) in crash.mem.iter().enumerate() {
                if crash.mem[..k].iter().all(|&(r, _)| r != reg) {
                    delta ^= cell_delta(reg, old);
                }
            }
        }
        delta
    }

    /// A hashable snapshot of the behaviourally relevant state.
    #[must_use]
    pub fn state_key(&self) -> StateKey<P> {
        StateKey {
            mem: self.mem.iter().map(|(&r, &v)| (r, v)).collect(),
            procs: self
                .procs
                .iter()
                .map(|s| (s.prog.clone(), s.buffer.clone(), s.returned, s.crashes))
                .collect(),
        }
    }

    /// Apply one schedule element, following the paper's rule:
    ///
    /// 1. If the element names a register `R` and `p` has a committable
    ///    buffered write to `R`, the step commits it.
    /// 2. Otherwise, if `p` is poised at `fence()` with a non-empty buffer,
    ///    the step commits the write to the smallest buffered register
    ///    (oldest, under TSO).
    /// 3. Otherwise the step performs `p`'s poised operation (read, write,
    ///    fence, or return). If `p` is in a final state, nothing happens.
    pub fn step(&mut self, elem: SchedElem) -> StepOutcome {
        self.fp = None;
        self.step_impl(elem, &mut ())
    }

    /// Like [`step`](Self::step), but also returns an [`UndoToken`] that
    /// [`undo`](Self::undo) accepts to restore the pre-step machine —
    /// counters, caches, ownership, and trace included — in O(footprint)
    /// time. A `NoOp` step yields a trivial (but still valid) token.
    pub fn step_recorded(&mut self, elem: SchedElem) -> (StepOutcome, UndoToken<P>) {
        let i = elem.proc.index();
        let footprint = self.choice_footprint(elem);
        let fp = self.fingerprint();
        // A PSO commit moves one buffer entry to memory and leaves the
        // process component alone; every other step may change it.
        let proc_before = match (footprint.kind, &self.procs[i].buffer) {
            (FootprintKind::Commit(_), WriteBuffer::Pso(_)) => None,
            _ => Some(self.proc_fp(i)),
        };
        let mut token = UndoToken {
            proc: elem.proc,
            footprint,
            prog: None,
            returned: self.procs[i].returned,
            buffer: BufferUndo::None,
            mem: None,
            committer: None,
            cache: [None, None],
            counters: *self.counters.proc(i),
            crashes: self.procs[i].crashes,
            crash: None,
            next_nonce: self.next_nonce,
            trace_len: self.trace.len(),
            fp_delta: 0,
        };
        let out = self.step_impl(elem, &mut token);
        token.fp_delta = self.fp_delta(&token, proc_before);
        self.fp = Some(fp ^ token.fp_delta);
        debug_assert_eq!(self.fp, Some(self.fingerprint_from_scratch()));
        (out, token)
    }

    /// Reverse the step that produced `token`. Tokens must be applied to
    /// the machine that produced them, newest first (LIFO) — the depth-first
    /// search discipline.
    pub fn undo(&mut self, token: UndoToken<P>) {
        self.obs.on_undo();
        let i = token.proc.index();
        let slot = &mut self.procs[i];
        if let Some(prog) = token.prog {
            slot.prog = prog;
        }
        slot.returned = token.returned;
        slot.buffer.apply_undo(token.buffer);
        if let Some((reg, old)) = token.mem {
            match old {
                Some(v) => {
                    self.mem.insert(reg, v);
                }
                None => {
                    self.mem.remove(&reg);
                }
            }
        }
        if let Some((reg, old)) = token.committer {
            self.locality.set_last_committer(reg, old);
        }
        for (reg, value) in token.cache.into_iter().flatten() {
            self.locality.unobserve(token.proc, reg, value);
        }
        if let Some(crash) = token.crash {
            // Reverse a crash: restore the pre-crash buffer wholesale, then
            // roll back the drain's commits newest-first (LIFO — a TSO drain
            // can commit the same register twice).
            self.procs[i].buffer = crash.buffer;
            for (reg, old) in crash.mem.into_iter().rev() {
                match old {
                    Some(v) => {
                        self.mem.insert(reg, v);
                    }
                    None => {
                        self.mem.remove(&reg);
                    }
                }
            }
            for (reg, old) in crash.committers.into_iter().rev() {
                self.locality.set_last_committer(reg, old);
            }
        }
        self.procs[i].crashes = token.crashes;
        *self.counters.proc_mut(i) = token.counters;
        self.next_nonce = token.next_nonce;
        self.trace.truncate(token.trace_len);
        if let Some(fp) = &mut self.fp {
            *fp ^= token.fp_delta;
        }
        debug_assert_eq!(self.fingerprint(), self.fingerprint_from_scratch());
    }

    fn step_impl<U: UndoSink<P>>(&mut self, elem: SchedElem, u: &mut U) -> StepOutcome {
        let p = elem.proc;
        if self.is_done(p) {
            return StepOutcome::NoOp;
        }
        if elem.crash {
            return self.do_crash(p, u);
        }
        if let Some(reg) = elem.reg {
            if self.procs[p.index()].buffer.can_commit(reg) {
                return self.do_commit(p, reg, u);
            }
        }
        match self.poised(p) {
            Poised::Fence => {
                if let Some(reg) = self.procs[p.index()].buffer.fence_commit_target() {
                    self.do_commit(p, reg, u)
                } else {
                    self.counters.proc_mut(p.index()).fences += 1;
                    u.save_prog(&self.procs[p.index()].prog);
                    self.procs[p.index()].prog.advance(None);
                    self.emit(p, EventKind::Fence)
                }
            }
            Poised::Cas { reg, expected, new } => {
                // A CAS orders the store buffer like a fence: drain first.
                if let Some(target) = self.procs[p.index()].buffer.fence_commit_target() {
                    self.do_commit(p, target, u)
                } else {
                    self.do_cas(p, reg, expected, new, u)
                }
            }
            Poised::Swap { reg, new } => {
                if let Some(target) = self.procs[p.index()].buffer.fence_commit_target() {
                    self.do_commit(p, target, u)
                } else {
                    self.do_swap(p, reg, new, u)
                }
            }
            Poised::Read(reg) => self.do_read(p, reg, u),
            Poised::Write(reg, value) => self.do_write(p, reg, value, u),
            Poised::Return(value) => {
                self.procs[p.index()].returned = Some(value);
                self.emit(p, EventKind::Return { value })
            }
            Poised::Done => StepOutcome::NoOp,
        }
    }

    fn do_read<U: UndoSink<P>>(&mut self, p: ProcId, reg: RegId, u: &mut U) -> StepOutcome {
        let (value, from_memory) = match self.procs[p.index()].buffer.read(reg) {
            Some(v) => (v, false),
            None => (self.memory(reg), true),
        };
        let local = self
            .locality
            .read_is_local(&self.config.layout, p, reg, value);
        let c = self.counters.proc_mut(p.index());
        c.reads += 1;
        if !from_memory {
            c.buffer_reads += 1;
        }
        if !local {
            c.remote_reads += 1;
            c.rmrs += 1;
        }
        if self.locality.observe(p, reg, value) {
            u.cache_inserted(reg, value);
        }
        u.save_prog(&self.procs[p.index()].prog);
        self.procs[p.index()].prog.advance(Some(value));
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

    fn do_write<U: UndoSink<P>>(
        &mut self,
        p: ProcId,
        reg: RegId,
        value: Value,
        u: &mut U,
    ) -> StepOutcome {
        let value = if self.config.tag_writes {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            Value::Tagged {
                payload: value.payload(),
                nonce,
            }
        } else {
            value
        };
        self.counters.proc_mut(p.index()).writes += 1;
        if self.locality.observe(p, reg, value) {
            u.cache_inserted(reg, value);
        }
        u.save_prog(&self.procs[p.index()].prog);
        self.procs[p.index()].prog.advance(None);
        if self.config.model.buffers_writes() {
            let undo = self.procs[p.index()].buffer.push_recorded(reg, value);
            u.buffer_mutated(undo);
            self.emit(p, EventKind::Write { reg, value })
        } else {
            // SC: the write commits immediately; record both effects.
            if self.config.record_trace {
                self.trace.push(Event {
                    proc: p,
                    kind: EventKind::Write { reg, value },
                });
            }
            // The Write half bypasses `emit` here (only the Commit goes
            // through it), so count it directly; the pc is attributed by
            // the Commit's `emit`.
            self.obs
                .record_step(p.index(), ftobs::StepClass::Write { buffer_depth: 0 }, None);
            self.commit_to_memory(p, reg, value, u)
        }
    }

    fn do_cas<U: UndoSink<P>>(
        &mut self,
        p: ProcId,
        reg: RegId,
        expected: u64,
        new: Value,
        u: &mut U,
    ) -> StepOutcome {
        debug_assert!(
            self.procs[p.index()].buffer.is_empty(),
            "CAS requires a drained buffer"
        );
        let observed = self.memory(reg);
        let success = observed.payload() == expected;
        let (stored, local) = if success {
            // A successful CAS writes memory: charge it like a commit.
            let local = self.locality.commit_is_local(&self.config.layout, p, reg);
            let value = if self.config.tag_writes {
                let nonce = self.next_nonce;
                self.next_nonce += 1;
                Value::Tagged {
                    payload: new.payload(),
                    nonce,
                }
            } else {
                new
            };
            u.mem_overwritten(reg, self.mem.insert(reg, value));
            u.committer_moved(reg, self.locality.record_commit(p, reg));
            if self.locality.observe(p, reg, value) {
                u.cache_inserted(reg, value);
            }
            (Some(value), local)
        } else {
            // A failed CAS only observes: charge it like a read.
            let local = self
                .locality
                .read_is_local(&self.config.layout, p, reg, observed);
            (None, local)
        };
        if self.locality.observe(p, reg, observed) {
            u.cache_inserted(reg, observed);
        }
        let c = self.counters.proc_mut(p.index());
        c.cas_ops += 1;
        if !local {
            c.remote_cas += 1;
            c.rmrs += 1;
        }
        u.save_prog(&self.procs[p.index()].prog);
        self.procs[p.index()].prog.advance(Some(observed));
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

    fn do_swap<U: UndoSink<P>>(
        &mut self,
        p: ProcId,
        reg: RegId,
        new: Value,
        u: &mut U,
    ) -> StepOutcome {
        debug_assert!(
            self.procs[p.index()].buffer.is_empty(),
            "swap requires a drained buffer"
        );
        let observed = self.memory(reg);
        // A swap always writes memory: charge it by the commit rule.
        let local = self.locality.commit_is_local(&self.config.layout, p, reg);
        let stored = if self.config.tag_writes {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            Value::Tagged {
                payload: new.payload(),
                nonce,
            }
        } else {
            new
        };
        u.mem_overwritten(reg, self.mem.insert(reg, stored));
        u.committer_moved(reg, self.locality.record_commit(p, reg));
        if self.locality.observe(p, reg, stored) {
            u.cache_inserted(reg, stored);
        }
        if self.locality.observe(p, reg, observed) {
            u.cache_inserted(reg, observed);
        }
        let c = self.counters.proc_mut(p.index());
        c.swap_ops += 1;
        if !local {
            c.remote_swaps += 1;
            c.rmrs += 1;
        }
        u.save_prog(&self.procs[p.index()].prog);
        self.procs[p.index()].prog.advance(Some(observed));
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

    /// Crash process `p`: apply the configured buffer semantics, wipe the
    /// program back to its recovery entry, spend one unit of crash budget.
    /// A no-op if crash injection is off, `p`'s budget is exhausted, or
    /// `p`'s program is not recoverable.
    fn do_crash<U: UndoSink<P>>(&mut self, p: ProcId, u: &mut U) -> StepOutcome {
        let i = p.index();
        if self.config.max_crashes == 0
            || self.procs[i].crashes >= self.config.max_crashes
            || !self.procs[i].prog.recoverable()
        {
            return StepOutcome::NoOp;
        }
        let pre_buffer = self.procs[i].buffer.clone();
        let mut rec = CrashRecorder::default();
        let lost = match self.config.crash_semantics {
            CrashSemantics::DiscardBuffer => {
                let lost = pre_buffer.len();
                self.procs[i].buffer = WriteBuffer::new(self.config.model);
                lost
            }
            CrashSemantics::DrainBuffer => {
                // Flush in fence-drain order: FIFO under TSO, smallest
                // register first under PSO. Each commit is charged and
                // traced like any other.
                while let Some(reg) = self.procs[i].buffer.fence_commit_target() {
                    match self.procs[i].buffer.take(reg) {
                        Some(value) => {
                            self.commit_to_memory(p, reg, value, &mut rec);
                        }
                        None => {
                            debug_assert!(false, "fence commit target is committable");
                            break;
                        }
                    }
                }
                0
            }
        };
        u.save_prog(&self.procs[i].prog);
        u.crashed(Box::new(CrashUndo {
            buffer: pre_buffer,
            mem: rec.mem,
            committers: rec.committers,
        }));
        self.procs[i].prog.crash_recover();
        self.procs[i].crashes += 1;
        self.counters.proc_mut(i).crashes += 1;
        self.emit(p, EventKind::Crash { lost })
    }

    fn do_commit<U: UndoSink<P>>(&mut self, p: ProcId, reg: RegId, u: &mut U) -> StepOutcome {
        let (value, undo) = self.procs[p.index()].buffer.take_recorded(reg);
        let Some(value) = value else {
            // Callers establish committability first; reaching this arm is a
            // machine bug, not a schedulable outcome.
            debug_assert!(false, "do_commit requires a committable buffered write");
            return StepOutcome::NoOp;
        };
        u.buffer_mutated(undo);
        self.commit_to_memory(p, reg, value, u)
    }

    fn commit_to_memory<U: UndoSink<P>>(
        &mut self,
        p: ProcId,
        reg: RegId,
        value: Value,
        u: &mut U,
    ) -> StepOutcome {
        let local = self.locality.commit_is_local(&self.config.layout, p, reg);
        u.mem_overwritten(reg, self.mem.insert(reg, value));
        u.committer_moved(reg, self.locality.record_commit(p, reg));
        let c = self.counters.proc_mut(p.index());
        c.commits += 1;
        if !local {
            c.remote_commits += 1;
            c.rmrs += 1;
        }
        self.emit(
            p,
            EventKind::Commit {
                reg,
                value,
                remote: !local,
            },
        )
    }

    fn emit(&mut self, p: ProcId, kind: EventKind) -> StepOutcome {
        let event = Event { proc: p, kind };
        if self.config.record_trace {
            self.trace.push(event.clone());
        }
        // `emit` is the single funnel for every executed event (crash
        // drain-commits and SC immediate commits included), so one
        // classification here covers all step paths. The disabled-recorder
        // fast path is this one branch.
        if self.obs.is_enabled() {
            let class = match event.kind {
                EventKind::Read {
                    from_memory,
                    remote,
                    ..
                } => ftobs::StepClass::Read {
                    buffered: !from_memory,
                    remote,
                },
                EventKind::Write { .. } => ftobs::StepClass::Write {
                    buffer_depth: self.procs[p.index()].buffer.len() as u64,
                },
                EventKind::Fence => ftobs::StepClass::Fence,
                EventKind::Cas { remote, .. } => ftobs::StepClass::Cas { remote },
                EventKind::Commit { remote, .. } => ftobs::StepClass::Commit { remote },
                EventKind::Swap { remote, .. } => ftobs::StepClass::Swap { remote },
                EventKind::Return { .. } => ftobs::StepClass::Return,
                EventKind::Crash { .. } => ftobs::StepClass::Crash,
            };
            let pc = self.procs[p.index()].prog.obs_pc();
            self.obs.record_step(p.index(), class, pc);
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
    /// progress; exceeding it yields [`SoloOutcome::Unknown`].
    #[must_use]
    pub fn solo_outcome(&self, p: ProcId, max_steps: usize) -> SoloOutcome {
        if let Some(ret) = self.return_value(p) {
            return SoloOutcome::Terminates { steps: 0, ret };
        }
        let slot = &self.procs[p.index()];
        let mut prog = slot.prog.clone();
        let mut buffer = slot.buffer.clone();
        // Commits during the solo run land in an overlay so we never clone
        // or mutate shared memory.
        let mut overlay: HashMap<RegId, Value> = HashMap::new();
        type SoloState<P> = (P, WriteBuffer, Vec<(RegId, Value)>);
        let mut seen: HashSet<SoloState<P>> = HashSet::new();

        for steps in 0..max_steps {
            let mut overlay_key: Vec<(RegId, Value)> =
                overlay.iter().map(|(&r, &v)| (r, v)).collect();
            overlay_key.sort_unstable();
            if !seen.insert((prog.clone(), buffer.clone(), overlay_key)) {
                return SoloOutcome::Diverges { steps };
            }
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
                        overlay.insert(reg, v);
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
                        overlay.insert(target, v);
                    } else {
                        let observed = overlay
                            .get(&reg)
                            .copied()
                            .unwrap_or_else(|| self.memory(reg));
                        if observed.payload() == expected {
                            overlay.insert(reg, new);
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
                        overlay.insert(target, v);
                    } else {
                        let observed = overlay
                            .get(&reg)
                            .copied()
                            .unwrap_or_else(|| self.memory(reg));
                        overlay.insert(reg, new);
                        prog.advance(Some(observed));
                    }
                }
                Poised::Read(reg) => {
                    let v = buffer
                        .read(reg)
                        .or_else(|| overlay.get(&reg).copied())
                        .unwrap_or_else(|| self.memory(reg));
                    prog.advance(Some(v));
                }
                Poised::Write(reg, value) => {
                    // Tagging is irrelevant to control flow (programs see
                    // only payloads), so solo runs skip it.
                    prog.advance(None);
                    if self.config.model.buffers_writes() {
                        buffer.push(reg, value);
                    } else {
                        overlay.insert(reg, value);
                    }
                }
            }
        }
        SoloOutcome::Unknown
    }

    /// The dependence footprint of schedule element `elem` in the current
    /// configuration, *without* taking the step: which shared cell the step
    /// would read, write, or commit, classified for the independence
    /// relation ([`Footprint::independent`]).
    ///
    /// The prediction mirrors [`step`](Self::step)'s three-case rule
    /// exactly, and [`step_recorded`](Self::step_recorded) stamps it on the
    /// token it returns; a disabled element (no-op) reports `Local`.
    #[must_use]
    pub fn choice_footprint(&self, elem: SchedElem) -> Footprint {
        let p = elem.proc;
        let slot = &self.procs[p.index()];
        let kind = if slot.returned.is_some() {
            FootprintKind::Local // no-op
        } else if elem.crash {
            if self.config.max_crashes == 0
                || slot.crashes >= self.config.max_crashes
                || !slot.prog.recoverable()
            {
                FootprintKind::Local // no-op
            } else {
                FootprintKind::Crash {
                    drains: self.config.crash_semantics == CrashSemantics::DrainBuffer
                        && !slot.buffer.is_empty(),
                }
            }
        } else if let Some(reg) = elem.reg.filter(|&r| slot.buffer.can_commit(r)) {
            FootprintKind::Commit(reg)
        } else {
            match slot.prog.poised() {
                Poised::Fence => match slot.buffer.fence_commit_target() {
                    Some(target) => FootprintKind::Commit(target),
                    None => FootprintKind::Local,
                },
                Poised::Cas { reg, expected, .. } => match slot.buffer.fence_commit_target() {
                    Some(target) => FootprintKind::Commit(target),
                    None if self.memory(reg).payload() == expected => FootprintKind::Write(reg),
                    None => FootprintKind::Read(reg),
                },
                Poised::Swap { reg, .. } => match slot.buffer.fence_commit_target() {
                    Some(target) => FootprintKind::Commit(target),
                    None => FootprintKind::Write(reg),
                },
                Poised::Read(reg) => match slot.buffer.read(reg) {
                    Some(_) => FootprintKind::Local,
                    None => FootprintKind::Read(reg),
                },
                Poised::Write(reg, _) => {
                    if self.config.model.buffers_writes() {
                        FootprintKind::Local
                    } else {
                        FootprintKind::Write(reg)
                    }
                }
                Poised::Return(_) => FootprintKind::Return,
                Poised::Done => FootprintKind::Local,
            }
        };
        Footprint { proc: p, kind }
    }

    /// Every schedule element that would produce a step from the current
    /// configuration, with duplicates removed: all committable buffered
    /// writes of every unfinished process, plus `(p, ⊥)` where that is not
    /// just a synonym for the smallest-register fence commit, plus a crash
    /// of every process with crash budget left (when crash injection is
    /// enabled).
    #[must_use]
    pub fn choices(&self) -> Vec<SchedElem> {
        let mut out = Vec::new();
        self.choices_into(&mut out);
        out
    }

    /// [`choices`](Self::choices) into a caller-provided buffer (cleared
    /// first), so a search loop can reuse one allocation across nodes.
    pub fn choices_into(&self, out: &mut Vec<SchedElem>) {
        out.clear();
        for (i, slot) in self.procs.iter().enumerate() {
            if slot.returned.is_some() {
                continue;
            }
            let p = ProcId::from(i);
            slot.buffer
                .for_each_commit_choice(|reg| out.push(SchedElem::commit(p, reg)));
            let fence_blocked = matches!(
                slot.prog.poised(),
                Poised::Fence | Poised::Cas { .. } | Poised::Swap { .. }
            ) && !slot.buffer.is_empty();
            if !fence_blocked {
                out.push(SchedElem::op(p));
            }
            // A crash is schedulable even when `p` is fence-blocked —
            // crash-at-a-fence (writes still buffered) is exactly the
            // hazard recoverable algorithms must survive.
            if self.config.max_crashes > 0
                && slot.crashes < self.config.max_crashes
                && slot.prog.recoverable()
            {
                out.push(SchedElem::crash(p));
            }
        }
    }

    /// Re-materialize a previously explored state by replaying `path`
    /// from the current configuration: every element must be one of the
    /// state's [`choices`](Self::choices) and must produce an effective
    /// step. This is the work-stealing explorers' fork-point replay —
    /// O(path) instead of cloning another worker's machine, validated
    /// against [`choices_into`](Self::choices_into) at each step so a
    /// stale or corrupted path is detected instead of silently steered
    /// into a different state. `scratch` is the caller's reusable choice
    /// buffer.
    ///
    /// Returns `true` iff the whole path applied. On `false` the machine
    /// is left mid-path; callers must discard it (the explorers treat
    /// this as a logic error and panic into their sequential fallback).
    #[must_use]
    pub fn replay_path(&mut self, path: &[SchedElem], scratch: &mut Vec<SchedElem>) -> bool {
        for &e in path {
            self.choices_into(scratch);
            if !scratch.contains(&e) || matches!(self.step(e), StepOutcome::NoOp) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted process for tests: executes a fixed list of operations.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Script {
        ops: Vec<Poised>,
        pc: usize,
        last_read: Option<Value>,
    }

    impl Script {
        fn new(ops: Vec<Poised>) -> Self {
            Script {
                ops,
                pc: 0,
                last_read: None,
            }
        }
    }

    impl Process for Script {
        fn poised(&self) -> Poised {
            self.ops.get(self.pc).copied().unwrap_or(Poised::Done)
        }
        fn advance(&mut self, read_value: Option<Value>) {
            if read_value.is_some() {
                self.last_read = read_value;
            }
            self.pc += 1;
        }
        fn recoverable(&self) -> bool {
            true
        }
        fn crash_recover(&mut self) {
            self.pc = 0;
            self.last_read = None;
        }
    }

    fn r(i: u32) -> RegId {
        RegId(i)
    }
    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    fn pso_machine(procs: Vec<Script>) -> Machine<Script> {
        Machine::new(
            MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_trace(),
            procs,
        )
    }

    #[test]
    fn write_is_buffered_until_committed_pso() {
        let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0)));
        assert_eq!(m.memory(r(0)), Value::Bot, "write must not be visible yet");
        assert!(m.buffer(p(0)).contains(r(0)));
        m.step(SchedElem::commit(p(0), r(0)));
        assert_eq!(m.memory(r(0)), Value::Int(1));
        assert!(m.buffer_is_empty(p(0)));
    }

    #[test]
    fn fence_blocks_until_buffer_empty() {
        let w = Script::new(vec![
            Poised::Write(r(3), Value::Int(1)),
            Poised::Write(r(1), Value::Int(2)),
            Poised::Fence,
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        // Fence with two buffered writes: first (p,⊥) commits smallest reg.
        let out = m.step(SchedElem::op(p(0)));
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Commit { reg, .. }) if *reg == r(1)
        ));
        // Second commits the remaining write; third executes the fence.
        m.step(SchedElem::op(p(0)));
        let out = m.step(SchedElem::op(p(0)));
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Fence)
        ));
        assert_eq!(m.counters().proc(0).fences, 1);
        m.step(SchedElem::op(p(0)));
        assert!(m.all_done());
    }

    #[test]
    fn reads_are_served_from_own_buffer() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(9)),
            Poised::Read(r(0)),
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0)));
        let out = m.step(SchedElem::op(p(0)));
        match out.event().map(|e| &e.kind) {
            Some(EventKind::Read {
                value,
                from_memory,
                remote,
                ..
            }) => {
                assert_eq!(*value, Value::Int(9));
                assert!(!from_memory);
                assert!(!remote, "buffer reads hit the cache");
            }
            other => panic!("expected read event, got {other:?}"),
        }
    }

    #[test]
    fn pso_allows_write_reordering_tso_does_not() {
        let writer = || {
            Script::new(vec![
                Poised::Write(r(0), Value::Int(1)),
                Poised::Write(r(1), Value::Int(2)),
                Poised::Return(0),
            ])
        };
        // PSO: the second write can commit first.
        let mut m = pso_machine(vec![writer()]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        let out = m.step(SchedElem::commit(p(0), r(1)));
        assert!(matches!(out, StepOutcome::Stepped(_)));
        assert_eq!(m.memory(r(1)), Value::Int(2));
        assert_eq!(m.memory(r(0)), Value::Bot, "older write still pending");

        // TSO: naming the younger write falls through (no commit possible,
        // and the poised op — return — runs instead).
        let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned());
        let mut m = Machine::new(cfg, vec![writer()]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        let out = m.step(SchedElem::commit(p(0), r(1)));
        assert!(
            matches!(out.event().map(|e| &e.kind), Some(EventKind::Return { .. })),
            "TSO must not commit the younger write; the element falls through to return"
        );
        assert_eq!(m.memory(r(1)), Value::Bot);
    }

    #[test]
    fn sc_commits_writes_immediately() {
        let w = Script::new(vec![Poised::Write(r(0), Value::Int(5)), Poised::Return(0)]);
        let cfg = MachineConfig::new(MemoryModel::Sc, MemoryLayout::unowned()).with_trace();
        let mut m = Machine::new(cfg, vec![w]);
        let out = m.step(SchedElem::op(p(0)));
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Commit { .. })
        ));
        assert_eq!(m.memory(r(0)), Value::Int(5));
        // The trace records both the write and the commit.
        assert_eq!(m.trace().len(), 2);
    }

    #[test]
    fn rmr_accounting_first_remote_then_cached() {
        // p1 reads a register twice; first read is remote, second is a
        // cache hit (same value).
        let reader = Script::new(vec![
            Poised::Read(r(0)),
            Poised::Read(r(0)),
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![reader]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        let c = m.counters().proc(0);
        assert_eq!(c.reads, 2);
        assert_eq!(c.remote_reads, 1);
        assert_eq!(c.rmrs, 1);
    }

    #[test]
    fn rmr_accounting_invalidation_by_other_writer() {
        // p0 reads R twice, p1 commits a new value in between: both of p0's
        // reads are remote.
        let reader = Script::new(vec![
            Poised::Read(r(0)),
            Poised::Read(r(0)),
            Poised::Return(0),
        ]);
        let writer = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let mut m = pso_machine(vec![reader, writer]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(1)));
        m.step(SchedElem::commit(p(1), r(0)));
        m.step(SchedElem::op(p(0)));
        assert_eq!(m.counters().proc(0).remote_reads, 2);
    }

    #[test]
    fn dsm_segment_reads_are_always_local() {
        let mut layout = MemoryLayout::unowned();
        layout.assign(r(0), p(0));
        let reader = Script::new(vec![Poised::Read(r(0)), Poised::Return(0)]);
        let cfg = MachineConfig::new(MemoryModel::Pso, layout);
        let mut m = Machine::new(cfg, vec![reader]);
        m.step(SchedElem::op(p(0)));
        assert_eq!(m.counters().proc(0).rmrs, 0);
    }

    #[test]
    fn commit_ownership_makes_repeat_commits_local() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(0), Value::Int(2)),
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::commit(p(0), r(0))); // first commit: remote
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::commit(p(0), r(0))); // second: local (owned)
        let c = m.counters().proc(0);
        assert_eq!(c.commits, 2);
        assert_eq!(c.remote_commits, 1);
    }

    #[test]
    fn return_records_value_and_finalizes() {
        let w = Script::new(vec![Poised::Return(42)]);
        let mut m = pso_machine(vec![w]);
        assert_eq!(m.nb_final(), 0);
        m.step(SchedElem::op(p(0)));
        assert_eq!(m.return_value(p(0)), Some(42));
        assert_eq!(m.nb_final(), 1);
        assert!(m.all_done());
        assert_eq!(m.poised(p(0)), Poised::Done);
        // Further elements are no-ops.
        assert_eq!(m.step(SchedElem::op(p(0))), StepOutcome::NoOp);
    }

    #[test]
    fn tagging_makes_written_values_unique() {
        let w = |reg| Script::new(vec![Poised::Write(reg, Value::Int(1)), Poised::Return(0)]);
        let cfg =
            MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_tagged_writes();
        let mut m = Machine::new(cfg, vec![w(r(0)), w(r(1))]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(1)));
        m.step(SchedElem::commit(p(0), r(0)));
        m.step(SchedElem::commit(p(1), r(1)));
        let a = m.memory(r(0));
        let b = m.memory(r(1));
        assert_ne!(a, b);
        assert_eq!(a.payload(), b.payload());
    }

    #[test]
    fn solo_outcome_detects_termination_and_divergence() {
        // Terminating: write, fence, return.
        let fin = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Fence,
            Poised::Return(7),
        ]);
        // Diverging: spin reading r(9) forever (Script has no loops, so
        // emulate with a long repeat — divergence needs a real looping
        // process; use a custom one).
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Spinner;
        impl Process for Spinner {
            fn poised(&self) -> Poised {
                Poised::Read(RegId(9))
            }
            fn advance(&mut self, _v: Option<Value>) {}
        }
        let m = pso_machine(vec![fin]);
        assert!(matches!(
            m.solo_outcome(p(0), 1000),
            SoloOutcome::Terminates { ret: 7, .. }
        ));

        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        let m = Machine::new(cfg, vec![Spinner]);
        assert!(matches!(
            m.solo_outcome(p(0), 1000),
            SoloOutcome::Diverges { .. }
        ));
    }

    #[test]
    fn solo_outcome_does_not_mutate() {
        let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let m = pso_machine(vec![w]);
        let key_before = m.state_key();
        let _ = m.solo_outcome(p(0), 100);
        assert_eq!(m.state_key(), key_before);
    }

    #[test]
    fn choices_enumerate_commits_and_ops() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(1), Value::Int(2)),
            Poised::Fence,
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        // Fence-blocked with two buffered writes: exactly the two commits.
        let cs = m.choices();
        assert_eq!(
            cs,
            vec![SchedElem::commit(p(0), r(0)), SchedElem::commit(p(0), r(1))]
        );
    }

    #[test]
    fn choices_empty_iff_all_done() {
        let w = Script::new(vec![Poised::Return(0)]);
        let mut m = pso_machine(vec![w]);
        assert!(!m.choices().is_empty());
        m.step(SchedElem::op(p(0)));
        assert!(m.choices().is_empty());
        assert!(m.all_done());
    }

    #[test]
    fn state_key_ignores_counters() {
        let reader = Script::new(vec![
            Poised::Read(r(0)),
            Poised::Read(r(0)),
            Poised::Return(0),
        ]);
        let mut a = pso_machine(vec![reader.clone()]);
        let mut b = pso_machine(vec![reader]);
        a.step(SchedElem::op(p(0)));
        a.step(SchedElem::op(p(0)));
        b.step(SchedElem::op(p(0)));
        b.step(SchedElem::op(p(0)));
        assert_eq!(a.state_key(), b.state_key());
    }

    #[test]
    fn init_reg_sets_memory_without_accounting() {
        let reader = Script::new(vec![Poised::Read(r(5)), Poised::Return(0)]);
        let mut m = pso_machine(vec![reader]);
        m.init_reg(r(5), Value::Int(33));
        assert_eq!(m.memory(r(5)), Value::Int(33));
        assert_eq!(m.counters().total().commits, 0);
        m.step(SchedElem::op(p(0)));
        // First read of an init value is still remote (never observed).
        assert_eq!(m.counters().proc(0).remote_reads, 1);
    }

    #[test]
    fn run_schedule_counts_effective_steps() {
        let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let mut m = pso_machine(vec![w]);
        let sched = vec![
            SchedElem::op(p(0)),
            SchedElem::op(p(0)),
            SchedElem::op(p(0)),
        ];
        let steps = m.run_schedule(&sched);
        assert_eq!(steps, 2, "third element is a no-op after return");
    }

    #[test]
    fn tso_reads_see_youngest_own_buffered_write() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(0), Value::Int(2)),
            Poised::Read(r(0)),
            Poised::Return(0),
        ]);
        let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned());
        let mut m = Machine::new(cfg, vec![w]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        let out = m.step(SchedElem::op(p(0)));
        match out.event().map(|e| &e.kind) {
            Some(EventKind::Read {
                value, from_memory, ..
            }) => {
                assert_eq!(*value, Value::Int(2), "youngest write wins");
                assert!(!from_memory);
            }
            other => panic!("expected read, got {other:?}"),
        }
        // Both queued entries still commit, in order.
        m.step(SchedElem::commit(p(0), r(0)));
        assert_eq!(m.memory(r(0)), Value::Int(1));
        m.step(SchedElem::commit(p(0), r(0)));
        assert_eq!(m.memory(r(0)), Value::Int(2));
    }

    #[test]
    fn tso_fence_drains_in_program_order() {
        let w = Script::new(vec![
            Poised::Write(r(9), Value::Int(1)),
            Poised::Write(r(2), Value::Int(2)),
            Poised::Fence,
            Poised::Return(0),
        ]);
        let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned()).with_trace();
        let mut m = Machine::new(cfg, vec![w]);
        m.run_solo(p(0), 100);
        let commits: Vec<RegId> = m
            .trace()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Commit { reg, .. } => Some(reg),
                _ => None,
            })
            .collect();
        assert_eq!(
            commits,
            vec![r(9), r(2)],
            "FIFO drain: program order, not register order"
        );
    }

    #[test]
    fn swap_observes_then_stores_unconditionally() {
        let w = Script::new(vec![
            Poised::Swap {
                reg: r(0),
                new: Value::Int(5),
            },
            Poised::Swap {
                reg: r(0),
                new: Value::Int(6),
            },
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        let out = m.step(SchedElem::op(p(0)));
        match out.event().map(|e| &e.kind) {
            Some(EventKind::Swap {
                observed,
                stored,
                remote,
                ..
            }) => {
                assert!(observed.is_bot());
                assert_eq!(stored.payload(), 5);
                assert!(remote, "first swap of an unowned register is remote");
            }
            other => panic!("expected swap, got {other:?}"),
        }
        let out = m.step(SchedElem::op(p(0)));
        match out.event().map(|e| &e.kind) {
            Some(EventKind::Swap {
                observed, remote, ..
            }) => {
                assert_eq!(observed.payload(), 5);
                assert!(!remote, "p owns the register after its own swap");
            }
            other => panic!("expected swap, got {other:?}"),
        }
        assert_eq!(m.memory(r(0)).payload(), 6);
        assert_eq!(m.counters().proc(0).swap_ops, 2);
        assert_eq!(m.counters().proc(0).remote_swaps, 1);
    }

    #[test]
    fn swap_drains_the_buffer_first() {
        let w = Script::new(vec![
            Poised::Write(r(3), Value::Int(7)),
            Poised::Swap {
                reg: r(0),
                new: Value::Int(1),
            },
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0)));
        let out = m.step(SchedElem::op(p(0)));
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Commit { .. })
        ));
        let out = m.step(SchedElem::op(p(0)));
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Swap { .. })
        ));
    }

    #[test]
    fn cas_succeeds_and_fails_by_payload() {
        let w = Script::new(vec![
            Poised::Cas {
                reg: r(0),
                expected: 0,
                new: Value::Int(5),
            }, // ⊥ payload 0 → succeeds
            Poised::Cas {
                reg: r(0),
                expected: 0,
                new: Value::Int(9),
            }, // now 5 → fails
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        let out = m.step(SchedElem::op(p(0)));
        match out.event().map(|e| &e.kind) {
            Some(EventKind::Cas { stored, remote, .. }) => {
                assert_eq!(*stored, Some(Value::Int(5)));
                assert!(remote, "first CAS of an unowned register is remote");
            }
            other => panic!("expected cas event, got {other:?}"),
        }
        let out = m.step(SchedElem::op(p(0)));
        match out.event().map(|e| &e.kind) {
            Some(EventKind::Cas {
                stored,
                observed,
                remote,
                ..
            }) => {
                assert_eq!(*stored, None, "payload 5 != expected 0");
                assert_eq!(*observed, Value::Int(5));
                assert!(!remote, "p owns the register after its own CAS commit");
            }
            other => panic!("expected cas event, got {other:?}"),
        }
        assert_eq!(m.memory(r(0)), Value::Int(5));
        assert_eq!(m.counters().proc(0).cas_ops, 2);
        assert_eq!(m.counters().proc(0).remote_cas, 1);
    }

    #[test]
    fn cas_drains_the_buffer_first() {
        let w = Script::new(vec![
            Poised::Write(r(3), Value::Int(7)),
            Poised::Cas {
                reg: r(0),
                expected: 0,
                new: Value::Int(1),
            },
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0))); // buffered write
        let out = m.step(SchedElem::op(p(0))); // cas poised, buffer non-empty → commit
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Commit { .. })
        ));
        assert_eq!(m.memory(r(3)), Value::Int(7));
        let out = m.step(SchedElem::op(p(0))); // now the CAS itself
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Cas { .. })
        ));
    }

    #[test]
    fn cas_atomicity_under_contention() {
        // Two processes race a CAS on the same register: exactly one wins.
        let racer = || {
            Script::new(vec![
                Poised::Cas {
                    reg: r(0),
                    expected: 0,
                    new: Value::Int(1),
                },
                Poised::Return(0),
            ])
        };
        let cfg =
            MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_tagged_writes();
        let mut m = Machine::new(cfg, vec![racer(), racer()]);
        let e0 = m.step(SchedElem::op(p(0)));
        let e1 = m.step(SchedElem::op(p(1)));
        let wins = [e0, e1]
            .iter()
            .filter(|o| {
                matches!(
                    o.event().map(|e| &e.kind),
                    Some(EventKind::Cas {
                        stored: Some(_),
                        ..
                    })
                )
            })
            .count();
        assert_eq!(wins, 1, "exactly one CAS succeeds");
    }

    #[test]
    fn solo_outcome_handles_cas() {
        let w = Script::new(vec![
            Poised::Write(r(1), Value::Int(2)),
            Poised::Cas {
                reg: r(0),
                expected: 0,
                new: Value::Int(1),
            },
            Poised::Return(4),
        ]);
        let m = pso_machine(vec![w]);
        assert!(matches!(
            m.solo_outcome(p(0), 100),
            SoloOutcome::Terminates { ret: 4, .. }
        ));
    }

    /// Capture everything a correct undo must restore — not just the
    /// behavioural state, but accounting, locality, trace, and nonces.
    fn full_snapshot(
        m: &Machine<Script>,
    ) -> (StateKey<Script>, Counters, LocalityTracker, Vec<Event>, u64) {
        (
            m.state_key(),
            m.counters().clone(),
            m.locality().clone(),
            m.trace().events().to_vec(),
            m.next_nonce,
        )
    }

    /// Drive a machine through every enabled choice depth-first, undoing on
    /// the way back, asserting the machine is restored exactly at every
    /// backtrack. Covers commits, fence drains, reads, writes, and returns
    /// for whichever scripts/model are supplied.
    fn assert_undo_round_trips(m: &mut Machine<Script>, depth: usize) {
        if depth == 0 {
            return;
        }
        for elem in m.choices() {
            let before = full_snapshot(m);
            let (out, token) = m.step_recorded(elem);
            if matches!(out, StepOutcome::Stepped(_)) {
                assert_undo_round_trips(m, depth - 1);
            }
            m.undo(token);
            assert_eq!(
                full_snapshot(m),
                before,
                "undo of {elem:?} must restore the machine"
            );
        }
    }

    #[test]
    fn undo_restores_machine_exactly_across_models() {
        let scripts = || {
            vec![
                Script::new(vec![
                    Poised::Write(r(0), Value::Int(1)),
                    Poised::Write(r(1), Value::Int(2)),
                    Poised::Fence,
                    Poised::Read(r(2)),
                    Poised::Return(0),
                ]),
                Script::new(vec![
                    Poised::Read(r(0)),
                    Poised::Write(r(2), Value::Int(3)),
                    Poised::Return(1),
                ]),
            ]
        };
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let cfg = MachineConfig::new(model, MemoryLayout::unowned())
                .with_tagged_writes()
                .with_trace();
            let mut m = Machine::new(cfg, scripts());
            assert_undo_round_trips(&mut m, 6);
        }
    }

    #[test]
    fn undo_restores_cas_and_swap_steps() {
        let scripts = vec![
            Script::new(vec![
                Poised::Cas {
                    reg: r(0),
                    expected: 0,
                    new: Value::Int(5),
                },
                Poised::Swap {
                    reg: r(1),
                    new: Value::Int(6),
                },
                Poised::Return(0),
            ]),
            Script::new(vec![
                Poised::Cas {
                    reg: r(0),
                    expected: 0,
                    new: Value::Int(7),
                },
                Poised::Return(1),
            ]),
        ];
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned()).with_trace();
        let mut m = Machine::new(cfg, scripts);
        assert_undo_round_trips(&mut m, 5);
    }

    #[test]
    fn undo_of_noop_is_harmless() {
        let w = Script::new(vec![Poised::Return(0)]);
        let mut m = pso_machine(vec![w]);
        m.step(SchedElem::op(p(0)));
        let before = full_snapshot(&m);
        let (out, token) = m.step_recorded(SchedElem::op(p(0)));
        assert_eq!(out, StepOutcome::NoOp);
        m.undo(token);
        assert_eq!(full_snapshot(&m), before);
    }

    #[test]
    fn choices_into_reuses_buffer_and_matches_choices() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(1), Value::Int(2)),
            Poised::Fence,
            Poised::Return(0),
        ]);
        let mut m = pso_machine(vec![w]);
        let mut buf = Vec::new();
        loop {
            m.choices_into(&mut buf);
            assert_eq!(buf, m.choices());
            match buf.first().copied() {
                Some(elem) => {
                    m.step(elem);
                }
                None => break,
            }
        }
        assert!(m.all_done());
    }

    #[test]
    fn replay_path_rematerializes_and_validates() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(1), Value::Int(2)),
            Poised::Fence,
            Poised::Return(0),
        ]);
        let base = pso_machine(vec![w]);
        // Drive one copy forward, recording the schedule taken.
        let mut walked = base.clone();
        let mut path = Vec::new();
        let mut buf = Vec::new();
        loop {
            walked.choices_into(&mut buf);
            match buf.last().copied() {
                Some(e) => {
                    walked.step(e);
                    path.push(e);
                }
                None => break,
            }
        }
        assert!(!path.is_empty());
        // Replaying the schedule from a fresh copy reaches the same state.
        let mut replayed = base.clone();
        assert!(replayed.replay_path(&path, &mut buf));
        assert_eq!(replayed.state_key(), walked.state_key());
        // An element that is not a current choice is rejected.
        let mut fresh = base.clone();
        assert!(!fresh.replay_path(&[SchedElem::commit(ProcId::from(0usize), r(5))], &mut buf));
    }

    fn crash_machine(
        model: MemoryModel,
        semantics: CrashSemantics,
        max_crashes: u32,
        procs: Vec<Script>,
    ) -> Machine<Script> {
        let cfg = MachineConfig::new(model, MemoryLayout::unowned())
            .with_trace()
            .with_crashes(semantics, max_crashes);
        Machine::new(cfg, procs)
    }

    #[test]
    fn crash_discards_buffered_writes_and_restarts() {
        let w = Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let mut m = crash_machine(MemoryModel::Pso, CrashSemantics::DiscardBuffer, 1, vec![w]);
        m.step(SchedElem::op(p(0)));
        assert!(m.buffer(p(0)).contains(r(0)));
        let out = m.step(SchedElem::crash(p(0)));
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Crash { lost: 1 })
        ));
        assert!(m.buffer_is_empty(p(0)), "the buffered write is lost");
        assert_eq!(m.memory(r(0)), Value::Bot, "it never reached memory");
        assert_eq!(m.crashes(p(0)), 1);
        assert_eq!(m.counters().proc(0).crashes, 1);
        // The program restarted: it is poised at the write again.
        assert!(matches!(m.poised(p(0)), Poised::Write(_, _)));
    }

    #[test]
    fn crash_with_drain_semantics_flushes_the_buffer() {
        let w = Script::new(vec![
            Poised::Write(r(5), Value::Int(1)),
            Poised::Write(r(2), Value::Int(2)),
            Poised::Return(0),
        ]);
        let mut m = crash_machine(MemoryModel::Pso, CrashSemantics::DrainBuffer, 1, vec![w]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        let out = m.step(SchedElem::crash(p(0)));
        assert!(matches!(
            out.event().map(|e| &e.kind),
            Some(EventKind::Crash { lost: 0 })
        ));
        assert!(m.buffer_is_empty(p(0)));
        assert_eq!(m.memory(r(5)), Value::Int(1));
        assert_eq!(m.memory(r(2)), Value::Int(2));
        assert_eq!(
            m.counters().proc(0).commits,
            2,
            "drained commits are charged"
        );
        // Trace: write, write, commit (smallest reg first), commit, crash.
        let kinds: Vec<&EventKind> = m.trace().events().iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[2], EventKind::Commit { reg, .. } if *reg == r(2)));
        assert!(matches!(kinds[3], EventKind::Commit { reg, .. } if *reg == r(5)));
        assert!(matches!(kinds[4], EventKind::Crash { .. }));
    }

    #[test]
    fn crash_respects_the_budget_and_recoverability() {
        // No budget: the crash element is a no-op.
        let w = || Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let mut m = pso_machine(vec![w()]);
        assert_eq!(m.step(SchedElem::crash(p(0))), StepOutcome::NoOp);

        // Budget of 1: the second crash is a no-op.
        let mut m = crash_machine(
            MemoryModel::Pso,
            CrashSemantics::DiscardBuffer,
            1,
            vec![w()],
        );
        assert!(matches!(
            m.step(SchedElem::crash(p(0))),
            StepOutcome::Stepped(_)
        ));
        assert_eq!(m.step(SchedElem::crash(p(0))), StepOutcome::NoOp);

        // Non-recoverable process: never crashes.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Rigid;
        impl Process for Rigid {
            fn poised(&self) -> Poised {
                Poised::Return(0)
            }
            fn advance(&mut self, _v: Option<Value>) {}
        }
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned())
            .with_crashes(CrashSemantics::DiscardBuffer, 2);
        let mut m = Machine::new(cfg, vec![Rigid]);
        assert_eq!(m.step(SchedElem::crash(p(0))), StepOutcome::NoOp);
        assert!(m.choices().iter().all(|e| !e.crash));
    }

    #[test]
    fn choices_offer_crashes_only_under_a_budget() {
        let w = || Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let m = pso_machine(vec![w()]);
        assert!(m.choices().iter().all(|e| !e.crash));

        let mut m = crash_machine(
            MemoryModel::Pso,
            CrashSemantics::DiscardBuffer,
            1,
            vec![w()],
        );
        assert_eq!(m.choices().iter().filter(|e| e.crash).count(), 1);
        // A fence-blocked process can still crash.
        let fenced = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Fence,
            Poised::Return(0),
        ]);
        let mut mf = crash_machine(
            MemoryModel::Pso,
            CrashSemantics::DiscardBuffer,
            1,
            vec![fenced],
        );
        mf.step(SchedElem::op(p(0)));
        let cs = mf.choices();
        assert!(cs.iter().any(|e| e.crash));
        assert!(cs.iter().any(|e| e.reg.is_some()));
        // Once the budget is spent, the crash choice disappears.
        m.step(SchedElem::crash(p(0)));
        assert!(m.choices().iter().all(|e| !e.crash));
    }

    #[test]
    fn crash_state_is_behaviourally_relevant() {
        let w = || Script::new(vec![Poised::Write(r(0), Value::Int(1)), Poised::Return(0)]);
        let mut a = crash_machine(
            MemoryModel::Pso,
            CrashSemantics::DiscardBuffer,
            1,
            vec![w()],
        );
        let b = crash_machine(
            MemoryModel::Pso,
            CrashSemantics::DiscardBuffer,
            1,
            vec![w()],
        );
        a.step(SchedElem::crash(p(0)));
        // Post-crash, `a` is back at its initial program state but has spent
        // its budget — the state keys must differ.
        assert_ne!(a.state_key(), b.state_key());
        use std::hash::Hasher as _;
        let fp = |m: &Machine<Script>| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            m.hash_state(&mut h);
            h.finish()
        };
        assert_ne!(fp(&a), fp(&b));
    }

    #[test]
    fn undo_restores_crash_steps_exactly() {
        let scripts = || {
            vec![
                Script::new(vec![
                    Poised::Write(r(0), Value::Int(1)),
                    Poised::Write(r(1), Value::Int(2)),
                    Poised::Fence,
                    Poised::Return(0),
                ]),
                Script::new(vec![
                    Poised::Read(r(0)),
                    Poised::Write(r(0), Value::Int(3)),
                    Poised::Return(1),
                ]),
            ]
        };
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            for semantics in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
                let cfg = MachineConfig::new(model, MemoryLayout::unowned())
                    .with_tagged_writes()
                    .with_trace()
                    .with_crashes(semantics, 1);
                let mut m = Machine::new(cfg, scripts());
                assert_undo_round_trips(&mut m, 5);
            }
        }
    }

    #[test]
    fn undo_restores_tso_same_register_drain() {
        // A TSO drain can commit the same register twice; the LIFO rollback
        // must restore the intermediate value correctly.
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Write(r(0), Value::Int(2)),
            Poised::Return(0),
        ]);
        let cfg = MachineConfig::new(MemoryModel::Tso, MemoryLayout::unowned())
            .with_trace()
            .with_crashes(CrashSemantics::DrainBuffer, 1);
        let mut m = Machine::new(cfg, vec![w]);
        m.step(SchedElem::op(p(0)));
        m.step(SchedElem::op(p(0)));
        let before = full_snapshot(&m);
        let (out, token) = m.step_recorded(SchedElem::crash(p(0)));
        assert!(matches!(out, StepOutcome::Stepped(_)));
        assert_eq!(m.memory(r(0)), Value::Int(2), "both entries drained");
        m.undo(token);
        assert_eq!(full_snapshot(&m), before);
    }

    #[test]
    fn try_step_rejects_unknown_processes() {
        let w = Script::new(vec![Poised::Return(0)]);
        let mut m = pso_machine(vec![w]);
        assert_eq!(
            m.try_step(SchedElem::op(p(7))),
            Err(MachineError::NoSuchProc { proc: p(7), n: 1 })
        );
        assert!(m.try_step(SchedElem::op(p(0))).is_ok());
        assert_eq!(m.try_run_schedule(&[SchedElem::op(p(0))]), Ok(0));
    }

    #[test]
    fn run_solo_terminates_process() {
        let w = Script::new(vec![
            Poised::Write(r(0), Value::Int(1)),
            Poised::Fence,
            Poised::Return(3),
        ]);
        let mut m = pso_machine(vec![w]);
        let out = m.run_solo(p(0), 100);
        assert!(matches!(out, SoloOutcome::Terminates { ret: 3, .. }));
        assert_eq!(m.memory(r(0)), Value::Int(1), "fence forced the commit");
    }

    /// Check, over an exhaustive bounded exploration, that
    /// `choice_footprint`'s prediction agrees with the step the machine
    /// actually takes (classified from the emitted event), and that
    /// `step_recorded` stamps that same footprint on its token.
    fn assert_footprints_predict_steps(m: &mut Machine<Script>, depth: usize) {
        if depth == 0 {
            return;
        }
        for elem in m.choices() {
            let predicted = m.choice_footprint(elem);
            assert_eq!(predicted.proc, elem.proc);
            let was_sc_write = !elem.crash
                && elem.reg.is_none()
                && !m.config().model.buffers_writes()
                && matches!(m.poised(elem.proc), Poised::Write(..));
            let drains_expected = elem.crash
                && m.config().crash_semantics == CrashSemantics::DrainBuffer
                && !m.buffer_is_empty(elem.proc);
            let (out, token) = m.step_recorded(elem);
            assert_eq!(token.footprint(), predicted, "token reports the footprint");
            let event = out.event().expect("choices() offers only real steps");
            let actual = match event.kind {
                EventKind::Read {
                    reg, from_memory, ..
                } => {
                    if from_memory {
                        FootprintKind::Read(reg)
                    } else {
                        FootprintKind::Local
                    }
                }
                EventKind::Write { .. } | EventKind::Fence => FootprintKind::Local,
                EventKind::Cas { reg, stored, .. } => {
                    if stored.is_some() {
                        FootprintKind::Write(reg)
                    } else {
                        FootprintKind::Read(reg)
                    }
                }
                EventKind::Swap { reg, .. } => FootprintKind::Write(reg),
                // An SC-mode write commits immediately; the primary event is
                // the commit, but the footprint classifies it as a program
                // write (both advance the program and write the cell).
                EventKind::Commit { reg, .. } if was_sc_write => FootprintKind::Write(reg),
                EventKind::Commit { reg, .. } => FootprintKind::Commit(reg),
                EventKind::Return { .. } => FootprintKind::Return,
                EventKind::Crash { .. } => FootprintKind::Crash {
                    drains: drains_expected,
                },
            };
            assert_eq!(
                predicted.kind, actual,
                "{elem:?}: predicted {predicted:?}, stepped to {event:?}"
            );
            assert_footprints_predict_steps(m, depth - 1);
            m.undo(token);
        }
    }

    #[test]
    fn footprint_prediction_matches_actual_steps() {
        let scripts = || {
            vec![
                Script::new(vec![
                    Poised::Write(r(0), Value::Int(1)),
                    Poised::Write(r(1), Value::Int(2)),
                    Poised::Fence,
                    Poised::Read(r(2)),
                    Poised::Return(0),
                ]),
                Script::new(vec![
                    Poised::Cas {
                        reg: r(0),
                        expected: 0,
                        new: Value::Int(5),
                    },
                    Poised::Swap {
                        reg: r(2),
                        new: Value::Int(6),
                    },
                    Poised::Read(r(1)),
                    Poised::Return(1),
                ]),
            ]
        };
        for model in MemoryModel::ALL {
            for (sem, crashes) in [
                (CrashSemantics::DiscardBuffer, 0),
                (CrashSemantics::DiscardBuffer, 1),
                (CrashSemantics::DrainBuffer, 1),
            ] {
                let cfg = MachineConfig::new(model, MemoryLayout::unowned())
                    .with_trace()
                    .with_crashes(sem, crashes);
                let mut m = Machine::new(cfg, scripts());
                assert_footprints_predict_steps(&mut m, 5);
            }
        }
    }
}
