//! The explicit-state checker: its configuration, verdict and statistics
//! types, the [`check`] entry point, and the clone-per-transition oracle.
//!
//! Five interchangeable exploration engines (see [`Engine`]):
//!
//! * [`Engine::CloneDfs`] — the original depth-first search that clones the
//!   whole machine at every transition. Kept as the differential oracle;
//!   it is the only engine with a loop of its own (in this file).
//! * [`Engine::Undo`] (the default) and [`Engine::Dpor`] are the two
//!   instantiations of the one search kernel (`kernel.rs`): no reduction,
//!   or sleep/ample sets (no sleep sets under the termination check).
//!   [`Engine::Parallel`] and [`Engine::ParallelDpor`] are their names
//!   with an ignored worker count. One machine is
//!   stepped with [`Machine::step_recorded`] and rewound with
//!   [`Machine::undo`], so backtracking costs O(step footprint) instead
//!   of O(machine).
//!
//! `CloneDfs` and `Undo` produce bit-identical verdicts and statistics;
//! the reducing engine trades the statistics contract for speed and keeps
//! verdicts bit-identical.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ftobs::{Gauge, Metric, MetricsSnapshot, ProcSteps, Recorder};
use por::{RunMeta, Segmented, Snapshot};
use wbmem::{
    CrashSemantics, Event, EventKind, Machine, MachineError, Process, SchedElem, StepOutcome,
};

use crate::kernel::sequential;

/// Which exploration engine [`check`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The original clone-per-transition depth-first search. Slowest;
    /// retained as the differential-testing oracle.
    CloneDfs,
    /// Undo-log depth-first search: a single machine stepped forward and
    /// rewound in place.
    #[default]
    Undo,
    /// [`Engine::Undo`]'s walk, under its own label: verdicts,
    /// statistics, metrics and checkpoints are `Undo`'s. The variant
    /// stays while the `benchmark/` harness still constructs it.
    Parallel {
        /// Ignored.
        threads: usize,
    },
    /// Dynamic partial-order reduction: sleep sets plus ample process
    /// sets over the machine's dependence footprints. Verdicts match the
    /// exhaustive engines; statistics legitimately differ — that
    /// difference *is* the reduction. See the `por` crate and `DESIGN.md`
    /// for the soundness argument.
    ///
    /// The termination check reads every edge of the graph the walk
    /// builds, so under it nothing sleeps. Unbounded, the ample sets stay
    /// and each state is entered once: the walk keeps every all-done
    /// state, and a stuck state whenever the machine has one (`DESIGN.md`
    /// §5c). Bounded, only the bound prunes.
    Dpor {
        /// `Some(k)`: additionally restrict the search to schedules with
        /// at most `k` steps where a program overtakes its own pending
        /// buffered writes (`0` ≡ SC-equivalent schedules). An `Ok`
        /// verdict then only covers the bounded schedule set. Violations
        /// are real: safety ones at any bound, `NO-TERMINATION` because
        /// it is only reported for a state whose forward closure the
        /// bound left whole. `None`: full (sound and complete) search.
        ///
        /// `Some(u32::MAX)` is a *diagnostic* mode: the bound is
        /// unreachable, and it selects no reduction at all — the run *is*
        /// [`Engine::Undo`]'s walk, so its [`MetricsSnapshot`] is
        /// bit-identical to the exhaustive engines' — the baseline the
        /// reduction's savings are measured against.
        reorder_bound: Option<u32>,
    },
    /// [`Engine::Dpor`]'s walk with the same `reorder_bound`, under its
    /// own label: verdicts, statistics, metrics and checkpoints are
    /// `Dpor`'s. The variant stays while the `benchmark/` harness still
    /// constructs it.
    ParallelDpor {
        /// Ignored.
        threads: usize,
        /// Same meaning as [`Engine::Dpor::reorder_bound`], including
        /// the `Some(u32::MAX)` diagnostic mode.
        reorder_bound: Option<u32>,
    },
}

impl Engine {
    /// The reorder bound that selects this engine's kernel reduction:
    /// `Some(u32::MAX)` — the diagnostic bound — is no reduction at all,
    /// which is what the exhaustive engines run.
    pub(crate) fn reduction(&self) -> Option<u32> {
        match *self {
            Engine::Dpor { reorder_bound } | Engine::ParallelDpor { reorder_bound, .. } => {
                reorder_bound
            }
            Engine::CloneDfs | Engine::Undo | Engine::Parallel { .. } => Some(u32::MAX),
        }
    }

    /// Short machine-readable label (`ftobs` metadata, bench rows).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Engine::CloneDfs => "clone_dfs",
            Engine::Undo => "undo",
            Engine::Parallel { .. } => "parallel",
            Engine::Dpor { .. } => "dpor",
            Engine::ParallelDpor { .. } => "pardpor",
        }
    }
}

/// What to verify during exploration.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Abort after visiting this many distinct states.
    pub max_states: usize,
    /// Verify at most one process is annotated in-CS at any state.
    pub check_mutex: bool,
    /// Verify that in every all-done state the return values are a
    /// permutation of `0..n` (the object-level ordering invariant for
    /// counters/queues).
    pub check_permutation: bool,
    /// Verify that every reachable state can still reach an all-done state
    /// (no deadlock and no inescapable livelock region).
    pub check_termination: bool,
    /// Exploration engine (default: [`Engine::Undo`]).
    pub engine: Engine,
    /// Per-process crash budget: each process may crash up to this many
    /// times along any explored schedule (`0` disables crash injection).
    /// When non-zero the checker enables [`wbmem::SchedElem::crash`] steps
    /// on the root machine, so all engines enumerate crash choices.
    pub max_crashes: u32,
    /// What a crash does to the crashed process's write buffer (only
    /// meaningful when `max_crashes > 0`).
    pub crash_semantics: CrashSemantics,
    /// Wall-clock exploration budget. When it expires the checker stops
    /// and returns [`Verdict::Inconclusive`] with coverage statistics
    /// instead of a definitive verdict. Budget-limited runs stop at a
    /// time-dependent point, so they are **not** bit-identical across
    /// engines (all other configurations are). `None` = unlimited.
    pub budget: Option<Duration>,
    /// Extra per-state invariant over the processes' annotation vector
    /// (index = process id). Checked at the root and at every first visit
    /// of a state in every engine; returning `false` yields
    /// [`Verdict::InvariantViolation`] with a counterexample. A plain `fn`
    /// pointer keeps the configuration `Clone`/`Debug`.
    pub annotation_invariant: Option<fn(&[u64]) -> bool>,
    /// Where the check's counts are summed as well. A check counts its
    /// steps whether or not a recorder is attached ([`Stats::metrics`]);
    /// [`check`] adds those counts to the recorder once, when it ends.
    /// The default, [`Recorder::disabled`], is a no-op.
    pub recorder: Recorder,
    /// Durable checkpointing (see [`CheckpointPolicy`]). When set, every
    /// engine but the [`Engine::CloneDfs`] oracle writes a versioned,
    /// checksummed snapshot of the unexplored frontier when it stops on
    /// budget expiry or a stop trigger, so the run can be continued with
    /// [`crate::resume`].
    /// `CloneDfs` ignores the policy (it keeps a live machine clone per
    /// frame, which has no serialized form). A snapshot holds no
    /// termination graph, so every engine refuses a policy together with
    /// [`check_termination`](Self::check_termination) with
    /// [`CheckError::Checkpoint`] before it explores anything. `None` (the
    /// default) disables checkpointing entirely.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_states: 2_000_000,
            check_mutex: true,
            check_permutation: false,
            check_termination: true,
            engine: Engine::default(),
            max_crashes: 0,
            crash_semantics: CrashSemantics::DiscardBuffer,
            budget: None,
            annotation_invariant: None,
            recorder: Recorder::disabled(),
            checkpoint: None,
        }
    }
}

impl CheckConfig {
    /// This configuration with a different [`Engine`].
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// This configuration with crash injection enabled: up to
    /// `max_crashes` crashes per process under `semantics`.
    #[must_use]
    pub fn with_crashes(mut self, semantics: CrashSemantics, max_crashes: u32) -> Self {
        self.crash_semantics = semantics;
        self.max_crashes = max_crashes;
        self
    }

    /// This configuration with a wall-clock exploration budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }

    /// This configuration with an annotation invariant (see
    /// [`CheckConfig::annotation_invariant`]).
    #[must_use]
    pub fn with_invariant(mut self, invariant: fn(&[u64]) -> bool) -> Self {
        self.annotation_invariant = Some(invariant);
        self
    }

    /// This configuration with a recorder that sums its counts (see
    /// [`CheckConfig::recorder`]).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// This configuration with a checkpoint policy (see
    /// [`CheckConfig::checkpoint`]).
    #[must_use]
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }
}

/// When and where an exploration writes durable checkpoints.
///
/// A checkpoint is a [`por::Snapshot`]: the serialized unexplored frontier
/// (fork points), the visited fingerprints, the run metadata, and the
/// metrics accumulated so far, written atomically (temp file + fsync +
/// rename) so a crash mid-write never leaves a torn-but-readable file.
/// [`crate::resume`] continues the exploration from it and reaches the
/// same verdict an uninterrupted run would have.
///
/// A policy starts from [`CheckpointPolicy::at`], which checkpoints on
/// wall-clock budget expiry; [`CheckpointPolicy::stop_after`] adds a
/// deterministic transition cut.
#[derive(Clone, Debug, Default)]
pub struct CheckpointPolicy {
    /// Where the snapshot lands. The write goes through a hidden
    /// temp-file sibling in the same directory, so the directory must be
    /// writable; the final path either holds a complete, checksummed
    /// snapshot or whatever was there before.
    pub path: PathBuf,
    /// Stop (checkpoint + [`Verdict::Inconclusive`]) once this many
    /// transitions have been executed. Unlike the wall-clock budget this
    /// cut point is deterministic, which is what the differential
    /// resume tests are built on.
    pub stop_after_transitions: Option<u64>,
}

impl CheckpointPolicy {
    /// A policy that checkpoints to `path` on budget expiry only.
    #[must_use]
    pub fn at(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            ..CheckpointPolicy::default()
        }
    }

    /// Stop and checkpoint after `n` transitions (deterministic cut).
    #[must_use]
    pub fn stop_after(mut self, n: u64) -> Self {
        self.stop_after_transitions = Some(n);
        self
    }

    /// Whether the stop trigger has fired at `transitions` executed
    /// transitions. Checked at every transition boundary so the
    /// deterministic `stop_after_transitions` cut is exact.
    pub(crate) fn stop_requested(&self, transitions: u64) -> bool {
        self.stop_after_transitions
            .is_some_and(|n| transitions >= n)
    }
}

/// Exploration statistics.
///
/// `elapsed` is informational and **ignored by equality**: two runs that
/// explore the same space compare equal regardless of wall-clock speed, so
/// differential tests can assert `Stats` equality across engines. The
/// embedded `metrics` snapshot participates through its own equality,
/// which likewise covers only the deterministic counters (see
/// [`MetricsSnapshot`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (including ones into already-visited states).
    pub transitions: usize,
    /// Number of all-done states found.
    pub terminal_states: usize,
    /// Wall-clock time of the exploration.
    pub elapsed: Duration,
    /// What this check counted, with or without a recorder: exploration
    /// steps only (counterexample and fork-point replays stay uncounted).
    /// A resumed `Ok` or `Inconclusive` verdict adds the interrupted run's
    /// counts, which its checkpoint carried.
    pub metrics: MetricsSnapshot,
}

impl PartialEq for Stats {
    fn eq(&self, o: &Self) -> bool {
        self.states == o.states
            && self.transitions == o.transitions
            && self.terminal_states == o.terminal_states
            && self.metrics == o.metrics
    }
}

impl Eq for Stats {}

impl Stats {
    /// Distinct states visited per second of exploration (0 if untimed).
    #[must_use]
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }
}

/// A violating execution: the schedule that reaches it and a rendered trace.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The schedule from the initial configuration to the violation.
    pub schedule: Vec<SchedElem>,
    /// Human-readable event trace of that schedule.
    pub trace: String,
    /// Further schedules to the same kind of violation, found by the same
    /// exploration. Only a `NO-TERMINATION` verdict of a kernel engine
    /// fills it: one schedule per process whose step enters the stuck
    /// region — from a state that can finish into one that cannot —
    /// other than the process `schedule` ends with. Empty everywhere else.
    pub alternates: Vec<Vec<SchedElem>>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample ({} steps):", self.schedule.len())?;
        f.write_str(&self.trace)
    }
}

/// Coverage accompanying an inconclusive (budget-limited) verdict: how far
/// the aborted exploration got. `Stats` carries the states explored; this
/// carries the size of the unexplored frontier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Open DFS frames (states with unexplored outgoing transitions) at the
    /// moment the budget expired, plus a resumed run's checkpointed fork
    /// points it had not started.
    pub frontier: usize,
    /// Transitions the DPOR engine skipped as provably redundant (sleep-set
    /// and ample pruning); always `0` for the exhaustive engines. The hit
    /// rate `sleep_hits / (transitions + sleep_hits)` measures how much of
    /// the raw schedule space the reduction discharged.
    pub sleep_hits: usize,
    /// Where the interrupted exploration's durable snapshot landed, when a
    /// [`CheckConfig::checkpoint`] policy was set and the write succeeded
    /// (`None` otherwise). Pass it to [`crate::resume`] to continue.
    pub checkpoint: Option<PathBuf>,
}

/// A checker-level failure: the exploration could not be carried out, as
/// opposed to a property verdict about the program under check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The walk panicked — in user code it runs (the annotation
    /// invariant) or in itself; carries the panic message.
    Panic(String),
    /// The reachable state space exceeded the checker's dense-id capacity
    /// (`u32`); raise the abstraction or lower `max_states`.
    TooManyStates,
    /// The machine rejected a schedule element (see [`wbmem::MachineError`]).
    Machine(MachineError),
    /// A checkpoint could not be read, validated, or matched to the
    /// resuming configuration (torn file, checksum mismatch, wrong
    /// format version, different config/program). The run is never
    /// silently restarted from scratch — the mismatch is surfaced here.
    Checkpoint(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Panic(msg) => write!(f, "checker panicked: {msg}"),
            CheckError::TooManyStates => {
                write!(f, "state space exceeds the checker's u32 id capacity")
            }
            CheckError::Machine(e) => write!(f, "machine error: {e}"),
            CheckError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<MachineError> for CheckError {
    fn from(e: MachineError) -> Self {
        CheckError::Machine(e)
    }
}

impl From<por::SnapshotError> for CheckError {
    fn from(e: por::SnapshotError) -> Self {
        CheckError::Checkpoint(e.to_string())
    }
}

/// The checker's verdict.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// All requested properties hold over the full reachable state space.
    Ok(Stats),
    /// Two processes were simultaneously inside their critical sections.
    MutexViolation(Stats, Counterexample),
    /// An all-done state whose return values are not a permutation.
    PermutationViolation(Stats, Counterexample),
    /// Some reachable state cannot reach completion (deadlock or
    /// inescapable livelock).
    NoTermination(Stats, Counterexample),
    /// A state where [`CheckConfig::annotation_invariant`] returned false.
    InvariantViolation(Stats, Counterexample),
    /// `max_states` was exceeded; the properties held on the explored part.
    StateLimit(Stats),
    /// The wall-clock [`CheckConfig::budget`] expired before exploration
    /// finished; the properties held on the part that was covered.
    Inconclusive(Stats, Coverage),
    /// The exploration itself failed (a panic, id overflow, machine
    /// error); no property verdict could be established.
    Error(Stats, CheckError),
}

impl Verdict {
    /// Whether every checked property held on the fully explored space.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, Verdict::Ok(_))
    }

    /// Whether a safety/liveness violation was found (state-limit, budget
    /// expiry, and checker errors are neither).
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            Verdict::MutexViolation(..)
                | Verdict::PermutationViolation(..)
                | Verdict::NoTermination(..)
                | Verdict::InvariantViolation(..)
        )
    }

    /// Exploration statistics.
    #[must_use]
    pub fn stats(&self) -> Stats {
        match self {
            Verdict::Ok(s) | Verdict::StateLimit(s) => *s,
            Verdict::MutexViolation(s, _)
            | Verdict::PermutationViolation(s, _)
            | Verdict::NoTermination(s, _)
            | Verdict::InvariantViolation(s, _) => *s,
            Verdict::Inconclusive(s, _) => *s,
            Verdict::Error(s, _) => *s,
        }
    }

    /// The counterexample, for violation verdicts.
    #[must_use]
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::MutexViolation(_, c)
            | Verdict::PermutationViolation(_, c)
            | Verdict::NoTermination(_, c)
            | Verdict::InvariantViolation(_, c) => Some(c),
            Verdict::Ok(_)
            | Verdict::StateLimit(_)
            | Verdict::Inconclusive(..)
            | Verdict::Error(..) => None,
        }
    }

    /// Coverage of an aborted exploration, for inconclusive verdicts.
    #[must_use]
    pub fn coverage(&self) -> Option<Coverage> {
        match self {
            Verdict::Inconclusive(_, c) => Some(c.clone()),
            _ => None,
        }
    }

    /// The checker-level failure, for error verdicts.
    #[must_use]
    pub fn error(&self) -> Option<&CheckError> {
        match self {
            Verdict::Error(_, e) => Some(e),
            _ => None,
        }
    }

    /// Short label for tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Ok(_) => "ok",
            Verdict::MutexViolation(..) => "MUTEX-VIOLATION",
            Verdict::PermutationViolation(..) => "PERM-VIOLATION",
            Verdict::NoTermination(..) => "NO-TERMINATION",
            Verdict::InvariantViolation(..) => "INVARIANT-VIOLATION",
            Verdict::StateLimit(_) => "state-limit",
            Verdict::Inconclusive(..) => "inconclusive",
            Verdict::Error(..) => "ERROR",
        }
    }

    pub(crate) fn stats_mut(&mut self) -> &mut Stats {
        match self {
            Verdict::Ok(s) | Verdict::StateLimit(s) => s,
            Verdict::MutexViolation(s, _)
            | Verdict::PermutationViolation(s, _)
            | Verdict::NoTermination(s, _)
            | Verdict::InvariantViolation(s, _) => s,
            Verdict::Inconclusive(s, _) => s,
            Verdict::Error(s, _) => s,
        }
    }
}

pub(crate) fn in_cs_count<P: Process>(m: &Machine<P>) -> usize {
    (0..m.n())
        .filter(|&i| m.annotation(wbmem::ProcId::from(i)) == simlocks::ANNOT_IN_CS)
        .count()
}

/// Whether the processes' return values are exactly `0..n`, each once.
pub(crate) fn returns_are_permutation<P: Process>(m: &Machine<P>) -> bool {
    let n = m.n();
    let mut seen = vec![0u64; n.div_ceil(64)];
    (0..n).all(|i| match m.return_value(wbmem::ProcId::from(i)) {
        Some(r) if r < n as u64 => {
            let (word, bit) = (&mut seen[r as usize / 64], 1 << (r % 64));
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        }
        _ => false,
    })
}

/// Replay `sched` on a fresh clone of `initial` and render the execution.
pub(crate) fn render<P: Process>(initial: &Machine<P>, sched: &[SchedElem]) -> Counterexample {
    let mut m = initial.clone();
    let mut out = String::new();
    use std::fmt::Write as _;
    for (i, &e) in sched.iter().enumerate() {
        if let StepOutcome::Stepped(ev) = m.step(e) {
            let _ = writeln!(out, "{i:5}  {ev}");
        }
    }
    let cs: Vec<usize> = (0..m.n())
        .filter(|&i| m.annotation(wbmem::ProcId::from(i)) == simlocks::ANNOT_IN_CS)
        .collect();
    let _ = writeln!(
        out,
        "       in-CS: {cs:?}  returns: {:?}",
        m.return_values()
    );
    Counterexample {
        schedule: sched.to_vec(),
        trace: out,
        alternates: Vec::new(),
    }
}

/// Dense state ids plus first-visit parents, for counterexample replay.
///
/// The first-visit test is one open-addressing table of 8-byte slots over
/// the fingerprints `fps` already holds: a slot is an occupancy bit, a
/// 31-bit tag of the fingerprint, and the id, so a probe touches `fps` —
/// for the full 128-bit comparison — only where the tag already agrees.
/// The table is kept at most three-quarters full — probes are cheap next
/// to the cache miss a bigger table costs — and rebuilt from `fps` when it
/// grows. The per-id arrays are [`Segmented`]: they grow without moving.
#[derive(Default)]
pub(crate) struct SearchIndex {
    /// Power-of-two many slots (none before the first id); `0` is empty.
    slots: Vec<u64>,
    parents: Segmented<Option<(u32, SchedElem)>>,
    /// Fingerprint per dense id, so checkpointing can re-key the id-based
    /// edge/terminal lists by stable fingerprints.
    fps: Segmented<u128>,
}

impl SearchIndex {
    const OCCUPIED: u64 = 1 << 63;
    /// Slots of the first allocation.
    const MIN_SLOTS: usize = 1 << 10;

    /// Where `fp`'s probe sequence starts, and the slot content that would
    /// name it with id 0. Fingerprints are uniformly mixed already: the
    /// start is the low half, the tag the top of the high half.
    fn home_and_tag(fp: u128) -> (usize, u64) {
        #[allow(clippy::cast_possible_truncation)]
        let (lo, hi) = (fp as u64, (fp >> 64) as u64);
        #[allow(clippy::cast_possible_truncation)]
        let home = lo as usize;
        (home, Self::OCCUPIED | (hi >> 33) << 32)
    }

    /// The id for `fp`, allocating one (and recording `parent`) on first
    /// sight. Returns `(id, freshly allocated)`, or `None` once the dense
    /// `u32` id space is exhausted (the caller surfaces
    /// [`CheckError::TooManyStates`]).
    pub(crate) fn id_of(
        &mut self,
        fp: u128,
        parent: Option<(u32, SchedElem)>,
    ) -> Option<(u32, bool)> {
        if self.fps.len() * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let (home, tagged) = Self::home_and_tag(fp);
        let mut i = home & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                break;
            }
            #[allow(clippy::cast_possible_truncation)]
            let id = slot as u32;
            if slot & !0xFFFF_FFFF == tagged && *self.fps.get(id as usize) == fp {
                return Some((id, false));
            }
            i = (i + 1) & mask;
        }
        let id = u32::try_from(self.fps.len()).ok()?;
        self.slots[i] = tagged | u64::from(id);
        self.parents.push(parent);
        self.fps.push(fp);
        Some((id, true))
    }

    fn grow(&mut self) {
        let doubled = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        if doubled <= self.slots.capacity() {
            // A kept allocation (a cleared index's) holds the doubled
            // table: zero it in place.
            self.slots.clear();
            self.slots.resize(doubled, 0);
        } else {
            // Past the capacity a `resize` would `realloc`, copying the
            // dead table; a fresh zeroed one copies nothing.
            self.slots = vec![0; doubled];
        }
        let mask = doubled - 1;
        for (id, &fp) in (0u64..).zip(self.fps.iter()) {
            let (home, tagged) = Self::home_and_tag(fp);
            let mut i = home & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = tagged | id;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.fps.len()
    }

    /// Forget every state, keeping the slot table's allocation for
    /// [`grow`](Self::grow) to rebuild in and the segments for the ids
    /// handed out next.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.parents.clear();
        self.fps.clear();
    }

    /// Heap bytes allocated: slots, parents and fingerprints.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slots.capacity() * size_of::<u64>()
            + self.parents.capacity() * size_of::<Option<(u32, SchedElem)>>()
            + self.fps.capacity() * size_of::<u128>()
    }

    /// The fingerprint a dense id was allocated for.
    pub(crate) fn fp_of(&self, id: u32) -> u128 {
        *self.fps.get(id as usize)
    }

    /// Where first-visit edges enter the stuck region `!can_finish`: per
    /// process, the smallest-id stuck state whose first-visit parent can
    /// finish and reaches it by a step of that process. In id order, so
    /// the first entry is the smallest-id stuck state of all — unless
    /// that is the root, which nothing enters.
    pub(crate) fn stuck_entries(&self, can_finish: &[bool]) -> Vec<u32> {
        let mut procs = Vec::new();
        let enters = |(id, parent): (usize, &Option<(u32, SchedElem)>)| {
            let (from, elem) = (*parent)?;
            let fresh = !can_finish[id] && can_finish[from as usize] && !procs.contains(&elem.proc);
            fresh.then(|| {
                procs.push(elem.proc);
                id as u32
            })
        };
        self.parents.iter().enumerate().filter_map(enters).collect()
    }

    /// The schedule from the root to state `id` along first-visit parents.
    pub(crate) fn path_to(&self, id: u32) -> Vec<SchedElem> {
        let mut sched = Vec::new();
        let mut cur = id;
        while let Some((p, e)) = *self.parents.get(cur as usize) {
            sched.push(e);
            cur = p;
        }
        sched.reverse();
        sched
    }
}

/// Reverse reachability from `finish`: entry `s` says whether state `s`
/// reaches one of them. The reverse adjacency is built in
/// compressed-sparse-row form — count, prefix-sum, fill — so state `s`'s
/// predecessors are `preds[starts[s]..starts[s + 1]]`.
pub(crate) fn can_finish(n_states: usize, edges: &[(u32, u32)], finish: &[u32]) -> Vec<bool> {
    assert!(
        u32::try_from(edges.len()).is_ok(),
        "termination graph outgrew u32 edge offsets"
    );
    let mut starts = vec![0u32; n_states + 1];
    for &(_, b) in edges {
        starts[b as usize] += 1;
    }
    // Running totals put every window's *end* in its slot; filling each
    // window back to front then walks the slot down to its start.
    let mut total = 0;
    for slot in &mut starts {
        total += *slot;
        *slot = total;
    }
    let mut preds = vec![0u32; edges.len()];
    for &(a, b) in edges {
        starts[b as usize] -= 1;
        preds[starts[b as usize] as usize] = a;
    }
    let preds_of = |s: u32| &preds[starts[s as usize] as usize..starts[s as usize + 1] as usize];
    let mut can_finish = vec![false; n_states];
    let mut queue: Vec<u32> = finish.to_vec();
    for &t in finish {
        can_finish[t as usize] = true;
    }
    while let Some(s) = queue.pop() {
        for &pred in preds_of(s) {
            if !can_finish[pred as usize] {
                can_finish[pred as usize] = true;
                queue.push(pred);
            }
        }
    }
    can_finish
}

/// Whether the configured annotation invariant rejects the machine's
/// current annotation vector, gathered into the caller's reusable
/// `annots`.
pub(crate) fn violates_invariant<P: Process>(
    config: &CheckConfig,
    m: &Machine<P>,
    annots: &mut Vec<u64>,
) -> bool {
    config.annotation_invariant.is_some_and(|inv| {
        annots.clear();
        annots.extend((0..m.n()).map(|i| m.annotation(wbmem::ProcId::from(i))));
        !inv(annots)
    })
}

/// Best-effort rendering of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many loop iterations the kernel runs between deadline polls.
pub(crate) const DEADLINE_POLL_MASK: usize = 1024 - 1;

/// The engines' shared poll point: update the walk's frontier and
/// dedup-occupancy gauges and report whether the wall-clock deadline has
/// passed. There is no clock read unless a deadline exists.
pub(crate) fn poll_observe(
    tally: &mut MetricsSnapshot,
    frontier: usize,
    dedup_occupancy: usize,
    deadline: Option<Instant>,
) -> bool {
    tally.gauge_max(Gauge::MaxFrontier, frontier as u64);
    tally.gauge_set(Gauge::DedupOccupancy, dedup_occupancy as u64);
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Take the exploration step `elem` on `m` and count it into `tally`
/// ([`count_step`]) — the one place a machine step becomes metrics. The
/// machine a search walks has [forgotten](Machine::forget_locality) its
/// accounting, so the count comes from the step's event, never from the
/// machine's counters. Replays (`Dfs::start`, `render`) step the machine
/// directly and stay uncounted. Only a crash needs a look at the machine
/// before it steps: a draining crash commits its whole buffer in one
/// step.
#[inline]
pub(crate) fn step_counted<P: Process, T>(
    tally: &mut MetricsSnapshot,
    m: &mut Machine<P>,
    elem: SchedElem,
    step: impl FnOnce(&mut Machine<P>) -> (StepOutcome, T),
) -> (StepOutcome, T) {
    let drained = elem.crash.then(|| match m.config().crash_semantics {
        CrashSemantics::DrainBuffer => m.buffer(elem.proc).len() as u64,
        CrashSemantics::DiscardBuffer => 0,
    });
    let (out, rest) = step(m);
    if let StepOutcome::Stepped(event) = &out {
        count_step(tally, m, event, drained);
    }
    (out, rest)
}

/// Count the step that produced `event` by its kind: the class `wbmem`
/// raised a counter of when it took the step. An SC write commits at
/// once, so a `Commit` of a machine that buffers nothing is a write too.
/// A crash commits what it `drained`: the writes its process had
/// buffered, under [`CrashSemantics::DrainBuffer`], or none.
fn count_step<P: Process>(
    tally: &mut MetricsSnapshot,
    m: &Machine<P>,
    event: &Event,
    drained: Option<u64>,
) {
    let (p, i) = (event.proc, event.proc.index());
    let mut steps = ProcSteps::default();
    match event.kind {
        EventKind::Read { from_memory, .. } => {
            tally.incr(Metric::Reads);
            tally.add(Metric::BufferReads, u64::from(!from_memory));
        }
        EventKind::Write { .. } => tally.on_write(m.buffer(p).len() as u64),
        EventKind::Commit { .. } => {
            tally.incr(Metric::Commits);
            if !m.config().model.buffers_writes() {
                tally.on_write(0);
            }
        }
        EventKind::Fence => steps.fences = 1,
        EventKind::Cas { .. } => tally.incr(Metric::CasOps),
        EventKind::Swap { .. } => tally.incr(Metric::SwapOps),
        EventKind::Return { .. } => tally.incr(Metric::Returns),
        EventKind::Crash { .. } => {
            tally.add(
                Metric::Commits,
                drained.expect("only a crash element crashes"),
            );
            steps.crashes = 1;
        }
    }
    if steps != ProcSteps::default() {
        tally.proc_steps(i, steps);
    }
}

/// Hash of the verdict-relevant configuration, stamped into every
/// checkpoint and validated on resume: a snapshot taken under one
/// property/bound/crash configuration must not seed a run under another
/// (the merged verdict would be meaningless). Deliberately excludes the
/// budget, recorder and checkpoint policy — those change
/// *how far and how observably* the space is explored, not *which* space
/// with *which* properties.
///
/// `#[inline]` so that every crate that monomorphizes an engine also
/// instantiates this fixed-key SipHash `hash_one`: `benchmark/`'s reference
/// kernel hashes through the same `BuildHasherDefault<DefaultHasher>`,
/// rustc places both instantiations in one codegen unit, and when the
/// kernel is the only SipHash user there LLVM specializes it (×2.5 faster),
/// which rescales every `verdict_x`. The engines stopped hashing with
/// SipHash; this keeps the kernel compiled as it was when the baselines
/// were recorded, until `benchmark/` isolates its kernel.
#[inline]
pub(crate) fn config_hash(config: &CheckConfig) -> u64 {
    let reorder_bound = match config.engine {
        Engine::Dpor { reorder_bound } | Engine::ParallelDpor { reorder_bound, .. } => {
            reorder_bound
        }
        _ => None,
    };
    BuildHasherDefault::<DefaultHasher>::default().hash_one((
        config.max_states,
        config.check_mutex,
        config.check_permutation,
        config.check_termination,
        config.max_crashes,
        matches!(config.crash_semantics, CrashSemantics::DrainBuffer),
        config.engine.label(),
        reorder_bound,
        config.annotation_invariant.is_some(),
    ))
}

/// The run metadata stamped into every checkpoint of the exploration of
/// `config` from the (crash-bounded) root `root_fp`.
/// `#[inline]` for [`config_hash`]'s reason: this is its call site in the
/// generic engine code.
#[inline]
pub(crate) fn run_meta_of(config: &CheckConfig, root_fp: u128) -> RunMeta {
    RunMeta {
        engine: config.engine.label().to_string(),
        config_hash: config_hash(config),
        program_hash: root_fp,
    }
}

/// Write `snap` to the policy's path, retrying transient I/O failures
/// with exponential backoff (3 attempts: immediately, +10ms, +50ms).
/// Returns the path on success and `None` on final failure — the run's
/// verdict still stands, only the resume artifact is lost, which the
/// verdict's [`Coverage::checkpoint`] shows.
pub(crate) fn write_checkpoint(
    tally: &mut MetricsSnapshot,
    policy: &CheckpointPolicy,
    snap: &Snapshot,
) -> Option<PathBuf> {
    let mut delay = Duration::from_millis(10);
    for attempt in 1..=3 {
        if let Ok(bytes) = snap.write_atomic(&policy.path) {
            tally.incr(Metric::CheckpointWritten);
            tally.add(Metric::CheckpointBytes, bytes);
            return Some(policy.path.clone());
        }
        if attempt < 3 {
            std::thread::sleep(delay);
            delay *= 5;
        }
    }
    None
}

/// `initial` with the configured crash bound applied: the root every
/// engine explores from and every checkpoint is keyed by. With
/// `max_crashes > 0` the clone enumerates [`wbmem::SchedElem::crash`]
/// steps too.
pub(crate) fn bounded_root<'a, P: Process>(
    initial: &'a Machine<P>,
    config: &CheckConfig,
) -> Cow<'a, Machine<P>> {
    if config.max_crashes == 0 {
        return Cow::Borrowed(initial);
    }
    let mut m = initial.clone();
    m.set_crash_bound(config.crash_semantics, config.max_crashes);
    Cow::Owned(m)
}

/// Exhaustively explore every schedule of `initial` (process interleavings
/// *and* commit orders) and check the configured properties.
///
/// With `max_crashes > 0` every engine also enumerates crash steps —
/// schedules where processes crash (losing or draining their buffers per
/// [`CheckConfig::crash_semantics`]) and restart at their recovery entry.
///
/// The state space must be finite (true for the one-shot lock/object
/// programs in `simlocks`: tickets are bounded by `n` and every process
/// returns once; crashes are bounded by the per-process budget). All
/// engines explore depth-first over a fingerprint visited set and return
/// identical verdicts and statistics (see [`Engine`]); counterexamples are
/// replayed from the initial machine to render them. The only exception is
/// a wall-clock [`CheckConfig::budget`], whose expiry point is inherently
/// timing-dependent.
///
/// A check's per-state tables outlive it: when they take 1–64 MiB, the
/// check leaves them, emptied but allocated, to the next check on the
/// calling thread, which then allocates only past them. Up to 64 MiB so
/// stays allocated on the thread between checks, until the next check
/// replaces or frees it or the thread exits. A run that writes or resumes
/// a checkpoint keeps none, and frees what it finds.
#[must_use]
pub fn check<P: Process>(initial: &Machine<P>, config: &CheckConfig) -> Verdict {
    dispatch(initial, config, || Ok(None))
}

/// One run of `config.engine` — from the root, or continuing the
/// validated checkpoint `seed` loads ([`crate::resume`]) — stamped with
/// the elapsed time and the run's own counts, which then go to the
/// recorder. A checkpoint policy on a termination-checking run is refused
/// before `seed` is read: the termination check runs on one walk's graph,
/// which no snapshot holds. User code (the annotation invariant) runs
/// inside every walk: a panic there, or in the walk, is an error verdict,
/// not an abort of the caller.
pub(crate) fn dispatch<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    seed: impl FnOnce() -> Result<Option<Snapshot>, CheckError>,
) -> Verdict {
    let refuse = |e: CheckError| Verdict::Error(Stats::default(), e);
    if config.check_termination && config.checkpoint.is_some() {
        return refuse(CheckError::Checkpoint(
            "a checkpoint policy cannot be combined with check_termination: \
             a snapshot holds no termination graph"
                .to_string(),
        ));
    }
    let seed = match seed() {
        Ok(seed) => seed,
        Err(e) => return refuse(e),
    };
    let start = Instant::now();
    let deadline = config.budget.map(|b| start + b);
    let root = bounded_root(initial, config);
    let root = root.as_ref();
    let resumed = seed.as_ref().map(|snap| snap.metrics);
    let mut totals = MetricsSnapshot::default();
    let run = || match config.engine {
        // `resume` refuses the oracle before it gets here.
        Engine::CloneDfs => check_clone_dfs(root, config, deadline, &mut totals),
        _ => sequential(root, config, deadline, seed, &mut totals),
    };
    let mut verdict = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let msg = panic_message(payload.as_ref());
        Verdict::Error(Stats::default(), CheckError::Panic(msg))
    });
    // A resumed Ok/Inconclusive verdict describes the combined run, so
    // its metrics merge the interrupted run's snapshot with this one's.
    // Every other verdict came from a standalone rerun from the root and
    // stands alone.
    let metrics = match (&verdict, resumed) {
        (Verdict::Ok(_) | Verdict::Inconclusive(..), Some(prior)) => prior.merged(&totals),
        _ => totals,
    };
    let stats = verdict.stats_mut();
    (stats.elapsed, stats.metrics) = (start.elapsed(), metrics);
    config.recorder.record(&totals);
    verdict
}

/// The original engine: clone the machine at every transition. O(machine)
/// per edge; kept as the differential oracle for the undo engine. It takes
/// plain steps and rehashes every fingerprint from scratch, sharing no
/// step or hash path with the walks it checks. A child is cloned into a
/// spent machine from `spare` ([`Clone::clone_from`]) — one dropped after
/// a no-op, a repeat or a terminal state, or popped exhausted — so the
/// walk allocates about once per state, for its choices. Its one loop
/// counts straight into the check's `tally`.
fn check_clone_dfs<P: Process>(
    initial: &Machine<P>,
    config: &CheckConfig,
    deadline: Option<Instant>,
    tally: &mut MetricsSnapshot,
) -> Verdict {
    let mut stats = Stats::default();
    let mut index = SearchIndex::default();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut terminal: Vec<u32> = Vec::new();

    let root_fp = initial.fingerprint();
    let Some((root_id, _)) = index.id_of(root_fp, None) else {
        return Verdict::Error(stats, CheckError::TooManyStates);
    };
    stats.states = 1;
    tally.on_state(0);

    // Depth-first exploration; the stack holds (machine, its id, remaining
    // choices).
    let mut stack: Vec<(Machine<P>, u32, Vec<SchedElem>)> = Vec::new();

    // Check the initial state itself.
    if config.check_mutex && in_cs_count(initial) > 1 {
        return Verdict::MutexViolation(stats, render(initial, &[]));
    }
    let mut annots = Vec::new();
    if violates_invariant(config, initial, &mut annots) {
        return Verdict::InvariantViolation(stats, render(initial, &[]));
    }
    if initial.all_done() {
        terminal.push(root_id);
        stats.terminal_states = 1;
        tally.incr(Metric::TerminalStates);
    }
    let root_choices = initial.choices();
    let mut root = initial.clone();
    root.forget_locality();
    stack.push((root, root_id, root_choices));

    let mut spare: Vec<Machine<P>> = Vec::new();
    let mut iters = 0usize;
    while let Some((m, id, mut choices)) = stack.pop() {
        iters += 1;
        if iters & DEADLINE_POLL_MASK == 0
            && poll_observe(tally, stack.len() + 1, index.len(), deadline)
        {
            return Verdict::Inconclusive(
                stats,
                Coverage {
                    frontier: stack.len() + 1,
                    ..Coverage::default()
                },
            );
        }
        let Some(elem) = choices.pop() else {
            spare.push(m);
            continue;
        };
        // Put the remainder back before descending.
        let mut child = match spare.pop() {
            Some(mut child) => {
                child.clone_from(&m);
                child
            }
            None => m.clone(),
        };
        stack.push((m, id, choices));

        let (out, ()) = step_counted(tally, &mut child, elem, |m| (m.step(elem), ()));
        if matches!(out, StepOutcome::NoOp) {
            tally.incr(Metric::NoopSteps);
            spare.push(child);
            continue;
        }
        stats.transitions += 1;
        tally.incr(Metric::Transitions);
        let fp = child.fingerprint();
        let Some((child_id, fresh)) = index.id_of(fp, Some((id, elem))) else {
            return Verdict::Error(stats, CheckError::TooManyStates);
        };
        if config.check_termination {
            edges.push((id, child_id));
        }
        if !fresh {
            tally.incr(Metric::DedupHits);
            spare.push(child);
            continue;
        }
        stats.states += 1;
        tally.on_state(stack.len() as u64);
        if stats.states > config.max_states {
            return Verdict::StateLimit(stats);
        }

        if config.check_mutex && in_cs_count(&child) > 1 {
            return Verdict::MutexViolation(stats, render(initial, &index.path_to(child_id)));
        }
        if violates_invariant(config, &child, &mut annots) {
            return Verdict::InvariantViolation(stats, render(initial, &index.path_to(child_id)));
        }
        if child.all_done() {
            stats.terminal_states += 1;
            terminal.push(child_id);
            tally.incr(Metric::TerminalStates);
            if config.check_permutation && !returns_are_permutation(&child) {
                return Verdict::PermutationViolation(
                    stats,
                    render(initial, &index.path_to(child_id)),
                );
            }
            spare.push(child);
            continue; // no choices from a terminal state
        }

        let child_choices = child.choices();
        debug_assert!(
            !child_choices.is_empty(),
            "non-terminal state has no choices"
        );
        stack.push((child, child_id, child_choices));
    }

    tally.gauge_set(Gauge::DedupOccupancy, index.len() as u64);
    if config.check_termination {
        let can_finish = can_finish(index.len(), &edges, &terminal);
        if let Some(stuck) = can_finish.iter().position(|&c| !c) {
            return Verdict::NoTermination(stats, render(initial, &index.path_to(stuck as u32)));
        }
    }

    Verdict::Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simlocks::{build_mutex, FenceMask, LockKind};
    use wbmem::{MemoryModel, ProcId};

    fn cfg() -> CheckConfig {
        CheckConfig::default()
    }

    /// The smallest-id state that cannot reach a terminal one, if any.
    fn find_stuck(n_states: usize, edges: &[(u32, u32)], terminal: &[u32]) -> Option<u32> {
        let can_finish = can_finish(n_states, edges, terminal);
        can_finish.iter().position(|&c| !c).map(|s| s as u32)
    }

    #[test]
    fn search_index_hands_out_the_ids_a_fingerprint_map_would() {
        // 10⁵ fingerprints, a quarter of them offered again later: mostly
        // uniformly random ones, between them runs that share their low
        // half (one probe start) and runs that share start and tag and
        // differ only in bits no slot holds, and zero — against the map
        // the flat table replaced.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut offered: Vec<u128> = vec![0];
        for k in 0..100_000u128 {
            let (hi, lo) = (u128::from(next()), u128::from(next()));
            offered.push(match k % 64 {
                0 => hi << 64 | 0xABCD,
                1 => (0xFEED << 97) | (hi & 0x1_FFFF_FFFF) << 64 | 0xABCD,
                k if k % 4 == 3 => offered[offered.len() / 2],
                _ => hi << 64 | lo,
            });
        }
        let mut index = SearchIndex::default();
        let mut reference: wbmem::FpMap<u32> = wbmem::FpMap::default();
        let mut growths = 0;
        for (k, &fp) in offered.iter().enumerate() {
            let slots = index.slots.len();
            let expect = match reference.get(&fp) {
                Some(&id) => (id, false),
                None => {
                    let id = reference.len() as u32;
                    reference.insert(fp, id);
                    (id, true)
                }
            };
            let parent = (k > 0).then_some((0, SchedElem::op(wbmem::ProcId(0))));
            assert_eq!(index.id_of(fp, parent), Some(expect), "offer {k}");
            assert_eq!(index.fp_of(expect.0), fp);
            assert_eq!(index.len(), reference.len());
            growths += usize::from(index.slots.len() != slots);
        }
        assert!(growths >= 3, "{growths} growths");
        assert!(index.len() * 4 <= index.slots.len() * 3 + 4);
        for (&fp, &id) in &reference {
            assert_eq!(index.id_of(fp, None), Some((id, false)));
        }
    }

    #[test]
    fn a_cleared_search_index_grows_in_its_kept_table_and_answers_as_a_new_one() {
        let fp = |i: u32| u128::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835) | 1;
        let parent = |i: u32| (i > 0).then(|| (i / 2, SchedElem::op(wbmem::ProcId(i % 3))));
        let mut index = SearchIndex::default();
        for i in 0..5_000 {
            index.id_of(fp(i), parent(i));
        }
        let (table, capacity) = (index.slots.as_ptr(), index.slots.capacity());
        index.clear();
        assert_eq!(index.len(), 0);
        // A smaller run, each state offered twice: the same ids, parents
        // and paths as a new index gives, in the table the last run left.
        let mut fresh = SearchIndex::default();
        let offers = (0..3_000).chain((0..3_000).rev());
        for i in offers {
            assert_eq!(index.id_of(fp(i), parent(i)), fresh.id_of(fp(i), parent(i)));
        }
        assert_eq!(
            (index.slots.as_ptr(), index.slots.capacity()),
            (table, capacity)
        );
        assert_eq!(index.slots.len(), fresh.slots.len());
        for id in (0..3_000).step_by(97) {
            assert_eq!(index.path_to(id), fresh.path_to(id));
            assert_eq!(index.fp_of(id), fresh.fp_of(id));
        }
    }

    #[test]
    fn search_index_keeps_ids_parents_and_fingerprints_across_segments() {
        let first = Segmented::<u128>::FIRST;

        // A binary tree of 5 000 states, six segments deep: state i's
        // first-visit parent is i / 2, reached by a step of process i % 3.
        let n = 5_000u32;
        let fp = |i: u32| u128::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835) | 1;
        let elem = |i: u32| SchedElem::op(wbmem::ProcId(i % 3));
        let mut index = SearchIndex::default();
        for i in 0..n {
            let parent = (i > 0).then(|| (i / 2, elem(i)));
            assert_eq!(index.id_of(fp(i), parent), Some((i, true)));
        }
        assert_eq!(index.len(), n as usize);
        assert_eq!(index.fps.segments(), 7);
        for i in 0..n {
            assert_eq!(index.fp_of(i), fp(i));
            assert_eq!(index.id_of(fp(i), None), Some((i, false)));
        }
        let boundaries = (0..7).map(|k| ((first << k) - first) as u32);
        for id in boundaries.flat_map(|b| [b.saturating_sub(1), b, b + 1]) {
            let mut expect = Vec::new();
            let mut j = id;
            while j > 0 {
                expect.push(elem(j));
                j /= 2;
            }
            expect.reverse();
            assert_eq!(index.path_to(id), expect, "path to {id}");
        }
        // Everything from the third segment on is stuck: it is entered
        // from the second, by each process's first step there.
        let stuck = 3 * first as u32;
        let can_finish: Vec<bool> = (0..n).map(|i| i < stuck).collect();
        assert_eq!(
            index.stuck_entries(&can_finish),
            vec![stuck, stuck + 1, stuck + 2]
        );
    }

    #[test]
    fn fully_fenced_peterson_is_correct_under_all_models() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let v = check(&inst.machine(model), &cfg());
            assert!(v.is_ok(), "{model}: {}", v.label());
        }
    }

    #[test]
    fn single_fence_peterson_splits_tso_from_pso() {
        // The separation witness: fence only after the victim write.
        let mask = FenceMask::only(&[
            simlocks::peterson::SITE_VICTIM,
            simlocks::peterson::SITE_RELEASE,
        ]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);

        let tso = check(&inst.machine(MemoryModel::Tso), &cfg());
        assert!(tso.is_ok(), "TSO should be safe: {}", tso.label());

        let pso = check(&inst.machine(MemoryModel::Pso), &cfg());
        match pso {
            Verdict::MutexViolation(_, cex) => {
                assert!(!cex.schedule.is_empty());
                assert!(cex.trace.contains("in-CS: [0, 1]"), "trace:\n{}", cex.trace);
            }
            other => panic!("PSO should violate mutex, got {}", other.label()),
        }
    }

    #[test]
    fn fenceless_peterson_fails_even_under_tso() {
        let mask = FenceMask::only(&[simlocks::peterson::SITE_RELEASE]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let v = check(&inst.machine(MemoryModel::Tso), &cfg());
        assert!(
            matches!(v, Verdict::MutexViolation(..)),
            "expected TSO violation, got {}",
            v.label()
        );
        // Under SC (no buffering at all) Peterson needs no fences.
        let v = check(&inst.machine(MemoryModel::Sc), &cfg());
        assert!(v.is_ok(), "SC: {}", v.label());
    }

    #[test]
    fn missing_release_fence_causes_livelock_not_mutex_failure() {
        // Without the release fence the flag reset can stay buffered
        // forever; mutual exclusion still holds but completion is lost for
        // some schedules... under our semantics buffered writes can always
        // still be committed later (commit choices remain available), so
        // termination actually survives. Verify mutex at least.
        let mask = FenceMask::only(&[
            simlocks::peterson::SITE_FLAG,
            simlocks::peterson::SITE_VICTIM,
        ]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let v = check(&inst.machine(MemoryModel::Pso), &cfg());
        assert!(
            !matches!(v, Verdict::MutexViolation(..)),
            "got {}",
            v.label()
        );
    }

    #[test]
    fn bakery_two_processes_fully_fenced_checks_out() {
        let inst = build_mutex(LockKind::Bakery, 2, FenceMask::ALL);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let v = check(&inst.machine(model), &cfg());
            assert!(v.is_ok(), "{model}: {}", v.label());
        }
    }

    #[test]
    fn papers_printed_bakery_listing_is_broken_even_under_sc() {
        // The paper's Algorithm 1 closes the doorway (C[i] := 0) before
        // publishing the ticket (T[i] := tmp). The checker finds the
        // resulting mutual-exclusion violation without any write
        // reordering at all.
        let inst = build_mutex(LockKind::BakeryPaperListing, 2, FenceMask::ALL);
        let v = check(&inst.machine(MemoryModel::Sc), &cfg());
        assert!(
            matches!(v, Verdict::MutexViolation(..)),
            "expected SC violation of the printed listing, got {}",
            v.label()
        );
    }

    #[test]
    fn stats_are_populated() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let v = check(&inst.machine(MemoryModel::Pso), &cfg());
        let s = v.stats();
        assert!(s.states > 10);
        assert!(s.transitions >= s.states - 1);
        assert!(s.terminal_states >= 1);
        assert!(s.elapsed > Duration::ZERO, "elapsed must be stamped");
        assert!(s.states_per_sec() > 0.0);
    }

    #[test]
    fn counterexamples_replay_deterministically() {
        let mask = FenceMask::only(&[simlocks::peterson::SITE_VICTIM]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let run = || match check(&inst.machine(MemoryModel::Pso), &cfg()) {
            Verdict::MutexViolation(_, cex) => cex,
            other => panic!("expected violation, got {}", other.label()),
        };
        let (a, b) = (run(), run());
        assert_eq!(a.schedule, b.schedule, "exploration is deterministic");
        assert_eq!(a.trace, b.trace);

        // Replaying the schedule on a fresh machine reproduces the
        // double-CS state.
        let mut m = inst.machine(MemoryModel::Pso);
        for &e in &a.schedule {
            m.step(e);
        }
        let in_cs = (0..2)
            .filter(|&i| m.annotation(wbmem::ProcId::from(i)) == simlocks::ANNOT_IN_CS)
            .count();
        assert_eq!(in_cs, 2, "replay must reach the violation");
    }

    #[test]
    fn strong_primitive_and_filter_locks_check_out() {
        for (kind, n) in [
            (LockKind::Ttas, 2usize),
            (LockKind::Mcs, 2),
            (LockKind::Filter, 2),
        ] {
            let inst = build_mutex(kind, n, FenceMask::ALL);
            for model in [MemoryModel::Tso, MemoryModel::Pso] {
                let v = check(&inst.machine(model), &cfg());
                assert!(v.is_ok(), "{kind} under {model}: {}", v.label());
            }
        }
    }

    #[test]
    fn permutation_check_accepts_correct_counters() {
        let inst = simlocks::build_ordering(LockKind::Ttas, 2, simlocks::ObjectKind::Counter);
        let config = CheckConfig {
            check_permutation: true,
            check_termination: false,
            ..CheckConfig::default()
        };
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        assert!(v.is_ok(), "{}", v.label());
    }

    /// A machine whose process `i` returns `ids[i]` at once.
    fn returning(ids: impl IntoIterator<Item = i64>) -> Machine<fencevm::VmProc> {
        let procs = ids
            .into_iter()
            .map(|id| {
                let mut a = fencevm::Asm::new("ret");
                a.ret(id);
                fencevm::VmProc::new(a.assemble().into())
            })
            .collect();
        let cfg = wbmem::MachineConfig::new(MemoryModel::Pso, wbmem::MemoryLayout::unowned());
        Machine::new(cfg, procs)
    }

    #[test]
    fn permutation_check_takes_more_processes_than_a_word_has_bits() {
        // `Dpor` walks one interleaving of 129 returns (a return is
        // invisible), so the check meets one terminal state.
        let config = CheckConfig {
            check_permutation: true,
            check_termination: false,
            ..CheckConfig::default()
        }
        .with_engine(Engine::Dpor {
            reorder_bound: None,
        });
        let v = check(&returning(0..129), &config);
        assert!(v.is_ok(), "{}", v.label());
        assert_eq!(v.stats().terminal_states, 1);
        let v = check(&returning((0..128).chain([0])), &config);
        assert!(
            matches!(v, Verdict::PermutationViolation(..)),
            "{}",
            v.label()
        );
    }

    #[test]
    fn state_limit_is_reported() {
        let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
        let small = CheckConfig {
            max_states: 50,
            ..CheckConfig::default()
        };
        let v = check(&inst.machine(MemoryModel::Pso), &small);
        assert!(matches!(v, Verdict::StateLimit(_)), "got {}", v.label());
    }

    // --- engine equivalence ---

    fn engines() -> [Engine; 3] {
        [
            Engine::CloneDfs,
            Engine::Undo,
            Engine::Parallel { threads: 4 },
        ]
    }

    #[test]
    fn engines_agree_on_a_correct_lock() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let verdicts: Vec<Verdict> = engines()
            .iter()
            .map(|&engine| check(&inst.machine(MemoryModel::Pso), &cfg().with_engine(engine)))
            .collect();
        for v in &verdicts {
            assert!(v.is_ok(), "{}", v.label());
        }
        assert_eq!(verdicts[0].stats(), verdicts[1].stats(), "clone vs undo");
        assert_eq!(
            verdicts[0].stats(),
            verdicts[2].stats(),
            "clone vs parallel"
        );
    }

    #[test]
    fn engines_agree_on_a_violating_lock() {
        let mask = FenceMask::only(&[simlocks::peterson::SITE_VICTIM]);
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let verdicts: Vec<Verdict> = engines()
            .iter()
            .map(|&engine| check(&inst.machine(MemoryModel::Pso), &cfg().with_engine(engine)))
            .collect();
        for v in &verdicts {
            assert!(matches!(v, Verdict::MutexViolation(..)), "{}", v.label());
        }
        assert_eq!(verdicts[0].stats(), verdicts[1].stats(), "clone vs undo");
        assert_eq!(
            verdicts[0].stats(),
            verdicts[2].stats(),
            "clone vs parallel"
        );
        let cex0 = verdicts[0].counterexample().expect("cex");
        let cex1 = verdicts[1].counterexample().expect("cex");
        let cex2 = verdicts[2].counterexample().expect("cex");
        assert_eq!(cex0.schedule, cex1.schedule);
        assert_eq!(cex0.schedule, cex2.schedule);
        assert_eq!(cex0.trace, cex1.trace);
    }

    #[test]
    fn engines_agree_on_state_limit() {
        let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
        for engine in engines() {
            let small = CheckConfig {
                max_states: 50,
                ..CheckConfig::default()
            }
            .with_engine(engine);
            let v = check(&inst.machine(MemoryModel::Pso), &small);
            assert!(
                matches!(v, Verdict::StateLimit(_)),
                "{engine:?}: {}",
                v.label()
            );
        }
    }

    #[test]
    fn parallel_zero_threads_means_auto() {
        let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
        let config = cfg().with_engine(Engine::Parallel { threads: 0 });
        let v = check(&inst.machine(MemoryModel::Tso), &config);
        assert!(v.is_ok(), "{}", v.label());
    }

    // --- crash injection ---

    fn crash_cfg(max_crashes: u32) -> CheckConfig {
        CheckConfig {
            check_termination: false,
            max_states: 200_000,
            ..CheckConfig::default()
        }
        .with_crashes(CrashSemantics::DiscardBuffer, max_crashes)
    }

    #[test]
    fn crash_schedules_grow_the_state_space() {
        let inst = build_mutex(LockKind::RecoverableTtas, 2, FenceMask::ALL);
        let plain = check(&inst.machine(MemoryModel::Pso), &crash_cfg(0));
        let crashy = check(&inst.machine(MemoryModel::Pso), &crash_cfg(1));
        assert!(
            crashy.stats().states > plain.stats().states,
            "crash choices must add states: {} vs {}",
            crashy.stats().states,
            plain.stats().states
        );
    }

    #[test]
    fn recoverable_ttas_keeps_mutex_and_recovery_under_crashes() {
        let inst = build_mutex(LockKind::RecoverableTtas, 2, FenceMask::ALL);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let mut config = crash_cfg(2);
            config.check_termination = true;
            let v = check(&inst.machine(model), &config);
            assert!(
                v.is_ok(),
                "r-ttas under {model} with crashes: {}",
                v.label()
            );
        }
    }

    #[test]
    fn naive_ttas_deadlocks_under_crashes() {
        // A crash can discard the buffered release write (or strand a held
        // lock word), after which nobody finishes: NO-TERMINATION, with the
        // crash step visible in the counterexample trace.
        let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
        let mut config = crash_cfg(1);
        config.check_termination = true;
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        match v {
            Verdict::NoTermination(_, cex) => {
                assert!(cex.trace.contains("crash"), "trace:\n{}", cex.trace);
            }
            other => panic!("expected NO-TERMINATION, got {}", other.label()),
        }
    }

    #[test]
    fn engines_agree_on_crash_workloads() {
        for (kind, max_crashes) in [(LockKind::RecoverableTtas, 1), (LockKind::Ttas, 1)] {
            let inst = build_mutex(kind, 2, FenceMask::ALL);
            let verdicts: Vec<Verdict> = engines()
                .iter()
                .map(|&engine| {
                    check(
                        &inst.machine(MemoryModel::Pso),
                        &crash_cfg(max_crashes).with_engine(engine),
                    )
                })
                .collect();
            assert_eq!(
                verdicts[0].stats(),
                verdicts[1].stats(),
                "{kind}: clone vs undo"
            );
            assert_eq!(
                verdicts[0].stats(),
                verdicts[2].stats(),
                "{kind}: clone vs parallel"
            );
            assert_eq!(verdicts[0].label(), verdicts[1].label());
            assert_eq!(verdicts[0].label(), verdicts[2].label());
        }
    }

    // --- budget ---

    #[test]
    fn zero_budget_returns_inconclusive_with_coverage() {
        let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
        for engine in engines() {
            let config = cfg().with_engine(engine).with_budget(Duration::ZERO);
            let v = check(&inst.machine(MemoryModel::Pso), &config);
            match v {
                Verdict::Inconclusive(stats, coverage) => {
                    assert!(stats.states >= 1);
                    assert!(coverage.frontier >= 1, "{engine:?}: open frames expected");
                }
                other => panic!("{engine:?}: expected inconclusive, got {}", other.label()),
            }
        }
    }

    #[test]
    fn generous_budget_does_not_change_the_verdict() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let config = cfg().with_budget(Duration::from_secs(3600));
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        assert!(v.is_ok(), "{}", v.label());
        assert_eq!(
            v.stats(),
            check(&inst.machine(MemoryModel::Pso), &cfg()).stats()
        );
    }

    // --- invariants and panic isolation ---

    #[test]
    fn invariant_violations_are_reported_with_counterexamples() {
        // "Nobody is ever in the critical section" is false for any working
        // lock, so the checker must find a counterexample — identically on
        // every engine.
        fn nobody_in_cs(annots: &[u64]) -> bool {
            annots.iter().all(|&a| a != simlocks::ANNOT_IN_CS)
        }
        let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
        let verdicts: Vec<Verdict> = engines()
            .iter()
            .map(|&engine| {
                let config = cfg().with_engine(engine).with_invariant(nobody_in_cs);
                check(&inst.machine(MemoryModel::Pso), &config)
            })
            .collect();
        for v in &verdicts {
            assert!(
                matches!(v, Verdict::InvariantViolation(..)),
                "{}",
                v.label()
            );
        }
        assert_eq!(verdicts[0].stats(), verdicts[1].stats());
        assert_eq!(verdicts[0].stats(), verdicts[2].stats());
        let (c0, c2) = (
            verdicts[0].counterexample().expect("cex"),
            verdicts[2].counterexample().expect("cex"),
        );
        assert_eq!(c0.schedule, c2.schedule, "parallel defers to sequential");
    }

    #[test]
    fn panicking_invariant_yields_an_error_not_an_abort() {
        // Passes at the (CS-free) root; the first critical-section state
        // then panics inside the walk, on every engine.
        fn exploding(annots: &[u64]) -> bool {
            assert!(
                annots.iter().all(|&a| a != simlocks::ANNOT_IN_CS),
                "deliberate test panic"
            );
            true
        }
        let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
        let dpor = Engine::Dpor {
            reorder_bound: None,
        };
        let pardpor = Engine::ParallelDpor {
            threads: 4,
            reorder_bound: None,
        };
        for engine in engines().into_iter().chain([dpor, pardpor]) {
            let config = cfg().with_engine(engine).with_invariant(exploding);
            let v = check(&inst.machine(MemoryModel::Pso), &config);
            match &v {
                Verdict::Error(_, CheckError::Panic(msg)) => {
                    assert!(msg.contains("deliberate test panic"), "{engine:?}: {msg}");
                }
                other => panic!("{engine:?}: expected Error(Panic), got {}", other.label()),
            }
            assert!(!v.is_ok());
            assert!(!v.is_violation());
            assert!(v.error().is_some());
        }
    }

    #[test]
    fn check_error_wraps_machine_errors() {
        let e = wbmem::MachineError::NoSuchProc {
            proc: wbmem::ProcId(9),
            n: 2,
        };
        let wrapped: CheckError = e.clone().into();
        assert_eq!(wrapped, CheckError::Machine(e));
        assert!(wrapped.to_string().contains("machine error"));
        assert!(CheckError::TooManyStates.to_string().contains("u32"));
    }

    /// `find_stuck` as it was before the CSR adjacency: one `Vec` of
    /// predecessors per state.
    fn find_stuck_by_lists(n_states: usize, edges: &[(u32, u32)], terminal: &[u32]) -> Option<u32> {
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n_states];
        for &(a, b) in edges {
            rev[b as usize].push(a);
        }
        let mut can_finish = vec![false; n_states];
        let mut queue: Vec<u32> = terminal.to_vec();
        for &t in terminal {
            can_finish[t as usize] = true;
        }
        while let Some(s) = queue.pop() {
            for &pred in &rev[s as usize] {
                if !can_finish[pred as usize] {
                    can_finish[pred as usize] = true;
                    queue.push(pred);
                }
            }
        }
        (0..n_states).find(|&s| !can_finish[s]).map(|s| s as u32)
    }

    #[test]
    fn find_stuck_on_hand_built_graphs() {
        // 0 → 1 → 2 (terminal); 3 loops on itself; 4 has no edges at all.
        let edges = [(0, 1), (1, 2), (3, 3), (1, 0)];
        assert_eq!(find_stuck(5, &edges, &[2]), Some(3));
        assert_eq!(find_stuck(5, &edges, &[2, 3]), Some(4));
        assert_eq!(find_stuck(5, &edges, &[2, 3, 4]), None);
        assert_eq!(find_stuck(3, &edges[..2], &[]), Some(0));
        assert_eq!(find_stuck(0, &[], &[]), None);
    }

    /// Under `DrainBuffer` a crash step commits its process's whole
    /// buffer, and those commits are counted with the crash; under
    /// `DiscardBuffer` it commits nothing. Alike on a machine that forgot
    /// its accounting, as the one a search walks has.
    #[test]
    fn a_draining_crash_counts_its_commits_and_the_crash() {
        let p0 = ProcId(0);
        let inst = build_mutex(LockKind::RecoverableBakery, 2, FenceMask::NONE);
        let semantics = [CrashSemantics::DrainBuffer, CrashSemantics::DiscardBuffer];
        for (semantics, forget) in semantics.into_iter().flat_map(|s| [(s, false), (s, true)]) {
            let mut m = inst.machine(MemoryModel::Pso);
            if forget {
                m.forget_locality();
            }
            m.set_crash_bound(semantics, 1);
            while m.buffer(p0).len() < 2 {
                assert!(m.step(SchedElem::op(p0)).event().is_some(), "p0 got stuck");
            }
            let pending = m.buffer(p0).len() as u64;
            let mut snap = MetricsSnapshot::default();
            step_counted(&mut snap, &mut m, SchedElem::crash(p0), |m| {
                (m.step(SchedElem::crash(p0)), ())
            });
            assert!(m.buffer(p0).is_empty());
            let commits = match semantics {
                CrashSemantics::DrainBuffer => pending,
                CrashSemantics::DiscardBuffer => 0,
            };
            assert_eq!(snap.get(Metric::Commits), commits);
            assert_eq!(snap.get(Metric::Crashes), 1);
            assert_eq!(snap.per_proc[0].crashes, 1);
        }
    }

    /// A search counts a draining crash's commits, though the machine it
    /// walks counts nothing: RecoverableBakery, n = 2, under TSO with one
    /// draining crash per process, reads the same commit count under the
    /// kernel and the oracle.
    #[test]
    fn a_search_counts_the_commits_of_draining_crashes() {
        let machine =
            build_mutex(LockKind::RecoverableBakery, 2, FenceMask::ALL).machine(MemoryModel::Tso);
        for engine in [Engine::Undo, Engine::CloneDfs] {
            let config = CheckConfig {
                check_termination: false,
                max_crashes: 1,
                crash_semantics: CrashSemantics::DrainBuffer,
                ..cfg()
            }
            .with_engine(engine);
            let v = check(&machine, &config);
            assert!(v.is_ok(), "{engine:?}: {}", v.label());
            assert_eq!(v.stats().states, 10_730, "{engine:?}");
            assert_eq!(v.stats().metrics.get(Metric::Commits), 5_391, "{engine:?}");
        }
    }

    proptest::proptest! {
        /// What makes classifying a step from its event sound: whatever
        /// schedule runs through `step_counted` — crashes of either
        /// semantics, no-ops, a CAS lock, a swap lock, every model — the
        /// tally ends up holding exactly the machine's own `Counters`, and
        /// one return per finished process.
        #[test]
        fn step_counted_tallies_exactly_what_the_machine_counted(
            picks in prop::collection::vec(0usize..1 << 16, 1..400),
            lock in 0usize..3,
            model in 0usize..3,
            drain in any::<bool>(),
            recorded in any::<bool>(),
        ) {
            let (kind, n) = [
                (LockKind::RecoverableTtas, 3),
                (LockKind::Mcs, 3),
                (LockKind::RecoverableBakery, 2),
            ][lock];
            let model = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso][model];
            let mut m = build_mutex(kind, n, FenceMask::NONE).machine(model);
            let semantics = if drain {
                CrashSemantics::DrainBuffer
            } else {
                CrashSemantics::DiscardBuffer
            };
            m.set_crash_bound(semantics, 2);
            let mut tally = MetricsSnapshot::default();
            for pick in picks {
                let choices = m.choices();
                // One pick in eight crashes a process whether or not it
                // may crash (a no-op if not); the rest take a real choice.
                let elem = if pick % 8 == 0 || choices.is_empty() {
                    SchedElem::crash(ProcId::from(pick / 8 % n))
                } else {
                    choices[pick / 8 % choices.len()]
                };
                step_counted(&mut tally, &mut m, elem, |m| {
                    if recorded {
                        (m.step_recorded(elem).0, ())
                    } else {
                        (m.step(elem), ())
                    }
                });
            }
            let (snap, total) = (tally, m.counters().total());
            let tallied = [
                Metric::Reads, Metric::BufferReads, Metric::Writes, Metric::Commits,
                Metric::Fences, Metric::CasOps, Metric::SwapOps, Metric::Crashes,
            ].map(|metric| snap.get(metric));
            let counted = [
                total.reads, total.buffer_reads, total.writes, total.commits,
                total.fences, total.cas_ops, total.swap_ops, total.crashes,
            ];
            prop_assert_eq!(tallied, counted);
            prop_assert_eq!(snap.buffer_depth.total(), total.writes);
            prop_assert_eq!(snap.get(Metric::Returns), m.nb_final());
            for (p, c) in m.counters().iter().enumerate() {
                let steps = snap.per_proc[p];
                prop_assert_eq!((steps.fences, steps.crashes), (c.fences, c.crashes));
            }
        }

        /// Random graphs — duplicate edges, self-loops and states no edge
        /// touches included — get the same answer from both adjacencies.
        #[test]
        fn find_stuck_matches_the_adjacency_list_version(
            (n, edges, terminal) in (1u32..40).prop_flat_map(|n| (
                Just(n),
                prop::collection::vec((0..n, 0..n), 0..120),
                prop::collection::vec(0..n, 0..4),
            ))
        ) {
            prop_assert_eq!(
                find_stuck(n as usize, &edges, &terminal),
                find_stuck_by_lists(n as usize, &edges, &terminal)
            );
        }
    }
}
