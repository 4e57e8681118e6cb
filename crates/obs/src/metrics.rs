//! Metric taxonomy and the mergeable, `Copy` [`MetricsSnapshot`].
//!
//! Every quantity a check counts is either a **counter** (monotone,
//! summed on merge), a **gauge** (last/max value, maxed on merge), or a
//! **histogram** (log-bucketed counts, summed bucket-wise on merge). The
//! snapshot packs all of them into fixed-size arrays so it stays `Copy`
//! and can be embedded in `modelcheck::Stats` without breaking that
//! type's `Copy` bound.
//!
//! Equality is deliberately *partial*: only the deterministic subset of
//! counters — the quantities that depend solely on the multiset of
//! executed `(state, choice)` steps, not on traversal strategy, wall
//! clock, or thread interleaving — participate in `PartialEq`/`Eq` and
//! `Hash`. This mirrors `modelcheck::Stats`, whose equality ignores
//! `elapsed`, and is what lets the differential suites assert bit-identical
//! snapshots across the CloneDfs/Undo/Parallel/Dpor engines.

/// Maximum number of processes tracked per-process (the paper's matrices
/// top out at n=4; power-of-2 tournament instances reach 8).
pub const MAX_PROCS: usize = 8;

/// Number of log-scale histogram buckets. Bucket `i` counts samples whose
/// value `v` satisfies `bucket_index(v) == i`; see [`bucket_index`].
pub const HIST_BUCKETS: usize = 32;

/// Monotone event counters. Order matters: every metric with index below
/// [`Metric::DETERMINISTIC_END`] is engine-independent (a pure function of
/// the executed step multiset) and participates in snapshot equality;
/// everything at or after it is traversal- or timing-dependent and is
/// excluded, again mirroring how `Stats` equality ignores `elapsed`. No
/// RMR count is kept: the machine a search walks classifies no access as
/// remote, because ρ is the cost of one execution, not a property of a
/// state space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Metric {
    /// Distinct states inserted into the visited set.
    States,
    /// Executed (non-no-op) transitions.
    Transitions,
    /// States with no enabled successor (termination-relevant).
    TerminalStates,
    /// Transitions whose successor was already visited.
    DedupHits,
    /// Scheduler choices that produced `StepOutcome::NoOp`.
    NoopSteps,
    /// Machine-level step classes (one per executed event).
    Reads,
    /// Reads served from the process's own write buffer.
    BufferReads,
    /// Buffered (or SC-immediate) writes.
    Writes,
    /// Buffer-to-memory commits (including crash drains under
    /// `DrainBuffer` semantics).
    Commits,
    /// Fence instructions retired — the paper's β(E).
    Fences,
    /// Compare-and-swap operations.
    CasOps,
    /// Swap (fetch-and-store) operations.
    SwapOps,
    /// Crash-fault injections.
    Crashes,
    /// Process returns (passage completions).
    Returns,
    /// Sleep-set suppressions in the DPOR engine (zero for exhaustive
    /// engines, for disabled-reduction diagnostic runs, and for unbounded
    /// termination checks, which walk every edge).
    SleepHits,
    /// States expanded with a proper ample subset.
    AmpleApplied,
    /// States where ample selection fell back to the full enabled set:
    /// the sum of the three `AmpleFallback*` reasons below.
    AmpleFallbacks,
    /// Fallbacks because only one process still had choices.
    AmpleFallbackVacuous,
    /// Fallbacks because no process passed the visibility condition (each
    /// could crash, or was poised at an operation that may annotate).
    AmpleFallbackVisible,
    /// Fallbacks because a process passed visibility and one of its
    /// choices conflicted with a rival's future.
    AmpleFallbackConflict,
    /// States expanded with an ample set (counted in `AmpleApplied`) and
    /// then expanded in full by the cycle proviso.
    AmpleProvisoUpgrades,
    /// Undo-log pops (engine-specific; CloneDfs performs none).
    UndoSteps,
    /// Fork points stolen by an idle worker. No engine has a
    /// work-stealing queue any more, so this reads 0; it stays because
    /// `benchmark/` names it.
    ForkStolen,
    /// Fingerprint-table contention events (failed claim CASes plus
    /// occupied slots stepped over while probing). No engine probes a
    /// shared table any more, so this reads 0; it stays because
    /// `benchmark/` names it.
    FpContention,
    /// Checkpoints successfully written to disk.
    CheckpointWritten,
    /// Bytes written across all checkpoints.
    CheckpointBytes,
    /// Fork points replayed while resuming from a checkpoint.
    ResumeReplayed,
}

/// All counters, in `repr(usize)` order.
pub const METRICS: [Metric; Metric::COUNT] = [
    Metric::States,
    Metric::Transitions,
    Metric::TerminalStates,
    Metric::DedupHits,
    Metric::NoopSteps,
    Metric::Reads,
    Metric::BufferReads,
    Metric::Writes,
    Metric::Commits,
    Metric::Fences,
    Metric::CasOps,
    Metric::SwapOps,
    Metric::Crashes,
    Metric::Returns,
    Metric::SleepHits,
    Metric::AmpleApplied,
    Metric::AmpleFallbacks,
    Metric::AmpleFallbackVacuous,
    Metric::AmpleFallbackVisible,
    Metric::AmpleFallbackConflict,
    Metric::AmpleProvisoUpgrades,
    Metric::UndoSteps,
    Metric::ForkStolen,
    Metric::FpContention,
    Metric::CheckpointWritten,
    Metric::CheckpointBytes,
    Metric::ResumeReplayed,
];

impl Metric {
    /// Total number of counters.
    pub const COUNT: usize = Metric::ResumeReplayed as usize + 1;

    /// Counters with index `< DETERMINISTIC_END` compare in snapshot
    /// equality; the rest are traversal- or timing-dependent.
    pub const DETERMINISTIC_END: usize = Metric::UndoSteps as usize;

    /// Snake-case name: the key of the counter's JSON field and of its
    /// checkpoint entry.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Metric::States => "states",
            Metric::Transitions => "transitions",
            Metric::TerminalStates => "terminal_states",
            Metric::DedupHits => "dedup_hits",
            Metric::NoopSteps => "noop_steps",
            Metric::Reads => "reads",
            Metric::BufferReads => "buffer_reads",
            Metric::Writes => "writes",
            Metric::Commits => "commits",
            Metric::Fences => "fences",
            Metric::CasOps => "cas_ops",
            Metric::SwapOps => "swap_ops",
            Metric::Crashes => "crashes",
            Metric::Returns => "returns",
            Metric::SleepHits => "sleep_hits",
            Metric::AmpleApplied => "ample_applied",
            Metric::AmpleFallbacks => "ample_fallbacks",
            Metric::AmpleFallbackVacuous => "ample_fallback_vacuous",
            Metric::AmpleFallbackVisible => "ample_fallback_visible",
            Metric::AmpleFallbackConflict => "ample_fallback_conflict",
            Metric::AmpleProvisoUpgrades => "ample_proviso_upgrades",
            Metric::UndoSteps => "undo_steps",
            Metric::ForkStolen => "fork_stolen",
            Metric::FpContention => "fp_contention",
            Metric::CheckpointWritten => "checkpoint_written",
            Metric::CheckpointBytes => "checkpoint_bytes",
            Metric::ResumeReplayed => "resume_replayed",
        }
    }
}

/// Gauges: merged by `max`, not by sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// High-water mark of the exploration frontier (stack/arena frames).
    MaxFrontier,
    /// Entries resident in the dedup (visited) table at snapshot time.
    DedupOccupancy,
    /// Deepest DFS frame observed.
    MaxDepth,
    /// Deepest write buffer observed across all processes.
    MaxBufferDepth,
}

impl Gauge {
    /// Total number of gauges.
    pub const COUNT: usize = Gauge::MaxBufferDepth as usize + 1;

    /// Snake-case name: the key of the gauge's JSON field and of its
    /// checkpoint entry.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::MaxFrontier => "max_frontier",
            Gauge::DedupOccupancy => "dedup_occupancy",
            Gauge::MaxDepth => "max_depth",
            Gauge::MaxBufferDepth => "max_buffer_depth",
        }
    }
}

/// All gauges, in `repr(usize)` order.
pub const GAUGES: [Gauge; Gauge::COUNT] = [
    Gauge::MaxFrontier,
    Gauge::DedupOccupancy,
    Gauge::MaxDepth,
    Gauge::MaxBufferDepth,
];

/// Log-scale bucket index for a histogram sample: bucket 0 holds value 0,
/// bucket `i ≥ 1` holds values whose bit length is `i` (i.e. `v` in
/// `[2^(i-1), 2^i)`), clamped to the last bucket.
#[must_use]
pub const fn bucket_index(v: u64) -> usize {
    let bits = (u64::BITS - v.leading_zeros()) as usize;
    if bits >= HIST_BUCKETS {
        HIST_BUCKETS - 1
    } else {
        bits
    }
}

/// A merged, immutable histogram: per-bucket counts on a log scale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct HistSnapshot {
    /// Sample count per log bucket; see [`bucket_index`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Total number of samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Bucket-wise sum.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }
}

/// Per-process deterministic step counts: the paper's per-process fence
/// count β_p(E) and the injected crash count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ProcSteps {
    /// Fence instructions retired by this process.
    pub fences: u64,
    /// Crash faults injected into this process.
    pub crashes: u64,
}

impl ProcSteps {
    pub(crate) fn merge(&mut self, other: &ProcSteps) {
        self.fences += other.fences;
        self.crashes += other.crashes;
    }

    fn is_zero(&self) -> bool {
        self.fences == 0 && self.crashes == 0
    }
}

/// A check's counts, or one walk's, or the sum a recorder holds.
///
/// A walk counts every edge — states, transitions, dedup hits, undos,
/// reduction decisions, and the machine step itself (reads, writes,
/// fences β(E), crashes, …) — into a snapshot it owns, so no count costs
/// an atomic or a lock, and merges it into its check's totals when it
/// ends.
///
/// `Copy` by construction (fixed-size arrays only) so it can live inside
/// `modelcheck::Stats`. Merging two snapshots sums counters, per-process
/// steps and histograms, and maxes gauges — and is associative and
/// commutative (gauges use `max`, everything else `+`), which the obs
/// proptest suite checks bit-exactly.
#[derive(Clone, Copy, Debug)]
pub struct MetricsSnapshot {
    /// Counter values indexed by `Metric as usize`.
    pub counters: [u64; Metric::COUNT],
    /// Per-process fence/crash counts (processes ≥ [`MAX_PROCS`] fold
    /// into the last slot).
    pub per_proc: [ProcSteps; MAX_PROCS],
    /// Write-buffer depth observed at each buffered write.
    pub buffer_depth: HistSnapshot,
    /// DFS frame depth observed at each state insertion.
    pub frame_depth: HistSnapshot,
    /// Gauge values indexed by `Gauge as usize`.
    pub gauges: [u64; Gauge::COUNT],
}

impl Default for MetricsSnapshot {
    // Manual: `[u64; N]` stops deriving `Default` past 32 elements.
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; Metric::COUNT],
            per_proc: [ProcSteps::default(); MAX_PROCS],
            buffer_depth: HistSnapshot::default(),
            frame_depth: HistSnapshot::default(),
            gauges: [0; Gauge::COUNT],
        }
    }
}

impl MetricsSnapshot {
    /// Value of one counter.
    #[must_use]
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// Value of one gauge.
    #[must_use]
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Distinct states visited.
    #[must_use]
    pub fn states(&self) -> u64 {
        self.get(Metric::States)
    }

    /// Executed transitions.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.get(Metric::Transitions)
    }

    /// True when nothing has been counted (e.g. the recorder was
    /// disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.gauges.iter().all(|&g| g == 0)
    }

    /// Fold `other` into `self`: counters and histograms sum, gauges max.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.per_proc.iter_mut().zip(other.per_proc.iter()) {
            a.merge(b);
        }
        self.buffer_depth.merge(&other.buffer_depth);
        self.frame_depth.merge(&other.frame_depth);
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Merged copy (functional form of [`merge`](Self::merge)).
    #[must_use]
    pub fn merged(mut self, other: &MetricsSnapshot) -> MetricsSnapshot {
        self.merge(other);
        self
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, m: Metric, delta: u64) {
        self.counters[m as usize] += delta;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&mut self, m: Metric) {
        self.add(m, 1);
    }

    /// Update a `max`-merged gauge.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, value: u64) {
        let slot = &mut self.gauges[g as usize];
        *slot = (*slot).max(value);
    }

    /// Overwrite a gauge (an occupancy sampled when the walk ends).
    #[inline]
    pub fn gauge_set(&mut self, g: Gauge, value: u64) {
        self.gauges[g as usize] = value;
    }

    /// Count a newly visited state at DFS depth `depth`.
    #[inline]
    pub fn on_state(&mut self, depth: u64) {
        self.incr(Metric::States);
        self.frame_depth.buckets[bucket_index(depth)] += 1;
        self.gauge_max(Gauge::MaxDepth, depth);
    }

    /// Charge `steps` to process `proc` (processes beyond [`MAX_PROCS`]
    /// fold into the last per-process slot) and to the totals.
    #[inline]
    pub fn proc_steps(&mut self, proc: usize, steps: ProcSteps) {
        self.add(Metric::Fences, steps.fences);
        self.add(Metric::Crashes, steps.crashes);
        self.per_proc[proc.min(MAX_PROCS - 1)].merge(&steps);
    }

    /// Count a write that left its process's buffer `depth` entries deep
    /// (`0` for an SC write, which commits at once).
    #[inline]
    pub fn on_write(&mut self, depth: u64) {
        self.incr(Metric::Writes);
        self.buffer_depth.buckets[bucket_index(depth)] += 1;
        self.gauge_max(Gauge::MaxBufferDepth, depth);
    }

    /// The deterministic projection compared by `PartialEq`: counters below
    /// [`Metric::DETERMINISTIC_END`], per-process steps, and the
    /// write-buffer depth histogram. Exposed so tests can state exactly
    /// what "bit-identical across engines" means.
    #[must_use]
    pub fn deterministic_key(
        &self,
    ) -> (
        [u64; Metric::DETERMINISTIC_END],
        [ProcSteps; MAX_PROCS],
        HistSnapshot,
    ) {
        let mut det = [0u64; Metric::DETERMINISTIC_END];
        det.copy_from_slice(&self.counters[..Metric::DETERMINISTIC_END]);
        (det, self.per_proc, self.buffer_depth)
    }

    /// Render the snapshot as flat JSON fields, one per counter and gauge
    /// (zero-valued per-process slots and empty histograms are omitted to
    /// keep lines compact).
    #[must_use]
    pub fn to_json_fields(&self) -> Vec<(String, crate::events::J)> {
        use crate::events::J;
        let mut out = Vec::new();
        for m in METRICS {
            out.push((m.name().to_string(), J::U(self.get(m))));
        }
        for g in GAUGES {
            out.push((g.name().to_string(), J::U(self.gauge(g))));
        }
        for (p, steps) in self.per_proc.iter().enumerate() {
            if !steps.is_zero() {
                out.push((format!("p{p}_fences"), J::U(steps.fences)));
                if steps.crashes > 0 {
                    out.push((format!("p{p}_crashes"), J::U(steps.crashes)));
                }
            }
        }
        if self.buffer_depth.total() > 0 {
            out.push((
                "buffer_depth_hist".to_string(),
                J::S(hist_field(&self.buffer_depth)),
            ));
        }
        if self.frame_depth.total() > 0 {
            out.push((
                "frame_depth_hist".to_string(),
                J::S(hist_field(&self.frame_depth)),
            ));
        }
        out
    }
}

/// Compact `count@bucket` encoding for a histogram field, e.g.
/// `"3@0,17@2,1@5"`.
fn hist_field(h: &HistSnapshot) -> String {
    let mut parts = Vec::new();
    for (i, &c) in h.buckets.iter().enumerate() {
        if c > 0 {
            parts.push(format!("{c}@{i}"));
        }
    }
    parts.join(",")
}

impl PartialEq for MetricsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.deterministic_key() == other.deterministic_key()
    }
}

impl Eq for MetricsSnapshot {}

impl std::hash::Hash for MetricsSnapshot {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.deterministic_key().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log_scale() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..HIST_BUCKETS - 1 {
            let floor = 1u64 << (i - 1);
            assert_eq!((bucket_index(floor), bucket_index(2 * floor - 1)), (i, i));
        }
    }

    /// `por::snapshot` stores counters and gauges by name, so the listing
    /// arrays must cover every variant in index order and no two slots of
    /// one kind may share a name.
    #[test]
    fn listings_are_in_index_order_with_unique_names() {
        fn check<T: Copy>(all: &[T], index: impl Fn(T) -> usize, name: impl Fn(T) -> &'static str) {
            for (i, &x) in all.iter().enumerate() {
                assert_eq!(index(x), i, "`{}` is out of place", name(x));
                assert!(!name(x).is_empty());
                for &y in &all[..i] {
                    assert_ne!(name(x), name(y), "two slots share a name");
                }
            }
        }
        check(&METRICS, |m| m as usize, Metric::name);
        check(&GAUGES, |g| g as usize, Gauge::name);
    }

    #[test]
    fn equality_ignores_traversal_dependent_fields() {
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        a.counters[Metric::States as usize] = 7;
        b.counters[Metric::States as usize] = 7;
        b.counters[Metric::UndoSteps as usize] = 99;
        b.gauges[Gauge::MaxFrontier as usize] = 42;
        b.frame_depth.buckets[3] = 5;
        assert_eq!(a, b, "undo/gauge/frame-depth differences ignored");
        b.counters[Metric::Fences as usize] = 1;
        assert_ne!(a, b, "deterministic counters compare");
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = MetricsSnapshot::default();
        a.counters[Metric::States as usize] = 3;
        a.gauges[Gauge::MaxFrontier as usize] = 10;
        a.per_proc[1].fences = 2;
        let mut b = MetricsSnapshot::default();
        b.counters[Metric::States as usize] = 4;
        b.gauges[Gauge::MaxFrontier as usize] = 6;
        b.per_proc[1].fences = 5;
        let m = a.merged(&b);
        assert_eq!(m.states(), 7);
        assert_eq!(m.gauge(Gauge::MaxFrontier), 10);
        assert_eq!(m.per_proc[1].fences, 7);
    }
}
