//! The [`Recorder`]: lock-sharded counters/histograms, RAII spans, the
//! hot-pc table, the heartbeat reporter, and the event fan-out to the
//! bounded ring and the optional JSONL sink.
//!
//! A recorder is either **disabled** — `inner == None`, every method is a
//! branch-on-`None` and returns immediately, so threading it through the
//! engines costs a predictable well-predicted branch per call site — or
//! **enabled**, in which case counter updates go to one of [`SHARDS`]
//! cache-line-independent shards selected per thread (round-robin on
//! first touch), keeping the parallel engine's workers from bouncing a
//! shared line. Snapshots fold the shards with
//! [`MetricsSnapshot::merge`], which the proptest suite checks is
//! associative/commutative, so shard count and fold order never change
//! the totals.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::estimate::Estimate;
use crate::events::{encode_line, EventRing, JsonlSink, J};
use crate::metrics::{bucket_index, Gauge, Metric, MetricsSnapshot, HIST_BUCKETS, MAX_PROCS};
use crate::trace::{SpanId, TraceCtx, DEFAULT_TRACE_BUF};
use crate::Phase;

/// Number of counter shards. Eight covers the parallel engine's default
/// worker counts; threads beyond that share shards round-robin.
pub const SHARDS: usize = 8;

/// Highest pc tracked per process in the hot-pc table; larger pcs fold
/// into the last slot.
pub const MAX_PCS: usize = 256;

/// Default heartbeat interval when `FT_OBS_HEARTBEAT_MS` is unset.
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;

/// Default capacity of the in-memory event ring.
pub const DEFAULT_RING_CAP: usize = 64;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

// Trace span ids are process-global, not per-recorder: several checks in
// one process (a sweep, a resume chain) append to one JSONL file, and the
// forest invariant (`parent < id`, ids unique) must hold across all of
// them. `0` is reserved for [`SpanId::NONE`].
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    // Const-initialized (no lazy-init guard on the TLS access path);
    // `usize::MAX` marks "not yet assigned" and the first touch claims
    // the next round-robin shard.
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

#[inline]
fn my_shard() -> usize {
    MY_SHARD.with(|c| {
        let s = c.get();
        if s != usize::MAX {
            s
        } else {
            let s = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(s);
            s
        }
    })
}

/// Raise a max-merged gauge. The plain load makes the steady-state case
/// (value does not exceed the current max) branch-and-done instead of a
/// `fetch_max` CAS loop; the race where two threads pass the check is
/// resolved by `fetch_max` itself.
#[inline]
fn bump_max(gauge: &AtomicU64, value: u64) {
    if gauge.load(Ordering::Relaxed) < value {
        gauge.fetch_max(value, Ordering::Relaxed);
    }
}

/// One machine-level step, classified for metric purposes. Built by
/// `wbmem::Machine` from the step's `EventKind` — one `record_step` call
/// per executed (non-no-op) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepClass {
    /// A read; `buffered` when served from the process's own write buffer,
    /// `remote` when charged as an RMR.
    Read {
        /// Served from the write buffer rather than shared memory.
        buffered: bool,
        /// Charged as an RMR under the model's remoteness rule.
        remote: bool,
    },
    /// A buffered (or SC-immediate) write; `buffer_depth` is the buffer
    /// length after the write enters it.
    Write {
        /// Buffer occupancy after the write.
        buffer_depth: u64,
    },
    /// A buffer-to-memory commit (including crash drains).
    Commit {
        /// Charged as an RMR.
        remote: bool,
    },
    /// A compare-and-swap.
    Cas {
        /// Charged as an RMR.
        remote: bool,
    },
    /// A fetch-and-store.
    Swap {
        /// Charged as an RMR.
        remote: bool,
    },
    /// A fence.
    Fence,
    /// A process return.
    Return,
    /// A crash-fault injection.
    Crash,
}

/// One lock-free shard of counters and histograms.
#[derive(Debug)]
struct Shard {
    counters: [AtomicU64; Metric::COUNT],
    per_proc: [[AtomicU64; 3]; MAX_PROCS], // fences, rmrs, crashes
    buffer_depth: [AtomicU64; HIST_BUCKETS],
    frame_depth: [AtomicU64; HIST_BUCKETS],
    span_ns: [AtomicU64; Phase::COUNT],
    span_count: [AtomicU64; Phase::COUNT],
    // Pad shards apart so adjacent shards' hot counters do not share a
    // cache line under the parallel engine.
    _pad: [u64; 8],
}

impl Default for Shard {
    // Manual: `[AtomicU64; N]` stops deriving `Default` past 32 elements.
    fn default() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            per_proc: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            buffer_depth: std::array::from_fn(|_| AtomicU64::new(0)),
            frame_depth: std::array::from_fn(|_| AtomicU64::new(0)),
            span_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            span_count: std::array::from_fn(|_| AtomicU64::new(0)),
            _pad: [0; 8],
        }
    }
}

impl Shard {
    fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (dst, src) in s.counters.iter_mut().zip(self.counters.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        for (dst, src) in s.per_proc.iter_mut().zip(self.per_proc.iter()) {
            dst.fences = src[0].load(Ordering::Relaxed);
            dst.rmrs = src[1].load(Ordering::Relaxed);
            dst.crashes = src[2].load(Ordering::Relaxed);
        }
        for (dst, src) in s
            .buffer_depth
            .buckets
            .iter_mut()
            .zip(self.buffer_depth.iter())
        {
            *dst = src.load(Ordering::Relaxed);
        }
        for (dst, src) in s
            .frame_depth
            .buckets
            .iter_mut()
            .zip(self.frame_depth.iter())
        {
            *dst = src.load(Ordering::Relaxed);
        }
        for (dst, src) in s.span_ns.iter_mut().zip(self.span_ns.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        for (dst, src) in s.span_count.iter_mut().zip(self.span_count.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        s
    }

    fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for p in &self.per_proc {
            for c in p {
                c.store(0, Ordering::Relaxed);
            }
        }
        for c in self.buffer_depth.iter().chain(self.frame_depth.iter()) {
            c.store(0, Ordering::Relaxed);
        }
        for c in self.span_ns.iter().chain(self.span_count.iter()) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct Inner {
    shards: [Shard; SHARDS],
    gauges: [AtomicU64; Gauge::COUNT],
    hot_pc: Vec<[AtomicU64; MAX_PCS]>,
    pc_labels: Mutex<Vec<Vec<String>>>,
    meta: Vec<(String, J)>,
    start: Instant,
    heartbeat_ms: u64,
    last_heartbeat_ms: AtomicU64,
    quiet: bool,
    ring: EventRing,
    sink: Option<Arc<JsonlSink>>,
    trace: bool,
    trace_root: AtomicU64,
}

/// Configures and builds an enabled [`Recorder`].
#[derive(Debug, Default)]
pub struct RecorderBuilder {
    meta: Vec<(String, J)>,
    sink: Option<Arc<JsonlSink>>,
    heartbeat_ms: Option<u64>,
    quiet: Option<bool>,
    ring_cap: Option<usize>,
    trace: Option<bool>,
}

impl RecorderBuilder {
    /// Attach a static meta field included in every emitted event (e.g.
    /// `engine`, `workload`). Order of insertion is preserved.
    #[must_use]
    pub fn meta(mut self, key: &str, value: impl Into<String>) -> Self {
        self.meta.push((key.to_string(), J::S(value.into())));
        self
    }

    /// Stream events to a (possibly shared) JSONL sink.
    #[must_use]
    pub fn sink(mut self, sink: Arc<JsonlSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Heartbeat interval in milliseconds (`0` disables heartbeats).
    /// Defaults to `FT_OBS_HEARTBEAT_MS` or [`DEFAULT_HEARTBEAT_MS`].
    #[must_use]
    pub fn heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = Some(ms);
        self
    }

    /// Suppress stderr output (events still reach the ring and sink).
    /// Defaults to the `FT_OBS_QUIET` environment variable.
    #[must_use]
    pub fn quiet(mut self, quiet: bool) -> Self {
        self.quiet = Some(quiet);
        self
    }

    /// Capacity of the in-memory event ring.
    #[must_use]
    pub fn ring_cap(mut self, cap: usize) -> Self {
        self.ring_cap = Some(cap);
        self
    }

    /// Record causal trace spans (see [`crate::trace`]). Defaults to the
    /// `FT_OBS_TRACE` environment variable; off otherwise.
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = Some(on);
        self
    }

    /// Build the enabled recorder.
    #[must_use]
    pub fn build(self) -> Recorder {
        let heartbeat_ms = self.heartbeat_ms.unwrap_or_else(|| {
            std::env::var("FT_OBS_HEARTBEAT_MS")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(DEFAULT_HEARTBEAT_MS)
        });
        let quiet = self.quiet.unwrap_or_else(|| {
            std::env::var("FT_OBS_QUIET").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        });
        let trace = self.trace.unwrap_or_else(|| {
            std::env::var("FT_OBS_TRACE").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        });
        Recorder {
            inner: Some(Arc::new(Inner {
                shards: std::array::from_fn(|_| Shard::default()),
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                hot_pc: (0..MAX_PROCS)
                    .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                    .collect(),
                pc_labels: Mutex::new(Vec::new()),
                meta: self.meta,
                start: Instant::now(),
                heartbeat_ms,
                last_heartbeat_ms: AtomicU64::new(0),
                quiet,
                ring: EventRing::new(self.ring_cap.unwrap_or(DEFAULT_RING_CAP)),
                sink: self.sink,
                trace,
                trace_root: AtomicU64::new(0),
            })),
        }
    }
}

/// Live exploration figures supplied by an engine to
/// [`Recorder::maybe_heartbeat`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Progress {
    /// Distinct states visited so far.
    pub states: u64,
    /// Transitions executed so far.
    pub transitions: u64,
    /// Current frontier size (DFS stack / arena frames / queued work).
    pub frontier: u64,
    /// Wall-clock budget for the whole check, if one was configured.
    pub budget: Option<Duration>,
    /// Time already consumed against that budget.
    pub spent: Option<Duration>,
    /// Tree-size progress estimate, when the engine maintains one.
    pub estimate: Option<Estimate>,
}

/// A metrics/tracing recorder handle. Cheap to clone (an `Arc` — or
/// nothing at all when disabled); all methods take `&self`.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: every method returns after one `None` check.
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder with default settings (no sink, env-derived
    /// heartbeat interval and quietness).
    #[must_use]
    pub fn enabled() -> Recorder {
        Recorder::builder().build()
    }

    /// Start configuring an enabled recorder.
    #[must_use]
    pub fn builder() -> RecorderBuilder {
        RecorderBuilder::default()
    }

    /// Whether this recorder actually records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether `self` and `other` share the same underlying recorder state.
    #[must_use]
    pub fn same_as(&self, other: &Recorder) -> bool {
        match (&self.inner, &other.inner) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    #[inline]
    fn shard(inner: &Inner) -> &Shard {
        &inner.shards[my_shard()]
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&self, m: Metric, delta: u64) {
        if let Some(inner) = &self.inner {
            Self::shard(inner).counters[m as usize].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Record one classified machine step for process `proc` (processes
    /// beyond [`MAX_PROCS`] fold into the last per-process slot), plus the
    /// post-step pc for the hot-pc table when the process exposes one.
    #[inline]
    pub fn record_step(&self, proc: usize, class: StepClass, pc: Option<u32>) {
        let Some(inner) = &self.inner else { return };
        let shard = Self::shard(inner);
        let c = &shard.counters;
        let p = proc.min(MAX_PROCS - 1);
        let mut remote = false;
        match class {
            StepClass::Read {
                buffered,
                remote: r,
            } => {
                c[Metric::Reads as usize].fetch_add(1, Ordering::Relaxed);
                if buffered {
                    c[Metric::BufferReads as usize].fetch_add(1, Ordering::Relaxed);
                }
                remote = r;
            }
            StepClass::Write { buffer_depth } => {
                c[Metric::Writes as usize].fetch_add(1, Ordering::Relaxed);
                shard.buffer_depth[bucket_index(buffer_depth)].fetch_add(1, Ordering::Relaxed);
                bump_max(&inner.gauges[Gauge::MaxBufferDepth as usize], buffer_depth);
            }
            StepClass::Commit { remote: r } => {
                c[Metric::Commits as usize].fetch_add(1, Ordering::Relaxed);
                remote = r;
            }
            StepClass::Cas { remote: r } => {
                c[Metric::CasOps as usize].fetch_add(1, Ordering::Relaxed);
                remote = r;
            }
            StepClass::Swap { remote: r } => {
                c[Metric::SwapOps as usize].fetch_add(1, Ordering::Relaxed);
                remote = r;
            }
            StepClass::Fence => {
                c[Metric::Fences as usize].fetch_add(1, Ordering::Relaxed);
                shard.per_proc[p][0].fetch_add(1, Ordering::Relaxed);
            }
            StepClass::Return => {
                c[Metric::Returns as usize].fetch_add(1, Ordering::Relaxed);
            }
            StepClass::Crash => {
                c[Metric::Crashes as usize].fetch_add(1, Ordering::Relaxed);
                shard.per_proc[p][2].fetch_add(1, Ordering::Relaxed);
            }
        }
        if remote {
            c[Metric::Rmrs as usize].fetch_add(1, Ordering::Relaxed);
            shard.per_proc[p][1].fetch_add(1, Ordering::Relaxed);
        }
        if let Some(pc) = pc {
            let pc = (pc as usize).min(MAX_PCS - 1);
            inner.hot_pc[p][pc].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a newly visited state at DFS depth `depth`.
    #[inline]
    pub fn on_state(&self, depth: u64) {
        if let Some(inner) = &self.inner {
            let shard = Self::shard(inner);
            shard.counters[Metric::States as usize].fetch_add(1, Ordering::Relaxed);
            shard.frame_depth[bucket_index(depth)].fetch_add(1, Ordering::Relaxed);
            bump_max(&inner.gauges[Gauge::MaxDepth as usize], depth);
        }
    }

    /// Record an executed transition.
    #[inline]
    pub fn on_transition(&self) {
        self.add(Metric::Transitions, 1);
    }

    /// Update a `max`-merged gauge.
    #[inline]
    pub fn gauge_max(&self, g: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            bump_max(&inner.gauges[g as usize], value);
        }
    }

    /// Overwrite a gauge (last write wins; used for occupancy-style
    /// gauges sampled at snapshot time).
    #[inline]
    pub fn gauge_set(&self, g: Gauge, value: u64) {
        if let Some(inner) = &self.inner {
            inner.gauges[g as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Open an engine-local [`Tally`] that batches the checker-side
    /// counters in plain fields and folds them into the recorder when
    /// dropped (or on [`Tally::flush`]).
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally {
            rec: self.clone(),
            states: 0,
            transitions: 0,
            terminal_states: 0,
            dedup_hits: 0,
            noop_steps: 0,
            undo_steps: 0,
            sleep_hits: 0,
            ample_applied: 0,
            ample_fallbacks: 0,
            max_depth: 0,
            frame_depth: [0; HIST_BUCKETS],
        }
    }

    /// Open an RAII timer for `phase`; drop stops it and accumulates the
    /// elapsed nanoseconds.
    #[must_use]
    pub fn span(&self, phase: Phase) -> Span {
        Span {
            rec: self
                .inner
                .as_ref()
                .map(|i| (Arc::clone(i), phase, Instant::now())),
        }
    }

    /// Register pc → label names for process `proc`'s program (used by the
    /// hot-pc table; unlabelled pcs render as `pc<N>`).
    pub fn set_pc_labels(&self, proc: usize, labels: &[String]) {
        if let Some(inner) = &self.inner {
            let mut all = inner.pc_labels.lock().expect("unpoisoned");
            let p = proc.min(MAX_PROCS - 1);
            if all.len() <= p {
                all.resize(p + 1, Vec::new());
            }
            all[p] = labels.to_vec();
        }
    }

    /// The `k` hottest `(proc, pc, hits, label)` entries, hits descending.
    /// Hits approximate time-in-state: one hit per executed step that left
    /// the process at that pc.
    #[must_use]
    pub fn hot_pcs(&self, k: usize) -> Vec<(usize, u32, u64, Option<String>)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let labels = inner.pc_labels.lock().expect("unpoisoned");
        let mut all: Vec<(usize, u32, u64, Option<String>)> = Vec::new();
        for (p, row) in inner.hot_pc.iter().enumerate() {
            for (pc, cell) in row.iter().enumerate() {
                let hits = cell.load(Ordering::Relaxed);
                if hits > 0 {
                    let label = labels
                        .get(p)
                        .and_then(|ls| ls.get(pc))
                        .filter(|l| !l.is_empty())
                        .cloned();
                    #[allow(clippy::cast_possible_truncation)]
                    all.push((p, pc as u32, hits, label));
                }
            }
        }
        all.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    /// The hot-pc top-`k` as one compact JSONL field, e.g.
    /// `"p0@7:woo_wait=120;p1@3=88"`.
    #[must_use]
    pub fn hot_pc_field(&self, k: usize) -> String {
        self.hot_pcs(k)
            .into_iter()
            .map(|(p, pc, hits, label)| match label {
                Some(l) => format!("p{p}@{pc}:{l}={hits}"),
                None => format!("p{p}@{pc}={hits}"),
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Fold all shards (plus gauges) into one [`MetricsSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let mut total = MetricsSnapshot::default();
        for shard in &inner.shards {
            total.merge(&shard.snapshot());
        }
        for (dst, src) in total.gauges.iter_mut().zip(inner.gauges.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        total
    }

    /// Per-shard snapshots (gauges excluded — they are recorder-global).
    /// Folding these in any order with [`MetricsSnapshot::merge`] must
    /// reproduce [`snapshot`](Self::snapshot) minus gauges; the obs
    /// proptest suite checks exactly that.
    #[must_use]
    pub fn shard_snapshots(&self) -> Vec<MetricsSnapshot> {
        self.inner
            .as_ref()
            .map(|inner| inner.shards.iter().map(Shard::snapshot).collect())
            .unwrap_or_default()
    }

    /// Zero every counter, histogram, span, gauge, and hot-pc cell,
    /// keeping meta fields, the sink, and the event ring. Used by the
    /// parallel engine before its sequential fallback rerun so totals stay
    /// bit-identical with the other engines.
    pub fn reset_counts(&self) {
        if let Some(inner) = &self.inner {
            for shard in &inner.shards {
                shard.reset();
            }
            for g in &inner.gauges {
                g.store(0, Ordering::Relaxed);
            }
            for row in &inner.hot_pc {
                for cell in row {
                    cell.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Emit one event: rendered as a flat JSON line, pushed to the ring,
    /// streamed to the sink (if any). `kind` is the event discriminator.
    pub fn event(&self, kind: &str, fields: &[(&str, J)]) {
        let Some(inner) = &self.inner else { return };
        let line = self.render_event(inner, kind, fields);
        inner.ring.push(&line);
        if let Some(sink) = &inner.sink {
            sink.write_line(&line);
        }
    }

    fn render_event(&self, inner: &Inner, kind: &str, fields: &[(&str, J)]) -> String {
        #[allow(clippy::cast_possible_truncation)]
        let t_ms = J::U(inner.start.elapsed().as_millis() as u64);
        let kind_v = J::s(kind);
        let head = [("t_ms", &t_ms), ("kind", &kind_v)];
        let meta = inner.meta.iter().map(|(k, v)| (k.as_str(), v));
        let body = fields.iter().map(|(k, v)| (*k, v));
        encode_line(head, meta.chain(body).collect::<Vec<_>>())
    }

    /// Emit an `info` event and (unless quiet) mirror it to stderr. The
    /// one replacement for ad-hoc `eprintln!` progress lines.
    pub fn info(&self, msg: &str) {
        let Some(inner) = &self.inner else { return };
        self.event("info", &[("msg", J::s(msg))]);
        if !inner.quiet {
            eprintln!("[ftobs] {msg}");
        }
    }

    /// Emit a `snapshot` event carrying the full metrics rollup plus
    /// `extra` fields (e.g. the final verdict label). Also includes the
    /// hot-pc top-12 when non-empty.
    pub fn emit_snapshot(&self, extra: &[(&str, J)]) {
        if self.inner.is_none() {
            return;
        }
        let snap = self.snapshot();
        let mut fields: Vec<(String, J)> = snap.to_json_fields();
        let hot = self.hot_pc_field(12);
        if !hot.is_empty() {
            fields.push(("hot_pcs".to_string(), J::S(hot)));
        }
        let mut refs: Vec<(&str, J)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        refs.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
        self.event("snapshot", &refs);
    }

    /// Rate-limited heartbeat: at most one per configured interval, as a
    /// `heartbeat` event (and a stderr line unless quiet) with states/sec,
    /// frontier size, and budget consumption / ETA when a budget is set.
    /// Safe to call at very high frequency — the fast path is one load
    /// and a compare.
    pub fn maybe_heartbeat(&self, p: &Progress) {
        let Some(inner) = &self.inner else { return };
        if inner.heartbeat_ms == 0 {
            return;
        }
        #[allow(clippy::cast_possible_truncation)]
        let now_ms = inner.start.elapsed().as_millis() as u64;
        let last = inner.last_heartbeat_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < inner.heartbeat_ms {
            return;
        }
        if inner
            .last_heartbeat_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another thread just heartbeat
        }
        self.incr(Metric::Heartbeats);
        #[allow(clippy::cast_precision_loss)]
        let per_sec = if now_ms == 0 {
            0.0
        } else {
            p.states as f64 * 1000.0 / now_ms as f64
        };
        let mut fields = vec![
            ("elapsed_ms", J::U(now_ms)),
            ("states", J::U(p.states)),
            ("transitions", J::U(p.transitions)),
            ("frontier", J::U(p.frontier)),
            ("states_per_sec", J::F(per_sec)),
        ];
        let mut est_note = String::new();
        if let Some(est) = p.estimate {
            fields.push(("est_total_states", J::U(est.total_states)));
            fields.push(("est_remaining", J::U(est.remaining)));
            est_note = format!(" est {}≈{}", p.states, est.total_states);
            if per_sec > 0.0 {
                #[allow(clippy::cast_precision_loss)]
                let eta = est.remaining as f64 * 1000.0 / per_sec;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                fields.push(("eta_ms", J::U(eta.min(u64::MAX as f64) as u64)));
                est_note.push_str(&format!(" eta {:.1}s", eta / 1000.0));
            }
        }
        let mut budget_note = String::new();
        if let (Some(budget), Some(spent)) = (p.budget, p.spent) {
            let total_ms = budget.as_millis().max(1);
            #[allow(clippy::cast_precision_loss)]
            let used_pct = spent.as_millis() as f64 * 100.0 / total_ms as f64;
            let left = budget.saturating_sub(spent);
            #[allow(clippy::cast_possible_truncation)]
            fields.push(("budget_used_pct", J::F(used_pct)));
            #[allow(clippy::cast_possible_truncation)]
            fields.push(("budget_left_ms", J::U(left.as_millis() as u64)));
            budget_note = format!(
                " budget {used_pct:.0}% used, {:.1}s left",
                left.as_secs_f64()
            );
        }
        self.event("heartbeat", &fields);
        if !inner.quiet {
            eprintln!(
                "[ftobs] {:.1}s states={} ({per_sec:.0}/s) transitions={} \
                 frontier={}{est_note}{budget_note}",
                now_ms as f64 / 1000.0,
                p.states,
                p.transitions,
                p.frontier,
            );
        }
    }

    /// Whether causal trace spans are being recorded (requires an
    /// enabled recorder built with `.trace(true)` or `FT_OBS_TRACE=1`).
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace)
    }

    /// Allocate a fresh process-unique span id (strictly monotonic, so a
    /// parent id is always smaller than any child allocated after it).
    #[must_use]
    pub fn alloc_span_id(&self) -> SpanId {
        SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed))
    }

    /// Monotonic microseconds since this recorder was built (the `ts_us`
    /// clock of its trace spans).
    #[must_use]
    pub fn now_us(&self) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        let us = self
            .inner
            .as_ref()
            .map_or(0, |i| i.start.elapsed().as_micros() as u64);
        us
    }

    /// The current root span new engine-level spans should parent under
    /// ([`SpanId::NONE`] outside any enclosing span).
    #[must_use]
    pub fn trace_root(&self) -> SpanId {
        self.inner.as_ref().map_or(SpanId::NONE, |i| {
            SpanId(i.trace_root.load(Ordering::Relaxed))
        })
    }

    /// Set the root span for subsequently opened engine-level spans and
    /// return the previous root, so callers can restore it on exit.
    pub fn set_trace_root(&self, id: SpanId) -> SpanId {
        self.inner.as_ref().map_or(SpanId::NONE, |i| {
            SpanId(i.trace_root.swap(id.0, Ordering::Relaxed))
        })
    }

    /// Open a per-worker trace writer with the default buffer bound.
    #[must_use]
    pub fn trace_ctx(&self) -> TraceCtx {
        TraceCtx::new(self.clone(), DEFAULT_TRACE_BUF)
    }

    /// Render a span line (meta + timestamps included), or `None` when
    /// tracing is off.
    pub(crate) fn render_trace(&self, fields: &[(&str, J)]) -> Option<String> {
        let inner = self.inner.as_ref()?;
        if !inner.trace {
            return None;
        }
        Some(self.render_event(inner, "span", fields))
    }

    /// Drain a [`TraceCtx`] buffer into the sink, counting written spans
    /// (or drops, when no sink is attached).
    pub(crate) fn trace_flush(&self, lines: &mut Vec<String>) {
        if lines.is_empty() {
            return;
        }
        let Some(inner) = &self.inner else {
            lines.clear();
            return;
        };
        let n = lines.len() as u64;
        if let Some(sink) = &inner.sink {
            for line in lines.iter() {
                sink.write_line(line);
            }
            self.add(Metric::TraceSpans, n);
        } else {
            self.add(Metric::TraceDropped, n);
        }
        lines.clear();
    }

    /// The newest ring-buffered event lines, oldest first.
    #[must_use]
    pub fn recent_events(&self) -> Vec<String> {
        self.inner
            .as_ref()
            .map(|i| i.ring.drain_snapshot())
            .unwrap_or_default()
    }

    /// Flush the JSONL sink, if attached.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                sink.flush();
            }
        }
    }

    /// The sink path, if a sink is attached.
    #[must_use]
    pub fn sink_path(&self) -> Option<std::path::PathBuf> {
        self.inner
            .as_ref()
            .and_then(|i| i.sink.as_ref())
            .map(|s| s.path().to_path_buf())
    }
}

/// Engine-local batch of the checker-side counters, flushed into the
/// recorder in one shot when dropped (or via [`Tally::flush`]).
///
/// The exploration loops increment states/transitions/dedup/undo counters
/// — and, under a reduction, the sleep-hit and ample-decision counters —
/// on *every* edge; going through the sharded atomics each time costs a TLS
/// lookup plus a `lock`-prefixed RMW per counter, which is the bulk of
/// the enabled-recorder overhead the E13 budget caps. A `Tally` keeps
/// those counts in plain fields (and the frame-depth histogram in a plain
/// array) for the duration of one engine run — each parallel worker owns
/// its own — and folds them into the shards once at the end, which is
/// exactly the merge the proptest suite proves order-insensitive. Machine
/// -level step classes (reads/writes/fences/RMRs) still record live:
/// their per-process attribution and the buffer-depth histogram are
/// consumed mid-run by heartbeats and belong to `wbmem`, not the engines.
#[derive(Debug)]
pub struct Tally {
    rec: Recorder,
    states: u64,
    transitions: u64,
    terminal_states: u64,
    dedup_hits: u64,
    noop_steps: u64,
    undo_steps: u64,
    sleep_hits: u64,
    ample_applied: u64,
    ample_fallbacks: u64,
    max_depth: u64,
    frame_depth: [u64; HIST_BUCKETS],
}

impl Tally {
    /// Record a newly visited state at DFS depth `depth`.
    #[inline]
    pub fn on_state(&mut self, depth: u64) {
        self.states += 1;
        self.frame_depth[bucket_index(depth)] += 1;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }

    /// Record an executed transition.
    #[inline]
    pub fn on_transition(&mut self) {
        self.transitions += 1;
    }

    /// Record a transition into an already-visited state.
    #[inline]
    pub fn dedup_hit(&mut self) {
        self.dedup_hits += 1;
    }

    /// Record a scheduler choice that produced a no-op.
    #[inline]
    pub fn noop_step(&mut self) {
        self.noop_steps += 1;
    }

    /// Record one undone machine step.
    #[inline]
    pub fn undo_step(&mut self) {
        self.undo_steps += 1;
    }

    /// Record an all-done (terminal) state.
    #[inline]
    pub fn terminal_state(&mut self) {
        self.terminal_states += 1;
    }

    /// Record `n` edges pruned as redundant by the reduction.
    #[inline]
    pub fn sleep_hits(&mut self, n: u64) {
        self.sleep_hits += n;
    }

    /// Record one ample-set decision: the reduction `applied`, or fell
    /// back to the full enabled set.
    #[inline]
    pub fn ample(&mut self, applied: bool) {
        if applied {
            self.ample_applied += 1;
        } else {
            self.ample_fallbacks += 1;
        }
    }

    /// Fold the batched counts into the recorder and zero the batch.
    /// Dropping the tally does the same.
    pub fn flush(&mut self) {
        if let Some(inner) = &self.rec.inner {
            let shard = Recorder::shard(inner);
            for (m, v) in [
                (Metric::States, self.states),
                (Metric::Transitions, self.transitions),
                (Metric::TerminalStates, self.terminal_states),
                (Metric::DedupHits, self.dedup_hits),
                (Metric::NoopSteps, self.noop_steps),
                (Metric::UndoSteps, self.undo_steps),
                (Metric::SleepHits, self.sleep_hits),
                (Metric::AmpleApplied, self.ample_applied),
                (Metric::AmpleFallbacks, self.ample_fallbacks),
            ] {
                if v > 0 {
                    shard.counters[m as usize].fetch_add(v, Ordering::Relaxed);
                }
            }
            for (bucket, &count) in shard.frame_depth.iter().zip(self.frame_depth.iter()) {
                if count > 0 {
                    bucket.fetch_add(count, Ordering::Relaxed);
                }
            }
            if self.max_depth > 0 {
                bump_max(&inner.gauges[Gauge::MaxDepth as usize], self.max_depth);
            }
        }
        self.states = 0;
        self.transitions = 0;
        self.terminal_states = 0;
        self.dedup_hits = 0;
        self.noop_steps = 0;
        self.undo_steps = 0;
        self.sleep_hits = 0;
        self.ample_applied = 0;
        self.ample_fallbacks = 0;
        self.max_depth = 0;
        self.frame_depth = [0; HIST_BUCKETS];
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// RAII phase timer returned by [`Recorder::span`]; accumulates elapsed
/// nanoseconds into the recorder on drop.
#[derive(Debug)]
pub struct Span {
    rec: Option<(Arc<Inner>, Phase, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, phase, started)) = self.rec.take() {
            #[allow(clippy::cast_possible_truncation)]
            let ns = started.elapsed().as_nanos() as u64;
            let shard = Recorder::shard(&inner);
            shard.span_ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
            shard.span_count[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder — [`Recorder::disabled`] until
/// [`install_global`] runs. For call sites (like the lowerbound decoder)
/// where threading a recorder through `Copy` option structs is not
/// practical.
#[must_use]
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::disabled)
}

/// Install the process-wide recorder. Returns `false` (and changes
/// nothing) if one was already installed or read.
pub fn install_global(rec: Recorder) -> bool {
    GLOBAL.set(rec).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.incr(Metric::States);
        r.record_step(0, StepClass::Fence, Some(3));
        r.on_state(5);
        r.maybe_heartbeat(&Progress::default());
        drop(r.span(Phase::Explore));
        assert!(r.snapshot().is_empty());
        assert!(r.recent_events().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn step_classification_counts() {
        let r = Recorder::builder().heartbeat_ms(0).quiet(true).build();
        r.record_step(
            0,
            StepClass::Read {
                buffered: true,
                remote: false,
            },
            None,
        );
        r.record_step(
            1,
            StepClass::Read {
                buffered: false,
                remote: true,
            },
            None,
        );
        r.record_step(1, StepClass::Write { buffer_depth: 3 }, None);
        r.record_step(0, StepClass::Commit { remote: true }, None);
        r.record_step(0, StepClass::Fence, Some(7));
        r.record_step(1, StepClass::Crash, None);
        let s = r.snapshot();
        assert_eq!(s.get(Metric::Reads), 2);
        assert_eq!(s.get(Metric::BufferReads), 1);
        assert_eq!(s.get(Metric::Writes), 1);
        assert_eq!(s.get(Metric::Commits), 1);
        assert_eq!(s.get(Metric::Fences), 1);
        assert_eq!(s.get(Metric::Crashes), 1);
        assert_eq!(s.get(Metric::Rmrs), 2);
        assert_eq!(s.per_proc[0].fences, 1);
        assert_eq!(s.per_proc[0].rmrs, 1);
        assert_eq!(s.per_proc[1].rmrs, 1);
        assert_eq!(s.per_proc[1].crashes, 1);
        assert_eq!(s.gauge(Gauge::MaxBufferDepth), 3);
        assert_eq!(s.buffer_depth.total(), 1);
        let hot = r.hot_pcs(4);
        assert_eq!(hot, vec![(0, 7, 1, None)]);
    }

    #[test]
    fn shard_fold_matches_snapshot_counters() {
        let r = Recorder::builder().heartbeat_ms(0).quiet(true).build();
        for _ in 0..100 {
            r.on_transition();
        }
        r.on_state(2);
        let mut folded = MetricsSnapshot::default();
        for s in r.shard_snapshots() {
            folded.merge(&s);
        }
        assert_eq!(folded, r.snapshot(), "deterministic projection matches");
        assert_eq!(folded.transitions(), 100);
    }

    #[test]
    fn tally_batches_the_reduction_counters_until_flushed() {
        let r = Recorder::builder().heartbeat_ms(0).quiet(true).build();
        let mut t = r.tally();
        t.sleep_hits(3);
        t.sleep_hits(0);
        t.ample(true);
        t.ample(false);
        t.ample(false);
        assert!(r.snapshot().is_empty(), "nothing recorded before the flush");
        t.flush();
        t.sleep_hits(1);
        drop(t);
        let snap = r.snapshot();
        assert_eq!(snap.get(Metric::SleepHits), 4);
        assert_eq!(snap.get(Metric::AmpleApplied), 1);
        assert_eq!(snap.get(Metric::AmpleFallbacks), 2);
    }

    #[test]
    fn reset_zeroes_everything() {
        let r = Recorder::builder().heartbeat_ms(0).quiet(true).build();
        r.record_step(0, StepClass::Fence, Some(1));
        r.gauge_max(Gauge::MaxFrontier, 9);
        r.reset_counts();
        assert!(r.snapshot().is_empty());
        assert!(r.hot_pcs(4).is_empty());
    }

    #[test]
    fn events_reach_ring_with_meta() {
        let r = Recorder::builder()
            .meta("engine", "undo")
            .heartbeat_ms(0)
            .quiet(true)
            .build();
        r.event("probe", &[("n", J::U(3))]);
        let lines = r.recent_events();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"kind\":\"probe\""));
        assert!(lines[0].contains("\"engine\":\"undo\""));
        assert!(lines[0].contains("\"n\":3"));
    }

    #[test]
    fn spans_accumulate() {
        let r = Recorder::builder().heartbeat_ms(0).quiet(true).build();
        {
            let _s = r.span(Phase::Explore);
        }
        let s = r.snapshot();
        assert_eq!(s.span_count[Phase::Explore as usize], 1);
    }
}
