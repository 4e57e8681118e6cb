//! The [`Recorder`] — the summed counts of the checks attached to it,
//! the hot-pc table, heartbeats and the event stream to the optional
//! JSONL sink — and the [`Tally`] every check counts its own steps in.
//!
//! Counting needs no recorder: each walk counts into a [`Tally`] and
//! merges it into its check's totals when it ends; the totals become the
//! verdict's `Stats.metrics` and reach the recorder once, through
//! [`Recorder::record`]. Merging is associative and commutative (the
//! proptest suite checks it), so neither how the work was split nor the
//! merge order changes the totals, and a recorder shared by several
//! checks holds the sum of theirs. A **disabled** recorder (`inner ==
//! None`) returns from every method after one branch; an **enabled** one
//! costs only what it alone keeps: hot-pc hits, events and heartbeats.
//! Its own `incr`/`add` lock per call and are for cold sites outside a
//! check (a CEGAR iteration, a decision of `por::expand`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::events::{encode_line, JsonlSink, J};
use crate::metrics::{bucket_index, Gauge, Metric, MetricsSnapshot, ProcSteps, MAX_PROCS};

/// Highest pc tracked per process in the hot-pc table; larger pcs fold
/// into the last slot.
pub const MAX_PCS: usize = 256;

/// Heartbeat interval of a recorder built without
/// [`RecorderBuilder::heartbeat_ms`].
pub const DEFAULT_HEARTBEAT_MS: u64 = 1000;

/// Hits per program point, indexed `pc * MAX_PROCS + proc` and grown on
/// first touch: programs are short, so a table stays a few hundred slots
/// and an untouched one (a disabled recorder's tally) allocates nothing.
#[derive(Debug, Default)]
struct HotPcs(Vec<u64>);

impl HotPcs {
    #[inline]
    fn hit(&mut self, proc: usize, pc: u32, hits: u64) {
        let slot = (pc as usize).min(MAX_PCS - 1) * MAX_PROCS + proc.min(MAX_PROCS - 1);
        if self.0.len() <= slot {
            self.0.resize(slot + 1, 0);
        }
        self.0[slot] += hits;
    }

    fn merge(&mut self, other: &HotPcs) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// What every recorded tally, `incr`/`add` and heartbeat added up to.
    store: Mutex<Tally>,
    pc_labels: Mutex<Vec<Vec<String>>>,
    meta: Vec<(String, J)>,
    start: Instant,
    heartbeat_ms: u64,
    last_heartbeat_ms: AtomicU64,
    quiet: bool,
    sink: Option<Arc<JsonlSink>>,
}

/// Configures and builds an enabled [`Recorder`].
#[derive(Debug, Default)]
pub struct RecorderBuilder {
    meta: Vec<(String, J)>,
    sink: Option<Arc<JsonlSink>>,
    heartbeat_ms: Option<u64>,
    quiet: bool,
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
    /// Defaults to [`DEFAULT_HEARTBEAT_MS`].
    #[must_use]
    pub fn heartbeat_ms(mut self, ms: u64) -> Self {
        self.heartbeat_ms = Some(ms);
        self
    }

    /// Suppress stderr output (events still reach the sink). Off by
    /// default.
    #[must_use]
    pub fn quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// Build the enabled recorder.
    #[must_use]
    pub fn build(self) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                store: Mutex::default(),
                pc_labels: Mutex::new(Vec::new()),
                meta: self.meta,
                start: Instant::now(),
                heartbeat_ms: self.heartbeat_ms.unwrap_or(DEFAULT_HEARTBEAT_MS),
                last_heartbeat_ms: AtomicU64::new(0),
                quiet: self.quiet,
                sink: self.sink,
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
}

/// A metrics recorder handle. Cheap to clone (an `Arc` — or
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

    /// The store of an enabled recorder. Its holders only add and copy
    /// integers, which leaves it valid at every step: a poisoned lock
    /// still guards good data.
    fn store(inner: &Inner) -> MutexGuard<'_, Tally> {
        inner.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `delta` to a counter. Takes the store's lock: for cold call
    /// sites; a check counts into a [`Tally`].
    pub fn add(&self, m: Metric, delta: u64) {
        if let Some(inner) = &self.inner {
            Self::store(inner).totals.counters[m as usize] += delta;
        }
    }

    /// Increment a counter by one (see [`add`](Self::add)).
    pub fn incr(&self, m: Metric) {
        self.add(m, 1);
    }

    /// An empty [`Tally`] for a walk whose check reports to this
    /// recorder: it counts hot-pc hits too when the recorder is enabled.
    #[must_use]
    pub fn tally(&self) -> Tally {
        Tally {
            hot_pcs: self.is_enabled(),
            ..Tally::default()
        }
    }

    /// Add a check's totals: called once per check, before its closing
    /// [`emit_snapshot`](Self::emit_snapshot).
    pub fn record(&self, tally: &Tally) {
        if let Some(inner) = &self.inner {
            Self::store(inner).merge(tally);
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
        for (slot, &hits) in Self::store(inner).hot_pc.0.iter().enumerate() {
            if hits > 0 {
                let (pc, p) = (slot / MAX_PROCS, slot % MAX_PROCS);
                let label = labels
                    .get(p)
                    .and_then(|ls| ls.get(pc))
                    .filter(|l| !l.is_empty())
                    .cloned();
                #[allow(clippy::cast_possible_truncation)]
                all.push((p, pc as u32, hits, label));
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

    /// Everything counted so far (what every [`record`](Self::record)ed
    /// [`Tally`], every direct `incr`/`add` call and every heartbeat has
    /// added up to).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |inner| Self::store(inner).totals)
    }

    /// Emit one event: rendered as a flat JSON line and streamed to the
    /// sink (without one there is nowhere for it to go). `kind` is the
    /// event discriminator.
    pub fn event(&self, kind: &str, fields: &[(&str, J)]) {
        let Some(inner) = &self.inner else { return };
        if let Some(sink) = &inner.sink {
            sink.write_line(&self.render_event(inner, kind, fields));
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
    /// frontier size, and budget consumption / time left when a budget is set.
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
                 frontier={}{budget_note}",
                now_ms as f64 / 1000.0,
                p.states,
                p.transitions,
                p.frontier,
            );
        }
    }

    /// Flush the JSONL sink, if attached.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                sink.flush();
            }
        }
    }
}

/// A check's counts, or one walk's: a [`MetricsSnapshot`] in plain fields,
/// plus hot-pc hits when the tally was opened for an enabled recorder.
///
/// A walk counts every edge — states, transitions, dedup hits, undos,
/// reduction decisions, and the machine step itself (reads, writes,
/// fences β(E), crashes, …). None of that may cost an atomic or a lock,
/// so each walk — each task of each parallel worker — owns a tally.
#[derive(Debug, Default)]
pub struct Tally {
    totals: MetricsSnapshot,
    hot_pc: HotPcs,
    hot_pcs: bool,
}

impl Tally {
    /// Whether [`hot_pc`](Self::hot_pc) keeps its hits: only in a tally
    /// opened for an enabled recorder. Callers skip reading a step's pc
    /// back when not.
    #[inline]
    #[must_use]
    pub fn counts_hot_pcs(&self) -> bool {
        self.hot_pcs
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, m: Metric, delta: u64) {
        self.totals.counters[m as usize] += delta;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&mut self, m: Metric) {
        self.add(m, 1);
    }

    /// Update a `max`-merged gauge.
    #[inline]
    pub fn gauge_max(&mut self, g: Gauge, value: u64) {
        let slot = &mut self.totals.gauges[g as usize];
        *slot = (*slot).max(value);
    }

    /// Overwrite a gauge (an occupancy sampled when the walk ends).
    #[inline]
    pub fn gauge_set(&mut self, g: Gauge, value: u64) {
        self.totals.gauges[g as usize] = value;
    }

    /// Record a newly visited state at DFS depth `depth`.
    #[inline]
    pub fn on_state(&mut self, depth: u64) {
        self.incr(Metric::States);
        self.totals.frame_depth.buckets[bucket_index(depth)] += 1;
        self.gauge_max(Gauge::MaxDepth, depth);
    }

    /// Charge `steps` to process `proc` (processes beyond [`MAX_PROCS`]
    /// fold into the last per-process slot) and to the totals.
    #[inline]
    pub fn proc_steps(&mut self, proc: usize, steps: ProcSteps) {
        self.add(Metric::Fences, steps.fences);
        self.add(Metric::Crashes, steps.crashes);
        self.totals.per_proc[proc.min(MAX_PROCS - 1)].merge(&steps);
    }

    /// Record a write that left its process's buffer `depth` entries deep
    /// (`0` for an SC write, which commits at once).
    #[inline]
    pub fn on_write(&mut self, depth: u64) {
        self.incr(Metric::Writes);
        self.totals.buffer_depth.buckets[bucket_index(depth)] += 1;
        self.gauge_max(Gauge::MaxBufferDepth, depth);
    }

    /// Add `hits` to the hot-pc cell of process `proc` at `pc`, if this
    /// tally [counts hot pcs](Self::counts_hot_pcs).
    #[inline]
    pub fn hot_pc(&mut self, proc: usize, pc: u32, hits: u64) {
        if self.hot_pcs {
            self.hot_pc.hit(proc, pc, hits);
        }
    }

    /// Fold `other`'s counts into this tally.
    pub fn merge(&mut self, other: &Tally) {
        self.totals.merge(&other.totals);
        self.hot_pc.merge(&other.hot_pc);
    }

    /// The counts as a snapshot (hot-pc hits are the recorder's alone).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Recorder {
        Recorder::builder().heartbeat_ms(0).quiet(true).build()
    }

    const NONE: ProcSteps = ProcSteps {
        fences: 0,
        crashes: 0,
    };
    const FENCE: ProcSteps = ProcSteps { fences: 1, ..NONE };

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.incr(Metric::States);
        r.add(Metric::Heartbeats, 4);
        let mut t = r.tally();
        assert!(!t.counts_hot_pcs());
        t.proc_steps(0, FENCE);
        t.hot_pc(0, 3, 1);
        t.on_state(5);
        r.record(&t);
        r.maybe_heartbeat(&Progress::default());
        assert!(r.snapshot().is_empty());
        assert!(r.hot_pcs(4).is_empty());
        assert!(!r.is_enabled());
        let snap = t.snapshot();
        assert_eq!((snap.states(), snap.get(Metric::Fences)), (1, 1));
        assert_eq!(snap.gauge(Gauge::MaxDepth), 5);
    }

    #[test]
    fn step_classification_counts() {
        let r = quiet();
        let mut t = r.tally();
        assert!(t.counts_hot_pcs());
        // p0: a buffered read; p1: a read from memory.
        t.add(Metric::Reads, 2);
        t.incr(Metric::BufferReads);
        // p1 writes into a buffer now 3 deep; p0 commits.
        t.on_write(3);
        t.incr(Metric::Commits);
        // p0 fences and is left at pc 7; p1 crashes.
        t.proc_steps(0, FENCE);
        t.hot_pc(0, 7, 1);
        let crashes = 1;
        t.proc_steps(1, ProcSteps { crashes, ..NONE });
        r.record(&t);
        let s = r.snapshot();
        assert_eq!(s, t.snapshot());
        assert_eq!(s.get(Metric::Reads), 2);
        assert_eq!(s.get(Metric::BufferReads), 1);
        assert_eq!(s.get(Metric::Writes), 1);
        assert_eq!(s.get(Metric::Commits), 1);
        assert_eq!(s.get(Metric::Fences), 1);
        assert_eq!(s.get(Metric::Crashes), 1);
        assert_eq!(s.per_proc[0].fences, 1);
        assert_eq!(s.per_proc[1].crashes, 1);
        assert_eq!(s.gauge(Gauge::MaxBufferDepth), 3);
        assert_eq!(s.buffer_depth.total(), 1);
        let hot = r.hot_pcs(4);
        assert_eq!(hot, vec![(0, 7, 1, None)]);
    }

    #[test]
    fn shard_fold_matches_snapshot_counters() {
        // Counts split over several tallies (an empty one among them)
        // fold to what one tally would have held.
        let (mut split, mut one) = (Tally::default(), Tally::default());
        for chunk in [60, 0, 39, 1] {
            let mut t = Tally::default();
            for _ in 0..chunk {
                t.incr(Metric::Transitions);
                one.incr(Metric::Transitions);
            }
            split.merge(&t);
        }
        let mut t = Tally::default();
        t.on_state(2);
        split.merge(&t);
        one.on_state(2);
        let (folded, expect) = (split.snapshot(), one.snapshot());
        assert_eq!(folded, expect, "deterministic projection matches");
        assert_eq!(folded.frame_depth, expect.frame_depth);
        assert_eq!(folded.gauges, expect.gauges);
        assert_eq!(folded.transitions(), 100);
    }

    #[test]
    fn tally_batches_the_reduction_counters_until_flushed() {
        let r = quiet();
        let mut t = r.tally();
        t.add(Metric::SleepHits, 3);
        t.add(Metric::SleepHits, 0);
        t.incr(Metric::AmpleApplied);
        t.add(Metric::AmpleFallbacks, 2);
        t.hot_pc(0, 1, 1);
        assert!(r.snapshot().is_empty(), "nothing recorded before `record`");
        r.record(&t);
        let mut u = r.tally();
        u.incr(Metric::SleepHits);
        u.hot_pc(0, 1, 2);
        r.record(&u);
        let snap = r.snapshot();
        assert_eq!(snap.get(Metric::SleepHits), 4);
        assert_eq!(snap.get(Metric::AmpleApplied), 1);
        assert_eq!(snap.get(Metric::AmpleFallbacks), 2);
        assert_eq!(r.hot_pcs(4), vec![(0, 1, 3, None)]);
        assert_eq!(
            t.snapshot().get(Metric::SleepHits),
            3,
            "a tally keeps its own"
        );
    }

    #[test]
    fn events_reach_the_sink_with_meta() {
        let path = std::env::temp_dir().join(format!("ftobs_event_test_{}", std::process::id()));
        let sink = Arc::new(JsonlSink::append(&path).expect("open"));
        let r = Recorder::builder()
            .meta("engine", "undo")
            .heartbeat_ms(0)
            .quiet(true)
            .sink(sink)
            .build();
        r.event("probe", &[("n", J::U(3))]);
        drop(r);
        let text = std::fs::read_to_string(&path).expect("readable");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"kind\":\"probe\""));
        assert!(lines[0].contains("\"engine\":\"undo\""));
        assert!(lines[0].contains("\"n\":3"));
    }
}
