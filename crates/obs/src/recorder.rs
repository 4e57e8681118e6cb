//! The [`Recorder`]: the summed counts of the checks attached to it.
//!
//! Counting needs no recorder: each walk counts into a
//! [`MetricsSnapshot`] of its own and merges it into its check's totals
//! when it ends; the totals become the verdict's `Stats.metrics` and
//! reach the recorder once, through [`Recorder::record`]. Merging is
//! associative and commutative (the proptest suite checks it), so neither
//! how the work was split nor the merge order changes the totals, and a
//! recorder shared by several checks holds the sum of theirs. A
//! **disabled** recorder (`inner == None`) returns from every method
//! after one branch. `incr`/`add` lock per call and are for cold sites
//! outside a check (a decision of `por::expand`).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::metrics::{Metric, MetricsSnapshot};

/// A metrics recorder handle. Cheap to clone (an `Arc` — or
/// nothing at all when disabled); all methods take `&self`.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<MetricsSnapshot>>>,
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

    /// A recorder that sums what is recorded into it.
    #[must_use]
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::default()),
        }
    }

    /// Whether this recorder actually records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The store of an enabled recorder. Its holders only add and copy
    /// integers, which leaves it valid at every step: a poisoned lock
    /// still guards good data.
    fn store(inner: &Mutex<MetricsSnapshot>) -> MutexGuard<'_, MetricsSnapshot> {
        inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Add `delta` to a counter. Takes the store's lock: for cold call
    /// sites; a check counts into a [`MetricsSnapshot`] of its own.
    pub fn add(&self, m: Metric, delta: u64) {
        if let Some(inner) = &self.inner {
            Self::store(inner).add(m, delta);
        }
    }

    /// Increment a counter by one (see [`add`](Self::add)).
    pub fn incr(&self, m: Metric) {
        self.add(m, 1);
    }

    /// Add a check's totals: called once per check.
    pub fn record(&self, counts: &MetricsSnapshot) {
        if let Some(inner) = &self.inner {
            Self::store(inner).merge(counts);
        }
    }

    /// Everything counted so far: what every [`record`](Self::record)ed
    /// snapshot and every direct `incr`/`add` call added up to.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |inner| *Self::store(inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Gauge, ProcSteps};

    const NONE: ProcSteps = ProcSteps {
        fences: 0,
        crashes: 0,
    };
    const FENCE: ProcSteps = ProcSteps { fences: 1, ..NONE };

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.incr(Metric::States);
        r.add(Metric::UndoSteps, 4);
        let mut t = MetricsSnapshot::default();
        t.proc_steps(0, FENCE);
        t.on_state(5);
        r.record(&t);
        assert!(r.snapshot().is_empty());
        assert!(!r.is_enabled());
        assert_eq!((t.states(), t.get(Metric::Fences)), (1, 1));
        assert_eq!(t.gauge(Gauge::MaxDepth), 5);
    }

    #[test]
    fn step_classification_counts() {
        let r = Recorder::enabled();
        let mut t = MetricsSnapshot::default();
        // p0: a buffered read; p1: a read from memory.
        t.add(Metric::Reads, 2);
        t.incr(Metric::BufferReads);
        // p1 writes into a buffer now 3 deep; p0 commits.
        t.on_write(3);
        t.incr(Metric::Commits);
        // p0 fences; p1 crashes.
        t.proc_steps(0, FENCE);
        let crashes = 1;
        t.proc_steps(1, ProcSteps { crashes, ..NONE });
        r.record(&t);
        let s = r.snapshot();
        assert_eq!(s, t);
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
    }

    #[test]
    fn shard_fold_matches_snapshot_counters() {
        // Counts split over several snapshots (an empty one among them)
        // fold to what one snapshot would have held.
        let (mut split, mut one) = (MetricsSnapshot::default(), MetricsSnapshot::default());
        for chunk in [60, 0, 39, 1] {
            let mut t = MetricsSnapshot::default();
            for _ in 0..chunk {
                t.incr(Metric::Transitions);
                one.incr(Metric::Transitions);
            }
            split.merge(&t);
        }
        let mut t = MetricsSnapshot::default();
        t.on_state(2);
        split.merge(&t);
        one.on_state(2);
        assert_eq!(split, one, "deterministic projection matches");
        assert_eq!(split.frame_depth, one.frame_depth);
        assert_eq!(split.gauges, one.gauges);
        assert_eq!(split.transitions(), 100);
    }

    #[test]
    fn tally_batches_the_reduction_counters_until_flushed() {
        let r = Recorder::enabled();
        let mut t = MetricsSnapshot::default();
        t.add(Metric::SleepHits, 3);
        t.add(Metric::SleepHits, 0);
        t.incr(Metric::AmpleApplied);
        t.add(Metric::AmpleFallbacks, 2);
        assert!(r.snapshot().is_empty(), "nothing recorded before `record`");
        r.record(&t);
        let mut u = MetricsSnapshot::default();
        u.incr(Metric::SleepHits);
        r.record(&u);
        r.incr(Metric::AmpleApplied);
        let snap = r.snapshot();
        assert_eq!(snap.get(Metric::SleepHits), 4);
        assert_eq!(snap.get(Metric::AmpleApplied), 2);
        assert_eq!(snap.get(Metric::AmpleFallbacks), 2);
        assert_eq!(t.get(Metric::SleepHits), 3, "a walk keeps its own");
    }
}
