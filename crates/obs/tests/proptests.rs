//! Property-based tests for the metrics algebra: snapshot merging must be
//! associative and commutative with [`MetricsSnapshot::default`] as the
//! identity (counters, per-process steps and histograms add; gauges max),
//! and counts batched in any number of tallies, flushed in any order, must
//! add up to what one tally holds, bit for bit. These are the laws that
//! make the totals of a multi-threaded exploration trustworthy.

use ftobs::{Gauge, Metric, MetricsSnapshot, ProcSteps, Recorder, Tally, HIST_BUCKETS, MAX_PROCS};
use proptest::prelude::*;

/// Flat slot count of one snapshot (counters + per-proc pairs + two
/// histograms + gauges).
const SLOTS: usize = Metric::COUNT + MAX_PROCS * 2 + 2 * HIST_BUCKETS + Gauge::COUNT;

fn snapshot_from_slots(slots: &[u64]) -> MetricsSnapshot {
    assert_eq!(slots.len(), SLOTS);
    let mut it = slots.iter().copied();
    let mut s = MetricsSnapshot::default();
    for c in &mut s.counters {
        *c = it.next().unwrap();
    }
    for p in &mut s.per_proc {
        *p = ProcSteps {
            fences: it.next().unwrap(),
            crashes: it.next().unwrap(),
        };
    }
    for b in &mut s.buffer_depth.buckets {
        *b = it.next().unwrap();
    }
    for b in &mut s.frame_depth.buckets {
        *b = it.next().unwrap();
    }
    for g in &mut s.gauges {
        *g = it.next().unwrap();
    }
    s
}

fn arb_snapshot() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..10_000, SLOTS..SLOTS + 1)
}

/// Every observable slot of the snapshot, flattened, so equality here is
/// *bit* equality, not the deterministic-projection `PartialEq`.
fn all_slots(s: &MetricsSnapshot) -> Vec<u64> {
    let mut out = Vec::with_capacity(SLOTS);
    out.extend_from_slice(&s.counters);
    for p in &s.per_proc {
        out.extend_from_slice(&[p.fences, p.crashes]);
    }
    out.extend_from_slice(&s.buffer_depth.buckets);
    out.extend_from_slice(&s.frame_depth.buckets);
    out.extend_from_slice(&s.gauges);
    out
}

proptest! {
    #[test]
    fn merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        let (a, b) = (snapshot_from_slots(&a), snapshot_from_slots(&b));
        prop_assert_eq!(all_slots(&a.merged(&b)), all_slots(&b.merged(&a)));
    }

    #[test]
    fn merge_is_associative(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        let (a, b, c) = (
            snapshot_from_slots(&a),
            snapshot_from_slots(&b),
            snapshot_from_slots(&c),
        );
        let left = a.merged(&b).merged(&c);
        let right = a.merged(&b.merged(&c));
        prop_assert_eq!(all_slots(&left), all_slots(&right));
    }

    #[test]
    fn default_is_the_merge_identity(a in arb_snapshot()) {
        let a = snapshot_from_slots(&a);
        let id = MetricsSnapshot::default();
        prop_assert_eq!(all_slots(&a.merged(&id)), all_slots(&a));
        prop_assert_eq!(all_slots(&id.merged(&a)), all_slots(&a));
    }

    /// The same operations split over k tallies on k threads, merged in
    /// any order, give the snapshot (and the hot-pc table) one tally gives.
    #[test]
    fn split_tallies_flushed_in_any_order_equal_one_tally(
        ops in prop::collection::vec((0usize..4, 0u64..7, 0u32..16), 1..200),
        k in 1usize..5,
        rotate in 0usize..4,
        reverse in any::<bool>(),
    ) {
        // One operation per mutator a walk uses, `pc` doubling as depth.
        let record = |t: &mut Tally, &(p, tag, pc): &(usize, u64, u32)| {
            let depth = u64::from(pc);
            match tag {
                0 => t.add(Metric::Reads, depth),
                1 => t.on_write(depth),
                2 => t.proc_steps(p, ProcSteps { fences: 1 + depth % 2, crashes: 0 }),
                3 => t.proc_steps(p, ProcSteps { fences: depth % 3, crashes: 1 }),
                4 => t.incr(Metric::Transitions),
                5 => t.on_state(depth),
                _ => {}
            }
            t.hot_pc(p, pc, 1 + depth % 2);
        };

        let whole = Recorder::builder().quiet(true).build();
        let mut one = whole.tally();
        ops.iter().for_each(|op| record(&mut one, op));
        prop_assert!(whole.snapshot().is_empty(), "a tally holds its counts until recorded");
        whole.record(&one);

        let split = Recorder::builder().quiet(true).build();
        let mut tallies: Vec<Tally> = std::thread::scope(|scope| {
            let handles: Vec<_> = ops
                .chunks(ops.len().div_ceil(k))
                .map(|chunk| {
                    let rec = split.clone();
                    scope.spawn(move || {
                        let mut t = rec.tally();
                        chunk.iter().for_each(|op| record(&mut t, op));
                        t
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        let n = tallies.len();
        tallies.rotate_left(rotate % n);
        if reverse {
            tallies.reverse();
        }
        let mut totals = split.tally();
        tallies.iter().for_each(|t| totals.merge(t));
        split.record(&totals);

        prop_assert_eq!(all_slots(&totals.snapshot()), all_slots(&one.snapshot()));
        prop_assert_eq!(all_slots(&split.snapshot()), all_slots(&whole.snapshot()));
        prop_assert_eq!(split.hot_pcs(usize::MAX), whole.hot_pcs(usize::MAX));
    }

    /// The equality projection ignores exactly the traversal-dependent
    /// slots: two snapshots that differ only in post-deterministic
    /// counters, frame depths, and gauges still compare equal.
    #[test]
    fn equality_ignores_nondeterministic_slots(a in arb_snapshot(), noise in 1u64..999) {
        let a = snapshot_from_slots(&a);
        let mut b = a;
        for i in Metric::DETERMINISTIC_END..Metric::COUNT {
            b.counters[i] += noise;
        }
        for bucket in &mut b.frame_depth.buckets {
            *bucket += noise;
        }
        for g in &mut b.gauges {
            *g += noise;
        }
        prop_assert_eq!(a, b);

        // ...but not in the deterministic ones.
        let mut c = a;
        c.counters[Metric::States as usize] += noise;
        prop_assert!(a != c);
        let mut d = a;
        d.per_proc[0].fences += noise;
        prop_assert!(a != d);
        let mut e = a;
        e.buffer_depth.buckets[0] += noise;
        prop_assert!(a != e);
    }
}
