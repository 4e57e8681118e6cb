//! Differential observability: every exhaustive engine executes the same
//! edge multiset, so the deterministic part of its [`MetricsSnapshot`]
//! (states, transitions, per-step-class counts, per-process fence/crash
//! counts, dedup hits, buffer-depth histogram) must be **bit-identical**
//! across [`Engine::CloneDfs`], [`Engine::Undo`], [`Engine::Parallel`],
//! and [`Engine::Dpor`] in its `Some(u32::MAX)` disabled-reduction
//! diagnostic mode — on every cell of the n=2 lock × model matrix,
//! violating cells included.

use modelcheck::{check, CheckConfig, Engine, MetricsSnapshot, Recorder, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::MemoryModel;

fn engines() -> [Engine; 4] {
    [
        Engine::CloneDfs,
        Engine::Undo,
        Engine::Parallel { threads: 2 },
        Engine::Dpor {
            reorder_bound: Some(u32::MAX),
        },
    ]
}

/// The matrix cells: (lock, fences, models). Small enough to stay fast,
/// varied enough to cover ok, mutex-violating, and crashy searches.
fn matrix() -> Vec<(LockKind, FenceMask, &'static str)> {
    vec![
        (LockKind::Peterson, FenceMask::ALL, "peterson_all"),
        (
            LockKind::Peterson,
            FenceMask::only(&[simlocks::peterson::SITE_VICTIM]),
            "peterson_victim_only",
        ),
        (LockKind::Ttas, FenceMask::ALL, "ttas_all"),
        (LockKind::Filter, FenceMask::ALL, "filter_all"),
    ]
}

fn run(engine: Engine, kind: LockKind, mask: FenceMask, model: MemoryModel) -> (Verdict, Recorder) {
    let inst = build_mutex(kind, 2, mask);
    let rec = Recorder::enabled();
    let config = CheckConfig::default()
        .with_engine(engine)
        .with_recorder(rec.clone());
    (check(&inst.machine(model), &config), rec)
}

#[test]
fn all_engines_emit_bit_identical_metrics_on_the_n2_matrix() {
    for (kind, mask, name) in matrix() {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let mut baseline: Option<(Verdict, MetricsSnapshot)> = None;
            for engine in engines() {
                let (v, rec) = run(engine, kind, mask, model);
                let snap = rec.snapshot();
                assert!(
                    !snap.is_empty(),
                    "{name}/{model}/{}: recorder saw nothing",
                    engine.label()
                );
                assert_eq!(
                    snap.states(),
                    v.stats().states as u64,
                    "{name}/{model}/{}: metric states vs stats",
                    engine.label()
                );
                assert_eq!(
                    snap.transitions(),
                    v.stats().transitions as u64,
                    "{name}/{model}/{}: metric transitions vs stats",
                    engine.label()
                );
                // The final snapshot is also stamped into the verdict.
                assert_eq!(
                    v.stats().metrics,
                    snap,
                    "{name}/{model}/{}: stamped snapshot differs",
                    engine.label()
                );
                match &baseline {
                    None => baseline = Some((v, snap)),
                    Some((v0, snap0)) => {
                        assert_eq!(
                            v0.label(),
                            v.label(),
                            "{name}/{model}/{}: verdict drift",
                            engine.label()
                        );
                        assert_eq!(
                            *snap0,
                            snap,
                            "{name}/{model}/{}: metrics drift vs clone_dfs\n  \
                             clone_dfs: {:?}\n  this:      {:?}",
                            engine.label(),
                            snap0.deterministic_key(),
                            snap.deterministic_key()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn crash_workload_metrics_agree_and_count_crashes() {
    let engines = engines();
    let mut baseline: Option<MetricsSnapshot> = None;
    for engine in engines {
        let inst = build_mutex(LockKind::RecoverableTtas, 2, FenceMask::ALL);
        let rec = Recorder::enabled();
        let config = CheckConfig {
            check_termination: false,
            max_states: 200_000,
            ..CheckConfig::default()
        }
        .with_crashes(wbmem::CrashSemantics::DiscardBuffer, 1)
        .with_engine(engine)
        .with_recorder(rec.clone());
        let v = check(&inst.machine(MemoryModel::Pso), &config);
        assert!(v.is_ok(), "{}: {}", engine.label(), v.label());
        let snap = rec.snapshot();
        let crashes: u64 = snap.per_proc.iter().map(|p| p.crashes).sum();
        assert!(crashes > 0, "{}: no crash steps recorded", engine.label());
        match &baseline {
            None => baseline = Some(snap),
            Some(snap0) => assert_eq!(*snap0, snap, "{}: crash metrics drift", engine.label()),
        }
    }
}

#[test]
fn reduced_dpor_reports_fewer_transitions_than_its_diagnostic_mode() {
    let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let base = CheckConfig {
        check_termination: false, // enable ample pruning
        ..CheckConfig::default()
    };
    let rec_full = Recorder::enabled();
    let full = check(
        &inst.machine(MemoryModel::Pso),
        &base
            .clone()
            .with_engine(Engine::Dpor {
                reorder_bound: Some(u32::MAX),
            })
            .with_recorder(rec_full.clone()),
    );
    let rec_red = Recorder::enabled();
    let reduced = check(
        &inst.machine(MemoryModel::Pso),
        &base
            .with_engine(Engine::Dpor {
                reorder_bound: None,
            })
            .with_recorder(rec_red.clone()),
    );
    assert!(full.is_ok() && reduced.is_ok());
    let (f, r) = (rec_full.snapshot(), rec_red.snapshot());
    assert!(
        r.transitions() < f.transitions(),
        "reduction must shrink the edge count: {} vs {}",
        r.transitions(),
        f.transitions()
    );
    use ftobs::Metric;
    assert_eq!(f.get(Metric::SleepHits), 0, "diagnostic mode never sleeps");
    assert!(
        r.get(Metric::SleepHits) + r.get(Metric::AmpleApplied) > 0,
        "the reduced run must report reduction work"
    );
}

/// Counting needs no recorder: under `CheckConfig::default()` every engine
/// fills `Stats.metrics` with its own counts, and the exhaustive ones
/// agree bit for bit on the n = 2 matrix.
#[test]
fn every_engine_counts_without_a_recorder() {
    let reduced = [
        Engine::Dpor {
            reorder_bound: None,
        },
        Engine::ParallelDpor {
            threads: 2,
            reorder_bound: None,
        },
    ];
    for (kind, mask, name) in matrix() {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let m = build_mutex(kind, 2, mask).machine(model);
            let mut exhaustive = Vec::new();
            for (k, engine) in engines().into_iter().chain(reduced).enumerate() {
                let stats = check(&m, &CheckConfig::default().with_engine(engine)).stats();
                let counted = (stats.metrics.states(), stats.metrics.transitions());
                let tag = format!("{name}/{model}/{}", engine.label());
                assert_eq!(
                    counted,
                    (stats.states as u64, stats.transitions as u64),
                    "{tag}"
                );
                if k < engines().len() {
                    exhaustive.push(stats.metrics);
                }
            }
            let drift = exhaustive.windows(2).position(|w| w[0] != w[1]);
            assert_eq!(drift, None, "{name}/{model}: metrics drift");
        }
    }
}

/// A recorder attached to two checks holds the sum of their counts, and
/// neither check's `Stats.metrics` holds the other's: 383 states of a
/// fenced Peterson under `Undo`, then 505 of an unfenced one, which meets
/// a violation (under `Parallel`, `Undo`'s walk too).
#[test]
fn a_recorder_shared_by_two_checks_holds_the_sum_of_theirs() {
    let m = |mask| build_mutex(LockKind::Peterson, 2, mask).machine(MemoryModel::Pso);
    let unfenced = CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    };
    for engine in [Engine::Undo, Engine::Parallel { threads: 2 }] {
        let rec = Recorder::enabled();
        let fenced = CheckConfig::default().with_recorder(rec.clone());
        let first = check(&m(FenceMask::ALL), &fenced);
        let unfenced = unfenced
            .clone()
            .with_engine(engine)
            .with_recorder(rec.clone());
        let second = check(&m(FenceMask::NONE), &unfenced);
        assert!(first.is_ok() && second.is_violation(), "{}", second.label());
        let (a, b) = (first.stats(), second.stats());
        assert_eq!((a.states, b.states), (383, 505), "{engine:?}");
        assert_eq!(a.metrics.states(), 383, "{engine:?}");
        assert_eq!(b.metrics.states(), 505, "{engine:?}");
        assert_eq!(rec.snapshot().states(), 383 + 505, "{engine:?}");
    }
}
