//! Differential tests for durable checkpoint/resume.
//!
//! The contract under test: interrupting a run at a transition cut and
//! resuming from the resulting checkpoint must reach the **same verdict**
//! as the uninterrupted run —
//! on every lock × model × fence-mask × crash configuration, for all
//! three checkpointing engines. In the exhaustive modes (`Engine::Undo`,
//! diagnostic-bound DPOR) the combined run must additionally count the
//! exact same states/transitions and — because the global first-visit
//! table partitions the executed edge multiset between the interrupted
//! and resumed halves — merge to a **bit-identical** deterministic
//! metrics snapshot.
//!
//! Torn, corrupt, or mismatched checkpoints must surface as the typed
//! [`CheckError::Checkpoint`] — never a panic, and never a silent fresh
//! start — and so must a checkpoint policy on a termination-checking run,
//! whose graph no snapshot holds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use modelcheck::{check, resume, CheckConfig, CheckError, CheckpointPolicy, Engine, Verdict};
use proptest::prelude::*;
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::{CrashSemantics, MemoryModel};

static NEXT_CKPT: AtomicUsize = AtomicUsize::new(0);

/// A unique checkpoint path under a per-process temp directory (tests in
/// this binary run concurrently).
fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ft_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{tag}_{}.ckpt",
        NEXT_CKPT.fetch_add(1, Ordering::Relaxed)
    ))
}

const MODELS: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

/// The configuration every checkpointing run here starts from: the
/// default one without the termination check, which refuses a policy.
fn base() -> CheckConfig {
    CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    }
}

/// Does this engine execute the full edge multiset (no ample pruning),
/// making combined state/transition counts exactly comparable?
fn is_exhaustive(engine: &Engine) -> bool {
    match engine {
        Engine::Undo | Engine::Parallel { .. } => true,
        Engine::Dpor { reorder_bound } | Engine::ParallelDpor { reorder_bound, .. } => {
            *reorder_bound == Some(u32::MAX)
        }
        _ => false,
    }
}

/// Run `config` uninterrupted, then again with a transition cut at
/// roughly half the total, resume from the checkpoint, and require the
/// combined verdict to match. Returns whether the cell was violating.
fn compare_resumed(
    inst: &simlocks::OrderingInstance,
    model: MemoryModel,
    config: &CheckConfig,
    tag: &str,
) -> bool {
    let fresh = check(&inst.machine(model), config);
    assert!(
        fresh.coverage().is_none(),
        "{tag}: uninterrupted reference run must complete"
    );
    let cut = (fresh.stats().transitions as u64 / 2).max(1);
    let path = ckpt_path(tag);
    let stopped = check(
        &inst.machine(model),
        &config
            .clone()
            .with_checkpoint(CheckpointPolicy::at(&path).stop_after(cut)),
    );
    let ctx = format!("{tag} {} {model}", inst.name);
    match stopped {
        Verdict::Inconclusive(_, cov) => {
            let cp = cov
                .checkpoint
                .unwrap_or_else(|| panic!("{ctx}: stop must write a checkpoint"));
            let resumed = resume(&inst.machine(model), config, &cp);
            assert_eq!(
                fresh.label(),
                resumed.label(),
                "{ctx}: resumed verdict diverges from uninterrupted run"
            );
            if is_exhaustive(&config.engine) && fresh.is_ok() {
                assert_eq!(
                    fresh.stats().states,
                    resumed.stats().states,
                    "{ctx}: combined state count"
                );
                assert_eq!(
                    fresh.stats().transitions,
                    resumed.stats().transitions,
                    "{ctx}: combined transition count"
                );
                assert_eq!(
                    fresh.stats().terminal_states,
                    resumed.stats().terminal_states,
                    "{ctx}: combined terminal count"
                );
            }
            let _ = std::fs::remove_file(&cp);
        }
        other => {
            // The cut landed after the last expansion (only frame pops
            // remained), or a parallel worker raced to the verdict
            // first; either way the verdict must already agree.
            assert_eq!(
                fresh.label(),
                other.label(),
                "{ctx}: run that beat its cut must agree"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
    fresh.is_violation()
}

const LOCKS: [LockKind; 3] = [LockKind::Peterson, LockKind::Ttas, LockKind::Bakery];

/// The three checkpointing engines the matrix runs, with their tags.
const ENGINES: [(Engine, &str); 3] = [
    (Engine::Undo, "undo"),
    (
        Engine::Dpor {
            reorder_bound: None,
        },
        "dpor",
    ),
    (
        Engine::ParallelDpor {
            threads: 2,
            reorder_bound: None,
        },
        "pardpor",
    ),
];

/// One n = 2 configuration: lock, fence mask, model and crash budget.
type Config = (LockKind, FenceMask, MemoryModel, u32);

/// Every lock with the masks `masks` gives for its number of fence
/// sites, crossed with `models` and a crash budget of 0 and 1.
fn n2_configs(masks: impl Fn(u32) -> Vec<FenceMask>, models: &[MemoryModel]) -> Vec<Config> {
    let mut configs = Vec::new();
    for kind in LOCKS {
        for mask in masks(build_mutex(kind, 2, FenceMask::ALL).fence_sites) {
            for &model in models {
                for max_crashes in [0u32, 1] {
                    configs.push((kind, mask, model, max_crashes));
                }
            }
        }
    }
    configs
}

/// The tier-1 sample of the matrix: every lock with every fence and with
/// none, under PSO and TSO, with and without a crash budget.
fn n2_sample() -> Vec<Config> {
    n2_configs(
        |_| vec![FenceMask::ALL, FenceMask::NONE],
        &[MemoryModel::Pso, MemoryModel::Tso],
    )
}

/// Resume `engine` across `configs`; returns how many were violating.
fn resumes_across(engine: Engine, tag: &str, configs: &[Config]) -> usize {
    let base = CheckConfig {
        max_states: 1_000_000,
        ..base()
    }
    .with_engine(engine);
    configs
        .iter()
        .filter(|&&(kind, mask, model, max_crashes)| {
            let config = base
                .clone()
                .with_crashes(CrashSemantics::DiscardBuffer, max_crashes);
            compare_resumed(&build_mutex(kind, 2, mask), model, &config, tag)
        })
        .count()
}

/// One engine over the tier-1 sample, which must include violating
/// configurations.
fn sample_for((engine, tag): (Engine, &str)) {
    let violations = resumes_across(engine, tag, &n2_sample());
    assert!(violations > 0, "{tag}: sample includes violating configs");
}

#[test]
fn undo_resumes_across_an_n2_sample() {
    sample_for(ENGINES[0]);
}

#[test]
fn dpor_resumes_across_an_n2_sample() {
    sample_for(ENGINES[1]);
}

#[test]
fn pardpor_resumes_across_an_n2_sample() {
    sample_for(ENGINES[2]);
}

/// Every engine over the full n = 2 safety matrix: every fence mask of
/// every lock under every model, with and without a crash budget.
#[test]
#[ignore = "the full matrix for three engines: over a minute in debug; CI runs it with --ignored"]
fn every_engine_resumes_across_the_full_n2_matrix() {
    let configs = n2_configs(FenceMask::enumerate, &MODELS);
    assert!(configs.len() >= 150, "matrix ({} configs)", configs.len());
    for (engine, tag) in ENGINES {
        let violations = resumes_across(engine, tag, &configs);
        assert!(
            violations >= 20,
            "{tag}: matrix includes violating configs ({violations})"
        );
    }
}

/// Exhaustive modes promise more than verdict equality: the interrupted
/// and resumed halves partition the executed edge multiset, so merging
/// their metrics snapshots reproduces the uninterrupted run's snapshot
/// bit for bit (deterministic projection).
#[test]
fn diagnostic_merged_metrics_are_bit_identical() {
    let engines = [
        Engine::Undo,
        Engine::Dpor {
            reorder_bound: Some(u32::MAX),
        },
        Engine::ParallelDpor {
            threads: 2,
            reorder_bound: Some(u32::MAX),
        },
        Engine::Parallel { threads: 2 },
    ];
    for (kind, mask, model) in [
        (LockKind::Peterson, FenceMask::ALL, MemoryModel::Tso),
        (
            LockKind::Peterson,
            FenceMask::only(&[simlocks::peterson::SITE_VICTIM]),
            MemoryModel::Pso,
        ),
        (LockKind::Ttas, FenceMask::ALL, MemoryModel::Pso),
    ] {
        let inst = build_mutex(kind, 2, mask);
        for engine in engines {
            let tag = format!("metrics_{}", engine.label());
            let config = base().with_engine(engine);
            let fresh = check(&inst.machine(model), &config);
            let cut = (fresh.stats().transitions as u64 / 2).max(1);
            let path = ckpt_path(&tag);
            let stopped = check(
                &inst.machine(model),
                &config
                    .clone()
                    .with_checkpoint(CheckpointPolicy::at(&path).stop_after(cut)),
            );
            let Verdict::Inconclusive(_, cov) = &stopped else {
                // Violating cells stop at the violation either way.
                assert_eq!(fresh.label(), stopped.label(), "{tag}: verdicts");
                continue;
            };
            let cp = cov.checkpoint.clone().expect("checkpoint written");
            let resumed = resume(&inst.machine(model), &config, &cp);
            assert_eq!(fresh.label(), resumed.label(), "{tag}: verdicts");
            if fresh.is_ok() {
                assert_eq!(
                    fresh.stats().metrics,
                    resumed.stats().metrics,
                    "{tag} {model}: merged snapshot must be bit-identical\n  fresh:  {:?}\n  merged: {:?}",
                    fresh.stats().metrics.deterministic_key(),
                    resumed.stats().metrics.deterministic_key()
                );
            }
            let _ = std::fs::remove_file(&cp);
        }
    }
}

/// `Engine::Parallel` used to ignore the checkpoint policy and was
/// refused by `resume`. On the shared coordinator it stops, snapshots
/// and resumes like every other kernel engine: interrupted + resumed
/// equals the uninterrupted `Engine::Undo` run in statistics and
/// deterministic metrics, and an expired budget is inconclusive.
/// The oracle keeps its typed refusal.
///
/// The cut is at one transition. A parallel worker reads the cut and
/// syncs its transitions only when it polls, every 256 iterations, so a
/// cut deeper in the walk may fire late or not at all. At one
/// transition the worker holding the root fires it at its first poll,
/// before it has donated anything, and 256 iterations leave states of
/// both cells unclaimed.
#[test]
fn parallel_checkpoints_and_resumes_like_undo() {
    let parallel = base().with_engine(Engine::Parallel { threads: 2 });
    for (kind, n, model) in [
        (LockKind::Peterson, 2, MemoryModel::Pso),
        (LockKind::Ttas, 3, MemoryModel::Pso),
    ] {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        let m = inst.machine(model);
        let undo = check(&m, &base().with_engine(Engine::Undo));
        assert!(undo.is_ok(), "{kind}: reference cell is correct");
        let path = ckpt_path("parallel");
        let stopped = check(
            &m,
            &parallel
                .clone()
                .with_checkpoint(CheckpointPolicy::at(&path).stop_after(1)),
        );
        let cov = stopped.coverage().expect("the cut stops the sweep");
        assert!(stopped.stats().states < undo.stats().states, "{kind}: cut");
        let cp = cov.checkpoint.expect("and writes a checkpoint");
        let resumed = resume(&m, &parallel, &cp);
        assert!(resumed.is_ok(), "{kind}: {}", resumed.label());
        assert_eq!(undo.stats(), resumed.stats(), "{kind}: stats + metrics");
        let _ = std::fs::remove_file(&cp);
    }

    let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
    let m = inst.machine(MemoryModel::Pso);
    let expired = check(&m, &parallel.clone().with_budget(std::time::Duration::ZERO));
    assert!(expired.coverage().is_some(), "zero budget is inconclusive");

    let (inst, config, cp) = checkpoint_fixture("oracle");
    let oracle = config.with_engine(Engine::CloneDfs);
    match resume(&inst.machine(MemoryModel::Pso), &oracle, &cp) {
        Verdict::Error(_, CheckError::Checkpoint(msg)) => {
            assert!(msg.contains("engine"), "typed refusal: {msg}");
        }
        other => panic!("expected a typed checkpoint error, got {}", other.label()),
    }
    let _ = std::fs::remove_file(&cp);
}

/// Repeatedly interrupting every few hundred transitions and resuming
/// each time must still converge to the uninterrupted verdict, with the
/// chained checkpoints folding prior totals in correctly.
#[test]
fn chained_interrupts_converge() {
    let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let config = base().with_engine(Engine::Undo);
    let fresh = check(&inst.machine(MemoryModel::Pso), &config);
    let path = ckpt_path("chain");
    let policy = CheckpointPolicy::at(&path).stop_after(300);
    let mut verdict = check(
        &inst.machine(MemoryModel::Pso),
        &config.clone().with_checkpoint(policy.clone()),
    );
    let mut hops = 0usize;
    while let Verdict::Inconclusive(_, cov) = &verdict {
        let cp = cov.checkpoint.clone().expect("checkpoint written");
        verdict = resume(
            &inst.machine(MemoryModel::Pso),
            &config.clone().with_checkpoint(policy.clone()),
            &cp,
        );
        hops += 1;
        assert!(hops < 500, "resume chain must converge");
    }
    assert!(hops >= 2, "the cut actually fired repeatedly ({hops} hops)");
    assert_eq!(fresh.label(), verdict.label());
    assert_eq!(fresh.stats().states, verdict.stats().states);
    assert_eq!(fresh.stats().transitions, verdict.stats().transitions);
    let _ = std::fs::remove_file(&path);
}

/// A cut the run never reaches must not write a checkpoint — the verdict
/// completes normally.
#[test]
fn unreached_cut_writes_no_checkpoint() {
    let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let path = ckpt_path("unreached");
    let verdict = check(
        &inst.machine(MemoryModel::Tso),
        &base()
            .with_engine(Engine::Undo)
            .with_checkpoint(CheckpointPolicy::at(&path).stop_after(u64::MAX / 2)),
    );
    assert!(verdict.is_ok());
    assert!(!path.exists(), "no stop, no snapshot");
}

// --- corrupt / mismatched checkpoints ---

/// Produce a real checkpoint to corrupt, together with the config that
/// wrote it.
fn checkpoint_fixture(tag: &str) -> (simlocks::OrderingInstance, CheckConfig, PathBuf) {
    let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let config = base().with_engine(Engine::Undo);
    let path = ckpt_path(tag);
    let stopped = check(
        &inst.machine(MemoryModel::Pso),
        &config
            .clone()
            .with_checkpoint(CheckpointPolicy::at(&path).stop_after(100)),
    );
    let cp = stopped
        .coverage()
        .expect("cut fires well before the ~1e3-transition sweep ends")
        .checkpoint
        .expect("checkpoint written");
    (inst, config, cp)
}

/// Every corruption and mismatch must come back as the typed
/// `CheckError::Checkpoint` — no panic, no silent fresh start.
fn assert_rejected(v: Verdict, what: &str) {
    match v {
        Verdict::Error(_, CheckError::Checkpoint(msg)) => {
            assert!(!msg.is_empty(), "{what}: diagnostic message present");
        }
        other => panic!(
            "{what}: expected a typed checkpoint error, got {}",
            other.label()
        ),
    }
}

#[test]
fn torn_and_corrupt_checkpoints_are_rejected() {
    let (inst, config, cp) = checkpoint_fixture("corrupt");
    let bytes = std::fs::read(&cp).expect("checkpoint readable");
    assert!(bytes.len() > 64, "snapshot has real content");
    let m = &inst.machine(MemoryModel::Pso);

    // Truncated mid-stream (torn write simulacrum).
    let torn = ckpt_path("torn");
    std::fs::write(&torn, &bytes[..bytes.len() - 7]).unwrap();
    assert_rejected(resume(m, &config, &torn), "truncated");

    // One flipped payload byte must fail the checksum.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let flip = ckpt_path("flip");
    std::fs::write(&flip, &flipped).unwrap();
    assert_rejected(resume(m, &config, &flip), "flipped byte");

    // Wrong magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    let magic = ckpt_path("magic");
    std::fs::write(&magic, &bad_magic).unwrap();
    assert_rejected(resume(m, &config, &magic), "bad magic");

    // Unknown format version (byte right after the 6-byte magic).
    let mut bad_ver = bytes.clone();
    bad_ver[6] = 0xEE;
    let ver = ckpt_path("version");
    std::fs::write(&ver, &bad_ver).unwrap();
    assert_rejected(resume(m, &config, &ver), "bad version");

    // Empty and missing files.
    let empty = ckpt_path("empty");
    std::fs::write(&empty, b"").unwrap();
    assert_rejected(resume(m, &config, &empty), "empty");
    assert_rejected(resume(m, &config, &ckpt_path("missing")), "missing file");

    let _ = std::fs::remove_file(&cp);
}

#[test]
fn mismatched_runs_are_rejected() {
    let (inst, config, cp) = checkpoint_fixture("mismatch");
    let m = &inst.machine(MemoryModel::Pso);

    // Same engine, different properties/bounds → config hash mismatch.
    assert_rejected(
        resume(
            m,
            &config
                .clone()
                .with_crashes(CrashSemantics::DiscardBuffer, 1),
            &cp,
        ),
        "config mismatch",
    );

    // Different engine.
    assert_rejected(
        resume(
            m,
            &config.clone().with_engine(Engine::Dpor {
                reorder_bound: None,
            }),
            &cp,
        ),
        "engine mismatch",
    );

    // Same config, different program: the fence mask changes the
    // program text and hence the initial-state fingerprint.
    let other = build_mutex(LockKind::Peterson, 2, FenceMask::NONE);
    assert_rejected(
        resume(&other.machine(MemoryModel::Pso), &config, &cp),
        "program mismatch",
    );

    // Same program under a different model is a different state space.
    assert_rejected(
        resume(&inst.machine(MemoryModel::Tso), &config, &cp),
        "model mismatch",
    );

    let _ = std::fs::remove_file(&cp);
}

/// A snapshot holds no termination graph: every engine refuses a
/// checkpoint policy on a termination-checking run, in `check` and in
/// `resume`, with a typed error naming both settings and before it
/// explores a state.
#[test]
fn every_engine_refuses_a_checkpointed_termination_check() {
    let (inst, config, cp) = checkpoint_fixture("term");
    let m = &inst.machine(MemoryModel::Pso);
    let engines = [
        Engine::CloneDfs,
        Engine::Undo,
        Engine::Parallel { threads: 2 },
        Engine::Dpor {
            reorder_bound: None,
        },
        Engine::ParallelDpor {
            threads: 2,
            reorder_bound: None,
        },
    ];
    for engine in engines {
        let path = ckpt_path("term_refused");
        let refused = CheckConfig {
            check_termination: true,
            ..config.clone()
        }
        .with_engine(engine)
        .with_checkpoint(CheckpointPolicy::at(&path).stop_after(1));
        for (call, verdict) in [
            ("check", check(m, &refused)),
            ("resume", resume(m, &refused, &cp)),
        ] {
            let ctx = format!("{} {call}", engine.label());
            match verdict {
                Verdict::Error(stats, CheckError::Checkpoint(msg)) => {
                    assert_eq!(stats.states, 0, "{ctx}: explored before refusing");
                    assert!(
                        msg.contains("checkpoint policy") && msg.contains("check_termination"),
                        "{ctx}: the refusal names both settings: {msg}"
                    );
                }
                other => panic!("{ctx}: expected a refusal, got {}", other.label()),
            }
        }
        assert!(!path.exists(), "{}: no snapshot written", engine.label());
    }
    let _ = std::fs::remove_file(&cp);
}

// --- random cut points ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interrupting at an arbitrary transition count and resuming agrees
    /// with the uninterrupted run — ok and violating cells alike, for
    /// the undo and DPOR engines.
    #[test]
    fn resume_agrees_at_random_cut_points(
        cut in 1u64..2_000,
        model_ix in 0..MODELS.len(),
        engine_ix in 0usize..2,
        violating in any::<bool>(),
    ) {
        let engine = if engine_ix == 0 {
            Engine::Undo
        } else {
            Engine::Dpor { reorder_bound: None }
        };
        let mask = if violating {
            FenceMask::only(&[simlocks::peterson::SITE_VICTIM])
        } else {
            FenceMask::ALL
        };
        let inst = build_mutex(LockKind::Peterson, 2, mask);
        let model = MODELS[model_ix];
        let config = base().with_engine(engine);
        let fresh = check(&inst.machine(model), &config);
        let path = ckpt_path("prop");
        let stopped = check(
            &inst.machine(model),
            &config
                .clone()
                .with_checkpoint(CheckpointPolicy::at(&path).stop_after(cut)),
        );
        match stopped {
            Verdict::Inconclusive(_, cov) => {
                let cp = cov.checkpoint.expect("checkpoint written");
                let resumed = resume(&inst.machine(model), &config, &cp);
                prop_assert_eq!(fresh.label(), resumed.label());
                if is_exhaustive(&config.engine) && fresh.is_ok() {
                    prop_assert_eq!(fresh.stats().states, resumed.stats().states);
                    prop_assert_eq!(
                        fresh.stats().transitions,
                        resumed.stats().transitions
                    );
                }
                let _ = std::fs::remove_file(&cp);
            }
            other => {
                prop_assert_eq!(fresh.label(), other.label());
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}
