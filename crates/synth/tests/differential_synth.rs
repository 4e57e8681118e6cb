//! Differential suite for synthesis soundness.
//!
//! Two properties anchor the subsystem:
//!
//! * **Soundness** — every synthesized placement verifies clean on the
//!   full n = 2 lock × model × crash matrix, under both of the kernel's
//!   walks (`Undo`, `Dpor`). Synthesis runs its inner checks with one
//!   engine; nothing about the placement may depend on which.
//! * **Minimality** — stripping any single synthesized fence reintroduces
//!   a violation under at least one of the synthesis models (the
//!   1-minimality the final minimize pass guarantees by construction).

use ftsynth::{synthesize, SynthConfig};
use modelcheck::{all_ok, check, check_under_models, CheckConfig, Engine};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::{CrashSemantics, MemoryModel};

const LOCKS: [LockKind; 3] = [LockKind::Bakery, LockKind::Peterson, LockKind::Tournament];

const MODELS: [MemoryModel; 3] = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];

fn engines() -> Vec<Engine> {
    vec![
        Engine::Undo,
        Engine::Dpor {
            reorder_bound: None,
        },
    ]
}

fn synth_cfg() -> SynthConfig {
    SynthConfig {
        models: vec![MemoryModel::Pso, MemoryModel::Tso],
        // The matrix re-verifies with crash injection; put crashes in the
        // synthesis loop too (clean at bound 1 implies clean at bound 0 —
        // crash steps are optional in the schedule space).
        max_crashes: 1,
        crash_semantics: CrashSemantics::DiscardBuffer,
        ..SynthConfig::default()
    }
}

/// Every synthesized n = 2 placement is clean on the full
/// engine × model × crash matrix.
#[test]
fn synthesized_placements_verify_on_matrix() {
    for kind in LOCKS {
        let input = build_mutex(kind, 2, FenceMask::ALL);
        let out = synthesize(&input, &synth_cfg());
        let s = out
            .synthesis()
            .unwrap_or_else(|| panic!("{}: synthesis failed: {out:?}", input.name));
        assert!(
            s.fences_inserted() >= 1,
            "{}: a write-buffer lock needs at least one fence",
            input.name
        );
        for engine in engines() {
            for model in MODELS {
                for crashes in [0, 1] {
                    let mut cfg = CheckConfig::default().with_engine(engine);
                    if crashes > 0 {
                        cfg = cfg.with_crashes(CrashSemantics::DiscardBuffer, crashes);
                    }
                    // Mutual exclusion is what synthesis guarantees; the
                    // termination check rides along like in the rest of
                    // the matrix suites.
                    let v = check(&s.instance.machine(model), &cfg);
                    assert!(
                        v.is_ok(),
                        "{}: synthesized placement failed under {engine:?}/{model}/crashes={crashes}: {}",
                        input.name,
                        v.label()
                    );
                }
            }
        }
    }
}

/// A recoverable lock synthesizes with crash faults in the loop, and the
/// placement holds under both crash semantics.
#[test]
fn recoverable_lock_synthesizes_under_crashes() {
    let input = build_mutex(LockKind::RecoverableTtas, 2, FenceMask::ALL);
    let cfg = SynthConfig {
        models: vec![MemoryModel::Pso, MemoryModel::Tso],
        max_crashes: 1,
        crash_semantics: CrashSemantics::DiscardBuffer,
        ..SynthConfig::default()
    };
    let out = synthesize(&input, &cfg);
    let s = out
        .synthesis()
        .unwrap_or_else(|| panic!("{}: synthesis failed: {out:?}", input.name));
    for engine in engines() {
        for model in MODELS {
            for semantics in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
                let check_cfg = CheckConfig::default()
                    .with_engine(engine)
                    .with_crashes(semantics, 1);
                let v = check(&s.instance.machine(model), &check_cfg);
                assert!(
                    v.is_ok(),
                    "{}: failed under {engine:?}/{model}/{semantics:?}: {}",
                    input.name,
                    v.label()
                );
            }
        }
    }
}

/// The baseline really is fence-free, and synthesis starts from it: the
/// stripped instance violates under PSO for every matrix lock.
#[test]
fn stripped_baselines_violate_under_pso() {
    for kind in LOCKS {
        let input = build_mutex(kind, 2, FenceMask::ALL);
        let baseline = ftsynth::strip_instance(&input);
        for p in &baseline.programs {
            assert_eq!(
                p.fence_site_count(),
                0,
                "{}: fences survived strip",
                p.name()
            );
        }
        let cfg = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: None,
        });
        let v = check(&baseline.machine(MemoryModel::Pso), &cfg);
        assert!(
            v.is_violation(),
            "{}: fence-free baseline should violate under PSO, got {}",
            input.name,
            v.label()
        );
    }
}

/// Minimality witness: strip any single synthesized fence and some
/// synthesis model violates again. Synthesis is deterministic, so each
/// lock is synthesized once.
#[test]
fn stripping_any_fence_reintroduces_violation() {
    for kind in LOCKS {
        let input = build_mutex(kind, 2, FenceMask::ALL);
        let cfg = synth_cfg();
        let out = synthesize(&input, &cfg);
        let s = out
            .synthesis()
            .unwrap_or_else(|| panic!("{}: synthesis failed: {out:?}", input.name));
        // Minimality is relative to the synthesis property set — the
        // re-check must match it (a fence can be load-bearing only under
        // crash schedules).
        let check_cfg = CheckConfig::default()
            .with_engine(Engine::Dpor {
                reorder_bound: None,
            })
            .with_crashes(cfg.crash_semantics, cfg.max_crashes);
        for site in s.sites() {
            let mut placement = s.placement.clone();
            placement[site.proc].retain(|&pc| pc != site.pc);
            let mut trial = s.baseline.clone();
            trial.programs = s
                .baseline
                .programs
                .iter()
                .enumerate()
                .map(|(p, prog)| {
                    std::sync::Arc::new(fencevm::insert_fences_after(prog, &placement[p]).program)
                })
                .collect();
            let vs = check_under_models(&trial, &cfg.models, &check_cfg, true);
            assert!(
                !all_ok(&vs),
                "{}: removing fence {site} left every model clean",
                input.name
            );
        }
    }
}
