//! Differential test for the three exploration engines.
//!
//! For every seed lock × memory-model configuration at `n = 2, 3`, the
//! clone-based DFS (the original engine, kept as oracle), the undo-log DFS,
//! and the parallel sweep must produce **identical** `Stats.states` /
//! `Stats.transitions` / `Stats.terminal_states` and identical verdict
//! labels; violation counterexamples must carry the *same* schedule, and
//! that schedule must replay on a fresh machine to an actual two-in-CS
//! state (for mutex violations) without ever hitting a no-op element.

use modelcheck::{check, CheckConfig, Engine, Verdict};
use proptest::prelude::*;
use simlocks::{build_mutex, FenceMask, LockKind, ANNOT_IN_CS};
use wbmem::{CrashSemantics, MemoryModel, ProcId, StepOutcome};

fn kinds_for(n: usize) -> Vec<LockKind> {
    let mut kinds = vec![
        LockKind::Bakery,
        LockKind::BakeryPaperListing,
        LockKind::Gt { f: 2 },
        LockKind::Ttas,
        LockKind::Mcs,
        LockKind::Filter,
    ];
    if n == 2 {
        kinds.push(LockKind::Peterson);
    }
    if n.is_power_of_two() && n >= 2 {
        kinds.push(LockKind::Tournament);
    }
    kinds
}

fn engines() -> [Engine; 3] {
    [
        Engine::CloneDfs,
        Engine::Undo,
        Engine::Parallel { threads: 4 },
    ]
}

/// Replay a counterexample schedule on a fresh machine; every element must
/// take a real step, and the final state must witness the violation.
fn assert_mutex_cex_replays(
    inst: &simlocks::OrderingInstance,
    model: MemoryModel,
    n: usize,
    cex: &modelcheck::Counterexample,
) {
    let mut m = inst.machine(model);
    for (i, &elem) in cex.schedule.iter().enumerate() {
        let out = m.step(elem);
        assert!(
            !matches!(out, StepOutcome::NoOp),
            "{}/{model}: counterexample step {i} ({elem:?}) was a no-op",
            inst.name
        );
    }
    let in_cs = (0..n)
        .filter(|&i| m.annotation(ProcId::from(i)) == ANNOT_IN_CS)
        .count();
    assert!(
        in_cs >= 2,
        "{}/{model}: replayed counterexample ends with {in_cs} processes in CS",
        inst.name
    );
}

#[test]
fn engines_agree_on_every_seed_config() {
    let models = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
    // Cap the space so the heaviest configs (n = 3 under PSO) stay cheap:
    // an equal `StateLimit` on every engine is still a differential check.
    let base = CheckConfig {
        check_termination: false,
        max_states: 20_000,
        ..CheckConfig::default()
    };

    let mut configs = 0usize;
    let mut violations = 0usize;
    for n in [2usize, 3] {
        for kind in kinds_for(n) {
            let inst = build_mutex(kind, n, FenceMask::ALL);
            for model in models {
                let verdicts: Vec<Verdict> = engines()
                    .iter()
                    .map(|&engine| check(&inst.machine(model), &base.clone().with_engine(engine)))
                    .collect();

                let ctx = format!("{} n={n} {model}", inst.name);
                assert_eq!(
                    verdicts[0].label(),
                    verdicts[1].label(),
                    "{ctx}: clone vs undo label"
                );
                assert_eq!(
                    verdicts[0].label(),
                    verdicts[2].label(),
                    "{ctx}: clone vs parallel label"
                );
                // `Stats` equality ignores `elapsed`, so this is exactly
                // states + transitions + terminal_states, bit-identical.
                assert_eq!(
                    verdicts[0].stats(),
                    verdicts[1].stats(),
                    "{ctx}: clone vs undo stats"
                );
                assert_eq!(
                    verdicts[0].stats(),
                    verdicts[2].stats(),
                    "{ctx}: clone vs parallel stats"
                );

                if let Some(cex0) = verdicts[0].counterexample() {
                    violations += 1;
                    for v in &verdicts[1..] {
                        let cex = v.counterexample().expect("violating engines agree");
                        assert_eq!(cex0.schedule, cex.schedule, "{ctx}: schedules");
                        assert_eq!(cex0.trace, cex.trace, "{ctx}: traces");
                    }
                    if matches!(verdicts[0], Verdict::MutexViolation(..)) {
                        assert_mutex_cex_replays(&inst, model, n, cex0);
                    }
                }
                configs += 1;
            }
        }
    }
    assert!(configs >= 36, "matrix actually swept ({configs} configs)");
    assert!(
        violations >= 4,
        "matrix includes violating configs ({violations})"
    );
}

/// The engines must also agree when termination checking is on (it adds the
/// edge bookkeeping and reverse-reachability pass to every engine).
#[test]
fn engines_agree_with_termination_checking() {
    let cfg = CheckConfig {
        max_states: 20_000,
        ..CheckConfig::default()
    };
    for (kind, n, model) in [
        (LockKind::Peterson, 2usize, MemoryModel::Tso),
        (LockKind::Bakery, 2, MemoryModel::Pso),
        (LockKind::Ttas, 3, MemoryModel::Pso),
    ] {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        let verdicts: Vec<Verdict> = engines()
            .iter()
            .map(|&engine| check(&inst.machine(model), &cfg.clone().with_engine(engine)))
            .collect();
        let ctx = format!("{} n={n} {model}", inst.name);
        assert_eq!(verdicts[0].label(), verdicts[1].label(), "{ctx}");
        assert_eq!(verdicts[0].label(), verdicts[2].label(), "{ctx}");
        assert_eq!(verdicts[0].stats(), verdicts[1].stats(), "{ctx}");
        assert_eq!(verdicts[0].stats(), verdicts[2].stats(), "{ctx}");
    }
}

/// Crash schedules are explored bit-identically by all three engines: for
/// every crash budget and both crash semantics, labels, stats, and (where a
/// violation exists) the counterexample schedules coincide.
#[test]
fn engines_agree_on_crash_schedules() {
    let base = CheckConfig {
        check_termination: false,
        max_states: 20_000,
        ..CheckConfig::default()
    };
    let kinds = [
        LockKind::Ttas,
        LockKind::RecoverableTtas,
        LockKind::Bakery,
        LockKind::RecoverableBakery,
        LockKind::Peterson,
    ];
    for max_crashes in [0u32, 1, 2] {
        for sem in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
            if max_crashes == 0 && sem == CrashSemantics::DrainBuffer {
                continue; // semantics is irrelevant without crashes
            }
            for kind in kinds {
                let inst = build_mutex(kind, 2, FenceMask::ALL);
                for model in [MemoryModel::Tso, MemoryModel::Pso] {
                    let cfg = base.clone().with_crashes(sem, max_crashes);
                    let verdicts: Vec<Verdict> = engines()
                        .iter()
                        .map(|&engine| {
                            check(&inst.machine(model), &cfg.clone().with_engine(engine))
                        })
                        .collect();
                    let ctx = format!("{} {model} crashes={max_crashes} {sem:?}", inst.name);
                    for v in &verdicts[1..] {
                        assert_eq!(verdicts[0].label(), v.label(), "{ctx}: labels");
                        assert_eq!(verdicts[0].stats(), v.stats(), "{ctx}: stats");
                        assert_eq!(
                            verdicts[0].counterexample().map(|c| &c.schedule),
                            v.counterexample().map(|c| &c.schedule),
                            "{ctx}: counterexample schedules"
                        );
                    }
                }
            }
        }
    }
}

/// The kernel has two walks, `Undo`'s and `Dpor`'s; the parameters that
/// name one must select it: `Parallel` *is* `Undo` and `ParallelDpor`
/// *is* `Dpor` with the same bound, and the diagnostic bound *is* the
/// exhaustive walk — statistics and deterministic metrics included.
#[test]
fn engine_parameters_select_the_kernel_pair_they_name() {
    let same = |a: Engine, b: Engine, termination: bool| {
        for (kind, n, mask) in [
            (LockKind::Peterson, 2usize, FenceMask::ALL),
            (LockKind::Peterson, 2, FenceMask::NONE),
            (LockKind::Ttas, 3, FenceMask::ALL),
        ] {
            let inst = build_mutex(kind, n, mask);
            let run = |engine| {
                let config = CheckConfig {
                    check_termination: termination,
                    ..CheckConfig::default()
                }
                .with_engine(engine);
                check(&inst.machine(MemoryModel::Pso), &config)
            };
            let (va, vb) = (run(a), run(b));
            let ctx = format!("{} term={termination}: {a:?} vs {b:?}", inst.name);
            assert_eq!(va.label(), vb.label(), "{ctx}");
            assert_eq!(va.stats(), vb.stats(), "{ctx}: stats + metrics");
            assert_eq!(
                va.counterexample().map(|c| &c.schedule),
                vb.counterexample().map(|c| &c.schedule),
                "{ctx}: counterexamples"
            );
        }
    };
    for termination in [false, true] {
        same(Engine::Parallel { threads: 1 }, Engine::Undo, termination);
        let diagnostic = Some(u32::MAX);
        same(
            Engine::Dpor {
                reorder_bound: diagnostic,
            },
            Engine::Undo,
            termination,
        );
        for reorder_bound in [None, Some(1), diagnostic] {
            same(
                Engine::ParallelDpor {
                    threads: 1,
                    reorder_bound,
                },
                Engine::Dpor { reorder_bound },
                termination,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A crash budget of zero must be a perfect no-op: for any seed config
    /// and engine, `with_crashes(sem, 0)` yields bit-identical stats and the
    /// same label as a config that never mentions crashes at all.
    #[test]
    fn crash_free_runs_are_bit_identical_to_the_seed(
        kind_ix in 0usize..6,
        model_ix in 0usize..3,
        engine_ix in 0usize..3,
        sem_drain in any::<bool>(),
        termination in any::<bool>(),
    ) {
        let kinds = [
            LockKind::Bakery,
            LockKind::BakeryPaperListing,
            LockKind::Ttas,
            LockKind::Peterson,
            LockKind::RecoverableTtas,
            LockKind::Mcs,
        ];
        let models = [
            MemoryModel::Sc,
            MemoryModel::Tso,
            MemoryModel::Pso,
        ];
        let sem = if sem_drain {
            CrashSemantics::DrainBuffer
        } else {
            CrashSemantics::DiscardBuffer
        };
        let base = CheckConfig {
            check_termination: termination,
            max_states: 5_000,
            ..CheckConfig::default()
        }
        .with_engine(engines()[engine_ix]);

        let inst = build_mutex(kinds[kind_ix], 2, FenceMask::ALL);
        let m = inst.machine(models[model_ix]);
        let plain = check(&m, &base);
        let crash_free = check(&m, &base.clone().with_crashes(sem, 0));
        prop_assert_eq!(plain.label(), crash_free.label());
        prop_assert_eq!(plain.stats(), crash_free.stats());
    }
}
