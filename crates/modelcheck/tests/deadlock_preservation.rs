//! The reduced search keeps every deadlock of the machine.
//!
//! `por::ample` treats a return as an invisible step that needs no rival
//! check. That leans on one fact: the only property that reads return
//! values, the permutation check, looks at all-done states — the
//! machine's deadlocks — and a search that expands a persistent set at
//! every state reaches every deadlock. Two consequences, checked here
//! against the unreduced engines:
//!
//! * with the permutation check on (and the mutex check off, so nothing
//!   but return values can fail), `Engine::Dpor` and
//!   `Engine::ParallelDpor` agree with the `CloneDfs` oracle on counters
//!   guarded by a correct lock and by the same lock with its fences
//!   stripped, and a violation they report replays on a fresh machine;
//! * `Stats::terminal_states` under `Engine::Dpor` equals `Engine::Undo`'s
//!   on every E12 / E12b cell (where the fallback counters are also held
//!   to `ample_fallbacks` = the sum of its three reasons).

use ftobs::Metric;
use modelcheck::{check, CheckConfig, Engine, Verdict};
use simlocks::{build_mutex, build_ordering, FenceMask, LockKind, ObjectKind, OrderingInstance};
use wbmem::{MemoryModel, ProcId, StepOutcome};

const DPOR: Engine = Engine::Dpor {
    reorder_bound: None,
};

/// Ample selection is off under the termination check; keep it on.
fn reduced_config() -> CheckConfig {
    CheckConfig {
        check_termination: false,
        max_states: 3_000_000,
        ..CheckConfig::default()
    }
}

fn stripped(mut inst: OrderingInstance) -> OrderingInstance {
    for prog in &mut inst.programs {
        *prog = fencevm::strip_fences(prog).program.into();
    }
    inst
}

/// Every element takes a real step and the run ends all-done with two
/// processes holding the same rank or one out of range.
fn assert_permutation_cex_replays(inst: &OrderingInstance, cex: &modelcheck::Counterexample) {
    let mut m = inst.machine(MemoryModel::Pso);
    for (i, &elem) in cex.schedule.iter().enumerate() {
        assert!(
            !matches!(m.step(elem), StepOutcome::NoOp),
            "{}: counterexample step {i} ({elem:?}) was a no-op",
            inst.name
        );
    }
    assert!(m.all_done(), "{}: replay is not terminal", inst.name);
    let mut ranks: Vec<u64> = (0..inst.n)
        .map(|p| m.return_value(ProcId::from(p)).expect("all done"))
        .collect();
    ranks.sort_unstable();
    assert_ne!(
        ranks,
        (0..inst.n as u64).collect::<Vec<_>>(),
        "{}: replayed ranks are a permutation",
        inst.name
    );
}

#[test]
fn reduced_engines_agree_with_the_oracle_on_return_values() {
    let config = CheckConfig {
        check_permutation: true,
        check_mutex: false,
        ..reduced_config()
    };
    let kinds = [
        LockKind::Peterson,
        LockKind::Bakery,
        LockKind::Filter,
        LockKind::Tournament,
        LockKind::Gt { f: 1 },
        LockKind::Ttas,
        LockKind::Mcs,
    ];
    let mut violations = 0;
    for kind in kinds {
        let fenced = build_ordering(kind, 2, ObjectKind::Counter);
        for (inst, must_hold) in [(fenced.clone(), true), (stripped(fenced), false)] {
            let machine = inst.machine(MemoryModel::Pso);
            let oracle = check(&machine, &config.clone().with_engine(Engine::CloneDfs));
            assert!(
                !must_hold || oracle.is_ok(),
                "{}: {}",
                inst.name,
                oracle.label()
            );
            let reduced = [
                DPOR,
                Engine::ParallelDpor {
                    threads: 2,
                    reorder_bound: None,
                },
            ];
            for engine in reduced {
                let v = check(&machine, &config.clone().with_engine(engine));
                assert_eq!(
                    v.label(),
                    oracle.label(),
                    "{} under {}",
                    inst.name,
                    engine.label()
                );
                if let Verdict::PermutationViolation(_, cex) = &v {
                    assert_permutation_cex_replays(&inst, cex);
                    violations += 1;
                }
            }
        }
    }
    // The load/store locks, at least, lose the counter without fences.
    assert!(violations >= 8, "{violations} violations replayed");
}

#[test]
fn dpor_reaches_every_terminal_state_undo_does() {
    let n2 = [
        LockKind::Peterson,
        LockKind::Ttas,
        LockKind::Bakery,
        LockKind::Filter,
    ];
    let n3 = [
        LockKind::Ttas,
        LockKind::Bakery,
        LockKind::Filter,
        LockKind::Gt { f: 2 },
    ];
    let cells = n2
        .into_iter()
        .flat_map(|kind| [(kind, 2, MemoryModel::Tso), (kind, 2, MemoryModel::Pso)])
        .chain(n3.into_iter().map(|kind| (kind, 3, MemoryModel::Pso)));
    for (kind, n, model) in cells {
        let machine = build_mutex(kind, n, FenceMask::ALL).machine(model);
        let full = check(&machine, &reduced_config());
        let reduced = check(&machine, &reduced_config().with_engine(DPOR));
        assert!(full.is_ok() && reduced.is_ok(), "{kind} n={n} {model}");
        assert!(full.stats().terminal_states > 0, "{kind} n={n} {model}");
        assert_eq!(
            reduced.stats().terminal_states,
            full.stats().terminal_states,
            "{kind} n={n} {model}: terminal states, dpor vs undo"
        );
        // Every fallback is counted once in the total and once by reason.
        let counters = reduced.stats().metrics;
        let by_reason = [
            Metric::AmpleFallbackVacuous,
            Metric::AmpleFallbackVisible,
            Metric::AmpleFallbackConflict,
        ];
        assert!(
            counters.get(Metric::AmpleApplied) > 0,
            "{kind} n={n} {model}"
        );
        assert_eq!(
            counters.get(Metric::AmpleFallbacks),
            by_reason.iter().map(|&m| counters.get(m)).sum::<u64>(),
            "{kind} n={n} {model}: fallbacks by reason"
        );
    }
}
