//! Cross-crate integration: every lock family × every memory model, under
//! sequential, fair round-robin, and randomized adversarial schedules.
//!
//! The matrix cells are independent, so each test fans its cells out over
//! scoped worker threads ([`par_for_each`]). Worker count follows
//! `FT_THREADS` like `ft_bench::parallelism()` does (re-implemented locally:
//! depending on `ft-bench` from here would be a dev-dependency cycle).

use std::sync::atomic::{AtomicUsize, Ordering};

use fence_trade::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `FT_THREADS` if set to a positive integer, else the available cores.
fn parallelism() -> usize {
    let auto = || std::thread::available_parallelism().map_or(1, |p| p.get());
    match std::env::var("FT_THREADS") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(auto),
        Err(_) => auto(),
    }
}

/// Run `f` over every cell on up to [`parallelism`] scoped threads. A panic
/// in any cell (assertion failure) propagates when the scope joins, so
/// failures still fail the test.
fn par_for_each<T: Sync>(cells: &[T], f: impl Fn(&T) + Sync) {
    let threads = parallelism().min(cells.len());
    if threads <= 1 {
        cells.iter().for_each(f);
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                f(cell);
            });
        }
    });
}

fn all_kinds(n: usize) -> Vec<LockKind> {
    let mut kinds = vec![
        LockKind::Bakery,
        LockKind::Gt { f: 2 },
        LockKind::Gt { f: 3 },
    ];
    if n.is_power_of_two() && n >= 2 {
        kinds.push(LockKind::Tournament);
    }
    if n == 2 {
        kinds.push(LockKind::Peterson);
    }
    kinds
}

#[test]
fn sequential_runs_return_ranks_everywhere() {
    let mut cells = Vec::new();
    for n in [2usize, 4, 6] {
        for kind in all_kinds(n) {
            for object in [ObjectKind::Counter, ObjectKind::Queue] {
                cells.push((n, kind, object));
            }
        }
    }
    par_for_each(&cells, |&(n, kind, object)| {
        let inst = build_ordering(kind, n, object);
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let rets = inst.run_sequential(model, 1_000_000);
            assert_eq!(
                rets,
                (0..n as u64).collect::<Vec<u64>>(),
                "{} under {model}",
                inst.name
            );
        }
    });
}

#[test]
fn round_robin_completes_and_returns_a_permutation() {
    let mut cells = Vec::new();
    for n in [4usize, 8] {
        for kind in all_kinds(n) {
            for model in [MemoryModel::Tso, MemoryModel::Pso] {
                cells.push((n, kind, model));
            }
        }
    }
    par_for_each(&cells, |&(n, kind, model)| {
        let inst = build_ordering(kind, n, ObjectKind::Counter);
        let mut m = inst.machine(model);
        assert!(
            fence_trade::simlocks::run_to_completion(&mut m, 50_000_000),
            "{} stuck under {model}",
            inst.name
        );
        let mut rets: Vec<u64> = m.return_values().into_iter().map(Option::unwrap).collect();
        rets.sort_unstable();
        assert_eq!(rets, (0..n as u64).collect::<Vec<u64>>(), "{}", inst.name);
    });
}

/// Drive a machine with uniformly random enabled choices (interleavings
/// *and* commit orders); mutual exclusion must hold in every visited state.
fn random_adversary_preserves_mutex(kind: LockKind, n: usize, model: MemoryModel, seed: u64) {
    let inst = build_mutex(kind, n, FenceMask::ALL);
    let mut m = inst.machine(model);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..60_000 {
        let choices = m.choices();
        if choices.is_empty() {
            break;
        }
        let pick = choices[rng.gen_range(0..choices.len())];
        m.step(pick);
        let in_cs = (0..n)
            .filter(|&i| m.annotation(ProcId::from(i)) == fence_trade::simlocks::ANNOT_IN_CS)
            .count();
        assert!(
            in_cs <= 1,
            "{kind} n={n} {model} seed={seed}: mutex violated"
        );
    }
}

#[test]
fn random_adversarial_schedules_preserve_mutex() {
    let mut cells = Vec::new();
    for seed in 0..4u64 {
        cells.push((LockKind::Bakery, 3, MemoryModel::Pso, seed));
        cells.push((LockKind::Gt { f: 2 }, 4, MemoryModel::Pso, seed));
        cells.push((LockKind::Tournament, 4, MemoryModel::Pso, seed));
        cells.push((LockKind::Peterson, 2, MemoryModel::Tso, seed));
    }
    par_for_each(&cells, |&(kind, n, model, seed)| {
        random_adversary_preserves_mutex(kind, n, model, seed);
    });
}

#[test]
fn sc_and_pso_solo_rmr_counts_coincide() {
    // Under SC writes commit immediately; commit locality is identical, so
    // solo RMR counts agree with PSO for these programs.
    let inst = build_ordering(LockKind::Bakery, 8, ObjectKind::Counter);
    let pso = solo_passage(&inst, MemoryModel::Pso, 1_000_000);
    let sc = solo_passage(&inst, MemoryModel::Sc, 1_000_000);
    assert_eq!(sc.rmrs, pso.rmrs);
    assert_eq!(sc.fences, pso.fences);
}
