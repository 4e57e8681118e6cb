//! Tying measurement to theory: passage-cost measurement helpers and the
//! tradeoff formulas of the paper.

use simlocks::OrderingInstance;
use wbmem::{MemoryModel, ProcId, SoloOutcome};

/// Fence and RMR cost of lock passages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PassageCost {
    /// Fence steps per passage.
    pub fences: f64,
    /// Remote steps (RMRs) per passage.
    pub rmrs: f64,
}

/// Measure one **uncontended** passage: process 0 runs alone on a fresh
/// machine.
///
/// # Panics
///
/// Panics if the passage does not complete within `max_steps`.
#[must_use]
pub fn solo_passage(inst: &OrderingInstance, model: MemoryModel, max_steps: usize) -> PassageCost {
    let mut m = inst.machine(model);
    let out = m.run_solo(ProcId(0), max_steps);
    assert!(
        matches!(out, SoloOutcome::Terminates { .. }),
        "{}: solo passage did not terminate ({out:?})",
        inst.name
    );
    let c = m.counters().proc(0);
    PassageCost {
        fences: c.fences as f64,
        rmrs: c.rmrs as f64,
    }
}

/// Measure the **average contended** passage: all `n` processes run under a
/// fair round-robin scheduler to completion; totals are divided by `n`.
/// The rotation ([`simlocks::run_to_completion`]) skips a spinner until
/// the register it re-reads is stored to, so the run costs its effective
/// steps; `max_steps` still bounds the elements of the full rotation,
/// skipped ones included.
///
/// # Panics
///
/// Panics if the instance does not complete within `max_steps`.
#[must_use]
pub fn contended_passage(
    inst: &OrderingInstance,
    model: MemoryModel,
    max_steps: usize,
) -> PassageCost {
    let mut m = inst.machine(model);
    let done = simlocks::run_to_completion(&mut m, max_steps);
    assert!(done, "{}: contended run did not complete", inst.name);
    let n = inst.n as f64;
    PassageCost {
        fences: m.counters().beta() as f64 / n,
        rmrs: m.counters().rho() as f64 / n,
    }
}

/// The left-hand side of the paper's per-passage tradeoff (equation (1)):
/// `f·(log₂(r/f) + 1)`. The theorem says this is `Ω(log n)` for ordering
/// algorithms under write reordering.
#[must_use]
pub fn tradeoff_lhs(fences: f64, rmrs: f64) -> f64 {
    if fences <= 0.0 {
        return 0.0;
    }
    fences * ((rmrs / fences).max(1.0).log2() + 1.0)
}

/// The tradeoff product normalized by `log₂ n`: `f·(log₂(r/f)+1) / log₂ n`.
/// Along the `GT_f` family this should be Θ(1) — the bound is tight at
/// every point of the spectrum.
#[must_use]
pub fn normalized_tradeoff(fences: f64, rmrs: f64, n: usize) -> f64 {
    assert!(n >= 2, "tradeoff is trivial below two processes");
    tradeoff_lhs(fences, rmrs) / (n as f64).log2()
}

/// The aggregate form of Theorem 4.2:
/// `β(E)·(log₂(ρ(E)/β(E)) + 1)` against `n·log₂ n`.
#[must_use]
pub fn theorem_lhs(beta: u64, rho: u64) -> f64 {
    tradeoff_lhs(beta as f64, rho as f64)
}

/// `n · log₂ n`, the right-hand side of Theorem 4.2 (up to a constant).
#[must_use]
pub fn n_log_n(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    n as f64 * (n as f64).log2()
}

/// Predicted per-passage fences of `GT_f`: `4f` node fences plus the
/// object fence and the final pre-return fence.
#[must_use]
pub fn predicted_gt_fences(f: usize) -> f64 {
    4.0 * f as f64 + 2.0
}

/// Predicted per-passage RMR *scale* of `GT_f`: `f · ⌈n^(1/f)⌉` (equation
/// (2) of the paper, up to a constant factor).
#[must_use]
pub fn predicted_gt_rmrs(n: usize, f: usize) -> f64 {
    f as f64 * simlocks::branching_factor(n, f) as f64
}

/// Least-squares slope of `log y` against `log x`: the empirical scaling
/// exponent of a cost curve. A Θ(n) curve yields ≈ 1, Θ(√n) ≈ 0.5,
/// Θ(log n) ≈ 0 (slowly decaying).
///
/// # Panics
///
/// Panics if fewer than two points are given or any coordinate is
/// non-positive.
#[must_use]
pub fn scaling_exponent(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "log-log fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let k = logs.len() as f64;
    let (sx, sy): (f64, f64) = logs
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let (mx, my) = (sx / k, sy / k);
    let num: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    num / den
}

/// Measure the solo RMR scaling exponent of a lock family over a sweep of
/// `n` values: build the counter instance at each `n`, measure one solo
/// passage, and fit `log(rmrs)` against `log(n)`.
#[must_use]
pub fn solo_rmr_exponent(
    build: impl Fn(usize) -> OrderingInstance,
    ns: &[usize],
    max_steps: usize,
) -> f64 {
    let points: Vec<(f64, f64)> = ns
        .iter()
        .map(|&n| {
            let cost = solo_passage(&build(n), MemoryModel::Pso, max_steps);
            (n as f64, cost.rmrs.max(1.0))
        })
        .collect();
    scaling_exponent(&points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlocks::{build_ordering, LockKind, ObjectKind};

    #[test]
    fn tradeoff_lhs_matches_hand_computation() {
        // f = 2, r = 8: 2·(log2(4)+1) = 6.
        assert!((tradeoff_lhs(2.0, 8.0) - 6.0).abs() < 1e-9);
        // r < f clamps the ratio at 1: f·(0+1) = f.
        assert!((tradeoff_lhs(4.0, 2.0) - 4.0).abs() < 1e-9);
        assert_eq!(tradeoff_lhs(0.0, 10.0), 0.0);
    }

    #[test]
    fn n_log_n_values() {
        assert_eq!(n_log_n(1), 0.0);
        assert!((n_log_n(8) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn solo_bakery_costs_match_theory() {
        for n in [4usize, 16, 64] {
            let inst = build_ordering(LockKind::Bakery, n, ObjectKind::Counter);
            let cost = solo_passage(&inst, MemoryModel::Pso, 1_000_000);
            assert_eq!(cost.fences, 6.0, "n={n}: 4 lock + object + final");
            assert!(
                cost.rmrs >= 2.0 * (n as f64 - 1.0),
                "n={n}: rmrs={}",
                cost.rmrs
            );
            assert!(
                cost.rmrs <= 4.0 * n as f64 + 8.0,
                "n={n}: rmrs={}",
                cost.rmrs
            );
        }
    }

    #[test]
    fn normalized_tradeoff_is_bounded_across_the_gt_family() {
        let n = 64;
        for f in [1usize, 2, 3, 6] {
            let inst = build_ordering(LockKind::Gt { f }, n, ObjectKind::Counter);
            let cost = solo_passage(&inst, MemoryModel::Pso, 1_000_000);
            let norm = normalized_tradeoff(cost.fences, cost.rmrs, n);
            assert!(
                (0.5..=12.0).contains(&norm),
                "f={f}: normalized tradeoff {norm} out of the constant band"
            );
        }
    }

    #[test]
    fn contended_costs_exceed_solo_costs() {
        let inst = build_ordering(LockKind::Gt { f: 2 }, 8, ObjectKind::Counter);
        let solo = solo_passage(&inst, MemoryModel::Pso, 1_000_000);
        let cont = contended_passage(&inst, MemoryModel::Pso, 50_000_000);
        assert!(
            cont.rmrs >= solo.rmrs * 0.9,
            "contention should not reduce RMRs"
        );
        assert_eq!(
            cont.fences, solo.fences,
            "fence count per passage is schedule-independent"
        );
    }

    #[test]
    fn predictions_are_monotone_in_the_right_direction() {
        assert!(predicted_gt_fences(1) < predicted_gt_fences(4));
        assert!(predicted_gt_rmrs(256, 1) > predicted_gt_rmrs(256, 2));
        assert!(predicted_gt_rmrs(256, 2) > predicted_gt_rmrs(256, 4));
    }

    #[test]
    fn scaling_exponent_recovers_known_powers() {
        let linear: Vec<(f64, f64)> = (1..=8).map(|n| (n as f64, 3.0 * n as f64)).collect();
        assert!((scaling_exponent(&linear) - 1.0).abs() < 1e-9);
        let sqrt: Vec<(f64, f64)> = (1..=8).map(|n| (n as f64, (n as f64).sqrt())).collect();
        assert!((scaling_exponent(&sqrt) - 0.5).abs() < 1e-9);
        let constant: Vec<(f64, f64)> = (1..=8).map(|n| (n as f64, 7.0)).collect();
        assert!(scaling_exponent(&constant).abs() < 1e-9);
    }

    #[test]
    fn measured_exponents_match_the_tradeoff() {
        let ns = [16usize, 32, 64, 128, 256, 512];
        let bakery = solo_rmr_exponent(
            |n| build_ordering(LockKind::Bakery, n, ObjectKind::Counter),
            &ns,
            10_000_000,
        );
        assert!(
            (0.9..=1.1).contains(&bakery),
            "bakery exponent {bakery} should be ~1"
        );

        let gt2 = solo_rmr_exponent(
            |n| build_ordering(LockKind::Gt { f: 2 }, n, ObjectKind::Counter),
            &ns,
            10_000_000,
        );
        assert!(
            (0.35..=0.65).contains(&gt2),
            "GT_2 exponent {gt2} should be ~0.5"
        );

        let tournament = solo_rmr_exponent(
            |n| build_ordering(LockKind::Tournament, n, ObjectKind::Counter),
            &ns,
            10_000_000,
        );
        assert!(
            (0.0..=0.35).contains(&tournament),
            "tournament exponent {tournament} should be near 0 (logarithmic)"
        );

        let ttas = solo_rmr_exponent(
            |n| build_ordering(LockKind::Ttas, n, ObjectKind::Counter),
            &ns,
            10_000_000,
        );
        assert!(
            ttas.abs() < 0.05,
            "solo TTAS exponent {ttas} should be ~0 (constant)"
        );
    }
}
