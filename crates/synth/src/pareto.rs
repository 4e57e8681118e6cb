//! The fence/RMR Pareto explorer.
//!
//! The paper's central object is a *curve*: under write-reordering models
//! any ordering algorithm pays `β·(log(ρ/β)+1) ∈ Ω(n log n)` across fence
//! steps (β) and RMRs (ρ), and the `GT_f` family realizes every point on
//! it — `f = 1` behaves like Bakery (O(1) fences, O(n) RMRs), `f = log n`
//! like the tournament tree (O(log n) of each). [`pareto_explore`] asks
//! whether *synthesis* recovers that tradeoff: it sweeps the hitting-set
//! weighting from fence-averse to RMR-averse, synthesizes a placement at
//! each setting, and measures the resulting per-passage β and ρ on an
//! uncontended solo run. Plotting the sweep against the analytic `GT_f`
//! curve is experiment E16.
//!
//! Weights only steer *which* sites the hitting set prefers among
//! equally-feasible placements; every emitted point re-verified clean
//! under the configured models, so the curve consists exclusively of
//! correct placements.

use simlocks::OrderingInstance;
use wbmem::{MemoryModel, ProcId, SoloOutcome};

use crate::cegar::{synthesize_with, Pool, SynthConfig, SynthOutcome};

/// One point of the synthesized tradeoff curve.
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// Instance the placement was synthesized for.
    pub workload: String,
    /// Fence-cost weight used for this sweep step.
    pub fence_weight: u64,
    /// RMR-cost weight used for this sweep step.
    pub rmr_weight: u64,
    /// Static fences the synthesized placement inserts.
    pub fences_inserted: usize,
    /// Measured fence steps β per uncontended passage.
    pub solo_fences: u64,
    /// Measured remote steps ρ per uncontended passage.
    pub solo_rmrs: u64,
    /// CEGAR iterations the synthesis took.
    pub iterations: usize,
    /// States explored across all inner checks.
    pub total_states: usize,
}

/// Sweep `(fence_weight, rmr_weight)` pairs, synthesizing at each and
/// measuring the uncontended passage cost of the result under
/// `measure_model`. Sweep points whose synthesis fails (exhausted or
/// unfixable) are skipped.
///
/// Counterexample cores, their witnesses and clean-placement verdicts are
/// facts about the baseline, not about the weights, so the sweep keeps one
/// pool of them: a point whose hitting set lands on a placement an earlier
/// point certified costs that hitting set and the seeded minimisation, no
/// search from the initial state.
#[must_use]
pub fn pareto_explore(
    inst: &OrderingInstance,
    sweep: &[(u64, u64)],
    base: &SynthConfig,
    measure_model: MemoryModel,
    max_solo_steps: usize,
) -> Vec<ParetoPoint> {
    let mut points = Vec::with_capacity(sweep.len());
    let mut pool = Pool::default();
    for &(fence_weight, rmr_weight) in sweep {
        let cfg = SynthConfig {
            fence_weight,
            rmr_weight,
            ..base.clone()
        };
        let SynthOutcome::Synthesized(s) = synthesize_with(inst, &cfg, &mut pool) else {
            continue;
        };
        let (solo_fences, solo_rmrs) = solo_cost(&s.instance, measure_model, max_solo_steps);
        points.push(ParetoPoint {
            workload: inst.name.clone(),
            fence_weight,
            rmr_weight,
            fences_inserted: s.fences_inserted(),
            solo_fences,
            solo_rmrs,
            iterations: s.iterations,
            total_states: s.total_states,
        });
    }
    points
}

/// β and ρ of process 0 running one passage alone.
///
/// # Panics
///
/// Panics if the solo run does not terminate within `max_steps` — a
/// synthesized instance re-verified clean always terminates solo.
#[must_use]
pub fn solo_cost(inst: &OrderingInstance, model: MemoryModel, max_steps: usize) -> (u64, u64) {
    let mut m = inst.machine(model);
    let out = m.run_solo(ProcId(0), max_steps);
    assert!(
        matches!(out, SoloOutcome::Terminates { .. }),
        "{}: solo passage did not terminate ({out:?})",
        inst.name
    );
    let c = m.counters().proc(0);
    (c.fences, c.rmrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlocks::{build_mutex, FenceMask, LockKind};

    #[test]
    fn sweep_emits_verified_points() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let base = SynthConfig::default();
        let points = pareto_explore(&inst, &[(1, 4), (4, 1)], &base, MemoryModel::Pso, 10_000);
        assert!(!points.is_empty(), "peterson synthesizes at any weighting");
        for p in &points {
            assert!(p.fences_inserted >= 1);
            assert!(p.iterations >= 1);
        }
        // Later points start from what the first one learned.
        for p in &points[1..] {
            assert!(p.total_states < points[0].total_states);
        }
    }
}
