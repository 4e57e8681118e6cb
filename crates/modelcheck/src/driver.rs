//! Multi-model checking driver for fence synthesis.
//!
//! The CEGAR loop in `crates/synth` repeatedly asks one question: *is this
//! candidate program correct under every memory model I care about, and if
//! not, show me a counterexample.* This module packages that question over
//! the existing [`check`] entry point, so synthesis inherits the whole
//! `CheckConfig` surface — engine selection (`Dpor` for the inner loop,
//! `Undo` for final re-verification), crash-fault bounds,
//! wall-clock budgets, and checkpoint policies — without owning any
//! exploration machinery of its own.

use simlocks::OrderingInstance;
use wbmem::MemoryModel;

use crate::checker::{check, CheckConfig, Verdict};

/// The verdict for one memory model in a multi-model sweep.
#[derive(Clone, Debug)]
pub struct ModelVerdict {
    /// The model checked.
    pub model: MemoryModel,
    /// The checker's verdict (carries counterexample and stats).
    pub verdict: Verdict,
}

/// Check `inst` under each model in `models` with the same `config`.
///
/// With `stop_at_violation`, the sweep returns as soon as one model
/// produces a violation — the refinement loop only needs one
/// counterexample per iteration, and skipping the remaining models keeps
/// iterations cheap. Models are checked in the order given; put the
/// weakest model (most likely to fail) first for fastest refinement.
#[must_use]
pub fn check_under_models(
    inst: &OrderingInstance,
    models: &[MemoryModel],
    config: &CheckConfig,
    stop_at_violation: bool,
) -> Vec<ModelVerdict> {
    let mut out = Vec::with_capacity(models.len());
    for &model in models {
        let verdict = check(&inst.machine(model), config);
        let bail = stop_at_violation && verdict.is_violation();
        out.push(ModelVerdict { model, verdict });
        if bail {
            break;
        }
    }
    out
}

/// Whether every verdict in a sweep is fully `Ok`. An incomplete sweep
/// (budget, state limit, checkpoint stop) is *not* ok: synthesis must
/// never accept a placement on less than a full proof.
#[must_use]
pub fn all_ok(verdicts: &[ModelVerdict]) -> bool {
    !verdicts.is_empty() && verdicts.iter().all(|v| v.verdict.is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Engine;
    use simlocks::{build_mutex, FenceMask, LockKind};

    #[test]
    fn fully_fenced_bakery_is_ok_everywhere() {
        let inst = build_mutex(LockKind::Bakery, 2, FenceMask::ALL);
        let cfg = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: None,
        });
        let vs = check_under_models(
            &inst,
            &[MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso],
            &cfg,
            true,
        );
        assert_eq!(vs.len(), 3);
        assert!(all_ok(&vs));
    }

    #[test]
    fn unfenced_bakery_stops_at_first_violation() {
        let inst = build_mutex(LockKind::Bakery, 2, FenceMask::NONE);
        let cfg = CheckConfig::default().with_engine(Engine::Dpor {
            reorder_bound: None,
        });
        let vs = check_under_models(&inst, &[MemoryModel::Pso, MemoryModel::Sc], &cfg, true);
        assert_eq!(vs.len(), 1, "sweep stops at the PSO violation");
        assert!(vs[0].verdict.is_violation());
        assert!(vs[0].verdict.counterexample().is_some());
        assert!(!all_ok(&vs));
    }
}
