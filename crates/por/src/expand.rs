//! State expansion: ample selection ∘ sleep filtering.

use wbmem::{Machine, ProcId, Process, SchedElem};

use crate::ample;
use crate::sleep::SleepSet;

/// How a state's enabled choices were partitioned for exploration.
#[derive(Clone, Debug, Default)]
pub struct Expansion {
    /// The choices to explore, in the order the machine enumerated them.
    pub explore: Vec<SchedElem>,
    /// Choices pruned by ample selection (other processes' choices). Kept
    /// so the caller can enforce the cycle proviso: if an explored step
    /// closes a cycle, these are appended back and explored after all.
    pub excluded: Vec<SchedElem>,
    /// The ample process, when the reduction applied.
    pub ample: Option<ProcId>,
    /// Enabled choices skipped because they were asleep.
    pub slept: usize,
}

/// Partition the machine's enabled `choices` for exploration: pick an
/// ample process if `use_ample` (and one qualifies), then drop choices the
/// `sleep` set already covers. Ample-pruned choices are *not* slept — they
/// land in [`Expansion::excluded`] for the cycle-proviso fallback.
///
/// Every reduction decision is reported through `obs`: sleep-filtered
/// choices as [`ftobs::Metric::SleepHits`], and — when ample selection was
/// requested — whether it applied ([`ftobs::Metric::AmpleApplied`]) or
/// fell back to the full enabled set
/// ([`ftobs::Metric::AmpleFallbacks`], and the counter of its
/// [`ample::Fallback`] reason). Pass [`ftobs::Recorder::disabled`] to opt out.
#[must_use]
pub fn expand<P: Process>(
    m: &Machine<P>,
    choices: &[SchedElem],
    sleep: &SleepSet,
    use_ample: bool,
    obs: &ftobs::Recorder,
) -> Expansion {
    let mut out = Expansion::default();
    let decision = use_ample.then(|| ample::decide(m, choices));
    out.ample = decision.and_then(Result::ok);
    out.slept = partition_into(
        choices,
        sleep,
        out.ample,
        &mut out.explore,
        &mut out.excluded,
    );
    if let Some(decision) = decision {
        ample::count(decision, |metric| obs.incr(metric));
    }
    if out.slept > 0 {
        obs.add(ftobs::Metric::SleepHits, out.slept as u64);
    }
    out
}

/// [`expand`] for a caller that owns the buffers and wants no counters:
/// the choices to explore are appended to `explore`, the ample-pruned ones
/// to `excluded`, and the ample process (if the reduction applied) and the
/// number of slept choices are returned.
pub fn expand_into<P: Process>(
    m: &Machine<P>,
    choices: &[SchedElem],
    sleep: &SleepSet,
    use_ample: bool,
    explore: &mut Vec<SchedElem>,
    excluded: &mut Vec<SchedElem>,
) -> (Option<ProcId>, usize) {
    let ample = if use_ample {
        ample::select(m, choices)
    } else {
        None
    };
    (
        ample,
        partition_into(choices, sleep, ample, explore, excluded),
    )
}

/// The partition itself, for a caller that made the ample decision (and
/// counts its [`ample::Fallback`] reason) on its own: every choice of a process
/// other than `ample` is appended to `excluded`, every other choice to
/// `explore` unless `sleep` covers it. Returns the number slept.
pub fn partition_into(
    choices: &[SchedElem],
    sleep: &SleepSet,
    ample: Option<ProcId>,
    explore: &mut Vec<SchedElem>,
    excluded: &mut Vec<SchedElem>,
) -> usize {
    let mut slept = 0;
    for &e in choices {
        if ample.is_some_and(|p| e.proc != p) {
            excluded.push(e);
        } else if sleep.contains(e) {
            slept += 1;
        } else {
            explore.push(e);
        }
    }
    slept
}

#[cfg(test)]
mod tests {
    use super::*;
    use fencevm::{Asm, VmProc};
    use wbmem::{MachineConfig, MemoryLayout, MemoryModel};

    fn writer(name: &str, reg: i64) -> VmProc {
        let mut a = Asm::new(name);
        a.write(reg, 1i64);
        a.fence();
        a.ret(0i64);
        VmProc::new(a.assemble().into())
    }

    fn machine(procs: Vec<VmProc>) -> Machine<VmProc> {
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        Machine::new(cfg, procs)
    }

    #[test]
    fn ample_expansion_excludes_other_processes() {
        let m = machine(vec![writer("w0", 0), writer("w1", 1)]);
        let choices = m.choices();
        let x = expand(
            &m,
            &choices,
            &SleepSet::new(),
            true,
            &ftobs::Recorder::disabled(),
        );
        assert_eq!(x.ample, Some(ProcId(0)));
        assert!(x.explore.iter().all(|e| e.proc == ProcId(0)));
        assert!(x.excluded.iter().all(|e| e.proc == ProcId(1)));
        assert_eq!(x.explore.len() + x.excluded.len(), choices.len());
        assert_eq!(x.slept, 0);
    }

    #[test]
    fn expand_into_appends_to_the_callers_buffers() {
        let m = machine(vec![writer("w0", 0), writer("w1", 1)]);
        let choices = m.choices();
        let marker = SchedElem::crash(ProcId(9));
        let (mut explore, mut excluded) = (vec![marker], vec![marker]);
        let (ample, slept) = expand_into(
            &m,
            &choices,
            &SleepSet::new(),
            true,
            &mut explore,
            &mut excluded,
        );
        let x = expand(
            &m,
            &choices,
            &SleepSet::new(),
            true,
            &ftobs::Recorder::disabled(),
        );
        assert_eq!((ample, slept), (x.ample, x.slept));
        assert_eq!(explore[0], marker);
        assert_eq!(explore[1..], x.explore[..]);
        assert_eq!(excluded[0], marker);
        assert_eq!(excluded[1..], x.excluded[..]);
    }

    #[test]
    fn disabled_ample_explores_everything_not_asleep() {
        let m = machine(vec![writer("w0", 0), writer("w1", 1)]);
        let choices = m.choices();
        let mut sleep = SleepSet::new();
        sleep.insert(choices[0], m.choice_footprint(choices[0]));
        let x = expand(&m, &choices, &sleep, false, &ftobs::Recorder::disabled());
        assert_eq!(x.ample, None);
        assert!(x.excluded.is_empty());
        assert_eq!(x.slept, 1);
        assert_eq!(x.explore.len(), choices.len() - 1);
        assert!(!x.explore.contains(&choices[0]));
    }

    #[test]
    fn sleeping_an_ample_choice_shrinks_the_exploration() {
        let m = machine(vec![writer("w0", 0), writer("w1", 1)]);
        let choices = m.choices();
        let ample_elem = choices
            .iter()
            .copied()
            .find(|e| e.proc == ProcId(0))
            .unwrap();
        let mut sleep = SleepSet::new();
        sleep.insert(ample_elem, m.choice_footprint(ample_elem));
        let x = expand(&m, &choices, &sleep, true, &ftobs::Recorder::disabled());
        assert_eq!(x.ample, Some(ProcId(0)));
        assert_eq!(x.slept, 1);
        assert!(!x.explore.contains(&ample_elem));
    }
}
