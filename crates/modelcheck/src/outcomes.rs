//! Terminal-outcome enumeration: the set of observable results a program
//! can produce under a memory model.
//!
//! A *terminal outcome* is the pair (final shared memory, return values) of
//! an all-done state. Enumerating every reachable outcome makes the memory-
//! model hierarchy itself testable: every SC outcome must be reachable
//! under TSO, and every TSO outcome under PSO — buffering only *adds*
//! behaviours (the scheduler can always commit eagerly), it never removes
//! any. The strictness of the inclusions is exactly what the separation
//! experiments exploit.

use std::collections::BTreeSet;

use ftobs::MetricsSnapshot;
use wbmem::{Machine, Process};

use crate::checker::CheckConfig;
use crate::kernel::{run_local, Graph, NoReduction, Violation, Visitor};

/// One observable outcome: sorted `(register, payload)` memory pairs plus
/// per-process return values. Payloads (not tagged values) so outcomes are
/// comparable across models and runs.
pub type Outcome = (Vec<(u32, u64)>, Vec<u64>);

/// Enumerate every terminal outcome reachable from `initial`, exploring all
/// interleavings and commit orders, up to `max_states` distinct states.
///
/// Returns `None` if the state budget was exhausted (the outcome set would
/// be incomplete and must not be compared).
#[must_use]
pub fn terminal_outcomes<P: Process>(
    initial: &Machine<P>,
    max_states: usize,
) -> Option<BTreeSet<Outcome>> {
    // The exhaustive sequential engine's walk, with this module's visitor
    // in place of the property checks.
    let config = CheckConfig {
        max_states,
        check_termination: false,
        ..CheckConfig::default()
    };
    let (mut outcomes, counts) = (Outcomes(BTreeSet::new()), &mut MetricsSnapshot::default());
    let (verdict, _) = run_local(
        initial,
        &config,
        None,
        None,
        Graph::default(),
        &mut NoReduction,
        &mut outcomes,
        counts,
    );
    verdict.is_ok().then_some(outcomes.0)
}

/// The kernel visitor that collects the outcome of every all-done state.
struct Outcomes(BTreeSet<Outcome>);

impl<P: Process> Visitor<P> for Outcomes {
    fn state(&mut self, m: &Machine<P>) -> Result<(), Violation> {
        if m.all_done() {
            self.0.insert(outcome_of(m));
        }
        Ok(())
    }
}

fn outcome_of<P: Process>(m: &Machine<P>) -> Outcome {
    // ⊥ cells are dropped so layouts of different widths compare naturally.
    let mem = m.memory_cells().map(|(r, v)| (r.0, v.payload())).collect();
    let rets: Vec<u64> = m
        .return_values()
        .into_iter()
        .map(|r| r.unwrap_or(u64::MAX))
        .collect();
    (mem, rets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlocks::{build_mutex, build_ordering, FenceMask, LockKind, ObjectKind};
    use wbmem::MemoryModel;

    const BUDGET: usize = 2_000_000;

    fn outcomes_for(inst: &simlocks::OrderingInstance, model: MemoryModel) -> BTreeSet<Outcome> {
        terminal_outcomes(&inst.machine(model), BUDGET).expect("state budget")
    }

    #[test]
    fn model_hierarchy_is_respected_for_weak_peterson() {
        // With the flag fence elided, the three models genuinely differ;
        // the outcome sets must still nest: SC ⊆ TSO ⊆ PSO.
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::only(&[1, 2]));
        let sc = outcomes_for(&inst, MemoryModel::Sc);
        let tso = outcomes_for(&inst, MemoryModel::Tso);
        let pso = outcomes_for(&inst, MemoryModel::Pso);
        assert!(sc.is_subset(&tso), "SC outcomes must be TSO-reachable");
        assert!(tso.is_subset(&pso), "TSO outcomes must be PSO-reachable");
    }

    #[test]
    fn fully_fenced_counter_outcomes_coincide_across_models() {
        // A fence after every write collapses the hierarchy: the buffer
        // never holds more than one write, so all three models produce the
        // same outcome set — and every outcome's returns are a permutation.
        let inst = build_ordering(LockKind::Peterson, 2, ObjectKind::Counter);
        let sc = outcomes_for(&inst, MemoryModel::Sc);
        let tso = outcomes_for(&inst, MemoryModel::Tso);
        let pso = outcomes_for(&inst, MemoryModel::Pso);
        assert_eq!(sc, tso);
        assert_eq!(tso, pso);
        assert!(!sc.is_empty());
        for (_, rets) in &sc {
            let mut sorted = rets.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1], "counter returns are a permutation");
        }
    }

    /// Two racing unfenced writers to register `reg`, nothing else.
    fn racing_writers(reg: i64) -> simlocks::OrderingInstance {
        use std::sync::Arc;
        let mut alloc = simlocks::RegAlloc::new();
        let _r0 = alloc.alloc(None);
        let mk = |who: i64| {
            let mut asm = fencevm::Asm::new(format!("w{who}"));
            asm.write(reg, 10 + who);
            asm.fence();
            asm.ret(who);
            Arc::new(asm.assemble())
        };
        simlocks::OrderingInstance {
            name: "racing-writers".into(),
            n: 2,
            programs: vec![mk(0), mk(1)],
            layout: alloc.into_layout(),
            fence_sites: 0,
        }
    }

    /// Store buffering: process `i` writes 1 to register `i`, fences if
    /// `fenced`, then reads the other process's register and returns it.
    fn store_buffering(fenced: bool) -> simlocks::OrderingInstance {
        use std::sync::Arc;
        let mut alloc = simlocks::RegAlloc::new();
        let regs = [alloc.alloc(None), alloc.alloc(None)];
        let mk = |who: usize| {
            let mut asm = fencevm::Asm::new(format!("sb{who}"));
            let seen = asm.local("seen");
            asm.write(i64::from(regs[who].0), 1);
            if fenced {
                asm.fence();
            }
            asm.read(i64::from(regs[1 - who].0), seen);
            asm.ret(seen);
            Arc::new(asm.assemble())
        };
        simlocks::OrderingInstance {
            name: "store-buffering".into(),
            n: 2,
            programs: vec![mk(0), mk(1)],
            layout: alloc.into_layout(),
            fence_sites: 0,
        }
    }

    #[test]
    fn unfenced_store_buffering_reads_zero_twice_only_under_buffering() {
        // Each read may overtake its own process's buffered write under TSO
        // and PSO, so both reads can miss the other write: SC ⊊ TSO ⊆ PSO.
        let inst = store_buffering(false);
        let sc = outcomes_for(&inst, MemoryModel::Sc);
        let tso = outcomes_for(&inst, MemoryModel::Tso);
        let pso = outcomes_for(&inst, MemoryModel::Pso);
        let both_missed = |set: &BTreeSet<Outcome>| set.iter().any(|(_, rets)| rets == &[0, 0]);
        assert!(!both_missed(&sc), "SC forbids (0, 0)");
        assert!(both_missed(&tso), "TSO allows (0, 0)");
        assert!(both_missed(&pso), "PSO allows (0, 0)");
        assert!(sc.is_subset(&tso) && sc != tso, "SC ⊊ TSO");
        assert!(tso.is_subset(&pso));

        // A fence between the write and the read collapses the hierarchy.
        let inst = store_buffering(true);
        let sc = outcomes_for(&inst, MemoryModel::Sc);
        assert_eq!(sc, outcomes_for(&inst, MemoryModel::Tso));
        assert_eq!(sc, outcomes_for(&inst, MemoryModel::Pso));
        assert!(!both_missed(&sc));
    }

    #[test]
    fn registers_past_any_fixed_probe_range_distinguish_outcomes() {
        // The only written register sits above the 4096 registers the
        // outcome used to probe: the two final values must still be two
        // outcomes, not one empty memory.
        let pso = outcomes_for(&racing_writers(5000), MemoryModel::Pso);
        let mems: BTreeSet<Vec<(u32, u64)>> = pso.into_iter().map(|(mem, _)| mem).collect();
        let expect = [vec![(5000, 10)], vec![(5000, 11)]];
        assert_eq!(mems, BTreeSet::from(expect));
    }

    #[test]
    fn the_outcome_walk_visits_exactly_the_undo_engines_states() {
        // The walk fits a state budget iff it visits no more states than
        // that, so the budget boundary pins its visit count exactly.
        let weak = build_mutex(LockKind::Peterson, 2, FenceMask::only(&[1, 2]));
        let counter = build_ordering(LockKind::Peterson, 2, ObjectKind::Counter);
        for inst in [weak, counter, racing_writers(0)] {
            for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
                let m = inst.machine(model);
                let config = crate::CheckConfig {
                    check_mutex: false,
                    check_termination: false,
                    ..crate::CheckConfig::default()
                };
                let states = crate::check(&m, &config).stats().states;
                let fits = |budget| terminal_outcomes(&m, budget).is_some();
                assert!(fits(states) && !fits(states - 1), "{} {model}", inst.name);
            }
        }
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let inst = build_ordering(LockKind::Bakery, 3, ObjectKind::Counter);
        assert!(terminal_outcomes(&inst.machine(MemoryModel::Pso), 10).is_none());
    }
}
