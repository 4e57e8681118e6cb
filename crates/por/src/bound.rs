//! The reorder (preemption-style) bound.
//!
//! A schedule's *reorder weight* counts the steps where a process's
//! program advances while writes of its own are still pending in its
//! buffer — exactly the moments where the execution diverges from a
//! sequentially consistent one (an SC machine drains every write before
//! the next program step can observe anything). Bounding the weight turns
//! the exploration into a staged under-approximation in the spirit of
//! context bounding:
//!
//! * bound `0` explores only SC-equivalent interleavings;
//! * bound `k+1` adds schedules with one more overtaking step than
//!   bound `k`;
//! * no bound (`None`) degenerates to the full search.
//!
//! Most fence-elision bugs in the paper's algorithms manifest with one or
//! two overtakes, so small bounds find the same counterexamples orders of
//! magnitude faster — but an `Ok` verdict under a bound only covers the
//! bounded schedule set. What a bounded walk may *report* depends on the
//! property: a safety violation is one schedule and is real at any bound;
//! non-termination quantifies over every continuation of a state, which
//! the bound may have cut, so the checker reports it only for states
//! whose forward closure the bounded walk covered completely.

use wbmem::{Machine, Process, SchedElem};

/// The reorder weight of taking `elem` at the machine's current state: `1`
/// if it is an operation element and the process's own buffer is
/// non-empty (the program overtakes its pending stores), `0` otherwise.
/// Commit and crash elements never weigh anything — they *resolve*
/// pending writes rather than race past them.
#[must_use]
pub fn step_weight<P: Process>(m: &Machine<P>, elem: SchedElem) -> u32 {
    if elem.crash || elem.reg.is_some() {
        return 0;
    }
    u32::from(!m.buffer_is_empty(elem.proc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fencevm::{Asm, VmProc};
    use wbmem::{MachineConfig, MemoryLayout, MemoryModel, ProcId, RegId};

    #[test]
    fn ops_over_a_nonempty_buffer_weigh_one() {
        let mut a = Asm::new("w2");
        a.write(0i64, 1i64);
        a.write(1i64, 2i64);
        a.fence();
        a.ret(0i64);
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
        let mut m = Machine::new(cfg, vec![VmProc::new(a.assemble().into())]);
        let p = ProcId(0);

        assert_eq!(step_weight(&m, SchedElem::op(p)), 0, "buffer still empty");
        m.step(SchedElem::op(p)); // first write buffered
        assert_eq!(step_weight(&m, SchedElem::op(p)), 1, "overtakes the store");
        assert_eq!(
            step_weight(&m, SchedElem::commit(p, RegId(0))),
            0,
            "commits resolve, never overtake"
        );
        assert_eq!(step_weight(&m, SchedElem::crash(p)), 0);
        m.step(SchedElem::commit(p, RegId(0)));
        assert_eq!(step_weight(&m, SchedElem::op(p)), 0, "drained again");
    }
}
