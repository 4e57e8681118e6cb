//! Static per-pc access analysis for assembled programs.
//!
//! The partial-order reduction engine (`crates/por`) needs to know, for a
//! process paused at instruction `pc`, which shared registers the process
//! could *ever* touch again, and whether performing the poised operation
//! could change the property-visible annotation. Both questions are answered
//! here once per [`Program`](crate::Program) — the first time either is
//! asked of it — by a value-insensitive fixpoint over the control-flow graph:
//!
//! * `Src::Imm` register operands contribute exactly that register;
//! * `Src::Loc` operands (dynamic addressing, e.g. array walks) poison the
//!   summary to "any register" — sound, and cheap to test against — and so
//!   does an immediate id at or above [`DENSE_REGS`], which the machine
//!   serves from its sparse side but a [`RegSet`] would size a bitset by;
//! * both branches of every conditional jump are followed.
//!
//! The summaries are over-approximations by construction: a register the
//! analysis misses would break the reduction's soundness, while a register
//! it over-reports only costs reduction.

use wbmem::reg::DENSE_REGS;
use wbmem::{RegId, RegSet};

use crate::instr::{Instr, Src};

/// The static access summary for one program point: everything the program
/// may read or write from this instruction (inclusive) onward.
#[derive(Clone, Debug, Default)]
pub(crate) struct PcSummary {
    /// Registers possibly read (plain reads, CAS, swap).
    pub reads: RegSet,
    /// Registers possibly written (writes, CAS, swap).
    pub writes: RegSet,
    /// The program may read a dynamically computed register.
    pub reads_all: bool,
    /// The program may write a dynamically computed register.
    pub writes_all: bool,
    /// Performing the memory operation at this pc may execute an `Annot`
    /// before control reaches the next memory operation.
    pub annot_next: bool,
}

/// The register a memory operand names statically, if the summary can
/// hold it; `None` makes the caller poison the summary.
fn static_reg(src: Src) -> Option<RegId> {
    match src {
        // An id past the dense range is real to the machine (its register
        // maps have a sparse side) but would size every `RegSet` of the
        // program by itself. A negative immediate is a malformed address
        // and panics at runtime, so over-reporting it costs nothing.
        Src::Imm(x) => usize::try_from(x)
            .ok()
            .filter(|&id| id < DENSE_REGS)
            .map(RegId::from),
        Src::Loc(_) => None,
    }
}

/// Control-flow successors of `pc` (instruction indices).
fn successors(instrs: &[Instr], pc: usize, out: &mut Vec<usize>) {
    out.clear();
    match instrs[pc] {
        Instr::Return { .. } => {}
        Instr::Jmp { target } => out.push(target),
        Instr::JmpIf { target, .. } => {
            out.push(target);
            if pc + 1 < instrs.len() {
                out.push(pc + 1);
            }
        }
        _ => {
            if pc + 1 < instrs.len() {
                out.push(pc + 1);
            }
        }
    }
}

/// Whether settling past the memory instruction at `pc` can execute an
/// `Annot` before the interpreter parks on the next memory instruction.
fn annot_reachable_internally(instrs: &[Instr], pc: usize) -> bool {
    if matches!(instrs[pc], Instr::Return { .. }) {
        return false; // returns never advance
    }
    let mut seen = vec![false; instrs.len()];
    let mut work = vec![pc + 1];
    let mut succ = Vec::new();
    while let Some(at) = work.pop() {
        if at >= instrs.len() || seen[at] {
            continue;
        }
        seen[at] = true;
        match instrs[at] {
            Instr::Annot { .. } => return true,
            // The walk stops at memory instructions: the interpreter parks
            // there and any annotation past them belongs to a later step.
            Instr::Read { .. }
            | Instr::Write { .. }
            | Instr::Fence
            | Instr::Cas { .. }
            | Instr::Swap { .. }
            | Instr::Return { .. } => {}
            Instr::Mov { .. }
            | Instr::Bin { .. }
            | Instr::Jmp { .. }
            | Instr::JmpIf { .. }
            | Instr::Nop => {
                successors(instrs, at, &mut succ);
                work.extend_from_slice(&succ);
            }
        }
    }
    false
}

/// Compute the per-pc summaries for `instrs` by backward fixpoint.
pub(crate) fn analyze(instrs: &[Instr]) -> Vec<PcSummary> {
    let mut summaries = vec![PcSummary::default(); instrs.len()];
    for (pc, ins) in instrs.iter().enumerate() {
        let s = &mut summaries[pc];
        match *ins {
            Instr::Read { addr, .. } => match static_reg(addr) {
                Some(r) => {
                    s.reads.insert(r);
                }
                None => s.reads_all = true,
            },
            Instr::Write { addr, .. } => match static_reg(addr) {
                Some(r) => {
                    s.writes.insert(r);
                }
                None => s.writes_all = true,
            },
            Instr::Cas { addr, .. } | Instr::Swap { addr, .. } => match static_reg(addr) {
                Some(r) => {
                    s.reads.insert(r);
                    s.writes.insert(r);
                }
                None => {
                    s.reads_all = true;
                    s.writes_all = true;
                }
            },
            _ => {}
        }
        s.annot_next = ins.is_memory() && annot_reachable_internally(instrs, pc);
    }
    // Propagate successor summaries until nothing grows. Processing in
    // reverse pc order converges in one pass for straight-line code and in
    // a handful for loops.
    let mut succ = Vec::new();
    loop {
        let mut grew = false;
        for pc in (0..instrs.len()).rev() {
            successors(instrs, pc, &mut succ);
            for &next in &succ {
                let (a, b) = if next > pc {
                    let (lo, hi) = summaries.split_at_mut(next);
                    (&mut lo[pc], &hi[0])
                } else if next < pc {
                    let (lo, hi) = summaries.split_at_mut(pc);
                    (&mut hi[0], &lo[next])
                } else {
                    continue; // self-loop contributes nothing new
                };
                grew |= a.reads.union_with(&b.reads);
                grew |= a.writes.union_with(&b.writes);
                grew |= !a.reads_all && b.reads_all;
                a.reads_all |= b.reads_all;
                grew |= !a.writes_all && b.writes_all;
                a.writes_all |= b.writes_all;
            }
        }
        if !grew {
            return summaries;
        }
    }
}

/// Union `extra` into every summary of `base` (used to fold the recovery
/// section's accesses into each pc's summary for crash-enabled machines).
pub(crate) fn union_summaries(base: &[PcSummary], extra: &PcSummary) -> Vec<PcSummary> {
    base.iter()
        .map(|s| {
            let mut u = s.clone();
            u.reads.union_with(&extra.reads);
            u.writes.union_with(&extra.writes);
            u.reads_all |= extra.reads_all;
            u.writes_all |= extra.writes_all;
            u
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::instr::CondOp;

    #[test]
    fn straight_line_summary_shrinks_toward_the_end() {
        let mut a = Asm::new("t");
        let t = a.local("t");
        a.read(0i64, t);
        a.write(1i64, t);
        a.fence();
        a.ret(t);
        let prog = a.assemble();
        let s = analyze(prog.instrs());
        assert!(s[0].reads.contains(RegId(0)) && s[0].writes.contains(RegId(1)));
        assert!(!s[1].reads.contains(RegId(0)), "the read is behind pc 1");
        assert!(s[1].writes.contains(RegId(1)));
        assert!(s[2].writes.is_empty() && s[2].reads.is_empty());
        assert!(!s[0].reads_all && !s[0].writes_all);
    }

    #[test]
    fn loops_reach_a_fixpoint_including_back_edges() {
        let mut a = Asm::new("spin");
        let t = a.local("t");
        let head = a.here();
        a.read(0i64, t);
        a.jmp_if(CondOp::Ne, t, 1i64, head);
        a.write(2i64, 1i64);
        a.ret(0i64);
        let prog = a.assemble();
        let s = analyze(prog.instrs());
        // From inside the loop, both the loop read and the exit write are
        // future accesses.
        assert!(s[0].reads.contains(RegId(0)));
        assert!(s[0].writes.contains(RegId(2)));
        assert!(s[2].writes.contains(RegId(2)) && !s[2].reads.contains(RegId(0)));
    }

    #[test]
    fn dynamic_addressing_poisons_the_summary() {
        let mut a = Asm::new("dyn");
        let addr = a.local("addr");
        let t = a.local("t");
        a.mov(addr, 7i64);
        a.read(addr, t);
        a.ret(0i64);
        let prog = a.assemble();
        let s = analyze(prog.instrs());
        assert!(s[0].reads_all, "Loc-addressed read may touch anything");
        assert!(!s[0].writes_all);
    }

    #[test]
    fn a_register_id_past_the_dense_range_poisons_instead_of_sizing_a_bitset() {
        let stray = i64::from(u32::MAX - 1);
        let last_dense = i64::try_from(DENSE_REGS - 1).expect("fits");
        let mut a = Asm::new("stray");
        let t = a.local("t");
        a.read(stray, t);
        a.write(last_dense + 1, t);
        a.write(last_dense, t);
        a.ret(t);
        let prog = a.assemble();
        let s = analyze(prog.instrs());
        assert!(s[0].reads_all && s[0].writes_all);
        assert!(!s[1].reads_all && s[1].writes_all);
        assert!(!s[2].reads_all && !s[2].writes_all);
        assert!(s[0].writes.contains(RegId::from(DENSE_REGS - 1)));
        for summary in &s {
            // `insert` sets the bit it sizes the set for, so a set that
            // holds no such id was never grown past the dense range.
            assert!(summary.reads.is_empty());
            assert!(summary.writes.iter().all(|r| r.index() < DENSE_REGS));
        }
    }

    #[test]
    fn annot_between_memory_steps_is_flagged() {
        let mut a = Asm::new("annots");
        let t = a.local("t");
        a.read(0i64, t); // advancing runs annot(1) below
        a.annot(1);
        a.fence(); // advancing runs annot(0)
        a.annot(0);
        a.ret(0i64);
        let prog = a.assemble();
        let s = analyze(prog.instrs());
        assert!(s[0].annot_next);
        assert!(s[2].annot_next);
        assert!(!s[4].annot_next, "returns never advance");
    }

    #[test]
    fn annot_behind_a_branch_is_still_flagged() {
        let mut a = Asm::new("maybe");
        let t = a.local("t");
        let skip = a.label();
        a.read(0i64, t);
        a.jmp_if(CondOp::Eq, t, 0i64, skip);
        a.annot(1);
        a.bind(skip);
        a.fence();
        a.ret(0i64);
        let prog = a.assemble();
        let s = analyze(prog.instrs());
        assert!(s[0].annot_next, "one branch reaches the annot");
        assert!(!s[4].annot_next, "the fence's advance passes no annot");
    }
}
