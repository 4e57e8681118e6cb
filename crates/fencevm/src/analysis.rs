//! Static per-pc access analysis for assembled programs.
//!
//! The partial-order reduction engine (`crates/por`) needs to know, for a
//! process paused at instruction `pc`, which shared registers the process
//! could *ever* touch again, and whether performing the poised operation
//! could change the property-visible annotation. Both questions are answered
//! here once per [`Program`](crate::Program) — the first time either is
//! asked of it — in two passes over the control-flow graph:
//!
//! 1. **Forward, the range of every local**: one `lo..=hi` interval per
//!    local per pc, starting from zeroed locals at the only two places a
//!    process's locals are set — pc 0 ([`VmProc::new`]) and the recovery
//!    entry ([`crash_recover`]). `Mov` and `Bin` `Add`/`Sub`/`Min`/`Max` are
//!    exact (a bound that overflows becomes unbounded: the interpreter
//!    panics there); every other `Bin`, and the value a `Read`/`Cas`/`Swap`
//!    delivers, is unbounded. A conditional jump narrows both outgoing
//!    edges and drops an edge whose condition can never hold. A backward
//!    jump into a pc that has already changed a few times widens every
//!    bound still moving to ±∞, so each loop converges.
//! 2. **Backward, what is left to touch**: a memory operand contributes the
//!    registers its range can name — exactly one for an immediate, the
//!    array an index walks for `base + j` — and poisons the summary to "any
//!    register" only when its range is unbounded, i.e. reaches
//!    [`DENSE_REGS`] (the machine serves such ids from its sparse side,
//!    but a [`RegSet`] would size a bitset by them). An address read from
//!    memory, such as MCS's successor pointer or a queue's tail, stays
//!    poisoned. A pc the forward pass never reaches contributes nothing.
//!    Every successor's summary is folded in until nothing grows.
//!
//! The summaries are over-approximations by construction: a register the
//! analysis misses would break the reduction's soundness, while a register
//! it over-reports only costs reduction.
//!
//! [`VmProc::new`]: crate::VmProc::new
//! [`crash_recover`]: wbmem::Process::crash_recover

use wbmem::reg::DENSE_REGS;
use wbmem::{RegId, RegSet};

use crate::instr::{BinOp, CondOp, Instr, Src};

/// The static access summary for one program point: everything the program
/// may read or write from this instruction (inclusive) onward.
#[derive(Clone, Debug, Default)]
pub(crate) struct PcSummary {
    /// Registers possibly read (plain reads, CAS, swap).
    pub reads: RegSet,
    /// Registers possibly written (writes, CAS, swap).
    pub writes: RegSet,
    /// The program may read a register no bounded range names.
    pub reads_all: bool,
    /// The program may write a register no bounded range names.
    pub writes_all: bool,
    /// Performing the memory operation at this pc may execute an `Annot`
    /// before control reaches the next memory operation.
    pub annot_next: bool,
}

/// The values a local may hold at a program point: `lo..=hi`. A live
/// process only ever holds an `i64` (an overflowing `Bin` panics), so
/// `i64::MIN` and `i64::MAX` double as "unbounded".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Range {
    lo: i64,
    hi: i64,
}

impl Range {
    const ANY: Range = Range {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    const fn exactly(x: i64) -> Self {
        Range { lo: x, hi: x }
    }

    fn join(self, other: Range) -> Range {
        Range {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The join, with every bound `other` pushes outward sent to ±∞.
    fn widen(self, other: Range) -> Range {
        Range {
            lo: if other.lo < self.lo {
                i64::MIN
            } else {
                self.lo
            },
            hi: if other.hi > self.hi {
                i64::MAX
            } else {
                self.hi
            },
        }
    }

    /// The values in both, if there are any.
    fn meet(self, other: Range) -> Option<Range> {
        let r = Range {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        };
        (r.lo <= r.hi).then_some(r)
    }

    /// The range of `a op b`. Saturating is exact up to the overflow the
    /// interpreter would panic on.
    fn apply(op: BinOp, a: Range, b: Range) -> Range {
        match op {
            BinOp::Add => Range {
                lo: a.lo.saturating_add(b.lo),
                hi: a.hi.saturating_add(b.hi),
            },
            BinOp::Sub => Range {
                lo: a.lo.saturating_sub(b.hi),
                hi: a.hi.saturating_sub(b.lo),
            },
            BinOp::Min => Range {
                lo: a.lo.min(b.lo),
                hi: a.hi.min(b.hi),
            },
            BinOp::Max => Range {
                lo: a.lo.max(b.lo),
                hi: a.hi.max(b.hi),
            },
            BinOp::Mul | BinOp::Div | BinOp::Rem => Range::ANY,
        }
    }
}

/// The range of `src` where the locals range over `locals`.
fn range_of(locals: &[Range], src: Src) -> Range {
    match src {
        Src::Imm(x) => Range::exactly(x),
        Src::Loc(l) => locals[l.0],
    }
}

/// `a` and `b` cut down to the values for which `a cond b` can hold, or
/// `None` if it never can.
fn narrow(cond: CondOp, a: Range, b: Range) -> Option<(Range, Range)> {
    let at_most = |hi| Range { lo: i64::MIN, hi };
    let at_least = |lo| Range { lo, hi: i64::MAX };
    match cond {
        CondOp::Eq => a.meet(b).map(|both| (both, both)),
        CondOp::Ne => (a.lo != a.hi || a != b).then_some((a, b)),
        CondOp::Lt => Some((
            a.meet(at_most(b.hi.saturating_sub(1)))?,
            b.meet(at_least(a.lo.saturating_add(1)))?,
        )),
        CondOp::Le => Some((a.meet(at_most(b.hi))?, b.meet(at_least(a.lo))?)),
        CondOp::Gt => narrow(CondOp::Lt, b, a).map(|(b, a)| (a, b)),
        CondOp::Ge => narrow(CondOp::Le, b, a).map(|(b, a)| (a, b)),
    }
}

/// Narrow the locals in `out` to the values under which `a cond b` holds;
/// `false` if it never does, and the edge is not taken.
fn assume(out: &mut [Range], cond: CondOp, a: Src, b: Src) -> bool {
    let Some((ra, rb)) = narrow(cond, range_of(out, a), range_of(out, b)) else {
        return false;
    };
    if let Src::Loc(l) = a {
        out[l.0] = ra;
    }
    if let Src::Loc(l) = b {
        // `a` may be the same local.
        let Some(r) = out[l.0].meet(rb) else {
            return false;
        };
        out[l.0] = r;
    }
    true
}

/// The condition under which a conditional jump falls through.
fn negation(cond: CondOp) -> CondOp {
    match cond {
        CondOp::Eq => CondOp::Ne,
        CondOp::Ne => CondOp::Eq,
        CondOp::Lt => CondOp::Ge,
        CondOp::Le => CondOp::Gt,
        CondOp::Gt => CondOp::Le,
        CondOp::Ge => CondOp::Lt,
    }
}

/// Apply the effect of `ins`, a non-jump, on the locals in `out`.
fn transfer(ins: &Instr, out: &mut [Range]) {
    match *ins {
        Instr::Mov { dst, src } => out[dst.0] = range_of(out, src),
        Instr::Bin { op, dst, a, b } => {
            out[dst.0] = Range::apply(op, range_of(out, a), range_of(out, b));
        }
        Instr::Read { dst, .. } | Instr::Cas { dst, .. } | Instr::Swap { dst, .. } => {
            out[dst.0] = Range::ANY;
        }
        _ => {}
    }
}

/// Changes a pc absorbs before a backward jump into it widens.
const WIDEN_AFTER: u8 = 3;

/// The forward pass: the range of every local at every pc, row by row.
struct LocalRanges {
    locals: usize,
    table: Vec<Range>,
    /// How often each pc's row changed; 0 means the pc is unreachable and
    /// its row meaningless.
    changes: Vec<u8>,
}

impl LocalRanges {
    /// The ranges of the locals at `pc`, or `None` if no execution gets
    /// there.
    fn at(&self, pc: usize) -> Option<&[Range]> {
        (self.changes[pc] > 0).then(|| &self.table[pc * self.locals..][..self.locals])
    }

    /// Join `out`, the state leaving `from`, into the row of `to`; whether
    /// that row changed.
    fn flow(&mut self, from: usize, to: usize, out: &[Range]) -> bool {
        let row = &mut self.table[to * self.locals..][..self.locals];
        let changes = &mut self.changes[to];
        let changed = if *changes == 0 {
            row.copy_from_slice(out);
            true
        } else {
            let widen = to <= from && *changes >= WIDEN_AFTER;
            let mut changed = false;
            for (r, &o) in row.iter_mut().zip(out) {
                let next = if widen { r.widen(o) } else { r.join(o) };
                changed |= next != *r;
                *r = next;
            }
            changed
        };
        if changed {
            *changes = changes.saturating_add(1);
        }
        changed
    }
}

/// Run the forward pass over `instrs` with `locals` local slots, entered
/// at pc 0 and at `recovery` with every local zero. Allocates the table,
/// the change counts and one scratch row, whatever the program's loops.
fn local_ranges(instrs: &[Instr], locals: usize, recovery: usize) -> LocalRanges {
    let len = instrs.len();
    let mut ranges = LocalRanges {
        locals,
        table: vec![Range::exactly(0); len * locals],
        changes: vec![0; len],
    };
    ranges.changes[0] = 1;
    ranges.changes[recovery] = 1;
    let mut out = vec![Range::ANY; locals];
    let mut moved = true;
    while moved {
        moved = false;
        for (pc, ins) in instrs.iter().enumerate() {
            let Some(row) = ranges.at(pc) else {
                continue;
            };
            out.copy_from_slice(row);
            match *ins {
                Instr::Return { .. } => {}
                Instr::Jmp { target } => moved |= ranges.flow(pc, target, &out),
                Instr::JmpIf { cond, a, b, target } => {
                    if assume(&mut out, cond, a, b) {
                        moved |= ranges.flow(pc, target, &out);
                    }
                    if pc + 1 < len {
                        out.copy_from_slice(ranges.at(pc).expect("reached"));
                        if assume(&mut out, negation(cond), a, b) {
                            moved |= ranges.flow(pc, pc + 1, &out);
                        }
                    }
                }
                _ => {
                    transfer(ins, &mut out);
                    if pc + 1 < len {
                        moved |= ranges.flow(pc, pc + 1, &out);
                    }
                }
            }
        }
    }
    ranges
}

/// Add the registers an address ranging over `r` can name to `set`, or
/// set `all` if the range is unbounded. A negative id names no register
/// (the interpreter panics on it).
fn add_registers(r: Range, set: &mut RegSet, all: &mut bool) {
    let Ok(hi) = usize::try_from(r.hi) else {
        return;
    };
    if hi >= DENSE_REGS {
        *all = true;
        return;
    }
    // Highest first, so the set is sized once.
    for id in (usize::try_from(r.lo).unwrap_or(0)..=hi).rev() {
        set.insert(RegId::from(id));
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

/// Compute the per-pc summaries of `instrs`, a program with `locals` local
/// slots and its recovery entry at `recovery`.
pub(crate) fn analyze(instrs: &[Instr], locals: usize, recovery: usize) -> Vec<PcSummary> {
    let ranges = local_ranges(instrs, locals, recovery);
    let mut summaries = vec![PcSummary::default(); instrs.len()];
    for (pc, ins) in instrs.iter().enumerate() {
        let s = &mut summaries[pc];
        if let Some(row) = ranges.at(pc) {
            match *ins {
                Instr::Read { addr, .. } => {
                    add_registers(range_of(row, addr), &mut s.reads, &mut s.reads_all);
                }
                Instr::Write { addr, .. } => {
                    add_registers(range_of(row, addr), &mut s.writes, &mut s.writes_all);
                }
                Instr::Cas { addr, .. } | Instr::Swap { addr, .. } => {
                    add_registers(range_of(row, addr), &mut s.reads, &mut s.reads_all);
                    add_registers(range_of(row, addr), &mut s.writes, &mut s.writes_all);
                }
                _ => {}
            }
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
    use crate::program::Program;

    /// The summaries of an assembled program, as `Program::summary` builds
    /// them.
    fn summarize(prog: &Program) -> Vec<PcSummary> {
        analyze(prog.instrs(), prog.locals_len(), prog.recovery())
    }

    /// The pcs of the `Read`s whose address is a local, in program order.
    fn computed_reads(prog: &Program) -> Vec<usize> {
        (0..prog.instrs().len())
            .filter(|&pc| {
                matches!(
                    prog.instrs()[pc],
                    Instr::Read {
                        addr: Src::Loc(_),
                        ..
                    }
                )
            })
            .collect()
    }

    fn regs(ids: impl IntoIterator<Item = i64>) -> RegSet {
        ids.into_iter()
            .map(|id| RegId::from(usize::try_from(id).expect("a register id")))
            .collect()
    }

    /// One Bakery node for `slot` of `n`, emitted as `simlocks::Bakery`
    /// does: the doorway's scan of `T`, and — with `wait` — the loop that
    /// waits on every other slot's `C` and `T`.
    fn bakery(a: &mut Asm, (c, t_base): (i64, i64), n: i64, slot: i64, wait: bool) {
        let tmp = a.local("tmp");
        let j = a.local("j");
        let addr = a.local("addr");
        let t = a.local("t");
        a.write(c + slot, 1i64);
        a.fence();
        a.mov(tmp, 1i64);
        a.mov(j, 0i64);
        let scan_end = a.label();
        let scan = a.here();
        a.jmp_if(CondOp::Ge, j, n, scan_end);
        a.add(addr, j, t_base);
        a.read(addr, t);
        a.add(t, t, 1i64);
        a.max(tmp, tmp, t);
        a.add(j, j, 1i64);
        a.jmp(scan);
        a.bind(scan_end);
        a.write(t_base + slot, tmp);
        a.fence();
        a.write(c + slot, 0i64);
        a.fence();
        if !wait {
            return;
        }
        a.mov(j, 0i64);
        let wait_end = a.label();
        let head = a.here();
        a.jmp_if(CondOp::Ge, j, n, wait_end);
        let next = a.label();
        a.jmp_if(CondOp::Eq, j, slot, next);
        let spin_c = a.here();
        a.add(addr, j, c);
        a.read(addr, t);
        a.jmp_if(CondOp::Ne, t, 0i64, spin_c);
        let spin_t = a.here();
        a.add(addr, j, t_base);
        a.read(addr, t);
        a.jmp_if(CondOp::Eq, t, 0i64, next);
        a.jmp_if(CondOp::Lt, tmp, t, next);
        a.jmp_if(CondOp::Gt, tmp, t, spin_t);
        a.jmp_if(CondOp::Lt, slot, j, next);
        a.jmp(spin_t);
        a.bind(next);
        a.add(j, j, 1i64);
        a.jmp(head);
        a.bind(wait_end);
    }

    #[test]
    fn straight_line_summary_shrinks_toward_the_end() {
        let mut a = Asm::new("t");
        let t = a.local("t");
        a.read(0i64, t);
        a.write(1i64, t);
        a.fence();
        a.ret(t);
        let s = summarize(&a.assemble());
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
        let s = summarize(&a.assemble());
        // From inside the loop, both the loop read and the exit write are
        // future accesses.
        assert!(s[0].reads.contains(RegId(0)));
        assert!(s[0].writes.contains(RegId(2)));
        assert!(s[2].writes.contains(RegId(2)) && !s[2].reads.contains(RegId(0)));
    }

    #[test]
    fn a_local_address_names_its_range_and_one_read_from_memory_poisons() {
        let mut a = Asm::new("dyn");
        let addr = a.local("addr");
        let t = a.local("t");
        a.mov(addr, 7i64);
        a.read(addr, t);
        a.read(0i64, addr);
        a.write(addr, 1i64);
        a.ret(0i64);
        let s = summarize(&a.assemble());
        assert_eq!(s[1].reads, regs([7, 0]), "a moved constant is exact");
        assert!(!s[1].reads_all);
        assert!(s[1].writes_all, "the write's address was read from memory");
        assert!(s[3].writes_all && s[3].writes.is_empty());
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
        let s = summarize(&a.assemble());
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
    fn a_bakery_scan_reads_its_ticket_array_and_its_wait_loop_c_and_t() {
        let (c, t, n, slot) = (10, 20, 3, 1);
        let mut a = Asm::new("doorway");
        bakery(&mut a, (c, t), n, slot, false);
        a.ret(0i64);
        let prog = a.assemble();
        let s = summarize(&prog);
        let [scan] = computed_reads(&prog)[..] else {
            panic!("one computed read");
        };
        assert_eq!(s[scan].reads, regs(t..t + n), "exactly T");
        assert_eq!(s[scan].writes, regs([c + slot, t + slot]));
        assert!(!s[scan].reads_all && !s[scan].writes_all);

        let mut a = Asm::new("acquire");
        bakery(&mut a, (c, t), n, slot, true);
        a.ret(0i64);
        let prog = a.assemble();
        let s = summarize(&prog);
        let [_, spin_c, spin_t] = computed_reads(&prog)[..] else {
            panic!("three computed reads");
        };
        let c_and_t = regs((c..c + n).chain(t..t + n));
        assert_eq!(s[spin_c].reads, c_and_t, "exactly C ∪ T");
        assert_eq!(s[spin_t].reads, c_and_t, "the wait loop goes back to C");
        assert!(s[spin_c].writes.is_empty() && !s[spin_c].reads_all);
    }

    #[test]
    fn a_filter_scan_reads_its_level_array() {
        let (level, victim, n, who) = (4, 8, 3, 0);
        let mut a = Asm::new("filter");
        let (t, k, addr) = (a.local("t"), a.local("k"), a.local("addr"));
        a.write(level + who, 2i64);
        a.fence();
        a.write(victim + 2, 1 + who);
        a.fence();
        let next_level = a.label();
        let spin = a.here();
        a.read(victim + 2, t);
        a.jmp_if(CondOp::Ne, t, 1 + who, next_level);
        a.mov(k, 0i64);
        let scan = a.here();
        a.jmp_if(CondOp::Ge, k, n, next_level);
        let advance = a.label();
        a.jmp_if(CondOp::Eq, k, who, advance);
        a.add(addr, k, level);
        a.read(addr, t);
        a.jmp_if(CondOp::Ge, t, 2i64, spin);
        a.bind(advance);
        a.add(k, k, 1i64);
        a.jmp(scan);
        a.bind(next_level);
        a.ret(0i64);
        let prog = a.assemble();
        let s = summarize(&prog);
        let [read] = computed_reads(&prog)[..] else {
            panic!("one computed read");
        };
        let mut expected = regs(level..level + n);
        expected.insert(RegId(8 + 2)); // the spin it loops back to
        assert_eq!(s[read].reads, expected);
        assert!(!s[read].reads_all && s[read].writes.is_empty());
    }

    #[test]
    fn an_mcs_handover_write_stays_writes_all() {
        // release: if my successor pointer is set, clear its `locked` flag
        // — an address read from memory.
        let (next, tail) = (5i64, 6i64);
        let mut a = Asm::new("mcs_release");
        let succ = a.local("succ");
        let done = a.label();
        a.read(next, succ);
        a.jmp_if(CondOp::Eq, succ, 0i64, done);
        a.write(succ, 0i64);
        a.fence();
        a.bind(done);
        a.write(tail, 0i64);
        a.ret(0i64);
        let s = summarize(&a.assemble());
        assert!(s[0].writes_all && s[2].writes_all);
        assert!(!s[0].reads_all);
        assert!(!s[4].writes_all, "past the handover");
    }

    #[test]
    fn an_infeasible_branch_contributes_nothing() {
        let mut a = Asm::new("dead");
        let i = a.local("i");
        let t = a.local("t");
        let never = a.label();
        let sometimes = a.label();
        a.mov(i, 3i64);
        a.jmp_if(CondOp::Gt, i, 5i64, never);
        a.read(0i64, t);
        a.jmp_if(CondOp::Eq, t, 0i64, sometimes);
        a.write(1i64, i);
        a.bind(sometimes);
        a.ret(0i64);
        a.bind(never);
        a.write(9i64, 1i64);
        a.ret(0i64);
        let s = summarize(&a.assemble());
        assert_eq!(s[0].writes, regs([1]), "3 > 5 never holds");
        assert_eq!(s[0].reads, regs([0]), "the fall-through is followed");
    }

    #[test]
    fn the_recovery_entry_starts_from_zeroed_locals() {
        // The normal path leaves `addr` at 7; a crash restarts at the
        // recovery entry with it wiped, and only a crash gets there.
        let mut a = Asm::new("recover");
        let addr = a.local("addr");
        a.mov(addr, 7i64);
        a.write(addr, 1i64);
        a.fence();
        a.ret(0i64);
        a.recovery_here();
        a.write(addr, 2i64);
        a.fence();
        a.ret(1i64);
        let prog = a.assemble();
        let s = summarize(&prog);
        assert_eq!(s[1].writes, regs([7]));
        assert_eq!(s[prog.recovery()].writes, regs([0]));
    }

    #[test]
    fn a_nested_loop_terminates_under_widening() {
        // for i in 0..4 { for j in 0..i { read [10 + j]; k += 1 } }
        // read [100 + k]: `j` is bounded by the guards, `k` by nothing.
        let mut a = Asm::new("nested");
        let (i, j, k, addr, t) = (
            a.local("i"),
            a.local("j"),
            a.local("k"),
            a.local("addr"),
            a.local("t"),
        );
        let (outer_end, inner_end) = (a.label(), a.label());
        let outer = a.here();
        a.jmp_if(CondOp::Ge, i, 4i64, outer_end);
        a.mov(j, 0i64);
        let inner = a.here();
        a.jmp_if(CondOp::Ge, j, i, inner_end);
        a.add(addr, j, 10i64);
        a.read(addr, t);
        a.add(k, k, 1i64);
        a.add(j, j, 1i64);
        a.jmp(inner);
        a.bind(inner_end);
        a.add(i, i, 1i64);
        a.jmp(outer);
        a.bind(outer_end);
        a.add(addr, k, 100i64);
        a.read(addr, t);
        a.ret(0i64);
        let prog = a.assemble();
        let s = summarize(&prog);
        let [inner_read, last] = computed_reads(&prog)[..] else {
            panic!("two computed reads");
        };
        assert!(s[last].reads_all, "k grows without a bound");
        assert!(s[last].reads.is_empty());
        assert_eq!(s[inner_read].reads, regs(10..13), "j < i ≤ 3");
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
        let s = summarize(&a.assemble());
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
        let s = summarize(&a.assemble());
        assert!(s[0].annot_next, "one branch reaches the annot");
        assert!(!s[4].annot_next, "the fence's advance passes no annot");
    }
}
