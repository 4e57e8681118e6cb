//! The interpreter: a [`Program`] instance implementing [`wbmem::Process`].

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use wbmem::{AccessSet, FutureAccess, Poised, Process, RegId, Value};

use crate::instr::{Instr, Loc, Src};
use crate::program::Program;

/// Safety bound on consecutive internal instructions: a loop with no memory
/// instruction in its body is a programming error (the machine could never
/// schedule it fairly), so the interpreter panics rather than spinning.
const MAX_INTERNAL_RUN: usize = 1_000_000;

/// Locals held inline in a [`VmProc`]: enough for every lock the model
/// checker and the benchmark run, alone or protecting a counter (`simlocks`
/// holds itself to that in a test). `GT_f` declares 4f + 1, so `GT_2` is
/// the tallest tree that fits; the taller ones of the β/ρ sweeps, which
/// never clone a process, spill.
pub const INLINE_LOCALS: usize = 10;

/// A process's local variables. Up to [`INLINE_LOCALS`] live in a fixed
/// array, so cloning a [`VmProc`] — which every recorded machine step, every
/// machine clone and every state key does — allocates nothing; programs
/// that declare more spill to the heap.
#[derive(Debug)]
enum Locals {
    Inline { len: u8, vals: [i64; INLINE_LOCALS] },
    Heap(Vec<i64>),
}

impl Clone for Locals {
    fn clone(&self) -> Self {
        match self {
            Locals::Inline { len, vals } => Locals::Inline {
                len: *len,
                vals: *vals,
            },
            Locals::Heap(v) => Locals::Heap(v.clone()),
        }
    }

    /// Copies inline locals in place and reuses a spilled vector's
    /// allocation.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Locals::Inline { len, vals }, Locals::Inline { len: l, vals: v }) => {
                *len = *l;
                *vals = *v;
            }
            (Locals::Heap(v), Locals::Heap(from)) => v.clone_from(from),
            (this, source) => *this = source.clone(),
        }
    }
}

impl Locals {
    fn zeroed(len: usize) -> Self {
        match u8::try_from(len) {
            Ok(len8) if len <= INLINE_LOCALS => Locals::Inline {
                len: len8,
                vals: [0; INLINE_LOCALS],
            },
            _ => Locals::Heap(vec![0; len]),
        }
    }
}

impl std::ops::Deref for Locals {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        match self {
            Locals::Inline { len, vals } => &vals[..usize::from(*len)],
            Locals::Heap(v) => v,
        }
    }
}

impl std::ops::DerefMut for Locals {
    fn deref_mut(&mut self) -> &mut [i64] {
        match self {
            Locals::Inline { len, vals } => &mut vals[..usize::from(*len)],
            Locals::Heap(v) => v,
        }
    }
}

/// One executing instance of a [`Program`].
///
/// The interpreter maintains the invariant that between machine steps the
/// program counter always rests on a *memory* instruction (a `Return`
/// included): internal instructions are executed eagerly — they model free
/// local computation. The instruction it rests on is decoded once, when it
/// gets there: its operation (addresses and operands evaluated) and the
/// local a read, CAS or swap stores into are kept beside the pc, so
/// [`Process::poised`] is a field read and [`Process::advance`] fetches no
/// instruction.
///
/// Equality and hashing cover the dynamic state (pc, locals, annotation)
/// plus the identity of the shared program, making `VmProc` usable as a
/// model-checker state component. States of processes running *different*
/// program instances compare unequal even if textually identical. The
/// decoded operation is a function of those and is left out of both.
#[derive(Debug)]
pub struct VmProc {
    prog: Arc<Program>,
    pc: usize,
    locals: Locals,
    annot: u64,
    /// The memory instruction at `pc`, decoded.
    op: Poised,
    /// The local the value `op` observes lands in (reads, CAS, swap).
    dst: Option<Loc>,
}

impl Clone for VmProc {
    fn clone(&self) -> Self {
        VmProc {
            prog: Arc::clone(&self.prog),
            pc: self.pc,
            locals: self.locals.clone(),
            annot: self.annot,
            op: self.op,
            dst: self.dst,
        }
    }

    /// Overwrites the dynamic state. When `source` runs the same program
    /// instance — the machine's undo trail saves and restores a process
    /// this way on every step — the shared program's reference count is
    /// not touched.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.prog, &source.prog) {
            self.prog = Arc::clone(&source.prog);
        }
        self.pc = source.pc;
        self.locals.clone_from(&source.locals);
        self.annot = source.annot;
        self.op = source.op;
        self.dst = source.dst;
    }
}

impl VmProc {
    /// Start `prog` at its first instruction with zeroed locals.
    #[must_use]
    pub fn new(prog: Arc<Program>) -> Self {
        let locals = Locals::zeroed(prog.locals_len());
        let mut p = VmProc {
            prog,
            pc: 0,
            locals,
            annot: 0,
            op: Poised::Done,
            dst: None,
        };
        p.settle();
        p
    }

    /// The underlying program.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// The current program counter (always at a memory instruction or a
    /// `Return`).
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Current value of a local variable (for tests and debugging).
    #[must_use]
    pub fn local(&self, l: Loc) -> i64 {
        self.locals[l.0]
    }

    fn eval(&self, src: Src) -> i64 {
        match src {
            Src::Imm(x) => x,
            Src::Loc(l) => self.locals[l.0],
        }
    }

    fn eval_reg(&self, src: Src) -> RegId {
        let x = self.eval(src);
        let id = u32::try_from(x).unwrap_or_else(|_| {
            panic!(
                "program {}: invalid register id {x} at pc {}",
                self.prog.name(),
                self.pc
            )
        });
        RegId(id)
    }

    fn eval_nonneg(&self, src: Src) -> u64 {
        let x = self.eval(src);
        u64::try_from(x).unwrap_or_else(|_| {
            panic!(
                "program {}: negative value {x} at pc {}",
                self.prog.name(),
                self.pc
            )
        })
    }

    /// The operation of memory instruction `ins` at the current state, and
    /// the local it stores an observed value into.
    fn decode(&self, ins: &Instr) -> (Poised, Option<Loc>) {
        match *ins {
            Instr::Read { addr, dst } => (Poised::Read(self.eval_reg(addr)), Some(dst)),
            Instr::Write { addr, val } => (
                Poised::Write(self.eval_reg(addr), Value::Int(self.eval_nonneg(val))),
                None,
            ),
            Instr::Fence => (Poised::Fence, None),
            Instr::Cas {
                addr,
                expected,
                new,
                dst,
            } => (
                Poised::Cas {
                    reg: self.eval_reg(addr),
                    expected: self.eval_nonneg(expected),
                    new: Value::Int(self.eval_nonneg(new)),
                },
                Some(dst),
            ),
            Instr::Swap { addr, new, dst } => (
                Poised::Swap {
                    reg: self.eval_reg(addr),
                    new: Value::Int(self.eval_nonneg(new)),
                },
                Some(dst),
            ),
            Instr::Return { val } => (Poised::Return(self.eval_nonneg(val)), None),
            ref other => unreachable!(
                "program {}: pc rests on internal instruction {other:?}",
                self.prog.name()
            ),
        }
    }

    /// Store `value` in local `dst`; returns whether that changed it.
    fn set_local(&mut self, dst: Loc, value: i64) -> bool {
        let slot = &mut self.locals[dst.0];
        let changed = *slot != value;
        *slot = value;
        changed
    }

    /// Execute internal instructions until the pc rests on a memory
    /// instruction, and decode that one into `op` and `dst`. Returns
    /// whether a local or the annotation took a different value on the way.
    fn settle(&mut self) -> bool {
        let mut changed = false;
        for _ in 0..MAX_INTERNAL_RUN {
            let Some(ins) = self.prog.instrs().get(self.pc) else {
                panic!(
                    "program {} fell off the end without a return",
                    self.prog.name()
                );
            };
            match *ins {
                Instr::Read { .. }
                | Instr::Write { .. }
                | Instr::Fence
                | Instr::Cas { .. }
                | Instr::Swap { .. }
                | Instr::Return { .. } => {
                    (self.op, self.dst) = self.decode(ins);
                    return changed;
                }
                Instr::Mov { dst, src } => {
                    changed |= self.set_local(dst, self.eval(src));
                    self.pc += 1;
                }
                Instr::Bin { op, dst, a, b } => {
                    changed |= self.set_local(dst, op.apply(self.eval(a), self.eval(b)));
                    self.pc += 1;
                }
                Instr::Jmp { target } => self.pc = target,
                Instr::JmpIf { cond, a, b, target } => {
                    if cond.eval(self.eval(a), self.eval(b)) {
                        self.pc = target;
                    } else {
                        self.pc += 1;
                    }
                }
                Instr::Annot { value } => {
                    changed |= self.annot != value;
                    self.annot = value;
                    self.pc += 1;
                }
                Instr::Nop => self.pc += 1,
            }
        }
        panic!(
            "program {}: more than {MAX_INTERNAL_RUN} consecutive internal instructions \
             (loop without a memory operation?)",
            self.prog.name()
        );
    }
}

impl Process for VmProc {
    #[inline]
    fn poised(&self) -> Poised {
        self.op
    }

    fn advance(&mut self, read_value: Option<Value>) {
        self.advance_idle(read_value);
    }

    /// Idle when the step brought the pc back to where it was and no
    /// store into a local, and no annotation, changed a value. A run
    /// that changes a local and changes it back reports a change.
    fn advance_idle(&mut self, read_value: Option<Value>) -> bool {
        // The machine records returns itself and never calls advance for
        // them; a return here is a bug in the caller.
        assert!(
            !matches!(self.op, Poised::Return(_)),
            "advance called on a return instruction"
        );
        let pc = self.pc;
        let mut changed = match self.dst {
            Some(dst) => {
                let v = read_value.expect("read/cas step must supply the observed value");
                let payload = i64::try_from(v.payload()).expect("payload fits in i64");
                self.set_local(dst, payload)
            }
            None => {
                debug_assert!(read_value.is_none());
                false
            }
        };
        self.pc += 1;
        changed |= self.settle();
        !changed && self.pc == pc
    }

    fn annotation(&self) -> u64 {
        self.annot
    }

    fn obs_pc(&self) -> Option<u32> {
        u32::try_from(self.pc).ok()
    }

    fn future_access(&self, include_recovery: bool) -> FutureAccess<'_> {
        let s = self.prog.summary(self.pc, include_recovery);
        FutureAccess {
            reads: if s.reads_all {
                AccessSet::All
            } else {
                AccessSet::Set(&s.reads)
            },
            writes: if s.writes_all {
                AccessSet::All
            } else {
                AccessSet::Set(&s.writes)
            },
        }
    }

    fn op_may_annotate(&self) -> bool {
        self.prog.summary(self.pc, false).annot_next
    }

    fn recoverable(&self) -> bool {
        true
    }

    fn crash_recover(&mut self) {
        // A crash wipes all volatile state: locals, annotation, and the
        // program counter, which restarts at the declared recovery section
        // (the program start by default).
        self.pc = self.prog.recovery();
        self.locals.iter_mut().for_each(|l| *l = 0);
        self.annot = 0;
        self.settle();
    }
}

impl PartialEq for VmProc {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.prog, &other.prog)
            && self.pc == other.pc
            && *self.locals == *other.locals
            && self.annot == other.annot
    }
}

impl Eq for VmProc {}

impl Hash for VmProc {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The program's content digest, not the Arc address: addresses
        // differ across OS processes (ASLR), and a resumed checkpoint
        // compares state fingerprints computed in different processes.
        // Equality stays instance-based (`Arc::ptr_eq`); equal instances
        // share a digest, so the Hash/Eq contract holds.
        self.prog.digest().hash(state);
        self.pc.hash(state);
        state.write_usize(self.locals.len());
        for &l in self.locals.iter() {
            state.write_i64(l);
        }
        self.annot.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::instr::CondOp;
    use wbmem::{Machine, MachineConfig, MemoryLayout, MemoryModel, ProcId, SchedElem};

    fn pso() -> MachineConfig {
        MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned())
    }

    #[test]
    fn straight_line_program_runs() {
        let mut asm = Asm::new("t");
        let x = asm.local("x");
        asm.mov(x, 20i64);
        asm.add(x, x, 22i64);
        asm.write(0i64, x);
        asm.fence();
        asm.ret(x);
        let mut m = Machine::new(pso(), vec![VmProc::new(asm.assemble().into())]);
        m.run_solo(ProcId(0), 100);
        assert_eq!(m.return_value(ProcId(0)), Some(42));
        assert_eq!(m.memory(RegId(0)).payload(), 42);
    }

    #[test]
    fn spin_loop_reads_until_value_appears() {
        // p0 spins on register 0 until it reads 1; p1 writes it.
        let mut a = Asm::new("spinner");
        let t = a.local("t");
        let spin = a.here();
        a.read(0i64, t);
        a.jmp_if(CondOp::Ne, t, 1i64, spin);
        a.ret(7i64);
        let spinner = VmProc::new(a.assemble().into());

        let mut b = Asm::new("writer");
        b.write(0i64, 1i64);
        b.fence();
        b.ret(0i64);
        let writer = VmProc::new(b.assemble().into());

        let mut m = Machine::new(pso(), vec![spinner, writer]);
        // Spin twice with nothing there.
        m.step(SchedElem::op(ProcId(0)));
        m.step(SchedElem::op(ProcId(0)));
        assert_eq!(m.return_value(ProcId(0)), None);
        // Writer publishes.
        m.run_solo(ProcId(1), 10);
        // Spinner now observes 1 and returns.
        m.run_solo(ProcId(0), 10);
        assert_eq!(m.return_value(ProcId(0)), Some(7));
    }

    #[test]
    fn dynamic_addressing_walks_an_array() {
        // Sum registers base..base+3 (initialized via init_reg).
        let mut a = Asm::new("sum");
        let (i, acc, addr, t) = {
            let i = a.local("i");
            let acc = a.local("acc");
            let addr = a.local("addr");
            let t = a.local("t");
            (i, acc, addr, t)
        };
        let done = a.label();
        let head = a.here();
        a.jmp_if(CondOp::Ge, i, 3i64, done);
        a.add(addr, i, 10i64); // base = 10
        a.read(addr, t);
        a.add(acc, acc, t);
        a.add(i, i, 1i64);
        a.jmp(head);
        a.bind(done);
        a.ret(acc);
        let mut m = Machine::new(pso(), vec![VmProc::new(a.assemble().into())]);
        for (k, v) in [(10u32, 5u64), (11, 6), (12, 7)] {
            m.init_reg(RegId(k), Value::Int(v));
        }
        m.run_solo(ProcId(0), 100);
        assert_eq!(m.return_value(ProcId(0)), Some(18));
    }

    #[test]
    fn annotation_tracks_annot_instrs() {
        let mut a = Asm::new("annots");
        a.annot(1);
        a.fence(); // memory step so we can observe the annotation
        a.annot(0);
        a.ret(0i64);
        let p = VmProc::new(a.assemble().into());
        assert_eq!(
            p.annotation(),
            1,
            "annot before first memory instr applies at init"
        );
        let mut m = Machine::new(pso(), vec![p]);
        m.step(SchedElem::op(ProcId(0)));
        assert_eq!(
            m.annotation(ProcId(0)),
            0,
            "after fence, annot 0 was settled"
        );
    }

    #[test]
    fn equality_and_hash_depend_on_dynamic_state() {
        let mut a = Asm::new("two_reads");
        let t = a.local("t");
        a.read(0i64, t);
        a.read(0i64, t);
        a.ret(0i64);
        let prog: Arc<Program> = a.assemble().into();
        let p1 = VmProc::new(prog.clone());
        let mut p2 = VmProc::new(prog);
        assert_eq!(p1, p2);
        p2.advance(Some(Value::Int(3)));
        assert_ne!(p1, p2);
    }

    #[test]
    fn locals_beyond_the_inline_capacity_spill_and_behave_the_same() {
        // Read register 0 into each of `count` locals in turn and return
        // their sum: every slot is written, read back, cloned and wiped.
        for count in [INLINE_LOCALS - 1, INLINE_LOCALS, INLINE_LOCALS + 1, 20] {
            let mut a = Asm::new("many");
            let locs: Vec<_> = (0..count).map(|i| a.local(format!("l{i}"))).collect();
            for &l in &locs {
                a.read(0i64, l);
            }
            for &l in &locs[1..] {
                a.add(locs[0], locs[0], l);
            }
            a.ret(locs[0]);
            let prog: Arc<Program> = a.assemble().into();
            let fresh = VmProc::new(prog.clone());
            assert_eq!(
                matches!(fresh.locals, Locals::Inline { .. }),
                count <= INLINE_LOCALS
            );
            let mut p = fresh.clone();
            for _ in 0..count {
                p.advance(Some(Value::Int(3)));
            }
            assert_eq!(p.poised(), Poised::Return(3 * count as u64));
            assert_eq!(p.clone(), p);
            assert_ne!(p, fresh);
            p.crash_recover();
            assert_eq!(p, fresh, "a crash zeroes every slot");
        }
    }

    #[test]
    fn recorded_steps_hand_back_small_tokens_and_leave_the_program_refcount_alone() {
        assert!(std::mem::size_of::<wbmem::UndoToken<VmProc>>() <= 32);
        let mut a = Asm::new("reads");
        let t = a.local("t");
        for _ in 0..6 {
            a.read(0i64, t);
        }
        a.ret(t);
        let prog: Arc<Program> = a.assemble().into();
        let mut m = Machine::new(pso(), vec![VmProc::new(prog.clone()); 2]);
        let refs = |m: &Machine<VmProc>| Arc::strong_count(m.process(ProcId(0)).program());
        // The first descent creates the slots the machine's undo trail
        // saves program states in (one clone each, kept for reuse).
        let descend = |m: &mut Machine<VmProc>| -> Vec<_> {
            (0..8)
                .map(|k| m.step_recorded(SchedElem::op(ProcId(k % 2))).1)
                .collect()
        };
        for token in descend(&mut m).into_iter().rev() {
            m.undo(token);
        }
        // From then on a recorded step and its undo copy registers only:
        // no clone, no drop, no reference-count traffic on the program
        // every process (and every worker's machine) shares.
        let before = refs(&m);
        let mut tokens = descend(&mut m);
        assert_eq!(refs(&m), before);
        while let Some(token) = tokens.pop() {
            m.undo(token);
            assert_eq!(refs(&m), before);
        }
        // A clone takes the two processes and none of the saved states.
        assert_eq!(refs(&m.clone()), before + 2);
    }

    #[test]
    fn clone_from_overwrites_the_dynamic_state_of_either_locals_form() {
        for count in [3, INLINE_LOCALS + 5] {
            let mut a = Asm::new("many");
            let locs: Vec<_> = (0..count).map(|i| a.local(format!("l{i}"))).collect();
            for &l in &locs {
                a.read(0i64, l);
            }
            a.ret(locs[0]);
            let prog: Arc<Program> = a.assemble().into();
            let fresh = VmProc::new(prog.clone());
            let mut advanced = fresh.clone();
            advanced.advance(Some(Value::Int(7)));
            advanced.advance(Some(Value::Int(8)));
            let shared = Arc::strong_count(&prog);
            let mut slot = fresh.clone();
            slot.clone_from(&advanced);
            assert_eq!(slot, advanced);
            slot.clone_from(&fresh);
            assert_eq!(slot, fresh);
            assert_eq!(Arc::strong_count(&prog), shared + 1, "only `slot` itself");
            // Across program instances the program comes along.
            let mut b = Asm::new("other");
            b.ret(0i64);
            let mut other = VmProc::new(b.assemble().into());
            other.clone_from(&advanced);
            assert_eq!(other, advanced);
        }
    }

    #[test]
    fn a_vm_process_is_no_larger_than_before_it_reported_idle_steps() {
        assert_eq!(std::mem::size_of::<VmProc>(), 168);
    }

    /// Wait loops of the shapes the locks spin in, each over a small value
    /// domain so that re-reads of an unchanged value are common.
    fn spinning_programs() -> Vec<Arc<Program>> {
        // Spin on one flag.
        let mut a = Asm::new("flag");
        let t = a.local("t");
        let spin = a.here();
        a.read(0i64, t);
        a.jmp_if(CondOp::Ne, t, 1i64, spin);
        a.ret(0i64);
        let flag = a.assemble();
        // A Bakery-style scan: wait on slot j until it reads 0, then move
        // to j + 1; the address is recomputed on every pass.
        let mut a = Asm::new("scan");
        let (j, addr, t) = (a.local("j"), a.local("addr"), a.local("t"));
        let done = a.label();
        let head = a.here();
        a.jmp_if(CondOp::Ge, j, 3i64, done);
        a.add(addr, j, 10i64);
        a.read(addr, t);
        a.jmp_if(CondOp::Ne, t, 0i64, head);
        a.add(j, j, 1i64);
        a.jmp(head);
        a.bind(done);
        a.annot(1);
        a.write(0i64, 1i64);
        a.annot(0);
        a.ret(j);
        let scan = a.assemble();
        // Wait while one register exceeds another.
        let mut a = Asm::new("pair");
        let (x, y) = (a.local("x"), a.local("y"));
        let wait = a.here();
        a.read(0i64, x);
        a.read(1i64, y);
        a.jmp_if(CondOp::Gt, x, y, wait);
        a.ret(x);
        let pair = a.assemble();
        // A CAS retry loop.
        let mut a = Asm::new("cas");
        let (seen, next, obs) = (a.local("seen"), a.local("next"), a.local("obs"));
        let retry = a.here();
        a.read(0i64, seen);
        a.add(next, seen, 1i64);
        a.cas(0i64, seen, next, obs);
        a.jmp_if(CondOp::Ne, obs, seen, retry);
        a.ret(next);
        let cas = a.assemble();
        // A loop whose annotation follows the value read.
        let mut a = Asm::new("annots");
        let t = a.local("t");
        let (zero, head) = (a.label(), a.here());
        a.read(0i64, t);
        a.jmp_if(CondOp::Eq, t, 0i64, zero);
        a.annot(1);
        a.swap(1i64, 2i64, t);
        a.jmp_if(CondOp::Ne, t, 2i64, head);
        a.ret(t);
        a.bind(zero);
        a.annot(0);
        a.jmp(head);
        let annots = a.assemble();
        [flag, scan, pair, cas, annots]
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    #[test]
    fn an_advance_is_idle_exactly_when_it_leaves_the_process_unchanged() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x1d1e);
        let (mut idle, mut advances) = (0usize, 0usize);
        for prog in spinning_programs() {
            for _ in 0..200 {
                let mut p = VmProc::new(Arc::clone(&prog));
                for _ in 0..100 {
                    let read = match p.poised() {
                        Poised::Return(_) | Poised::Done => break,
                        Poised::Read(_) | Poised::Cas { .. } | Poised::Swap { .. } => {
                            Some(Value::Int(rng.gen_range(0..3)))
                        }
                        Poised::Write(..) | Poised::Fence => None,
                    };
                    let before = p.clone();
                    let reported = p.advance_idle(read);
                    assert_eq!(
                        reported,
                        p == before,
                        "{} at pc {} after {read:?}",
                        prog.name(),
                        before.pc()
                    );
                    idle += usize::from(reported);
                    advances += 1;
                }
            }
        }
        assert!(idle * 10 > advances, "{idle} of {advances} advances idle");
    }

    #[test]
    fn instances_of_equal_but_distinct_programs_differ() {
        let build = || {
            let mut a = Asm::new("same");
            a.ret(0i64);
            VmProc::new(a.assemble().into())
        };
        assert_ne!(build(), build(), "identity is per program instance");
    }

    #[test]
    fn cas_program_branches_on_observed_value() {
        // Increment a register atomically via a CAS retry loop.
        let mut a = Asm::new("cas_incr");
        let seen = a.local("seen");
        let next = a.local("next");
        let retry = a.here();
        a.read(0i64, seen);
        a.add(next, seen, 1i64);
        let obs = a.local("obs");
        a.cas(0i64, seen, next, obs);
        a.jmp_if(CondOp::Ne, obs, seen, retry);
        a.ret(next);
        let mut m = Machine::new(pso(), vec![VmProc::new(a.assemble().into())]);
        m.init_reg(RegId(0), Value::Int(41));
        m.run_solo(ProcId(0), 100);
        assert_eq!(m.return_value(ProcId(0)), Some(42));
        assert_eq!(m.memory(RegId(0)).payload(), 42);
    }

    #[test]
    fn swap_program_observes_and_stores() {
        let mut a = Asm::new("swapper");
        let old = a.local("old");
        a.swap(3i64, 9i64, old);
        a.ret(old);
        let mut m = Machine::new(pso(), vec![VmProc::new(a.assemble().into())]);
        m.init_reg(RegId(3), Value::Int(7));
        m.run_solo(ProcId(0), 100);
        assert_eq!(m.return_value(ProcId(0)), Some(7));
        assert_eq!(m.memory(RegId(3)).payload(), 9);
    }

    #[test]
    fn program_display_covers_all_instructions() {
        let mut a = Asm::new("display");
        let t = a.local("t");
        a.read(0i64, t);
        a.write(1i64, t);
        a.cas(2i64, 0i64, 1i64, t);
        a.swap(3i64, 5i64, t);
        a.fence();
        a.annot(1);
        a.nop();
        a.ret(0i64);
        let text = a.assemble().to_string();
        for needle in [
            "read", "write", "cas", "swap", "fence", "annot", "nop", "ret",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn crash_recovery_restarts_at_the_recovery_entry() {
        // Normal path writes R0 and returns 0; the recovery section writes
        // R1 and returns 1. A crash after the (buffered, discarded) first
        // write must land in the recovery section with wiped locals.
        let mut a = Asm::new("recoverer");
        let t = a.local("t");
        a.mov(t, 5i64);
        a.write(0i64, 1i64);
        a.fence();
        a.ret(0i64);
        a.recovery_here();
        a.write(1i64, 9i64);
        a.fence();
        a.ret(1i64);
        let prog: Arc<Program> = a.assemble().into();
        assert_eq!(prog.recovery(), 4);
        let cfg = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned())
            .with_crashes(wbmem::CrashSemantics::DiscardBuffer, 1);
        let mut m = Machine::new(cfg, vec![VmProc::new(prog)]);
        m.step(SchedElem::op(ProcId(0))); // write enters the buffer
        m.step(SchedElem::crash(ProcId(0)));
        m.run_solo(ProcId(0), 100);
        assert_eq!(m.return_value(ProcId(0)), Some(1), "recovery path ran");
        assert!(m.memory(RegId(0)).is_bot(), "buffered write was lost");
        assert_eq!(m.memory(RegId(1)).payload(), 9);
    }

    #[test]
    fn crash_recovery_defaults_to_the_program_start() {
        let mut a = Asm::new("restart");
        let t = a.local("t");
        a.read(0i64, t);
        a.ret(0i64);
        let prog: Arc<Program> = a.assemble().into();
        assert_eq!(prog.recovery(), 0);
        let mut p = VmProc::new(prog.clone());
        p.advance(Some(Value::Int(3)));
        assert_eq!(p.local(t), 3);
        p.crash_recover();
        assert_eq!(p, VmProc::new(prog), "recovery resets to the initial state");
    }

    #[test]
    fn future_access_tracks_pc_and_recovery() {
        let mut a = Asm::new("fa");
        let t = a.local("t");
        a.read(0i64, t);
        a.annot(1);
        a.write(1i64, t);
        a.fence();
        a.ret(0i64);
        a.recovery_here();
        a.write(2i64, 7i64);
        a.fence();
        a.ret(1i64);
        let mut p = VmProc::new(a.assemble().into());
        let fa = p.future_access(false);
        assert!(fa.reads.may_contain(RegId(0)) && fa.writes.may_contain(RegId(1)));
        assert!(!fa.writes.may_contain(RegId(2)), "recovery excluded");
        assert!(
            p.future_access(true).writes.may_contain(RegId(2)),
            "recovery included on demand"
        );
        assert!(p.op_may_annotate(), "advancing past the read runs annot(1)");
        p.advance(Some(Value::Int(0)));
        let fa = p.future_access(false);
        assert!(!fa.reads.may_contain(RegId(0)), "the read is behind us");
        assert!(!p.op_may_annotate());
    }

    #[test]
    #[should_panic(expected = "consecutive internal instructions")]
    fn infinite_internal_loop_is_detected() {
        let mut a = Asm::new("tight");
        let head = a.here();
        a.nop();
        a.jmp(head);
        a.ret(0i64);
        let _ = VmProc::new(a.assemble().into());
    }

    #[test]
    #[should_panic(expected = "invalid register id")]
    fn negative_register_id_panics() {
        let mut a = Asm::new("bad_addr");
        let t = a.local("t");
        a.read(-1i64, t);
        a.ret(0i64);
        let p = VmProc::new(a.assemble().into());
        let _ = p.poised();
    }
}
