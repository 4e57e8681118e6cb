//! Property-based tests for the IR interpreter.

use proptest::prelude::*;

use std::sync::Arc;

use fencevm::{Asm, BinOp, CondOp, Program, VmProc, INLINE_LOCALS};
use wbmem::{
    CrashSemantics, Machine, MachineConfig, MemoryLayout, MemoryModel, ProcId, RegId, SchedElem,
    UndoToken, Value,
};

fn pso() -> MachineConfig {
    MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned())
}

proptest! {
    /// Straight-line arithmetic programs compute the same result as a
    /// direct Rust evaluation.
    #[test]
    fn arithmetic_matches_oracle(
        init in 0i64..1000,
        steps in prop::collection::vec((0u8..5, 1i64..50), 0..30),
    ) {
        let mut asm = Asm::new("arith");
        let x = asm.local("x");
        asm.mov(x, init);
        let mut oracle = init;
        for &(op, k) in &steps {
            let (binop, res) = match op {
                0 => (BinOp::Add, oracle + k),
                1 => (BinOp::Sub, oracle - k),
                2 => (BinOp::Mul, oracle.saturating_mul(k).min(1 << 40)),
                3 => (BinOp::Min, oracle.min(k)),
                _ => (BinOp::Max, oracle.max(k)),
            };
            // Keep the multiply bounded so the oracle matches exactly.
            if op == 2 && !(-(1 << 20)..=1 << 20).contains(&oracle) {
                continue;
            }
            asm.bin(binop, x, x, k);
            oracle = if op == 2 { oracle * k } else { res };
        }
        // Return values must be non-negative.
        let final_val = oracle.rem_euclid(1_000_000);
        asm.rem(x, x, 1_000_000i64);
        let nonneg = asm.local("nonneg");
        asm.mov(nonneg, x);
        let done = asm.label();
        asm.jmp_if(CondOp::Ge, nonneg, 0i64, done);
        asm.add(nonneg, nonneg, 1_000_000i64);
        asm.bind(done);
        asm.ret(nonneg);

        let mut m = Machine::new(pso(), vec![VmProc::new(asm.assemble().into())]);
        m.run_solo(ProcId(0), 100);
        prop_assert_eq!(m.return_value(ProcId(0)), Some(final_val.rem_euclid(1_000_000) as u64));
    }

    /// Write-then-read through the machine round-trips any payload, at any
    /// register, under any model.
    #[test]
    fn write_read_roundtrip(
        reg in 0u32..1000,
        val in 0u64..1_000_000,
        model in prop::sample::select(vec![MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso]),
    ) {
        let mut asm = Asm::new("rw");
        let t = asm.local("t");
        asm.write(i64::from(reg), val as i64);
        asm.fence();
        asm.read(i64::from(reg), t);
        asm.ret(t);
        let cfg = MachineConfig::new(model, MemoryLayout::unowned());
        let mut m = Machine::new(cfg, vec![VmProc::new(asm.assemble().into())]);
        m.run_solo(ProcId(0), 100);
        prop_assert_eq!(m.return_value(ProcId(0)), Some(val));
        prop_assert_eq!(m.memory(RegId(reg)).payload(), val);
    }

    /// Interpreters are deterministic: equal programs driven by equal read
    /// values stay equal (state equality).
    #[test]
    fn interpretation_is_deterministic(reads in prop::collection::vec(0u64..100, 1..10)) {
        let mut asm = Asm::new("reader");
        let t = asm.local("t");
        let acc = asm.local("acc");
        for _ in 0..reads.len() {
            asm.read(0i64, t);
            asm.add(acc, acc, t);
        }
        asm.ret(acc);
        let prog: std::sync::Arc<fencevm::Program> = asm.assemble().into();
        let mut a = VmProc::new(prog.clone());
        let mut b = VmProc::new(prog);
        use wbmem::Process as _;
        for &r in &reads {
            prop_assert_eq!(&a, &b);
            a.advance(Some(Value::Int(r)));
            b.advance(Some(Value::Int(r)));
        }
        prop_assert_eq!(a, b);
    }

    /// A counting loop executes exactly `k` iterations.
    #[test]
    fn loops_iterate_exactly(k in 0i64..200) {
        let mut asm = Asm::new("loop");
        let i = asm.local("i");
        let acc = asm.local("acc");
        let done = asm.label();
        let head = asm.here();
        asm.jmp_if(CondOp::Ge, i, k, done);
        asm.add(acc, acc, 2i64);
        asm.add(i, i, 1i64);
        // A memory op inside the loop keeps the interpreter honest about
        // resuming mid-loop.
        asm.write(5i64, i);
        asm.jmp(head);
        asm.bind(done);
        asm.ret(acc);
        let mut m = Machine::new(pso(), vec![VmProc::new(asm.assemble().into())]);
        m.run_solo(ProcId(0), 10_000);
        prop_assert_eq!(m.return_value(ProcId(0)), Some((2 * k) as u64));
    }
}

/// A recoverable program with `count` locals: spin on register 0 until it
/// reads non-zero, read registers 0–2 into every local in turn, write the
/// first plus the last to register `count % 3`, fence, return the first.
fn many_locals(count: usize) -> Arc<Program> {
    let mut a = Asm::new(format!("locals{count}"));
    let locs: Vec<_> = (0..count).map(|i| a.local(format!("l{i}"))).collect();
    a.recovery_here();
    let spin = a.here();
    a.read(0i64, locs[0]);
    a.jmp_if(CondOp::Eq, locs[0], 0i64, spin);
    for (i, &l) in (0i64..).zip(&locs) {
        a.read(i % 3, l);
    }
    a.add(locs[0], locs[0], locs[count - 1]);
    a.write((count % 3) as i64, locs[0]);
    a.fence();
    a.ret(locs[0]);
    a.assemble().into()
}

/// A machine of processes running `many_locals(counts[i])` (register 0
/// starts at `start`), walked by `calls`: plain steps while no recorded
/// step is outstanding, recorded steps, crashes and undos. Returns the
/// outstanding tokens and the machine's view before the first of them.
fn walked_vm(
    counts: &[usize],
    model: MemoryModel,
    drain: bool,
    start: u64,
    calls: &[(u8, usize)],
) -> (Machine<VmProc>, Vec<UndoToken<VmProc>>, VmView) {
    let procs = counts
        .iter()
        .map(|&c| VmProc::new(many_locals(c)))
        .collect();
    let semantics = if drain {
        CrashSemantics::DrainBuffer
    } else {
        CrashSemantics::DiscardBuffer
    };
    let config = MachineConfig::new(model, MemoryLayout::unowned())
        .with_crashes(semantics, 1)
        .with_trace();
    let mut m = Machine::new(config, procs);
    m.init_reg(RegId(0), Value::Int(start));
    let mut tokens = Vec::new();
    let mut base = vm_view(&m);
    for &(call, pick) in calls {
        let choices = m.choices();
        let elem = match call {
            2 => {
                if let Some(token) = tokens.pop() {
                    m.undo(token);
                }
                continue;
            }
            3 => SchedElem::crash(ProcId::from(pick % m.n())),
            _ if choices.is_empty() => continue,
            _ => choices[pick % choices.len()],
        };
        if call == 0 && tokens.is_empty() {
            m.step(elem);
            base = vm_view(&m);
        } else {
            tokens.push(m.step_recorded(elem).1);
        }
    }
    (m, tokens, base)
}

type VmView = (
    wbmem::StateKey<VmProc>,
    u128,
    Vec<SchedElem>,
    wbmem::Counters,
    Vec<wbmem::Event>,
    Vec<Option<Value>>,
);

fn vm_view(m: &Machine<VmProc>) -> VmView {
    (
        m.state_key(),
        m.fingerprint(),
        m.choices(),
        m.counters().clone(),
        m.trace().events().to_vec(),
        (0..m.n()).map(|i| m.idle_read(ProcId::from(i))).collect(),
    )
}

fn arb_counts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(
        prop::sample::select(vec![2, INLINE_LOCALS, INLINE_LOCALS + 3]),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Machine::clone_from` gives what `clone` gives for interpreted
    /// processes, inline and spilled locals alike, into a machine of other
    /// programs and another process count: the same state, fingerprint,
    /// choices, counters, trace and idle-read memos, and the same
    /// machine after a further walk. The source still undoes its own
    /// recorded steps, and a second `clone_from` of the same programs
    /// takes no reference to them.
    #[test]
    fn machine_clone_from_is_clone_with_spilled_locals(
        (src_counts, dst_counts) in (arb_counts(), arb_counts()),
        (model, drain, start) in (prop::sample::select(MemoryModel::ALL.to_vec()), any::<bool>(), 0u64..2),
        calls in prop::collection::vec((0u8..4, 0usize..16), 0..60),
        more in prop::collection::vec((0u8..4, 0usize..16), 0..30),
    ) {
        let (mut src, mut tokens, base) = walked_vm(&src_counts, model, drain, start, &calls);
        let (mut dst, _void, _) = walked_vm(&dst_counts, model, !drain, 1 - start, &more);
        let mut fresh = src.clone();
        dst.clone_from(&src);
        prop_assert_eq!(vm_view(&dst), vm_view(&fresh));

        let refs = |m: &Machine<VmProc>| Arc::strong_count(m.process(ProcId(0)).program());
        let before = refs(&src);
        dst.clone_from(&fresh);
        prop_assert_eq!(refs(&src), before);

        for m in [&mut dst, &mut fresh] {
            for &(call, pick) in &more {
                let choices = m.choices();
                if call != 2 && !choices.is_empty() {
                    m.step(choices[pick % choices.len()]);
                }
            }
        }
        prop_assert_eq!(vm_view(&dst), vm_view(&fresh));

        while let Some(token) = tokens.pop() {
            src.undo(token);
        }
        // An undo drops its process's idle-read memo.
        let unmemoized = |(key, fp, choices, counters, trace, _): VmView| {
            (key, fp, choices, counters, trace)
        };
        prop_assert_eq!(unmemoized(vm_view(&src)), unmemoized(base));
    }
}
