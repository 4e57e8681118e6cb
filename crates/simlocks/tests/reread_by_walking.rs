//! The plain step's idle-read memo, held to the full step rule. Two
//! machines run in lockstep from one configuration: one driven by
//! `Machine::step`, which answers a spinning process's unchanged re-read
//! from its memo, the other by `step_recorded`, which never memoizes.
//! After every element the two must agree on the outcome, the counters,
//! the state key, the locality tracker and the trace. A third machine mixes
//! plain steps with recorded steps and undos, `init_reg` and crashes, and
//! is held to a twin whose processes report no idle step at all.
//!
//! A memo that answers without checking the value, or that survives an
//! undo of its process's step, fails here.

use fencevm::VmProc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simlocks::{build_mutex, build_ordering, FenceMask, LockKind, ObjectKind, OrderingInstance};
use wbmem::{
    CrashSemantics, FutureAccess, Machine, MachineConfig, MemoryModel, Poised, ProcId, Process,
    RegId, SchedElem, Value,
};

/// A `VmProc` that never reports an idle step, so a machine over it never
/// memoizes a read.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct NoIdle(VmProc);

impl Process for NoIdle {
    fn poised(&self) -> Poised {
        self.0.poised()
    }
    fn advance(&mut self, read_value: Option<Value>) {
        self.0.advance(read_value);
    }
    fn annotation(&self) -> u64 {
        self.0.annotation()
    }
    fn recoverable(&self) -> bool {
        self.0.recoverable()
    }
    fn crash_recover(&mut self) {
        self.0.crash_recover();
    }
    fn future_access(&self, include_recovery: bool) -> FutureAccess<'_> {
        self.0.future_access(include_recovery)
    }
    fn obs_pc(&self) -> Option<u32> {
        self.0.obs_pc()
    }
    fn op_may_annotate(&self) -> bool {
        self.0.op_may_annotate()
    }
}

/// Elements issued and elements the memo answered.
#[derive(Default)]
struct Tally {
    steps: usize,
    hits: usize,
}

impl Tally {
    fn share(&self) -> f64 {
        self.hits as f64 / self.steps.max(1) as f64
    }
}

/// Everything but the outcome: counters, state, tracker, and the trace's
/// length and newest event (the older ones were compared before).
fn assert_agree(label: &str, a: &Machine<VmProc>, b: &Machine<VmProc>) {
    assert_eq!(a.counters(), b.counters(), "{label}: counters");
    assert_eq!(a.state_key(), b.state_key(), "{label}: state");
    assert_eq!(a.locality(), b.locality(), "{label}: locality");
    assert_eq!(a.trace().len(), b.trace().len(), "{label}: trace length");
    assert_eq!(
        a.trace().events().last(),
        b.trace().events().last(),
        "{label}: newest event"
    );
}

/// The next element of a walk: a process that has not returned in
/// rotation, or (`random`) one of the enabled choices — named commits and
/// crashes included — or now and then an element naming a register the
/// process may not have buffered.
fn next_elem(
    m: &Machine<VmProc>,
    random: bool,
    turn: &mut usize,
    rng: &mut SmallRng,
) -> Option<SchedElem> {
    if !random {
        let n = m.n();
        let p = (0..n)
            .map(|k| ProcId::from((*turn + k) % n))
            .find(|&p| !m.is_done(p))?;
        *turn = p.index() + 1;
        return Some(SchedElem::op(p));
    }
    let choices = m.choices();
    if choices.is_empty() {
        return None;
    }
    let e = choices[rng.gen_range(0..choices.len())];
    Some(if rng.gen_range(0..8) == 0 && !e.crash {
        SchedElem::commit(e.proc, RegId(rng.gen_range(0..24)))
    } else {
        e
    })
}

/// Run a plain-stepped and a recorded-stepped copy of `root` in lockstep
/// for up to `steps` elements.
fn lockstep(
    label: &str,
    root: &Machine<VmProc>,
    random: bool,
    steps: usize,
    rng: &mut SmallRng,
    tally: &mut Tally,
) {
    let mut plain = root.clone();
    let mut recorded = root.clone();
    let mut turn = 0;
    for k in 0..steps {
        let Some(e) = next_elem(&plain, random, &mut turn, rng) else {
            break;
        };
        let memo = plain.idle_read(e.proc);
        let out = plain.step(e);
        let (expected, _token) = recorded.step_recorded(e);
        let at = format!("{label} step {k} {e:?}");
        assert_eq!(out, expected, "{at}: outcome");
        assert_agree(&at, &plain, &recorded);
        assert_eq!(
            recorded.idle_read(e.proc),
            None,
            "{at}: a recorded step memoized"
        );
        tally.steps += 1;
        tally.hits += usize::from(memo.is_some() && plain.idle_read(e.proc) == memo);
    }
    assert_eq!(plain.trace(), recorded.trace(), "{label}: trace");
}

/// The walks of one instance under every model, with and without tagged
/// writes: one in rotation and `random` random ones.
fn walk_instance(
    inst: &OrderingInstance,
    (random, steps): (usize, usize),
    rng: &mut SmallRng,
) -> Tally {
    let mut tally = Tally::default();
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        for tagged in [false, true] {
            let mut cfg = MachineConfig::new(model, inst.layout.clone()).with_trace();
            if tagged {
                cfg = cfg.with_tagged_writes();
            }
            let root = inst.machine_from(cfg);
            let label = format!("{} {model} tagged={tagged}", inst.name);
            lockstep(&label, &root, false, steps, rng, &mut tally);
            for _ in 0..random {
                lockstep(&label, &root, true, steps, rng, &mut tally);
            }
        }
    }
    tally
}

/// Random walks of a crash-hardened Bakery that crashes, under both crash
/// semantics.
fn walk_crashing(rng: &mut SmallRng, (walks, steps): (usize, usize)) -> Tally {
    let inst = build_mutex(LockKind::RecoverableBakery, 2, FenceMask::ALL);
    let mut tally = Tally::default();
    for semantics in [CrashSemantics::DiscardBuffer, CrashSemantics::DrainBuffer] {
        let cfg = MachineConfig::new(MemoryModel::Pso, inst.layout.clone())
            .with_trace()
            .with_crashes(semantics, 2);
        let root = inst.machine_from(cfg);
        let label = format!("{} {semantics:?}", inst.name);
        for _ in 0..walks {
            lockstep(&label, &root, true, steps, rng, &mut tally);
        }
    }
    tally
}

fn assert_twins(label: &str, m: &Machine<VmProc>, twin: &Machine<NoIdle>) {
    assert_eq!(m.counters(), twin.counters(), "{label}: counters");
    assert_eq!(m.locality(), twin.locality(), "{label}: locality");
    assert_eq!(m.trace(), twin.trace(), "{label}: trace");
    assert_eq!(m.fingerprint(), twin.fingerprint(), "{label}: fingerprint");
    assert!(m.memory_cells().eq(twin.memory_cells()), "{label}: memory");
    for q in (0..m.n()).map(ProcId::from) {
        assert_eq!(m.process(q), &twin.process(q).0, "{label}: {q}");
        assert_eq!(m.buffer(q), twin.buffer(q), "{label}: {q}'s buffer");
        assert_eq!(m.return_value(q), twin.return_value(q), "{label}: {q}");
        assert_eq!(m.crashes(q), twin.crashes(q), "{label}: {q}'s crashes");
    }
}

/// Plain steps mixed with recorded steps and undos, register
/// initialisations and crashes, on a machine and its memo-free twin.
fn mixed_walk(
    label: &str,
    inst: &OrderingInstance,
    cfg: &MachineConfig,
    steps: usize,
    rng: &mut SmallRng,
) -> Tally {
    let mut m = inst.machine_from(cfg.clone());
    let mut twin = Machine::new(
        m.config().clone(),
        (0..m.n())
            .map(|q| NoIdle(m.process(ProcId::from(q)).clone()))
            .collect(),
    );
    // Undo tokens, newest last. A plain step (a crash included) or
    // `init_reg` drops the kept fingerprint; the older tokens may still be undone until a recorded
    // step keeps it again, which discards them (their fingerprint deltas
    // no longer apply).
    let mut tokens = Vec::new();
    let mut unkept = false;
    let mut tally = Tally::default();
    for k in 0..steps {
        let at = format!("{label} move {k}");
        match rng.gen_range(0..16) {
            0..=9 => {
                let choices = m.choices();
                if choices.is_empty() {
                    break;
                }
                let e = choices[rng.gen_range(0..choices.len())];
                let memo = m.idle_read(e.proc);
                let out = m.step(e);
                assert_eq!(out, twin.step(e), "{at} {e:?}");
                unkept = true;
                tally.steps += 1;
                tally.hits += usize::from(memo.is_some() && m.idle_read(e.proc) == memo);
            }
            10..=11 => {
                let choices = m.choices();
                if choices.is_empty() {
                    break;
                }
                let e = choices[rng.gen_range(0..choices.len())];
                if std::mem::take(&mut unkept) {
                    tokens.clear();
                }
                let (out, token) = m.step_recorded(e);
                let (twin_out, twin_token) = twin.step_recorded(e);
                assert_eq!(out, twin_out, "{at} recorded {e:?}");
                assert_eq!(m.idle_read(e.proc), None, "{at}: a recorded step memoized");
                tokens.push((token, twin_token));
            }
            12..=13 => {
                if let Some((token, twin_token)) = tokens.pop() {
                    let p = token.footprint().proc;
                    m.undo(token);
                    twin.undo(twin_token);
                    assert_eq!(m.idle_read(p), None, "{at}: an undo kept the memo");
                }
            }
            14 => {
                // Overwrite the register some process is poised to read.
                let q = ProcId::from(rng.gen_range(0..m.n()));
                if let Poised::Read(reg) = m.poised(q) {
                    let value = Value::Int(rng.gen_range(0..3));
                    m.init_reg(reg, value);
                    twin.init_reg(reg, value);
                    unkept = true;
                }
            }
            _ => {
                let q = ProcId::from(rng.gen_range(0..m.n()));
                let e = SchedElem::crash(q);
                assert_eq!(m.step(e), twin.step(e), "{at} {e:?}");
                unkept = true;
            }
        }
        assert_twins(&at, &m, &twin);
    }
    tally
}

/// The cells of the lockstep walks at `n` and `2n` processes.
fn cells(n: usize) -> Vec<(LockKind, usize)> {
    vec![
        (LockKind::Bakery, n),
        (LockKind::Bakery, 2 * n),
        (LockKind::Gt { f: 2 }, n),
        (LockKind::Gt { f: 2 }, 2 * n),
        (LockKind::Gt { f: 3 }, 2 * n),
        (LockKind::Tournament, n),
        (LockKind::Tournament, 2 * n),
    ]
}

/// Every cell at `n` and `2n`, with `random` random walks of `steps` per
/// model; the crashing Bakery and the mixed walks with `10 × random`.
fn run(n: usize, (random, steps): (usize, usize), seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for (kind, size) in cells(n) {
        let inst = build_ordering(kind, size, ObjectKind::Counter);
        let tally = walk_instance(&inst, (random, steps), &mut rng);
        println!(
            "{}: memo answered {} of {} elements ({:.1} %)",
            inst.name,
            tally.hits,
            tally.steps,
            100.0 * tally.share()
        );
        if kind == LockKind::Bakery {
            assert!(tally.hits > 0, "{}: the memo never answered", inst.name);
        }
    }
    let crashing = walk_crashing(&mut rng, (10 * random, steps / 2));
    println!(
        "r-bakery with crashes: memo answered {} of {} elements",
        crashing.hits, crashing.steps
    );
    let mut mixed = Tally::default();
    for kind in [
        LockKind::Bakery,
        LockKind::Gt { f: 2 },
        LockKind::RecoverableBakery,
    ] {
        let inst = build_ordering(kind, n, ObjectKind::Counter);
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            let cfg = MachineConfig::new(model, inst.layout.clone())
                .with_trace()
                .with_tagged_writes()
                .with_crashes(CrashSemantics::DrainBuffer, 2);
            for _ in 0..10 * random {
                let t = mixed_walk(
                    &format!("{} {model} mixed", inst.name),
                    &inst,
                    &cfg,
                    steps,
                    &mut rng,
                );
                mixed.steps += t.steps;
                mixed.hits += t.hits;
            }
        }
    }
    println!(
        "mixed walks: memo answered {} of {} plain elements",
        mixed.hits, mixed.steps
    );
    assert!(mixed.hits > 0, "the mixed walks never reached the memo");
}

#[test]
fn a_plain_step_is_the_recorded_step_on_every_walk() {
    run(4, (2, 600), 0x5e5e_0001);
}

/// The long variant: n = 16 and ten times the schedules. Run it in
/// release: `cargo test --release -p simlocks --test reread_by_walking --
/// --ignored`.
#[test]
#[ignore = "long variant, run in release"]
fn a_plain_step_is_the_recorded_step_on_every_long_walk() {
    run(8, (20, 600), 0x5e5e_0002);
}
