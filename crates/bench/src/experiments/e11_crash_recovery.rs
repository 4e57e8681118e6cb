//! **E11 — crash-fault injection and recoverable mutual exclusion**: the
//! model checker explores crash schedules (a crash wipes a process's local
//! state, restarts it at its recovery entry, and — under the discard
//! semantics — drops its buffered writes). The naive locks wedge: a crash
//! inside the critical section, or one that discards a buffered release
//! write, leaves shared state claiming a passage that never completes. The
//! recoverable variants repair their announcements on restart and keep both
//! mutual exclusion and deadlock-freedom. Also demonstrates the wall-clock
//! budget: a zero-budget run returns `inconclusive` with coverage stats.

use std::time::Duration;

use crate::Table;
use fence_trade::prelude::*;
use fence_trade::simlocks::ANNOT_IN_CS;
use fence_trade::wbmem::{SchedElem, SoloOutcome, StepOutcome};

const LOCKS: &[(&str, LockKind)] = &[
    ("ttas", LockKind::Ttas),
    ("bakery", LockKind::Bakery),
    ("r-ttas", LockKind::RecoverableTtas),
    ("r-bakery", LockKind::RecoverableBakery),
];

fn crash_check(
    kind: LockKind,
    n: usize,
    model: MemoryModel,
    sem: CrashSemantics,
    crashes: u32,
) -> Verdict {
    let cfg = CheckConfig {
        check_termination: true,
        max_states: 5_000_000,
        ..CheckConfig::default()
    }
    .with_crashes(sem, crashes);
    let inst = build_mutex(kind, n, FenceMask::ALL);
    check(&inst.machine(model), &cfg)
}

pub fn run(_fast: bool) {
    // ---- Table 1: full sweep at n = 2. ----
    let mut t = Table::new(
        "e11_crash_recovery",
        "E11: mutex + deadlock-freedom under injected crashes (2 processes, \
         verdict columns: no crashes / ≤2 crashes discarding buffers / ≤2 \
         crashes draining buffers)",
        &[
            "lock",
            "model",
            "crash-free",
            "discard",
            "drain",
            "states(discard)",
        ],
    );
    let mut cells: Vec<(&str, LockKind, MemoryModel)> = Vec::new();
    for &(name, kind) in LOCKS {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            cells.push((name, kind, model));
        }
    }
    let rows = crate::par_map(&cells, |&(name, kind, model)| {
        let plain = crash_check(kind, 2, model, CrashSemantics::DiscardBuffer, 0);
        let discard = crash_check(kind, 2, model, CrashSemantics::DiscardBuffer, 2);
        let drain = crash_check(kind, 2, model, CrashSemantics::DrainBuffer, 2);
        (name, model, plain, discard, drain)
    });
    for (name, model, plain, discard, drain) in &rows {
        t.row(&[
            (*name).to_string(),
            model.to_string(),
            plain.label().to_string(),
            discard.label().to_string(),
            drain.label().to_string(),
            discard.stats().states.to_string(),
        ]);
    }
    t.note(
        "The naive TTAS is crash-exposed: with up to two crashes the checker \
         finds a schedule whose crash strands the lock word (the holder dies \
         in its critical section, or a buffered release write is discarded) \
         and the run reports NO-TERMINATION. The recoverable r-ttas \
         self-releases on restart and stays `ok` everywhere. The naive \
         Bakery happens to self-repair — a restart re-executes the doorway \
         and overwrites its stale announcements — but r-bakery's eager \
         ticket retraction still halves the crashy state space.",
    );
    t.finish();

    // ---- Table 2: three processes, PSO, discard semantics. ----
    let mut t2 = Table::new(
        "e11b_crash_recovery_n3",
        "E11b: three processes under PSO, discard semantics (≤1 crash)",
        &["lock", "crash-free", "≤1 crash", "states"],
    );
    let rows = crate::par_map(LOCKS, |&(name, kind)| {
        let plain = crash_check(kind, 3, MemoryModel::Pso, CrashSemantics::DiscardBuffer, 0);
        let crashy = crash_check(kind, 3, MemoryModel::Pso, CrashSemantics::DiscardBuffer, 1);
        (name, plain, crashy)
    });
    for (name, plain, crashy) in &rows {
        t2.row(&[
            (*name).to_string(),
            plain.label().to_string(),
            crashy.label().to_string(),
            crashy.stats().states.to_string(),
        ]);
    }
    t2.note(
        "The separation persists at n = 3: one crash wedges the naive \
         TTAS, the recoverable variants stay live through every \
         crash-and-restart schedule. The naive Bakery's doorway \
         re-execution blows the crashy state space past the 5M-state \
         budget (`state-limit`); r-bakery's retraction keeps it \
         tractable.",
    );
    t2.finish();

    // ---- The checker's counterexample for the naive lock, saved as a
    // replayable artifact (with the check's metrics at failure time). ----
    if let Verdict::NoTermination(stats, cex) = crash_check(
        LockKind::Ttas,
        2,
        MemoryModel::Pso,
        CrashSemantics::DiscardBuffer,
        1,
    ) {
        println!(
            "NO-TERMINATION counterexample for naive ttas (PSO, ≤1 crash, \
             discard semantics):\n{cex}"
        );
        let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
        let traced = inst.machine_from(
            MachineConfig::new(MemoryModel::Pso, inst.layout.clone())
                .with_crashes(CrashSemantics::DiscardBuffer, 1)
                .with_trace(),
        );
        let path = crate::save_counterexample(
            "e11_cex_ttas_crash",
            "E11: naive ttas (2 procs, PSO, ≤1 crash discarding buffers) \
             reaches a state that cannot terminate",
            traced,
            &cex.schedule,
            &stats.metrics,
        );
        println!("saved replayable counterexample to {}\n", path.display());
    }

    // ---- Scripted replay: a crash drops a buffered release write. ----
    println!("Replay: a crash discarding a buffered release write wedges the rival.");
    let inst = build_mutex(LockKind::Ttas, 2, FenceMask::ALL);
    let mcfg = MachineConfig::new(MemoryModel::Pso, inst.layout.clone())
        .with_crashes(CrashSemantics::DiscardBuffer, 1);
    let mut m = inst.machine_from(mcfg);
    let p0 = ProcId(0);
    // Drive p0 into its critical section, then through the release write,
    // which parks in the write buffer under PSO.
    while m.annotation(p0) != ANNOT_IN_CS {
        m.step(SchedElem::op(p0));
    }
    while m.annotation(p0) == ANNOT_IN_CS {
        m.step(SchedElem::op(p0));
    }
    m.step(SchedElem::op(p0)); // the buffered release write
    match m.step(SchedElem::crash(p0)) {
        StepOutcome::Stepped(e) => println!("  {e}"),
        StepOutcome::NoOp => println!("  crash refused (unexpected)"),
    }
    match m.solo_outcome(ProcId(1), 100_000) {
        SoloOutcome::Diverges { .. } => println!(
            "  p1 running solo DIVERGES: the release write died in p0's \
             buffer, so the lock word is held forever."
        ),
        other => println!("  p1 solo outcome: {other:?} (unexpected)"),
    }
    println!();

    // ---- The wall-clock budget: a zero-budget run is inconclusive. ----
    let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
    let cfg = CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    }
    .with_budget(Duration::ZERO);
    let v = check(&inst.machine(MemoryModel::Pso), &cfg);
    let Some(cov) = v.coverage() else {
        crate::fail(
            "e11",
            format!("zero-budget run unexpectedly finished: {}", v.label()),
        );
    };
    println!(
        "Zero-budget bakery[3]/PSO run: verdict `{}` after {} states \
         explored, {} states still on the frontier.",
        v.label(),
        v.stats().states,
        cov.frontier,
    );
}
