//! **E12 — partial-order reduction factors**: how much of the schedule
//! space does `Engine::Dpor` (sleep sets + ample process sets over wbmem's
//! dependence footprints, `crates/por`) discharge, and what does that buy?
//!
//! Three sections:
//!
//! 1. **Reduction factors at n = 2** — every lock/model cell of the E5/E8
//!    safety sweeps, exhaustive (`Engine::Undo`) vs reduced, with the
//!    state and transition reduction factors. Verdicts must coincide (the
//!    differential suite asserts this; the table shows it).
//! 2. **n = 3** — the same sweep one process up, where exhaustive
//!    exploration starts hitting its state budget: the reduced engine
//!    completes configurations the undo engine cannot.
//! 3. **n = 4** — reduced-engine-only frontier: configurations that are
//!    far out of exhaustive reach.
//!
//! A DPOR-found counterexample is saved to `results/` as a replayable
//! artifact. Every cell is a count or a verdict of a sequential engine, so
//! the tables are byte-pinned in CI; what the engines cost in wall-clock
//! is E14's to say.

use super::DPOR;
use crate::{f as fmt, Table};
use fence_trade::prelude::*;

fn factor(full: usize, reduced: usize) -> String {
    if reduced == 0 {
        "-".into()
    } else {
        format!("{}x", fmt(full as f64 / reduced as f64, 1))
    }
}

/// One table of `n`-process locks under PSO: the exhaustive engine capped
/// at 2M states (the budget the factor is measured against) beside the
/// reduced engine run to its verdict.
fn capped_vs_reduced(table: &str, title: &str, n: usize, locks: &[(&str, LockKind)], note: &str) {
    let cap = CheckConfig {
        check_termination: false,
        max_states: 2_000_000,
        ..CheckConfig::default()
    };
    let uncapped = CheckConfig {
        max_states: 50_000_000,
        ..cap.clone()
    };
    let mut t = Table::new(
        table,
        &format!(
            "{title} under PSO (mutex check, full fences, exhaustive engine capped at 2M states)"
        ),
        &["lock", "undo", "states", "dpor", "states", "factor"],
    );
    let rows = crate::par_map(locks, |&(name, kind)| {
        let pso = build_mutex(kind, n, FenceMask::ALL).machine(MemoryModel::Pso);
        let full = check(&pso, &cap);
        let red = check(&pso, &uncapped.clone().with_engine(DPOR));
        (name, full, red)
    });
    for (name, full, red) in &rows {
        let (fs, rs) = (full.stats(), red.stats());
        let bound = if matches!(full, Verdict::StateLimit(_)) {
            ">"
        } else {
            ""
        };
        t.row(&[
            (*name).to_string(),
            full.label().to_string(),
            fs.states.to_string(),
            red.label().to_string(),
            rs.states.to_string(),
            format!("{bound}{}", factor(fs.states, rs.states)),
        ]);
    }
    t.note(note);
    t.finish();
}

pub fn run(_fast: bool) {
    // ---- Section 1: reduction factors at n = 2. ----
    let base = CheckConfig {
        check_termination: false, // ample pruning on (see DESIGN.md)
        max_states: 3_000_000,
        ..CheckConfig::default()
    };
    let locks: &[(&str, LockKind)] = &[
        ("peterson", LockKind::Peterson),
        ("ttas", LockKind::Ttas),
        ("bakery", LockKind::Bakery),
        ("filter", LockKind::Filter),
    ];
    let mut t = Table::new(
        "e12_reduction",
        "E12: DPOR reduction factors (2 processes, mutex check, full fences)",
        &[
            "lock", "model", "verdict", "states", "dpor", "factor", "trans", "dpor", "factor",
        ],
    );
    let mut cells: Vec<(&str, LockKind, MemoryModel)> = Vec::new();
    for &(name, kind) in locks {
        for model in [MemoryModel::Tso, MemoryModel::Pso] {
            cells.push((name, kind, model));
        }
    }
    let rows = crate::par_map(&cells, |&(name, kind, model)| {
        let inst = build_mutex(kind, 2, FenceMask::ALL);
        let full = check(&inst.machine(model), &base);
        let red = check(&inst.machine(model), &base.clone().with_engine(DPOR));
        (name, model, full, red)
    });
    for (name, model, full, red) in &rows {
        assert_eq!(full.label(), red.label(), "{name}/{model}: engines agree");
        let (fs, rs) = (full.stats(), red.stats());
        t.row(&[
            (*name).to_string(),
            model.to_string(),
            red.label().to_string(),
            fs.states.to_string(),
            rs.states.to_string(),
            factor(fs.states, rs.states),
            fs.transitions.to_string(),
            rs.transitions.to_string(),
            factor(fs.transitions, rs.transitions),
        ]);
    }
    t.note(
        "Same verdict, far fewer states: the ample rule schedules a process \
         alone whenever its next steps provably commute with every rival's \
         future (static per-pc access summaries + pending buffer contents), \
         and sleep sets drop transitions whose interleaving was already \
         covered. The factor is the tentpole: it is what makes n = 3 and \
         n = 4 routine below.",
    );
    t.finish();

    // ---- A DPOR counterexample, saved as a replayable artifact (the
    // artifact carries the check's metrics at failure time). ----
    let witness = FenceMask::only(&[simlocks::peterson::SITE_VICTIM]);
    let inst = build_mutex(LockKind::Peterson, 2, witness);
    let cex_cfg = base.with_engine(DPOR);
    if let Verdict::MutexViolation(stats, cex) = check(&inst.machine(MemoryModel::Pso), &cex_cfg) {
        let traced = inst
            .machine_from(MachineConfig::new(MemoryModel::Pso, inst.layout.clone()).with_trace());
        let path = crate::save_counterexample(
            "e12_cex_dpor_peterson_pso",
            "E12: mutex violation found by the REDUCED search (Peterson, \
             victim fence only, PSO) — replays on the unreduced machine",
            traced,
            &cex.schedule,
            &stats.metrics,
        );
        println!("saved DPOR counterexample to {}\n", path.display());
    }

    // ---- Section 2: n = 3 — where exhaustive checking hits the wall. ----
    capped_vs_reduced(
        "e12b_reduction_n3",
        "E12b: three processes",
        3,
        &[
            ("ttas", LockKind::Ttas),
            ("bakery", LockKind::Bakery),
            ("filter", LockKind::Filter),
            ("gt_f2", LockKind::Gt { f: 2 }),
        ],
        "A `state-limit` row is the infeasibility the subsystem removes: \
         the exhaustive engine gave up at its 2M-state budget while the \
         reduced engine finished the full proof with the states shown \
         (the factor is then a lower bound).",
    );

    // ---- Section 3: n = 4 — past the exhaustive engine's reach. ----
    capped_vs_reduced(
        "e12c_reduction_n4",
        "E12c: four processes",
        4,
        &[
            ("ttas", LockKind::Ttas),
            ("gt_f2", LockKind::Gt { f: 2 }),
            ("tournament", LockKind::Tournament),
        ],
        "A `state-limit` / `ok` pair is the acceptance demonstration: a \
         configuration the seed checker could not finish at its 2M-state \
         budget, completed as a full proof by the reduced engine.",
    );
}
