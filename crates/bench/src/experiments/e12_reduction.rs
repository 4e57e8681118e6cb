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
//! artifact, and a full run appends its measured rows to
//! `BENCH_explore.json`.
//!
//! `--fast` runs only the n = 2 section and leaves `BENCH_explore.json`
//! alone: its timings are of a cut-down run, not benchmark rows.

use std::sync::Arc;

use crate::{f as fmt, Table};
use fence_trade::prelude::*;
use ftobs::{JsonlSink, Recorder};

fn dpor() -> Engine {
    Engine::Dpor {
        reorder_bound: None,
    }
}

/// Worker count for the work-stealing DPOR rows: at least 2 (a 1-thread
/// run *is* `Engine::Dpor`), honoring `FT_THREADS`/core clamping above
/// that.
fn pardpor_threads() -> usize {
    crate::parallelism().max(2)
}

fn pardpor() -> Engine {
    Engine::ParallelDpor {
        threads: pardpor_threads(),
        reorder_bound: None,
    }
}

/// (verdict, wall-clock seconds) of one check.
fn timed(inst: &OrderingInstance, model: MemoryModel, cfg: &CheckConfig) -> (Verdict, f64) {
    let start = std::time::Instant::now();
    let v = check(&inst.machine(model), cfg);
    (v, start.elapsed().as_secs_f64())
}

/// Attach a per-cell recorder to `cfg`: events stream to the shared
/// `results/obs/e12_reduction.jsonl` sink, tagged with the workload and
/// the engine label so `exp obs-report` can group them. Quiet — cells run
/// under `par_map`, and interleaved stderr heartbeats would be noise; the
/// JSONL stream keeps everything.
fn with_obs(cfg: CheckConfig, sink: &Arc<JsonlSink>, workload: &str) -> CheckConfig {
    let rec = Recorder::builder()
        .meta("workload", workload)
        .meta("engine", cfg.engine.label())
        .sink(sink.clone())
        .quiet(true)
        .build();
    cfg.with_recorder(rec)
}

fn factor(full: usize, reduced: usize) -> String {
    if reduced == 0 {
        "-".into()
    } else {
        format!("{}x", fmt(full as f64 / reduced as f64, 1))
    }
}

pub fn run(fast: bool) {
    let mut json_rows: Vec<String> = Vec::new();

    // One JSONL stream for the whole experiment; one progress recorder
    // replacing the ad-hoc println!/eprintln! lines so fast and full runs
    // share a reporting path (`exp obs-report` renders the result).
    let sink = Arc::new(
        JsonlSink::create(crate::obs_dir().join("e12_reduction.jsonl"))
            .unwrap_or_else(|e| crate::fail("e12: creating results/obs/e12_reduction.jsonl", e)),
    );
    let progress = Recorder::builder()
        .meta("experiment", "e12")
        .sink(sink.clone())
        .heartbeat_ms(0)
        .build();

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
        let wl = format!("e12_{}2_{}", name, model.to_string().to_lowercase());
        let (full, _) = timed(&inst, model, &with_obs(base.clone(), &sink, &wl));
        let (red, red_secs) = timed(
            &inst,
            model,
            &with_obs(base.clone().with_engine(dpor()), &sink, &wl),
        );
        (name, model, full, red, red_secs)
    });
    for (name, model, full, red, red_secs) in &rows {
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
        json_rows.push(format!(
            "{{\"workload\": \"e12_{}2_{}\", \"engine\": \"dpor\", \"states\": {}, \
             \"undo_states\": {}, \"state_reduction\": {:.2}, \"wall_ms\": {:.1}}}",
            name,
            model.to_string().to_lowercase(),
            rs.states,
            fs.states,
            fs.states as f64 / rs.states.max(1) as f64,
            red_secs * 1e3,
        ));
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
    // artifact carries the recorder's metrics snapshot at failure time). ----
    let witness = FenceMask::only(&[simlocks::peterson::SITE_VICTIM]);
    let inst = build_mutex(LockKind::Peterson, 2, witness);
    let cex_cfg = with_obs(
        base.clone().with_engine(dpor()),
        &sink,
        "e12_cex_peterson_pso",
    );
    if let Verdict::MutexViolation(_, cex) = check(&inst.machine(MemoryModel::Pso), &cex_cfg) {
        let traced = inst
            .machine_from(MachineConfig::new(MemoryModel::Pso, inst.layout.clone()).with_trace());
        let path = crate::save_counterexample(
            "e12_cex_dpor_peterson_pso",
            "E12: mutex violation found by the REDUCED search (Peterson, \
             victim fence only, PSO) — replays on the unreduced machine",
            traced,
            &cex.schedule,
            &cex_cfg.recorder,
        );
        progress.info(&format!("saved DPOR counterexample to {}", path.display()));
    }

    if fast {
        progress.info("--fast: skipping the n = 3 / n = 4 sections");
        progress.flush();
        return;
    }

    // ---- Section 2: n = 3 — where exhaustive checking hits the wall. ----
    let cap = CheckConfig {
        check_termination: false,
        max_states: 2_000_000, // the exhaustive budget the factor is measured against
        ..CheckConfig::default()
    };
    let uncapped = CheckConfig {
        check_termination: false,
        max_states: 50_000_000,
        ..CheckConfig::default()
    };
    let locks3: &[(&str, LockKind)] = &[
        ("ttas", LockKind::Ttas),
        ("bakery", LockKind::Bakery),
        ("filter", LockKind::Filter),
        ("gt_f2", LockKind::Gt { f: 2 }),
    ];
    let cores = crate::available_cores();
    let mut t3 = Table::new(
        "e12b_reduction_n3",
        "E12b: three processes under PSO (mutex check, full fences, \
         exhaustive engine capped at 2M states)",
        &[
            "lock",
            "undo",
            "states",
            "dpor",
            "states",
            "factor",
            "dpor_s",
            "pardpor_s",
            "speedup",
        ],
    );
    let rows = crate::par_map(locks3, |&(name, kind)| {
        let inst = build_mutex(kind, 3, FenceMask::ALL);
        let wl = format!("e12_{name}3_pso");
        let (full, _) = timed(&inst, MemoryModel::Pso, &with_obs(cap.clone(), &sink, &wl));
        let (red, red_secs) = timed(
            &inst,
            MemoryModel::Pso,
            &with_obs(uncapped.clone().with_engine(dpor()), &sink, &wl),
        );
        let (par, par_secs) = timed(
            &inst,
            MemoryModel::Pso,
            &with_obs(uncapped.clone().with_engine(pardpor()), &sink, &wl),
        );
        (name, full, red, red_secs, par, par_secs)
    });
    for (name, full, red, red_secs, par, par_secs) in &rows {
        assert_eq!(red.label(), par.label(), "{name}: dpor/pardpor agree");
        let (fs, rs) = (full.stats(), red.stats());
        // On a single-core host the pardpor wall-clock measures
        // time-slicing, not scaling — the cells stay but are marked.
        let single_core = cores == 1;
        t3.row(&[
            (*name).to_string(),
            full.label().to_string(),
            fs.states.to_string(),
            red.label().to_string(),
            rs.states.to_string(),
            if matches!(full, Verdict::StateLimit(_)) {
                format!(">{}", factor(fs.states, rs.states))
            } else {
                factor(fs.states, rs.states)
            },
            fmt(*red_secs, 2),
            if single_core {
                "skipped".into()
            } else {
                fmt(*par_secs, 2)
            },
            if single_core {
                "-".into()
            } else {
                format!("{}x", fmt(red_secs / par_secs.max(1e-9), 2))
            },
        ]);
        json_rows.push(format!(
            "{{\"workload\": \"e12_{name}3_pso\", \"engine\": \"dpor\", \"states\": {}, \
             \"undo_states\": {}, \"undo_verdict\": \"{}\", \"wall_ms\": {:.1}}}",
            rs.states,
            fs.states,
            full.label(),
            red_secs * 1e3,
        ));
        json_rows.push(format!(
            "{{\"workload\": \"e12_{name}3_pso_pardpor\", \"engine\": \"pardpor\", \
             \"threads\": {}, \"effective_threads\": {}, \"states\": {}, \
             \"dpor_wall_ms\": {:.1}, \"wall_ms\": {:.1}, \"skipped_single_core\": {}}}",
            pardpor_threads(),
            pardpor_threads().min(cores),
            par.stats().states,
            red_secs * 1e3,
            par_secs * 1e3,
            single_core,
        ));
    }
    t3.note(
        "A `state-limit` row is the infeasibility the subsystem removes: \
         the exhaustive engine gave up at its 2M-state budget while the \
         reduced engine finished the full proof with the states shown \
         (the factor is then a lower bound). The pardpor columns time the \
         work-stealing parallel DPOR engine on the same sweep (skipped on \
         single-core hosts, where parallel wall-clock measures \
         time-slicing).",
    );
    t3.finish();

    // ---- Section 3: n = 4 — past the exhaustive engine's reach. ----
    let mut t4 = Table::new(
        "e12c_reduction_n4",
        "E12c: four processes under PSO (mutex check, full fences, \
         exhaustive engine capped at 2M states)",
        &[
            "lock",
            "undo",
            "states",
            "dpor",
            "states",
            "Mstates/s",
            "factor",
        ],
    );
    let locks4: &[(&str, LockKind)] = &[
        ("ttas", LockKind::Ttas),
        ("gt_f2", LockKind::Gt { f: 2 }),
        ("tournament", LockKind::Tournament),
    ];
    let rows = crate::par_map(locks4, |&(name, kind)| {
        let inst = build_mutex(kind, 4, FenceMask::ALL);
        let wl = format!("e12_{name}4_pso");
        let (full, _) = timed(&inst, MemoryModel::Pso, &with_obs(cap.clone(), &sink, &wl));
        let (red, secs) = timed(
            &inst,
            MemoryModel::Pso,
            &with_obs(uncapped.clone().with_engine(dpor()), &sink, &wl),
        );
        (name, full, red, secs)
    });
    for (name, full, red, secs) in &rows {
        let (fs, rs) = (full.stats(), red.stats());
        t4.row(&[
            (*name).to_string(),
            full.label().to_string(),
            fs.states.to_string(),
            red.label().to_string(),
            rs.states.to_string(),
            fmt(rs.states as f64 / secs.max(1e-9) / 1e6, 2),
            if matches!(full, Verdict::StateLimit(_)) {
                format!(">{}", factor(fs.states, rs.states))
            } else {
                factor(fs.states, rs.states)
            },
        ]);
        json_rows.push(format!(
            "{{\"workload\": \"e12_{name}4_pso\", \"engine\": \"dpor\", \"states\": {}, \
             \"undo_states\": {}, \"undo_verdict\": \"{}\", \"verdict\": \"{}\", \
             \"wall_ms\": {:.1}}}",
            rs.states,
            fs.states,
            full.label(),
            red.label(),
            secs * 1e3,
        ));
    }
    t4.note(
        "A `state-limit` / `ok` pair is the acceptance demonstration: a \
         configuration the seed checker could not finish at its 2M-state \
         budget, completed as a full proof by the reduced engine.",
    );
    t4.finish();

    crate::append_bench_explore_rows(&json_rows);
    progress.info(&format!(
        "appended {} dpor rows to BENCH_explore.json",
        json_rows.len()
    ));
    progress.flush();
}
