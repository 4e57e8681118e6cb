//! **E14 — work-stealing DPOR scaling** (EXPERIMENTS.md E14).
//!
//! Full `Engine::ParallelDpor` explorations of the n = 3 seed workloads
//! at 1, 2, and 4 workers, against the sequential `Engine::Dpor`
//! baseline. Reports wall-clock per full verdict and the speedup over
//! the baseline; verdicts are asserted equal across all rows (the
//! engine's contract — the differential suite pins it down, this table
//! shows it holding at scale). State counts are reported per row: these
//! runs use ample pruning, whose dropped-state set is traversal-
//! dependent (the cycle proviso consults the reaching path), so the
//! counts can differ by a sliver across engines — exact state equality
//! is pinned by the sleep-sets-only and diagnostic differential tests.
//!
//! On a single-core host the multi-worker rows are **not timed** (the
//! measurement would be time-slicing overhead, not scaling): the rows
//! are emitted with `skipped` wall-clock cells and
//! `"skipped_single_core": true` in `BENCH_explore.json`, exactly like
//! the explore bench. The `guards` binary enforces the ≥1.5×
//! floor on multi-core hosts; this experiment records the whole curve.

use crate::{f as fmt, Table};
use fence_trade::prelude::*;

/// (verdict, wall-clock seconds) of one check.
fn timed(inst: &OrderingInstance, cfg: &CheckConfig) -> (Verdict, f64) {
    let start = std::time::Instant::now();
    let v = check(&inst.machine(MemoryModel::Pso), cfg);
    (v, start.elapsed().as_secs_f64())
}

pub fn run(_fast: bool) {
    let cores = crate::available_cores();
    let base = CheckConfig {
        check_termination: false,
        max_states: 50_000_000,
        ..CheckConfig::default()
    };
    let workloads: &[(&str, LockKind)] = &[
        ("ttas3", LockKind::Ttas),
        ("bakery3", LockKind::Bakery),
        ("filter3", LockKind::Filter),
    ];
    let thread_counts: &[usize] = &[1, 2, 4];

    let mut t = Table::new(
        "e14_scaling",
        &format!(
            "E14: work-stealing parallel DPOR scaling under PSO \
             ({cores} core(s) detected)"
        ),
        &[
            "lock", "engine", "threads", "verdict", "states", "wall_s", "speedup",
        ],
    );
    let mut json_rows: Vec<String> = Vec::new();

    for &(name, kind) in workloads {
        let inst = build_mutex(kind, 3, FenceMask::ALL);
        let (seq, seq_secs) = timed(
            &inst,
            &base.clone().with_engine(Engine::Dpor {
                reorder_bound: None,
            }),
        );
        t.row(&[
            name.to_string(),
            "dpor".to_string(),
            "1".to_string(),
            seq.label().to_string(),
            seq.stats().states.to_string(),
            fmt(seq_secs, 2),
            "1.00x".to_string(),
        ]);
        for &threads in thread_counts {
            let cfg = base.clone().with_engine(Engine::ParallelDpor {
                threads,
                reorder_bound: None,
            });
            // threads == 1 dispatches to the sequential engine — timed
            // anyway as the zero-overhead row. Multi-worker rows are
            // skipped on single-core hosts.
            let skipped = threads > 1 && cores == 1;
            let (row_label, row_states, secs) = if skipped {
                let v = check(&inst.machine(MemoryModel::Pso), &cfg);
                (v.label().to_string(), v.stats().states, None)
            } else {
                let (v, s) = timed(&inst, &cfg);
                (v.label().to_string(), v.stats().states, Some(s))
            };
            assert_eq!(seq.label(), row_label, "{name}/{threads}: verdicts agree");
            t.row(&[
                name.to_string(),
                "pardpor".to_string(),
                threads.to_string(),
                row_label,
                row_states.to_string(),
                secs.map_or_else(|| "skipped".to_string(), |s| fmt(s, 2)),
                secs.map_or_else(
                    || "-".to_string(),
                    |s| format!("{}x", fmt(seq_secs / s.max(1e-9), 2)),
                ),
            ]);
            json_rows.push(format!(
                "{{\"workload\": \"e14_{name}_pso_t{threads}\", \"engine\": \"pardpor\", \
                 \"threads\": {threads}, \"effective_threads\": {}, \"states\": {row_states}, \
                 \"dpor_wall_ms\": {:.1}, \"wall_ms\": {}, \"skipped_single_core\": {}}}",
                threads.min(cores),
                seq_secs * 1e3,
                secs.map_or_else(|| "0".to_string(), |s| format!("{:.1}", s * 1e3)),
                skipped,
            ));
        }
    }
    t.note(
        "Same verdict on every row — the work-stealing engine changes \
         wall-clock, never the answer (state counts can differ by a sliver \
         under ample pruning; see the differential suite for the exact-\
         equality modes). Speedup is sequential dpor wall-clock over the \
         row's; the threads=1 row measures the dispatch overhead \
         (the `guards` bin budgets it at ≤5%).",
    );
    t.finish();
    crate::append_bench_explore_rows(&json_rows);
}
