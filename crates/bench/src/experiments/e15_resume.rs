//! **E15 — resume overhead** (EXPERIMENTS.md): what does durability
//! cost? For each workload × engine cell, run the exploration three
//! ways — uninterrupted, interrupted at half the transitions (snapshot
//! to disk), and resumed from that snapshot — and tabulate the combined
//! interrupted+resumed wall clock against the uninterrupted baseline,
//! along with the snapshot size and the serialized frontier it carried.
//!
//! Every run records into `results/obs/e15_resume.jsonl`, so
//! `exp obs-report` renders the `checkpoint_written` / `checkpoint_bytes` /
//! `resume_replayed` counters in its Resilience table from real data.

use std::sync::Arc;
use std::time::Instant;

use crate::timing::median;
use fence_trade::prelude::*;
use ftobs::JsonlSink;

/// Runs per cell and side; the table holds their medians.
const TRIALS: usize = 3;

#[allow(clippy::cast_precision_loss)]
pub fn run(_fast: bool) {
    let sink = Arc::new(
        JsonlSink::create(crate::obs_dir().join("e15_resume.jsonl"))
            .unwrap_or_else(|e| crate::fail("e15: creating results/obs/e15_resume.jsonl", e)),
    );

    let threads = crate::parallelism().clamp(2, 4);
    let cells: Vec<(&str, LockKind, usize, Engine)> = vec![
        ("peterson2_pso", LockKind::Peterson, 2, Engine::Undo),
        (
            "tournament2_pso",
            LockKind::Tournament,
            2,
            Engine::Dpor {
                reorder_bound: None,
            },
        ),
        (
            "filter3_pso",
            LockKind::Filter,
            3,
            Engine::Dpor {
                reorder_bound: None,
            },
        ),
        (
            "filter3_pso",
            LockKind::Filter,
            3,
            Engine::ParallelDpor {
                threads,
                reorder_bound: None,
            },
        ),
    ];

    let mut t = crate::Table::new(
        "e15_resume",
        "E15 — resume overhead: interrupted-at-half + resumed vs uninterrupted",
        &[
            "workload", "engine", "fresh ms", "split ms", "overhead", "ckpt KiB", "frontier",
        ],
    );

    for (workload, kind, n, engine) in cells {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        let cfg = CheckConfig {
            check_termination: false,
            max_states: 500_000,
            ..CheckConfig::default()
        }
        .with_engine(engine);
        let path = std::env::temp_dir().join(format!(
            "ft_e15_{}_{}_{}.ckpt",
            workload,
            engine.label(),
            std::process::id()
        ));

        let probe = check(&inst.machine(MemoryModel::Pso), &cfg);
        if !probe.is_ok() {
            crate::fail(
                "e15",
                format!("{workload} must verify, got `{}`", probe.label()),
            );
        }
        let cut = (probe.stats().transitions as u64 / 2).max(1);

        let mut fresh_ms = Vec::with_capacity(TRIALS);
        let mut split_ms = Vec::with_capacity(TRIALS);
        let mut ckpt_bytes = 0u64;
        let mut frontier = 0usize;
        for _ in 0..TRIALS {
            let rec = ftobs::Recorder::builder()
                .meta("workload", workload)
                .meta("engine", engine.label())
                .sink(sink.clone())
                .heartbeat_ms(0)
                .quiet(true)
                .build();

            let start = Instant::now();
            let fresh = check(&inst.machine(MemoryModel::Pso), &cfg);
            fresh_ms.push(start.elapsed().as_secs_f64() * 1e3);

            let start = Instant::now();
            let stopped = check(
                &inst.machine(MemoryModel::Pso),
                &cfg.clone()
                    .with_recorder(rec.clone())
                    .with_checkpoint(CheckpointPolicy::at(&path).stop_after(cut)),
            );
            let Some(cov) = stopped.coverage() else {
                crate::fail(
                    "e15",
                    format!(
                        "{workload}/{}: cut at {cut} produced no checkpoint (`{}`)",
                        engine.label(),
                        stopped.label()
                    ),
                );
            };
            let Some(cp) = cov.checkpoint else {
                crate::fail(
                    "e15",
                    format!("{workload}/{}: checkpoint write failed", engine.label()),
                );
            };
            let resumed = resume(
                &inst.machine(MemoryModel::Pso),
                &cfg.clone().with_recorder(rec.clone()),
                &cp,
            );
            split_ms.push(start.elapsed().as_secs_f64() * 1e3);
            if resumed.label() != fresh.label() {
                crate::fail(
                    "e15",
                    format!(
                        "{workload}/{}: resumed `{}` != fresh `{}`",
                        engine.label(),
                        resumed.label(),
                        fresh.label()
                    ),
                );
            }
            ckpt_bytes = std::fs::metadata(&cp).map(|m| m.len()).unwrap_or(0);
            frontier = cov.frontier;
            rec.emit_snapshot(&[("verdict", ftobs::J::s(resumed.label()))]);
        }
        let fresh = median(fresh_ms);
        let split = median(split_ms);
        t.row(&[
            workload.to_string(),
            engine.label().to_string(),
            crate::f(fresh, 1),
            crate::f(split, 1),
            format!("x{}", crate::f(split / fresh.max(1e-9), 3)),
            crate::f(ckpt_bytes as f64 / 1024.0, 1),
            frontier.to_string(),
        ]);
        let _ = std::fs::remove_file(&path);
    }

    t.note(format!(
        "Median of {TRIALS} trials. `split` = interrupted at half the transitions \
         (checkpoint written, fsynced, renamed) + resumed to completion (snapshot read, \
         fingerprint table pre-seeded, frontier replayed). Reduced-mode overhead also \
         includes re-exploring what the discarded worker-local dominance table would \
         have pruned; pure durability cost (write + read + replay) is what \
         `exp guards` gates, per MiB of snapshot, in the exact-partition diagnostic bound. \
         `frontier` is the number of open fork points the snapshot serialized."
    ));
    t.finish();
}
