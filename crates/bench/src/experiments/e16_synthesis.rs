//! **E16 — CEGAR fence synthesis** (EXPERIMENTS.md E16).
//!
//! The rest of the bench suite *verifies* hand-placed fences; this
//! experiment *discovers* placements from scratch. For fence-stripped
//! Bakery and Tournament instances, `ftsynth::synthesize` runs the CEGAR
//! loop (strip → check → reorder-edge cores → fewest-fences hitting set →
//! re-check → minimize) under PSO and TSO, then:
//!
//! 1. re-verifies every synthesized placement across engines and all
//!    three memory models (the differential suite pins the full
//!    engine × crash matrix; this table shows the result),
//! 2. measures the solo passage cost (β fences, ρ RMRs) of the
//!    synthesized placement against the hand-fenced original and the
//!    paper's `GT_f` analytic scales (`predicted_gt_fences` /
//!    `predicted_gt_rmrs`): Bakery should sit at the O(1)-fence/O(n)-RMR
//!    corner (`GT_1`), Tournament at O(log n)/O(log n) (`GT_{log n}`).
//!
//! The table lands in `results/e16_synthesis.txt`, and synthesis counters
//! stream to `results/obs/e16_synthesis.jsonl` for `exp obs-report`'s
//! Synthesis section.
//!
//! `--fast` runs only the n = 2 instances, and in that mode the run
//! fails if a row differs in any cell — iterations, cores, states,
//! seeded and full checks, placement — from the committed
//! `results/e16_synthesis.txt`, or if its minimisation refuted no trial
//! from a witness; its two-row table is printed, not written over the
//! committed four rows it was compared with.

use std::sync::Arc;

use crate::{f as fmt, Table};
use fence_trade::analysis::{predicted_gt_fences, predicted_gt_rmrs};
use fence_trade::prelude::*;
use ftobs::{JsonlSink, Recorder};
use ftsynth::{synthesize, SynthConfig, Synthesis};

const SOLO_STEPS: usize = 10_000_000;

fn synth_cfg(rec: Recorder) -> SynthConfig {
    SynthConfig {
        models: vec![MemoryModel::Pso, MemoryModel::Tso],
        max_states: 20_000_000,
        recorder: rec,
        ..SynthConfig::default()
    }
}

/// Re-verify `s` under every model for each engine; returns the verdict
/// labels joined, asserting they are all ok.
fn verify(s: &Synthesis, engines: &[Engine]) -> String {
    for &engine in engines {
        let cfg = CheckConfig {
            max_states: 50_000_000,
            ..CheckConfig::default().with_engine(engine)
        };
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            let v = check(&s.instance.machine(model), &cfg);
            assert!(
                v.is_ok(),
                "{}: synthesized placement failed re-verification under \
                 {engine:?}/{model}: {}",
                s.instance.name,
                v.label()
            );
        }
    }
    "ok".to_string()
}

/// `s`'s placement as the table prints it: baseline pcs joined by `,`
/// within a process and by `;` between processes.
fn placement_cell(s: &Synthesis) -> String {
    let per_proc = s.placement.iter().map(|pcs| {
        let pcs: Vec<String> = pcs.iter().map(usize::to_string).collect();
        pcs.join(",")
    });
    per_proc.collect::<Vec<_>>().join(";")
}

/// Every row of the committed `results/e16_synthesis.txt`, as its cells
/// (no cell holds a space).
fn committed_rows() -> Vec<Vec<String>> {
    let path = crate::results_dir().join("e16_synthesis.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| crate::fail(&format!("e16: reading {}", path.display()), e));
    let rows = text.lines().skip_while(|l| !l.starts_with("---")).skip(1);
    rows.take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

pub fn run(fast: bool) {
    // Read before the table below overwrites it.
    let committed = if fast { committed_rows() } else { Vec::new() };
    let sink = Arc::new(
        JsonlSink::create(crate::obs_dir().join("e16_synthesis.jsonl"))
            .unwrap_or_else(|e| crate::fail("e16: creating results/obs/e16_synthesis.jsonl", e)),
    );
    let mut t = Table::new(
        "e16_synthesis",
        "E16: CEGAR fence synthesis — placements, verification, solo cost vs GT_f scale",
        &[
            "lock",
            "n",
            "iters",
            "cores",
            "fences",
            "verified",
            "beta",
            "rho",
            "beta(orig)",
            "rho(orig)",
            "GT_f scale",
            "beta^",
            "rho^",
            "states",
            "seeded",
            "full",
            "placement",
        ],
    );

    // Tournament only exists at power-of-two n, so the full run extends
    // Bakery to n = 3 and Tournament to n = 4.
    let mut cells: Vec<(&str, LockKind, usize)> = vec![
        ("bakery", LockKind::Bakery, 2),
        ("tournament", LockKind::Tournament, 2),
    ];
    if !fast {
        cells.push(("bakery", LockKind::Bakery, 3));
        cells.push(("tournament", LockKind::Tournament, 4));
    }

    for &(name, kind, n) in &cells {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        let rec = Recorder::builder()
            .meta("workload", format!("e16_synth_{name}{n}"))
            .meta("engine", "cegar")
            .sink(sink.clone())
            .quiet(true)
            .build();
        let out = synthesize(&inst, &synth_cfg(rec.clone()));
        rec.emit_snapshot(&[(
            "verdict",
            ftobs::J::s(if out.synthesis().is_some() {
                "synthesized"
            } else {
                "failed"
            }),
        )]);
        let Some(s) = out.synthesis() else {
            crate::fail(
                &format!("e16: {} did not synthesize", inst.name),
                format!("{out:?}"),
            );
        };
        // Exhaustive cross-check only where it is tractable. (Under
        // the termination check `ParallelDpor` runs sequential `Dpor`,
        // so it would add a second run of the same walk.)
        let dpor = Engine::Dpor {
            reorder_bound: None,
        };
        let engines = if n <= 2 {
            vec![Engine::Undo, dpor]
        } else {
            vec![dpor]
        };
        let synthesized = solo_passage(&s.instance, MemoryModel::Pso, SOLO_STEPS);
        let orig = solo_passage(&inst, MemoryModel::Pso, SOLO_STEPS);
        // The analytic corner each lock realizes: Bakery ≈ GT_1,
        // Tournament ≈ GT_{log2 n} (f clamps to ≥ 1 at n = 2).
        let f = match kind {
            LockKind::Bakery => 1,
            _ => ((n as f64).log2().round() as usize).max(1),
        };
        let row = [
            name.to_string(),
            n.to_string(),
            s.iterations.to_string(),
            s.cores.len().to_string(),
            s.fences_inserted().to_string(),
            verify(s, &engines),
            fmt(synthesized.fences, 0),
            fmt(synthesized.rmrs, 0),
            fmt(orig.fences, 0),
            fmt(orig.rmrs, 0),
            format!("GT_{f}"),
            fmt(predicted_gt_fences(f), 0),
            fmt(predicted_gt_rmrs(n, f), 0),
            s.total_states.to_string(),
            s.seeded_refutations.to_string(),
            s.full_checks.to_string(),
            placement_cell(s),
        ];
        if fast {
            // Iterations, cores and states move with the walk order
            // of the inner checks, so the whole row is pinned.
            let was = committed.iter().find(|r| r.starts_with(&row[..2]));
            if was.map(Vec::as_slice) != Some(&row[..]) {
                crate::fail(
                    &format!("e16: {name}{n} row moved"),
                    format!("committed {was:?}, synthesized {row:?}"),
                );
            }
            if s.seeded_refutations == 0 {
                crate::fail(
                    &format!("e16: {name}{n}"),
                    "minimisation refuted no trial from a witness",
                );
            }
        }
        t.row(&row);
    }
    t.note(
        "Synthesis never sees the hand placement: it strips every fence and \
         rediscovers ordering from counterexamples alone. β/ρ are solo-passage \
         fence steps and RMRs of the synthesized placement under PSO; the \
         GT_f columns are the paper's analytic per-passage scales (constants \
         differ — the claim is the corner each lock family occupies: Bakery \
         at O(1) fences/O(n) RMRs like GT_1, Tournament at O(log n)/O(log n) \
         like GT_{log n}).",
    );
    if fast {
        println!("{}", t.render());
    } else {
        t.finish();
    }
}
