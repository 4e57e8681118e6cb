//! **E17 — causal trace validation** (EXPERIMENTS.md): the guard over
//! the span stream, and the one writer of `results/obs/e17_trace.jsonl`,
//! which CI's `exp obs-trace` and `exp obs-report` stages read.
//!
//! With tracing on, run (a) the work-stealing engine on the
//! three-process filter lock, and (b) an interrupted Undo run resumed
//! from its checkpoint. The resulting span stream must pass
//! [`validate_spans`] (unique ids, parent < id, no orphan steal edges),
//! contain `task` spans whose steal edges resolve, contain at least one
//! `publish` instant (a real donation), and contain a `resume` span
//! whose `prev_run`/`run` fields link the two runs — the only check of
//! that link.

use std::sync::Arc;

use fence_trade::prelude::*;
use ftobs::{parse_spans, validate_spans, JsonlSink, Recorder, SpanRow};

/// Run the two traced checks; returns the parsed spans.
fn traced_runs(
    threads: usize,
    trace_path: &std::path::Path,
    ckpt: &std::path::Path,
) -> Vec<SpanRow> {
    let sink = Arc::new(
        JsonlSink::create(trace_path)
            .unwrap_or_else(|e| crate::fail("e17: creating trace stream", e)),
    );
    let rec = |workload: &str| {
        Recorder::builder()
            .meta("experiment", "e17")
            .meta("workload", workload)
            .sink(sink.clone())
            .trace(true)
            .quiet(true)
            .heartbeat_ms(0)
            .build()
    };

    // (a) Work-stealing DPOR over the filter lock, tracing on.
    let inst = build_mutex(LockKind::Filter, 3, FenceMask::ALL);
    let cfg = CheckConfig {
        check_termination: false,
        max_states: 2_000_000,
        ..CheckConfig::default()
    }
    .with_engine(Engine::ParallelDpor {
        threads,
        reorder_bound: None,
    })
    .with_recorder(rec("e17_filter3_pso"));
    let v = check(&inst.machine(MemoryModel::Pso), &cfg);
    assert!(v.is_ok(), "traced filter3_pso must verify: {}", v.label());

    // (b) Interrupted Undo run + resume, tracing on: the resume span must
    // link the predecessor run id recorded in the snapshot.
    let pinst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let ucfg = CheckConfig {
        check_termination: false,
        max_states: 2_000_000,
        ..CheckConfig::default()
    }
    .with_engine(Engine::Undo)
    .with_recorder(rec("e17_peterson2_pso"));
    let cut_v = check(
        &pinst.machine(MemoryModel::Pso),
        &ucfg
            .clone()
            .with_checkpoint(CheckpointPolicy::at(ckpt).stop_after(200)),
    );
    assert!(
        cut_v.coverage().is_some(),
        "interrupted run must checkpoint, got {}",
        cut_v.label()
    );
    let resumed = resume(&pinst.machine(MemoryModel::Pso), &ucfg, ckpt);
    assert!(
        resumed.is_ok(),
        "resumed run must verify: {}",
        resumed.label()
    );

    drop((cfg, ucfg)); // drop the recorders' sink handles...
    drop(sink); // ...then publish the stream (rename .partial -> final)
    let text = std::fs::read_to_string(trace_path)
        .unwrap_or_else(|e| crate::fail("e17: reading trace stream", e));
    parse_spans(&text)
}

pub fn run(_fast: bool) {
    let threads = crate::parallelism().clamp(2, 4);

    let obs = crate::obs_dir();
    let ckpt = obs.join("e17_ckpt.bin");

    // filter3_pso runs long enough (≈ 12 k states) that an idle thief is
    // always there to donate to: 9–16 publish instants in every run seen.
    let trace_path = obs.join("e17_trace.jsonl");
    let rows = traced_runs(threads, &trace_path, &ckpt);
    let publishes = rows.iter().filter(|r| r.name == "publish").count();
    if let Err(e) = validate_spans(&rows) {
        crate::fail("e17: traced stream violates the span-forest invariants", e);
    }
    let tasks: Vec<&SpanRow> = rows.iter().filter(|r| r.name == "task").collect();
    let stolen = tasks.iter().filter(|r| r.parent != 0).count();
    let resume_span = rows.iter().find(|r| r.name == "resume");
    let linked = resume_span.is_some_and(|r| {
        r.fields.get("prev_run").is_some_and(|v| v != "0")
            && r.fields.get("run").is_some_and(|v| v != "0")
    });
    println!(
        "trace: {} spans, {} tasks ({} with steal edges), {} publish instants, resume linked: {}",
        rows.len(),
        tasks.len(),
        stolen,
        publishes,
        linked
    );
    if tasks.is_empty() || publishes == 0 {
        crate::fail(
            "e17: the work-stealing path never engaged",
            format!(
                "traced parallel run produced {} task spans and {publishes} publish instants",
                tasks.len()
            ),
        );
    }
    assert!(linked, "a resume span links the predecessor run id");

    let _ = std::fs::remove_file(&ckpt);
    println!("e17 trace guard: OK");
}
