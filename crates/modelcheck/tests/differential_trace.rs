//! Differential tracing: turning the causal span layer ON must not
//! change what the engines compute. For every engine in its
//! deterministic diagnostic mode, a traced run must produce the same
//! verdict and a bit-identical deterministic [`MetricsSnapshot`]
//! projection as the untraced run — tracing observes the exploration,
//! it never steers it. On top of that, a property test checks the span
//! forest invariants on randomly parameterized traced runs: ids unique,
//! every parent edge points at a strictly earlier span (no cycles by
//! construction), and no `task` span carries an orphan steal edge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ftobs::{parse_spans, validate_spans, JsonlSink, SpanRow};
use modelcheck::{check, CheckConfig, CheckpointPolicy, Engine, Recorder, Verdict};
use proptest::prelude::*;
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::MemoryModel;

/// Unique stream path per traced run: the tests in this binary run on
/// parallel threads and must never share a sink file.
fn stream_path() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "ft_difftrace_{}_{}.jsonl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn quiet() -> Recorder {
    Recorder::builder().quiet(true).build()
}

/// A quiet recorder with tracing on, streaming to `path` through the
/// crash-safe sink (the same write path production runs use).
fn traced(sink: &Arc<JsonlSink>) -> Recorder {
    Recorder::builder()
        .quiet(true)
        .trace(true)
        .sink(sink.clone())
        .build()
}

/// The four engines, each in its deterministic diagnostic mode (DPOR
/// reductions disabled so the edge multiset is engine-independent).
fn engines() -> [Engine; 4] {
    [
        Engine::CloneDfs,
        Engine::Undo,
        Engine::Dpor {
            reorder_bound: Some(u32::MAX),
        },
        Engine::ParallelDpor {
            threads: 2,
            reorder_bound: Some(u32::MAX),
        },
    ]
}

/// Run `engine` traced; returns the verdict, the final metrics
/// snapshot, and the parsed spans its stream carried. Every recorder
/// clone must be gone before the sink publishes (`.partial` -> final),
/// so the snapshot is taken eagerly rather than handing the recorder out.
fn run_traced(
    engine: Engine,
    kind: LockKind,
    model: MemoryModel,
) -> (Verdict, ftobs::MetricsSnapshot, Vec<SpanRow>) {
    let path = stream_path();
    let sink = Arc::new(JsonlSink::create(&path).expect("temp sink"));
    let rec = traced(&sink);
    let config = CheckConfig::default()
        .with_engine(engine)
        .with_recorder(rec.clone());
    let inst = build_mutex(kind, 2, FenceMask::ALL);
    let v = check(&inst.machine(model), &config);
    let snap = rec.snapshot();
    drop((config, rec));
    drop(sink); // publish .partial -> final
    let text = std::fs::read_to_string(&path).expect("published stream");
    let _ = std::fs::remove_file(&path);
    (v, snap, parse_spans(&text))
}

#[test]
fn tracing_on_is_observationally_identical_to_tracing_off() {
    for kind in [LockKind::Peterson, LockKind::Ttas] {
        for engine in engines() {
            let rec_off = quiet();
            let config = CheckConfig::default()
                .with_engine(engine)
                .with_recorder(rec_off.clone());
            let inst = build_mutex(kind, 2, FenceMask::ALL);
            let v_off = check(&inst.machine(MemoryModel::Pso), &config);

            let (v_on, snap_on, spans) = run_traced(engine, kind, MemoryModel::Pso);

            let label = engine.label();
            assert_eq!(
                v_off.label(),
                v_on.label(),
                "{kind:?}/{label}: tracing changed the verdict"
            );
            assert_eq!(
                v_off.stats().states,
                v_on.stats().states,
                "{kind:?}/{label}: tracing changed the state count"
            );
            assert_eq!(
                v_off.stats().transitions,
                v_on.stats().transitions,
                "{kind:?}/{label}: tracing changed the transition count"
            );
            assert_eq!(
                rec_off.snapshot(),
                snap_on,
                "{kind:?}/{label}: tracing changed the deterministic metrics projection"
            );
            assert!(
                spans.iter().any(|s| s.name == "engine"),
                "{kind:?}/{label}: traced run emitted no engine span"
            );
            validate_spans(&spans)
                .unwrap_or_else(|e| panic!("{kind:?}/{label}: invalid forest: {e}"));
        }
    }
}

#[test]
fn untraced_runs_emit_no_spans() {
    let path = stream_path();
    let sink = Arc::new(JsonlSink::create(&path).expect("temp sink"));
    // Sink present but tracing NOT enabled: the stream must carry the
    // usual events and zero spans (disabled tracing costs nothing and
    // writes nothing).
    let rec = Recorder::builder().quiet(true).sink(sink.clone()).build();
    let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let config = CheckConfig::default()
        .with_engine(Engine::Undo)
        .with_recorder(rec);
    let v = check(&inst.machine(MemoryModel::Pso), &config);
    assert!(v.is_ok());
    drop(config);
    drop(sink);
    let text = std::fs::read_to_string(&path).expect("published stream");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "stream must carry the metric events");
    assert!(
        parse_spans(&text).is_empty(),
        "untraced run leaked span events"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Forest invariants hold on arbitrarily parameterized traced runs:
    /// any engine, lock, model, thread count, and — when a cut fires —
    /// an interrupted run's partial stream is just as valid as a
    /// completed one.
    #[test]
    fn traced_runs_always_produce_a_valid_span_forest(
        eng_ix in 0usize..4,
        kind_ix in 0usize..3,
        model_ix in 0usize..2,
        threads in 2usize..4,
        cut in prop::option::of(50u64..400),
    ) {
        let engine = match eng_ix {
            0 => Engine::CloneDfs,
            1 => Engine::Undo,
            2 => Engine::Dpor { reorder_bound: None },
            _ => Engine::ParallelDpor { threads, reorder_bound: None },
        };
        let kind = [LockKind::Peterson, LockKind::Ttas, LockKind::Bakery][kind_ix];
        let model = [MemoryModel::Tso, MemoryModel::Pso][model_ix];

        let path = stream_path();
        let sink = Arc::new(JsonlSink::create(&path).expect("temp sink"));
        let mut config = CheckConfig {
            check_termination: false,
            ..CheckConfig::default()
        }
        .with_engine(engine)
        .with_recorder(traced(&sink));
        let ckpt = stream_path().with_extension("ckpt");
        if let Some(n) = cut {
            config = config.with_checkpoint(CheckpointPolicy::at(&ckpt).stop_after(n));
        }
        let inst = build_mutex(kind, 2, FenceMask::ALL);
        let _ = check(&inst.machine(model), &config);
        drop(config);
        drop(sink);
        let text = std::fs::read_to_string(&path).expect("published stream");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);

        let spans = parse_spans(&text);
        prop_assert!(!spans.is_empty(), "traced run emitted no spans");
        if let Err(e) = validate_spans(&spans) {
            return Err(TestCaseError::fail(format!(
                "{kind:?}/{model:?}/{}: {e}", engine.label()
            )));
        }
        // Every steal edge resolves to a span that closed *before* the
        // task started being attributable to it is impossible to assert
        // on wall-clock (buffers flush late), but id ordering is the
        // forest's causal order and validate_spans checked it; spot-check
        // the engine span is the forest's root-most span.
        let min_id = spans.iter().map(|s| s.id).min().unwrap_or(0);
        let root = spans.iter().find(|s| s.id == min_id).expect("nonempty");
        prop_assert_eq!(
            root.parent, 0,
            "earliest span {} ({}) must be a root", root.id, &root.name
        );
    }
}
