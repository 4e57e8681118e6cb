//! Trace-stream durability: spans ride the same crash-safe JSONL sink as
//! the metric events, so the two crash signatures that sink is designed
//! around must hold for spans too — a live (never-renamed) `.partial`
//! stream is readable, and a `kill -9` mid-write leaves at most one torn
//! trailing line, which the span parser skips without dropping any
//! complete span. A committed stream also outlives the code that wrote
//! it: keys a later recorder no longer emits must still parse.

use std::sync::Arc;

use ftobs::report::{render_report, stream_lines};
use ftobs::{parse_spans, validate_spans, JsonlSink, Recorder, SpanId, J};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ft_trace_stream_{}_{name}", std::process::id()))
}

/// Emit a small two-span forest through the real recorder/sink path and
/// return the raw bytes of the live `.partial` stream (the sink is still
/// open — exactly the state a crashed run leaves behind).
fn live_stream_bytes(path: &std::path::Path) -> String {
    let sink = Arc::new(JsonlSink::create(path).expect("create sink"));
    let rec = Recorder::builder()
        .quiet(true)
        .trace(true)
        .sink(sink.clone())
        .build();
    let mut tctx = rec.trace_ctx();
    let engine = tctx.begin();
    let engine_id = engine.id;
    let task = tctx.begin();
    tctx.end(task, "task", SpanId(engine_id.0), &[("worker", J::U(0))]);
    tctx.end(engine, "engine", SpanId::NONE, &[("verdict", J::s("ok"))]);
    // Written last, so it is the line a mid-write kill tears: losing it
    // never orphans a steal edge.
    tctx.instant("watchdog", SpanId(engine_id.0), &[("frontier", J::U(1))]);
    tctx.flush();
    sink.flush();
    let mut partial = path.to_path_buf().into_os_string();
    partial.push(".partial");
    std::fs::read_to_string(std::path::PathBuf::from(partial)).expect("live .partial stream")
}

#[test]
fn partial_stream_parses_and_validates() {
    let path = tmp("live.jsonl");
    let text = live_stream_bytes(&path);
    let spans = parse_spans(&text);
    assert_eq!(spans.len(), 3, "all spans visible in the live stream");
    validate_spans(&spans).expect("live stream is a valid forest");
    assert!(
        spans.iter().any(|s| s.name == "task" && s.parent != 0),
        "steal edge survives in the crash artifact"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_trailing_line_is_skipped_not_fatal() {
    let path = tmp("torn.jsonl");
    let text = live_stream_bytes(&path);
    let full = parse_spans(&text).len();
    assert_eq!(full, 3);

    // kill -9 mid-write: the final line is cut short and unterminated.
    let torn_at = text.trim_end().len() - 9;
    let torn_text = &text[..torn_at];
    let (complete, torn) = stream_lines(torn_text);
    assert!(torn.is_some(), "the cut line must be detected as torn");
    assert_eq!(
        complete.len(),
        text.trim_end().lines().count() - 1,
        "only the torn line is dropped"
    );

    let spans = parse_spans(torn_text);
    assert_eq!(spans.len(), full - 1, "every complete span survives");
    validate_spans(&spans).expect("torn stream still validates");
    let _ = std::fs::remove_file(&path);
}

/// Streams committed by earlier runs carry the estimate keys heartbeats
/// had then (the second line); they must parse without error and print
/// nothing. Kept out of `src/`, where CI greps for those names.
#[test]
fn progress_table_renders_position_and_rate() {
    let lines = vec![
        r#"{"t_ms":1000,"kind":"heartbeat","workload":"gt3","engine":"pardpor","elapsed_ms":1000,"states":40,"states_per_sec":40.000}"#.to_string(),
        r#"{"t_ms":2000,"kind":"heartbeat","workload":"gt3","engine":"pardpor","elapsed_ms":2000,"states":100,"states_per_sec":50.000,"est_total_states":400,"est_remaining":300,"eta_ms":6000}"#.to_string(),
    ];
    let r = render_report("Test", &lines);
    assert!(
        r.contains("| gt3 | pardpor | 2 | 2.0 | 100 | 50 |\n"),
        "latest position, peak rate: {r}"
    );
    assert!(!r.contains("400") && !r.contains("6000"), "{r}");
}
