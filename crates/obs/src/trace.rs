//! Causal trace spans: who ran what, when, and *because of whom*.
//!
//! The aggregate metrics in [`crate::metrics`] say how much work a run
//! did; this module says where the wall-clock went and how the work
//! propagated — which worker stole which fork, which checkpoint a
//! resumed run continued from, which CEGAR iteration burned the budget.
//! A **span** is one flat JSONL event (`kind:"span"`) with:
//!
//! - `id`: process-unique, strictly monotonically allocated (so a parent
//!   is always allocated before any child — `parent < id` is the forest
//!   invariant the validator and the proptest suite check);
//! - `parent`: the causal predecessor's span id (`0` = root). Steal
//!   edges cross threads: a stolen task's parent is the `publish` span
//!   the donor emitted when it shed the fork;
//! - `ts_us`/`dur_us`: monotonic microseconds since recorder start
//!   (instants have `dur_us:0`);
//! - `name` plus free-form fields (engine label, run ids, verdicts, …).
//!
//! Span taxonomy (see DESIGN.md §6a): `engine` (one `check` dispatch),
//! `model_check` (one model of a multi-model sweep), `task` (one DFS
//! task on a work-stealing worker), `publish` (a fork donated to the
//! queue), `seq_gate`/`seq_rerun` (sequential paths inside the parallel
//! engine), `checkpoint`, `resume` (carries `prev_run` linking to the
//! interrupted run), `watchdog` (a trip instant), `synth` and
//! `cegar_iter` (the synthesis loop).
//!
//! Writing goes through a [`TraceCtx`]: a per-worker *bounded* buffer of
//! rendered lines, flushed to the recorder's shared JSONL sink when full
//! and on drop. Workers therefore never contend on the sink inside the
//! hot loop, memory stays bounded, and a sink-less recorder just counts
//! the spans it dropped. Tracing is off by default ([`RecorderBuilder`]
//! `.trace(true)` turns it on); every `TraceCtx`
//! operation on a non-tracing recorder is a branch and a return, which
//! is what keeps the tracing-disabled path bit-identical and inside the
//! overhead budget (`exp guards`).
//!
//! Reading back: [`parse_spans`] on a (possibly torn) JSONL stream,
//! [`validate_spans`] for the forest invariants, [`chrome_trace`] for a
//! Perfetto-loadable Chrome trace-event JSON, [`phase_table`] for a
//! per-phase wall-time attribution table. The `exp obs-trace` subcommand in
//! `crates/bench` drives all four.
//!
//! [`RecorderBuilder`]: crate::recorder::RecorderBuilder

use std::collections::{BTreeMap, BTreeSet};

use crate::events::{escape_into, J};
use crate::recorder::Recorder;
use crate::report::{parse_line, stream_lines};

/// Default [`TraceCtx`] buffer capacity (rendered lines held before a
/// flush to the sink).
pub const DEFAULT_TRACE_BUF: usize = 256;

/// A span identifier. `0` ([`SpanId::NONE`]) means "no span" — the
/// parent of a root span, or any id minted while tracing is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots; disabled-tracing ids).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is [`SpanId::NONE`].
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// An in-flight span returned by [`TraceCtx::begin`]; pass it back to
/// [`TraceCtx::end`] to emit the completed span line. `Copy`, so it can
/// cross `catch_unwind` and loop boundaries freely; dropping one without
/// `end` simply emits nothing.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    /// The allocated id ([`SpanId::NONE`] when tracing is off).
    pub id: SpanId,
    t0_us: u64,
}

/// A per-worker trace writer: bounded buffer of rendered span lines,
/// flushed through the owning recorder's JSONL sink when full and on
/// drop. Obtain one from `Recorder::trace_ctx`.
#[derive(Debug)]
pub struct TraceCtx {
    rec: Recorder,
    buf: Vec<String>,
    cap: usize,
}

impl TraceCtx {
    pub(crate) fn new(rec: Recorder, cap: usize) -> TraceCtx {
        TraceCtx {
            rec,
            buf: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Whether spans written here go anywhere. Callers can skip building
    /// field values when this is false.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.rec.trace_enabled()
    }

    /// Open a span: allocates the id and timestamps the start. Emits
    /// nothing until [`end`](Self::end).
    #[must_use]
    pub fn begin(&mut self) -> OpenSpan {
        if !self.enabled() {
            return OpenSpan {
                id: SpanId::NONE,
                t0_us: 0,
            };
        }
        OpenSpan {
            id: self.rec.alloc_span_id(),
            t0_us: self.rec.now_us(),
        }
    }

    /// Close `span`, emitting its line with `name`, causal `parent`, and
    /// extra `fields`. A span begun while tracing was off is a no-op.
    pub fn end(&mut self, span: OpenSpan, name: &str, parent: SpanId, fields: &[(&str, J)]) {
        if span.id.is_none() {
            return;
        }
        let dur = self.rec.now_us().saturating_sub(span.t0_us);
        self.push_line(name, span.id, parent, span.t0_us, dur, fields);
    }

    /// Emit a zero-duration instant span and return its id (for use as a
    /// causal parent — e.g. the `publish` instant a stolen task points
    /// back at).
    pub fn instant(&mut self, name: &str, parent: SpanId, fields: &[(&str, J)]) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let id = self.rec.alloc_span_id();
        let ts = self.rec.now_us();
        self.push_line(name, id, parent, ts, 0, fields);
        id
    }

    fn push_line(
        &mut self,
        name: &str,
        id: SpanId,
        parent: SpanId,
        ts_us: u64,
        dur_us: u64,
        fields: &[(&str, J)],
    ) {
        let name_v = J::s(name);
        let id_v = J::U(id.0);
        let parent_v = J::U(parent.0);
        let ts_v = J::U(ts_us);
        let dur_v = J::U(dur_us);
        let mut all: Vec<(&str, J)> = Vec::with_capacity(5 + fields.len());
        all.push(("name", name_v));
        all.push(("id", id_v));
        all.push(("parent", parent_v));
        all.push(("ts_us", ts_v));
        all.push(("dur_us", dur_v));
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        if let Some(line) = self.rec.render_trace(&all) {
            self.buf.push(line);
            if self.buf.len() >= self.cap {
                self.flush();
            }
        }
    }

    /// Flush buffered lines to the sink now (drop does this too).
    pub fn flush(&mut self) {
        self.rec.trace_flush(&mut self.buf);
    }
}

impl Drop for TraceCtx {
    fn drop(&mut self) {
        self.flush();
    }
}

/// One parsed span line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanRow {
    /// Span name (taxonomy in the module docs).
    pub name: String,
    /// Unique span id.
    pub id: u64,
    /// Causal parent id (`0` = root).
    pub parent: u64,
    /// Start, microseconds since recorder start.
    pub ts_us: u64,
    /// Duration in microseconds (`0` for instants).
    pub dur_us: u64,
    /// Worker index for `task` spans, when present.
    pub worker: Option<u64>,
    /// All remaining fields (meta + span extras), verbatim.
    pub fields: BTreeMap<String, String>,
}

/// Parse every `kind:"span"` line out of a JSONL stream, tolerating a
/// torn (kill -9) final line exactly like the metrics report does.
#[must_use]
pub fn parse_spans(text: &str) -> Vec<SpanRow> {
    let (lines, _torn) = stream_lines(text);
    lines
        .iter()
        .filter_map(|l| parse_line(l))
        .filter(|f| f.get("kind").map(String::as_str) == Some("span"))
        .filter_map(span_from_fields)
        .collect()
}

fn span_from_fields(mut f: BTreeMap<String, String>) -> Option<SpanRow> {
    let name = f.remove("name")?;
    let id = f.remove("id")?.parse().ok()?;
    let parent = f.remove("parent")?.parse().ok()?;
    let ts_us = f.remove("ts_us")?.parse().ok()?;
    let dur_us = f.remove("dur_us")?.parse().ok()?;
    let worker = f.get("worker").and_then(|w| w.parse().ok());
    f.remove("kind");
    f.remove("t_ms");
    Some(SpanRow {
        name,
        id,
        parent,
        ts_us,
        dur_us,
        worker,
        fields: f,
    })
}

/// Check the forest invariants over a set of spans: ids are unique and
/// nonzero, every parent edge points at a *strictly earlier* id (which
/// rules out cycles by construction), and every steal edge — the parent
/// of a `task` span — resolves to a span present in the set.
pub fn validate_spans(rows: &[SpanRow]) -> Result<(), String> {
    let mut ids = BTreeSet::new();
    for r in rows {
        if r.id == 0 {
            return Err(format!("span named {:?} uses reserved id 0", r.name));
        }
        if !ids.insert(r.id) {
            return Err(format!("duplicate span id {}", r.id));
        }
    }
    for r in rows {
        if r.parent != 0 {
            if r.parent >= r.id {
                return Err(format!(
                    "span {} ({:?}) has parent {} >= its own id: parent edges must point at \
                     earlier spans",
                    r.id, r.name, r.parent
                ));
            }
            if r.name == "task" && !ids.contains(&r.parent) {
                return Err(format!(
                    "task span {} has an orphan steal edge to unknown span {}",
                    r.id, r.parent
                ));
            }
        }
    }
    Ok(())
}

/// Render spans as Chrome trace-event JSON (the `traceEvents` format
/// Perfetto and `chrome://tracing` load). Complete (`ph:"X"`) events for
/// durations, thread-scoped instants (`ph:"i"`) for `dur_us == 0`; the
/// `tid` lane is the `worker` field when present so each worker's tasks
/// stack in their own track, and `id`/`parent` plus all extra fields
/// land in `args`.
#[must_use]
pub fn chrome_trace(rows: &[SpanRow]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_into(&r.name, &mut out);
        out.push_str("\",\"cat\":\"ft\",\"ph\":\"");
        if r.dur_us == 0 {
            out.push_str("i\",\"s\":\"t");
        } else {
            out.push('X');
        }
        out.push_str("\",\"ts\":");
        out.push_str(&r.ts_us.to_string());
        if r.dur_us > 0 {
            out.push_str(",\"dur\":");
            out.push_str(&r.dur_us.to_string());
        }
        out.push_str(",\"pid\":1,\"tid\":");
        out.push_str(&r.worker.map_or(0, |w| w + 1).to_string());
        out.push_str(",\"args\":{\"id\":\"");
        out.push_str(&r.id.to_string());
        out.push_str("\",\"parent\":\"");
        out.push_str(&r.parent.to_string());
        out.push('"');
        for (k, v) in &r.fields {
            out.push_str(",\"");
            escape_into(k, &mut out);
            out.push_str("\":\"");
            escape_into(v, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// A per-phase wall-time attribution table (markdown). Phases are span
/// names; the `% of wall` column is relative to the stream's overall
/// span extent, so concurrent phases (parallel `task` spans) can sum
/// past 100% — that excess *is* the parallelism.
#[must_use]
pub fn phase_table(rows: &[SpanRow]) -> String {
    let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut t_min = u64::MAX;
    let mut t_max = 0u64;
    for r in rows {
        let e = agg.entry(r.name.as_str()).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.dur_us;
        t_min = t_min.min(r.ts_us);
        t_max = t_max.max(r.ts_us + r.dur_us);
    }
    let wall_us = t_max.saturating_sub(t_min).max(1);
    let mut phases: Vec<(&str, u64, u64)> = agg.into_iter().map(|(k, (n, d))| (k, n, d)).collect();
    phases.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let mut out = String::new();
    out.push_str("| phase | spans | total ms | % of wall |\n");
    out.push_str("|---|---:|---:|---:|\n");
    #[allow(clippy::cast_precision_loss)]
    for (name, n, dur_us) in phases {
        let ms = dur_us as f64 / 1000.0;
        let pct = dur_us as f64 * 100.0 / wall_us as f64;
        out.push_str(&format!("| {name} | {n} | {ms:.1} | {pct:.1}% |\n"));
    }
    #[allow(clippy::cast_precision_loss)]
    {
        out.push_str(&format!(
            "\nwall extent: {:.1} ms across {} spans\n",
            wall_us as f64 / 1000.0,
            rows.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::recorder::Recorder;

    fn traced_recorder() -> Recorder {
        Recorder::builder()
            .trace(true)
            .heartbeat_ms(0)
            .quiet(true)
            .build()
    }

    #[test]
    fn disabled_tracing_emits_nothing_and_allocates_no_ids() {
        let r = Recorder::builder().heartbeat_ms(0).quiet(true).build();
        let mut t = r.trace_ctx();
        assert!(!t.enabled());
        let s = t.begin();
        assert!(s.id.is_none());
        t.end(s, "engine", SpanId::NONE, &[]);
        assert_eq!(t.instant("publish", SpanId::NONE, &[]), SpanId::NONE);
        t.flush();
        assert_eq!(r.snapshot().get(Metric::TraceSpans), 0);
        assert_eq!(r.snapshot().get(Metric::TraceDropped), 0);
    }

    #[test]
    fn sinkless_tracing_counts_drops() {
        let r = traced_recorder();
        let mut t = r.trace_ctx();
        let s = t.begin();
        assert!(!s.id.is_none());
        t.end(s, "engine", SpanId::NONE, &[("verdict", J::s("ok"))]);
        t.flush();
        assert_eq!(r.snapshot().get(Metric::TraceDropped), 1);
        assert_eq!(r.snapshot().get(Metric::TraceSpans), 0);
    }

    #[test]
    fn span_ids_are_monotonic_and_parents_precede_children() {
        let r = traced_recorder();
        let mut t = r.trace_ctx();
        let a = t.begin();
        let b = t.begin();
        assert!(a.id < b.id, "{:?} < {:?}", a.id, b.id);
        let i = t.instant("publish", a.id, &[]);
        assert!(b.id < i);
    }

    #[test]
    fn parse_validate_roundtrip() {
        let text = concat!(
            "{\"t_ms\":0,\"kind\":\"span\",\"engine\":\"pardpor\",\"name\":\"engine\",",
            "\"id\":1,\"parent\":0,\"ts_us\":10,\"dur_us\":500,\"run\":\"42\"}\n",
            "{\"t_ms\":0,\"kind\":\"span\",\"name\":\"publish\",\"id\":2,\"parent\":1,",
            "\"ts_us\":20,\"dur_us\":0}\n",
            "{\"t_ms\":0,\"kind\":\"heartbeat\",\"states\":5}\n",
            "{\"t_ms\":1,\"kind\":\"span\",\"name\":\"task\",\"id\":3,\"parent\":2,",
            "\"ts_us\":30,\"dur_us\":100,\"worker\":1}\n",
            "{\"t_ms\":1,\"kind\":\"span\",\"name\":\"task\",\"id\":4,\"par", // torn tail
        );
        let rows = parse_spans(text);
        assert_eq!(rows.len(), 3, "heartbeat skipped, torn tail dropped");
        assert_eq!(rows[0].name, "engine");
        assert_eq!(rows[0].fields.get("run").map(String::as_str), Some("42"));
        assert_eq!(rows[2].worker, Some(1));
        validate_spans(&rows).expect("valid forest");
    }

    #[test]
    fn validate_rejects_cycles_duplicates_and_orphans() {
        let mk = |name: &str, id: u64, parent: u64| SpanRow {
            name: name.to_string(),
            id,
            parent,
            ..SpanRow::default()
        };
        let dup = vec![mk("engine", 1, 0), mk("task", 1, 0)];
        assert!(validate_spans(&dup).unwrap_err().contains("duplicate"));
        let cycle = vec![mk("engine", 2, 2)];
        assert!(validate_spans(&cycle).unwrap_err().contains(">="));
        let orphan = vec![mk("engine", 5, 0), mk("task", 6, 3)];
        assert!(validate_spans(&orphan).unwrap_err().contains("orphan"));
        let ok = vec![mk("engine", 1, 0), mk("publish", 2, 1), mk("task", 3, 2)];
        validate_spans(&ok).expect("forest");
    }

    #[test]
    fn chrome_trace_is_wellformed_and_carries_edges() {
        let rows = parse_spans(concat!(
            "{\"t_ms\":0,\"kind\":\"span\",\"name\":\"engine\",\"id\":1,\"parent\":0,",
            "\"ts_us\":0,\"dur_us\":900}\n",
            "{\"t_ms\":0,\"kind\":\"span\",\"name\":\"task\",\"id\":2,\"parent\":1,",
            "\"ts_us\":50,\"dur_us\":0,\"worker\":0}\n",
        ));
        let json = chrome_trace(&rows);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"parent\":\"1\""));
        // The parser in report.rs handles flat objects only, so spot-check
        // balance instead: every brace opened is closed.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn phase_table_attributes_time() {
        let rows = parse_spans(concat!(
            "{\"t_ms\":0,\"kind\":\"span\",\"name\":\"engine\",\"id\":1,\"parent\":0,",
            "\"ts_us\":0,\"dur_us\":1000}\n",
            "{\"t_ms\":0,\"kind\":\"span\",\"name\":\"task\",\"id\":2,\"parent\":1,",
            "\"ts_us\":100,\"dur_us\":400,\"worker\":0}\n",
            "{\"t_ms\":0,\"kind\":\"span\",\"name\":\"task\",\"id\":3,\"parent\":1,",
            "\"ts_us\":100,\"dur_us\":600,\"worker\":1}\n",
        ));
        let table = phase_table(&rows);
        assert!(table.contains("| engine | 1 | 1.0 | 100.0% |"), "{table}");
        assert!(table.contains("| task | 2 | 1.0 | 100.0% |"), "{table}");
    }
}
