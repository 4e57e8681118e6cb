//! Offline rendering of JSONL event streams: a dependency-free flat-JSON
//! scanner plus Markdown/ASCII report builders (per-engine comparison
//! table, histogram sketches, hot-pc top-k, heartbeat summary). Consumed
//! by `exp obs-report` in `crates/bench` and by tests.

use std::collections::BTreeMap;

use crate::metrics::{bucket_floor, HistSnapshot, HIST_BUCKETS};

/// Parse one flat JSON object line (scalar values only — the shape every
/// recorder event has) into key → raw-value pairs. String values are
/// unescaped; numbers/bools/null keep their literal text. Returns `None`
/// on malformed input (report tooling skips such lines).
#[must_use]
pub fn parse_line(line: &str) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let bytes = line.trim().as_bytes();
    let mut i = 0usize;
    let skip_ws = |bytes: &[u8], mut i: usize| {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    i = skip_ws(bytes, i);
    if i >= bytes.len() || bytes[i] != b'{' {
        return None;
    }
    i += 1;
    loop {
        i = skip_ws(bytes, i);
        if i < bytes.len() && bytes[i] == b'}' {
            return Some(out);
        }
        let (key, next) = parse_string(bytes, i)?;
        i = skip_ws(bytes, next);
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i = skip_ws(bytes, i + 1);
        let (value, next) = if i < bytes.len() && bytes[i] == b'"' {
            parse_string(bytes, i)?
        } else {
            let start = i;
            while i < bytes.len() && bytes[i] != b',' && bytes[i] != b'}' {
                i += 1;
            }
            (
                String::from_utf8_lossy(&bytes[start..i]).trim().to_string(),
                i,
            )
        };
        out.insert(key, value);
        i = skip_ws(bytes, next);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Some(out),
            _ => return None,
        }
    }
}

/// Parse a JSON string starting at `bytes[i] == b'"'`; returns the
/// unescaped contents and the index just past the closing quote.
fn parse_string(bytes: &[u8], i: usize) -> Option<(String, usize)> {
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    let mut s = String::new();
    let mut i = i + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((s, i + 1)),
            b'\\' => {
                i += 1;
                match bytes.get(i)? {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(bytes.get(i + 1..i + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        s.push(char::from_u32(code)?);
                        i += 4;
                    }
                    _ => return None,
                }
                i += 1;
            }
            c => {
                // Multi-byte UTF-8 sequences pass through byte-wise.
                let start = i;
                let len = utf8_len(c);
                let chunk = bytes.get(start..start + len)?;
                s.push_str(std::str::from_utf8(chunk).ok()?);
                i += len;
            }
        }
    }
    None
}

const fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parse the compact `count@bucket` histogram field written by
/// [`crate::metrics::hist_field`].
#[must_use]
pub fn parse_hist(field: &str) -> HistSnapshot {
    let mut h = HistSnapshot::default();
    for part in field.split(',') {
        if let Some((count, bucket)) = part.split_once('@') {
            if let (Ok(c), Ok(b)) = (count.trim().parse::<u64>(), bucket.trim().parse::<usize>()) {
                if b < HIST_BUCKETS {
                    h.buckets[b] += c;
                }
            }
        }
    }
    h
}

/// Render a histogram as an ASCII bar sketch, one line per non-empty
/// bucket prefix, bars scaled to the largest bucket.
#[must_use]
pub fn sketch(h: &HistSnapshot) -> String {
    use std::fmt::Write as _;
    let Some(max_bucket) = h.max_bucket() else {
        return "  (no samples)\n".to_string();
    };
    let peak = h.buckets.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in h.buckets.iter().enumerate().take(max_bucket + 1) {
        let label = if i == 0 {
            "0".to_string()
        } else if bucket_floor(i) == (bucket_floor(i + 1).saturating_sub(1)) {
            format!("{}", bucket_floor(i))
        } else {
            format!("{}-{}", bucket_floor(i), 2 * bucket_floor(i) - 1)
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
        let width = ((c as f64 / peak as f64) * 24.0).round() as usize;
        let _ = writeln!(out, "  {label:>9} |{:<24}| {c}", "#".repeat(width));
    }
    out
}

/// Split a raw JSONL stream into complete lines plus a trailing
/// truncated line, if any. A process killed mid-write (the sink flushes
/// line by line) can tear at most the final line: no terminating
/// newline *and* unparseable. Such a tail is returned separately so
/// callers skip and count it instead of erroring; a parseable final
/// line merely missing its newline is kept.
fn stream_lines(text: &str) -> (Vec<String>, Option<String>) {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    if !text.is_empty() && !text.ends_with('\n') {
        if let Some(last) = lines.last() {
            if parse_line(last).is_none() {
                return (lines[..lines.len() - 1].to_vec(), lines.pop());
            }
        }
    }
    (lines, None)
}

/// What [`scan_stream`] found in one raw JSONL stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamScan {
    /// The well-formed event lines, in stream order.
    pub lines: Vec<String>,
    /// Malformed non-empty lines *before* the tail — corruption in the
    /// middle of a stream (interleaved writers, disk errors). Skipped,
    /// never fatal: one bad line must not cost the rest of the stream.
    pub lines_skipped: usize,
    /// A truncated trailing line (no newline, unparseable — the
    /// signature of a process killed mid-write), if any.
    pub torn_tail: Option<String>,
}

/// Scan a raw JSONL stream, keeping every well-formed event line and
/// counting what had to be skipped. `exp obs-report` surfaces
/// [`StreamScan::lines_skipped`] as a warning
/// rather than erroring — a report over a terabyte of telemetry must
/// survive one corrupt line.
#[must_use]
pub fn scan_stream(text: &str) -> StreamScan {
    let (raw, torn_tail) = stream_lines(text);
    let mut lines = Vec::with_capacity(raw.len());
    let mut lines_skipped = 0usize;
    for l in raw {
        if l.trim().is_empty() {
            continue;
        }
        if parse_line(&l).is_some() {
            lines.push(l);
        } else {
            lines_skipped += 1;
        }
    }
    StreamScan {
        lines,
        lines_skipped,
        torn_tail,
    }
}

/// One parsed event line grouped under its `(workload, engine)` identity.
#[derive(Clone, Debug)]
pub struct EventRow {
    /// `workload` meta field (empty if absent).
    pub workload: String,
    /// `engine` meta field (empty if absent).
    pub engine: String,
    /// All fields of the line.
    pub fields: BTreeMap<String, String>,
}

/// Parse every well-formed line, tagging each with its workload/engine.
#[must_use]
pub fn parse_events(lines: &[String]) -> Vec<EventRow> {
    lines
        .iter()
        .filter_map(|l| parse_line(l))
        .map(|fields| EventRow {
            workload: fields.get("workload").cloned().unwrap_or_default(),
            engine: fields.get("engine").cloned().unwrap_or_default(),
            fields,
        })
        .collect()
}

fn get_u64(f: &BTreeMap<String, String>, key: &str) -> u64 {
    f.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Snapshot keys that are identity/formatting or already aggregated
/// elsewhere — everything else that parses as an unsigned integer
/// becomes a comparison-table column, so a newly added metric or gauge
/// (e.g. the work-stealing `fork_published`/`fork_stolen`/
/// `fp_contention` counters) is never silently dropped from reports.
fn non_counter_key(key: &str) -> bool {
    matches!(key, "t_ms" | "kind" | "workload" | "engine" | "hot_pcs")
        || RESILIENCE_COLS.contains(&key)
        || SYNTH_COLS.contains(&key)
        || key.ends_with("_hist")
        || is_per_proc(key)
}

/// Checkpoint/resume counters get their own table (below) rather than
/// trailing columns in the per-engine comparison.
const RESILIENCE_COLS: [&str; 3] = ["checkpoint_written", "checkpoint_bytes", "resume_replayed"];

/// Fence-synthesis counters likewise get their own table.
const SYNTH_COLS: [&str; 3] = ["synth_iterations", "fences_inserted", "core_size"];

/// `p0_fences` / `p3_crashes` — per-process breakdowns of
/// totals the table already shows.
fn is_per_proc(key: &str) -> bool {
    key.strip_prefix('p')
        .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()) && r.contains('_'))
}

/// Render the full Markdown report for a set of JSONL lines (possibly
/// concatenated from several streams): per-engine comparison table,
/// histogram sketches, hot-pc top-k, and a heartbeat summary.
#[must_use]
pub fn render_report(title: &str, lines: &[String]) -> String {
    use std::fmt::Write as _;
    let events = parse_events(lines);
    let mut out = String::new();
    let _ = writeln!(out, "# {title}\n");
    let _ = writeln!(
        out,
        "{} events parsed ({} skipped as malformed).\n",
        events.len(),
        lines.iter().filter(|l| !l.trim().is_empty()).count() - events.len()
    );

    // --- Per-engine comparison table (last snapshot per workload/engine).
    let mut snaps: BTreeMap<(String, String), BTreeMap<String, String>> = BTreeMap::new();
    for e in &events {
        if e.fields.get("kind").map(String::as_str) == Some("snapshot") {
            snaps.insert((e.workload.clone(), e.engine.clone()), e.fields.clone());
        }
    }
    let _ = writeln!(out, "## Per-engine comparison\n");
    if snaps.is_empty() {
        let _ = writeln!(out, "(no snapshot events)\n");
    } else {
        let base_cols = [
            "states",
            "transitions",
            "fences",
            "crashes",
            "sleep_hits",
            "dedup_hits",
            "max_frontier",
        ];
        // Any other integer-valued snapshot key that is non-zero in some
        // row becomes a trailing column (sorted for a stable layout) —
        // unknown counter names render instead of vanishing, and a
        // counter no row moved does not widen the table.
        let mut extra: Vec<String> = Vec::new();
        for f in snaps.values() {
            for (k, v) in f {
                if !base_cols.contains(&k.as_str())
                    && !non_counter_key(k)
                    && !extra.iter().any(|e| e == k)
                    && v.parse::<u64>().is_ok_and(|n| n > 0)
                {
                    extra.push(k.clone());
                }
            }
        }
        extra.sort();
        let cols: Vec<&str> = base_cols
            .iter()
            .copied()
            .chain(extra.iter().map(String::as_str))
            .collect();
        let _ = writeln!(out, "| workload | engine | {} |", cols.join(" | "));
        let _ = writeln!(
            out,
            "|---|---|{}|",
            cols.iter().map(|_| "---:").collect::<Vec<_>>().join("|")
        );
        for ((workload, engine), f) in &snaps {
            // A row zero in every printed column says nothing here: its
            // numbers live in another table (a `cegar` snapshot's are
            // the Synthesis table's).
            let cells: Vec<u64> = cols.iter().map(|c| get_u64(f, c)).collect();
            if cells.iter().all(|&c| c == 0) {
                continue;
            }
            let cells: Vec<String> = cells.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "| {workload} | {engine} | {} |", cells.join(" | "));
        }
        let _ = writeln!(out);
    }

    // --- Histogram sketches.
    for (hist_key, name) in [
        ("buffer_depth_hist", "write-buffer depth at buffered writes"),
        ("frame_depth_hist", "DFS depth at state insertion"),
    ] {
        let mut merged = HistSnapshot::default();
        for f in snaps.values() {
            if let Some(field) = f.get(hist_key) {
                merged.merge(&parse_hist(field));
            }
        }
        if merged.total() > 0 {
            let _ = writeln!(out, "## Histogram: {name}\n");
            let _ = writeln!(out, "```");
            out.push_str(&sketch(&merged));
            let _ = writeln!(out, "```\n");
        }
    }

    // --- Hot pcs.
    let hot: Vec<((String, String), String)> = snaps
        .iter()
        .filter_map(|(k, f)| f.get("hot_pcs").map(|h| (k.clone(), h.clone())))
        .filter(|(_, h)| !h.is_empty())
        .collect();
    if !hot.is_empty() {
        let _ = writeln!(out, "## Hottest pcs (hits ≈ time-in-state)\n");
        for ((workload, engine), field) in &hot {
            let pretty: Vec<String> = field
                .split(';')
                .take(8)
                .map(|entry| entry.replace('=', " × "))
                .collect();
            let _ = writeln!(out, "- `{workload}/{engine}`: {}", pretty.join(", "));
        }
        let _ = writeln!(out);
    }

    // --- Resilience: checkpoint/resume and supervisor activity.
    let res_rows: Vec<(&(String, String), [u64; 3])> = snaps
        .iter()
        .map(|(k, f)| {
            let mut vals = [0u64; 3];
            for (i, col) in RESILIENCE_COLS.iter().enumerate() {
                vals[i] = get_u64(f, col);
            }
            (k, vals)
        })
        .filter(|(_, vals)| vals.iter().any(|&v| v > 0))
        .collect();
    let mut res_events: BTreeMap<String, u64> = BTreeMap::new();
    for e in &events {
        if let Some(kind) = e.fields.get("kind") {
            if matches!(
                kind.as_str(),
                "checkpoint" | "checkpoint_retry" | "checkpoint_failed"
            ) {
                *res_events.entry(kind.clone()).or_insert(0) += 1;
            }
        }
    }
    if !res_rows.is_empty() || !res_events.is_empty() {
        let _ = writeln!(out, "## Resilience\n");
        if !res_rows.is_empty() {
            let _ = writeln!(
                out,
                "| workload | engine | checkpoints written | checkpoint bytes | forks replayed on resume |"
            );
            let _ = writeln!(out, "|---|---|---:|---:|---:|");
            for ((workload, engine), vals) in &res_rows {
                let _ = writeln!(
                    out,
                    "| {workload} | {engine} | {} | {} | {} |",
                    vals[0], vals[1], vals[2]
                );
            }
            let _ = writeln!(out);
        }
        if !res_events.is_empty() {
            let pretty: Vec<String> = res_events
                .iter()
                .map(|(k, n)| format!("`{k}` × {n}"))
                .collect();
            let _ = writeln!(out, "Resilience events: {}.\n", pretty.join(", "));
        }
    }

    // --- Synthesis: CEGAR fence-insertion activity.
    let synth_rows: Vec<(&(String, String), [u64; 3])> = snaps
        .iter()
        .map(|(k, f)| {
            let mut vals = [0u64; 3];
            for (i, col) in SYNTH_COLS.iter().enumerate() {
                vals[i] = get_u64(f, col);
            }
            (k, vals)
        })
        .filter(|(_, vals)| vals.iter().any(|&v| v > 0))
        .collect();
    if !synth_rows.is_empty() {
        let _ = writeln!(out, "## Synthesis\n");
        let _ = writeln!(
            out,
            "| workload | engine | CEGAR iterations | fences inserted | core sites accumulated |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|");
        for ((workload, engine), vals) in &synth_rows {
            let _ = writeln!(
                out,
                "| {workload} | {engine} | {} | {} | {} |",
                vals[0], vals[1], vals[2]
            );
        }
        let _ = writeln!(out);
    }

    // --- Progress (heartbeat trajectory): latest position and peak rate.
    #[derive(Default)]
    struct BeatAgg {
        n: u64,
        peak_rate: f64,
        elapsed_ms: u64,
        states: u64,
    }
    let mut beats: BTreeMap<(String, String), BeatAgg> = BTreeMap::new();
    for e in &events {
        if e.fields.get("kind").map(String::as_str) == Some("heartbeat") {
            let rate: f64 = e
                .fields
                .get("states_per_sec")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            let entry = beats
                .entry((e.workload.clone(), e.engine.clone()))
                .or_default();
            entry.n += 1;
            entry.peak_rate = entry.peak_rate.max(rate);
            // Lines arrive in emission order; keep the latest position.
            entry.elapsed_ms = entry
                .elapsed_ms
                .max(get_u64(&e.fields, "elapsed_ms").max(get_u64(&e.fields, "t_ms")));
            entry.states = entry.states.max(get_u64(&e.fields, "states"));
        }
    }
    if !beats.is_empty() {
        let _ = writeln!(out, "## Progress\n");
        let _ = writeln!(
            out,
            "| workload | engine | beats | elapsed s | states | peak states/sec |"
        );
        let _ = writeln!(out, "|---|---|---:|---:|---:|---:|");
        #[allow(clippy::cast_precision_loss)]
        for ((workload, engine), b) in &beats {
            let _ = writeln!(
                out,
                "| {workload} | {engine} | {} | {:.1} | {} | {:.0} |",
                b.n,
                b.elapsed_ms as f64 / 1000.0,
                b.states,
                b.peak_rate,
            );
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_recorder_lines() {
        let line = r#"{"t_ms":12,"kind":"snapshot","engine":"undo","states":345,"rate":1.500,"ok":true,"none":null,"msg":"a\"b"}"#;
        let f = parse_line(line).expect("parses");
        assert_eq!(f["kind"], "snapshot");
        assert_eq!(f["engine"], "undo");
        assert_eq!(f["states"], "345");
        assert_eq!(f["rate"], "1.500");
        assert_eq!(f["ok"], "true");
        assert_eq!(f["none"], "null");
        assert_eq!(f["msg"], "a\"b");
        assert!(parse_line("not json").is_none());
        assert!(parse_line("{\"unterminated\":").is_none());
    }

    #[test]
    fn hist_field_roundtrip() {
        let mut h = HistSnapshot::default();
        h.buckets[0] = 3;
        h.buckets[2] = 17;
        h.buckets[5] = 1;
        let field = crate::metrics::hist_field(&h);
        assert_eq!(field, "3@0,17@2,1@5");
        assert_eq!(parse_hist(&field), h);
        let s = sketch(&h);
        assert!(s.contains("17"), "sketch shows counts: {s}");
    }

    #[test]
    fn report_renders_engine_table() {
        let lines = vec![
            r#"{"t_ms":1,"kind":"snapshot","workload":"peterson2_pso","engine":"undo","states":10,"transitions":20,"fences":4,"crashes":0,"sleep_hits":0,"dedup_hits":5,"max_frontier":3}"#.to_string(),
            r#"{"t_ms":2,"kind":"snapshot","workload":"peterson2_pso","engine":"dpor","states":7,"transitions":12,"fences":4,"crashes":0,"sleep_hits":3,"dedup_hits":2,"max_frontier":3,"hot_pcs":"p0@7:wait=9;p1@2=5"}"#.to_string(),
            r#"{"t_ms":3,"kind":"heartbeat","workload":"peterson2_pso","engine":"undo","states":5,"states_per_sec":123.000}"#.to_string(),
            "garbage".to_string(),
        ];
        let r = render_report("Test", &lines);
        assert!(r.contains("| peterson2_pso | undo | 10 | 20 |"));
        assert!(r.contains("| peterson2_pso | dpor | 7 | 12 |"));
        assert!(r.contains("Hottest pcs"));
        assert!(r.contains("p0@7:wait × 9"));
        assert!(r.contains("## Progress"), "{r}");
        assert!(
            r.contains("| peterson2_pso | undo | 1 | 0.0 | 5 | 123 |\n"),
            "{r}"
        );
    }

    #[test]
    fn stream_lines_separates_a_torn_tail() {
        // A torn final line (no newline, unparseable) is split off…
        let (lines, torn) = stream_lines("{\"kind\":\"a\"}\n{\"kind\":\"b\",\"x\"");
        assert_eq!(lines, vec!["{\"kind\":\"a\"}".to_string()]);
        assert_eq!(torn.as_deref(), Some("{\"kind\":\"b\",\"x\""));
        // …a parseable final line merely missing its newline is kept…
        let (lines, torn) = stream_lines("{\"kind\":\"a\"}\n{\"kind\":\"b\"}");
        assert_eq!(lines.len(), 2);
        assert!(torn.is_none());
        // …and clean or empty streams pass through.
        let (lines, torn) = stream_lines("{\"kind\":\"a\"}\n");
        assert_eq!(lines.len(), 1);
        assert!(torn.is_none());
        assert_eq!(stream_lines(""), (vec![], None));
    }

    #[test]
    fn report_renders_resilience_table() {
        let lines = vec![
            r#"{"t_ms":1,"kind":"snapshot","workload":"gt3_pso","engine":"pardpor","states":9,"checkpoint_written":2,"checkpoint_bytes":4096,"resume_replayed":5}"#.to_string(),
            r#"{"t_ms":2,"kind":"checkpoint","workload":"gt3_pso","engine":"pardpor","bytes":2048}"#.to_string(),
            r#"{"t_ms":3,"kind":"checkpoint_retry","workload":"gt3_pso","engine":"pardpor","attempt":1}"#.to_string(),
            r#"{"t_ms":4,"kind":"snapshot","workload":"quiet","engine":"undo","states":3}"#.to_string(),
        ];
        let r = render_report("Test", &lines);
        assert!(r.contains("## Resilience"), "section present: {r}");
        assert!(
            r.contains("| gt3_pso | pardpor | 2 | 4096 | 5 |"),
            "counters tabulated: {r}"
        );
        assert!(
            r.contains("`checkpoint` × 1") && r.contains("`checkpoint_retry` × 1"),
            "events counted: {r}"
        );
        // Rows with all-zero resilience counters stay out of the table,
        // and the counters do not leak into the comparison extras.
        assert!(!r.contains("| quiet | undo | 0 | 0 | 0 |"));
        assert!(!r.contains("checkpoint_written |"), "no extra column: {r}");
    }

    #[test]
    fn scan_stream_skips_malformed_midfile_lines_with_a_count() {
        // Corruption in the middle of a stream (a half-line from an
        // interleaved writer, binary garbage) is skipped and counted;
        // everything around it survives, torn tails stay separate.
        let text = "{\"kind\":\"a\"}\n\
                    {\"kind\":\"b\",\"x\"\n\
                    \x00\x01binary garbage\n\
                    \n\
                    {\"kind\":\"c\"}\n\
                    {\"kind\":\"d\",\"y\"";
        let scan = scan_stream(text);
        assert_eq!(
            scan.lines,
            vec![
                "{\"kind\":\"a\"}".to_string(),
                "{\"kind\":\"c\"}".to_string()
            ]
        );
        assert_eq!(scan.lines_skipped, 2, "two malformed mid-file lines");
        assert_eq!(scan.torn_tail.as_deref(), Some("{\"kind\":\"d\",\"y\""));
        // Clean streams scan clean.
        let scan = scan_stream("{\"kind\":\"a\"}\n");
        assert_eq!((scan.lines.len(), scan.lines_skipped), (1, 0));
        assert!(scan.torn_tail.is_none());
        assert_eq!(scan_stream(""), StreamScan::default());
    }

    #[test]
    fn report_renders_unknown_counters_as_extra_columns() {
        let lines = vec![
            r#"{"t_ms":1,"kind":"snapshot","workload":"filter3_pso","engine":"dpor","states":50,"transitions":90,"fences":4,"crashes":0,"sleep_hits":9,"dedup_hits":5,"max_frontier":3}"#.to_string(),
            r#"{"t_ms":2,"kind":"snapshot","workload":"filter3_pso","engine":"pardpor","states":50,"transitions":95,"fences":4,"crashes":0,"sleep_hits":9,"dedup_hits":5,"max_frontier":3,"fork_published":6,"fork_stolen":7,"fp_contention":2,"p0_fences":1,"buffer_depth_hist":"3@0"}"#.to_string(),
        ];
        let r = render_report("Test", &lines);
        // The steal/contention counters appear as (sorted) trailing
        // columns rather than being silently dropped…
        assert!(
            r.contains("| fork_published | fork_stolen | fp_contention |"),
            "new counters become columns: {r}"
        );
        assert!(r.contains("| filter3_pso | pardpor | 50 | 95 | 4 | 0 | 9 | 5 | 3 | 6 | 7 | 2 |"));
        // …rows without them render zeros…
        assert!(r.contains("| filter3_pso | dpor | 50 | 90 | 4 | 0 | 9 | 5 | 3 | 0 | 0 | 0 |"));
        // …and structural / per-proc keys stay out of the table.
        assert!(!r.contains("| p0_fences"), "per-proc keys excluded: {r}");
        assert!(
            !r.contains("buffer_depth_hist |"),
            "histograms excluded: {r}"
        );
    }

    #[test]
    fn comparison_table_drops_extra_columns_that_are_zero_in_every_row() {
        let lines = vec![
            r#"{"t_ms":1,"kind":"snapshot","workload":"ttas2_pso","engine":"undo","states":86,"crashes":0,"cas_ops":18,"swap_ops":0,"heartbeats":0}"#.to_string(),
            r#"{"t_ms":2,"kind":"snapshot","workload":"ttas2_pso","engine":"dpor","states":86,"crashes":0,"cas_ops":0,"swap_ops":0,"heartbeats":0}"#.to_string(),
        ];
        let r = render_report("Test", &lines);
        // `cas_ops` moved in one row, so it is a column (zero in the
        // other); `swap_ops` and `heartbeats` moved in none.
        assert!(r.contains("| max_frontier | cas_ops |\n"), "{r}");
        assert!(r.contains("| ttas2_pso | dpor | 86 | 0 | 0 | 0 | 0 | 0 | 0 | 0 |\n"));
        assert!(r.contains("| ttas2_pso | undo | 86 | 0 | 0 | 0 | 0 | 0 | 0 | 18 |\n"));
        // The seven leading columns are the table's fixed layout.
        assert!(r.contains("| crashes |"), "{r}");
    }

    #[test]
    fn comparison_table_drops_rows_that_are_zero_in_every_column() {
        let lines = vec![
            r#"{"t_ms":1,"kind":"snapshot","workload":"bakery2","engine":"cegar","states":0,"synth_iterations":5,"fences_inserted":5,"core_size":5}"#.to_string(),
            r#"{"t_ms":2,"kind":"snapshot","workload":"bakery2","engine":"dpor","states":395,"cas_ops":0}"#.to_string(),
        ];
        let r = render_report("Test", &lines);
        // The synthesis rollup moved no comparison column — not even an
        // extra one — so it is a row of the Synthesis table only.
        assert!(!r.contains("| bakery2 | cegar | 0 |"), "{r}");
        assert!(r.contains("| bakery2 | cegar | 5 | 5 | 5 |"), "{r}");
        assert!(r.contains("| bakery2 | dpor | 395 | 0 | 0 | 0 | 0 | 0 | 0 |\n"));
    }
}
