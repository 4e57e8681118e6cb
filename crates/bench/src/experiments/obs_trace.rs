//! **`exp obs-trace FILE`** — the causal-trace consumer: turn
//! a `kind:"span"` JSONL stream into Chrome trace-event JSON that Perfetto
//! (or `chrome://tracing`) loads directly, validate the span forest, and
//! attribute wall-clock to phases. It
//!
//! 1. parses the spans out of the stream (a torn trailing line is
//!    tolerated, exactly like the metrics report),
//! 2. **validates** the forest — unique nonzero ids, parent edges
//!    pointing strictly at earlier spans, no orphan steal edges — and
//!    exits non-zero on the first violation (CI runs this as a guard),
//! 3. writes `results/obs/trace.json` in Chrome trace-event format, and
//! 4. prints the per-phase wall-time table and appends it to
//!    `results/obs/report.md` under a `## Trace phases` heading, so the
//!    Markdown report carries the attribution next to the metric tables.

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use ftobs::report::scan_stream;
use ftobs::{chrome_trace, parse_spans, phase_table, validate_spans, SpanRow};

/// Validate and export `file`.
pub fn run(file: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs_trace: reading {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    };
    let scan = scan_stream(&text);
    let torn = usize::from(scan.torn_tail.is_some());
    if scan.lines_skipped > 0 {
        eprintln!(
            "obs_trace: warning: {}: skipped {} malformed mid-file line(s)",
            file.display(),
            scan.lines_skipped
        );
    }
    let mut rows: Vec<SpanRow> = parse_spans(&text);
    if rows.is_empty() {
        eprintln!(
            "obs_trace: no span events in {} — was the run traced \
             (Recorder::builder().trace(true))?",
            file.display()
        );
        return ExitCode::FAILURE;
    }
    rows.sort_by_key(|r| (r.ts_us, r.id));
    if let Err(e) = validate_spans(&rows) {
        eprintln!("obs_trace: INVALID span forest: {e}");
        return ExitCode::FAILURE;
    }

    let tasks = rows.iter().filter(|r| r.name == "task").count();
    let steals = rows.iter().filter(|r| r.name == "publish").count();
    let json = chrome_trace(&rows);
    let out = crate::obs_dir().join("trace.json");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("obs_trace: could not write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    let table = phase_table(&rows);
    println!("## Trace phases\n\n{table}");
    println!(
        "{} spans ({tasks} tasks, {steals} publish edges) from {}, \
         {torn} torn tail(s) and {} malformed line(s) skipped",
        rows.len(),
        file.display(),
        scan.lines_skipped
    );
    println!(
        "wrote {} (load in Perfetto / chrome://tracing)",
        out.display()
    );

    let report = crate::obs_dir().join("report.md");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&report)
        .and_then(|mut f| writeln!(f, "\n## Trace phases\n\n{table}"));
    match appended {
        Ok(()) => eprintln!("appended phase table to {}", report.display()),
        Err(e) => {
            eprintln!("obs_trace: could not append to {}: {e}", report.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
