//! **`exp obs-trace FILE [--follow]`** — the causal-trace consumer: turn
//! a `kind:"span"` JSONL stream into Chrome trace-event JSON that Perfetto
//! (or `chrome://tracing`) loads directly, validate the span forest, and
//! attribute wall-clock to phases.
//!
//! The default mode:
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
//!
//! `--follow` instead tails the stream while a run writes it and prints a
//! human line per heartbeat / watchdog trip / final snapshot — including
//! the estimator's projected total and ETA once the engine has sampled
//! enough of the tree. The tail survives the sink's crash-safe `.partial`
//! → final rename and exits once the stream has been quiet for
//! [`FOLLOW_IDLE`].

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ftobs::report::{parse_line, scan_stream};
use ftobs::{chrome_trace, follow_line, parse_spans, phase_table, validate_spans, SpanRow};

/// How long `--follow` waits without new data before it concludes the run
/// that wrote the stream is over.
const FOLLOW_IDLE: Duration = Duration::from_secs(60);

/// Tail `path`, rendering each complete event line through
/// [`follow_line`]. Tracks a byte offset rather than keeping the file
/// open so the crash-safe rename (`x.jsonl.partial` → `x.jsonl`) does
/// not strand the tail: when the watched file disappears, its renamed
/// sibling is picked up at the same offset.
fn follow(path: &Path) -> ExitCode {
    let mut watched = path.to_path_buf();
    let mut offset = 0usize;
    let mut carry = String::new();
    let mut last_new = Instant::now();
    println!("following {} (ctrl-c to stop)", watched.display());
    loop {
        if !watched.exists() {
            let s = watched.to_string_lossy();
            let renamed = s
                .strip_suffix(".partial")
                .map(PathBuf::from)
                .filter(|p| p.exists());
            if let Some(p) = renamed {
                watched = p;
            }
        }
        let text = std::fs::read_to_string(&watched).unwrap_or_default();
        if text.len() < offset {
            // Recreated from scratch (new run over the same path).
            offset = 0;
            carry.clear();
        }
        if text.len() > offset {
            last_new = Instant::now();
            let mut chunk = std::mem::take(&mut carry);
            chunk.push_str(&text[offset..]);
            offset = text.len();
            let complete = match chunk.rfind('\n') {
                Some(nl) => {
                    carry = chunk[nl + 1..].to_string();
                    chunk[..=nl].to_string()
                }
                None => {
                    carry = chunk;
                    String::new()
                }
            };
            for line in complete.lines() {
                if let Some(out) = parse_line(line).as_ref().and_then(follow_line) {
                    println!("{out}");
                }
            }
            let _ = std::io::stdout().flush();
        } else if last_new.elapsed() > FOLLOW_IDLE {
            println!("no new events for {} s; exiting", FOLLOW_IDLE.as_secs());
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Validate and export `file`, or tail it with `follow_mode`.
pub fn run(file: &Path, follow_mode: bool) -> ExitCode {
    if follow_mode {
        return follow(file);
    }
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
