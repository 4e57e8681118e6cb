//! **`exp obs-report [FILES]`** — render JSONL observability streams into
//! a Markdown report: per-engine comparison table (states, transitions,
//! fences, RMRs, crashes, sleep/dedup hits), histogram sketches,
//! hottest-pc top-k, and a heartbeat summary.
//!
//! With no files, every `*.jsonl` under `results/obs/` is read (the
//! streams E12/E15/E16 and the examples produce), plus any
//! `*.jsonl.partial` stream a crashed run left behind. The report goes
//! to stdout and to `results/obs/report.md`. Exits non-zero when no event
//! line parses — the CI smoke run relies on that to catch an empty or
//! corrupt stream. Malformed lines *inside* a stream (interleaved
//! writers, disk corruption) and a *trailing* truncated line (the
//! signature of a process killed mid-write) are skipped and counted —
//! warnings, never errors: one bad line must not cost the report.

use std::path::PathBuf;
use std::process::ExitCode;

/// Render `files` (every stream under `results/obs/` when empty).
pub fn run(files: &[PathBuf]) -> ExitCode {
    let paths: Vec<PathBuf> = if files.is_empty() {
        // An unreadable directory holds no streams: reported just below.
        let mut found: Vec<PathBuf> = std::fs::read_dir(crate::obs_dir())
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "jsonl")
                    || p.to_string_lossy().ends_with(".jsonl.partial")
            })
            .collect();
        found.sort();
        found
    } else {
        files.to_vec()
    };
    if paths.is_empty() {
        eprintln!("obs_report: no JSONL streams found under results/obs/ (run `exp e12` first, or pass paths)");
        return ExitCode::FAILURE;
    }

    let root = crate::workspace_root();
    let mut lines: Vec<String> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    let mut truncated = 0usize;
    let mut partials = 0usize;
    let mut lines_skipped = 0usize;
    for p in &paths {
        match std::fs::read_to_string(p) {
            Ok(text) => {
                let scan = ftobs::report::scan_stream(&text);
                if let Some(tail) = scan.torn_tail {
                    truncated += 1;
                    eprintln!(
                        "obs_report: {}: skipped a truncated trailing line ({} bytes)",
                        p.display(),
                        tail.len()
                    );
                }
                if scan.lines_skipped > 0 {
                    lines_skipped += scan.lines_skipped;
                    eprintln!(
                        "obs_report: warning: {}: skipped {} malformed mid-file line(s)",
                        p.display(),
                        scan.lines_skipped
                    );
                }
                if p.to_string_lossy().ends_with(".partial") {
                    partials += 1;
                    eprintln!(
                        "obs_report: {}: crashed-run artifact (stream never renamed on close)",
                        p.display()
                    );
                }
                lines.extend(scan.lines);
                // Named from the workspace root, so the report does not
                // depend on where the checkout lives.
                let name = p.strip_prefix(&root).unwrap_or(p);
                sources.push(name.display().to_string());
            }
            Err(e) => eprintln!("obs_report: skipping {}: {e}", p.display()),
        }
    }

    let title = format!("fence-trade observability report ({})", sources.join(", "));
    let mut report = ftobs::report::render_report(&title, &lines);
    if truncated > 0 || partials > 0 || lines_skipped > 0 {
        report.push_str(&format!(
            "_{lines_skipped} malformed line(s) and {truncated} truncated trailing line(s) \
             skipped; {partials} crashed-run `.partial` stream(s) scanned._\n"
        ));
    }
    print!("{report}");

    if !lines.iter().any(|l| ftobs::report::parse_line(l).is_some()) {
        eprintln!("obs_report: no well-formed event lines in the given streams");
        return ExitCode::FAILURE;
    }

    let out = crate::obs_dir().join("report.md");
    if let Err(e) = std::fs::write(&out, &report) {
        eprintln!("obs_report: could not write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", out.display());
    ExitCode::SUCCESS
}
