//! The experiments regenerating every table-level claim of the paper
//! ([`experiments`], run by the one `exp` binary) and the harness they
//! share: aligned-table rendering, result persistence under `results/`,
//! seeded permutation sampling, a small scoped-thread parallel map
//! ([`par_map`]) honouring the `FT_THREADS` environment variable
//! ([`parallelism`]), and the wall-clock helper of the one experiment and
//! the gates that time anything (`timing.rs`).

pub mod experiments;
mod timing;

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A simple aligned text table that renders to stdout and to
/// `results/<name>.txt`.
#[derive(Debug)]
pub struct Table {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Start a table named `name` (the results file stem) with a title line.
    #[must_use]
    pub fn new(name: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a free-form note printed under the table.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render the table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for i in 0..ncols {
                let _ = write!(s, "{:>w$}  ", cells[i], w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * ncols)
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n{n}");
        }
        out
    }

    /// Print to stdout and persist to `results/<name>.txt`.
    pub fn finish(&self) {
        let rendered = self.render();
        println!("{rendered}");
        let path = results_dir().join(format!("{}.txt", self.name));
        if let Err(e) = fs::write(&path, &rendered) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Write a model-checker counterexample to `results/<name>.txt` as a
/// replayable artifact: a header, the schedule one element per line
/// (`op p0` / `commit p0 r3` / `crash p1` — exactly the three
/// [`wbmem::SchedElem`] shapes, in replay order), the event trace the
/// schedule produces (one event per line via [`wbmem::Trace::to_lines`]),
/// the schedule's **reorder edges** (`reorder-edge:` lines via
/// [`wbmem::reorder_edges`] — the write-buffer program-order inversions
/// that enabled the violation, the same edges fence synthesis refines on),
/// and a `metrics:` line carrying `metrics` — the verdict's
/// [`ftobs::MetricsSnapshot`], its counts at failure time — as one flat
/// JSON object.
///
/// `m` must be configured the way the checker ran (same model, same crash
/// bound) *plus* trace recording
/// ([`MachineConfig::with_trace`](wbmem::MachineConfig::with_trace));
/// the schedule is replayed on it here. Returns the artifact path.
/// [`parse_counterexample_schedule`] recovers the schedule from the
/// artifact text for replay tests.
pub fn save_counterexample<P: wbmem::Process>(
    name: &str,
    header: &str,
    mut m: wbmem::Machine<P>,
    schedule: &[wbmem::SchedElem],
    metrics: &ftobs::MetricsSnapshot,
) -> PathBuf {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# {header}");
    let _ = writeln!(
        out,
        "# Replay: feed each `schedule:` line to Machine::step in order \
         (machine configured as above)."
    );
    // Extract reorder edges before `m` is consumed by the replay below
    // (reorder_edges replays its own clone).
    let edges = wbmem::reorder_edges(&m, schedule);
    for &e in schedule {
        let _ = write!(out, "schedule: ");
        let _ = match (e.crash, e.reg) {
            (true, _) => writeln!(out, "crash p{}", e.proc.0),
            (false, Some(r)) => writeln!(out, "commit p{} r{}", e.proc.0, r.0),
            (false, None) => writeln!(out, "op p{}", e.proc.0),
        };
        let stepped = !matches!(m.step(e), wbmem::StepOutcome::NoOp);
        debug_assert!(stepped, "counterexample schedules never no-op");
    }
    let _ = writeln!(out, "trace:");
    for line in m.trace().to_lines() {
        let _ = writeln!(out, "  {line}");
    }
    for edge in &edges {
        let _ = writeln!(out, "reorder-edge: {edge}");
    }
    let fields = metrics.to_json_fields();
    let refs = fields.iter().map(|(k, v)| (k.as_str(), v));
    let _ = writeln!(
        out,
        "metrics: {}",
        ftobs::encode_line(refs, std::iter::empty())
    );
    let path = results_dir().join(format!("{name}.txt"));
    if let Err(e) = fs::write(&path, &out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Recover the schedule from a [`save_counterexample`] artifact: every
/// `schedule:` line, parsed back into the [`wbmem::SchedElem`] it rendered.
/// Malformed lines are skipped (the artifact format is line-oriented, so a
/// hand-edited file degrades gracefully).
#[must_use]
pub fn parse_counterexample_schedule(text: &str) -> Vec<wbmem::SchedElem> {
    text.lines()
        .filter_map(|l| l.trim().strip_prefix("schedule: "))
        .filter_map(|rest| {
            let mut it = rest.split_whitespace();
            let kind = it.next()?;
            let p: u32 = it.next()?.strip_prefix('p')?.parse().ok()?;
            let proc = wbmem::ProcId(p);
            match kind {
                "op" => Some(wbmem::SchedElem::op(proc)),
                "crash" => Some(wbmem::SchedElem::crash(proc)),
                "commit" => {
                    let r: u32 = it.next()?.strip_prefix('r')?.parse().ok()?;
                    Some(wbmem::SchedElem::commit(proc, wbmem::RegId(r)))
                }
                _ => None,
            }
        })
        .collect()
}

/// Fail the running experiment with a one-line diagnostic. Experiments
/// share a process, so this unwinds instead of exiting:
/// [`experiments::run_selected`] catches it, marks the experiment `FAILED`
/// and goes on to the next.
pub fn fail(context: &str, err: impl std::fmt::Display) -> ! {
    panic!("{context}: {err}");
}

/// The repository `results/` directory (created on demand).
///
/// # Panics
///
/// Outside a workspace checkout (see [`workspace_root`]).
#[must_use]
pub fn results_dir() -> PathBuf {
    let root = workspace_root().unwrap_or_else(|e| fail("results", e));
    let dir = root.join("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// The workspace checkout `exp` runs in: the working directory or the
/// nearest directory above it whose `Cargo.toml` has a `[workspace]`
/// table. It is looked up where the process runs, not where the binary
/// was built, so a copy of the checkout that reuses another's `target/`
/// writes its tables into itself.
///
/// # Errors
///
/// When no directory from the working directory up holds such a
/// `Cargo.toml`, or the working directory cannot be read.
pub fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("reading the working directory: {e}"))?;
    cwd.ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| declares_workspace(&text))
        })
        .map(std::path::Path::to_path_buf)
        .ok_or_else(|| {
            format!(
                "no Cargo.toml with a [workspace] table in {} or above it: \
                 run exp from inside the fence-trade checkout",
                cwd.display()
            )
        })
}

/// Whether a manifest's text opens a `[workspace]` table (or a
/// `[workspace.…]` one, which implies it).
fn declares_workspace(manifest: &str) -> bool {
    manifest.lines().any(|line| {
        line.trim()
            .strip_prefix("[workspace")
            .is_some_and(|rest| rest.starts_with(']') || rest.starts_with('.'))
    })
}

/// `count` seeded random permutations of `0..n`.
#[must_use]
pub fn random_permutations(n: usize, count: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut v: Vec<usize> = (0..n).collect();
            v.shuffle(&mut rng);
            v
        })
        .collect()
}

/// Format a float with `digits` decimals.
#[must_use]
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// The number of cores available to this process, detected once and
/// cached. `std::thread::available_parallelism` consults the cgroup /
/// affinity mask on every call and can transiently report `1` early in
/// process startup on some hosts; caching the first successful reading
/// keeps every row of a run consistent.
#[must_use]
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// The worker count for embarrassingly-parallel sweeps: `FT_THREADS` if set
/// to a positive integer, otherwise [`available_cores`] — and never more
/// than [`available_cores`] either way. Oversubscribing a timing sweep
/// only adds scheduler noise to the measurements, so a too-large
/// `FT_THREADS` is clamped rather than honored.
#[must_use]
pub fn parallelism() -> usize {
    let requested = match std::env::var("FT_THREADS") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(available_cores),
        Err(_) => available_cores(),
    };
    requested.min(available_cores())
}

/// Map `f` over `items` on up to [`parallelism`] scoped threads, preserving
/// input order in the output. `f` must be independent per item (the sweeps
/// this serves — seeded permutations, fence-elision candidates, lock×model
/// cells — all are). Falls back to a plain sequential map for one worker or
/// one item.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = parallelism().min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    local.push((i, f(item)));
                }
                collected.lock().expect("unpoisoned").extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().expect("unpoisoned");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("t", "Test", &["a", "bbb"]);
        t.row(&["1".into(), "2".into()]);
        t.note("note");
        let r = t.render();
        assert!(r.contains("Test"));
        assert!(r.contains("bbb"));
        assert!(r.contains("note"));
    }

    #[test]
    fn permutations_are_permutations_and_seeded() {
        let a = random_permutations(6, 3, 9);
        let b = random_permutations(6, 3, 9);
        assert_eq!(a, b, "seeding is deterministic");
        for p in &a {
            let mut s = p.clone();
            s.sort_unstable();
            assert_eq!(s, (0..6).collect::<Vec<usize>>());
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("t", "T", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn cores_detected_once_and_positive() {
        let a = available_cores();
        assert!(a >= 1);
        assert_eq!(a, available_cores(), "cached reading is stable");
        assert!(parallelism() >= 1);
    }

    #[test]
    fn parallelism_never_exceeds_available_cores() {
        // Whatever FT_THREADS says (this process may inherit one), the
        // effective worker count is clamped to the detected cores.
        assert!(parallelism() <= available_cores());
    }

    #[test]
    fn only_a_workspace_table_marks_the_root() {
        assert!(declares_workspace("[workspace]\nmembers = []\n"));
        assert!(declares_workspace(
            "  [workspace.package]\nversion = \"1\"\n"
        ));
        // A member's manifest inherits from the workspace but opens no
        // table of it.
        assert!(!declares_workspace("[package]\nversion.workspace = true\n"));
        assert!(!declares_workspace("[workspaces]\n"));
        let root = workspace_root().expect("tests run inside the checkout");
        assert!(root.join("crates/bench").is_dir(), "{}", root.display());
    }

    #[test]
    fn schedule_lines_roundtrip() {
        use wbmem::{ProcId, RegId, SchedElem};
        let sched = vec![
            SchedElem::op(ProcId(0)),
            SchedElem::commit(ProcId(1), RegId(3)),
            SchedElem::crash(ProcId(1)),
            SchedElem::op(ProcId(2)),
        ];
        let mut text = String::from("# header\n");
        for e in &sched {
            text.push_str("schedule: ");
            text.push_str(&match (e.crash, e.reg) {
                (true, _) => format!("crash p{}\n", e.proc.0),
                (false, Some(r)) => format!("commit p{} r{}\n", e.proc.0, r.0),
                (false, None) => format!("op p{}\n", e.proc.0),
            });
        }
        text.push_str("trace:\n  read p0 r1\nmetrics: {\"states\":4}\n");
        assert_eq!(parse_counterexample_schedule(&text), sched);
        assert!(parse_counterexample_schedule("no schedule here").is_empty());
    }
}
