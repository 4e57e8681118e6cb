//! **E14 — engines × cells, time to a verdict.** The one place engine
//! wall-clock is recorded, and the one writer of `BENCH_explore.json` at
//! the workspace root: a full run times every row and renders the file
//! whole from the rows it holds; git history is the "before".
//!
//! Every cell is a fully fenced lock proved mutually exclusive under PSO.
//! A row is one engine on one cell. A multi-threaded row is timed against
//! its sequential twin (`parallel_N` against `undo`, `pardpor_N` against
//! `dpor`) in alternating rounds through [`paired_ratio`], so
//! `speedup_vs_sequential` is the median of per-round ratios of two runs
//! that shared whatever the host was doing; `cpu_s_per_wall_s` is the
//! process user + sys CPU-seconds over the row's samples per wall-second —
//! a `pardpor_2` row reading 1.1 there did not have its second core, and
//! its speed-up says nothing about the engine. On a single-core host the
//! multi-threaded rows are not timed at all (`skipped_single_core`, zeroed
//! timings), and a file in which every one of them was skipped is marked
//! `incomplete` and fails the run, so it is not committed by accident.
//!
//! `--fast` times one round of everything and writes nothing.

use std::time::Duration;

use super::DPOR;
use crate::timing::{paired_ratio, Spent};
use fence_trade::prelude::*;
use ftobs::J;

/// Paired rounds per multi-threaded row, and samples of a sequential row
/// that is nobody's twin.
const ROUNDS: usize = 5;

/// A sample repeats its exploration until it has lasted about this long:
/// the n = 2 cells take 0.1 ms, the CPU clock ticks every 10.
const MIN_SAMPLE: Duration = Duration::from_millis(40);

const fn pardpor(threads: usize) -> Engine {
    Engine::ParallelDpor {
        threads,
        reorder_bound: None,
    }
}

/// `(label, engine, threads, index of its sequential twin)`, in the order
/// cells outgrow them: a cell times the first so many, so a twin is always
/// timed beside the rows that need it.
const ENGINES: [(&str, Engine, usize, Option<usize>); 7] = [
    ("dpor", DPOR, 1, None),
    ("pardpor_2", pardpor(2), 2, Some(0)),
    ("undo", Engine::Undo, 1, None),
    ("parallel_2", Engine::Parallel { threads: 2 }, 2, Some(2)),
    ("clone_dfs", Engine::CloneDfs, 1, None),
    ("parallel_4", Engine::Parallel { threads: 4 }, 4, Some(2)),
    ("pardpor_4", pardpor(4), 4, Some(0)),
];

/// `(workload, lock, processes, how many of ENGINES are timed on it)`.
const CELLS: [(&str, LockKind, usize, usize); 8] = [
    ("peterson2_pso", LockKind::Peterson, 2, 7),
    ("bakery2_pso", LockKind::Bakery, 2, 7),
    ("ttas3_pso", LockKind::Ttas, 3, 7),
    ("filter3_pso", LockKind::Filter, 3, 7),
    // Past the clone-DFS oracle's reach in a bench's time; gt_f23's
    // 190 722 unreduced states are the largest `undo` is timed on.
    ("bakery3_pso", LockKind::Bakery, 3, 4),
    ("gt_f23_pso", LockKind::Gt { f: 2 }, 3, 4),
    ("tournament4_pso", LockKind::Tournament, 4, 2),
    // 675 833 reduced states: the longest proof in the repository and the
    // `guards` scaling gate's cell, the one big enough to ask whether
    // `pardpor_2` pays.
    ("gt_f24_pso", LockKind::Gt { f: 2 }, 4, 2),
];

/// One row of `BENCH_explore.json`. A `skipped_single_core` row keeps its
/// counts and reads zero in every timing field.
#[derive(Clone, Debug, Default, PartialEq)]
struct Row {
    workload: &'static str,
    engine: &'static str,
    threads: usize,
    /// `threads` clamped to the cores the host has.
    effective_threads: usize,
    states: usize,
    /// Samples taken; the twin of two rows is sampled in both pairings.
    rounds: usize,
    best_ns: u64,
    median_ns: u64,
    /// [`Spent::utilisation`] over all the samples together.
    cpu_per_wall: f64,
    /// Sequential twin's wall-clock over this row's, median of per-round
    /// ratios; 1 for a sequential row.
    speedup_vs_sequential: f64,
    skipped_single_core: bool,
}

impl Row {
    /// The row as one flat JSON object.
    fn json(&self) -> String {
        let fields = [
            ("workload", J::s(self.workload)),
            ("engine", J::s(self.engine)),
            ("threads", J::U(self.threads as u64)),
            ("effective_threads", J::U(self.effective_threads as u64)),
            ("states", J::U(self.states as u64)),
            ("rounds", J::U(self.rounds as u64)),
            ("best_ns_per_exploration", J::U(self.best_ns)),
            ("median_ns_per_exploration", J::U(self.median_ns)),
            ("cpu_s_per_wall_s", J::F(self.cpu_per_wall)),
            ("speedup_vs_sequential", J::F(self.speedup_vs_sequential)),
            ("skipped_single_core", J::B(self.skipped_single_core)),
        ];
        ftobs::encode_line(fields.iter().map(|(k, v)| (*k, v)), std::iter::empty())
    }
}

/// Whether `rows` record no parallel throughput at all: every
/// multi-threaded row was skipped.
fn incomplete(rows: &[Row]) -> bool {
    let mut multi = rows.iter().filter(|r| r.threads > 1);
    multi.all(|r| r.skipped_single_core)
}

/// `BENCH_explore.json`, whole: a header and one row per line.
fn render(rows: &[Row], cores: usize) -> String {
    let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"bench\": \"explore\",\n  \"incomplete\": {},\n  \"available_cores\": {cores},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        incomplete(rows),
        lines.join(",\n")
    )
}

/// Time the first `engines` of [`ENGINES`] on one cell, `rounds` paired
/// rounds per multi-threaded row.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn time_cell(
    workload: &'static str,
    inst: &OrderingInstance,
    engines: usize,
    rounds: usize,
    cores: usize,
) -> Vec<Row> {
    let picked = &ENGINES[..engines];
    let base = CheckConfig {
        check_termination: false,
        max_states: 50_000_000,
        ..CheckConfig::default()
    };
    let cfgs: Vec<CheckConfig> = picked
        .iter()
        .map(|e| base.clone().with_engine(e.1))
        .collect();
    let explore = |i: usize| {
        let v = check(&inst.machine(MemoryModel::Pso), &cfgs[i]);
        assert!(v.is_ok(), "{workload}/{}: {}", picked[i].0, v.label());
        v.stats().states
    };
    // One untimed run per row: its state count (the same for the
    // exhaustive engines, smaller by the reduction factor for dpor and
    // pardpor) and how many explorations make a sample.
    let mut states = vec![0; engines];
    let iters: Vec<usize> = (0..engines)
        .map(|i| {
            let warm = Spent::of(|| states[i] = explore(i));
            let fit = MIN_SAMPLE.as_secs_f64() / warm.wall.as_secs_f64().max(1e-9);
            (fit.ceil() as usize).max(1)
        })
        .collect();
    let sample = |i: usize| {
        Spent::of(|| {
            for _ in 0..iters[i] {
                std::hint::black_box(explore(i));
            }
        })
    };
    // Parallel wall-clock on one core measures time-slicing.
    let skipped = |i: usize| picked[i].2 > 1 && cores == 1;
    let mut samples: Vec<Vec<Spent>> = vec![Vec::new(); engines];
    let mut speedups = vec![1.0; engines];
    for (i, &(_, _, _, twin)) in picked.iter().enumerate() {
        let Some(t) = twin.filter(|_| !skipped(i)) else {
            continue;
        };
        let (mut of_twin, mut of_row) = (Vec::new(), Vec::new());
        let timed = |into: &mut Vec<Spent>, i: usize| {
            let spent = sample(i);
            into.push(spent);
            // Per exploration, so the two sides' sample sizes cancel.
            spent.wall / iters[i] as u32
        };
        speedups[i] = paired_ratio(rounds, || timed(&mut of_twin, t), || timed(&mut of_row, i));
        of_row.remove(0); // `paired_ratio`'s warm-up call
        samples[t].extend(of_twin);
        samples[i].extend(of_row);
    }
    let row = |i: usize| {
        let (engine, _, threads, _) = picked[i];
        let row = Row {
            workload,
            engine,
            threads,
            effective_threads: threads.min(cores),
            states: states[i],
            skipped_single_core: skipped(i),
            ..Row::default()
        };
        if row.skipped_single_core {
            return row;
        }
        // A sequential row that was nobody's twin has no samples yet.
        let mut mine = std::mem::take(&mut samples[i]);
        mine.extend((mine.len()..rounds).map(|_| sample(i)));
        let mut total = Spent::default();
        mine.iter().for_each(|&s| total += s);
        mine.sort_by_key(|s| s.wall);
        let per_run = |s: Spent| (s.wall.as_nanos() / iters[i] as u128) as u64;
        Row {
            rounds: mine.len(),
            best_ns: per_run(mine[0]),
            median_ns: per_run(mine[mine.len() / 2]),
            cpu_per_wall: total.utilisation(),
            speedup_vs_sequential: speedups[i],
            ..row
        }
    };
    (0..engines).map(row).collect()
}

pub fn run(fast: bool) {
    let cores = crate::available_cores();
    let rounds = if fast { 1 } else { ROUNDS };
    let mut rows = Vec::new();
    for (workload, kind, n, engines) in CELLS {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        rows.extend(time_cell(workload, &inst, engines, rounds, cores));
    }
    // A timing, so not a table under `results/`: what a full run writes,
    // on stdout.
    let json = render(&rows, cores);
    print!("{json}");
    if fast {
        return;
    }
    let path = crate::workspace_root().join("BENCH_explore.json");
    if let Err(e) = std::fs::write(&path, json) {
        crate::fail(&format!("e14: writing {}", path.display()), e);
    }
    println!("wrote {}", path.display());
    if incomplete(&rows) {
        crate::fail(
            "e14",
            format!(
                "every multi-threaded row was skipped ({cores} core available); {} is marked \
                 incomplete — re-record on a host with >= 2 cores",
                path.display()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn row(engine: &'static str, threads: usize) -> Row {
        Row {
            workload: "filter3_pso",
            engine,
            threads,
            effective_threads: threads.min(2),
            states: 13_653,
            rounds: 5,
            best_ns: 9_700_000,
            median_ns: 10_100_000,
            cpu_per_wall: 1.83,
            speedup_vs_sequential: 1.29,
            skipped_single_core: false,
        }
    }

    /// The row lines of a rendered file, parsed.
    fn parsed_rows(json: &str) -> Vec<BTreeMap<String, String>> {
        let body = json.lines().skip_while(|l| !l.contains("\"results\""));
        let lines = body.skip(1).take_while(|l| l.trim() != "]");
        let parse = |l: &str| ftobs::report::parse_line(l.trim().trim_end_matches(','));
        lines
            .map(|l| parse(l).unwrap_or_else(|| panic!("not a flat object: {l}")))
            .collect()
    }

    #[test]
    fn every_rendered_row_is_one_parseable_line_with_the_same_keys() {
        let rows = [row("dpor", 1), row("pardpor_2", 2), row("pardpor_4", 4)];
        let json = render(&rows, 2);
        assert!(json.contains("\"incomplete\": false") && json.contains("\"available_cores\": 2"));
        assert!(!json.contains("\"note\"") && !json.contains("\"before\""));
        let parsed = parsed_rows(&json);
        assert_eq!(parsed.len(), rows.len(), "one line per row");
        let keys: BTreeSet<Vec<&String>> = parsed.iter().map(|r| r.keys().collect()).collect();
        let expected = [
            "best_ns_per_exploration",
            "cpu_s_per_wall_s",
            "effective_threads",
            "engine",
            "median_ns_per_exploration",
            "rounds",
            "skipped_single_core",
            "speedup_vs_sequential",
            "states",
            "threads",
            "workload",
        ];
        assert_eq!(keys.len(), 1, "one row shape");
        assert_eq!(keys.into_iter().next().expect("one"), expected);
        assert_eq!(parsed[2]["threads"], "4");
        assert_eq!(parsed[2]["effective_threads"], "2");
        assert_eq!(parsed[1]["median_ns_per_exploration"], "10100000");
        assert_eq!(parsed[1]["cpu_s_per_wall_s"], "1.830");
    }

    #[test]
    fn a_cell_is_timed_in_pairs_and_on_one_core_its_parallel_rows_are_skipped_and_zeroed() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let rows = time_cell("peterson2_pso", &inst, ENGINES.len(), 1, 2);
        assert!(rows
            .iter()
            .map(|r| r.engine)
            .eq(ENGINES.iter().map(|e| e.0)));
        for r in &rows {
            assert!(r.best_ns > 0 && r.best_ns <= r.median_ns, "{r:?}");
            assert!(r.speedup_vs_sequential > 0.0 && !r.skipped_single_core);
        }
        let of = |rows: &[Row], engine| rows.iter().find(|r| r.engine == engine).cloned();
        let (undo, dpor) = (
            of(&rows, "undo").expect("row"),
            of(&rows, "dpor").expect("row"),
        );
        assert_eq!(of(&rows, "clone_dfs").map(|r| r.states), Some(undo.states));
        assert!(dpor.states < undo.states, "the reduction factor");
        // `undo` is the twin of two rows: it was sampled in both pairings.
        assert_eq!(
            (undo.rounds, of(&rows, "parallel_2").map(|r| r.rounds)),
            (2, Some(1))
        );
        assert!(!incomplete(&rows));

        // The same cell on one core: nothing parallel is timed, and a file
        // of such rows records no parallel throughput at all.
        let rows = time_cell("peterson2_pso", &inst, ENGINES.len(), 1, 1);
        assert!(incomplete(&rows));
        assert!(render(&rows, 1).contains("\"incomplete\": true"));
        let parsed = parsed_rows(&render(&rows, 1));
        for (r, json) in rows.iter().zip(&parsed) {
            assert_eq!(r.skipped_single_core, r.threads > 1);
            assert_eq!(
                json["skipped_single_core"],
                r.skipped_single_core.to_string()
            );
            assert_eq!(json["states"], r.states.to_string(), "the count is kept");
            let zeroed = json["rounds"] == "0"
                && json["best_ns_per_exploration"] == "0"
                && json["median_ns_per_exploration"] == "0"
                && json["cpu_s_per_wall_s"] == "0.000"
                && json["speedup_vs_sequential"] == "0.000";
            assert_eq!(zeroed, r.skipped_single_core, "{json:?}");
        }
        // One timed multi-threaded row is enough for the file to count.
        assert!(!incomplete(&[rows[1].clone(), row("pardpor_2", 2)]));
    }

    #[test]
    fn a_twin_is_sequential_and_precedes_the_rows_timed_against_it() {
        for (i, (label, _, threads, twin)) in ENGINES.into_iter().enumerate() {
            assert_eq!(twin.is_some(), threads > 1, "{label}");
            assert!(twin.map_or(true, |t| t < i && ENGINES[t].2 == 1), "{label}");
        }
        assert!(CELLS.iter().all(|c| (1..=ENGINES.len()).contains(&c.3)));
    }
}
