//! **E14 — engines × cells, time to a verdict.** The one place engine
//! wall-clock is recorded, and the one writer of `BENCH_explore.json` at
//! the workspace root: a full run times every row and renders the file
//! whole from the rows it holds; git history is the "before".
//!
//! Every cell is a fully fenced lock proved mutually exclusive under PSO.
//! A row is one engine on one cell: `dpor`, `undo` and `clone_dfs`, the
//! three walks the checker has. A cell's engines are sampled in
//! alternating rounds, so each round's samples share whatever the host
//! was doing; `cpu_s_per_wall_s` is the process user + sys CPU-seconds
//! over the row's samples per wall-second — a row reading well below 1
//! did not have its core the whole time.
//!
//! `--fast` times one round of everything and writes nothing.

use std::time::Duration;

use super::DPOR;
use crate::timing::Spent;
use fence_trade::prelude::*;
use ftobs::J;

/// Samples per row.
const ROUNDS: usize = 5;

/// A sample repeats its exploration until it has lasted about this long:
/// the n = 2 cells take 0.1 ms, the CPU clock ticks every 10.
const MIN_SAMPLE: Duration = Duration::from_millis(40);

/// `(label, engine)`, in the order cells outgrow them: a cell times the
/// first so many.
const ENGINES: [(&str, Engine); 3] = [
    ("dpor", DPOR),
    ("undo", Engine::Undo),
    ("clone_dfs", Engine::CloneDfs),
];

/// `(workload, lock, processes, how many of ENGINES are timed on it)`.
const CELLS: [(&str, LockKind, usize, usize); 8] = [
    ("peterson2_pso", LockKind::Peterson, 2, 3),
    ("bakery2_pso", LockKind::Bakery, 2, 3),
    ("ttas3_pso", LockKind::Ttas, 3, 3),
    ("filter3_pso", LockKind::Filter, 3, 3),
    // Past the clone-DFS oracle's reach in a bench's time; gt_f23's
    // 190 722 unreduced states are the largest `undo` is timed on.
    ("bakery3_pso", LockKind::Bakery, 3, 2),
    ("gt_f23_pso", LockKind::Gt { f: 2 }, 3, 2),
    ("tournament4_pso", LockKind::Tournament, 4, 1),
    // 675 833 reduced states: the longest proof in the repository.
    ("gt_f24_pso", LockKind::Gt { f: 2 }, 4, 1),
];

/// One row of `BENCH_explore.json`.
#[derive(Clone, Debug, Default, PartialEq)]
struct Row {
    workload: &'static str,
    engine: &'static str,
    states: usize,
    /// Samples taken.
    rounds: usize,
    best_ns: u64,
    median_ns: u64,
    /// [`Spent::utilisation`] over all the samples together.
    cpu_per_wall: f64,
}

impl Row {
    /// The row as one flat JSON object.
    fn json(&self) -> String {
        let fields = [
            ("workload", J::s(self.workload)),
            ("engine", J::s(self.engine)),
            ("states", J::U(self.states as u64)),
            ("rounds", J::U(self.rounds as u64)),
            ("best_ns_per_exploration", J::U(self.best_ns)),
            ("median_ns_per_exploration", J::U(self.median_ns)),
            ("cpu_s_per_wall_s", J::F(self.cpu_per_wall)),
        ];
        ftobs::encode_line(fields.iter().map(|(k, v)| (*k, v)), std::iter::empty())
    }
}

/// `BENCH_explore.json`, whole: a header and one row per line.
fn render(rows: &[Row]) -> String {
    let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    format!(
        "{{\n  \"bench\": \"explore\",\n  \"results\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    )
}

/// Time the first `engines` of [`ENGINES`] on one cell, `rounds`
/// alternating rounds.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn time_cell(
    workload: &'static str,
    inst: &OrderingInstance,
    engines: usize,
    rounds: usize,
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
    // exhaustive engines, smaller by the reduction factor for dpor) and
    // how many explorations make a sample.
    let mut states = vec![0; engines];
    let iters: Vec<usize> = (0..engines)
        .map(|i| {
            let warm = Spent::of(|| states[i] = explore(i));
            let fit = MIN_SAMPLE.as_secs_f64() / warm.wall.as_secs_f64().max(1e-9);
            (fit.ceil() as usize).max(1)
        })
        .collect();
    let mut samples: Vec<Vec<Spent>> = vec![Vec::new(); engines];
    for _ in 0..rounds {
        for (i, into) in samples.iter_mut().enumerate() {
            into.push(Spent::of(|| {
                for _ in 0..iters[i] {
                    std::hint::black_box(explore(i));
                }
            }));
        }
    }
    let row = |(i, mut mine): (usize, Vec<Spent>)| {
        let mut total = Spent::default();
        mine.iter().for_each(|&s| total += s);
        mine.sort_by_key(|s| s.wall);
        let per_run = |s: Spent| (s.wall.as_nanos() / iters[i] as u128) as u64;
        Row {
            workload,
            engine: picked[i].0,
            states: states[i],
            rounds: mine.len(),
            best_ns: per_run(mine[0]),
            median_ns: per_run(mine[mine.len() / 2]),
            cpu_per_wall: total.utilisation(),
        }
    };
    samples.into_iter().enumerate().map(row).collect()
}

pub fn run(fast: bool) {
    let rounds = if fast { 1 } else { ROUNDS };
    let mut rows = Vec::new();
    for (workload, kind, n, engines) in CELLS {
        let inst = build_mutex(kind, n, FenceMask::ALL);
        rows.extend(time_cell(workload, &inst, engines, rounds));
    }
    // A timing, so not a table under `results/`: what a full run writes,
    // on stdout.
    let json = render(&rows);
    print!("{json}");
    if fast {
        return;
    }
    let root = crate::workspace_root().unwrap_or_else(|e| crate::fail("e14", e));
    let path = root.join("BENCH_explore.json");
    if let Err(e) = std::fs::write(&path, json) {
        crate::fail(&format!("e14: writing {}", path.display()), e);
    }
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn row(engine: &'static str) -> Row {
        Row {
            workload: "filter3_pso",
            engine,
            states: 13_653,
            rounds: 5,
            best_ns: 9_700_000,
            median_ns: 10_100_000,
            cpu_per_wall: 0.98,
        }
    }

    /// The row lines of a rendered file, parsed.
    fn parsed_rows(json: &str) -> Vec<BTreeMap<String, String>> {
        let body = json.lines().skip_while(|l| !l.contains("\"results\""));
        let lines = body.skip(1).take_while(|l| l.trim() != "]");
        let parse = |l: &str| ftobs::parse_line(l.trim().trim_end_matches(','));
        lines
            .map(|l| parse(l).unwrap_or_else(|| panic!("not a flat object: {l}")))
            .collect()
    }

    #[test]
    fn every_rendered_row_is_one_parseable_line_with_the_same_keys() {
        let rows = [row("dpor"), row("undo"), row("clone_dfs")];
        let json = render(&rows);
        assert!(json.starts_with("{\n  \"bench\": \"explore\",\n  \"results\": ["));
        assert!(!json.contains("\"note\"") && !json.contains("\"before\""));
        let parsed = parsed_rows(&json);
        assert_eq!(parsed.len(), rows.len(), "one line per row");
        let keys: BTreeSet<Vec<&String>> = parsed.iter().map(|r| r.keys().collect()).collect();
        let expected = [
            "best_ns_per_exploration",
            "cpu_s_per_wall_s",
            "engine",
            "median_ns_per_exploration",
            "rounds",
            "states",
            "workload",
        ];
        assert_eq!(keys.len(), 1, "one row shape");
        assert_eq!(keys.into_iter().next().expect("one"), expected);
        assert_eq!(parsed[2]["engine"], "clone_dfs");
        assert_eq!(parsed[1]["median_ns_per_exploration"], "10100000");
        assert_eq!(parsed[1]["cpu_s_per_wall_s"], "0.980");
    }

    #[test]
    fn a_cell_is_timed_on_each_engine_it_names() {
        let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
        let rows = time_cell("peterson2_pso", &inst, ENGINES.len(), 2);
        assert!(rows
            .iter()
            .map(|r| r.engine)
            .eq(ENGINES.iter().map(|e| e.0)));
        for r in &rows {
            assert!(r.best_ns > 0 && r.best_ns <= r.median_ns, "{r:?}");
            assert_eq!(r.rounds, 2, "{r:?}");
        }
        let of = |engine| rows.iter().find(|r| r.engine == engine).expect("row");
        assert_eq!(of("clone_dfs").states, of("undo").states);
        assert!(
            of("dpor").states < of("undo").states,
            "the reduction factor"
        );
    }

    #[test]
    fn every_cell_times_a_prefix_of_the_engines() {
        assert!(CELLS.iter().all(|c| (1..=ENGINES.len()).contains(&c.3)));
    }
}
