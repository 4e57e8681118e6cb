//! Criterion bench: state-exploration throughput of the model checker's
//! engines (clone-based DFS vs undo-log DFS vs parallel sweep vs DPOR
//! reduction vs work-stealing parallel DPOR) on seed lock configurations.
//! The dpor/pardpor rows explore fewer states by design, so compare them
//! on wall-clock per full verdict, not states/sec.
//!
//! Besides the usual stdout report, a machine-readable summary — states,
//! mean wall-clock per full exploration, and states/sec per engine, plus
//! the speedup of each engine over the clone-DFS baseline — is written to
//! `BENCH_explore.json` at the repository root. Every row records its
//! `effective_threads` (requested workers clamped to the detected cores);
//! on a single-core host the multi-threaded engine rows are **not timed**
//! (a 1-core "parallel" measurement is pure coordination overhead and
//! would be quoted as if it meant something) — they are emitted with
//! `"skipped_single_core": true` and zeroed timing fields instead. A file
//! in which *every* multi-threaded row was skipped records no parallel
//! throughput at all: it is marked `"incomplete": true` and the bench exits
//! nonzero, so it cannot be committed as a baseline by accident.

use std::fmt::Write as _;
use std::time::Duration;

use criterion::Criterion;
use fence_trade::prelude::*;
use modelcheck::Stats;

struct Workload {
    label: &'static str,
    inst: OrderingInstance,
    model: MemoryModel,
    /// The engines timed on it; empty for all of [`engines`]. The cells
    /// of the benchmark's `reduced` workload are out of the clone-DFS
    /// baseline's reach, so they name the engines worth timing there (and
    /// their `speedup_vs_clone` reads 0).
    only: &'static [&'static str],
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            label: "peterson2_pso",
            inst: build_mutex(LockKind::Peterson, 2, FenceMask::ALL),
            model: MemoryModel::Pso,
            only: &[],
        },
        Workload {
            label: "bakery2_pso",
            inst: build_mutex(LockKind::Bakery, 2, FenceMask::ALL),
            model: MemoryModel::Pso,
            only: &[],
        },
        Workload {
            label: "ttas3_pso",
            inst: build_mutex(LockKind::Ttas, 3, FenceMask::ALL),
            model: MemoryModel::Pso,
            only: &[],
        },
        Workload {
            label: "filter3_pso",
            inst: build_mutex(LockKind::Filter, 3, FenceMask::ALL),
            model: MemoryModel::Pso,
            only: &[],
        },
        Workload {
            label: "tournament4_pso",
            inst: build_mutex(LockKind::Tournament, 4, FenceMask::ALL),
            model: MemoryModel::Pso,
            only: &["dpor", "pardpor_2"],
        },
        Workload {
            label: "gt_f23_pso",
            inst: build_mutex(LockKind::Gt { f: 2 }, 3, FenceMask::ALL),
            model: MemoryModel::Pso,
            // 190 722 unreduced states: the largest exhaustive cell
            // that completes under the bench's `max_states`.
            only: &["undo", "parallel_2", "dpor", "pardpor_2"],
        },
    ]
}

fn engines() -> Vec<(&'static str, Engine)> {
    vec![
        ("clone_dfs", Engine::CloneDfs),
        ("undo", Engine::Undo),
        ("parallel_2", Engine::Parallel { threads: 2 }),
        ("parallel_4", Engine::Parallel { threads: 4 }),
        (
            "dpor",
            Engine::Dpor {
                reorder_bound: None,
            },
        ),
        (
            "pardpor_2",
            Engine::ParallelDpor {
                threads: 2,
                reorder_bound: None,
            },
        ),
        (
            "pardpor_4",
            Engine::ParallelDpor {
                threads: 4,
                reorder_bound: None,
            },
        ),
    ]
}

/// Worker count an engine actually runs with (requested, clamped by the
/// host — the multi-threaded engines spawn what they are told, but on a
/// smaller host those workers time-share cores).
fn engine_threads(engine: Engine) -> usize {
    match engine {
        Engine::Parallel { threads } | Engine::ParallelDpor { threads, .. } => threads,
        _ => 1,
    }
}

struct Row {
    workload: &'static str,
    engine: &'static str,
    threads: usize,
    effective_threads: usize,
    states: usize,
    mean_ns: f64,
    states_per_sec: f64,
    speedup_vs_clone: f64,
    skipped_single_core: bool,
}

fn main() {
    let cfg_base = CheckConfig {
        check_termination: false,
        max_states: 500_000,
        ..CheckConfig::default()
    };
    let cores = ft_bench::available_cores();

    let mut c = Criterion::default();
    let mut rows: Vec<Row> = Vec::new();

    for w in &workloads() {
        let mut clone_mean_ns = 0f64;
        for (engine_label, engine) in engines() {
            if !w.only.is_empty() && !w.only.contains(&engine_label) {
                continue;
            }
            let threads = engine_threads(engine);
            let effective_threads = threads.min(cores);
            let cfg = cfg_base.clone().with_engine(engine);
            // One untimed run for the state count (identical across the
            // exhaustive engines — asserted by the differential tests —
            // and legitimately smaller for dpor/pardpor: that gap is the
            // reduction factor).
            let stats: Stats = check(&w.inst.machine(w.model), &cfg).stats();

            // A multi-threaded engine on a single core measures only
            // contention; emit a marked, untimed row instead.
            let skipped_single_core = threads > 1 && cores == 1;
            let mean_ns = if skipped_single_core {
                0.0
            } else {
                let mut group = c.benchmark_group(format!("explore/{}", w.label));
                group
                    .sample_size(10)
                    .measurement_time(Duration::from_secs(2));
                group.bench_function(engine_label, |b| {
                    b.iter(|| check(&w.inst.machine(w.model), &cfg).stats().states)
                });
                group.finish();
                c.results().last().expect("recorded").mean_ns()
            };
            if engine_label == "clone_dfs" {
                clone_mean_ns = mean_ns;
            }
            rows.push(Row {
                workload: w.label,
                engine: engine_label,
                threads,
                effective_threads,
                states: stats.states,
                mean_ns,
                states_per_sec: if mean_ns > 0.0 {
                    stats.states as f64 / (mean_ns / 1e9)
                } else {
                    0.0
                },
                speedup_vs_clone: if mean_ns > 0.0 {
                    clone_mean_ns / mean_ns
                } else {
                    0.0
                },
                skipped_single_core,
            });
        }
    }

    let incomplete = rows
        .iter()
        .filter(|r| r.threads > 1)
        .all(|r| r.skipped_single_core);
    let json = render_json(&rows, incomplete);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("\nwrote {path}");
    if incomplete {
        eprintln!(
            "error: every multi-threaded row was skipped ({cores} core available); \
             {path} is marked incomplete — re-record on a host with >= 2 cores"
        );
        std::process::exit(1);
    }
}

fn render_json(rows: &[Row], incomplete: bool) -> String {
    // Detected once and cached (`ft_bench::available_cores`): the old
    // per-call `available_parallelism()` read could land during startup
    // affinity churn and record `1` on multi-core hosts. `ft_threads` is
    // the *effective* worker count (env override clamped to detected
    // cores) — always a number, never null.
    let cores = ft_bench::available_cores();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"bench\": \"explore\",");
    let _ = writeln!(s, "  \"incomplete\": {incomplete},");
    let _ = writeln!(s, "  \"available_cores\": {cores},");
    let _ = writeln!(s, "  \"ft_threads\": {},", ft_bench::parallelism());
    s.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
             \"effective_threads\": {}, \"states\": {}, \
             \"mean_ns_per_exploration\": {:.0}, \"states_per_sec\": {:.0}, \
             \"speedup_vs_clone\": {:.3}, \"skipped_single_core\": {}}}",
            r.workload,
            r.engine,
            r.threads,
            r.effective_threads,
            r.states,
            r.mean_ns,
            r.states_per_sec,
            r.speedup_vs_clone,
            r.skipped_single_core
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
