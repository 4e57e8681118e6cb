//! Observability: watch a model-checking run live and read its metrics.
//!
//! Attaches an enabled [`ftobs::Recorder`] to a DPOR check of the 3-process
//! Filter lock under PSO: heartbeats stream to stderr while the search
//! runs, program counters are labelled with the `fencevm` instruction text
//! so the hot-pc table is readable, and afterwards the merged
//! [`ftobs::MetricsSnapshot`] is unpacked — the same counters the engine
//! differential suite proves bit-identical across engines, the paper's
//! fence count β(E) among them. (ρ(E), the RMR count, is the cost of one
//! execution, not of a search: see the `quickstart` example.)
//!
//! ```sh
//! cargo run --example observability
//! ```

use fence_trade::ftobs::{self, Gauge, Metric, Recorder};
use fence_trade::prelude::*;

fn main() {
    let inst = build_mutex(LockKind::Filter, 3, FenceMask::ALL);

    // An enabled recorder: heartbeat every 250 ms to stderr (add
    // `.sink(...)` to stream the events as JSONL to disk for the
    // `exp obs-report` tool; without a sink they go nowhere).
    let rec = Recorder::builder()
        .meta("workload", "filter3_pso")
        .heartbeat_ms(250)
        .build();
    for (p, prog) in inst.programs.iter().enumerate() {
        rec.set_pc_labels(p, &prog.pc_labels());
    }

    let cfg = CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    }
    .with_engine(Engine::Dpor {
        reorder_bound: None,
    })
    .with_recorder(rec.clone());

    let verdict = check(&inst.machine(MemoryModel::Pso), &cfg);
    let snap = rec.snapshot();

    println!("verdict: {}", verdict.label());
    println!(
        "states {} · transitions {} · dedup hits {} · max frontier {}",
        snap.states(),
        snap.transitions(),
        snap.get(Metric::DedupHits),
        snap.gauges[Gauge::MaxFrontier as usize],
    );
    println!(
        "β(E) fences {} · commits {} · sleep hits {} · ample applied {}",
        snap.get(Metric::Fences),
        snap.get(Metric::Commits),
        snap.get(Metric::SleepHits),
        snap.get(Metric::AmpleApplied),
    );
    for (p, steps) in snap.per_proc.iter().enumerate().take(inst.n) {
        println!("  p{p}: fences {}", steps.fences);
    }

    println!("\nwrite-buffer depth at buffered writes:");
    print!("{}", ftobs::report::sketch(&snap.buffer_depth));

    println!("\nhottest program points:");
    for (p, pc, hits, label) in rec.hot_pcs(5) {
        let label = label.unwrap_or_else(|| format!("pc{pc}"));
        println!("  p{p}@{pc} `{label}` × {hits}");
    }

    // The same snapshot travels inside the verdict for offline use.
    assert_eq!(verdict.stats().metrics, snap);
}
