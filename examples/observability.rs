//! Observability: read what a model-checking run counted.
//!
//! Runs a DPOR check of the 3-process Filter lock under PSO and unpacks
//! the verdict's [`fence_trade::ftobs::MetricsSnapshot`] — the same
//! counters the engine differential suite proves bit-identical across
//! engines, the paper's fence count β(E) among them. (ρ(E), the RMR
//! count, is the cost of one execution, not of a search: see the
//! `quickstart` example.)
//!
//! ```sh
//! cargo run --example observability
//! ```

use fence_trade::ftobs::{Gauge, Metric};
use fence_trade::prelude::*;

fn main() {
    let inst = build_mutex(LockKind::Filter, 3, FenceMask::ALL);
    let cfg = CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    }
    .with_engine(Engine::Dpor {
        reorder_bound: None,
    });

    let verdict = check(&inst.machine(MemoryModel::Pso), &cfg);
    let snap = verdict.stats().metrics;

    println!("verdict: {}", verdict.label());
    println!(
        "states {} · transitions {} · dedup hits {} · max frontier {}",
        snap.states(),
        snap.transitions(),
        snap.get(Metric::DedupHits),
        snap.gauge(Gauge::MaxFrontier),
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
    println!(
        "deepest write buffer {} · deepest DFS frame {}",
        snap.gauge(Gauge::MaxBufferDepth),
        snap.gauge(Gauge::MaxDepth),
    );
}
