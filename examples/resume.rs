//! Durable checkpoint/resume: interrupt an exhaustive sweep of the
//! tournament lock under PSO, snapshot the live frontier to disk, and
//! finish the proof in a second run — reaching the exact verdict (and
//! state count) an uninterrupted run would have.
//!
//! The same mechanism survives a real `kill -9`: the snapshot is written
//! through a temp-file + fsync + rename protocol, so the path on disk
//! either holds a complete, checksummed checkpoint or the previous one.
//!
//! ```text
//! cargo run --release --example resume
//! ```

use fence_trade::prelude::*;

fn main() {
    let inst = build_mutex(LockKind::Tournament, 2, FenceMask::ALL);
    let machine = || inst.machine(MemoryModel::Pso);
    // Mutual exclusion only: a checkpoint holds no termination graph, so
    // a checkpoint policy on a termination-checking run is refused.
    let config = CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    };

    // The uninterrupted reference run.
    let fresh = check(&machine(), &config);
    println!("== Tournament lock, n = 2, PSO ==\n");
    println!(
        "uninterrupted : {} ({} states, {} transitions)",
        fresh.label(),
        fresh.stats().states,
        fresh.stats().transitions
    );

    // Interrupt the same sweep partway through. `stop_after` is a
    // deterministic stand-in for a wall-clock budget — both take the same
    // checkpoint path.
    let ckpt = std::env::temp_dir().join("fence_trade_resume_example.ckpt");
    let cut = (fresh.stats().transitions as u64) / 3;
    let interrupted = check(
        &machine(),
        &config
            .clone()
            .with_checkpoint(CheckpointPolicy::at(&ckpt).stop_after(cut)),
    );
    let coverage = interrupted.coverage().expect("the cut fired mid-sweep");
    let path = coverage.checkpoint.expect("stop wrote a checkpoint");
    println!(
        "interrupted   : {} after {} transitions, {} open fork points\n\
         checkpoint    : {} ({} bytes)",
        interrupted.label(),
        interrupted.stats().transitions,
        coverage.frontier,
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );

    // Resume: the snapshot pre-seeds the fingerprint table and replays
    // the serialized fork points, so only the unexplored remainder runs.
    let resumed = resume(&machine(), &config, &path);
    println!(
        "resumed       : {} ({} states, {} transitions)",
        resumed.label(),
        resumed.stats().states,
        resumed.stats().transitions
    );

    assert_eq!(fresh.label(), resumed.label());
    assert_eq!(fresh.stats().states, resumed.stats().states);
    println!("\nInterrupted + resumed == uninterrupted, state for state.");

    let _ = std::fs::remove_file(&path);
}
