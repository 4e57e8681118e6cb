//! Supervisor watchdog test, isolated in its own binary because it pins
//! `FT_WATCHDOG_MS` process-wide.
//!
//! A worker that stops heartbeating while marked busy must be cancelled
//! by the supervisor, and the engine must fall back to the deterministic
//! sequential rerun — same verdict discipline as the panic path — while
//! recording the trip in the `watchdog_trips` metric.

use std::sync::atomic::{AtomicUsize, Ordering};

use modelcheck::{check, CheckConfig, Engine};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::MemoryModel;

static SLOW_CALLS: AtomicUsize = AtomicUsize::new(0);

/// An always-true invariant that stalls the calling worker for ~120 ms on
/// each of the first six states it sees — far longer than the 25 ms
/// watchdog interval pinned below, so the supervisor observes at least
/// two unchanged heartbeats on a busy worker and trips.
fn slow_invariant(_annots: &[u64]) -> bool {
    if SLOW_CALLS.fetch_add(1, Ordering::Relaxed) < 6 {
        std::thread::sleep(std::time::Duration::from_millis(120));
    }
    true
}

#[test]
fn stalled_worker_trips_watchdog_and_falls_back_sequentially() {
    std::env::set_var("FT_WATCHDOG_MS", "25");
    let rec = modelcheck::Recorder::builder().quiet(true).build();
    let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let config = CheckConfig::default()
        .with_engine(Engine::ParallelDpor {
            threads: 2,
            reorder_bound: None,
        })
        .with_invariant(slow_invariant)
        .with_recorder(rec.clone());
    let verdict = check(&inst.machine(MemoryModel::Tso), &config);
    assert!(
        verdict.is_ok(),
        "sequential fallback still proves the cell, got {}",
        verdict.label()
    );
    assert!(
        verdict.stats().metrics.get(ftobs::Metric::WatchdogTrips) >= 1,
        "the stalled worker actually tripped the watchdog"
    );
    // The fallback is the plain sequential engine, bit for bit.
    let seq = check(
        &inst.machine(MemoryModel::Tso),
        &CheckConfig::default()
            .with_engine(Engine::Dpor {
                reorder_bound: None,
            })
            .with_invariant(slow_invariant),
    );
    assert_eq!(verdict.label(), seq.label());
    assert_eq!(verdict.stats().states, seq.stats().states);
    assert_eq!(verdict.stats().transitions, seq.stats().transitions);
}
