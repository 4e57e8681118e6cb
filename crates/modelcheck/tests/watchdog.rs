//! Supervisor watchdog tests, isolated in their own binary because they
//! pin `FT_WATCHDOG_MS` process-wide (both to the same value, so they do
//! not race).
//!
//! A worker that stops heartbeating while marked busy must be cancelled
//! by the supervisor, and the engine must fall back to the deterministic
//! sequential rerun — same verdict discipline as the panic path — while
//! recording the trip in the `watchdog_trips` metric. A sweep whose
//! workers finish must not wait out a watchdog interval.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use modelcheck::{check, CheckConfig, CheckpointPolicy, Engine};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::{Machine, MachineConfig, MemoryLayout, MemoryModel};

/// The watchdog interval both tests pin.
const WATCHDOG_MS: u64 = 25;

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

/// Two processes that each write their own register and return: a
/// handful of states, so a sweep's own work is far below one interval.
fn two_writers() -> Machine<fencevm::VmProc> {
    let procs = (0..2i64)
        .map(|i| {
            let mut a = fencevm::Asm::new(format!("w{i}"));
            a.write(i, 1i64);
            a.ret(0i64);
            fencevm::VmProc::new(a.assemble().into())
        })
        .collect();
    let config = MachineConfig::new(MemoryModel::Pso, MemoryLayout::unowned());
    Machine::new(config, procs)
}

/// An armed checkpoint policy starts the supervisor; the sweep must still
/// return as soon as its workers are joined. A supervisor that waits out
/// its interval makes every run last at least 25 ms, and the batch twice
/// the bound.
#[test]
fn supervised_sweep_returns_when_its_workers_do() {
    const K: u32 = 20;
    std::env::set_var("FT_WATCHDOG_MS", WATCHDOG_MS.to_string());
    let path = std::env::temp_dir().join(format!("ft_watchdog_{}.ckpt", std::process::id()));
    let config = CheckConfig::default()
        .with_engine(Engine::ParallelDpor {
            threads: 2,
            reorder_bound: None,
        })
        .with_checkpoint(CheckpointPolicy::at(&path).stop_after(u64::MAX / 2));
    let m = two_writers();
    let start = Instant::now();
    for _ in 0..K {
        let verdict = check(&m, &config);
        assert!(verdict.is_ok(), "{}", verdict.label());
    }
    let elapsed = start.elapsed();
    let bound = Duration::from_millis(WATCHDOG_MS) * K / 2;
    assert!(
        elapsed < bound,
        "{K} supervised sweeps took {elapsed:?} (bound {bound:?}): the supervisor outlived its workers"
    );
}
