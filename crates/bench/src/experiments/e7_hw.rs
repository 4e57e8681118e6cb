//! **E7 — the tradeoff's shape on real hardware** (paper §1 motivation):
//! uncontended latency, contended throughput, and fence counts of the lock
//! family on `std::sync::atomic`, with `std::sync::Mutex` as an
//! engineering baseline.
//!
//! Absolute numbers are machine-specific (this harness may run on a single
//! core, where contended spin locks serialize through the scheduler); the
//! *shape* — fences per op constant for Bakery vs logarithmic for trees,
//! and uncontended cost tracking fence count — is the reproduced claim.

use std::time::Instant;

use crate::{f as fmt, Table};
use fence_trade::prelude::*;

fn uncontended<L: RawLock>(lock: &L, iters: usize) -> (f64, f64) {
    let t = Instant::now();
    for _ in 0..iters {
        lock.acquire(0);
        lock.release(0);
    }
    let ns = t.elapsed().as_nanos() as f64 / iters as f64;
    (ns, lock.fences() as f64 / iters as f64)
}

fn contended<L: RawLock>(lock: &L, threads: usize, iters: usize) -> f64 {
    let counter = CountingLock::new(ByRef(lock));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let counter = &counter;
            scope.spawn(move || {
                for _ in 0..iters {
                    counter.next(tid);
                }
            });
        }
    });
    (threads * iters) as f64 / t.elapsed().as_secs_f64()
}

/// Adapter: treat a borrowed lock as a lock (so one instance serves both
/// the uncontended and contended phases with a single fence counter).
struct ByRef<'a, L: RawLock>(&'a L);
impl<L: RawLock> RawLock for ByRef<'_, L> {
    fn max_threads(&self) -> usize {
        self.0.max_threads()
    }
    fn acquire(&self, tid: usize) {
        self.0.acquire(tid);
    }
    fn release(&self, tid: usize) {
        self.0.release(tid);
    }
    fn fences(&self) -> u64 {
        self.0.fences()
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

/// `std::sync::Mutex` + `Condvar` as a binary semaphore, wrapped as a
/// `RawLock` engineering baseline (a `MutexGuard` cannot be parked across
/// the trait's split acquire/release calls, so the guard-free semaphore
/// shape is used; it uses atomic RMW instructions rather than explicit
/// fences, so fence count is reported as 0).
struct StdMutex {
    held: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}
impl StdMutex {
    fn new() -> Self {
        StdMutex {
            held: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }
    }
}
impl RawLock for StdMutex {
    fn max_threads(&self) -> usize {
        usize::MAX
    }
    fn acquire(&self, _tid: usize) {
        // A benchmark-thread panic poisons the mutex; the boolean it
        // guards is still coherent, so keep going rather than cascading.
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        while *held {
            held = self.cv.wait(held).unwrap_or_else(|p| p.into_inner());
        }
        *held = true;
    }
    fn release(&self, _tid: usize) {
        *self.held.lock().unwrap_or_else(|p| p.into_inner()) = false;
        self.cv.notify_one();
    }
    fn fences(&self) -> u64 {
        0
    }
    fn name(&self) -> String {
        "std Mutex+Condvar (baseline)".into()
    }
}

pub fn run(_fast: bool) {
    let threads = std::thread::available_parallelism()
        .map_or(2, |p| p.get())
        .clamp(2, 8);
    let n = threads.next_power_of_two().max(2);
    let iters_u = 50_000;
    let iters_c = 2_000;

    let tput_hdr = format!("ops/s ({threads} thr)");
    let mut t = Table::new(
        "e7_hw",
        "E7: hardware lock costs (uncontended ns/op, fences/op, contended ops/s)",
        &["lock", "ns/op (solo)", "fences/op", tput_hdr.as_str()],
    );

    macro_rules! bench {
        ($lock:expr) => {{
            let lock = $lock;
            let (ns, fences) = uncontended(&lock, iters_u);
            let tput = contended(&lock, threads, iters_c);
            t.row(&[lock.name(), fmt(ns, 0), fmt(fences, 1), fmt(tput, 0)]);
        }};
    }

    bench!(HwBakery::new(n));
    bench!(HwGt::new(n, 2));
    if n >= 4 {
        bench!(HwGt::new(n, 3));
    }
    bench!(HwTournament::new(n));
    bench!(HwTtas::new());
    bench!(HwMcs::new(n));
    bench!(StdMutex::new());

    t.note(format!(
        "Machine: {threads} worker threads, {} cores. Fences/op reproduces the \
         simulator's beta exactly (4 for Bakery, 4f for GT_f, 3·log2(n) for the \
         tournament; the counting object adds none here since only lock fences \
         are counted). Uncontended latency grows with both the fence count and \
         the scan width — Bakery's O(n) scan is visible against the trees. \
         Contended throughput on few cores is scheduler-bound; treat it as a \
         smoke check, not a scalability result.",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    ));
    t.finish();
}
