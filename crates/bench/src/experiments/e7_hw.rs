//! **E7 — the same fence sites on real hardware** (paper §1 motivation):
//! fences per uncontended passage of the lock family on
//! `std::sync::atomic`, against the simulator's β for the same algorithm.
//!
//! The simulator's ordering instance adds the object's 2 fences to the
//! lock's, so the checked identity is `hw = β − 2`. Counts only: latency
//! and throughput on a 1–2-core TSO host say nothing about the tradeoff.

use crate::Table;
use fence_trade::prelude::*;

pub fn run(_fast: bool) {
    let mut t = Table::new(
        "e7_hw",
        "E7: fences per uncontended passage, real atomics vs simulator",
        &["lock", "n", "hw fences", "sim beta - 2", "predicted"],
    );
    let mut mismatches = Vec::new();
    let mut row = |hw: &dyn RawLock, kind: LockKind, n: usize, predicted: usize| {
        hw.acquire(0);
        hw.release(0);
        let hw_fences = hw.fences();
        let inst = build_ordering(kind, n, ObjectKind::Counter);
        let sim = solo_passage(&inst, MemoryModel::Pso, 1_000_000).fences as u64 - 2;
        if hw_fences != sim || sim != predicted as u64 {
            mismatches.push(hw.name());
        }
        t.row(&[
            hw.name(),
            n.to_string(),
            hw_fences.to_string(),
            sim.to_string(),
            predicted.to_string(),
        ]);
    };

    for n in [2usize, 4, 8] {
        let log_n = n.trailing_zeros() as usize;
        row(&HwBakery::new(n), LockKind::Bakery, n, 4);
        for f in 2..=log_n {
            row(&HwGt::new(n, f), LockKind::Gt { f }, n, 4 * f);
        }
        row(&HwTournament::new(n), LockKind::Tournament, n, 3 * log_n);
        row(&HwTtas::new(), LockKind::Ttas, n, 1);
        row(&HwMcs::new(n), LockKind::Mcs, n, 0);
    }

    t.note(
        "Same algorithm, same fence sites: the hardware counter reproduces the \
         simulator's lock fences exactly — 4 for Bakery, 4f for GT_f (GT_1 is \
         Bakery), 3·log2(n) for the tournament, 1 for TTAS, 0 for MCS.",
    );
    t.finish();
    assert!(
        mismatches.is_empty(),
        "fence counts differ for {mismatches:?}"
    );
}
