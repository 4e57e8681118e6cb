//! **E7 — lock fences per uncontended passage against their closed forms**
//! (paper §3): the simulator's β for each lock of the family, less the
//! ordering object's 2 fences, must equal 4 for Bakery, 4f for `GT_f`,
//! 3·log2(n) for the tournament, 1 for TTAS and 0 for MCS.
//!
//! Counts only, from the PSO machine; the experiment fails on a mismatch.

use crate::Table;
use fence_trade::prelude::*;

pub fn run(_fast: bool) {
    let mut t = Table::new(
        "e7_fences",
        "E7: lock fences per uncontended passage, simulator vs closed form",
        &["lock", "n", "sim beta - 2", "predicted"],
    );
    let mut mismatches = Vec::new();
    let mut row = |kind: LockKind, n: usize, predicted: usize| {
        let inst = build_ordering(kind, n, ObjectKind::Counter);
        let sim = solo_passage(&inst, MemoryModel::Pso, 1_000_000).fences as usize - 2;
        if sim != predicted {
            mismatches.push(format!("{kind}[{n}]"));
        }
        t.row(&[
            kind.to_string(),
            n.to_string(),
            sim.to_string(),
            predicted.to_string(),
        ]);
    };

    for n in [2usize, 4, 8] {
        let log_n = n.trailing_zeros() as usize;
        row(LockKind::Bakery, n, 4);
        for f in 2..=log_n {
            row(LockKind::Gt { f }, n, 4 * f);
        }
        row(LockKind::Tournament, n, 3 * log_n);
        row(LockKind::Ttas, n, 1);
        row(LockKind::Mcs, n, 0);
    }

    t.note(
        "β of one uncontended passage of the Count object, less the object's \
         own 2 fences, is the lock's: 4 for Bakery, 4f for GT_f (GT_1 is \
         Bakery), 3·log2(n) for the tournament, 1 for TTAS, 0 for MCS.",
    );
    t.finish();
    assert!(
        mismatches.is_empty(),
        "fence counts differ for {mismatches:?}"
    );
}
