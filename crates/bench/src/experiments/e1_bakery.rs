//! **E1 — Bakery: O(1) fences, Θ(n) RMRs per passage** (paper §1 and §3,
//! Algorithm 1).
//!
//! Solo and contended passages of the Bakery-protected counter as `n`
//! grows: fences stay constant, RMRs grow linearly (solo) and the tradeoff
//! product `f·(log(r/f)+1)` tracks `log n` — i.e. Bakery *meets* the lower
//! bound at the `f = O(1)` endpoint.

use crate::{f, Table};
use fence_trade::prelude::*;

pub fn run(_fast: bool) {
    let mut t = Table::new(
        "e1_bakery",
        "E1: Bakery counter passage cost vs n (PSO write-buffer machine)",
        &[
            "n",
            "solo fences",
            "solo RMRs",
            "RMRs/n",
            "contended RMRs/passage",
            "f(log(r/f)+1)/log n",
        ],
    );

    for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let inst = build_ordering(LockKind::Bakery, n, ObjectKind::Counter);
        let solo = solo_passage(&inst, MemoryModel::Pso, 50_000_000);
        let contended = if n <= 128 {
            Some(contended_passage(&inst, MemoryModel::Pso, 500_000_000))
        } else {
            None
        };
        t.row(&[
            n.to_string(),
            f(solo.fences, 0),
            f(solo.rmrs, 0),
            f(solo.rmrs / n as f64, 2),
            contended.map_or_else(|| "-".into(), |c| f(c.rmrs, 1)),
            f(normalized_tradeoff(solo.fences, solo.rmrs, n), 2),
        ]);
    }

    t.note(
        "Paper claim: constant fences (3 acquire + 1 release; +2 for the Count \
         object's own fence and the final pre-return fence), Θ(n) RMRs, and \
         f·(log(r/f)+1) ∈ Θ(log n). The RMRs/n column converging to a constant \
         and the last column staying in a constant band reproduce the claim.",
    );
    t.finish();
}
