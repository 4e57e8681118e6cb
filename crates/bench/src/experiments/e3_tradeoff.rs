//! **E3 — tightness of equation (1):** `f·(log(r/f)+1) / log n` is Θ(1)
//! everywhere on the spectrum, for both solo and contended executions.

use crate::{f as fmt, Table};
use fence_trade::prelude::*;

pub fn run(_fast: bool) {
    let mut t = Table::new(
        "e3_tradeoff",
        "E3: normalized tradeoff product f(log(r/f)+1)/log n across locks and n",
        &[
            "n",
            "lock",
            "fences",
            "RMRs",
            "norm product (solo)",
            "norm product (contended)",
        ],
    );

    for n in [16usize, 64, 256] {
        let log_n = (n as f64).log2().round() as usize;
        let kinds = vec![
            LockKind::Bakery,
            LockKind::Gt { f: 2 },
            LockKind::Gt { f: 3 },
            LockKind::Gt { f: log_n },
            LockKind::Tournament,
            LockKind::Filter,
        ];
        for kind in kinds {
            let inst = build_ordering(kind, n, ObjectKind::Counter);
            let solo = solo_passage(&inst, MemoryModel::Pso, 100_000_000);
            let contended = if n <= 64 {
                let c = contended_passage(&inst, MemoryModel::Pso, 500_000_000);
                Some(normalized_tradeoff(c.fences, c.rmrs, n))
            } else {
                None
            };
            t.row(&[
                n.to_string(),
                kind.to_string(),
                fmt(solo.fences, 0),
                fmt(solo.rmrs, 0),
                fmt(normalized_tradeoff(solo.fences, solo.rmrs, n), 2),
                contended.map_or_else(|| "-".into(), |x| fmt(x, 2)),
            ]);
        }
    }

    t.note(
        "Theorem 4.2 (per-process form): f(log(r/f)+1) ∈ Ω(log n), and §3's \
         algorithms show it is O(log n) too. The normalized column staying in a \
         constant band — for wildly different (f, r) splits — is the tradeoff's \
         tightness. One cannot push the product below the band by trading \
         fences for RMRs in either direction. The Filter lock is the contrast \
         case: Θ(n) fences AND Θ(n) RMRs, so its normalized product GROWS like \
         n/log n — the bound is a floor, not a guarantee of optimality.",
    );
    t.finish();
}
