//! **E9 — comparison primitives don't dodge the tradeoff** (paper §6):
//! a CAS-based test-and-test-and-set lock has O(1) fences and O(1) solo
//! RMRs — but under contention every release invalidates every spinner, so
//! its per-passage RMRs grow linearly with n, while `GT_2` pays a few more
//! fences for Θ(√n) and the tournament for Θ(log n).

use crate::{f as fmt, Table};
use fence_trade::prelude::*;

pub fn run(_fast: bool) {
    let mut t = Table::new(
        "e9_cas",
        "E9: strong primitives (TTAS via CAS, MCS via swap) vs read/write locks (PSO machine)",
        &[
            "n",
            "lock",
            "fences/psg",
            "CAS/psg",
            "swap/psg",
            "solo RMRs",
            "contended RMRs",
        ],
    );

    for n in [4usize, 8, 16, 32, 64] {
        for kind in [
            LockKind::Ttas,
            LockKind::Mcs,
            LockKind::Gt { f: 2 },
            LockKind::Tournament,
        ] {
            if kind == LockKind::Tournament && !n.is_power_of_two() {
                continue;
            }
            let inst = build_ordering(kind, n, ObjectKind::Counter);
            let solo = solo_passage(&inst, MemoryModel::Pso, 10_000_000);
            let mut m = inst.machine(MemoryModel::Pso);
            assert!(
                fence_trade::simlocks::run_to_completion(&mut m, 500_000_000),
                "{} stuck at n={n}",
                inst.name
            );
            let total = m.counters().total();
            t.row(&[
                n.to_string(),
                kind.to_string(),
                fmt(total.fences as f64 / n as f64, 1),
                fmt(total.cas_ops as f64 / n as f64, 1),
                fmt(total.swap_ops as f64 / n as f64, 1),
                fmt(solo.rmrs, 0),
                fmt(total.rmrs as f64 / n as f64, 1),
            ]);
        }
    }

    t.note(
        "TTAS: one fence and ~3 RMRs solo — seemingly beating the read/write \
         tradeoff — but its contended RMRs grow ~linearly in n (each release \
         invalidates every spinner's cached lock word), landing back on the \
         Bakery end of the curve. MCS (fetch-and-store + local spinning) is \
         the strong-primitive success story: O(1) RMRs per passage even \
         contended. GT_2 and the tournament keep their O(f·n^(1/f)) shapes. \
         This is the §6 remark made concrete: strong primitives are also \
         subject to the fence/RMR structure of the machine; escaping the \
         *contention* costs takes an RMR-conscious algorithm (MCS), exactly \
         the theme of the paper's reference [12].",
    );
    t.finish();

    // Model-check the TTAS mutex for small n under every model.
    let cfg = CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    };
    let mut t2 = Table::new(
        "e9b_cas_check",
        "E9b: strong-primitive locks, model-checked exhaustively",
        &["lock", "n", "SC", "TSO", "PSO"],
    );
    for kind in [LockKind::Ttas, LockKind::Mcs] {
        for n in [2usize, 3] {
            let inst = build_mutex(kind, n, FenceMask::ALL);
            let mut cells = vec![kind.to_string(), n.to_string()];
            for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
                cells.push(check(&inst.machine(model), &cfg).label().to_string());
            }
            t2.row(&cells);
        }
    }
    t2.note(
        "CAS's implicit buffer drain makes TTAS correct under every model with \
             only the release fence — strong primitives trade fence count for \
             contention, not for freedom from the tradeoff.",
    );
    t2.finish();
}
