//! **E10 — steady-state amortized passage costs.** The paper's complexity
//! measures are *per passage*; a one-shot run mixes in cold-cache effects
//! (every first read of a register is remote). Here each process performs
//! `K` passages and we amortize: steady-state costs separate algorithms
//! whose RMRs are genuinely recurring (Bakery's scans, TTAS's invalidation
//! storms) from ones that merely pay a cold start (MCS), and show the GT_f
//! tradeoff curve survives amortization.

use crate::{f as fmt, Table};
use fence_trade::prelude::*;

pub fn run(_fast: bool) {
    let passages = 8usize;
    let mut t = Table::new(
        "e10_steady_state",
        "E10: amortized per-passage costs over 8 passages/process (round-robin, PSO)",
        &[
            "n",
            "lock",
            "fences/psg",
            "RMRs/psg",
            "one-shot RMRs/psg",
            "amortization",
        ],
    );

    for n in [4usize, 8, 16, 32] {
        for kind in [
            LockKind::Bakery,
            LockKind::Gt { f: 2 },
            LockKind::Tournament,
            LockKind::Ttas,
            LockKind::Mcs,
        ] {
            if kind == LockKind::Tournament && !n.is_power_of_two() {
                continue;
            }
            let steady = fence_trade::simlocks::build_steady_state(kind, n, passages);
            let mut m = steady.machine(MemoryModel::Pso);
            assert!(
                fence_trade::simlocks::run_to_completion(&mut m, 1_000_000_000),
                "{} stuck at n={n}",
                steady.name
            );
            let total = m.counters().total();
            let per = |x: u64| x as f64 / (n * passages) as f64;

            let one_shot = build_ordering(kind, n, ObjectKind::Counter);
            let mut m1 = one_shot.machine(MemoryModel::Pso);
            assert!(fence_trade::simlocks::run_to_completion(
                &mut m1,
                500_000_000
            ));
            let one_shot_rmrs = m1.counters().rho() as f64 / n as f64;

            t.row(&[
                n.to_string(),
                kind.to_string(),
                fmt(per(total.fences), 1),
                fmt(per(total.rmrs), 1),
                fmt(one_shot_rmrs, 1),
                fmt(per(total.rmrs) / one_shot_rmrs, 2),
            ]);
        }
    }

    t.note(
        "Amortization < 1 means part of the one-shot cost was cold-cache; \
         ≈ 1 means the cost recurs every passage. Bakery and GT_f keep paying \
         their scans each passage (the tradeoff is about *recurring* RMRs); \
         TTAS's invalidation cost recurs too; MCS stays O(1) either way. \
         Fence counts per passage are schedule- and repetition-independent, \
         as the model predicts.",
    );
    t.finish();
}
