//! **E6 — Table 1 / Lemma 5.1 structural invariants, empirically** (paper
//! §5): command-stack composition, the I4/I10 ordering rules, Lemma 5.11's
//! fences-vs-stack-size relation, and the value-vs-RMR relations of Lemmas
//! 5.3/5.7, across many random permutations.

use crate::{f as fmt, random_permutations, Table};
use fence_trade::lowerbound::{check_all, Command};
use fence_trade::prelude::*;

pub fn run(_fast: bool) {
    let mut t = Table::new(
        "e6_stack_invariants",
        "E6: command composition of the encodings (per-command-type counts, averaged)",
        &[
            "algorithm",
            "n",
            "proceed",
            "commit",
            "wait-hidden",
            "wait-read",
            "wait-local",
            "violations",
            "max |S_p| vs 4*fences+13",
        ],
    );

    let cases: Vec<(LockKind, ObjectKind, usize, usize)> = vec![
        (LockKind::Bakery, ObjectKind::Counter, 6, 4),
        (LockKind::Bakery, ObjectKind::Counter, 10, 3),
        (LockKind::Gt { f: 2 }, ObjectKind::Counter, 8, 3),
        (LockKind::Gt { f: 3 }, ObjectKind::Counter, 8, 2),
        (LockKind::Tournament, ObjectKind::Counter, 8, 2),
        (LockKind::Gt { f: 2 }, ObjectKind::NoisyCounter, 8, 3),
        (LockKind::Tournament, ObjectKind::NoisyCounter, 8, 2),
    ];

    for (kind, object, n, samples) in cases {
        let inst = build_ordering(kind, n, object);
        let mut counts = [0f64; 5];
        let mut violations = 0usize;
        let mut slack_ok = true;
        for pi in random_permutations(n, samples, 0xE6 + n as u64) {
            let enc = encode_permutation(&inst, &pi, &EncodeOptions::default())
                .unwrap_or_else(|e| panic!("{kind} n={n}: {e}"));
            violations += check_all(&enc).len();
            for i in 0..n {
                let p = wbmem::ProcId::from(i);
                for c in enc.stacks.commands_of(p) {
                    counts[usize::from(c.tag())] += 1.0;
                }
                // Lemma 5.11 (rearranged): |S_p| <= 4*(fences + 3) + 1.
                let fences = enc.outcome.machine.counters().proc(i).fences;
                if enc.stacks.len_of(p) as u64 > 4 * (fences + 3) + 1 {
                    slack_ok = false;
                }
            }
        }
        let k = samples as f64;
        t.row(&[
            format!("{object}/{kind}"),
            n.to_string(),
            fmt(counts[0] / k, 1),
            fmt(counts[1] / k, 1),
            fmt(counts[2] / k, 1),
            fmt(counts[3] / k, 1),
            fmt(counts[4] / k, 1),
            violations.to_string(),
            if slack_ok {
                "holds".into()
            } else {
                "VIOLATED".to_string()
            },
        ]);
    }

    t.note(
        "`violations` aggregates the executable checks of Lemma 5.1 (I2, I4, \
         I6, I10) and Lemmas 5.3/5.7 — zero everywhere. The last column is \
         Lemma 5.11: stack sizes are bounded by the fence counts, i.e. the \
         number of commands really is O(beta). Bakery encodings are dominated \
         by proceed/commit pairs plus one wait-local-finish per process; tree \
         locks add wait-read-finish/wait-hidden-commit as parallelism appears.",
    );
    t.finish();

    // A direct probe: make sure the exotic command types are exercised
    // somewhere in the sampled encodings (so the table above is not
    // trivially zero by construction).
    let inst = build_ordering(LockKind::Bakery, 6, ObjectKind::Counter);
    let enc = encode_permutation(&inst, &[5, 3, 1, 0, 2, 4], &EncodeOptions::default())
        .unwrap_or_else(|e| crate::fail("e6: encoding the probe permutation", e));
    let has_wlf = (0..6).any(|i| {
        enc.stacks
            .commands_of(wbmem::ProcId::from(i))
            .iter()
            .any(|c| matches!(c, Command::WaitLocalFinish(..)))
    });
    println!("probe: wait-local-finish present in a bakery encoding: {has_wlf} (expected true)\n");
}
