//! **E4 — the lower-bound encoding, measured** (paper §4–5, Theorem 4.2).
//!
//! For random permutations π, construct and encode `E_π` for the Bakery
//! and `GT_f` counters; report commands `m`, value sum `v`, actual code
//! bits `B`, the analytic bound `β(log(ρ/β)+1)`, and the information floor
//! `log₂ n!` — and verify the round trip π → stacks → bits → stacks → E_π
//! → π for every sample.

use crate::{f as fmt, par_map, random_permutations, Table};
use fence_trade::lowerbound::{self, log2_factorial};
use fence_trade::prelude::*;

fn run_family(t: &mut Table, kind: LockKind, cases: &[(usize, usize)]) {
    for &(n, samples) in cases {
        let inst = build_ordering(kind, n, ObjectKind::Counter);
        let perms = random_permutations(n, samples, 0xE4 + n as u64);
        // Each seeded permutation encodes and round-trips independently, so
        // the samples run on `FT_THREADS` workers; the aggregation below is
        // order-independent, so the table does not change with thread count.
        let measured = par_map(&perms, |pi| {
            let enc = encode_permutation(&inst, pi, &EncodeOptions::default())
                .unwrap_or_else(|e| panic!("{kind} n={n} pi={pi:?}: {e}"));
            assert_eq!(enc.recovered_permutation(), *pi, "injectivity");
            let bits = lowerbound::serialize_stacks(&enc.stacks);
            let back = lowerbound::deserialize_stacks(&bits, n)
                .unwrap_or_else(|e| crate::fail("e4: deserializing stack bits", e));
            let out = decode(&proof_machine(&inst), &back, &DecodeOptions::default())
                .unwrap_or_else(|e| crate::fail("e4: decoding round-tripped stacks", e));
            assert_eq!(recover_permutation(&out.machine), *pi, "bit round trip");
            (
                enc.commands as f64,
                enc.value_sum as f64,
                bits.len(),
                enc.beta as f64,
                enc.rho as f64,
                theorem_lhs(enc.beta, enc.rho),
            )
        });
        let (mut sm, mut sv, mut sb, mut sbeta, mut srho, mut slhs) =
            (0f64, 0f64, 0f64, 0f64, 0f64, 0f64);
        let mut max_bits = 0usize;
        for &(m, v, bits, beta, rho, lhs) in &measured {
            sm += m;
            sv += v;
            sb += bits as f64;
            sbeta += beta;
            srho += rho;
            slhs += lhs;
            max_bits = max_bits.max(bits);
        }
        let k = perms.len() as f64;
        t.row(&[
            kind.to_string(),
            n.to_string(),
            fmt(sm / k, 0),
            fmt(sv / k, 0),
            fmt(sbeta / k, 0),
            fmt(srho / k, 0),
            fmt(sb / k, 0),
            fmt(slhs / k, 0),
            fmt(log2_factorial(n), 0),
            fmt((sb / k) / n_log_n(n).max(1.0), 2),
        ]);
    }
}

pub fn run(_fast: bool) {
    let mut t = Table::new(
        "e4_encoding",
        "E4: lower-bound encodings of E_pi (averages over seeded random permutations)",
        &[
            "algorithm",
            "n",
            "cmds m",
            "value v",
            "beta",
            "rho",
            "code bits B",
            "beta(log(rho/beta)+1)",
            "log2(n!)",
            "B / n log n",
        ],
    );

    run_family(
        &mut t,
        LockKind::Bakery,
        &[(4, 3), (8, 3), (12, 3), (16, 3), (20, 2), (24, 1)],
    );
    run_family(&mut t, LockKind::Gt { f: 2 }, &[(4, 3), (8, 3), (16, 3)]);
    run_family(&mut t, LockKind::Gt { f: 3 }, &[(8, 2)]);
    run_family(&mut t, LockKind::Tournament, &[(4, 2), (8, 2), (16, 1)]);
    run_family(&mut t, LockKind::Filter, &[(4, 2), (6, 2)]);

    // E4b: exhaustive codebooks — every permutation, literal injectivity.
    let mut t2 = Table::new(
        "e4b_codebooks",
        "E4b: exhaustive codebooks (EVERY permutation encoded)",
        &[
            "algorithm",
            "n",
            "n!",
            "injective",
            "min bits",
            "mean bits",
            "max bits",
            "log2(n!)",
        ],
    );
    let codebook_cases = [
        (LockKind::Bakery, 4usize),
        (LockKind::Bakery, 5),
        (LockKind::Bakery, 6),
        (LockKind::Gt { f: 2 }, 4),
        (LockKind::Gt { f: 2 }, 6),
        (LockKind::Tournament, 4),
    ];
    // The exhaustive codebooks (n! encodings each) are the heavy part of
    // this experiment; each is independent, so build them in parallel.
    let codebook_rows = par_map(&codebook_cases, |&(kind, n)| {
        let inst = build_ordering(kind, n, ObjectKind::Counter);
        let book = fence_trade::lowerbound::build_codebook(&inst, &EncodeOptions::default())
            .unwrap_or_else(|e| panic!("{kind} n={n}: {e}"));
        vec![
            kind.to_string(),
            n.to_string(),
            book.permutations.to_string(),
            book.injective.to_string(),
            book.min_bits.to_string(),
            fmt(book.mean_bits, 1),
            book.max_bits.to_string(),
            fmt(log2_factorial(n), 1),
        ]
    });
    for row in &codebook_rows {
        t2.row(row);
    }
    t2.note(
        "The counting argument, literally: n! pairwise-distinct codes, every \
         one of them longer than log2(n!) bits — so *some* execution must pay \
         Ω(n log n) in the beta/rho currency the code length is made of.",
    );
    t2.finish();

    t.note(
        "Theorem 4.2's chain, measured: every permutation's stacks serialize to \
         B bits; B tracks beta(log(rho/beta)+1) (both O(m log(v/m))); and since \
         all n! codes are distinct (asserted by the round trip on every sample \
         and exhaustively for n=4 in the test suite), some code needs log2(n!) \
         bits — so B/(n log n) must stay bounded below away from 0, which the \
         last column shows. Commands m scale with beta, value v with rho, \
         exactly as Lemmas 5.3-5.11 require (checked by `lowerbound::check_all`).",
    );
    t.finish();
}
