//! Criterion bench: cost of the Section-5 construction itself — encoding a
//! permutation's execution and decoding it back (the workload behind
//! experiments E4/E6).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fence_trade::lowerbound;
use fence_trade::prelude::*;

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("lowerbound_encode");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for n in [4usize, 6, 8, 16] {
        let inst = build_ordering(LockKind::Bakery, n, ObjectKind::Counter);
        let pi: Vec<usize> = (0..n).rev().collect();
        group.bench_with_input(BenchmarkId::new("bakery_reverse_pi", n), &n, |b, _| {
            b.iter(|| encode_permutation(&inst, &pi, &EncodeOptions::default()).unwrap());
        });
    }

    // The `tables` workload's tournament cell (benchmark/src/cells.rs).
    let inst = build_ordering(LockKind::Tournament, 8, ObjectKind::Counter);
    let pi = [0usize, 7, 1, 6, 2, 5, 3, 4];
    group.bench_with_input(BenchmarkId::new("tournament_fixed_pi", 8), &8, |b, _| {
        b.iter(|| encode_permutation(&inst, &pi, &EncodeOptions::default()).unwrap());
    });
    group.finish();
}

fn bench_decode_and_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("lowerbound_decode");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    let n = 6;
    let inst = build_ordering(LockKind::Bakery, n, ObjectKind::Counter);
    let pi: Vec<usize> = (0..n).rev().collect();
    let enc = encode_permutation(&inst, &pi, &EncodeOptions::default()).unwrap();
    let initial = proof_machine(&inst);

    group.bench_function("decode_final_stacks", |b| {
        b.iter(|| decode(&initial, &enc.stacks, &DecodeOptions::default()).unwrap());
    });

    group.bench_function("serialize_deserialize", |b| {
        b.iter(|| {
            let bits = lowerbound::serialize_stacks(&enc.stacks);
            lowerbound::deserialize_stacks(&bits, n).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode_and_codec);
criterion_main!(benches);
