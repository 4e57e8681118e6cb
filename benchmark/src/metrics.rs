//! Names and units of every reported metric, in the order they are
//! printed. `BENCHMARK.json` lists the same names (`tests/smoke.rs` holds
//! the two together); `README.md` says what each one measures.

/// End-to-end metrics: `(name, unit)`, reported by `bench_e2e`. The raw
/// `verdict_ms` is printed beside them but is not one of them: between
/// runs on the same commit it spread by up to 22 %, and no bound the
/// contract allows (at most 25 %) would be a gate rather than a coin.
pub const END_TO_END: [(&str, &str); 3] = [
    ("verdict_x", "x"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, reported by `bench_probe`. A value
/// of 0 means the workload has no cell that exercises the layer.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("wbmem.step_recorded_ns", "ns"),
    ("wbmem.undo_ns", "ns"),
    ("wbmem.hash_state_ns", "ns"),
    ("wbmem.choices_into_ns", "ns"),
    ("wbmem.choice_footprint_ns", "ns"),
    ("wbmem.clone_ns", "ns"),
    ("wbmem.state_key_ns", "ns"),
    ("wbmem.step_ns", "ns"),
    ("simlocks.build_us", "us"),
    ("fencevm.rewrite_us", "us"),
    ("por.expand_ns", "ns"),
    ("por.ample_select_ns", "ns"),
    ("por.sleep_inherit_ns", "ns"),
    ("por.visit_claim_ns", "ns"),
    ("por.fptable_insert_hit_ns", "ns"),
    ("por.fptable_insert_miss_ns", "ns"),
    ("por.state_reduction_x", "x"),
    ("por.snapshot_encode_us_per_kib", "us/KiB"),
    ("por.snapshot_decode_us_per_kib", "us/KiB"),
    ("por.snapshot_kib", "KiB"),
    ("modelcheck.states", "count"),
    ("modelcheck.transitions", "count"),
    ("modelcheck.states_per_s", "1/s"),
    ("modelcheck.dedup_hit_share", "x"),
    ("modelcheck.self_ns_per_transition", "ns"),
    ("modelcheck.termination_x", "x"),
    ("modelcheck.clone_dfs_x", "x"),
    ("modelcheck.parallel2_speedup_x", "x"),
    ("modelcheck.pardpor2_speedup_x", "x"),
    ("modelcheck.split_overhead_x", "x"),
    ("modelcheck.sleep_hits", "count"),
    ("modelcheck.ample_applied", "count"),
    ("modelcheck.ample_fallbacks", "count"),
    ("modelcheck.fork_stolen", "count"),
    ("modelcheck.fp_contention", "count"),
    ("modelcheck.resume_replayed", "count"),
    ("synth.iterations", "count"),
    ("synth.total_states", "count"),
    ("synth.fences_inserted", "count"),
    ("synth.cores", "count"),
    ("synth.ms_per_iteration", "ms"),
    ("lowerbound.encode_ms", "ms"),
    ("lowerbound.decode_ms", "ms"),
    ("lowerbound.encode_decode_x", "x"),
    ("lowerbound.commands", "count"),
    ("lowerbound.code_bits", "count"),
    ("core.contended_passage_ms", "ms"),
    ("core.solo_passage_us", "us"),
    ("obs.enabled_overhead_x", "x"),
    ("obs.trace_spans", "count"),
    ("pass.untraced_ms", "ms"),
];
