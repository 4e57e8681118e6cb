//! The traced run of one workload: every per-layer metric, and the span
//! file `benchmark/out/trace-<workload>.jsonl`.
//!
//! Three phases inside one `workload` span:
//!
//! 1. **Passes**, alternating untraced and traced so host-speed drift hits
//!    both alike. A traced pass keeps harness spans (`pass > cell >
//!    phase`), attaches `Recorder::enabled()` to checker cells for the
//!    counters, and also runs the workload's *twin* cells (the
//!    denominators of the `_x` ratios). `obs.enabled_overhead_x` is traced
//!    ÷ untraced over the non-twin cells.
//! 2. **Probes**: calls into single layers, timed from outside in batches
//!    (at least 1000 calls and 5 ms each) over a corpus of machine states
//!    collected by a seeded random walk on the workload's largest cell.
//!    One span and one sample per batch.
//! 3. **Derivation** of the per-layer metrics from spans, outcomes and
//!    probe rates.
//!
//! This binary is the only place that names layer internals
//! (`step_recorded`, `select_ample`, `FpTable`, …): a PR that renames one
//! breaks `--trace`, never the end-to-end gate.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use fencevm::{insert_fences_after, strip_fences, write_pcs, VmProc};
use ft_benchmark::cells::{
    check_config, expected, run_pass, workload, Cell, Checks, Ctx, Kind, Outcome, Workload,
};
use ft_benchmark::harness::{
    emit_result, median, out_dir, require_two_cores, Args, Metric, Rng, Tracer,
};
use ft_benchmark::metrics::PER_LAYER;
use ft_benchmark::oracle;
use ftobs::Metric as Counter;
use modelcheck::{check, CheckpointPolicy, Engine, Recorder};
use por::{expand, select_ample, FpTable, SleepSet, Snapshot, VisitTable};
use simlocks::{build_mutex, build_ordering, FenceMask, ObjectKind, OrderingInstance};
use wbmem::{Footprint, Machine, MemoryModel, ProcId, SchedElem};

/// States in the probe corpus.
const CORPUS: usize = 256;
/// Rounds over the corpus per timed loop (`CORPUS * ROUNDS >= 1000` calls).
const ROUNDS: usize = 4;
/// A probe batch (one span, one sample) repeats its timed loop until it
/// has run this long, so fast layers do not flood the trace with spans.
const BATCH_S: f64 = 0.005;
/// Share of `--seconds` spent on passes; the rest goes to the probes.
const PASS_SHARE: f64 = 0.5;

type Vm = Machine<VmProc>;

/// The instance of the workload's probe cell: the mutex exercise for
/// checker and synthesis cells, the counter object for passage cells.
fn probe_instance(cell: &Cell) -> OrderingInstance {
    match cell.kind {
        Kind::Check { .. } | Kind::Split { .. } | Kind::Synth => {
            build_mutex(cell.lock, cell.n, FenceMask::ALL)
        }
        Kind::Contended | Kind::Solo100 | Kind::RoundTrip { .. } => {
            build_ordering(cell.lock, cell.n, ObjectKind::Counter)
        }
    }
}

/// One corpus entry: a reachable machine state and what the reductions
/// need to know about it.
struct State {
    machine: Vm,
    choices: Vec<SchedElem>,
    footprints: Vec<Footprint>,
    /// Sleep set holding the first choice (what `expand` filters with).
    sleep_one: SleepSet,
    /// Sleep set holding every choice (what `inherit` filters).
    sleep_all: SleepSet,
    fingerprint: u128,
}

fn fingerprint(m: &Vm, salt: u64) -> u128 {
    let mut h = DefaultHasher::new();
    h.write_u64(salt);
    m.hash_state(&mut h);
    let lo = h.finish();
    h.write_u64(lo);
    (u128::from(h.finish()) << 64) | u128::from(lo)
}

/// A seeded random walk over `root`'s state graph, restarted at terminal
/// states, keeping every 7th state that still has choices.
fn corpus(root: &Vm, seed: u64) -> Vec<State> {
    let mut rng = Rng(seed);
    let mut out = Vec::with_capacity(CORPUS);
    let mut m = root.clone();
    let mut choices = Vec::new();
    let mut steps = 0usize;
    while out.len() < CORPUS {
        m.choices_into(&mut choices);
        if choices.is_empty() || steps > 2_000 {
            m = root.clone();
            steps = 0;
            continue;
        }
        if steps % 7 == 6 {
            let footprints: Vec<Footprint> =
                choices.iter().map(|&e| m.choice_footprint(e)).collect();
            let mut sleep_one = SleepSet::new();
            sleep_one.insert(choices[0], footprints[0]);
            let mut sleep_all = SleepSet::new();
            for (&e, &fp) in choices.iter().zip(&footprints) {
                sleep_all.insert(e, fp);
            }
            out.push(State {
                fingerprint: fingerprint(&m, seed),
                machine: m.clone(),
                choices: choices.clone(),
                footprints,
                sleep_one,
                sleep_all,
            });
        }
        m.step(choices[rng.below(choices.len())]);
        steps += 1;
    }
    out
}

/// Runs probe batches inside spans until the slice is used up (at least
/// five batches) and keeps the median rate per metric over the batches.
struct Prober<'a> {
    tr: &'a mut Tracer,
    slice_s: f64,
    rates: BTreeMap<&'static str, f64>,
}

impl Prober<'_> {
    /// `timed_loop` makes at least 1000 calls and returns `(metric, calls,
    /// nanoseconds)` for each metric it times; a batch's sample is
    /// `ns / calls * scale` over all its loops.
    fn run(
        &mut self,
        name: &'static str,
        scale: f64,
        mut timed_loop: impl FnMut() -> Vec<(&'static str, usize, f64)>,
    ) {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let start = Instant::now();
        let mut batches = 0;
        while batches < 5 || start.elapsed().as_secs_f64() < self.slice_s {
            let mut totals: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
            self.tr.scope(&format!("probe:{name}"), |_| {
                let batch = Instant::now();
                while totals.is_empty() || batch.elapsed().as_secs_f64() < BATCH_S {
                    for (metric, calls, ns) in timed_loop() {
                        let total = totals.entry(metric).or_default();
                        total.0 += calls;
                        total.1 += ns;
                    }
                }
            });
            for (metric, (calls, ns)) in totals {
                samples
                    .entry(metric)
                    .or_default()
                    .push(ns / calls.max(1) as f64 * scale);
            }
            batches += 1;
        }
        for (metric, rates) in samples {
            self.rates.insert(metric, median(&rates));
        }
    }
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Time `f` once per corpus state, `ROUNDS` times over.
fn over_corpus(
    metric: &'static str,
    states: &[State],
    mut f: impl FnMut(&State),
) -> Vec<(&'static str, usize, f64)> {
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for s in states {
            f(s);
        }
    }
    vec![(metric, states.len() * ROUNDS, ns_since(start))]
}

fn probe_wbmem(p: &mut Prober<'_>, states: &mut [State]) {
    p.run("wbmem.step_recorded+undo", 1.0, || {
        let (mut step_ns, mut undo_ns) = (0.0, 0.0);
        let mut tokens = Vec::with_capacity(states.len());
        for round in 0..ROUNDS {
            let start = Instant::now();
            for s in states.iter_mut() {
                let elem = s.choices[round % s.choices.len()];
                tokens.push(s.machine.step_recorded(elem).1);
            }
            step_ns += ns_since(start);
            let start = Instant::now();
            for s in states.iter_mut().rev() {
                s.machine.undo(tokens.pop().expect("one token per state"));
            }
            undo_ns += ns_since(start);
        }
        let calls = states.len() * ROUNDS;
        vec![
            ("wbmem.step_recorded_ns", calls, step_ns),
            ("wbmem.undo_ns", calls, undo_ns),
        ]
    });
    let states = &*states;
    p.run("wbmem.hash_state", 1.0, || {
        over_corpus("wbmem.hash_state_ns", states, |s| {
            let mut h = DefaultHasher::new();
            s.machine.hash_state(&mut h);
            black_box(h.finish());
        })
    });
    let mut scratch = Vec::new();
    p.run("wbmem.choices_into", 1.0, || {
        over_corpus("wbmem.choices_into_ns", states, |s| {
            s.machine.choices_into(&mut scratch);
            black_box(scratch.len());
        })
    });
    p.run("wbmem.choice_footprint", 1.0, || {
        let start = Instant::now();
        let mut calls = 0;
        for _ in 0..ROUNDS {
            for s in states {
                let mut prev: Option<Footprint> = None;
                for &e in &s.choices {
                    let fp = s.machine.choice_footprint(e);
                    if let Some(prev) = prev {
                        black_box(fp.independent(prev, MemoryModel::Pso));
                    }
                    prev = Some(fp);
                    calls += 1;
                }
            }
        }
        vec![("wbmem.choice_footprint_ns", calls, ns_since(start))]
    });
    p.run("wbmem.clone", 1.0, || {
        over_corpus("wbmem.clone_ns", states, |s| {
            black_box(s.machine.clone());
        })
    });
    p.run("wbmem.state_key", 1.0, || {
        over_corpus("wbmem.state_key_ns", states, |s| {
            black_box(s.machine.state_key());
        })
    });
    p.run("wbmem.step", 1.0, || {
        // Plain `step`, round-robin, on copies made outside the timing.
        let mut copies: Vec<Vm> = states.iter().map(|s| s.machine.clone()).collect();
        let n = copies[0].n();
        let start = Instant::now();
        for m in &mut copies {
            for i in 0..16 {
                black_box(m.step(SchedElem::op(ProcId::from(i % n))));
            }
        }
        vec![("wbmem.step_ns", copies.len() * 16, ns_since(start))]
    });
}

fn probe_por(p: &mut Prober<'_>, states: &[State], seed: u64) {
    let off = Recorder::disabled();
    p.run("por.expand", 1.0, || {
        over_corpus("por.expand_ns", states, |s| {
            black_box(expand(&s.machine, &s.choices, &s.sleep_one, true, &off));
        })
    });
    p.run("por.ample_select", 1.0, || {
        over_corpus("por.ample_select_ns", states, |s| {
            black_box(select_ample(&s.machine, &s.choices));
        })
    });
    p.run("por.sleep_inherit", 1.0, || {
        over_corpus("por.sleep_inherit_ns", states, |s| {
            black_box(s.sleep_all.inherit(s.footprints[0], MemoryModel::Pso));
        })
    });
    p.run("por.visit_claim", 1.0, || {
        // Odd rounds re-offer the fingerprints of the round before with
        // the same sleep set: half the calls claim, half are dominated.
        let mut table = VisitTable::new();
        let start = Instant::now();
        for round in 0..ROUNDS {
            let salt = (round / 2) as u128;
            for s in states {
                black_box(table.try_claim(s.fingerprint ^ salt, &s.sleep_one, u32::MAX));
            }
        }
        vec![("por.visit_claim_ns", states.len() * ROUNDS, ns_since(start))]
    });
    let mut rng = Rng(seed ^ 0xF9);
    let fps: Vec<u128> = (0..20_000)
        .map(|_| (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()))
        .collect();
    p.run("por.fptable_insert", 1.0, || {
        let table = FpTable::new();
        let start = Instant::now();
        for &fp in &fps {
            black_box(table.insert(fp));
        }
        let miss_ns = ns_since(start);
        let start = Instant::now();
        for &fp in &fps {
            black_box(table.insert(fp));
        }
        vec![
            ("por.fptable_insert_miss_ns", fps.len(), miss_ns),
            ("por.fptable_insert_hit_ns", fps.len(), ns_since(start)),
        ]
    });
}

fn probe_builders(p: &mut Prober<'_>, cell: &Cell) {
    p.run("simlocks.build", 1e-3, || {
        let start = Instant::now();
        for _ in 0..20 {
            black_box(probe_instance(cell));
        }
        vec![("simlocks.build_us", 20, ns_since(start))]
    });
    let inst = probe_instance(cell);
    p.run("fencevm.rewrite", 1e-3, || {
        let start = Instant::now();
        for _ in 0..20 {
            for program in &inst.programs {
                let bare = strip_fences(program);
                let after = write_pcs(&bare.program);
                black_box(insert_fences_after(&bare.program, &after));
            }
        }
        vec![("fencevm.rewrite_us", 20, ns_since(start))]
    });
}

/// Snapshot of the probe cell's exploration stopped half-way, or `None`
/// when the workload has no checkpointing checker cell.
fn probe_snapshot(cell: &Cell, root: &Vm) -> Option<Snapshot> {
    // Synthesis checks its candidates with sequential DPOR.
    let engine = match cell.kind {
        Kind::Synth => Engine::Dpor {
            reorder_bound: None,
        },
        _ => cell.engine()?,
    };
    let cfg = check_config(engine, false, 0);
    let cut = check(root, &cfg).stats().transitions as u64 / 2;
    let path = out_dir().join(format!("probe-{}.ckpt", std::process::id()));
    let policy = CheckpointPolicy::at(&path).stop_after(cut);
    let written = check(root, &cfg.with_checkpoint(policy))
        .coverage()
        .and_then(|c| c.checkpoint)?;
    let snap = Snapshot::read(&written).ok();
    let _ = std::fs::remove_file(&written);
    snap
}

fn probe_snapshot_codec(p: &mut Prober<'_>, snap: &Snapshot) {
    let bytes = snap.to_bytes();
    let kib = bytes.len() as f64 / 1024.0;
    p.rates.insert("por.snapshot_kib", kib);
    // `calls` is 1 and the scale turns ns into µs per KiB.
    p.run("por.snapshot_encode", 1e-3 / kib, || {
        let start = Instant::now();
        black_box(snap.to_bytes());
        vec![("por.snapshot_encode_us_per_kib", 1, ns_since(start))]
    });
    p.run("por.snapshot_decode", 1e-3 / kib, || {
        let start = Instant::now();
        black_box(Snapshot::from_bytes(&bytes).is_ok());
        vec![("por.snapshot_decode_us_per_kib", 1, ns_since(start))]
    });
}

/// What the traced passes left behind, per cell.
#[derive(Default)]
struct PassData {
    /// Wall-clock of every run of the cell in traced passes.
    ms: HashMap<&'static str, Vec<f64>>,
    /// Outcome of the cell's last traced run.
    last: HashMap<&'static str, Outcome>,
    /// Non-twin totals per pass.
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

impl PassData {
    fn median_ms(&self, cells: &[&'static str]) -> f64 {
        cells
            .iter()
            .map(|c| self.ms.get(c).map_or(f64::NAN, |v| median(v)))
            .sum()
    }

    fn fact_sum(&self, cells: &[&Cell], key: &str) -> f64 {
        cells
            .iter()
            .filter_map(|c| self.last.get(c.name))
            .map(|o| o.num(key))
            .sum()
    }

    fn counter_sum(&self, cells: &[&Cell], counter: Counter) -> f64 {
        cells
            .iter()
            .filter_map(|c| self.last.get(c.name)?.metrics)
            .map(|m| m.get(counter) as f64)
            .sum()
    }
}

fn is_pardpor(cell: &Cell) -> bool {
    matches!(cell.engine(), Some(Engine::ParallelDpor { .. }))
}

fn is_reduced(cell: &Cell) -> bool {
    matches!(
        cell.engine(),
        Some(Engine::Dpor { .. } | Engine::ParallelDpor { .. })
    )
}

/// Median milliseconds of phase `name` summed over `cells`.
fn phase_ms(tr: &Tracer, cells: &[&Cell], name: &str) -> f64 {
    cells
        .iter()
        .map(|c| median(&tr.durations_ms(c.name, name)))
        .sum()
}

fn derive(
    w: &Workload,
    data: &PassData,
    tr: &Tracer,
    rates: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = rates.clone();
    let own: Vec<&Cell> = w.cells.iter().filter(|c| !c.twin).collect();
    let of = |pick: fn(&Kind) -> bool| -> Vec<&Cell> {
        own.iter().copied().filter(|c| pick(&c.kind)).collect()
    };
    let checkers = of(|k| matches!(k, Kind::Check { .. } | Kind::Split { .. }));
    let synths = of(|k| matches!(k, Kind::Synth));
    let contended = of(|k| matches!(k, Kind::Contended));
    let solos = of(|k| matches!(k, Kind::Solo100));
    let trips = of(|k| matches!(k, Kind::RoundTrip { .. }));

    // Exact counts leave out the work-stealing cells: which worker reaches
    // a state first decides what the reduction prunes there.
    let exact: Vec<&Cell> = checkers
        .iter()
        .copied()
        .filter(|c| !is_pardpor(c))
        .collect();
    let states = data.fact_sum(&exact, "states") + data.fact_sum(&synths, "total_states");
    m.insert("modelcheck.states", states);
    m.insert(
        "modelcheck.transitions",
        data.fact_sum(&exact, "transitions"),
    );
    let exact_names: Vec<&'static str> = exact.iter().map(|c| c.name).collect();
    let synth_names: Vec<&'static str> = synths.iter().map(|c| c.name).collect();
    let search_ms = data.median_ms(&exact_names) + data.median_ms(&synth_names);
    if search_ms > 0.0 {
        m.insert("modelcheck.states_per_s", states / (search_ms / 1e3));
    }
    let transitions = data.counter_sum(&checkers, Counter::Transitions);
    if transitions > 0.0 {
        m.insert(
            "modelcheck.dedup_hit_share",
            data.counter_sum(&checkers, Counter::DedupHits) / transitions,
        );
    }
    for (name, counter) in [
        ("modelcheck.sleep_hits", Counter::SleepHits),
        ("modelcheck.ample_applied", Counter::AmpleApplied),
        ("modelcheck.ample_fallbacks", Counter::AmpleFallbacks),
        ("modelcheck.fork_stolen", Counter::ForkStolen),
        ("modelcheck.fp_contention", Counter::FpContention),
        ("modelcheck.resume_replayed", Counter::ResumeReplayed),
    ] {
        m.insert(name, data.counter_sum(&checkers, counter));
    }

    // The engine's self time on the probe cell: its span minus what its
    // wbmem/por children cost at the probed rates.
    if let Some(cell) = checkers.iter().find(|c| c.name == w.probe_cell) {
        let out = &data.last[cell.name];
        let (states, transitions) = (out.num("states"), out.num("transitions"));
        let rate = |k: &str| rates.get(k).copied().unwrap_or(0.0);
        let mut children = transitions
            * (rate("wbmem.step_recorded_ns")
                + rate("wbmem.undo_ns")
                + rate("wbmem.hash_state_ns"))
            + states * rate("wbmem.choices_into_ns");
        if is_reduced(cell) {
            children += states * rate("por.expand_ns")
                + transitions * (rate("por.sleep_inherit_ns") + rate("por.visit_claim_ns"));
        }
        if transitions > 0.0 {
            let span_ns = data.median_ms(&[cell.name]) * 1e6;
            m.insert(
                "modelcheck.self_ns_per_transition",
                (span_ns - children) / transitions,
            );
        }
    }

    for r in &w.ratios {
        let value = if r.states {
            let sum = |cells: &[&'static str]| -> f64 {
                cells.iter().map(|c| data.last[c].num("states")).sum()
            };
            sum(&r.num) / sum(&r.den)
        } else {
            data.median_ms(&r.num) / data.median_ms(&r.den)
        };
        m.insert(r.metric, value);
    }

    if !synths.is_empty() {
        let iterations = data.fact_sum(&synths, "iterations");
        m.insert("synth.iterations", iterations);
        m.insert("synth.total_states", data.fact_sum(&synths, "total_states"));
        m.insert(
            "synth.fences_inserted",
            data.fact_sum(&synths, "fences_inserted"),
        );
        m.insert("synth.cores", data.fact_sum(&synths, "cores"));
        m.insert(
            "synth.ms_per_iteration",
            phase_ms(tr, &synths, "synthesize") / iterations,
        );
    }
    if !trips.is_empty() {
        let (enc, dec) = (
            phase_ms(tr, &trips, "encode"),
            phase_ms(tr, &trips, "decode"),
        );
        m.insert("lowerbound.encode_ms", enc);
        m.insert("lowerbound.decode_ms", dec);
        m.insert("lowerbound.encode_decode_x", enc / dec);
        m.insert("lowerbound.commands", data.fact_sum(&trips, "commands"));
        m.insert("lowerbound.code_bits", data.fact_sum(&trips, "code_bits"));
    }
    if !contended.is_empty() {
        m.insert(
            "core.contended_passage_ms",
            phase_ms(tr, &contended, "passage"),
        );
    }
    if !solos.is_empty() {
        let per_passage_ms = phase_ms(tr, &solos, "passage") / (100 * solos.len()) as f64;
        m.insert("core.solo_passage_us", per_passage_ms * 1e3);
    }
    m.insert(
        "obs.enabled_overhead_x",
        median(&data.traced_ms) / median(&data.untraced_ms),
    );
    m.insert("obs.trace_spans", tr.spans.len() as f64);
    m.insert("pass.untraced_ms", median(&data.untraced_ms));
    m
}

fn run(args: &Args) -> Result<(), String> {
    let w =
        workload(&args.workload).ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let cores = require_two_cores()?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating benchmark/out: {e}"))?;
    let mut ctx = Ctx::new(args.seed, out_dir());

    let want = expected();
    let oracle = oracle::run_oracle(&w, &want, &mut ctx);
    let canary = oracle::canary_mismatch(&oracle, &want);
    if let Some(problem) = &canary {
        eprintln!("WRONG {problem}");
    }
    let checks = Some(Checks {
        want: &want,
        oracle: &oracle,
    });
    let (mut attempted, mut failed) = (1, u64::from(canary.is_some()));
    let mut tally = |(checked, wrong): (u64, u64)| {
        attempted += checked;
        failed += wrong;
    };

    // Warm-up, twins included (it also measures the split cells' cuts).
    tally(run_pass(
        &w,
        &mut ctx,
        &mut Tracer::off(),
        checks,
        true,
        |_, _, _| (),
    ));

    let probe_cell = *w
        .cells
        .iter()
        .find(|c| c.name == w.probe_cell)
        .expect("the probe cell is one of the workload's cells");
    let root = probe_instance(&probe_cell).machine(MemoryModel::Pso);
    let mut states = corpus(&root, args.seed);
    let snapshot = probe_snapshot(&probe_cell, &root);

    let mut data = PassData::default();
    let mut tr = Tracer::on();
    let started = Instant::now();
    let rates = tr.scope("workload", |tr| {
        while match args.passes {
            Some(n) => data.traced_ms.len() < n,
            None => started.elapsed().as_secs_f64() < args.seconds * PASS_SHARE,
        } {
            let mut total = 0.0;
            ctx.record = false;
            tally(run_pass(
                &w,
                &mut ctx,
                &mut Tracer::off(),
                checks,
                false,
                |_, _, ms| total += ms,
            ));
            data.untraced_ms.push(total);

            let mut total = 0.0;
            ctx.record = true;
            let counts = tr.scope("pass", |tr| {
                run_pass(&w, &mut ctx, tr, checks, true, |cell, outcome, ms| {
                    if !cell.twin {
                        total += ms;
                    }
                    data.ms.entry(cell.name).or_default().push(ms);
                    data.last.insert(cell.name, outcome.clone());
                })
            });
            tally(counts);
            data.traced_ms.push(total);
        }

        // Sixteen probe groups share what is left of `--seconds`.
        let left = (args.seconds - started.elapsed().as_secs_f64()).max(0.0);
        let slice_s = if args.passes.is_some() {
            0.0
        } else {
            left / 16.0
        };
        let mut p = Prober {
            tr,
            slice_s,
            rates: BTreeMap::new(),
        };
        probe_wbmem(&mut p, &mut states);
        probe_por(&mut p, &states, args.seed);
        probe_builders(&mut p, &probe_cell);
        if let Some(snap) = &snapshot {
            probe_snapshot_codec(&mut p, snap);
        }
        p.rates
    });

    let derived = derive(&w, &data, &tr, &rates);
    let trace_path = out_dir().join(format!("trace-{}.jsonl", w.name));
    std::fs::write(&trace_path, tr.to_jsonl(w.name))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    println!(
        "workload {}  seed {}  nproc {cores}  engine threads <= 2  traced run: {} pass pairs, \
         corpus of {CORPUS} states from {}",
        w.name,
        args.seed,
        data.traced_ms.len(),
        w.probe_cell
    );
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            // `+ 0.0`: an empty sum is `-0.0`.
            value: derived.get(name).copied().unwrap_or(0.0) + 0.0,
            unit,
        })
        .collect();
    for metric in &metrics {
        println!("{:38} {:16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "spans           {} written to {}",
        tr.spans.len(),
        trace_path.display()
    );
    println!("wrong_verdicts  {failed} count of {attempted} cells_checked (canary included)");
    emit_result(args, attempted, failed, &metrics)
}

fn main() -> ExitCode {
    match Args::parse(std::env::args()).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_probe: {e}");
            ExitCode::FAILURE
        }
    }
}
