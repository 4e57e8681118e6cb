//! The five workloads and the function that runs one cell.
//!
//! A *cell* is one call into the workspace that ends in a verdict, a fence
//! placement or a table row. [`run_cell`] builds the cell's inputs and
//! makes that call through public top-level entry points only (`check`,
//! `resume`, `synthesize`, `encode_permutation`/`decode`, passages), so a
//! change to an internal API can never break the end-to-end numbers.
//!
//! Why these cells, and what was left out, is argued in
//! `benchmark/README.md`.

use std::collections::HashMap;
use std::path::PathBuf;

use fence_trade::analysis::solo_passage;
use ftsynth::{synthesize, SynthConfig, SynthOutcome};
use lowerbound::{
    decode, deserialize_stacks, encode_permutation, proof_machine, recover_permutation,
    serialize_stacks, DecodeOptions, EncodeOptions,
};
use modelcheck::{check, resume, CheckConfig, CheckpointPolicy, Engine, Recorder, Verdict};
use simlocks::{
    build_mutex, build_ordering, run_to_completion, FenceMask, LockKind, ObjectKind,
    OrderingInstance,
};
use wbmem::{CrashSemantics, MemoryModel};

use crate::harness::{Rng, Tracer};

/// Workload names, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 5] = ["exhaustive", "reduced", "synth", "resume", "tables"];

/// Step bound for passages (never reached by a correct lock).
const MAX_STEPS: usize = 50_000_000;

const DPOR: Engine = Engine::Dpor {
    reorder_bound: None,
};
const PARDPOR2: Engine = Engine::ParallelDpor {
    threads: 2,
    reorder_bound: None,
};
const PARALLEL2: Engine = Engine::Parallel { threads: 2 };
const GT2: LockKind = LockKind::Gt { f: 2 };
const GT3: LockKind = LockKind::Gt { f: 3 };

/// What a cell calls.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `check` of the fully fenced mutex instance under PSO, mutex check
    /// on, termination check and crash bound as given.
    Check {
        /// Exploration engine.
        engine: Engine,
        /// `check_termination`.
        term: bool,
        /// `max_crashes` (0 = none).
        crashes: u32,
    },
    /// `check` stopped by `CheckpointPolicy::stop_after(transitions / 2)`
    /// with the snapshot written to disk, then `resume` to the verdict.
    Split {
        /// Exploration engine (must be a checkpointing one).
        engine: Engine,
    },
    /// `ftsynth::synthesize` with `SynthConfig::default()`.
    Synth,
    /// All `n` processes of the counter object, round-robin to completion.
    Contended,
    /// 100 uncontended passages of the counter object.
    Solo100,
    /// §5: encode a permutation π, serialize, deserialize, decode, recover
    /// π. `fixed == None` draws π from `--seed`. Only locks whose encoding
    /// cost does not depend on π may do that: runs with different seeds
    /// must do the same work, and `tournament8` took 115–210 ms depending
    /// on π where `bakery8` stayed within the host's noise.
    RoundTrip {
        /// The permutation to encode instead of the seeded one.
        fixed: Option<&'static [usize]>,
    },
}

/// One cell of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// `<lock><n>_<model>.<engine>[.<option>]` for checker cells,
    /// `<lock><n>.<call>` otherwise.
    pub name: &'static str,
    /// Lock family.
    pub lock: LockKind,
    /// Process count.
    pub n: usize,
    /// The call.
    pub kind: Kind,
    /// A twin runs only in traced passes: it is the denominator (or
    /// numerator) of a ratio metric and not part of `verdict_ms`.
    pub twin: bool,
}

/// A ratio reported by the traced run: the cells' median wall-clock (or,
/// with `states`, their state counts) summed over `num`, ÷ the same over
/// `den`.
#[derive(Clone, Debug)]
pub struct Ratio {
    /// Per-layer metric name.
    pub metric: &'static str,
    /// Numerator cells.
    pub num: Vec<&'static str>,
    /// Denominator cells.
    pub den: Vec<&'static str>,
    /// Compare exact state counts instead of time.
    pub states: bool,
}

/// A workload: its cells in pass order, and what the traced run derives.
#[derive(Clone, Debug)]
pub struct Workload {
    /// One of [`WORKLOADS`].
    pub name: &'static str,
    /// Cells in pass order; twins last.
    pub cells: Vec<Cell>,
    /// Ratio metrics of the traced run.
    pub ratios: Vec<Ratio>,
    /// Cell whose machine the probe corpus is walked on (the largest).
    pub probe_cell: &'static str,
}

impl Cell {
    /// The exploration engine of a checker cell.
    #[must_use]
    pub fn engine(&self) -> Option<Engine> {
        match self.kind {
            Kind::Check { engine, .. } | Kind::Split { engine } => Some(engine),
            _ => None,
        }
    }
}

fn cell(name: &'static str, lock: LockKind, n: usize, kind: Kind) -> Cell {
    Cell {
        name,
        lock,
        n,
        kind,
        twin: false,
    }
}

fn twin(name: &'static str, lock: LockKind, n: usize, kind: Kind) -> Cell {
    Cell {
        twin: true,
        ..cell(name, lock, n, kind)
    }
}

fn chk(engine: Engine) -> Kind {
    Kind::Check {
        engine,
        term: false,
        crashes: 0,
    }
}

fn ratio(metric: &'static str, num: &[&'static str], den: &[&'static str]) -> Ratio {
    Ratio {
        metric,
        num: num.to_vec(),
        den: den.to_vec(),
        states: false,
    }
}

/// The workload called `name`.
#[must_use]
pub fn workload(name: &str) -> Option<Workload> {
    use LockKind::{Bakery, Filter, Mcs, RecoverableBakery, Tournament, Ttas};
    let term = |engine| Kind::Check {
        engine,
        term: true,
        crashes: 0,
    };
    Some(match name {
        "exhaustive" => Workload {
            name: "exhaustive",
            cells: vec![
                cell("filter3_pso.undo", Filter, 3, chk(Engine::Undo)),
                cell("ttas4_pso.undo", Ttas, 4, chk(Engine::Undo)),
                cell("mcs3_pso.undo.term", Mcs, 3, term(Engine::Undo)),
                cell(
                    "rbakery2_pso.undo.crash1",
                    RecoverableBakery,
                    2,
                    Kind::Check {
                        engine: Engine::Undo,
                        term: false,
                        crashes: 1,
                    },
                ),
                cell("filter3_pso.parallel2", Filter, 3, chk(PARALLEL2)),
                cell("ttas4_pso.clone_dfs", Ttas, 4, chk(Engine::CloneDfs)),
                twin("mcs3_pso.undo", Mcs, 3, chk(Engine::Undo)),
            ],
            ratios: vec![
                ratio(
                    "modelcheck.termination_x",
                    &["mcs3_pso.undo.term"],
                    &["mcs3_pso.undo"],
                ),
                ratio(
                    "modelcheck.clone_dfs_x",
                    &["ttas4_pso.clone_dfs"],
                    &["ttas4_pso.undo"],
                ),
                ratio(
                    "modelcheck.parallel2_speedup_x",
                    &["filter3_pso.undo"],
                    &["filter3_pso.parallel2"],
                ),
            ],
            probe_cell: "filter3_pso.undo",
        },
        "reduced" => Workload {
            name: "reduced",
            cells: vec![
                cell("tournament4_pso.dpor", Tournament, 4, chk(DPOR)),
                cell("gt_f23_pso.dpor", GT2, 3, chk(DPOR)),
                cell("ttas4_pso.dpor", Ttas, 4, chk(DPOR)),
                cell("mcs3_pso.dpor.term", Mcs, 3, term(DPOR)),
                cell("gt_f23_pso.pardpor2", GT2, 3, chk(PARDPOR2)),
                twin("mcs3_pso.dpor", Mcs, 3, chk(DPOR)),
                twin("ttas4_pso.undo", Ttas, 4, chk(Engine::Undo)),
            ],
            ratios: vec![
                ratio(
                    "modelcheck.termination_x",
                    &["mcs3_pso.dpor.term"],
                    &["mcs3_pso.dpor"],
                ),
                ratio(
                    "modelcheck.pardpor2_speedup_x",
                    &["gt_f23_pso.dpor"],
                    &["gt_f23_pso.pardpor2"],
                ),
                Ratio {
                    states: true,
                    ..ratio(
                        "por.state_reduction_x",
                        &["ttas4_pso.undo"],
                        &["ttas4_pso.dpor"],
                    )
                },
            ],
            probe_cell: "tournament4_pso.dpor",
        },
        "synth" => Workload {
            name: "synth",
            cells: vec![
                cell("bakery2.synth", Bakery, 2, Kind::Synth),
                cell("tournament2.synth", Tournament, 2, Kind::Synth),
                cell("filter2.synth", Filter, 2, Kind::Synth),
                cell("ttas4.synth", Ttas, 4, Kind::Synth),
                cell("mcs3.synth", Mcs, 3, Kind::Synth),
            ],
            ratios: vec![],
            probe_cell: "ttas4.synth",
        },
        "resume" => Workload {
            name: "resume",
            cells: vec![
                cell(
                    "filter3_pso.undo.split",
                    Filter,
                    3,
                    Kind::Split {
                        engine: Engine::Undo,
                    },
                ),
                cell(
                    "gt_f23_pso.dpor.split",
                    GT2,
                    3,
                    Kind::Split { engine: DPOR },
                ),
                cell(
                    "filter3_pso.pardpor2.split",
                    Filter,
                    3,
                    Kind::Split { engine: PARDPOR2 },
                ),
                twin("filter3_pso.undo", Filter, 3, chk(Engine::Undo)),
                twin("gt_f23_pso.dpor", GT2, 3, chk(DPOR)),
                twin("filter3_pso.pardpor2", Filter, 3, chk(PARDPOR2)),
            ],
            ratios: vec![ratio(
                "modelcheck.split_overhead_x",
                &[
                    "filter3_pso.undo.split",
                    "gt_f23_pso.dpor.split",
                    "filter3_pso.pardpor2.split",
                ],
                &[
                    "filter3_pso.undo",
                    "gt_f23_pso.dpor",
                    "filter3_pso.pardpor2",
                ],
            )],
            probe_cell: "filter3_pso.undo.split",
        },
        "tables" => Workload {
            name: "tables",
            cells: vec![
                cell("bakery64.contended", Bakery, 64, Kind::Contended),
                cell("gt_f2_64.contended", GT2, 64, Kind::Contended),
                cell("gt_f3_64.contended", GT3, 64, Kind::Contended),
                cell("tournament64.contended", Tournament, 64, Kind::Contended),
                cell("gt_f2_256.contended", GT2, 256, Kind::Contended),
                cell("bakery64.solo100", Bakery, 64, Kind::Solo100),
                cell("gt_f2_64.solo100", GT2, 64, Kind::Solo100),
                cell("gt_f3_64.solo100", GT3, 64, Kind::Solo100),
                cell("tournament64.solo100", Tournament, 64, Kind::Solo100),
                cell("gt_f2_256.solo100", GT2, 256, Kind::Solo100),
                cell(
                    "bakery8.roundtrip",
                    Bakery,
                    8,
                    Kind::RoundTrip { fixed: None },
                ),
                cell(
                    "tournament8.roundtrip",
                    Tournament,
                    8,
                    Kind::RoundTrip {
                        fixed: Some(&[0, 7, 1, 6, 2, 5, 3, 4]),
                    },
                ),
            ],
            ratios: vec![],
            probe_cell: "gt_f2_64.contended",
        },
        _ => return None,
    })
}

/// Per-process state a pass needs besides the cell list.
#[derive(Debug)]
pub struct Ctx {
    /// `--seed`; only a seeded [`Kind::RoundTrip`] reads it (its π).
    pub seed: u64,
    /// Directory the split cells write their snapshots to.
    pub out_dir: PathBuf,
    /// Attach `Recorder::enabled()` to checker cells (traced passes).
    pub record: bool,
    /// `transitions / 2` of each split cell's uninterrupted run, measured
    /// the first time the cell runs (a warm-up pass, never a timed one).
    cuts: HashMap<&'static str, u64>,
}

impl Ctx {
    /// A context writing snapshots under `out_dir`.
    #[must_use]
    pub fn new(seed: u64, out_dir: PathBuf) -> Ctx {
        Ctx {
            seed,
            out_dir,
            record: false,
            cuts: HashMap::new(),
        }
    }
}

/// What a cell produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Verdict label (`ok`, `MUTEX-VIOLATION`, `synthesized`, …).
    pub label: String,
    /// Named facts about the result (`states`, `placement`, `fences`, …),
    /// compared against `expected.tsv` and the oracle.
    pub facts: Vec<(&'static str, String)>,
    /// The synthesized instance, for the oracle's re-verification.
    pub instance: Option<OrderingInstance>,
    /// Counters of the cell's `Recorder::enabled()` (traced passes).
    pub metrics: Option<modelcheck::MetricsSnapshot>,
}

impl Outcome {
    /// Fact `key`, if present.
    #[must_use]
    pub fn fact(&self, key: &str) -> Option<&str> {
        self.facts
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Fact `key` as a number (0 when absent or not numeric).
    #[must_use]
    pub fn num(&self, key: &str) -> f64 {
        self.fact(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    fn of_verdict(v: &Verdict, record: bool) -> Outcome {
        let stats = v.stats();
        Outcome {
            label: v.label().to_string(),
            facts: vec![
                ("states", stats.states.to_string()),
                ("transitions", stats.transitions.to_string()),
            ],
            instance: None,
            metrics: record.then_some(stats.metrics),
        }
    }
}

/// The checker configuration of a checker cell.
#[must_use]
pub fn check_config(engine: Engine, term: bool, crashes: u32) -> CheckConfig {
    let mut cfg = CheckConfig {
        check_termination: term,
        ..CheckConfig::default()
    }
    .with_engine(engine);
    if crashes > 0 {
        cfg = cfg.with_crashes(CrashSemantics::DiscardBuffer, crashes);
    }
    cfg
}

/// The permutation π a seeded round-trip cell encodes for `n` processes.
fn seeded_permutation(seed: u64, n: usize) -> Vec<usize> {
    Rng(seed ^ (n as u64).wrapping_mul(0x9E37_79B9)).permutation(n)
}

/// Run `cell` once. Phases are wrapped in spans of `tr` (a no-op when the
/// tracer is off).
///
/// # Panics
///
/// Whatever the called layer panics with; callers count that as a wrong
/// verdict (see `run_pass`).
pub fn run_cell(cell: &Cell, ctx: &mut Ctx, tr: &mut Tracer) -> Outcome {
    let recorder = || {
        if ctx.record {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    };
    match cell.kind {
        Kind::Check {
            engine,
            term,
            crashes,
        } => {
            let (machine, cfg) = tr.scope("build", |_| {
                let inst = build_mutex(cell.lock, cell.n, FenceMask::ALL);
                let cfg = check_config(engine, term, crashes).with_recorder(recorder());
                (inst.machine(MemoryModel::Pso), cfg)
            });
            let verdict = tr.scope("check", |_| check(&machine, &cfg));
            Outcome::of_verdict(&verdict, ctx.record)
        }
        Kind::Split { engine } => {
            let (machine, cfg) = tr.scope("build", |_| {
                let inst = build_mutex(cell.lock, cell.n, FenceMask::ALL);
                (
                    inst.machine(MemoryModel::Pso),
                    check_config(engine, false, 0),
                )
            });
            let cut = *ctx
                .cuts
                .entry(cell.name)
                .or_insert_with(|| check(&machine, &cfg).stats().transitions as u64 / 2);
            let cfg = cfg.with_recorder(recorder());
            let path = ctx
                .out_dir
                .join(format!("{}-{}.ckpt", cell.name, std::process::id()));
            let stopped = tr.scope("stop", |_| {
                let policy = CheckpointPolicy::at(&path).stop_after(cut);
                check(&machine, &cfg.clone().with_checkpoint(policy))
            });
            let Some(written) = stopped.coverage().and_then(|c| c.checkpoint) else {
                return Outcome {
                    label: format!("no-checkpoint({})", stopped.label()),
                    ..Outcome::default()
                };
            };
            let bytes = std::fs::metadata(&written).map_or(0, |m| m.len());
            let verdict = tr.scope("resume", |_| resume(&machine, &cfg, &written));
            let _ = std::fs::remove_file(&written);
            let mut out = Outcome::of_verdict(&verdict, ctx.record);
            out.facts.push(("snapshot_bytes", bytes.to_string()));
            out
        }
        Kind::Synth => {
            let inst = tr.scope("build", |_| build_mutex(cell.lock, cell.n, FenceMask::ALL));
            let outcome = tr.scope("synthesize", |_| synthesize(&inst, &SynthConfig::default()));
            match outcome {
                SynthOutcome::Synthesized(s) => {
                    let placement: Vec<String> = s
                        .placement
                        .iter()
                        .map(|pcs| {
                            let pcs: Vec<String> = pcs.iter().map(usize::to_string).collect();
                            pcs.join(",")
                        })
                        .collect();
                    Outcome {
                        label: "synthesized".into(),
                        facts: vec![
                            ("placement", placement.join(";")),
                            ("iterations", s.iterations.to_string()),
                            ("total_states", s.total_states.to_string()),
                            ("fences_inserted", s.fences_inserted().to_string()),
                            ("cores", s.cores.len().to_string()),
                        ],
                        instance: Some(s.instance),
                        metrics: None,
                    }
                }
                SynthOutcome::Unfixable { verdict, .. } => Outcome {
                    label: format!("unfixable({verdict})"),
                    ..Outcome::default()
                },
                SynthOutcome::Exhausted { last_verdict, .. } => Outcome {
                    label: format!("exhausted({last_verdict})"),
                    ..Outcome::default()
                },
            }
        }
        Kind::Contended => {
            let mut machine = tr.scope("build", |_| {
                build_ordering(cell.lock, cell.n, ObjectKind::Counter).machine(MemoryModel::Pso)
            });
            let done = tr.scope("passage", |_| run_to_completion(&mut machine, MAX_STEPS));
            let mut returns: Vec<u64> = machine.return_values().into_iter().flatten().collect();
            returns.sort_unstable();
            let ordered = returns == (0..cell.n as u64).collect::<Vec<_>>();
            Outcome {
                label: if done && ordered { "ok" } else { "not-ordered" }.into(),
                facts: vec![
                    ("fences", machine.counters().beta().to_string()),
                    ("rmrs", machine.counters().rho().to_string()),
                ],
                ..Outcome::default()
            }
        }
        Kind::Solo100 => {
            let inst = tr.scope("build", |_| {
                build_ordering(cell.lock, cell.n, ObjectKind::Counter)
            });
            let costs = tr.scope("passage", |_| {
                (0..100)
                    .map(|_| solo_passage(&inst, MemoryModel::Pso, MAX_STEPS))
                    .collect::<Vec<_>>()
            });
            let same = costs.iter().all(|c| *c == costs[0]);
            Outcome {
                label: if same { "ok" } else { "unstable" }.into(),
                facts: vec![
                    ("fences", costs[0].fences.to_string()),
                    ("rmrs", costs[0].rmrs.to_string()),
                ],
                ..Outcome::default()
            }
        }
        Kind::RoundTrip { fixed } => {
            let inst = tr.scope("build", |_| {
                build_ordering(cell.lock, cell.n, ObjectKind::Counter)
            });
            let pi = fixed.map_or_else(|| seeded_permutation(ctx.seed, cell.n), <[usize]>::to_vec);
            let enc = match tr.scope("encode", |_| {
                encode_permutation(&inst, &pi, &EncodeOptions::default())
            }) {
                Ok(enc) => enc,
                Err(e) => {
                    return Outcome {
                        label: format!("encode-error({e})"),
                        ..Outcome::default()
                    }
                }
            };
            let bits = serialize_stacks(&enc.stacks);
            let recovered = tr.scope("decode", |_| {
                let back = deserialize_stacks(&bits, cell.n).map_err(|e| e.to_string())?;
                let out = decode(&proof_machine(&inst), &back, &DecodeOptions::default())
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>(recover_permutation(&out.machine))
            });
            let label = match recovered {
                Ok(back) if back == pi && enc.recovered_permutation() == pi => "ok".to_string(),
                Ok(_) => "wrong-permutation".to_string(),
                Err(e) => format!("decode-error({e})"),
            };
            Outcome {
                label,
                facts: vec![
                    ("commands", enc.commands.to_string()),
                    ("code_bits", bits.len().to_string()),
                ],
                ..Outcome::default()
            }
        }
    }
}

/// One row of `expected.tsv`: the hand-written expectation for a cell.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Verdict label the cell must produce.
    pub label: String,
    /// `key=value` (exact), `key=oracle` (equal to the oracle's fact) or
    /// `key<=oracle` (numerically at most the oracle's fact).
    pub checks: Vec<String>,
}

/// Parse `expected.tsv`: `cell<TAB>label<TAB>checks`, `#` comments.
fn parse_expected(text: &str) -> Result<HashMap<String, Expected>, String> {
    let mut out = HashMap::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [cell, label, checks] = cols[..] else {
            return Err(format!("expected.tsv line {}: want 3 columns", no + 1));
        };
        out.insert(
            cell.to_string(),
            Expected {
                label: label.to_string(),
                checks: checks
                    .split_whitespace()
                    .filter(|c| *c != "-")
                    .map(str::to_string)
                    .collect(),
            },
        );
    }
    Ok(out)
}

/// The hand-written expectations, compiled in so the binaries need no
/// path to find them.
///
/// # Panics
///
/// `expected.tsv` is malformed (a bug in this benchmark).
#[must_use]
pub fn expected() -> HashMap<String, Expected> {
    parse_expected(include_str!("../expected.tsv")).expect("benchmark/expected.tsv is well-formed")
}

/// Oracle facts per cell, as printed by `bench_e2e --child oracle`.
pub type Oracle = HashMap<String, Vec<(String, String)>>;

/// Why `got` fails `want` (given the oracle's facts for the cell), or
/// `None` when every check passes.
#[must_use]
pub fn mismatch(
    got: &Outcome,
    want: &Expected,
    oracle: Option<&Vec<(String, String)>>,
) -> Option<String> {
    if got.label != want.label {
        return Some(format!("label `{}`, expected `{}`", got.label, want.label));
    }
    let oracle_label = oracle.and_then(|o| o.iter().find(|(k, _)| k == "label"));
    if let Some((_, label)) = oracle_label.filter(|(_, l)| *l != got.label) {
        return Some(format!("label `{}`, the oracle says `{label}`", got.label));
    }
    for check in &want.checks {
        let (key, op, rhs) = match check.split_once("<=") {
            Some((k, r)) => (k, "<=", r),
            None => match check.split_once('=') {
                Some((k, r)) => (k, "=", r),
                None => return Some(format!("malformed check `{check}`")),
            },
        };
        let Some(have) = got.fact(key) else {
            return Some(format!("no fact `{key}`"));
        };
        let rhs = if rhs == "oracle" {
            let fact = oracle.and_then(|o| o.iter().find(|(k, _)| k == key));
            match fact {
                Some((_, v)) => v.as_str(),
                None => return Some(format!("oracle has no `{key}`")),
            }
        } else {
            rhs
        };
        let holds = match op {
            "=" => have == rhs,
            _ => matches!(
                (have.parse::<f64>(), rhs.parse::<f64>()),
                (Ok(a), Ok(b)) if a <= b
            ),
        };
        if !holds {
            return Some(format!("{key}={have}, expected {key}{op}{rhs}"));
        }
    }
    None
}

/// What a pass checks each cell's outcome against.
#[derive(Clone, Copy, Debug)]
pub struct Checks<'a> {
    /// The rows of `expected.tsv`.
    pub want: &'a HashMap<String, Expected>,
    /// The oracle child's facts.
    pub oracle: &'a Oracle,
}

/// Run every cell of `w` (twins only when `twins`) once, in order, and
/// hand each outcome with its wall-clock milliseconds to `each`. Returns
/// `(cells checked, wrong verdicts)`, reporting each wrong one on stderr;
/// a panicking cell counts as wrong. With `checks == None` only panics
/// are counted.
pub fn run_pass(
    w: &Workload,
    ctx: &mut Ctx,
    tr: &mut Tracer,
    checks: Option<Checks<'_>>,
    twins: bool,
    mut each: impl FnMut(&Cell, &Outcome, f64),
) -> (u64, u64) {
    let (mut checked, mut wrong) = (0, 0);
    for cell in w.cells.iter().filter(|c| twins || !c.twin) {
        let start = std::time::Instant::now();
        let depth = tr.depth();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.scope(&format!("cell:{}", cell.name), |tr| run_cell(cell, ctx, tr))
        }));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tr.close_to(depth);
        checked += 1;
        let problem = match (&run, checks) {
            (Err(_), _) => Some("panicked".to_string()),
            (Ok(_), None) => None,
            (Ok(got), Some(c)) => match c.want.get(cell.name) {
                None => Some("no row in expected.tsv".to_string()),
                Some(exp) => mismatch(got, exp, c.oracle.get(cell.name)),
            },
        };
        if let Some(problem) = problem {
            wrong += 1;
            eprintln!("WRONG {}: {problem}", cell.name);
        }
        if let Ok(got) = &run {
            each(cell, got, ms);
        }
    }
    (checked, wrong)
}
