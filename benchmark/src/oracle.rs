//! The untimed reference results a run's cells are compared against.
//!
//! Nothing here is a stored number: state counts come from a fresh
//! `Engine::CloneDfs` exploration (the engine that shares no code with the
//! ones being timed), synthesized placements are re-verified under PSO and
//! TSO with the same engine, and a canary that must *fail* under PSO makes
//! sure a checker that answers `ok` to everything cannot pass.

use std::collections::HashMap;

use modelcheck::{check, Engine};
use simlocks::peterson::{SITE_RELEASE, SITE_VICTIM};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::MemoryModel;

use crate::cells::{check_config, run_cell, Cell, Ctx, Expected, Kind, Oracle, Workload};
use crate::harness::Tracer;

/// Name of the canary's row in `expected.tsv`.
pub const CANARY: &str = "peterson2_f1f2.canary";

/// Peterson with fences `[f1 f2]` (store–load + release) under TSO and
/// PSO — the paper's separation: `tso=ok pso=MUTEX-VIOLATION`.
fn canary() -> Vec<(String, String)> {
    let mask = FenceMask::only(&[SITE_VICTIM, SITE_RELEASE]);
    let inst = build_mutex(LockKind::Peterson, 2, mask);
    let cfg = check_config(Engine::Undo, false, 0);
    let label = |model| check(&inst.machine(model), &cfg).label().to_string();
    vec![
        ("tso".into(), label(MemoryModel::Tso)),
        ("pso".into(), label(MemoryModel::Pso)),
    ]
}

fn clone_dfs_facts(cell: &Cell, term: bool, crashes: u32) -> Vec<(String, String)> {
    let inst = build_mutex(cell.lock, cell.n, FenceMask::ALL);
    let cfg = check_config(Engine::CloneDfs, term, crashes);
    let verdict = check(&inst.machine(MemoryModel::Pso), &cfg);
    vec![
        ("label".into(), verdict.label().into()),
        ("states".into(), verdict.stats().states.to_string()),
    ]
}

fn synth_facts(cell: &Cell, ctx: &mut Ctx) -> Vec<(String, String)> {
    let got = run_cell(cell, ctx, &mut Tracer::off());
    let Some(inst) = &got.instance else {
        return vec![("placement".into(), format!("none({})", got.label))];
    };
    // `SynthConfig::default()` promises mutex + termination under both
    // models; hold the placement to exactly that, on the oracle engine.
    let cfg = check_config(Engine::CloneDfs, true, 0);
    for model in [MemoryModel::Pso, MemoryModel::Tso] {
        let verdict = check(&inst.machine(model), &cfg);
        if !verdict.is_ok() {
            let why = format!("unverified({model}:{})", verdict.label());
            return vec![("placement".into(), why)];
        }
    }
    let placement = got.fact("placement").unwrap_or_default().to_string();
    vec![("placement".into(), placement)]
}

/// Compute the oracle facts for every cell of `w` whose `expected.tsv` row
/// refers to the oracle. Cells over the same machine and properties share
/// one exploration.
#[must_use]
pub fn run_oracle(w: &Workload, want: &HashMap<String, Expected>, ctx: &mut Ctx) -> Oracle {
    let mut out = Oracle::new();
    out.insert(CANARY.to_string(), canary());
    let mut explored: HashMap<String, Vec<(String, String)>> = HashMap::new();
    for cell in &w.cells {
        let asks = want
            .get(cell.name)
            .is_some_and(|e| e.checks.iter().any(|c| c.ends_with("=oracle")));
        if !asks {
            continue;
        }
        let facts = match cell.kind {
            Kind::Check { term, crashes, .. } => explored
                .entry(format!("{}/{}/{term}/{crashes}", cell.lock, cell.n))
                .or_insert_with(|| clone_dfs_facts(cell, term, crashes))
                .clone(),
            Kind::Split { .. } => explored
                .entry(format!("{}/{}/false/0", cell.lock, cell.n))
                .or_insert_with(|| clone_dfs_facts(cell, false, 0))
                .clone(),
            Kind::Synth => synth_facts(cell, ctx),
            Kind::Contended | Kind::Solo100 | Kind::RoundTrip { .. } => Vec::new(),
        };
        out.insert(cell.name.to_string(), facts);
    }
    out
}

/// Why the canary in `oracle` fails its `expected.tsv` row, or `None`.
#[must_use]
pub fn canary_mismatch(oracle: &Oracle, want: &HashMap<String, Expected>) -> Option<String> {
    let Some(row) = want.get(CANARY) else {
        return Some("no canary row in expected.tsv".into());
    };
    let facts = oracle.get(CANARY).map(Vec::as_slice).unwrap_or_default();
    row.checks
        .iter()
        .find(|check| {
            !facts
                .iter()
                .any(|(k, v)| check.split_once('=') == Some((k.as_str(), v.as_str())))
        })
        .map(|check| format!("canary: expected {check}, the checker said {facts:?}"))
}

/// The oracle as lines `cell<TAB>key=value key=value` (the child → parent
/// pipe of `bench_e2e`).
#[must_use]
pub fn to_lines(oracle: &Oracle) -> String {
    let mut cells: Vec<_> = oracle.iter().collect();
    cells.sort();
    let mut out = String::new();
    for (cell, facts) in cells {
        let facts: Vec<String> = facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!("{cell}\t{}\n", facts.join(" ")));
    }
    out
}

/// Inverse of [`to_lines`]; lines without a tab are ignored.
#[must_use]
pub fn from_lines(text: &str) -> Oracle {
    text.lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(cell, facts)| {
            let facts = facts
                .split_whitespace()
                .filter_map(|f| f.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            (cell.to_string(), facts)
        })
        .collect()
}
