//! **E8 — fence ablation across the lock family**: for every fence
//! placement of Peterson and (a subset for) Bakery, model-check mutual
//! exclusion under each memory model and report the minimal fence budget
//! each model requires. This is the design-choice ablation behind the
//! paper's thesis that *fences are mostly needed for ordering writes*.
//!
//! The candidate placements are independent model-checking jobs, so they
//! are swept on `crate::parallelism()` worker threads (`FT_THREADS`
//! overrides; each individual check stays sequential, so the table is
//! identical at any thread count).

use crate::Table;
use fence_trade::prelude::*;
use modelcheck::{minimal_fences, ElisionRow};

fn ablation_table(name: &str, title: &str, rows: &[ElisionRow], models: &[MemoryModel]) -> Table {
    let mut t = Table::new(name, title, &["fences", "SC", "TSO", "PSO", "states"]);
    for row in rows {
        let mut cells = vec![row.mask_desc.clone()];
        cells.extend(row.verdicts.iter().map(|&(_, label, _)| label.to_string()));
        cells.push(row.total_states().to_string());
        t.row(&cells);
    }
    for &model in models {
        t.note(format!(
            "minimal total fences for {model}: {:?}",
            minimal_fences(rows, model)
        ));
    }
    t
}

pub fn run(_fast: bool) {
    let cfg = CheckConfig {
        check_termination: false,
        max_states: 3_000_000,
        ..CheckConfig::default()
    };
    let models = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
    let threads = crate::parallelism();

    // --- Peterson: all 8 placements over its 3 sites. ---
    let rows = elision_table(
        LockKind::Peterson,
        2,
        &FenceMask::enumerate(3),
        &models,
        &cfg,
        threads,
    );
    let t = ablation_table(
        "e8_ablation_peterson",
        "E8a: Peterson fence ablation (all placements, 2 processes)",
        &rows,
        &models,
    );
    t.finish();

    // --- Bakery (2 processes): all 16 placements over its 4 sites. ---
    let rows = elision_table(
        LockKind::Bakery,
        2,
        &FenceMask::enumerate(4),
        &models,
        &cfg,
        threads,
    );
    let mut t = ablation_table(
        "e8_ablation_bakery",
        "E8b: Bakery fence ablation (all placements, 2 processes)",
        &rows,
        &models,
    );
    t.note(
        "(f0 = doorway open, f1 = doorway close, f2 = ticket, f3 = release; \
         the final pre-return fence is always present, so a buffered write is \
         never delayed past its process's return — elisions change *when* \
         writes order, not whether they eventually commit.)",
    );
    t.finish();
}
