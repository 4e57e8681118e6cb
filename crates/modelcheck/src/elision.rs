//! Fence-elision search: which fence sites does each memory model actually
//! need?
//!
//! For a lock family, enumerate fence masks, model-check each under each
//! memory model, and tabulate. This regenerates the paper's qualitative
//! separation story: under SC nothing is needed, under TSO a single
//! store–load fence suffices for Peterson, and under PSO the write-ordering
//! fences become load-bearing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::MemoryModel;

use crate::checker::{check, CheckConfig, Stats};

/// One row of the elision table: a fence placement and its verdict under
/// each model.
#[derive(Clone, Debug)]
pub struct ElisionRow {
    /// The fence placement.
    pub mask: FenceMask,
    /// Human-readable mask description.
    pub mask_desc: String,
    /// Number of fence sites enabled.
    pub enabled: u32,
    /// `(model, verdict label, exploration stats)` per model checked.
    pub verdicts: Vec<(MemoryModel, &'static str, Stats)>,
}

impl ElisionRow {
    /// Whether this placement was fully correct under `model`.
    #[must_use]
    pub fn ok_under(&self, model: MemoryModel) -> bool {
        self.verdicts
            .iter()
            .any(|&(m, label, _)| m == model && label == "ok")
    }

    /// Total states explored across all models checked for this row.
    #[must_use]
    pub fn total_states(&self) -> usize {
        self.verdicts.iter().map(|&(_, _, s)| s.states).sum()
    }
}

fn elision_row(
    kind: LockKind,
    n: usize,
    sites: u32,
    mask: FenceMask,
    models: &[MemoryModel],
    config: &CheckConfig,
) -> ElisionRow {
    let inst = build_mutex(kind, n, mask);
    let verdicts = models
        .iter()
        .map(|&model| {
            let v = check(&inst.machine(model), config);
            (model, v.label(), v.stats())
        })
        .collect();
    ElisionRow {
        mask,
        mask_desc: mask.describe(sites),
        enabled: mask.count_enabled(sites),
        verdicts,
    }
}

/// Model-check every mask in `masks` for `kind` with `n` processes under
/// each of `models`, on up to `threads` scoped worker threads (each mask is
/// an independent model-checking job; `1` = fully sequential).
///
/// Each check runs whatever engine `config` selects — in particular
/// [`Engine::Dpor`](crate::Engine::Dpor) reduces the whole sweep — and row
/// order matches `masks` regardless of thread count, so for a fixed config
/// the output is identical at any parallelism level.
#[must_use]
pub fn elision_table(
    kind: LockKind,
    n: usize,
    masks: &[FenceMask],
    models: &[MemoryModel],
    config: &CheckConfig,
    threads: usize,
) -> Vec<ElisionRow> {
    let sites = build_mutex(kind, n, FenceMask::ALL).fence_sites;
    let threads = threads.max(1).min(masks.len());
    if threads <= 1 {
        return masks
            .iter()
            .map(|&mask| elision_row(kind, n, sites, mask, models, config))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, ElisionRow)>> = Mutex::new(Vec::with_capacity(masks.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&mask) = masks.get(i) else { break };
                    local.push((i, elision_row(kind, n, sites, mask, models, config)));
                }
                collected.lock().expect("unpoisoned").extend(local);
            });
        }
    });
    let mut rows = collected.into_inner().expect("unpoisoned");
    rows.sort_unstable_by_key(|&(i, _)| i);
    rows.into_iter().map(|(_, r)| r).collect()
}

/// The minimum number of enabled fence sites over rows correct under
/// `model`, if any placement is.
#[must_use]
pub fn minimal_fences(rows: &[ElisionRow], model: MemoryModel) -> Option<u32> {
    rows.iter()
        .filter(|r| r.ok_under(model))
        .map(|r| r.enabled)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peterson_elision_separates_tso_from_pso() {
        let masks = FenceMask::enumerate(3);
        let models = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
        let rows = elision_table(
            LockKind::Peterson,
            2,
            &masks,
            &models,
            &CheckConfig {
                check_termination: false,
                ..CheckConfig::default()
            },
            1,
        );
        assert_eq!(rows.len(), 8);

        // SC never needs an acquire fence.
        assert_eq!(minimal_fences(&rows, MemoryModel::Sc), Some(0));

        // TSO and PSO minimums differ in *acquire* fences: find the minimal
        // count of acquire-side fences (sites 0 and 1) among correct rows.
        let min_acquire = |model: MemoryModel| {
            rows.iter()
                .filter(|r| r.ok_under(model))
                .map(|r| u32::from(r.mask.has(0)) + u32::from(r.mask.has(1)))
                .min()
        };
        assert_eq!(
            min_acquire(MemoryModel::Tso),
            Some(1),
            "TSO: one store-load fence"
        );
        assert_eq!(
            min_acquire(MemoryModel::Pso),
            Some(2),
            "PSO: both write fences"
        );

        // And the specific witness: {victim fence} alone is TSO-ok, PSO-bad.
        let witness = rows
            .iter()
            .find(|r| r.mask.has(1) && !r.mask.has(0))
            .expect("witness row exists");
        assert!(witness.ok_under(MemoryModel::Tso));
        assert!(!witness.ok_under(MemoryModel::Pso));
    }
}
