//! The experiments behind every table under `results/`, one module each,
//! and [`REGISTRY`] — the only list of them. The `exp` binary selects from
//! it by id and runs the selection in this process through
//! [`run_selected`]; `guards` and `obs_report` are its other
//! subcommands.

use std::fmt::Write as _;
use std::panic::catch_unwind;
use std::path::Path;
use std::time::Instant;

pub mod e10_steady_state;
pub mod e11_crash_recovery;
pub mod e12_reduction;
pub mod e14_engines;
pub mod e15_resume;
pub mod e16_synthesis;
pub mod e1_bakery;
pub mod e2_gt_family;
pub mod e3_tradeoff;
pub mod e4_encoding;
pub mod e5_separation;
pub mod e6_stack_invariants;
pub mod e7_fences;
pub mod e8_ablation;
pub mod e9_cas;
pub mod guards;
pub mod obs_report;

/// The reduced sequential engine, unbounded: what E12 counts and E14 times.
const DPOR: modelcheck::Engine = modelcheck::Engine::Dpor {
    reorder_bound: None,
};

/// One experiment: `(id, title, run)` — the id `exp` takes on its command
/// line, the title `exp --list` prints, and the entry point. `run(fast)`
/// writes its tables under `results/` and panics if one of its own checks
/// fails. Two experiments read `fast`, the two CI runs cut down: E14 then
/// times one round and writes nothing, E16 synthesizes only the n = 2
/// instances and compares them with the committed table.
pub type Experiment = (&'static str, &'static str, fn(bool));

/// Every experiment, in the order `exp all` runs them. E13 (the wall-clock
/// gates) is `exp guards`, not a table.
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    ("e1", "Bakery: O(1) fences, Θ(n) RMRs per passage", e1_bakery::run),
    ("e2", "the GT_f family sweeps the tradeoff spectrum", e2_gt_family::run),
    ("e3", "tightness of f·(log(r/f)+1) ∈ Θ(log n) across locks and n", e3_tradeoff::run),
    ("e4", "the lower-bound encoding, measured, and exhaustive codebooks", e4_encoding::run),
    ("e5", "separating memory models: Peterson under SC/TSO/PSO", e5_separation::run),
    ("e6", "Table 1 / Lemma 5.1 structural invariants of the encodings", e6_stack_invariants::run),
    ("e7", "lock fences per uncontended passage equal their closed forms", e7_fences::run),
    ("e8", "fence ablation across the lock family", e8_ablation::run),
    ("e9", "comparison primitives (CAS, swap) don't dodge the tradeoff", e9_cas::run),
    ("e10", "steady-state amortized passage costs", e10_steady_state::run),
    ("e11", "crash-fault injection and recoverable mutual exclusion", e11_crash_recovery::run),
    ("e12", "partial-order reduction factors", e12_reduction::run),
    ("e14", "engines × cells, time to a verdict", e14_engines::run),
    ("e15", "checkpoint/resume overhead", e15_resume::run),
    ("e16", "CEGAR fence synthesis", e16_synthesis::run),
];

/// What `exp --list` prints: one `id  title` line per registry entry.
#[must_use]
pub fn list() -> String {
    let lines = REGISTRY
        .iter()
        .map(|(id, title, _)| format!("{id:<4} {title}\n"));
    lines.collect()
}

/// The registry entries `ids` name, in registry order; no ids, or `all`,
/// selects every entry.
///
/// # Errors
/// An id the registry does not have.
pub fn select(ids: &[&str]) -> Result<Vec<Experiment>, String> {
    let known = |id: &str| id == "all" || REGISTRY.iter().any(|e| e.0 == id);
    if let Some(unknown) = ids.iter().find(|id| !known(id)) {
        return Err(format!(
            "no experiment `{unknown}`; `exp --list` names them"
        ));
    }
    let all = ids.is_empty() || ids.contains(&"all");
    let selected = REGISTRY.iter().filter(|e| all || ids.contains(&e.0));
    Ok(selected.copied().collect())
}

/// Run `selected` in order in this process. An experiment that panics —
/// an `assert!` of its own or [`crate::fail`] — is caught and marked
/// `FAILED`, and the loop goes on to the next. The manifest (id, seconds,
/// status per experiment) is printed, and written to `manifest` if given.
///
/// # Errors
/// The number of experiments that failed, if any did.
pub fn run_selected(
    selected: &[Experiment],
    fast: bool,
    manifest: Option<&Path>,
) -> Result<(), String> {
    let mut table = String::from("experiment   seconds  status\n");
    let mut failed = 0;
    for &(id, title, run) in selected {
        println!("==================== {id}: {title} ====================");
        let start = Instant::now();
        let ok = catch_unwind(|| run(fast)).is_ok();
        let secs = start.elapsed().as_secs_f64();
        if !ok {
            failed += 1;
            eprintln!("{id}: FAILED");
        }
        let status = if ok { "ok" } else { "FAILED" };
        let _ = writeln!(table, "{id:<10} {secs:>9.2}  {status}");
    }
    println!("\n{table}");
    if let Some(path) = manifest {
        if let Err(e) = std::fs::write(path, &table) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} experiment(s) failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_e1_to_e16_less_e13_with_titles() {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.0).collect();
        let expected: Vec<String> = (1..=16)
            .filter(|n| *n != 13) // the gates are `exp guards`
            .map(|n| format!("e{n}"))
            .collect();
        assert_eq!(ids, expected, "one entry per experiment, ids unique");
        let listing = list();
        assert_eq!(listing.lines().count(), REGISTRY.len());
        for (line, (id, title, _)) in listing.lines().zip(REGISTRY) {
            assert!(!title.is_empty());
            let cells = line.split_once(' ').map(|(id, rest)| (id, rest.trim()));
            assert_eq!(cells, Some((*id, *title)));
        }
    }

    #[test]
    fn the_engine_timings_have_one_entry() {
        // `e14` was rewritten in place: one id, one writer of the timings.
        let e14 = REGISTRY.iter().filter(|e| e.0 == "e14");
        assert_eq!(e14.count(), 1);
        assert_eq!(select(&["e14"]).expect("known id").len(), 1);
    }

    #[test]
    fn select_keeps_registry_order_and_rejects_unknown_ids() {
        let ids = |picked: Vec<Experiment>| picked.iter().map(|e| e.0).collect::<Vec<_>>();
        assert_eq!(ids(select(&["e9", "e3"]).expect("known ids")), ["e3", "e9"]);
        assert_eq!(select(&[]).expect("default").len(), REGISTRY.len());
        assert_eq!(select(&["all"]).expect("all").len(), REGISTRY.len());
        assert!(select(&["e13"]).is_err(), "E13 is `exp guards`");
    }

    #[test]
    fn a_failing_experiment_is_recorded_and_the_loop_goes_on() {
        let registry: [Experiment; 2] = [
            ("bad", "fails one of its own checks", |_| {
                crate::fail("bad", "a check failed")
            }),
            ("good", "passes", |fast| assert!(fast)),
        ];
        let path = std::env::temp_dir().join(format!("ft_manifest_{}.txt", std::process::id()));
        let outcome = run_selected(&registry, true, Some(&path));
        let manifest = std::fs::read_to_string(&path).expect("manifest written");
        let _ = std::fs::remove_file(&path);
        let status_of = |id: &str| {
            let row = manifest.lines().find(|l| l.starts_with(id));
            row.and_then(|l| l.split_whitespace().last().map(str::to_string))
        };
        assert_eq!(status_of("bad").as_deref(), Some("FAILED"));
        assert_eq!(status_of("good").as_deref(), Some("ok"));
        assert_eq!(
            outcome,
            Err("1 experiment(s) failed".to_string()),
            "which `exp` turns into a non-zero exit status"
        );
    }
}
