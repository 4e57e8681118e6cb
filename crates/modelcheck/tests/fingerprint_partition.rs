//! The state fingerprint partitions states exactly as `state_key` does.
//!
//! The engines dedup on `Machine::fingerprint`; the differential suites
//! compare engines that all use it, so they cannot see a fingerprint that
//! merges two states. This suite walks the whole reachable space of every
//! `n = 2` lock × memory model × crash configuration keyed by the *full*
//! state, and checks that
//!
//! * the number of distinct fingerprints equals the number of distinct
//!   state keys (no two states share a fingerprint, no state has two);
//! * the fingerprint kept incrementally along `step_recorded`/`undo`
//!   equals the one hashed from scratch on a clone of the same state;
//! * the engines count exactly that many states.
//!
//! It also pins the checkpoint format break that comes with the new
//! fingerprint values: a version-4 file must be refused, not resumed.

// A `StateKey<VmProc>` reaches `Program`'s cell of lazily derived access
// summaries; `VmProc` hashes a program by its digest and compares it by
// `Arc` identity, and the cell is part of neither.
#![allow(clippy::mutable_key_type)]

use std::collections::HashMap;

use fencevm::VmProc;
use modelcheck::{check, resume, CheckConfig, CheckError, CheckpointPolicy, Engine, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind};
use wbmem::{CrashSemantics, FpSet, Machine, MemoryModel, StateKey, StepOutcome};

/// Explore every schedule from `m`'s current state, keyed by full state.
/// Returns the number of distinct states.
fn explore(m: &mut Machine<VmProc>) -> usize {
    let mut by_key: HashMap<StateKey<VmProc>, u128> = HashMap::new();
    let mut fps = FpSet::default();
    by_key.insert(m.state_key(), m.fingerprint());
    fps.insert(m.fingerprint());
    dfs(m, &mut by_key, &mut fps);
    assert_eq!(
        by_key.len(),
        fps.len(),
        "distinct state keys vs distinct fingerprints"
    );
    by_key.len()
}

fn dfs(m: &mut Machine<VmProc>, by_key: &mut HashMap<StateKey<VmProc>, u128>, fps: &mut FpSet) {
    let parent_fp = m.fingerprint();
    for elem in m.choices() {
        // From scratch: a plain step drops the kept fingerprint.
        let mut scratch = m.clone();
        let stepped = !matches!(scratch.step(elem), StepOutcome::NoOp);
        let (out, token) = m.step_recorded(elem);
        assert_eq!(stepped, !matches!(out, StepOutcome::NoOp));
        assert_eq!(m.fingerprint(), scratch.fingerprint(), "after {elem:?}");
        if stepped {
            let fp = m.fingerprint();
            fps.insert(fp);
            match by_key.insert(m.state_key(), fp) {
                None => dfs(m, by_key, fps),
                Some(seen) => assert_eq!(seen, fp, "one state, two fingerprints"),
            }
        }
        m.undo(token);
        assert_eq!(m.fingerprint(), parent_fp, "undo of {elem:?}");
    }
}

/// Cells larger than this are skipped: the walk keeps every full state in
/// memory and runs unoptimized in tier-1.
const MAX_CELL_STATES: usize = 4_000;

#[test]
fn fingerprints_partition_the_n2_matrix_exactly() {
    let kinds = [
        LockKind::Bakery,
        LockKind::BakeryPaperListing,
        LockKind::Peterson,
        LockKind::Tournament,
        LockKind::Gt { f: 2 },
        LockKind::Ttas,
        LockKind::Mcs,
        LockKind::Filter,
        LockKind::RecoverableTtas,
        LockKind::RecoverableBakery,
    ];
    let models = [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso];
    let crashes = [
        None,
        Some(CrashSemantics::DiscardBuffer),
        Some(CrashSemantics::DrainBuffer),
    ];
    let (mut cells, mut crash_cells) = (0usize, 0usize);
    for kind in kinds {
        // Unfenced programs keep more writes buffered at once.
        for fences in [FenceMask::ALL, FenceMask::NONE] {
            let inst = build_mutex(kind, 2, fences);
            for model in models {
                for crash in crashes {
                    // No property checks: the engines must sweep the
                    // whole space, violations included.
                    let mut config = CheckConfig {
                        check_mutex: false,
                        check_permutation: false,
                        check_termination: false,
                        max_states: MAX_CELL_STATES,
                        ..CheckConfig::default()
                    };
                    let mut m = inst.machine(model);
                    if let Some(semantics) = crash {
                        m.set_crash_bound(semantics, 1);
                        config = config.with_crashes(semantics, 1);
                    }
                    let undo = check(&inst.machine(model), &config);
                    if matches!(undo, Verdict::StateLimit(_)) {
                        continue;
                    }
                    let oracle = check(
                        &inst.machine(model),
                        &config.clone().with_engine(Engine::CloneDfs),
                    );
                    let states = explore(&mut m);
                    let ctx = format!("{} {fences:?} {model} crash={crash:?}", inst.name);
                    for v in [&undo, &oracle] {
                        assert!(matches!(v, Verdict::Ok(_)), "{ctx}: {}", v.label());
                        assert_eq!(v.stats().states, states, "{ctx}");
                    }
                    cells += 1;
                    crash_cells += usize::from(crash.is_some());
                }
            }
        }
    }
    assert!(
        cells >= 97 && crash_cells >= 45,
        "matrix actually swept: {cells} cells, {crash_cells} with crashes"
    );
}

#[test]
fn independently_built_machines_fingerprint_equal() {
    // Two builds of one lock share no `Arc<Program>`: the fingerprint must
    // depend on program content, never on addresses.
    for model in [MemoryModel::Tso, MemoryModel::Pso] {
        let a = build_mutex(LockKind::Bakery, 2, FenceMask::ALL).machine(model);
        let b = build_mutex(LockKind::Bakery, 2, FenceMask::ALL).machine(model);
        assert_ne!(a.state_key(), b.state_key(), "distinct program instances");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other = build_mutex(LockKind::Bakery, 2, FenceMask::NONE).machine(model);
        assert_ne!(a.fingerprint(), other.fingerprint());
    }
}

#[test]
fn a_version_4_checkpoint_is_refused_not_resumed() {
    let inst = build_mutex(LockKind::Peterson, 2, FenceMask::ALL);
    let m = inst.machine(MemoryModel::Pso);
    let config = CheckConfig {
        check_termination: false,
        ..CheckConfig::default()
    }
    .with_engine(Engine::Undo);
    let path = std::env::temp_dir().join(format!("ft_fp_v4_{}.ftc", std::process::id()));
    let stopped = check(
        &m,
        &config
            .clone()
            .with_checkpoint(CheckpointPolicy::at(&path).stop_after(100)),
    );
    let cp = stopped
        .coverage()
        .and_then(|c| c.checkpoint)
        .expect("the cut fires and writes a checkpoint");

    // The file as written resumes to a verdict.
    assert!(matches!(resume(&m, &config, &cp), Verdict::Ok(_)));

    // Stamp it version 4 (the header is outside the payload checksum, so
    // the file is otherwise valid): the fingerprints inside would be from
    // the old hash, and seeding a run with them would silently skip or
    // duplicate states.
    let mut bytes = std::fs::read(&cp).expect("checkpoint readable");
    assert_eq!(bytes[6..10], por::snapshot::VERSION.to_le_bytes());
    bytes[6..10].copy_from_slice(&4u32.to_le_bytes());
    std::fs::write(&cp, &bytes).expect("rewrite");
    match resume(&m, &config, &cp) {
        Verdict::Error(_, CheckError::Checkpoint(msg)) => {
            assert!(
                msg.contains("version 4"),
                "diagnostic names the version: {msg}"
            );
        }
        other => panic!("expected a typed checkpoint error, got {}", other.label()),
    }
    let _ = std::fs::remove_file(&cp);
}
