//! A saved counterexample artifact is *replayable*: parsing the
//! `schedule:` lines back out of the text and feeding them to a fresh
//! machine reproduces the violation the checker reported, and the artifact
//! carries the metrics snapshot taken at failure time.

use ft_bench::{parse_counterexample_schedule, save_counterexample};
use modelcheck::{check, CheckConfig, Engine, Verdict};
use simlocks::{build_mutex, FenceMask, LockKind, ANNOT_IN_CS};
use wbmem::{MachineConfig, MemoryModel};

#[test]
fn saved_artifact_replays_to_the_same_verdict() {
    // The separation witness: Peterson with only the victim fence violates
    // mutual exclusion under PSO.
    let witness = FenceMask::only(&[simlocks::peterson::SITE_VICTIM]);
    let inst = build_mutex(LockKind::Peterson, 2, witness);
    let cfg = CheckConfig::default().with_engine(Engine::Dpor {
        reorder_bound: None,
    });
    let Verdict::MutexViolation(stats, cex) = check(&inst.machine(MemoryModel::Pso), &cfg) else {
        panic!("the witness placement must violate mutex under PSO");
    };

    let traced =
        inst.machine_from(MachineConfig::new(MemoryModel::Pso, inst.layout.clone()).with_trace());
    let path = save_counterexample(
        "test_replay_artifact",
        "test: replayable artifact round-trip",
        traced,
        &cex.schedule,
        &stats.metrics,
    );
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let _ = std::fs::remove_file(&path); // test scratch, not a results deliverable

    // The schedule round-trips through the text format.
    let parsed = parse_counterexample_schedule(&text);
    assert_eq!(parsed, cex.schedule, "schedule lines round-trip");

    // The artifact carries the failure-time metrics snapshot.
    let metrics_line = text
        .lines()
        .find_map(|l| l.strip_prefix("metrics: "))
        .expect("artifact has a metrics line");
    let fields = ftobs::parse_line(metrics_line).expect("metrics line is flat JSON");
    let states: u64 = fields["states"].parse().expect("states field");
    assert!(states > 0, "snapshot saw the search");
    assert_eq!(
        states,
        stats.metrics.states(),
        "artifact snapshot matches the verdict's metrics"
    );

    // The artifact annotates the write-buffer inversions that enabled the
    // violation — a PSO mutex break with only the victim fence needs at
    // least one reordered write.
    assert!(
        text.lines().any(|l| l.starts_with("reorder-edge: ")),
        "artifact carries reorder-edge annotations"
    );

    // Replaying the parsed schedule on a fresh machine reproduces the
    // verdict: both processes end up annotated in-CS simultaneously.
    let mut m = inst.machine(MemoryModel::Pso);
    let mut overlap = false;
    for e in parsed {
        m.step(e);
        let in_cs = (0..2u32)
            .filter(|&p| m.annotation(wbmem::ProcId(p)) == ANNOT_IN_CS)
            .count();
        overlap |= in_cs >= 2;
    }
    assert!(overlap, "replay reproduces the mutual-exclusion violation");
}
