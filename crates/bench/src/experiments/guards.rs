//! **`exp guards`** — every wall-clock gate CI holds, in one subcommand.
//!
//! Reads no tuning knobs: it runs every gate, prints one line per gate
//! with the measured ratio and its floor, and exits non-zero if any gate
//! failed — so one red gate does not hide the ones after it. Floors and
//! trial counts are the constants below; a floor is changed in this file,
//! with its reason, or not at all.
//!
//! | gate | workload | floor |
//! |---|---|---|
//! | checkpoint smoke | `filter3_pso`, `Dpor` | cut at half + resume == fresh verdict |
//! | checkpoint overhead | `filter3_pso`, diagnostic bound | (split − uninterrupted) per MiB of snapshot ≤ the budget below |
//! | pardpor dispatch | `filter3_pso` | `ParallelDpor{threads: 1}` ≤ ×1.05 of `Dpor` |
//! | pardpor scaling | `gt_f24_pso` | `ParallelDpor` ≥ ×1.5 over `Dpor` (skipped where the cores were not there) |
//! | obs enabled | `bakery3_pso`, `Undo` | live recorder ≤ ×1.05 of disabled |
//!
//! Noise defenses, all needed on a shared container: every figure is the
//! median over paired alternating rounds (see [`paired_ratio`]), and a
//! gate is re-measured up to its attempt count
//! and passes as soon as one attempt clears the floor — a genuine
//! regression fails every attempt, a multi-second ambient load spike does
//! not survive an independent re-measurement.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use crate::timing::{median, paired_ratio, paired_rounds, Spent};
use fence_trade::prelude::*;
use ftobs::Recorder;

/// The durability budget: what a stop-and-resume adds (snapshot encode,
/// write, fsync, read, decode, frontier replay) per MiB of snapshot, in the
/// diagnostic (disabled-reduction) bound, where the split run explores
/// exactly what the uninterrupted one does and the difference is the
/// checkpoint. (Reduced mode also re-explores what the discarded dominance
/// table would have pruned — measured, not gated, by E15.) An absolute
/// cost: the ×1.10 ratio it replaces went red in PR 18 because the
/// exploration under it got faster, with the checkpoint code untouched.
///
/// Derivation: three sets of ten paired rounds at the commit introducing
/// it, 2-core host, 0.591 MiB snapshot beside a 41–43 ms exploration:
/// medians 12.4, 14.7, 17.6 ms/MiB (single rounds −13 to +42). Budget =
/// 2 × the middle one, so a doubling of the checkpoint's cost fails.
const CKPT_MAX_MS_PER_MIB: f64 = 30.0;
const CKPT_ROUNDS: usize = 5;
const CKPT_ATTEMPTS: usize = 3;

/// E14's gates. Scaling is measured on `gt_f24_pso` (675 833 reduced
/// states, ~0.5 s sequentially): the pool loses below ~50 ms, where its
/// start-up is the measurement, and every smaller cell now finishes
/// sooner than that (`tournament4_pso`: 62 073 states, ~40 ms). One paired
/// round of this cell lasts as long as the five of `tournament4_pso` it
/// replaces did, and a second-long run needs no median to settle.
/// Dispatch pins what `ParallelDpor{threads: 1}` adds in front of the
/// sequential engine at effectively zero.
const PARDPOR_MIN_SPEEDUP: f64 = 1.5;
const PARDPOR_MAX_DISPATCH: f64 = 1.05;
const PARDPOR_THREADS: usize = 4;
const PARDPOR_ROUNDS: usize = 5;
const PARDPOR_SCALING_ROUNDS: usize = 1;
const PARDPOR_ATTEMPTS: usize = 2;

/// The observability budget of DESIGN §6: a live recorder costs ≤5 %.
/// Both sides count every step the same way; what the live one adds is
/// what a recorder alone keeps — a hot-pc hit per step, events, and the
/// heartbeat's clock read per poll. The workload is deliberately large (~66k
/// states): on sub-millisecond checks the fixed cost of rendering the
/// final `snapshot` event dominates and the ratio measures JSON
/// encoding. A timing is 3 explorations so a round lasts long enough for
/// the ratio to settle.
const OBS_MAX_OVERHEAD: f64 = 1.05;
const OBS_ROUNDS: usize = 8;
const OBS_ITERS: usize = 3;
const OBS_ATTEMPTS: usize = 2;

/// What `iters` full explorations cost, each of which must verify.
fn explore(inst: &OrderingInstance, cfg: &CheckConfig, iters: usize) -> Spent {
    Spent::of(|| {
        for _ in 0..iters {
            let v = check(&inst.machine(MemoryModel::Pso), cfg);
            assert!(v.is_ok(), "guard workloads verify: {}", v.label());
            std::hint::black_box(v.stats().states);
        }
    })
}

/// Interrupt at `cut` transitions, then resume the checkpoint; the write
/// and the read are inside the measured time — they are the overhead
/// under test. `None` if the interrupted run left no checkpoint.
fn split_run(
    inst: &OrderingInstance,
    cfg: &CheckConfig,
    cut: u64,
    path: &Path,
) -> Option<(Duration, Verdict)> {
    let start = std::time::Instant::now();
    let policy = CheckpointPolicy::at(path).stop_after(cut);
    let stopped = check(
        &inst.machine(MemoryModel::Pso),
        &cfg.clone().with_checkpoint(policy),
    );
    let cp = stopped.coverage()?.checkpoint.clone()?;
    let v = resume(&inst.machine(MemoryModel::Pso), cfg, &cp);
    Some((start.elapsed(), v))
}

/// Print a gate's line (`status` is `ok`, `FAIL` or `skip`).
fn line(status: &str, name: &str, detail: &str) {
    println!("{status:<4} {name:<22} {detail}");
}

/// Print a gate's line and pass its outcome through.
fn report(name: &str, ok: bool, detail: &str) -> bool {
    line(if ok { "ok" } else { "FAIL" }, name, detail);
    ok
}

/// How a ratio prints.
fn times(x: f64) -> String {
    format!("x{x:.3}")
}

/// Measure up to `attempts` times, stopping at the first attempt that
/// stays within `max`; the line lists every attempt's figure as `show`
/// prints it.
fn gate(
    name: &str,
    max: f64,
    show: fn(f64) -> String,
    attempts: usize,
    mut measure: impl FnMut() -> f64,
) -> bool {
    let mut seen = Vec::new();
    let mut ok = false;
    while !ok && seen.len() < attempts {
        let x = measure();
        ok = x <= max;
        seen.push(show(x));
    }
    let detail = format!("{} (floor <= {})", seen.join(", "), show(max));
    report(name, ok, &detail)
}

/// What one attempt of the scaling gate says, given the speed-up it
/// measured and what its parallel side spent. A speed-up cannot exceed the
/// cores the run was actually granted, so an attempt whose parallel side
/// used fewer CPU-seconds per wall-second than the floor could not have
/// met it whatever the code did: that is an absent core (`skip`) — every
/// attempt on a single-core host, some on a shared one — not a regression
/// (`FAIL`).
fn scaling_status(speedup: f64, parallel: Spent) -> &'static str {
    if speedup >= PARDPOR_MIN_SPEEDUP {
        "ok"
    } else if parallel.utilisation() < PARDPOR_MIN_SPEEDUP {
        "skip"
    } else {
        "FAIL"
    }
}

fn checkpoint_gates() -> bool {
    let inst = build_mutex(LockKind::Filter, 3, FenceMask::ALL);
    let cfg = CheckConfig {
        check_termination: false,
        max_states: 5_000_000,
        ..CheckConfig::default()
    };
    let path = std::env::temp_dir().join(format!("ft_guards_{}.ckpt", std::process::id()));
    let half = |cfg: &CheckConfig| {
        let fresh = check(&inst.machine(MemoryModel::Pso), cfg);
        assert!(fresh.is_ok(), "filter3_pso verifies: {}", fresh.label());
        (fresh.stats().transitions as u64 / 2).max(1)
    };

    // Kill-and-resume smoke: a `stop_after` cut takes the code path a
    // wall-clock expiry takes.
    let dpor = cfg.clone().with_engine(Engine::Dpor {
        reorder_bound: None,
    });
    let cut = half(&dpor);
    let smoke = match split_run(&inst, &dpor, cut, &path) {
        None => report(
            "checkpoint smoke",
            false,
            "interrupted run left no checkpoint",
        ),
        Some((_, v)) => report(
            "checkpoint smoke",
            v.is_ok(),
            &format!("cut at {cut} transitions + resume: `{}`", v.label()),
        ),
    };

    let exact = cfg.with_engine(Engine::Dpor {
        reorder_bound: Some(u32::MAX),
    });
    let cut = half(&exact);
    let overhead = if smoke {
        gate(
            "checkpoint overhead",
            CKPT_MAX_MS_PER_MIB,
            |ms| format!("{ms:.1} ms/MiB"),
            CKPT_ATTEMPTS,
            || {
                let split = || {
                    split_run(&inst, &exact, cut, &path)
                        .expect("the smoke gate saw a checkpoint")
                        .0
                };
                let pairs = paired_rounds(CKPT_ROUNDS, split, || explore(&inst, &exact, 1).wall);
                #[allow(clippy::cast_precision_loss)]
                let mib = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64 / (1 << 20) as f64;
                let extra_ms = |&(split, plain): &(Duration, Duration)| {
                    (split.as_secs_f64() - plain.as_secs_f64()) * 1e3
                };
                median(pairs.iter().map(extra_ms).collect()) / mib.max(1e-9)
            },
        )
    } else {
        report("checkpoint overhead", false, "not measured (smoke failed)")
    };
    let _ = std::fs::remove_file(&path);
    overhead
}

fn pardpor_gates() -> bool {
    let cfg = |engine| {
        CheckConfig {
            check_termination: false,
            max_states: 2_000_000,
            ..CheckConfig::default()
        }
        .with_engine(engine)
    };
    let dpor = cfg(Engine::Dpor {
        reorder_bound: None,
    });
    let pardpor = |threads| {
        cfg(Engine::ParallelDpor {
            threads,
            reorder_bound: None,
        })
    };

    let filter3 = build_mutex(LockKind::Filter, 3, FenceMask::ALL);
    let one = pardpor(1);
    let dispatch = gate(
        "pardpor dispatch",
        PARDPOR_MAX_DISPATCH,
        times,
        PARDPOR_ATTEMPTS,
        || {
            let den = || explore(&filter3, &dpor, 1).wall;
            paired_ratio(PARDPOR_ROUNDS, || explore(&filter3, &one, 1).wall, den)
        },
    );

    let gt_f24 = build_mutex(LockKind::Gt { f: 2 }, 4, FenceMask::ALL);
    let many = pardpor(PARDPOR_THREADS.min(crate::available_cores()));
    let mut attempts: Vec<(&str, String)> = Vec::new();
    while attempts.len() < PARDPOR_ATTEMPTS && attempts.iter().all(|a| a.0 != "ok") {
        let mut parallel = Spent::default();
        let den = || {
            let spent = explore(&gt_f24, &many, 1);
            parallel += spent;
            spent.wall
        };
        // dpor / pardpor: above 1 means the parallel engine is faster.
        let num = || explore(&gt_f24, &dpor, 1).wall;
        let speedup = paired_ratio(PARDPOR_SCALING_ROUNDS, num, den);
        let seen = format!(
            "{} at {:.2} cpu/wall",
            times(speedup),
            parallel.utilisation()
        );
        attempts.push((scaling_status(speedup, parallel), seen));
    }
    // One attempt that clears the floor passes; a miss with the cores
    // there fails; attempts that never had them decide nothing.
    let mut decided = ["ok", "FAIL", "skip"].into_iter();
    let status = decided.find(|s| attempts.iter().any(|a| a.0 == *s));
    let status = status.expect("at least one attempt");
    let seen: Vec<String> = attempts.into_iter().map(|a| a.1).collect();
    let floor = times(PARDPOR_MIN_SPEEDUP);
    let judged = format!("judged where cpu/wall >= {PARDPOR_MIN_SPEEDUP}");
    let detail = format!("{} (floor >= {floor}, {judged})", seen.join(", "));
    line(status, "pardpor scaling", &detail);
    let scaling = status != "FAIL";
    dispatch && scaling
}

fn obs_gate() -> bool {
    let inst = build_mutex(LockKind::Bakery, 3, FenceMask::ALL);
    let disabled = CheckConfig {
        check_termination: false,
        max_states: 500_000,
        ..CheckConfig::default()
    }
    .with_engine(Engine::Undo); // the default recorder is `Recorder::disabled()`

    // Quiet and heartbeat-free: measure the recording, not stderr I/O.
    let live = Recorder::builder()
        .meta("workload", "guards_bakery3_pso")
        .quiet(true)
        .heartbeat_ms(0)
        .build();
    let enabled = disabled.clone().with_recorder(live);
    gate("obs enabled", OBS_MAX_OVERHEAD, times, OBS_ATTEMPTS, || {
        let den = || explore(&inst, &disabled, OBS_ITERS).wall;
        let num = || explore(&inst, &enabled, OBS_ITERS).wall;
        paired_ratio(OBS_ROUNDS, num, den)
    })
}

/// Run every gate.
pub fn run() -> ExitCode {
    // Non-short-circuiting: every gate runs and reports.
    if checkpoint_gates() & pardpor_gates() & obs_gate() {
        println!("guards: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("guards: FAILED (see the FAIL lines above)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scaling_attempt_without_its_cores_is_a_skip_and_with_them_a_verdict() {
        let parallel = |cpu, wall_ms| Spent {
            wall: Duration::from_millis(wall_ms),
            cpu,
        };
        // 0.28 CPU-s in 0.2 s: 1.4 cores. A ×1.5 speed-up was not on offer.
        assert_eq!(scaling_status(1.2, parallel(0.28, 200)), "skip");
        assert_eq!(scaling_status(0.7, parallel(0.20, 200)), "skip");
        // 1.6 cores and still short of the floor: the engine's doing.
        assert_eq!(scaling_status(1.2, parallel(0.32, 200)), "FAIL");
        assert_eq!(scaling_status(1.49, parallel(0.40, 200)), "FAIL");
        assert_eq!(scaling_status(1.5, parallel(0.40, 200)), "ok");
        // A cleared floor stands even if a 10 ms CPU tick reads low.
        assert_eq!(scaling_status(1.55, parallel(0.29, 200)), "ok");
    }
}
