//! End-to-end run of one workload, untraced: `verdict_x`, `peak_rss_mib`,
//! `setup_s`, and the count of wrong verdicts (`verdict_ms`, the raw pass
//! time, is printed but not part of the result line).
//!
//! The process that is timed does nothing but run passes, so its `VmHWM`
//! is the workload's own peak. Everything else happens in children of this
//! binary (`--child …`), each waited for before the next starts:
//!
//! * `oracle` — once: the canary and the `CloneDfs` reference results,
//!   printed as text and read back here. (In-process it would set the peak
//!   RSS: `CloneDfs` keeps whole state keys.)
//! * `setup` — [`SETUP_RUNS`] times: a cold process that builds every
//!   cell's inputs and runs one pass to its verdicts. `setup_s` is the
//!   median wall-clock from spawn to exit — what a user waits from launch
//!   to the first answers, so work moved into lazy initialisation or
//!   program construction shows here.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ft_benchmark::cells::{expected, run_pass, workload, Checks, Ctx, Workload};
use ft_benchmark::harness::{
    emit_result, median, out_dir, peak_rss_mib, quantile, require_two_cores, Args, Metric,
    ReferenceKernel, Tracer,
};
use ft_benchmark::metrics::END_TO_END;
use ft_benchmark::oracle;

/// Cold starts timed for `setup_s`.
const SETUP_RUNS: usize = 5;
/// Untimed passes before the measured phase.
const WARMUP_PASSES: usize = 2;

fn child(args: &Args, mode: &str) -> Result<(String, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let out = Command::new(exe)
        .args(["--child", mode, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {mode} child: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("the {mode} child exited with {}", out.status));
    }
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), secs))
}

fn run_child(mode: &str, w: &Workload, ctx: &mut Ctx) -> Result<(), String> {
    match mode {
        "oracle" => {
            print!(
                "{}",
                oracle::to_lines(&oracle::run_oracle(w, &expected(), ctx))
            );
            Ok(())
        }
        "setup" => {
            let (_, panicked) = run_pass(w, ctx, &mut Tracer::off(), None, false, |_, _, _| ());
            if panicked == 0 {
                Ok(())
            } else {
                Err(format!("{panicked} cells panicked"))
            }
        }
        other => Err(format!("unknown --child mode `{other}`")),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w =
        workload(&args.workload).ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating benchmark/out: {e}"))?;
    let mut ctx = Ctx::new(args.seed, out_dir());
    if let Some(mode) = &args.child {
        return run_child(mode, &w, &mut ctx);
    }
    let cores = require_two_cores()?;

    let want = expected();
    let (oracle_text, oracle_s) = child(args, "oracle")?;
    let oracle = oracle::from_lines(&oracle_text);
    let canary = oracle::canary_mismatch(&oracle, &want);
    if let Some(problem) = &canary {
        eprintln!("WRONG {problem}");
    }
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    for _ in 0..SETUP_RUNS {
        setups.push(child(args, "setup")?.1);
    }

    let checks = Some(Checks {
        want: &want,
        oracle: &oracle,
    });
    let mut tr = Tracer::off();
    let (mut attempted, mut failed) = (1, u64::from(canary.is_some()));
    let mut pass = |ctx: &mut Ctx| {
        let start = Instant::now();
        let (checked, wrong) = run_pass(&w, ctx, &mut tr, checks, false, |_, _, _| ());
        attempted += checked;
        failed += wrong;
        start.elapsed().as_secs_f64() * 1e3
    };
    let mut kernel = ReferenceKernel::default();
    for _ in 0..WARMUP_PASSES {
        pass(&mut ctx);
        kernel.run_ms();
    }
    // The kernel runs between passes; a pass is held against the mean of
    // the two kernel runs around it.
    let mut kernel_ms = vec![kernel.run_ms()];
    let mut pass_ms = Vec::new();
    let measured = Instant::now();
    while match args.passes {
        Some(n) => pass_ms.len() < n,
        None => measured.elapsed().as_secs_f64() < args.seconds,
    } {
        pass_ms.push(pass(&mut ctx));
        kernel_ms.push(kernel.run_ms());
    }
    let pass_x: Vec<f64> = pass_ms
        .iter()
        .zip(kernel_ms.windows(2))
        .map(|(ms, around)| ms / ((around[0] + around[1]) / 2.0))
        .collect();

    let [verdict_x, verdict_ms, rss, setup_s] = [
        median(&pass_x),
        median(&pass_ms),
        peak_rss_mib()?,
        median(&setups),
    ];
    println!(
        "workload {}  seed {}  nproc {cores}  engine threads <= 2  closed loop, 1 client",
        w.name, args.seed
    );
    println!(
        "verdict_x       {verdict_x:10.3} x    median of pass time / reference-kernel time \
         (p80 {:.3}, best {:.3}; kernel median {:.3} ms)",
        quantile(&pass_x, 0.8),
        quantile(&pass_x, 0.0),
        median(&kernel_ms),
    );
    println!(
        "verdict_ms      {verdict_ms:10.3} ms   (raw, not gated) median of {} passes x {} cells \
         (p80 {:.3}, best {:.3}; {WARMUP_PASSES} warm-up passes discarded)",
        pass_ms.len(),
        w.cells.iter().filter(|c| !c.twin).count(),
        quantile(&pass_ms, 0.8),
        quantile(&pass_ms, 0.0),
    );
    println!("peak_rss_mib    {rss:10.3} MiB  VmHWM of the timed process");
    println!(
        "setup_s         {setup_s:10.3} s    median of {SETUP_RUNS} cold starts to first verdicts \
         (min {:.3}, max {:.3}); oracle took {oracle_s:.3} s, untimed",
        quantile(&setups, 0.0),
        quantile(&setups, 1.0),
    );
    let all: Vec<String> = pass_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    println!("pass_ms         {}", all.join(" "));
    println!("wrong_verdicts  {failed:10} count of {attempted} cells_checked (canary included)");
    let values = [verdict_x, rss, setup_s];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    emit_result(args, attempted, failed, &metrics)
}

fn main() -> ExitCode {
    match Args::parse(std::env::args()).and_then(|args| run(&args)) {
        // Wrong verdicts are reported in the result line (`correct: false`),
        // not through the exit code: the run itself completed.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
