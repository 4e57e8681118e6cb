//! Run every experiment binary (E1–E17; E13 is the `guards` bin, not a
//! table) in sequence — a convenience wrapper for regenerating all
//! results. Each experiment writes its table to `results/`; this runner
//! also records a manifest with timings.
//!
//! ```text
//! cargo run --release -p ft-bench --bin exp_all
//! ```

use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "exp_e1_bakery",
    "exp_e2_gt_family",
    "exp_e3_tradeoff",
    "exp_e4_encoding",
    "exp_e5_separation",
    "exp_e6_stack_invariants",
    "exp_e7_hw",
    "exp_e8_ablation",
    "exp_e9_cas",
    "exp_e10_steady_state",
    "exp_e11_crash_recovery",
    "exp_e12_reduction",
    "exp_e14_scaling",
    "exp_e15_resume",
    "exp_e16_synthesis",
    "exp_e17_estimator",
];

fn main() {
    let this = std::env::current_exe()
        .unwrap_or_else(|e| ft_bench::fail("exp_all: locating current executable", e));
    let Some(bin_dir) = this.parent().map(std::path::Path::to_path_buf) else {
        ft_bench::fail("exp_all", "executable path has no parent directory");
    };

    let mut manifest = String::from("experiment            seconds  status\n");
    let mut failed = 0;
    for exp in EXPERIMENTS {
        let path = bin_dir.join(exp);
        println!("==================== {exp} ====================");
        let start = Instant::now();
        let status = Command::new(&path).status();
        let secs = start.elapsed().as_secs_f64();
        let ok = matches!(&status, Ok(s) if s.success());
        if !ok {
            failed += 1;
            eprintln!("{exp}: FAILED ({status:?})");
        }
        manifest.push_str(&format!(
            "{exp:<20} {secs:>8.2}  {}\n",
            if ok { "ok" } else { "FAILED" }
        ));
    }

    let path = ft_bench::results_dir().join("manifest.txt");
    if let Err(e) = std::fs::write(&path, &manifest) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("\n{manifest}");
    if failed != 0 {
        ft_bench::fail("exp_all", format!("{failed} experiment(s) failed"));
    }
}
