//! The one entry point of `ft-bench`: every experiment and the wall-clock
//! gates.
//!
//! ```text
//! exp [--fast] [e1 e3 … | all]   run experiments (default: all) in this process,
//!                                print the manifest; a full `all` run also
//!                                records it in results/manifest.txt.
//!                                --fast: e14 times one round and writes nothing,
//!                                e16 runs its n = 2 instances only; the rest
//!                                ignore it
//! exp --list                     ids and titles
//! exp guards                    every wall-clock gate CI holds
//! ```
//!
//! Run it as `cargo run --release -p ft-bench -- <arguments>` from inside
//! the checkout: the tables go to `results/` of the workspace the working
//! directory is in.

use std::process::ExitCode;

use ft_bench::experiments::{self, guards, REGISTRY};

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: exp [--fast] [ID… | all] | --list | guards\n\
         --fast cuts down e14 (one round, writes nothing) and e16 (n = 2 only)"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, words): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let known = ["--fast", "--list"];
    if let Some(unknown) = flags.iter().find(|f| !known.contains(f)) {
        return usage(&format!("unknown flag `{unknown}`"));
    }
    let flag = |name: &str| flags.contains(&name);
    if flag("--list") {
        print!("{}", experiments::list());
        return ExitCode::SUCCESS;
    }
    match words.split_first() {
        Some((&"guards", _)) => guards::run(),
        _ => {
            let selected = match experiments::select(&words) {
                Ok(selected) => selected,
                Err(e) => return usage(&e),
            };
            if let Err(e) = ft_bench::workspace_root() {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            let fast = flag("--fast");
            // Only a full sweep is the record `results/manifest.txt` keeps.
            let manifest = (!fast && selected.len() == REGISTRY.len())
                .then(|| ft_bench::results_dir().join("manifest.txt"));
            match experiments::run_selected(&selected, fast, manifest.as_deref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
