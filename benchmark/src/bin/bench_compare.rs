//! `bench_compare a.jsonl b.jsonl`: see `ft_benchmark::compare`.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = &args[..] else {
        eprintln!("usage: bench_compare <a.jsonl> <b.jsonl>  (files written with --out)");
        return ExitCode::from(2);
    };
    let benchmark_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    match ft_benchmark::compare::compare(Path::new(a), Path::new(b), &benchmark_json) {
        Ok((report, breach)) => {
            print!("{report}");
            if breach {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}
