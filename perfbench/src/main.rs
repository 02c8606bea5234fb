//! Runs one repetition of one workload and prints its report as one
//! line of JSON. `run.py` starts one process per repetition, so each
//! report's peak resident set belongs to that repetition alone.
//!
//! ```text
//! perfbench-rep --workload fleet|explore|ring|netsim --seed N [--trace]
//! ```

use ftcolor_perfbench::{explore, fleet, netsim, ring, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let Some(workload) = value("--workload") else {
        eprintln!("usage: perfbench-rep --workload W --seed N [--trace]");
        return ExitCode::from(2);
    };
    let seed = match value("--seed").map(|s| s.parse::<u64>()) {
        Some(Ok(seed)) => seed,
        _ => {
            eprintln!("perfbench-rep: --seed needs a whole number");
            return ExitCode::from(2);
        }
    };
    let traced = args.iter().any(|a| a == "--trace");
    let rep = match workload.as_str() {
        "fleet" => fleet::run(seed, Scale::Full, traced),
        "explore" => explore::run(seed, Scale::Full, traced),
        "ring" => ring::run(seed, Scale::Full, traced),
        "netsim" => netsim::run(seed, Scale::Full, traced),
        other => {
            eprintln!("perfbench-rep: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}
