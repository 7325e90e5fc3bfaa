//! Runs the paper-reproduction experiments and prints their tables.
//!
//! ```text
//! cargo run --release -p mjoin-bench --bin experiments            # all
//! cargo run --release -p mjoin-bench --bin experiments -- E1 G1  # filter by id prefix
//! cargo run --release -p mjoin-bench --bin experiments -- --list
//! ```
//!
//! Stdout is exactly the report EXPERIMENTS.md quotes verbatim (the root
//! test `experiments_golden` pins it); per-experiment timings go to
//! stderr.

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = mjoin_bench::all_experiments();

    if args.iter().any(|a| a == "--list") {
        for (id, _) in &registry {
            println!("{id}");
        }
        return;
    }

    let selected: Vec<_> = registry
        .into_iter()
        .filter(|(id, _)| args.is_empty() || args.iter().any(|a| id.starts_with(a.as_str())))
        .collect();
    if selected.is_empty() {
        eprintln!("no experiment matches {args:?}; try --list");
        std::process::exit(1);
    }

    println!("{}", mjoin_bench::REPORT_TITLE);
    for (id, run) in selected {
        let start = Instant::now();
        let table = run();
        println!();
        print!("{table}");
        eprintln!("({id} took {:.2?})", start.elapsed());
    }
}
