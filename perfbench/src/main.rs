//! `perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Runs one workload and prints the result line (one JSON object) as the
//! last line of standard output. Progress and diagnostics go to standard
//! error.

use std::process::ExitCode;

use perfbench::{report, run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    println!("{}", report(&args, &outcome).to_json());
    ExitCode::SUCCESS
}
