//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host-shape tag, the deterministic check line and, last, one
//! JSON result line. Exits 1 when the correctness gate fails and 2 on a bad
//! command line.

use std::process::ExitCode;

use dredbox_perfbench::{parse_args, run, USAGE};

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = run(&args);
    for error in &run.errors {
        eprintln!("gate: {error}");
    }
    println!("{}", run.host);
    println!("{}", run.check);
    println!(
        "{}",
        run.results.json(run.correct(), run.attempted, run.failed)
    );
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
