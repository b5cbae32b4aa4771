//! `vcbench` command line: runs one workload and prints its metrics, then
//! the result line (one JSON object) last on standard output.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match vcbench::Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("vcbench: {e}\n{}", vcbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match vcbench::run(&opts) {
        Ok(outcome) => {
            print!("{}", outcome.report());
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
