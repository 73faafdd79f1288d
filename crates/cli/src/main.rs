//! `ndet` — command-line interface to the n-detection analysis library.
//!
//! ```text
//! ndet list                         # suite circuits and signatures
//! ndet stats <circuit>              # structure + fault population
//! ndet worst <circuit>              # worst-case nmin analysis
//! ndet average <circuit> [opts]     # Procedure-1 detection probabilities
//! ndet gen <circuit> --n N          # greedy n-detection set (optionally compacted)
//! ndet synth <circuit>              # print synthesized .bench netlist
//! ndet bench-file <path> <command>  # analyze a user-provided .bench file
//! ndet cones <circuit|path>         # per-output-cone partitioned analysis
//! ```
//!
//! `<circuit>` is any suite name (see `ndet list`), `figure1`, or `c17`.
//! A missing or unknown command word prints the usage text after the
//! error; any other failure prints only `error: …`. Output cut short by
//! its reader (`ndet list | head`) ends the process with status 0.

use ndetect_cli::commands::{self, Failure};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {failure}");
            if let Failure::Usage(_) = failure {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
