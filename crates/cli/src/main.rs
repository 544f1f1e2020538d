//! `polyfit-cli` — build, inspect, and query PolyFit index files.
//!
//! ```text
//! polyfit-cli build --input data.csv --output idx.pf --aggregate sum --eps-abs 100 [--degree 2] [--threads 4]
//! polyfit-cli query --index idx.pf --lo 10 --hi 500
//! polyfit-cli query --index idx.pf --batch-file ranges.csv
//! polyfit-cli info  --index idx.pf
//! ```
//!
//! Input CSV: one record per line, `key,measure` (or bare `key` for COUNT
//! data, measure defaults to 1). Lines starting with `#` and a single
//! header line of non-numeric text are skipped. Batch files hold one
//! `lo,hi` range per line (`u_lo,u_hi,v_lo,v_hi` for a 2-D index);
//! answers come from one `query_batch` call — the 8-lane batch engine for
//! a 1-D index, one compiled rect at a time in 2-D — and print one per
//! line. `--threads 0` (the default) builds with every available core.

use std::process::ExitCode;

mod args;
mod commands;
mod csv;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
