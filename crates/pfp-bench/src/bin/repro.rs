//! Print one of the paper's tables or figures, or all of them.
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro -- <target> [--scale <f64>] [--seed <u64>] [--fast] [--threads <usize>]
//! ```
//!
//! See [`pfp_bench::cli`] for the targets and flags.

use pfp_bench::{repro, Args};

fn main() -> std::io::Result<()> {
    let (target, args) = Args::parse();
    repro::run(target, &args, &mut std::io::stdout().lock())
}
