//! A tiny dependency-free argument parser for the `repro` binary:
//!
//! ```text
//! repro <target> [--scale <f64>] [--seed <u64>] [--fast] [--threads <usize>]
//! ```
//!
//! * `<target>`        — what to print, one of the [`Target`] names:
//!   `table1`, `table2`, `fig2`, `fig3`, `comparison`, `fig7`, `fig8`,
//!   `joint-overfit` or `all`.
//! * `--scale <f64>`   — cohort scale relative to the paper's 30,685 patients
//!   (default 0.05, i.e. ~1,500 patients; use 1.0 for the full scale).
//! * `--seed <u64>`    — RNG seed (default 42).
//! * `--fast`          — use the fast training configuration (fewer ADMM
//!   iterations); intended for smoke tests.
//! * `--threads <usize>` — worker threads for training and the pooled
//!   evaluation paths (default 1 = serial; `0` = all available parallelism).

use pfp_ehr::CohortConfig;

use crate::repro::Target;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Cohort scale in `(0, 1]`.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Whether to use the fast training configuration.
    pub fast: bool,
    /// Worker threads for training and pooled evaluation paths
    /// (`1` = serial, `0` = all available).
    pub threads: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 0.05,
            seed: 42,
            fast: false,
            threads: 1,
        }
    }
}

impl Args {
    /// Parse `<target> [flags]` from an iterator of argument strings
    /// (excluding the program name).
    ///
    /// A missing or unknown target and unknown flags are rejected with a
    /// panic, so typos don't silently run the default experiment.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> (Target, Self) {
        let mut iter = args.into_iter();
        let target = match iter.next() {
            Some(name) if !name.starts_with('-') => Target::from_name(&name).unwrap_or_else(|| {
                panic!(
                    "unknown target: {name} (expected one of {})",
                    Target::names()
                )
            }),
            _ => panic!("missing target (expected one of {})", Target::names()),
        };
        let mut out = Args::default();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = iter.next().expect("--scale requires a value");
                    out.scale = v.parse().expect("--scale must be a float");
                    assert!(
                        out.scale > 0.0 && out.scale <= 1.0,
                        "--scale must be in (0, 1]"
                    );
                }
                "--seed" => {
                    let v = iter.next().expect("--seed requires a value");
                    out.seed = v.parse().expect("--seed must be an integer");
                }
                "--fast" => out.fast = true,
                "--threads" => {
                    let v = iter.next().expect("--threads requires a value");
                    out.threads = v.parse().expect("--threads must be an integer");
                }
                other => panic!(
                    "unknown argument: {other} (expected --scale, --seed, --fast, --threads)"
                ),
            }
        }
        (target, out)
    }

    /// Parse from the process arguments.
    pub fn parse() -> (Target, Self) {
        Self::parse_from(std::env::args().skip(1))
    }

    /// The cohort configuration implied by these arguments.
    pub fn cohort_config(&self) -> CohortConfig {
        CohortConfig::scaled(self.scale, self.seed)
    }

    /// The training configuration implied by these arguments (seed and
    /// worker-thread count included, so `--threads` reaches every target
    /// that trains through this config).
    pub fn train_config(&self) -> pfp_core::TrainConfig {
        let mut cfg = if self.fast {
            pfp_core::TrainConfig::fast()
        } else {
            pfp_core::TrainConfig::paper_default()
        };
        cfg.seed = self.seed;
        cfg.threads = self.threads;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const NAMES: &str = "table1, table2, fig2, fig3, comparison, fig7, fig8, joint-overfit, all";

    #[test]
    fn defaults_apply_with_no_arguments() {
        let (t, a) = Args::parse_from(strings(&["table1"]));
        assert_eq!(t, Target::Table1);
        assert_eq!(a, Args::default());
        assert_eq!(Target::names(), NAMES);
    }

    #[test]
    fn flags_are_parsed() {
        let (t, a) = Args::parse_from(strings(&[
            "joint-overfit",
            "--scale",
            "0.2",
            "--seed",
            "7",
            "--fast",
            "--threads",
            "2",
        ]));
        assert_eq!(t, Target::JointOverfit);
        assert!((a.scale - 0.2).abs() < 1e-12);
        assert_eq!(a.seed, 7);
        assert!(a.fast);
        assert_eq!(a.threads, 2);
        assert_eq!(a.train_config().threads, 2, "--threads must reach training");
        assert!(
            a.train_config().max_outer_iters
                <= pfp_core::TrainConfig::paper_default().max_outer_iters
        );
        for name in NAMES.split(", ") {
            let (t, _) = Args::parse_from(strings(&[name]));
            assert_eq!(t.name(), name);
        }
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let (_, a) = Args::parse_from(strings(&["all", "--threads", "0"]));
        assert_eq!(a.train_config().threads, 0);
        assert!(pfp_math::parallel::resolve_threads(a.train_config().threads) >= 1);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flags_are_rejected() {
        let _ = Args::parse_from(strings(&["table1", "--bogus"]));
    }

    #[test]
    #[should_panic(
        expected = "missing target (expected one of table1, table2, fig2, fig3, comparison, fig7, fig8, joint-overfit, all)"
    )]
    fn missing_target_is_rejected() {
        let _ = Args::parse_from(strings(&["--fast"]));
    }

    #[test]
    #[should_panic(
        expected = "unknown target: table4 (expected one of table1, table2, fig2, fig3, comparison, fig7, fig8, joint-overfit, all)"
    )]
    fn unknown_target_is_rejected() {
        let _ = Args::parse_from(strings(&["table4"]));
    }

    #[test]
    #[should_panic(expected = "--scale must be in (0, 1]")]
    fn out_of_range_scale_is_rejected() {
        let _ = Args::parse_from(strings(&["table1", "--scale", "2.0"]));
    }

    #[test]
    fn cohort_config_scales_patient_count() {
        let (_, a) = Args::parse_from(strings(&["table1", "--scale", "0.01"]));
        let c = a.cohort_config();
        assert!(c.num_patients < 1000);
    }
}
