//! The paper's tables and figures, rendered as plain text: one function per
//! [`Target`], all behind [`run`].
//!
//! ```text
//! cargo run --release -p pfp-bench --bin repro -- comparison --scale 0.05
//! cargo run --release -p pfp-bench --bin repro -- all
//! ```
//!
//! Every target that needs the synthetic cohort or its [`Dataset`] reads it
//! from one `Inputs`, which builds each at most once per [`run`].  So
//! `all` prints exactly what every target prints on its own, in
//! [`Target::EACH`] order, for the cost of one cohort.

use std::cell::OnceCell;
use std::io::{self, Write};

use pfp_baselines::MethodId;
use pfp_core::Dataset;
use pfp_ehr::departments::{duration_label, CareUnit, NUM_CARE_UNITS, NUM_DURATION_CLASSES};
use pfp_ehr::{generate_cohort, Cohort};
use pfp_eval::experiments::{
    fig2_report, fig3_report, fig7_report, fig8_report, joint_overfit_report, method_comparison,
    table1_report, table2_report, ComparisonConfig, MethodResult,
};

use crate::table::{fmt2, fmt3, render_table};
use crate::Args;

/// One table or figure of the paper, or all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Table 1: per-department cohort statistics.
    Table1,
    /// Table 2: feature-domain proportions per department.
    Table2,
    /// Figure 2: departments per duration class.
    Fig2,
    /// Figure 3: the four point-process intensities on one sequence.
    Fig3,
    /// Tables 4–6 (and Figures 5–6): the 12-method comparison, trained once.
    Comparison,
    /// Figure 7: group-lasso feature selection per feature domain.
    Fig7,
    /// Figure 8: accuracy against the γ and ρ multipliers.
    Fig8,
    /// Section 4.1: the joint `(c, d)` classifier against the decoupled one.
    JointOverfit,
    /// Every target above, in [`Target::EACH`] order.
    All,
}

impl Target {
    /// Every single target, in the order `all` prints them.
    pub const EACH: [Target; 8] = [
        Target::Table1,
        Target::Table2,
        Target::Fig2,
        Target::Fig3,
        Target::Comparison,
        Target::Fig7,
        Target::Fig8,
        Target::JointOverfit,
    ];

    /// The command-line name of this target.
    pub fn name(self) -> &'static str {
        match self {
            Target::Table1 => "table1",
            Target::Table2 => "table2",
            Target::Fig2 => "fig2",
            Target::Fig3 => "fig3",
            Target::Comparison => "comparison",
            Target::Fig7 => "fig7",
            Target::Fig8 => "fig8",
            Target::JointOverfit => "joint-overfit",
            Target::All => "all",
        }
    }

    /// The target called `name` on the command line, if there is one.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::EACH
            .into_iter()
            .chain([Target::All])
            .find(|t| t.name() == name)
    }

    /// Every valid command-line name, comma-separated (for error messages).
    pub fn names() -> String {
        Self::EACH
            .into_iter()
            .chain([Target::All])
            .map(Target::name)
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Print `target` for `args` to `out`.
pub fn run(target: Target, args: &Args, out: &mut impl Write) -> io::Result<()> {
    let inputs = Inputs {
        args,
        cohort: OnceCell::new(),
        dataset: OnceCell::new(),
    };
    match target {
        Target::All => Target::EACH
            .into_iter()
            .try_for_each(|t| render(t, &inputs, out)),
        t => render(t, &inputs, out),
    }
}

/// The arguments of one [`run`], with the cohort and dataset built on first
/// use and shared by every target after that.
struct Inputs<'a> {
    args: &'a Args,
    cohort: OnceCell<Cohort>,
    dataset: OnceCell<Dataset>,
}

impl Inputs<'_> {
    fn cohort(&self) -> &Cohort {
        self.cohort
            .get_or_init(|| generate_cohort(&self.args.cohort_config()))
    }

    fn dataset(&self) -> &Dataset {
        self.dataset
            .get_or_init(|| Dataset::from_cohort(self.cohort()))
    }

    fn comparison_config(&self) -> ComparisonConfig {
        let mut config = ComparisonConfig::standard(self.args.seed);
        config.train = self.args.train_config();
        config
    }
}

fn render(target: Target, inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    match target {
        Target::Table1 => table1(inputs, out),
        Target::Table2 => table2(inputs, out),
        Target::Fig2 => fig2(inputs, out),
        Target::Fig3 => fig3(out),
        Target::Comparison => comparison(inputs, out),
        Target::Fig7 => fig7(inputs, out),
        Target::Fig8 => fig8(inputs, out),
        Target::JointOverfit => joint_overfit(inputs, out),
        Target::All => unreachable!("`run` expands `all`"),
    }
}

fn strings(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

fn table1(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    let report = table1_report(inputs.cohort());
    writeln!(
        out,
        "Table 1 — cohort statistics (synthetic cohort, {} patients, scale {})",
        report.num_patients, inputs.args.scale
    )?;
    writeln!(
        out,
        "Paper columns are the published MIMIC-II extract (30,685 patients).\n"
    )?;
    let header = strings(&[
        "dept",
        "#patients",
        "#trans",
        "mean days",
        "paper #patients",
        "paper #trans",
        "paper days",
    ]);
    let rows: Vec<Vec<String>> = report
        .measured
        .iter()
        .zip(report.paper.iter())
        .map(|(m, p)| {
            vec![
                CareUnit::from_index(m.cu).abbrev().to_string(),
                m.patients.to_string(),
                m.transitions.to_string(),
                fmt2(m.mean_duration_days),
                p.0.to_string(),
                p.1.to_string(),
                fmt2(p.2),
            ]
        })
        .collect();
    write!(out, "{}", render_table(&header, &rows))
}

fn table2(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    let report = table2_report(inputs.cohort());
    writeln!(
        out,
        "Table 2 — feature-domain proportions per department (measured | paper)\n"
    )?;
    let header = strings(&[
        "dept",
        "profile",
        "treatment",
        "nursing",
        "medication",
        "paper prof",
        "paper treat",
        "paper nurs",
        "paper med",
    ]);
    let rows: Vec<Vec<String>> = report
        .measured
        .iter()
        .zip(report.paper.iter())
        .map(|(m, p)| {
            let mut row = vec![CareUnit::from_index(m.cu).abbrev().to_string()];
            row.extend(m.proportions.iter().chain(p.iter()).map(|&v| fmt3(v)));
            row
        })
        .collect();
    write!(out, "{}", render_table(&header, &rows))
}

fn fig2(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    let report = fig2_report(inputs.cohort());
    writeln!(
        out,
        "Figure 2 — department distribution per duration class (paper reports correlation ≈ 0.20; measured = {:.2})\n",
        report.correlation
    )?;
    let mut header = vec!["dept".to_string()];
    header.extend((0..NUM_DURATION_CLASSES).map(duration_label));
    let rows: Vec<Vec<String>> = (0..NUM_CARE_UNITS)
        .map(|cu| {
            let mut row = vec![CareUnit::from_index(cu).abbrev().to_string()];
            row.extend(report.per_duration_class.iter().map(|d| fmt3(d[cu])));
            row
        })
        .collect();
    write!(out, "{}", render_table(&header, &rows))
}

/// Figure 3 is drawn on a fixed synthetic sequence, so it reads no argument.
fn fig3(out: &mut impl Write) -> io::Result<()> {
    let report = fig3_report(71);

    writeln!(
        out,
        "Figure 3 — conditional intensity of each point-process family"
    )?;
    writeln!(out, "event times: {:?}\n", report.event_times)?;

    let mut header = vec!["t (days)".to_string()];
    header.extend(report.series.iter().map(|(label, _)| label.clone()));
    let rows: Vec<Vec<String>> = report
        .times
        .iter()
        .enumerate()
        .step_by(5)
        .map(|(i, &t)| {
            let mut row = vec![format!("{t:.1}")];
            row.extend(report.series.iter().map(|(_, values)| fmt3(values[i])));
            row
        })
        .collect();
    write!(out, "{}", render_table(&header, &rows))?;

    // Coarse ASCII sparkline per model so the qualitative shapes are visible
    // in a terminal (Poisson: steps; Hawkes: decaying spikes; self-correcting:
    // ramps; mutually-correcting: rise and fall between events).
    writeln!(out)?;
    for (label, values) in &report.series {
        let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
        let bars: String = values
            .iter()
            .step_by(2)
            .map(|&v| {
                let level = (v / max * 7.0).round() as usize;
                char::from_u32(0x2581 + level.min(7) as u32).unwrap_or('█')
            })
            .collect();
        writeln!(out, "{label:>22}: {bars}")?;
    }
    Ok(())
}

/// Tables 4, 5 and 6 (the data behind Figures 5 and 6) from one run of
/// every method.
fn comparison(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    let dataset = inputs.dataset();
    writeln!(
        out,
        "Method comparison on a synthetic cohort of {} patients ({} transition samples), scale {}",
        inputs.cohort().patients.len(),
        dataset.len(),
        inputs.args.scale
    )?;
    let results = method_comparison(dataset, &MethodId::ALL, &inputs.comparison_config());
    let units: Vec<String> = (0..NUM_CARE_UNITS)
        .map(|cu| CareUnit::from_index(cu).abbrev().to_string())
        .collect();
    let durations: Vec<String> = (0..NUM_DURATION_CLASSES).map(duration_label).collect();

    writeln!(
        out,
        "\nTable 4 — destination-CU prediction accuracy (AC_c per department, AC_C overall)\n"
    )?;
    method_table(out, "dept", &units, "ALL (AC_C)", &results, |r| {
        (&r.accuracy.per_cu, r.accuracy.overall_cu)
    })?;
    writeln!(
        out,
        "\nTable 5 — duration-day prediction accuracy (AC_d per class, AC_D overall)\n"
    )?;
    method_table(out, "duration", &durations, "ALL (AC_D)", &results, |r| {
        (&r.accuracy.per_duration, r.accuracy.overall_duration)
    })?;
    writeln!(
        out,
        "\nTable 6 — relative census-simulation error (Err_c per department, Err_C overall)\n"
    )?;
    method_table(out, "dept", &units, "ALL (Err_C)", &results, |r| {
        (&r.census.per_cu_error, r.census.overall_error)
    })
}

/// One method per column: a row per label of `values(r).0`, then the
/// `overall` row of `values(r).1`.
fn method_table<'r>(
    out: &mut impl Write,
    corner: &str,
    labels: &[String],
    overall: &str,
    results: &'r [MethodResult],
    values: impl Fn(&'r MethodResult) -> (&'r [f64], f64),
) -> io::Result<()> {
    let mut header = vec![corner.to_string()];
    header.extend(results.iter().map(|r| r.method.label().to_string()));
    let mut rows: Vec<Vec<String>> = labels.iter().map(|l| vec![l.clone()]).collect();
    rows.push(vec![overall.to_string()]);
    for r in results {
        let (per_row, total) = values(r);
        assert_eq!(per_row.len(), labels.len(), "one value per labelled row");
        for (row, &v) in rows.iter_mut().zip(per_row.iter().chain([&total])) {
            row.push(fmt3(v));
        }
    }
    write!(out, "{}", render_table(&header, &rows))
}

fn fig7(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    let cohort = inputs.cohort();
    let report = fig7_report(
        inputs.dataset(),
        &inputs.args.train_config(),
        cohort.features(),
    );

    writeln!(
        out,
        "Figure 7 — feature selection by the group lasso (trained as SDMCP)"
    )?;
    writeln!(
        out,
        "overall fraction of suppressed feature dimensions: {:.3}\n",
        report.sparsity
    )?;
    let header = strings(&[
        "domain",
        "#features",
        "#selected",
        "mean |theta_m|",
        "max |theta_m|",
    ]);
    let rows: Vec<Vec<String>> = report
        .domains
        .iter()
        .map(|(label, count, selected, mean, max)| {
            vec![
                label.clone(),
                count.to_string(),
                selected.to_string(),
                fmt3(*mean),
                fmt3(*max),
            ]
        })
        .collect();
    write!(out, "{}", render_table(&header, &rows))
}

fn fig8(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    let multipliers = [0.01, 0.1, 1.0, 10.0, 100.0];
    let report = fig8_report(inputs.dataset(), &inputs.comparison_config(), &multipliers);
    let sweep_rows = |sweep: &[(f64, f64, f64)]| -> Vec<Vec<String>> {
        sweep
            .iter()
            .map(|&(m, a, d)| vec![format!("{m}"), fmt3(a), fmt3(d)])
            .collect()
    };

    writeln!(
        out,
        "Figure 8(a) — accuracy vs γ multiplier (log grid around the default γ)\n"
    )?;
    let header = strings(&["gamma ×", "AC_C", "AC_D"]);
    write!(
        out,
        "{}",
        render_table(&header, &sweep_rows(&report.gamma_sweep))
    )?;

    writeln!(out, "\nFigure 8(b) — accuracy vs ρ\n")?;
    let header = strings(&["rho", "AC_C", "AC_D"]);
    write!(
        out,
        "{}",
        render_table(&header, &sweep_rows(&report.rho_sweep))
    )
}

fn joint_overfit(inputs: &Inputs, out: &mut impl Write) -> io::Result<()> {
    let report = joint_overfit_report(inputs.dataset(), &inputs.comparison_config());

    writeln!(
        out,
        "Joint (C·D classes) vs decoupled (C + D classes) classifier"
    )?;
    writeln!(
        out,
        "(the paper reports the joint model's pair accuracy stays below 0.31)\n"
    )?;
    let header = strings(&["model", "pair accuracy", "#parameters"]);
    let rows = vec![
        vec![
            "joint".to_string(),
            fmt3(report.joint_pair_accuracy),
            report.joint_parameters.to_string(),
        ],
        vec![
            "decoupled".to_string(),
            fmt3(report.decoupled_pair_accuracy),
            report.decoupled_parameters.to_string(),
        ],
    ];
    write!(out, "{}", render_table(&header, &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `all` shares one cohort and one dataset between its targets, and that
    /// must change nothing it prints.
    #[test]
    fn all_prints_every_target_run_on_its_own() {
        let args = Args {
            scale: 0.005,
            fast: true,
            ..Args::default()
        };
        let mut each = Vec::new();
        for target in Target::EACH {
            run(target, &args, &mut each).unwrap();
        }
        let mut all = Vec::new();
        run(Target::All, &args, &mut all).unwrap();
        assert_eq!(
            String::from_utf8(all).unwrap(),
            String::from_utf8(each).unwrap()
        );
    }
}
