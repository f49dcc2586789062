//! `train-paper` and `train-streamed`: one ADMM solve at the paper's scale
//! from a retained cohort, and one out-of-core solve that regenerates the
//! cohort on every pass.

use std::time::Instant;

use pfp_baselines::{DmcpPredictor, MethodId};
use pfp_core::dataset::Sample;
use pfp_core::stream::StreamingDmcpObjective;
use pfp_core::{initial_theta, train_streamed_warm, train_warm, Dataset, DmcpModel, TrainConfig};
use pfp_ehr::{generate_cohort, generate_patient_record, Cohort, CohortConfig};
use pfp_eval::metrics::evaluate;
use pfp_optim::admm::solve_group_lasso;
use pfp_optim::SmoothObjective;

use crate::host::peak_rss_mib;
use crate::probes::{layer_probes, Fixture};
use crate::report::Outcome;
use crate::timed::TimedObjective;
use crate::trace::Tracer;
use crate::{costed, record_cpu_bound, repeat_for, setup_median, Cost, Ctx};

/// Worker threads of every benchmark train (the host has two cores).
pub const TRAIN_THREADS: usize = 2;

/// Streamed-training shard size, in patients.
const SHARD_SIZE: usize = 512;

/// Held-out patients `train-streamed` scores its model on.
const HOLDOUT_PATIENTS: usize = 1_000;

/// Reference bands of `train-paper`: over seeds 1–6, 11–16 and 41–46 the
/// holdout AC_C fell in 0.964–0.972, AC_D in 0.920–0.930 and the final
/// objective in 0.682–0.700.  A run outside these bands fails.
const PAPER_AC_C: (f64, f64) = (0.94, 0.99);
const PAPER_AC_D: (f64, f64) = (0.90, 0.95);
const PAPER_OBJECTIVE: (f64, f64) = (0.66, 0.73);

/// What a traced solve did, read through the timing decorator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    pub passes: u64,
    pub outer_iters: u64,
    /// Time inside the objective, and wall time of the whole solve.
    pub objective_s: f64,
    pub solve_s: f64,
    pub final_objective: f64,
}

/// `core::train::train_warm` (cold) rebuilt from its public parts so the
/// objective can be wrapped in [`TimedObjective`] and each layer spanned.
/// Returns the model, the solve's counts and the training samples.
pub fn solve_traced(
    dataset: &Dataset,
    config: &TrainConfig,
    tracer: &Tracer,
) -> (DmcpModel, SolveStats, Vec<Sample>) {
    let kind = config
        .feature_map
        .unwrap_or_else(|| dataset.default_mcp_kind());
    let samples = {
        let _s = tracer.span("core.dataset.featurize");
        dataset.featurize(kind)
    };
    let (samples, weights) = {
        let _s = tracer.span("core.imbalance.apply");
        config
            .imbalance
            .apply(samples, dataset.num_cus, dataset.num_durations, config.seed)
    };
    let objective = {
        let _s = tracer.span("core.loss.objective_new");
        pfp_core::loss::DmcpObjective::new(
            &samples,
            weights.as_deref(),
            dataset.total_feature_dim(),
            dataset.num_cus,
            dataset.num_durations,
        )
        .with_threads(config.threads)
    };
    let (theta, selection, stats) = solve_with(TimedObjective::new(objective), config, tracer);
    let model = DmcpModel {
        theta,
        selection,
        kind,
        profile_dim: dataset.profile_dim,
        service_dim: dataset.service_dim,
        num_cus: dataset.num_cus,
        num_durations: dataset.num_durations,
    };
    (model, stats, samples)
}

/// `core::stream::train_streamed_warm` (cold) rebuilt the same way.
pub fn solve_streamed_traced(
    cohort: &CohortConfig,
    config: &TrainConfig,
    shard_size: usize,
    tracer: &Tracer,
) -> (DmcpModel, SolveStats) {
    let objective = {
        let _s = tracer.span("core.stream.objective_new");
        StreamingDmcpObjective::new(cohort, config.feature_map, shard_size)
            .with_threads(config.threads)
    };
    let kind = objective.kind();
    let (theta, selection, stats) = solve_with(TimedObjective::new(objective), config, tracer);
    let profile_dim = cohort.features.profile;
    let model = DmcpModel {
        theta,
        selection,
        kind,
        profile_dim,
        service_dim: cohort.features.time_varying_dim(),
        num_cus: pfp_ehr::NUM_CARE_UNITS,
        num_durations: pfp_ehr::NUM_DURATION_CLASSES,
    };
    (model, stats)
}

fn solve_with<O: SmoothObjective>(
    objective: TimedObjective<O>,
    config: &TrainConfig,
    tracer: &Tracer,
) -> (pfp_math::Matrix, pfp_math::Matrix, SolveStats) {
    let (rows, cols) = objective.shape();
    let theta0 = initial_theta(rows, cols, config);
    let t0 = Instant::now();
    let result = {
        let _s = tracer.span("pfp-optim.admm.solve");
        solve_group_lasso(&objective, theta0, &config.admm_config())
    };
    let stats = SolveStats {
        passes: objective.calls(),
        outer_iters: result.outer_iterations as u64,
        objective_s: objective.busy().as_secs_f64(),
        solve_s: t0.elapsed().as_secs_f64(),
        final_objective: *result.objective_trace.last().expect("non-empty trace"),
    };
    (result.theta, result.x, stats)
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        seed,
        threads: TRAIN_THREADS,
        ..TrainConfig::paper_default()
    }
}

fn within((lo, hi): (f64, f64), v: f64) -> bool {
    (lo..=hi).contains(&v)
}

/// Record the solver's own counts as layer metrics.
pub fn record_solve(out: &mut Outcome, stats: &SolveStats) {
    let l = &mut out.layers;
    l.set("pfp-optim.admm.passes", stats.passes as f64);
    l.set("pfp-optim.admm.outer_iters", stats.outer_iters as f64);
    l.set(
        "pfp-optim.admm.objective_share",
        stats.objective_s / stats.solve_s,
    );
    l.set(
        "pfp-optim.admm.overhead_s",
        stats.solve_s - stats.objective_s,
    );
}

pub fn paper(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let mut out = Outcome::default();
    let cohort_config = CohortConfig::scaled(1.0, ctx.seed);
    let config = train_config(ctx.seed);

    // Set-up runs once: generating the paper-scale cohort takes ~15 s.
    let ((train, test), setup) = costed(|| {
        let cohort = {
            let _s = tracer.span("pfp-ehr.generate_cohort");
            generate_cohort(&cohort_config)
        };
        let _s = tracer.span("core.dataset.from_cohort");
        Dataset::from_cohort(&cohort).split_holdout(0.2, ctx.seed)
    });

    let runs = repeat_for(ctx.seconds, || {
        let _s = tracer.span("core.train.train_warm");
        train_warm(&train, &config, None).expect("cold start cannot fail")
    });
    out.end_to_end.set("peak_rss_mib", peak_rss_mib());
    let (report, job) = job_summary(&runs);
    out.attempted = runs.len() as u64;
    out.check(
        "repeated trains are bitwise identical",
        runs.iter()
            .all(|(r, _)| r.model.theta == report.model.theta),
    );

    let accuracy = {
        let _s = tracer.span("pfp-eval.metrics.evaluate");
        evaluate(
            &DmcpPredictor::from_model(report.model.clone(), MethodId::Dmcp),
            &test,
        )
    };
    let (ac_c, ac_d) = (accuracy.overall_cu, accuracy.overall_duration);
    out.check(
        "holdout AC_C within reference band",
        within(PAPER_AC_C, ac_c),
    );
    out.check(
        "holdout AC_D within reference band",
        within(PAPER_AC_D, ac_d),
    );
    out.check(
        "final objective within reference band",
        within(PAPER_OBJECTIVE, report.final_objective),
    );
    let (served_us, served_ok) = crate::serve::served_p50_us(&report.model, &test, ctx.seed);
    out.check("served answers equal DmcpModel::probabilities", served_ok);
    let sample_passes = (train.len() * report.evaluations) as f64;
    record_cpu_bound(&mut out, &setup, &job, sample_passes, served_us, ac_c);
    out.detail("train_s", job.wall_s, "s");
    out.detail("holdout_ac_c", ac_c, "fraction");
    out.detail("holdout_ac_d", ac_d, "fraction");
    out.detail("passes", report.evaluations as f64, "count");
    out.detail("train_samples", train.len() as f64, "count");
    out.detail("final_objective", report.final_objective, "1");

    if tracer.enabled() {
        let t0 = Instant::now();
        let (model, stats, samples) = solve_traced(&train, &config, tracer);
        let traced_s = t0.elapsed().as_secs_f64();
        out.check(
            "traced solve matches train_warm bitwise",
            model.theta == report.model.theta
                && stats.final_objective.to_bits() == report.final_objective.to_bits(),
        );
        record_solve(&mut out, &stats);
        out.layers
            .set("trace.overhead_pct", 100.0 * (traced_s / job.wall_s - 1.0));
        let fixture = Fixture {
            cohort: &cohort_config,
            train_samples: &samples,
            test: &test,
            model: &model,
            threads: TRAIN_THREADS,
        };
        layer_probes(ctx, &fixture, &mut out);
    }
    out
}

pub fn streamed(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let mut out = Outcome::default();
    let cohort_config = CohortConfig::scaled(0.05, ctx.seed);
    let config = train_config(ctx.seed);

    // The streamed train needs no set-up of its own (its pre-passes are part
    // of the train call); set-up is the held-out patients its model is scored
    // on: the next ones the same cohort configuration would generate.
    let setup = || {
        let cohort = {
            let _s = tracer.span("pfp-ehr.generate_patient_record");
            let ids = cohort_config.num_patients..cohort_config.num_patients + HOLDOUT_PATIENTS;
            let (patients, archetypes) = ids
                .map(|id| generate_patient_record(&cohort_config, id))
                .unzip();
            Cohort {
                config: cohort_config.clone(),
                patients,
                archetypes,
            }
        };
        let _s = tracer.span("core.dataset.from_cohort");
        Dataset::from_cohort(&cohort)
    };
    let (holdout_set, first_setup) = costed(setup);

    let runs = repeat_for(ctx.seconds, || {
        let _s = tracer.span("core.stream.train_streamed_warm");
        train_streamed_warm(&cohort_config, &config, SHARD_SIZE, None)
            .expect("cold start cannot fail")
    });
    // Read before the materialized check train, which holds the whole cohort.
    out.end_to_end.set("peak_rss_mib", peak_rss_mib());
    let setup_cost = setup_median(first_setup, 24, setup);
    let (report, job) = job_summary(&runs);
    out.attempted = runs.len() as u64;
    out.check(
        "repeated trains are bitwise identical",
        runs.iter()
            .all(|(r, _)| r.model.theta == report.model.theta),
    );
    let (materialized, samples) = {
        let _s = tracer.span("check.materialized_train");
        let dataset = Dataset::from_cohort(&generate_cohort(&cohort_config));
        let trained = train_warm(&dataset, &config, None).expect("cold start cannot fail");
        (trained, dataset.len())
    };
    out.check(
        "streamed theta equals materialized train bitwise",
        materialized.model.theta == report.model.theta,
    );

    let accuracy = {
        let _s = tracer.span("pfp-eval.metrics.evaluate");
        evaluate(
            &DmcpPredictor::from_model(report.model.clone(), MethodId::Dmcp),
            &holdout_set,
        )
    };
    let (served_us, served_ok) = crate::serve::served_p50_us(&report.model, &holdout_set, ctx.seed);
    out.check("served answers equal DmcpModel::probabilities", served_ok);
    let sample_passes = (samples * report.evaluations) as f64;
    record_cpu_bound(
        &mut out,
        &setup_cost,
        &job,
        sample_passes,
        served_us,
        accuracy.overall_cu,
    );
    out.detail("train_s", job.wall_s, "s");
    out.detail("holdout_ac_c", accuracy.overall_cu, "fraction");
    out.detail("passes", report.evaluations as f64, "count");
    out.detail("train_samples", samples as f64, "count");

    if tracer.enabled() {
        let t0 = Instant::now();
        let (model, stats) = solve_streamed_traced(&cohort_config, &config, SHARD_SIZE, tracer);
        let traced_s = t0.elapsed().as_secs_f64();
        out.check(
            "traced solve matches train_streamed_warm bitwise",
            model.theta == report.model.theta,
        );
        record_solve(&mut out, &stats);
        out.layers
            .set("trace.overhead_pct", 100.0 * (traced_s / job.wall_s - 1.0));
        let samples = {
            let _s = tracer.span("core.dataset.featurize");
            holdout_set.featurize(model.kind)
        };
        let fixture = Fixture {
            cohort: &cohort_config,
            train_samples: &samples,
            test: &holdout_set,
            model: &model,
            threads: TRAIN_THREADS,
        };
        layer_probes(ctx, &fixture, &mut out);
        out.layers.set(
            "core.stream.vg_ms",
            1e3 * stats.objective_s / stats.passes as f64,
        );
    }
    out
}

/// The last run's report and the median cost over all runs.
fn job_summary<T: Clone>(runs: &[(T, Cost)]) -> (T, Cost) {
    let costs: Vec<Cost> = runs.iter().map(|(_, c)| *c).collect();
    (
        runs.last().expect("at least one run").0.clone(),
        Cost::median(&costs),
    )
}
