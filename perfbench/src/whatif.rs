//! `whatif-census`: the closed-loop census forecaster running the baseline
//! and four what-if scenarios with a Hawkes admission stream.

use std::time::Instant;

use pfp_baselines::{DmcpPredictor, MethodId};
use pfp_core::{Dataset, ImbalanceStrategy, TrainConfig};
use pfp_ehr::{generate_cohort, CareUnit, CohortConfig};
use pfp_eval::census::CENSUS_DAYS;
use pfp_eval::scenario::{
    evaluate_scenarios, forecast_census, AdmissionModel, ForecastConfig, Perturbation, Scenario,
};

use crate::probes::{admissions_probe, layer_probes, record_predictor, Fixture};
use crate::report::Outcome;
use crate::timed::TimedPredictor;
use crate::{costed, record_cpu_bound, repeat_for, setup_median, Cost, Ctx};

const ROLLOUTS: usize = 64;

/// One scenario of each perturbation kind plus a compound one.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::named("surge-2x").with(Perturbation::AdmissionSurge { scale: 2.0 }),
        Scenario::named("micu-closed").with(Perturbation::UnitClosure {
            cu: CareUnit::Micu.index(),
        }),
        Scenario::named("nicu-slow-discharge").with(Perturbation::LosShift {
            cu: CareUnit::Nicu.index(),
            factor: 1.5,
        }),
        Scenario::named("winter-crunch")
            .with(Perturbation::AdmissionSurge { scale: 1.5 })
            .with(Perturbation::UnitClosure {
                cu: CareUnit::Ccu.index(),
            })
            .with(Perturbation::LosShift {
                cu: CareUnit::Gw.index(),
                factor: 1.25,
            }),
    ]
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let mut out = Outcome::default();
    let cohort_config = CohortConfig::scaled(0.1, ctx.seed);
    let train_config = TrainConfig {
        seed: ctx.seed,
        threads: crate::train::TRAIN_THREADS,
        ..TrainConfig::paper_default()
    };

    let setup = || {
        let cohort = {
            let _s = tracer.span("pfp-ehr.generate_cohort");
            generate_cohort(&cohort_config)
        };
        let (train, test) = {
            let _s = tracer.span("core.dataset.from_cohort");
            Dataset::from_cohort(&cohort).split_holdout(0.2, ctx.seed)
        };
        if tracer.enabled() {
            // SDMCP is DMCP trained on minority-oversampled samples.
            let sdmcp = train_config.with_imbalance(ImbalanceStrategy::synthetic());
            let (model, stats, samples) = crate::train::solve_traced(&train, &sdmcp, tracer);
            let predictor = DmcpPredictor::from_model(model, MethodId::Sdmcp);
            (predictor, test, samples, Some(stats))
        } else {
            let predictor = DmcpPredictor::train(&train, &train_config, MethodId::Sdmcp);
            (predictor, test, Vec::new(), None)
        }
    };
    let ((predictor, test, samples, solve), first_setup) = costed(setup);

    let config = ForecastConfig {
        rollouts: ROLLOUTS,
        seed: ctx.seed,
        admissions: Some(AdmissionModel::for_cohort(test.patients.len(), CENSUS_DAYS)),
        ..ForecastConfig::default()
    };
    let suite = scenarios();
    // Counting the predictor's queries gives the simulated stays: the unit
    // of work, which varies with the seed's patients and admissions.
    let mut stays = 0;
    let runs = repeat_for(ctx.seconds, || {
        let _s = tracer.span("pfp-eval.scenario.evaluate_scenarios");
        let counting = TimedPredictor::counting(&predictor);
        let report = evaluate_scenarios(&counting, &test, &suite, &config);
        stays = counting.calls();
        report
    });
    out.end_to_end
        .set("peak_rss_mib", crate::host::peak_rss_mib());
    let setup_cost = setup_median(first_setup, 2, setup);
    let job = Cost::median(&runs.iter().map(|(_, c)| *c).collect::<Vec<_>>());
    let report = &runs.last().expect("at least one run").0;
    out.attempted = runs.len() as u64;
    let again = {
        let _s = tracer.span("check.baseline_forecast");
        forecast_census(&predictor, &test, &Scenario::baseline(), &config)
    };
    out.check(
        "same seed gives an identical baseline forecast",
        again == report.baseline.forecast && runs.iter().all(|(r, _)| r == report),
    );
    let err_c = report.baseline.overall_error;
    out.check(
        "baseline Err_C is finite and positive",
        err_c.is_finite() && err_c > 0.0,
    );

    let forecasts = (1 + suite.len()) * ROLLOUTS;
    let quality = 1.0 / (1.0 + err_c);
    let (served_us, served_ok) = crate::serve::served_p50_us(predictor.model(), &test, ctx.seed);
    out.check("served answers equal DmcpModel::probabilities", served_ok);
    record_cpu_bound(
        &mut out,
        &setup_cost,
        &job,
        stays as f64,
        served_us,
        quality,
    );
    out.detail("forecast_s", job.wall_s, "s");
    out.detail("simulated_stays", stays as f64, "count");
    out.detail("forecast_err_c", err_c, "ratio");
    for s in &report.scenarios {
        out.detail(
            &format!("err_vs_baseline.{}", s.scenario.name),
            s.overall_error,
            "ratio",
        );
    }

    if tracer.enabled() {
        if let Some(stats) = &solve {
            crate::train::record_solve(&mut out, stats);
        }
        let timed = TimedPredictor::new(&predictor, 64);
        let t0 = Instant::now();
        let traced = {
            let _s = tracer.span("pfp-eval.scenario.evaluate_scenarios");
            evaluate_scenarios(&timed, &test, &suite, &config)
        };
        let wall = t0.elapsed().as_secs_f64();
        out.check("timed predictor changes no forecast", traced == *report);
        out.layers
            .set("trace.overhead_pct", 100.0 * (wall / job.wall_s - 1.0));
        record_predictor(&mut out.layers, &timed, wall, forecasts, predictor.model());
        admissions_probe(test.patients.len(), ctx.seed, &mut out.layers);
        let fixture = Fixture {
            cohort: &cohort_config,
            train_samples: &samples,
            test: &test,
            model: predictor.model(),
            threads: crate::train::TRAIN_THREADS,
        };
        layer_probes(ctx, &fixture, &mut out);
    }
    out
}
