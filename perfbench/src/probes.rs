//! Layer probes for the traced run.
//!
//! Every traced run reports every per-layer metric.  The workload's own job
//! supplies the metrics of the layers it drives; each layer it does not
//! reach is measured here, with timed calls into that layer's public
//! functions on inputs taken from the workload itself: its cohort, its
//! featurized samples, its held-out patients and its trained model.  So a
//! layer metric is comparable across commits on each workload, and a change
//! to one layer should move it on the workloads that drive that layer only.

use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use pfp_baselines::{DmcpPredictor, MethodId};
use pfp_core::dataset::Sample;
use pfp_core::loss::DmcpObjective;
use pfp_core::stream::StreamingDmcpObjective;
use pfp_core::{Dataset, DmcpModel};
use pfp_ehr::CohortConfig;
use pfp_eval::census::CENSUS_DAYS;
use pfp_eval::scenario::{forecast_census, AdmissionModel, ForecastConfig, Scenario};
use pfp_math::parallel::{tree_reduce_matrices, WorkerPool};
use pfp_math::rng::seeded_rng;
use pfp_math::softmax::softmax_in_place;
use pfp_math::{CsrMatrix, Matrix};
use pfp_optim::prox::prox_group_lasso_in_place;
use pfp_optim::SmoothObjective;

use crate::report::{Metrics, Outcome};
use crate::stats::median;
use crate::timed::TimedPredictor;
use crate::Ctx;

/// Inputs the probes take from the workload.
pub struct Fixture<'a> {
    /// The configuration of the cohort the workload generated.
    pub cohort: &'a CohortConfig,
    /// The samples the workload's model was trained on (or, where it trains
    /// out of core, its held-out samples), featurized for that model.
    pub train_samples: &'a [Sample],
    /// Held-out patients.
    pub test: &'a Dataset,
    pub model: &'a DmcpModel,
    pub threads: usize,
}

/// Median wall time of `f`, in seconds, over `reps` calls after one warm-up.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Fill in every per-layer metric the workload's own job did not measure.
pub fn layer_probes(ctx: &Ctx, fx: &Fixture, out: &mut Outcome) {
    let tracer = &ctx.tracer;
    let _s = tracer.span("probes");
    let l = &mut out.layers;

    if tracer
        .spans()
        .iter()
        .all(|s| s.name != "pfp-ehr.generate_cohort")
    {
        // train-streamed never materializes its cohort; time one here.
        let _s = tracer.span("pfp-ehr.generate_cohort");
        std::hint::black_box(pfp_ehr::generate_cohort(fx.cohort));
    }
    let generations = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "pfp-ehr.generate_cohort")
        .count();
    let generate_s = tracer.total_s("pfp-ehr.generate_cohort") / generations.max(1) as f64;
    l.set("pfp-ehr.cohort.generate_s", generate_s);
    l.set(
        "pfp-ehr.cohort.patients_per_s",
        fx.cohort.num_patients as f64 / generate_s,
    );
    let featurizations = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.dataset.featurize")
        .count();
    l.set(
        "core.dataset.featurize_s",
        tracer.total_s("core.dataset.featurize") / featurizations.max(1) as f64,
    );
    let nnz: usize = fx.train_samples.iter().map(|s| s.features.nnz()).sum();
    l.set("core.dataset.samples", fx.train_samples.len() as f64);
    l.set("core.dataset.nnz", nnz as f64);

    {
        let _s = tracer.span("probe.csr");
        csr_probes(fx, l);
    }
    {
        let _s = tracer.span("probe.loss");
        loss_probes(fx, l);
    }
    {
        let _s = tracer.span("probe.parallel");
        let pool = WorkerPool::new(2);
        let run_s = time_median(200, || {
            pool.run(vec![|| (), || ()]);
        });
        l.set("pfp-math.parallel.run_us", run_s * 1e6);
        let theta = &fx.model.theta;
        let reduce_s = median(
            &(0..20)
                .map(|_| {
                    let parts = vec![theta.clone(), theta.clone()];
                    let t0 = Instant::now();
                    std::hint::black_box(tree_reduce_matrices(parts));
                    t0.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        l.set("pfp-math.parallel.tree_reduce_us", reduce_s * 1e6);
    }
    {
        let _s = tracer.span("probe.prox");
        let prox_s = median(
            &(0..20)
                .map(|_| {
                    let mut v = fx.model.theta.clone();
                    let t0 = Instant::now();
                    prox_group_lasso_in_place(&mut v, 1e-3);
                    std::hint::black_box(&v);
                    t0.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        l.set("pfp-optim.prox.group_lasso_us", prox_s * 1e6);
    }
    if l.get("core.stream.vg_ms").is_none() {
        let _s = tracer.span("probe.stream");
        // A 1,024-patient window of the workload's own cohort: one streamed
        // pass over a paper-scale cohort would take as long as generating it.
        let window = CohortConfig {
            num_patients: fx.cohort.num_patients.min(1_024),
            ..fx.cohort.clone()
        };
        let objective =
            StreamingDmcpObjective::new(&window, Some(fx.model.kind), 512).with_threads(fx.threads);
        let (rows, cols) = objective.shape();
        let theta = Matrix::zeros(rows, cols);
        let mut grad = Matrix::zeros(rows, cols);
        let vg_s = time_median(3, || {
            std::hint::black_box(objective.value_and_gradient(&theta, &mut grad));
        });
        l.set("core.stream.vg_ms", vg_s * 1e3);
    }
    if l.get("pfp-serve.service.submit_us").is_none() {
        let _s = tracer.span("probe.serve");
        let requests = fx
            .train_samples
            .iter()
            .map(|s| s.features.clone())
            .collect();
        let served = crate::serve::start(fx.model.clone(), requests);
        let steps = crate::serve::fixed_rate_steps(
            &served,
            0.1,
            ctx.seed,
            &crate::trace::Tracer::new(false),
        );
        crate::serve::record_steps(l, &steps);
        if l.get("core.model.score_block_us").is_none() {
            score_block_probe(fx, steps[2].1.batch_rows_mean(), l);
        }
    }
    if l.get("core.model.score_block_us").is_none() {
        score_block_probe(fx, 32.0, l);
    }
    {
        let _s = tracer.span("probe.batcher");
        let max_batch = crate::serve::serve_config().max_batch;
        let collect_s = median(
            &(0..200)
                .map(|i| {
                    let (tx, rx) = sync_channel(max_batch);
                    for k in 0..max_batch {
                        tx.send(i + k).expect("receiver alive");
                    }
                    let t0 = Instant::now();
                    let batch = pfp_serve::batcher::collect_batch(
                        &rx,
                        max_batch,
                        Duration::from_micros(200),
                    );
                    let dt = t0.elapsed().as_secs_f64();
                    assert_eq!(batch.map(|b| b.len()), Some(max_batch));
                    dt
                })
                .collect::<Vec<_>>(),
        );
        l.set("pfp-serve.batcher.collect_us", collect_s * 1e6);
    }
    if l.get("pfp-eval.scenario.predict_calls").is_none() {
        let _s = tracer.span("probe.scenario");
        // Up to 400 held-out patients, two rollouts, with admissions.
        let keep: std::collections::HashSet<usize> =
            fx.test.patients.iter().take(400).map(|p| p.id).collect();
        let test = fx.test.filter_by_patient(|id| keep.contains(&id));
        let predictor = DmcpPredictor::from_model(fx.model.clone(), MethodId::Dmcp);
        let config = ForecastConfig {
            rollouts: 2,
            seed: ctx.seed,
            admissions: Some(AdmissionModel::for_cohort(test.patients.len(), CENSUS_DAYS)),
            ..ForecastConfig::default()
        };
        let timed = TimedPredictor::new(&predictor, 16);
        let t0 = Instant::now();
        std::hint::black_box(forecast_census(
            &timed,
            &test,
            &Scenario::baseline(),
            &config,
        ));
        let wall = t0.elapsed().as_secs_f64();
        record_predictor(l, &timed, wall, config.rollouts, fx.model);
    }
    if l.get("pfp-eval.scenario.admissions_ms").is_none() {
        admissions_probe(fx.test.patients.len(), ctx.seed, l);
    }
}

/// CSR kernels over the workload's samples at Θ's shape.  Bytes and flops
/// per fused pass are computed from nnz and width, not measured.
fn csr_probes(fx: &Fixture, l: &mut Metrics) {
    let theta = &fx.model.theta;
    let (dim, width) = theta.shape();
    let rows = || fx.train_samples.iter().map(|s| &s.features);
    let pack_s = time_median(3, || {
        std::hint::black_box(CsrMatrix::from_rows(dim, rows()));
    });
    let csr = CsrMatrix::from_rows(dim, rows());
    let (n, nnz) = (csr.rows(), csr.nnz().max(1));
    let mut scores = vec![0.0; n * width];
    let scores_s = time_median(5, || {
        scores.fill(0.0);
        csr.accumulate_scores_range(theta, 0..n, &mut scores);
        std::hint::black_box(&scores);
    });
    let mut grad = Matrix::zeros(dim, width);
    let scatter_s = time_median(5, || {
        csr.scatter_gradient_range(&scores, 0..n, &mut grad);
        std::hint::black_box(&grad);
    });
    let softmax_s = time_median(5, || {
        for row in scores.chunks_exact_mut(width) {
            let (cu, dur) = row.split_at_mut(fx.model.num_cus);
            softmax_in_place(cu);
            softmax_in_place(dur);
        }
        std::hint::black_box(&scores);
    });
    l.set("pfp-math.csr.pack_ms", pack_s * 1e3);
    l.set(
        "pfp-math.csr.scores_ns_per_nnz",
        scores_s * 1e9 / nnz as f64,
    );
    l.set(
        "pfp-math.csr.scatter_ns_per_nnz",
        scatter_s * 1e9 / nnz as f64,
    );
    l.set(
        "pfp-math.softmax.ns_per_row",
        softmax_s * 1e9 / n.max(1) as f64,
    );
    // One fused pass streams the CSR (4-byte index + 8-byte value per nnz,
    // 8-byte row pointer per row) twice, reads Θ and writes the gradient
    // once, and writes then reads an n × width score block.
    let bytes = 2 * (12 * nnz + 8 * (n + 1)) + 2 * 8 * dim * width + 2 * 8 * n * width;
    l.set("pfp-math.csr.bytes_per_pass", bytes as f64);
    // A multiply and an add per nnz and output column, in each of the two
    // kernels.
    l.set("pfp-math.csr.flops_per_pass", (4 * nnz * width) as f64);
}

/// `DmcpObjective::value_and_gradient` on the workload's samples, serial and
/// on a two-worker pool.
fn loss_probes(fx: &Fixture, l: &mut Metrics) {
    let model = fx.model;
    let theta = &model.theta;
    let vg = |threads: usize| {
        let objective = DmcpObjective::new(
            fx.train_samples,
            None,
            model.num_features(),
            model.num_cus,
            model.num_durations,
        )
        .with_threads(threads);
        let mut grad = Matrix::zeros(theta.rows(), theta.cols());
        time_median(5, || {
            std::hint::black_box(objective.value_and_gradient(theta, &mut grad));
        })
    };
    let serial = vg(1);
    let pooled = vg(2);
    l.set("core.loss.vg_ms_serial", serial * 1e3);
    l.set("core.loss.vg_ms_pooled", pooled * 1e3);
    l.set("core.loss.pool_speedup", serial / pooled);
}

/// `DmcpModel::probabilities_block` on a block of `rows` of the workload's
/// samples (the serve path's mean batch size).
pub fn score_block_probe(fx: &Fixture, rows: f64, l: &mut Metrics) {
    let k = (rows.round() as usize).clamp(1, fx.train_samples.len());
    let block = CsrMatrix::from_rows(
        fx.model.num_features(),
        fx.train_samples[..k].iter().map(|s| &s.features),
    );
    let s = time_median(200, || {
        std::hint::black_box(fx.model.probabilities_block(&block));
    });
    l.set("core.model.score_block_us", s * 1e6);
}

/// Scenario-layer metrics read through the [`TimedPredictor`] decorator,
/// then the featurizer and the model timed apart on the samples it kept.
pub fn record_predictor<P: pfp_baselines::GenerativePredictor>(
    l: &mut Metrics,
    timed: &TimedPredictor<P>,
    wall_s: f64,
    rollouts: usize,
    model: &DmcpModel,
) {
    let calls = timed.calls().max(1);
    l.set("pfp-eval.scenario.predict_calls", calls as f64);
    l.set(
        "pfp-eval.scenario.predict_us",
        timed.busy().as_secs_f64() * 1e6 / calls as f64,
    );
    l.set(
        "pfp-eval.scenario.predict_share",
        timed.busy().as_secs_f64() / wall_s,
    );
    l.set(
        "pfp-eval.scenario.stays_per_rollout",
        calls as f64 / rollouts as f64,
    );
    let kept = timed.take_kept();
    let featurizer = model.featurizer();
    let t0 = Instant::now();
    let features: Vec<_> = kept
        .iter()
        .map(|s| featurizer.featurize(&s.profile, &s.history, s.t_eval, s.t_prev))
        .collect();
    let featurize_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for f in &features {
        std::hint::black_box(model.probabilities(f));
    }
    let probabilities_s = t1.elapsed().as_secs_f64();
    let n = kept.len().max(1) as f64;
    l.set("core.features.featurize_us", featurize_s * 1e6 / n);
    l.set("core.model.probabilities_us", probabilities_s * 1e6 / n);
}

/// `AdmissionModel::simulate_admissions` for a hospital of `patients`.
pub fn admissions_probe(patients: usize, seed: u64, l: &mut Metrics) {
    let model = AdmissionModel::for_cohort(patients, CENSUS_DAYS);
    let mut rng = seeded_rng(seed);
    let s = time_median(5, || {
        std::hint::black_box(model.simulate_admissions(1.0, CENSUS_DAYS as f64, &mut rng));
    });
    l.set("pfp-eval.scenario.admissions_ms", s * 1e3);
}
