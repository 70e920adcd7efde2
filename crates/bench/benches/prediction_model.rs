//! Benches for the performance-prediction pipeline (paper Figs. 5–8, Tables IV–V).
//!
//! Measures the cost of (a) generating the training data on the simulator, (b) fitting
//! the boosted-tree models (`boosted_tree_fit_paper`: the default-parameter fit on the
//! paper campaign's host dataset) and (c) predicting one configuration — the quantity that
//! makes EML/SAML cheap compared to measurement-based evaluation.  Also prints the
//! regenerated Table IV/V accuracy summary once per run.
//!
//! The `flat_kernel` group times the two batch-prediction kernels against each other
//! on one EML-tabulation-sized batch (256 rows × 5 features, the chunks the table
//! builders feed [`wd_ml::Regressor::predict_batch`]): the seed kernel (checked,
//! branchy) and the cache-blocked branch-free `predict_batch`.  Bit-identity and the
//! ≥ 2× blocked-over-seed speedup are asserted first, through
//! `wd_bench::measure_prediction_kernel` (the measurement the unit tests check for
//! bit-identity too).

use criterion::{criterion_group, criterion_main, Criterion};
use hetero_autotune::features::host_features;
use hetero_autotune::{MeasurementEvaluator, SystemConfiguration, TrainingCampaign};
use hetero_platform::{Affinity, HeterogeneousPlatform};
use wd_bench::{kernel_bench_forest, measure_prediction_kernel, PaperStudy, Scale};
use wd_ml::{BoostedTreesRegressor, BoostingParams, Regressor};

fn print_accuracy_once() {
    let (_, models) = PaperStudy::run_training_only(Scale::Paper, 7);
    println!(
        "host  model: mean absolute error {:.3} s, mean percent error {:.2} % ({} experiments)",
        models.host_accuracy.mean_absolute_error(),
        models.host_accuracy.mean_percent_error(),
        models.host_experiments,
    );
    println!(
        "device model: mean absolute error {:.3} s, mean percent error {:.2} % ({} experiments)",
        models.device_accuracy().mean_absolute_error(),
        models.device_accuracy().mean_percent_error(),
        models.device_experiments,
    );
}

fn bench_prediction(c: &mut Criterion) {
    print_accuracy_once();

    let platform = HeterogeneousPlatform::emil();
    let campaign = TrainingCampaign::reduced();

    c.bench_function("training_campaign_reduced", |b| {
        b.iter(|| campaign.run(&platform, BoostingParams::fast()));
    });

    // the paper-scale fit: 200 default-parameter trees on the 2 880-row host dataset
    let paper_host = TrainingCampaign::paper().host_dataset(&platform);
    c.bench_function("boosted_tree_fit_paper", |b| {
        b.iter(|| {
            let mut model = BoostedTreesRegressor::new(BoostingParams::default());
            model
                .fit(&paper_host)
                .expect("the paper host dataset is non-empty");
            model
        });
    });

    let models = campaign.run(&platform, BoostingParams::fast());
    let features = host_features(48, Affinity::Scatter, 3_170_000_000);
    c.bench_function("boosted_tree_predict_one", |b| {
        b.iter(|| models.host_model.predict_one(&features));
    });

    // prediction-based vs measurement-based evaluation of one system configuration
    let config =
        SystemConfiguration::with_host_percent(48, Affinity::Scatter, 240, Affinity::Balanced, 60);
    let workload = dna_analysis::Genome::Human.workload();
    let prediction = models.prediction_evaluator(workload.clone());
    let measurement = MeasurementEvaluator::new(platform.clone(), workload);
    c.bench_function("evaluate_config_prediction", |b| {
        b.iter(|| prediction.energy(&config));
    });
    c.bench_function("evaluate_config_measurement", |b| {
        b.iter(|| measurement.energy(&config));
    });
}

fn bench_flat_kernel(c: &mut Criterion) {
    let (model, batch, width) = kernel_bench_forest();

    // acceptance evidence first: bit-identity of both kernels plus the ≥ 2×
    // blocked-over-seed speedup, measured best-of-200 on the same batch
    let m = measure_prediction_kernel(&model, &batch, width, 200);
    println!(
        "flat_kernel ({} rows x {} features, {} trees): reference {:?}, blocked {:?} ({:.2}x)",
        m.rows,
        m.width,
        m.trees,
        m.reference,
        m.blocked,
        m.blocked_speedup(),
    );
    m.assert_fast_path_won();

    let mut group = c.benchmark_group("flat_kernel");
    group.bench_function("reference_256x5", |b| {
        b.iter(|| model.predict_batch_reference(&batch, width));
    });
    // the blocked kernel behind `predict_batch` (what the tabulation layer calls)
    group.bench_function("blocked_256x5", |b| {
        b.iter(|| model.predict_batch(&batch, width));
    });
    group.finish();
}

criterion_group!(benches, bench_prediction, bench_flat_kernel);
criterion_main!(benches);
