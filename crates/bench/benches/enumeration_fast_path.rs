//! Benches for the zero-materialization enumeration + factorized prediction fast
//! path, in two groups:
//!
//! * `tabulated_vs_direct` — EML on a 2-accelerator grid through the direct
//!   [`PredictionEvaluator`] versus the factorized
//!   [`hetero_autotune::TabulatedPredictionEvaluator`].  An instrumented objective
//!   (`wd_bench::counting_prediction_evaluator`, which counts every boosted-tree
//!   model invocation) proves the fast path performs ≥ 5× fewer model queries while
//!   returning a bit-identical best configuration and energy;
//! * `lazy_vs_materialized` — streaming indexed enumeration versus the classic
//!   materialise-the-whole-`Vec` path, on the paper's Table-I grid and on a
//!   3-accelerator space whose grid would be expensive to materialise repeatedly.
//!
//! The printed summary doubles as the acceptance evidence; the criterion groups
//! track the wall-clock trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use dna_analysis::Genome;
use hetero_autotune::{ConfigurationSpace, DeviceAxis, TrainingCampaign};
use hetero_platform::{Affinity, HeterogeneousPlatform};
use wd_bench::{measure_fast_path, two_accel_bench_grid};
use wd_ml::BoostingParams;
use wd_opt::{MaterializedOnly, ParallelEnumeration};

/// A 3-accelerator space for the streaming comparison (the kind of grid the
/// materialising path struggles with).
fn three_accel_space() -> ConfigurationSpace {
    ConfigurationSpace::multi_accelerator(
        vec![12, 24, 48],
        vec![Affinity::Scatter],
        vec![
            DeviceAxis::new(vec![60, 240], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![112, 448], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![64, 128], vec![Affinity::Balanced]),
        ],
        200,
    )
}

/// One-shot evidence for the acceptance criteria: model-invocation counts and
/// wall-clock of direct vs. tabulated EML, with a bit-identity check
/// (`wd_bench::measure_fast_path`).
fn print_fast_path_summary() {
    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, BoostingParams::fast());
    let grid = two_accel_bench_grid();
    let m = measure_fast_path(&models, Genome::Human.workload(), &grid);

    println!(
        "EML on the 2-accelerator grid ({} configurations):",
        m.grid_configs
    );
    println!(
        "  direct prediction enumeration  {:>12.2?}  ({} model invocations)",
        m.direct, m.model_queries_direct
    );
    println!(
        "  factorized: build tables       {:>12.2?}  ({} model invocations)",
        m.build, m.model_queries_tabulated
    );
    println!(
        "  factorized: scan the grid      {:>12.2?}  (0 model invocations)",
        m.scan
    );
    println!(
        "  speedup {:.1}x wall-clock, {:.1}x fewer model invocations",
        m.direct.as_secs_f64() / m.tabulated_total().as_secs_f64(),
        m.query_reduction(),
    );
    m.assert_fast_path_won();
}

fn bench_tabulated_vs_direct(c: &mut Criterion) {
    print_fast_path_summary();

    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, BoostingParams::fast());
    let workload = Genome::Human.workload();
    let grid = two_accel_bench_grid();
    let prediction = models.prediction_evaluator(workload);

    let mut group = c.benchmark_group("tabulated_vs_direct");
    group.sample_size(10);
    group.bench_function("eml_direct", |b| {
        b.iter(|| ParallelEnumeration::new().run_indexed(&grid, &prediction));
    });
    group.bench_function("eml_tabulated_total", |b| {
        b.iter(|| {
            let tabulated = prediction.tabulated(&grid);
            ParallelEnumeration::new().run_indexed(&grid, &tabulated)
        });
    });
    group.bench_function("eml_tabulated_scan_only", |b| {
        let tabulated = prediction.tabulated(&grid);
        b.iter(|| ParallelEnumeration::new().run_indexed(&grid, &tabulated));
    });
    group.finish();
}

fn bench_lazy_vs_materialized(c: &mut Criterion) {
    // a cheap objective keeps the measurement about enumeration overhead
    // (allocation + construction), not about the evaluator
    let objective = |config: &hetero_autotune::SystemConfiguration| {
        let split = config.split();
        f64::from(config.host_threads) * 0.25 + f64::from(split[0].abs_diff(600)) * 0.001
    };

    let table1 = ConfigurationSpace::enumeration_grid();
    let three = three_accel_space();
    {
        // the streaming path must visit the exact same winner
        let lazy = ParallelEnumeration::new().run_indexed(&table1, &objective);
        let materialized =
            ParallelEnumeration::new().run_indexed(&MaterializedOnly::new(&table1), &objective);
        assert_eq!(lazy.best_index, materialized.best_index);
        assert_eq!(
            lazy.outcome.best_energy.to_bits(),
            materialized.outcome.best_energy.to_bits()
        );
    }

    let mut group = c.benchmark_group("lazy_vs_materialized");
    group.sample_size(10);
    group.bench_function("table1_grid_lazy", |b| {
        b.iter(|| ParallelEnumeration::new().run_indexed(&table1, &objective));
    });
    group.bench_function("table1_grid_materialized", |b| {
        let hidden = MaterializedOnly::new(&table1);
        b.iter(|| ParallelEnumeration::new().run_indexed(&hidden, &objective));
    });
    group.bench_function("three_accel_lazy", |b| {
        b.iter(|| ParallelEnumeration::new().run_indexed(&three, &objective));
    });
    group.bench_function("three_accel_materialized", |b| {
        let hidden = MaterializedOnly::new(&three);
        b.iter(|| ParallelEnumeration::new().run_indexed(&hidden, &objective));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tabulated_vs_direct,
    bench_lazy_vs_materialized
);
criterion_main!(benches);
