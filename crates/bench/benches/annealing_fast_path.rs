//! Benches for the incremental annealing fast path (per-device prediction tables +
//! O(1) delta energy updates), one group:
//!
//! * `annealing_fast_path` — SAML walks on the paper's Table-I space and on the
//!   2-accelerator bench space, three ways each: the classic walk (full
//!   re-evaluation of the direct prediction models on every proposal), the
//!   incremental walk over tables *prefilled* for the space (the enumeration-style
//!   build that only pays off on huge budgets), and the incremental walk over tables
//!   started *empty* that fill on first touch (`run_delta` +
//!   `PredictionEvaluator::lazy_tabulated` — the path `MethodRunner` wires for SAML).
//!
//! The printed summary doubles as the acceptance evidence: model invocations per
//! accepted move, the ≥ 5× empty-vs-direct reduction (asserted), and the bit-identity
//! of all three trajectories.  The measurement logic is
//! `wd_bench::measure_annealing_fast_path`.
//!
//! The `shared_table` pair is one convergence-study case's SAML work on the Table-I
//! space: 24 `MethodRunner` runs (8 budgets × 3 seeds) lent one table prefilled
//! with the space (`MethodRunner::with_table`), vs. the same runs each over its
//! own empty table.  Before timing, it asserts that both give bit-identical best
//! energies and `cache` counters, and that the shared table walks no more rows than
//! the space's axis product.

use criterion::{criterion_group, criterion_main, Criterion};
use dna_analysis::Genome;
use hetero_autotune::experiments::paper_iteration_budgets;
use hetero_autotune::{
    ConfigurationSpace, MethodKind, MethodOutcome, MethodRunner, TrainingCampaign,
};
use hetero_platform::HeterogeneousPlatform;
use wd_bench::{measure_annealing_fast_path, two_accel_bench_grid};
use wd_ml::BoostingParams;
use wd_opt::SimulatedAnnealing;

const ITERATIONS: usize = 2000;
const SEED: u64 = 29;

fn print_summary(label: &str, m: &wd_bench::AnnealingMeasurement) {
    println!(
        "SAML on the {label} ({} configurations, {} iterations, {} accepted moves):",
        m.space_configs, m.iterations, m.accepted_moves
    );
    println!(
        "  direct walk (full re-evaluation)  {:>12.2?}  ({} model invocations, {:.2}/accepted move)",
        m.direct,
        m.model_queries_direct,
        m.queries_per_accepted_direct()
    );
    println!(
        "  prefilled tables: fill + walk     {:>12.2?}  ({} model invocations, all up front)",
        m.eager_total(),
        m.model_queries_eager
    );
    println!(
        "  empty tables: delta walk          {:>12.2?}  ({} model invocations, {:.2}/accepted move)",
        m.lazy,
        m.model_queries_lazy,
        m.queries_per_accepted_lazy()
    );
    println!(
        "  {:.1}x fewer model invocations per accepted move (empty vs direct), trajectories identical: {}",
        m.query_reduction(),
        m.identical_trajectories
    );
}

fn bench_annealing_fast_path(c: &mut Criterion) {
    // 2-accelerator space over the Emil-with-GPU platform — the acceptance space
    let gpu_platform = HeterogeneousPlatform::emil_with_gpu();
    let gpu_models =
        TrainingCampaign::reduced_for(&gpu_platform).run(&gpu_platform, BoostingParams::fast());
    let two_accel = two_accel_bench_grid();
    let m = measure_annealing_fast_path(
        &gpu_models,
        Genome::Human.workload(),
        &two_accel,
        ITERATIONS,
        SEED,
    );
    print_summary("2-accelerator bench space", &m);
    m.assert_fast_path_won();

    // the paper's Table-I space (host + Xeon Phi)
    let platform = HeterogeneousPlatform::emil();
    let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
    let table1 = ConfigurationSpace::paper();
    let m1 =
        measure_annealing_fast_path(&models, Genome::Human.workload(), &table1, ITERATIONS, SEED);
    print_summary("Table-I space", &m1);
    // Table-I's 1 %-granularity split axis makes the walk visit ~1000 distinct
    // triples, so the query reduction is real but smaller (and prefilling the
    // tables is an outright loss — 4 800 up-front queries); only the trajectory identity is
    // asserted here.  The ≥ 5× acceptance bar applies to the 2-accel space above.
    assert!(
        m1.identical_trajectories,
        "incremental SAML diverged from the direct walk on the Table-I space"
    );
    assert!(
        m1.model_queries_lazy < m1.model_queries_direct,
        "SAML over empty tables must not walk the models more often than the direct path"
    );

    let sa = SimulatedAnnealing::with_budget_and_range(ITERATIONS, 2.0, 0.02, SEED);
    let workload = Genome::Human.workload();

    let mut group = c.benchmark_group("annealing_fast_path");
    group.sample_size(10);
    group.bench_function("table1_saml_direct", |b| {
        let prediction = models.prediction_evaluator(workload.clone());
        b.iter(|| sa.run(&table1, &prediction));
    });
    group.bench_function("table1_saml_prefilled_delta", |b| {
        let prediction = models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.tabulated(&table1);
            sa.run_delta(&table1, &tables)
        });
    });
    group.bench_function("table1_saml_empty_delta", |b| {
        let prediction = models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.lazy_tabulated();
            sa.run_delta(&table1, &tables)
        });
    });
    group.bench_function("two_accel_saml_direct", |b| {
        let prediction = gpu_models.prediction_evaluator(workload.clone());
        b.iter(|| sa.run(&two_accel, &prediction));
    });
    group.bench_function("two_accel_saml_prefilled_delta", |b| {
        let prediction = gpu_models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.tabulated(&two_accel);
            sa.run_delta(&two_accel, &tables)
        });
    });
    group.bench_function("two_accel_saml_empty_delta", |b| {
        let prediction = gpu_models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.lazy_tabulated();
            sa.run_delta(&two_accel, &tables)
        });
    });
    group.finish();

    // one study case's 24 SAML runs: one shared prefilled table vs. 24 private ones
    let runs: Vec<(u64, usize)> = (0..3u64)
        .flat_map(|seed| {
            paper_iteration_budgets()
                .into_iter()
                .map(move |b| (SEED + seed, b))
        })
        .collect();
    let saml = |table: Option<&hetero_autotune::TabulatedPredictionEvaluator<'_>>| {
        runs.iter()
            .map(|&(seed, budget)| {
                let runner = MethodRunner::new(&platform, &workload, Some(&models), seed)
                    .with_space(table1.clone());
                match table {
                    Some(table) => runner.with_table(table),
                    None => runner,
                }
                .run(MethodKind::Saml, budget)
                .expect("SAML runs with trained models")
            })
            .collect::<Vec<MethodOutcome>>()
    };
    let prediction = models.prediction_evaluator(workload.clone());
    let table = prediction.tabulated(&table1);
    let shared = saml(Some(&table));
    let private = saml(None);
    for (a, b) in shared.iter().zip(&private) {
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.search_energy.to_bits(), b.search_energy.to_bits());
        assert_eq!(a.measured_energy.to_bits(), b.measured_energy.to_bits());
        assert_eq!(
            a.cache, b.cache,
            "a shared table must not change a run's counters"
        );
    }
    // the space's axis product, zero shares excluded
    let shares = table1.splits.iter().filter(|split| split[0] != 0).count();
    let axis_rows = table1.host_threads.len() * table1.host_affinities.len() * shares
        + table1
            .device_axes
            .iter()
            .map(|axis| axis.threads.len() * axis.affinities.len() * shares)
            .sum::<usize>();
    let private_walks: usize = private.iter().map(|outcome| outcome.cache.misses).sum();
    println!(
        "24 SAML runs on the Table-I space: one shared table walked {} rows (axis product {axis_rows}), \
         24 private tables walked {private_walks}; best energies and counters identical",
        table.model_queries()
    );
    assert!(
        table.model_queries() <= axis_rows,
        "the shared table walked {} rows, more than the axis product {axis_rows}",
        table.model_queries()
    );

    let mut group = c.benchmark_group("shared_table");
    group.sample_size(10);
    group.bench_function("table1_saml_x24_shared_prefilled", |b| {
        b.iter(|| {
            let table = prediction.tabulated(&table1);
            saml(Some(&table))
        });
    });
    group.bench_function("table1_saml_x24_private_empty", |b| {
        b.iter(|| saml(None));
    });
    group.finish();
}

criterion_group!(benches, bench_annealing_fast_path);
criterion_main!(benches);
