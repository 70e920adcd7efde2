//! # wd-bench
//!
//! Shared plumbing for the reproduction harness: the [`repro`](../repro/index.html)
//! binary regenerates every table and figure of the paper's evaluation section, and the
//! Criterion benches measure the cost of the individual components (DFA scanning, model
//! training/prediction, the optimization methods themselves).
//!
//! The heavy lifting lives in [`hetero_autotune`]; this crate only decides which
//! experiments to run at which scale and formats the results the way the paper's tables
//! present them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use dna_analysis::Genome;
use hetero_autotune::experiments::{paper_iteration_budgets, ConvergenceStudy};
use hetero_autotune::report::{fmt2, fmt3, format_table};
use hetero_autotune::{TrainedModels, TrainingCampaign};
use hetero_platform::HeterogeneousPlatform;
use wd_ml::BoostingParams;

/// At which scale to run the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full campaign: 7 200 training experiments, the 19 926-point
    /// enumeration grid and iteration budgets 250..=2000.
    Paper,
    /// A scaled-down run (reduced campaign, smaller budgets) for smoke tests.
    Quick,
}

impl Scale {
    /// Training campaign for this scale.
    pub fn campaign(&self) -> TrainingCampaign {
        match self {
            Scale::Paper => TrainingCampaign::paper(),
            Scale::Quick => TrainingCampaign::reduced(),
        }
    }

    /// Boosting hyper-parameters for this scale.
    pub fn boosting(&self) -> BoostingParams {
        match self {
            Scale::Paper => BoostingParams::default(),
            Scale::Quick => BoostingParams::fast(),
        }
    }

    /// Simulated-annealing iteration budgets for this scale.
    pub fn budgets(&self) -> Vec<usize> {
        match self {
            Scale::Paper => paper_iteration_budgets(),
            Scale::Quick => vec![100, 250, 500],
        }
    }

    /// Genomes examined at this scale.
    pub fn genomes(&self) -> Vec<Genome> {
        match self {
            Scale::Paper => Genome::ALL.to_vec(),
            Scale::Quick => vec![Genome::Human, Genome::Cat],
        }
    }
}

/// Everything the tables/figures of the evaluation section need, computed once.
pub struct PaperStudy {
    /// The simulated platform.
    pub platform: HeterogeneousPlatform,
    /// Scale the study was run at.
    pub scale: Scale,
    /// Trained prediction models and their accuracy reports (Figs. 5-8, Tables IV-V).
    pub models: TrainedModels,
    /// Convergence study (Fig. 9, Tables VI-IX).
    pub convergence: ConvergenceStudy,
}

impl PaperStudy {
    /// Run the training campaign and the convergence study at the given scale.
    pub fn run(scale: Scale, seed: u64) -> Self {
        let platform = HeterogeneousPlatform::emil_with_seed(seed);
        let models = scale.campaign().run(&platform, scale.boosting());
        let convergence =
            ConvergenceStudy::run(&platform, &models, &scale.genomes(), &scale.budgets(), seed);
        PaperStudy {
            platform,
            scale,
            models,
            convergence,
        }
    }

    /// Run only the training part (enough for Figs. 5-8 and Tables IV-V).
    pub fn run_training_only(scale: Scale, seed: u64) -> (HeterogeneousPlatform, TrainedModels) {
        let platform = HeterogeneousPlatform::emil_with_seed(seed);
        let models = scale.campaign().run(&platform, scale.boosting());
        (platform, models)
    }
}

/// A [`wd_ml::Regressor`] wrapper counting model invocations (one per predicted row,
/// for both the single and the batched entry points).
///
/// This is the *instrumented objective* the fast-path benches use to prove the
/// factorized prediction path really performs fewer model queries — wall-clock
/// alone would not distinguish a faster tree walk from fewer tree walks.
pub struct CountingRegressor<M> {
    inner: M,
    calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl<M: wd_ml::Regressor> CountingRegressor<M> {
    /// Wrap `inner`; the returned handle reads the invocation count even after the
    /// regressor has been moved into an evaluator.
    pub fn new(inner: M) -> (Self, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        (Self::with_counter(inner, calls.clone()), calls)
    }

    /// Wrap `inner` onto an existing counter, so several models (e.g. one per
    /// device) accumulate into one total.
    pub fn with_counter(inner: M, calls: std::sync::Arc<std::sync::atomic::AtomicUsize>) -> Self {
        CountingRegressor { inner, calls }
    }
}

impl<M: wd_ml::Regressor> wd_ml::Regressor for CountingRegressor<M> {
    fn fit(&mut self, data: &wd_ml::Dataset) -> Result<(), wd_ml::MlError> {
        self.inner.fit(data)
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.predict_one(features)
    }

    fn predict_batch(&self, rows: &[f64], width: usize) -> Vec<f64> {
        if let Some(count) = rows.len().checked_div(width) {
            self.calls
                .fetch_add(count, std::sync::atomic::Ordering::Relaxed);
        }
        self.inner.predict_batch(rows, width)
    }

    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }

    fn name(&self) -> &'static str {
        "counting"
    }
}

/// Build a [`hetero_autotune::PredictionEvaluator`] whose host and device models are
/// wrapped in [`CountingRegressor`]s, plus one shared invocation counter over all of
/// them.
pub fn counting_prediction_evaluator(
    models: &TrainedModels,
    workload: hetero_platform::WorkloadProfile,
) -> (
    hetero_autotune::PredictionEvaluator,
    std::sync::Arc<std::sync::atomic::AtomicUsize>,
) {
    let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let host = CountingRegressor::with_counter(models.host_model.clone(), calls.clone());
    let devices: Vec<Box<dyn wd_ml::Regressor + Send + Sync>> = models
        .device_models
        .iter()
        .map(|model| {
            Box::new(CountingRegressor::with_counter(
                model.clone(),
                calls.clone(),
            )) as Box<dyn wd_ml::Regressor + Send + Sync>
        })
        .collect();
    (
        hetero_autotune::PredictionEvaluator::new(Box::new(host), devices, workload),
        calls,
    )
}

/// The 2-accelerator (Phi + GPU) grid the fast-path benches measure, with 10 %
/// split granularity — one definition so every bench describes the same
/// experiment.
pub fn two_accel_bench_grid() -> hetero_autotune::ConfigurationSpace {
    hetero_autotune::ConfigurationSpace::multi_accelerator(
        vec![2, 12, 24, 48],
        vec![hetero_platform::Affinity::Scatter],
        vec![
            hetero_autotune::DeviceAxis::new(
                vec![30, 60, 120, 240],
                vec![hetero_platform::Affinity::Balanced],
            ),
            hetero_autotune::DeviceAxis::new(
                vec![112, 224, 448],
                vec![hetero_platform::Affinity::Balanced],
            ),
        ],
        100,
    )
}

/// One direct-vs-factorized EML measurement on a grid (see [`measure_fast_path`]).
pub struct FastPathMeasurement {
    /// Number of configurations in the measured grid.
    pub grid_configs: usize,
    /// Wall-clock of enumerating the direct prediction evaluator.
    pub direct: std::time::Duration,
    /// Wall-clock of building the factorized tables.
    pub build: std::time::Duration,
    /// Wall-clock of enumerating through the built tables.
    pub scan: std::time::Duration,
    /// Model invocations of the direct enumeration.
    pub model_queries_direct: usize,
    /// Model invocations of the factorized path (table construction only).
    pub model_queries_tabulated: usize,
    /// Whether both paths agreed on the best index and its energy bits.
    pub identical_best: bool,
}

impl FastPathMeasurement {
    /// Total wall-clock of the factorized path (build + scan).
    pub fn tabulated_total(&self) -> std::time::Duration {
        self.build + self.scan
    }

    /// Direct-over-tabulated model-invocation ratio.
    pub fn query_reduction(&self) -> f64 {
        self.model_queries_direct as f64 / self.model_queries_tabulated.max(1) as f64
    }

    /// Assert the *deterministic* acceptance criteria: bit-identical winner and
    /// ≥ 5× fewer model invocations.  Wall-clock is reported, never asserted — on a
    /// noisy CI runner a scheduling stall must not fail the build when the query
    /// counts already prove the claim.
    pub fn assert_fast_path_won(&self) {
        assert!(
            self.identical_best,
            "factorized EML diverged from the direct path"
        );
        assert!(
            self.model_queries_direct >= 5 * self.model_queries_tabulated,
            "factorization must save >= 5x model invocations ({} direct vs {} tabulated)",
            self.model_queries_direct,
            self.model_queries_tabulated
        );
    }
}

/// Measure EML over `grid` twice — through the direct [`CountingRegressor`]-wrapped
/// prediction evaluator and through the factorized tables — and compare.
pub fn measure_fast_path(
    models: &TrainedModels,
    workload: hetero_platform::WorkloadProfile,
    grid: &hetero_autotune::ConfigurationSpace,
) -> FastPathMeasurement {
    use std::sync::atomic::Ordering;
    use std::time::Instant;
    use wd_opt::{ParallelEnumeration, SearchSpace as _};

    let grid_configs = grid.space_len().expect("bench grids are indexed");

    let (direct, direct_calls) = counting_prediction_evaluator(models, workload.clone());
    let start = Instant::now();
    let reference = ParallelEnumeration::new().run_indexed(grid, &direct);
    let t_direct = start.elapsed();

    let (counted, tabulated_calls) = counting_prediction_evaluator(models, workload);
    let start = Instant::now();
    let tabulated = counted.tabulated(grid);
    let t_build = start.elapsed();
    let build_queries = tabulated.model_queries();
    let start = Instant::now();
    let fast = ParallelEnumeration::new().run_indexed(grid, &tabulated);
    let t_scan = start.elapsed();
    assert_eq!(
        tabulated.model_queries(),
        build_queries,
        "a scan of the prefilled grid walks no model"
    );

    FastPathMeasurement {
        grid_configs,
        direct: t_direct,
        build: t_build,
        scan: t_scan,
        model_queries_direct: direct_calls.load(Ordering::Relaxed),
        model_queries_tabulated: tabulated_calls.load(Ordering::Relaxed),
        identical_best: reference.best_index == fast.best_index
            && reference.outcome.best_energy.to_bits() == fast.outcome.best_energy.to_bits()
            && reference.outcome.best_config == fast.outcome.best_config,
    }
}

/// One direct-vs-eager-vs-lazy SAML measurement on an annealing space (see
/// [`measure_annealing_fast_path`]).
pub struct AnnealingMeasurement {
    /// Number of configurations in the annealing space.
    pub space_configs: usize,
    /// Iteration budget of the annealer.
    pub iterations: usize,
    /// Evaluation requests the walk performed (initial + one per proposal).
    pub evaluations: usize,
    /// Accepted moves of the (shared) trajectory.
    pub accepted_moves: usize,
    /// Wall-clock of the classic walk: full re-evaluation of the direct models.
    pub direct: std::time::Duration,
    /// Wall-clock of eagerly building the full per-device tables.
    pub eager_build: std::time::Duration,
    /// Wall-clock of the delta walk over the eager tables (excluding the build).
    pub eager_walk: std::time::Duration,
    /// Wall-clock of the delta walk over the lazy (fill-on-first-touch) tables.
    pub lazy: std::time::Duration,
    /// Model invocations of the direct walk.
    pub model_queries_direct: usize,
    /// Model invocations of the eager path (table construction; the walk itself
    /// performs none).
    pub model_queries_eager: usize,
    /// Model invocations of the lazy path (first-touch fills only).
    pub model_queries_lazy: usize,
    /// Whether all three walks produced the same trajectory: identical per-iteration
    /// trace, best configuration and best-energy bits.
    pub identical_trajectories: bool,
}

impl AnnealingMeasurement {
    /// Total wall-clock of the eager path (table build + walk).
    pub fn eager_total(&self) -> std::time::Duration {
        self.eager_build + self.eager_walk
    }

    /// Model invocations per accepted move of the direct walk.
    pub fn queries_per_accepted_direct(&self) -> f64 {
        self.model_queries_direct as f64 / self.accepted_moves.max(1) as f64
    }

    /// Model invocations per accepted move of the lazy delta walk.
    pub fn queries_per_accepted_lazy(&self) -> f64 {
        self.model_queries_lazy as f64 / self.accepted_moves.max(1) as f64
    }

    /// Direct-over-lazy model-invocation ratio (equivalently: the per-accepted-move
    /// ratio, the denominator being the shared trajectory's accepted moves).
    pub fn query_reduction(&self) -> f64 {
        self.model_queries_direct as f64 / self.model_queries_lazy.max(1) as f64
    }

    /// Assert the *deterministic* acceptance criteria: bit-identical trajectories and
    /// ≥ 5× fewer model invocations per accepted move for the lazy delta walk.
    /// Wall-clock is reported, never asserted — on a noisy CI runner a scheduling
    /// stall must not fail the build when the query counts already prove the claim.
    pub fn assert_fast_path_won(&self) {
        assert!(
            self.identical_trajectories,
            "incremental SAML diverged from the direct walk"
        );
        assert!(
            self.model_queries_direct >= 5 * self.model_queries_lazy,
            "the lazy delta walk must save >= 5x model invocations per accepted move \
             ({} direct vs {} lazy over {} accepted moves)",
            self.model_queries_direct,
            self.model_queries_lazy,
            self.accepted_moves
        );
    }
}

/// Run one SAML walk (budget `iterations`, fixed `seed`) over `space` three ways —
/// classic full re-evaluation of the direct models, the incremental
/// (`run_delta`) walk over eagerly built tables, and the incremental walk over lazy
/// fill-on-first-touch tables — counting boosted-tree invocations via
/// [`CountingRegressor`] and checking all three trajectories agree bit for bit.
pub fn measure_annealing_fast_path(
    models: &TrainedModels,
    workload: hetero_platform::WorkloadProfile,
    space: &hetero_autotune::ConfigurationSpace,
    iterations: usize,
    seed: u64,
) -> AnnealingMeasurement {
    use std::sync::atomic::Ordering;
    use std::time::Instant;
    use wd_opt::{SearchSpace as _, SimulatedAnnealing};

    let sa = SimulatedAnnealing::with_budget_and_range(iterations, 2.0, 0.02, seed);

    let (direct, direct_calls) = counting_prediction_evaluator(models, workload.clone());
    let start = Instant::now();
    let reference = sa.run(space, &direct);
    let t_direct = start.elapsed();

    let (eager_counted, eager_calls) = counting_prediction_evaluator(models, workload.clone());
    let start = Instant::now();
    let eager_tables = eager_counted.tabulated(space);
    let t_build = start.elapsed();
    let build_queries = eager_tables.model_queries();
    let start = Instant::now();
    let eager = sa.run_delta(space, &eager_tables);
    let t_eager_walk = start.elapsed();
    assert_eq!(
        eager_tables.model_queries(),
        build_queries,
        "the walk stays in the prefilled space"
    );

    let (lazy_counted, lazy_calls) = counting_prediction_evaluator(models, workload);
    let lazy_tables = lazy_counted.lazy_tabulated();
    let start = Instant::now();
    let lazy = sa.run_delta(space, &lazy_tables);
    let t_lazy = start.elapsed();

    let identical = |outcome: &wd_opt::Outcome<hetero_autotune::SystemConfiguration>| {
        outcome.best_config == reference.best_config
            && outcome.best_energy.to_bits() == reference.best_energy.to_bits()
            && outcome.trace.records() == reference.trace.records()
    };
    AnnealingMeasurement {
        space_configs: space.space_len().expect("bench spaces are indexed"),
        iterations,
        evaluations: reference.evaluations,
        accepted_moves: reference
            .trace
            .records()
            .iter()
            .filter(|record| record.accepted)
            .count(),
        direct: t_direct,
        eager_build: t_build,
        eager_walk: t_eager_walk,
        lazy: t_lazy,
        model_queries_direct: direct_calls.load(Ordering::Relaxed),
        model_queries_eager: eager_calls.load(Ordering::Relaxed),
        model_queries_lazy: lazy_calls.load(Ordering::Relaxed),
        identical_trajectories: identical(&eager) && identical(&lazy),
    }
}

/// One reference-vs-blocked measurement of the flat-forest batch kernels (see
/// [`measure_prediction_kernel`]).
pub struct PredictionKernelMeasurement {
    /// Rows per predicted batch.
    pub rows: usize,
    /// Features per row.
    pub width: usize,
    /// Trees in the measured ensemble.
    pub trees: usize,
    /// Timed repetitions per kernel (each duration below is the best of these).
    pub repeats: usize,
    /// Best wall-clock of the seed kernel (checked, branchy, tree-major).
    pub reference: std::time::Duration,
    /// Best wall-clock of the cache-blocked branch-free kernel
    /// ([`wd_ml::Regressor::predict_batch`]).
    pub blocked: std::time::Duration,
    /// Whether both kernels reproduced the `predict_one` row loop bit for bit.
    pub identical: bool,
}

impl PredictionKernelMeasurement {
    /// Reference-over-blocked wall-clock ratio.
    pub fn blocked_speedup(&self) -> f64 {
        self.reference.as_secs_f64() / self.blocked.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Assert the acceptance criteria: bit-identical predictions and a ≥ 2× blocked
    /// kernel.  Unlike the query-count artifacts this one *does* gate on wall-clock —
    /// the kernel rework claims raw speed, and query counts cannot witness that —
    /// so the ratio is taken between best-of-[`PredictionKernelMeasurement::repeats`]
    /// times of the same in-process batch, which cancels machine speed and absorbs
    /// scheduling noise.
    pub fn assert_fast_path_won(&self) {
        assert!(
            self.identical,
            "a batch kernel diverged from the predict_one row loop"
        );
        assert!(
            self.blocked_speedup() >= 2.0,
            "the blocked kernel must be >= 2x the seed kernel (got {:.2}x: {:.1} us vs {:.1} us)",
            self.blocked_speedup(),
            self.reference.as_secs_f64() * 1e6,
            self.blocked.as_secs_f64() * 1e6,
        );
    }
}

/// A deterministic boosted ensemble plus one EML-tabulation-sized batch
/// (`rows × width`, the 256-row chunks the table builders feed
/// [`wd_ml::Regressor::predict_batch`]) for the flat-kernel measurements — one
/// definition so the bench and the unit test describe the same experiment.  Synthetic (LCG-drawn) features keep the fit off the hot path: the
/// kernels only care about tree *shape*, not accuracy.
pub fn kernel_bench_forest() -> (wd_ml::BoostedTreesRegressor, Vec<f64>, usize) {
    use wd_ml::Regressor as _;

    const WIDTH: usize = 5;
    const TRAIN_ROWS: usize = 800;
    const BATCH_ROWS: usize = 256;

    // deterministic pseudo-random features without pulling an RNG into the bench API
    let mut state = 0x9e37_79b9_97f4_a7c1u64;
    let mut draw = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };

    let mut data = wd_ml::Dataset::new((0..WIDTH).map(|i| format!("f{i}")).collect::<Vec<_>>());
    for _ in 0..TRAIN_ROWS {
        let features: Vec<f64> = (0..WIDTH).map(|_| draw() * 10.0).collect();
        let target = features[0] * features[1].sin() + (features[2] - 5.0).abs()
            - features[3] * 0.25
            + (features[4] * 0.7).cos() * 3.0;
        data.push(features, target).expect("row width is fixed");
    }
    let mut model = wd_ml::BoostedTreesRegressor::new(wd_ml::BoostingParams::default());
    model.fit(&data).expect("synthetic dataset is well-formed");

    let batch: Vec<f64> = (0..BATCH_ROWS * WIDTH).map(|_| draw() * 10.0).collect();
    (model, batch, WIDTH)
}

/// Time the flat-forest batch kernels (seed/reference and cache-blocked) over the
/// same batch, `repeats` times each keeping the best, and check both kernels
/// against the `predict_one` row loop bit for bit.
pub fn measure_prediction_kernel(
    model: &wd_ml::BoostedTreesRegressor,
    rows: &[f64],
    width: usize,
    repeats: usize,
) -> PredictionKernelMeasurement {
    use std::time::{Duration, Instant};
    use wd_ml::Regressor as _;

    let repeats = repeats.max(1);
    let best_of = |kernel: &dyn Fn() -> Vec<f64>| -> (Duration, Vec<f64>) {
        let mut best = Duration::MAX;
        let mut output = kernel(); // warm-up pass, also the checked output
        for _ in 0..repeats {
            let start = Instant::now();
            let predictions = kernel();
            let elapsed = start.elapsed();
            if elapsed < best {
                best = elapsed;
            }
            output = predictions;
        }
        (best, output)
    };

    let (t_reference, reference) = best_of(&|| model.predict_batch_reference(rows, width));
    let (t_blocked, blocked) = best_of(&|| model.predict_batch(rows, width));

    let row_loop: Vec<f64> = rows
        .chunks(width.max(1))
        .map(|row| model.predict_one(row))
        .collect();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let identical = bits(&reference) == bits(&row_loop) && bits(&blocked) == bits(&row_loop);

    PredictionKernelMeasurement {
        rows: rows.len() / width.max(1),
        width,
        trees: model.tree_count(),
        repeats,
        reference: t_reference,
        blocked: t_blocked,
        identical,
    }
}

/// One direct-vs-lazy-delta GA measurement on a search space (see
/// [`measure_genetic_fast_path`]).
pub struct GeneticMeasurement {
    /// Number of configurations in the search space.
    pub space_configs: usize,
    /// Evaluation budget handed to [`wd_opt::GeneticAlgorithm::with_budget`].
    pub iterations: usize,
    /// Generations the GA actually ran (trace records).
    pub generations: usize,
    /// Evaluation requests of the run (initial population + one per child).
    pub evaluations: usize,
    /// Wall-clock of the classic run: full re-evaluation of the direct models.
    pub direct: std::time::Duration,
    /// Wall-clock of the delta run over the lazy (fill-on-first-touch) tables.
    pub lazy: std::time::Duration,
    /// Model invocations of the direct run.
    pub model_queries_direct: usize,
    /// Model invocations of the lazy delta run (first-touch fills only).
    pub model_queries_lazy: usize,
    /// Whether both runs produced the same trajectory: identical per-generation
    /// trace, best configuration and best-energy bits.
    pub identical_trajectories: bool,
}

impl GeneticMeasurement {
    /// Model invocations per generation of the direct run.
    pub fn queries_per_generation_direct(&self) -> f64 {
        self.model_queries_direct as f64 / self.generations.max(1) as f64
    }

    /// Model invocations per generation of the lazy delta run.
    pub fn queries_per_generation_lazy(&self) -> f64 {
        self.model_queries_lazy as f64 / self.generations.max(1) as f64
    }

    /// Direct-over-lazy model-invocation ratio.
    pub fn query_reduction(&self) -> f64 {
        self.model_queries_direct as f64 / self.model_queries_lazy.max(1) as f64
    }

    /// Assert the *deterministic* acceptance criteria: bit-identical trajectories and
    /// ≥ 5× fewer model invocations per generation for the delta run.  Wall-clock is
    /// reported, never asserted — on a noisy CI runner a scheduling stall must not
    /// fail the build when the query counts already prove the claim.
    pub fn assert_fast_path_won(&self) {
        assert!(
            self.identical_trajectories,
            "the GA's incremental recombination path diverged from the direct run"
        );
        assert!(
            self.model_queries_direct >= 5 * self.model_queries_lazy,
            "the GA delta run must save >= 5x model invocations per generation \
             ({} direct vs {} lazy over {} generations)",
            self.model_queries_direct,
            self.model_queries_lazy,
            self.generations
        );
    }
}

/// Run one GA (budget `iterations`, fixed `seed`) over `space` two ways — the
/// classic full re-evaluation of the direct models (`run`) and the incremental
/// recombination path (`run_delta`) over lazy fill-on-first-touch tables, where
/// each child is re-scored against its first parent's retained per-device times —
/// counting boosted-tree invocations via [`CountingRegressor`] and checking both
/// trajectories agree bit for bit.
pub fn measure_genetic_fast_path(
    models: &TrainedModels,
    workload: hetero_platform::WorkloadProfile,
    space: &hetero_autotune::ConfigurationSpace,
    iterations: usize,
    seed: u64,
) -> GeneticMeasurement {
    use std::sync::atomic::Ordering;
    use std::time::Instant;
    use wd_opt::{GeneticAlgorithm, SearchSpace as _};

    let ga = GeneticAlgorithm::with_budget(iterations, seed);

    let (direct, direct_calls) = counting_prediction_evaluator(models, workload.clone());
    let start = Instant::now();
    let reference = ga.run(space, &direct);
    let t_direct = start.elapsed();

    let (lazy_counted, lazy_calls) = counting_prediction_evaluator(models, workload);
    let lazy_tables = lazy_counted.lazy_tabulated();
    let start = Instant::now();
    let lazy = ga.run_delta(space, &lazy_tables);
    let t_lazy = start.elapsed();

    GeneticMeasurement {
        space_configs: space.space_len().expect("bench spaces are indexed"),
        iterations,
        generations: reference.trace.records().len(),
        evaluations: reference.evaluations,
        direct: t_direct,
        lazy: t_lazy,
        model_queries_direct: direct_calls.load(Ordering::Relaxed),
        model_queries_lazy: lazy_calls.load(Ordering::Relaxed),
        identical_trajectories: lazy.best_config == reference.best_config
            && lazy.best_energy.to_bits() == reference.best_energy.to_bits()
            && lazy.evaluations == reference.evaluations
            && lazy.trace.records() == reference.trace.records(),
    }
}

/// One observability-overhead measurement of a SAML walk (see
/// [`measure_observability_overhead`]): the same delta walk timed unobserved and
/// under three recorders, plus the fidelity checks that make the timings meaningful.
#[derive(Debug, Clone)]
pub struct ObservabilityMeasurement {
    /// Number of configurations in the search space.
    pub space_configs: usize,
    /// Iteration budget of each walk.
    pub iterations: usize,
    /// Timed repeats per variant (each timing below is the best of these).
    pub repeats: usize,
    /// Back-to-back walks per timed sample, auto-sized from a warmup walk so every
    /// sample is long enough for the 2 % comparison to be above timer noise.
    pub rounds: usize,
    /// Best-of-repeats per-walk duration of the plain `run_delta` walk.
    pub unobserved: std::time::Duration,
    /// Best-of-repeats per-walk duration under the disabled [`wd_obs::NoopRecorder`].
    pub noop: std::time::Duration,
    /// Best-of-repeats per-walk duration under an in-memory [`wd_obs::Registry`].
    pub registry: std::time::Duration,
    /// Best-of-repeats per-walk duration under a [`wd_obs::JsonlExporter`] writing
    /// every iteration event to disk.
    pub exporter: std::time::Duration,
    /// Median over repeats of the per-repeat `noop / unobserved` duration ratio.
    /// Both samples of a pair run inside the same repeat window, so they share the
    /// machine's momentary state (frequency, cache pressure) — the paired ratio is
    /// stable where cross-run minima on a busy host are not.
    pub noop_ratio: f64,
    /// Median paired `registry / unobserved` duration ratio (see `noop_ratio`).
    pub registry_ratio: f64,
    /// Median paired `exporter / unobserved` duration ratio (see `noop_ratio`).
    pub exporter_ratio: f64,
    /// Events the last exporter run wrote to its JSONL file.
    pub events_written: u64,
    /// Bytes the last exporter run wrote to its JSONL file.
    pub bytes_written: u64,
    /// All four walks produced bit-identical outcomes and traces.
    pub identical_trajectories: bool,
    /// Replaying the exporter's JSONL file reconstructed the walk's best-energy
    /// series bit for bit, using nothing but the file.
    pub replay_matches: bool,
}

impl ObservabilityMeasurement {
    /// Fractional overhead of the disabled [`wd_obs::NoopRecorder`] (0.01 = 1 %),
    /// from the median paired ratio.
    pub fn noop_overhead(&self) -> f64 {
        self.noop_ratio - 1.0
    }

    /// Fractional overhead of recording every iteration into a [`wd_obs::Registry`].
    pub fn registry_overhead(&self) -> f64 {
        self.registry_ratio - 1.0
    }

    /// Fractional overhead of streaming every iteration event to a JSONL file.
    pub fn exporter_overhead(&self) -> f64 {
        self.exporter_ratio - 1.0
    }

    /// Assert the observability acceptance criteria: every observed walk is
    /// bit-identical to the unobserved one, the exporter's file alone reconstructs
    /// the best-energy series, and the disabled [`wd_obs::NoopRecorder`] costs less
    /// than 2 % wall-clock (compared on the median paired ratio, which is stable
    /// even on a noisy runner).
    pub fn assert_noop_is_free(&self) {
        assert!(
            self.identical_trajectories,
            "an observed SAML walk diverged from the unobserved run"
        );
        assert!(
            self.replay_matches,
            "replaying the exporter's JSONL file did not reconstruct the walk's \
             best-energy series bit for bit"
        );
        assert!(
            self.noop_ratio <= 1.02,
            "NoopRecorder overhead {:.2}% exceeds the 2% bound (median paired ratio over {} repeats; best walks {:?} observed vs {:?} unobserved)",
            self.noop_overhead() * 100.0,
            self.repeats,
            self.noop,
            self.unobserved
        );
    }
}

/// Run one SAML walk (budget `iterations`, fixed `seed`) over `space` four ways —
/// the plain `run_delta`, and `run_delta_observed` under the disabled
/// [`wd_obs::NoopRecorder`], an in-memory [`wd_obs::Registry`], and a
/// [`wd_obs::JsonlExporter`] streaming every iteration event to a temporary JSONL
/// file — timing each walk as the best of `repeats` interleaved runs over fresh
/// lazy tables (so every variant pays the same fill-on-first-touch cost), checking
/// all trajectories agree bit for bit, and replaying the exporter's file to verify
/// the recorded event stream alone reconstructs the walk's best-energy series.
pub fn measure_observability_overhead(
    models: &TrainedModels,
    workload: hetero_platform::WorkloadProfile,
    space: &hetero_autotune::ConfigurationSpace,
    iterations: usize,
    seed: u64,
    repeats: usize,
) -> ObservabilityMeasurement {
    use std::time::{Duration, Instant};
    use wd_obs::{EventLog, JsonlExporter, NoopRecorder, Registry};
    use wd_opt::{SearchSpace as _, SimulatedAnnealing};

    assert!(repeats > 0, "need at least one timed repeat");
    let sa = SimulatedAnnealing::with_budget_and_range(iterations, 2.0, 0.02, seed);
    let scope = "saml";

    // Warmup: one untimed-for-scoring walk that doubles as the duration estimate.
    // Every variant runs the exact same monomorphized loop (the unobserved entry
    // points delegate to the observed ones), so the measured difference is timer
    // noise unless each sample is comfortably above it — size the per-sample round
    // count so a sample spans at least a few milliseconds.
    let (reference, rounds) = {
        let (counted, _calls) = counting_prediction_evaluator(models, workload.clone());
        let tables = counted.lazy_tabulated();
        let start = Instant::now();
        let outcome = sa.run_delta(space, &tables);
        let per_walk = start.elapsed().max(Duration::from_micros(1));
        let rounds = (Duration::from_millis(10).as_secs_f64() / per_walk.as_secs_f64()).ceil();
        (outcome, (rounds as usize).clamp(1, 100))
    };

    let mut identical = true;
    let mut best = [Duration::MAX; 4];
    let mut events_written = 0u64;
    let mut bytes_written = 0u64;
    let exporter_path =
        std::env::temp_dir().join(format!("wd_obs_overhead_{}.jsonl", std::process::id()));

    // One timed sample = `rounds` back-to-back walks; evaluators (model clones) are
    // built outside the timer, the cheap lazy-table construction inside it — the
    // same split for every variant, so the comparison stays fair.
    let mut sample =
        |run: &mut dyn FnMut(
            &hetero_autotune::PredictionEvaluator,
        ) -> wd_opt::Outcome<hetero_autotune::SystemConfiguration>|
         -> Duration {
            let evaluators: Vec<hetero_autotune::PredictionEvaluator> = (0..rounds)
                .map(|_| counting_prediction_evaluator(models, workload.clone()).0)
                .collect();
            let mut outcomes = Vec::with_capacity(rounds);
            let start = Instant::now();
            for evaluator in &evaluators {
                outcomes.push(run(evaluator));
            }
            let elapsed = start.elapsed();
            for outcome in &outcomes {
                identical &= outcomes_identical(&reference, outcome);
            }
            elapsed / rounds as u32
        };

    // The variant order rotates per repeat so no variant systematically runs in the
    // wake of another's work (the exporter's disk I/O in particular) — with a fixed
    // order that aftermath biases whichever variant follows it.
    let mut times = vec![[Duration::ZERO; 4]; repeats];
    for (repeat, repeat_times) in times.iter_mut().enumerate() {
        for slot in 0..4 {
            let variant = (slot + repeat) % 4;
            let t = match variant {
                // unobserved run_delta
                0 => sample(&mut |evaluator| sa.run_delta(space, &evaluator.lazy_tabulated())),
                // observed, disabled NoopRecorder
                1 => sample(&mut |evaluator| {
                    sa.run_delta_observed(space, &evaluator.lazy_tabulated(), &NoopRecorder, scope)
                }),
                // observed, in-memory registry
                2 => sample(&mut |evaluator| {
                    let registry = Registry::new();
                    sa.run_delta_observed(space, &evaluator.lazy_tabulated(), &registry, scope)
                }),
                // observed, JSONL exporter streaming to disk (recreating the scratch
                // file each round, so the replay below sees exactly one walk)
                _ => sample(&mut |evaluator| {
                    let exporter = JsonlExporter::create(&exporter_path)
                        .expect("create the scratch JSONL file");
                    let outcome =
                        sa.run_delta_observed(space, &evaluator.lazy_tabulated(), &exporter, scope);
                    exporter.flush().expect("flush the scratch JSONL file");
                    events_written = exporter.events_written();
                    bytes_written = exporter.bytes_written();
                    outcome
                }),
            };
            best[variant] = best[variant].min(t);
            repeat_times[variant] = t;
        }
    }
    let median_ratio = |variant: usize| -> f64 {
        let mut ratios: Vec<f64> = times
            .iter()
            .map(|t| t[variant].as_secs_f64() / t[0].as_secs_f64().max(f64::MIN_POSITIVE))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };

    // Replay the last exporter file: the event stream alone must reconstruct the
    // best-energy series of the walk, bit for bit.
    let replayed = EventLog::read(&exporter_path)
        .expect("read back the exporter's JSONL file")
        .best_energy_series(scope);
    let expected: Vec<u64> = reference
        .trace
        .records()
        .iter()
        .map(|record| record.best_energy.to_bits())
        .collect();
    let replay_matches = replayed.len() == expected.len()
        && replayed
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == *b);
    let _ = std::fs::remove_file(&exporter_path);

    ObservabilityMeasurement {
        space_configs: space.space_len().expect("bench spaces are indexed"),
        iterations,
        repeats,
        rounds,
        unobserved: best[0],
        noop: best[1],
        registry: best[2],
        exporter: best[3],
        noop_ratio: median_ratio(1),
        registry_ratio: median_ratio(2),
        exporter_ratio: median_ratio(3),
        events_written,
        bytes_written,
        identical_trajectories: identical,
        replay_matches,
    }
}

fn outcomes_identical(
    a: &wd_opt::Outcome<hetero_autotune::SystemConfiguration>,
    b: &wd_opt::Outcome<hetero_autotune::SystemConfiguration>,
) -> bool {
    a.best_config == b.best_config
        && a.best_energy.to_bits() == b.best_energy.to_bits()
        && a.evaluations == b.evaluations
        && a.trace.records() == b.trace.records()
}

/// Render a `(label, values-per-budget)` table with one column per iteration budget,
/// as used by Tables VI and VII.
pub fn render_budget_table(
    caption: &str,
    budgets: &[usize],
    rows: &[(String, Vec<f64>)],
) -> String {
    let mut headers = vec!["DNA".to_string()];
    headers.extend(budgets.iter().map(|b| b.to_string()));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, values)| {
            let mut row = vec![label.clone()];
            row.extend(values.iter().map(|v| fmt3(*v)));
            row
        })
        .collect();
    format!("{caption}\n{}", format_table(&headers, &body))
}

/// Render a speedup table (Tables VIII and IX): one column per budget plus the EM column.
pub fn render_speedup_table(
    caption: &str,
    budgets: &[usize],
    rows: &[(String, Vec<f64>, f64)],
) -> String {
    let mut headers = vec!["DNA".to_string()];
    headers.extend(budgets.iter().map(|b| b.to_string()));
    headers.push("EM".to_string());
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, values, em)| {
            let mut row = vec![label.clone()];
            row.extend(values.iter().map(|v| fmt2(*v)));
            row.push(fmt2(*em));
            row
        })
        .collect();
    format!("{caption}\n{}", format_table(&headers, &body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ml::Regressor as _;

    #[test]
    fn quick_scale_is_small() {
        assert!(Scale::Quick.campaign().total_experiment_count() < 1000);
        assert!(Scale::Quick.budgets().len() < Scale::Paper.budgets().len());
        assert_eq!(Scale::Paper.campaign().total_experiment_count(), 7200);
        assert_eq!(Scale::Paper.genomes().len(), 4);
    }

    #[test]
    fn budget_table_renders_all_rows_and_columns() {
        let budgets = vec![250, 500];
        let rows = vec![
            ("human".to_string(), vec![22.15, 16.17]),
            ("average".to_string(), vec![19.68, 14.07]),
        ];
        let table = render_budget_table("Table VI", &budgets, &rows);
        assert!(table.contains("Table VI"));
        assert!(table.contains("human"));
        assert!(table.contains("average"));
        assert!(table.contains("250") && table.contains("500"));
        assert!(table.contains("22.150"));
    }

    #[test]
    fn speedup_table_has_an_em_column() {
        let budgets = vec![1000];
        let rows = vec![("dog".to_string(), vec![1.56], 1.69)];
        let table = render_speedup_table("Table VIII", &budgets, &rows);
        assert!(table.contains("EM"));
        assert!(table.contains("1.56"));
        assert!(table.contains("1.69"));
    }

    #[test]
    fn prediction_kernel_measurement_is_bit_identical() {
        let (model, batch, width) = kernel_bench_forest();
        // wall-clock is not asserted here (unit tests run unoptimised); the ≥ 2×
        // gate lives in the release-built `prediction_model` bench
        let m = measure_prediction_kernel(&model, &batch, width, 2);
        assert!(m.identical, "a batch kernel diverged from predict_one");
        assert_eq!(m.rows, 256);
        assert_eq!(m.width, 5);
        assert!(m.trees > 0);
        assert!(m.blocked_speedup() > 0.0);
    }

    #[test]
    fn genetic_fast_path_measurement_is_deterministic() {
        let platform = HeterogeneousPlatform::emil_with_gpu();
        let models = hetero_autotune::TrainingCampaign::reduced_for(&platform)
            .run(&platform, BoostingParams::fast());
        let space = hetero_autotune::ConfigurationSpace::tiny_multi();
        // (budget, seed): a short run, and the 300-iteration run on the repro
        // binary's default seed ("Emil")
        for (iterations, seed) in [(200, 41), (300, 0x45_6d_69_6c)] {
            let m = measure_genetic_fast_path(
                &models,
                Genome::Human.workload(),
                &space,
                iterations,
                seed,
            );
            // the query-count criteria are deterministic, so the full acceptance
            // gate runs even unoptimised
            m.assert_fast_path_won();
            assert!(m.generations > 0);
            assert!(m.evaluations >= iterations);
            assert!(m.query_reduction() >= 5.0);
        }
    }

    #[test]
    fn quick_study_end_to_end() {
        let study = PaperStudy::run(Scale::Quick, 1);
        assert_eq!(study.scale, Scale::Quick);
        assert!(study.models.host_model.is_fitted());
        assert_eq!(study.convergence.cases.len(), 2);
        let table = study.convergence.percent_difference_rows();
        // two genomes + the average row
        assert_eq!(table.len(), 3);
    }
}
