//! The program's pipelines re-driven from their public pieces, with every call
//! into a layer going through the wrappers of `wrap.rs`.
//!
//! `MethodRunner`, `TrainingCampaign::run`, `ConvergenceStudy` and
//! `run_enumeration_sharded` hide how they wire evaluators, caches, tables,
//! optimizers and stores together, so the traced run rebuilds each of them here
//! with the same constructors, the same seed mixing and the same order of calls.
//! The checks compare every re-driven outcome bit for bit with the program's own.

use dna_analysis::Genome;
use hetero_autotune::{
    AccuracyReport, ConfigurationSpace, MeasurementEvaluator, MethodKind, MethodOutcome,
    PredictionEvaluator, SystemConfiguration, TrainedModels, TrainingCampaign,
};
use hetero_platform::{HeterogeneousPlatform, WorkloadProfile};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;
use wd_dist::{merge_shard_bests, ResultStore, ShardedCampaign, StoreBackedObjective};
use wd_ml::{BoostedTreesRegressor, BoostingParams, Dataset, Regressor};
use wd_obs::{FieldValue, Recorder};
use wd_opt::{
    CacheStats, CachedObjective, GeneticAlgorithm, Objective, OptimizationTrace, Outcome,
    ParallelEnumeration, SearchSpace, ShardPlan, ShardView, SimulatedAnnealing,
};

use crate::trace::{count, span};
use crate::wrap::{Traced, TracedRegressor, TracedStore};

/// Bit-level equality of two method outcomes: configuration, both energies,
/// evaluation count, cache counters and the whole iteration trace.
pub fn same_outcome(a: &MethodOutcome, b: &MethodOutcome) -> bool {
    a.method == b.method
        && a.best_config == b.best_config
        && a.search_energy.to_bits() == b.search_energy.to_bits()
        && a.measured_energy.to_bits() == b.measured_energy.to_bits()
        && a.evaluations == b.evaluations
        && a.cache == b.cache
        && a.trace.records() == b.trace.records()
}

/// The per-case seed salt of the convergence study (FNV-1a of the case label).
pub fn label_seed(label: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The per-repeat seed of the study's annealing runs.
pub fn repeat_seed(case_seed: u64, repeat: usize) -> u64 {
    case_seed ^ (repeat as u64).wrapping_mul(0xA076_1D64_78BD_642F)
}

fn method_span(method: MethodKind) -> &'static str {
    match method {
        MethodKind::Em => "core.method.em",
        MethodKind::Eml => "core.method.eml",
        MethodKind::Sam => "core.method.sam",
        MethodKind::Saml => "core.method.saml",
        MethodKind::Gaml => "core.method.gaml",
    }
}

/// Cache counter names (hits, requests) of the methods that run behind a
/// `CachedObjective`.
fn cache_counters(method: MethodKind) -> (&'static str, &'static str) {
    match method {
        MethodKind::Em => ("opt.cache_hits.em", "opt.cache_requests.em"),
        MethodKind::Eml => ("opt.cache_hits.eml", "opt.cache_requests.eml"),
        _ => ("opt.cache_hits.sam", "opt.cache_requests.sam"),
    }
}

/// A prediction evaluator over clones of `models` whose every model call goes
/// through [`TracedRegressor`].
pub fn traced_prediction(models: &TrainedModels, workload: WorkloadProfile) -> PredictionEvaluator {
    PredictionEvaluator::new(
        Box::new(TracedRegressor(models.host_model.clone())),
        models
            .device_models
            .iter()
            .map(|model| {
                Box::new(TracedRegressor(model.clone())) as Box<dyn Regressor + Send + Sync>
            })
            .collect(),
        workload,
    )
}

/// `TrainingCampaign::run` re-driven: the campaign through
/// `host_dataset` / `device_dataset`, then the same split and fit per side.
/// The accuracy reports are checked against `reference` (the program's models)
/// and taken from it, since a dataset row no longer names its genome.
pub fn train(
    campaign: &TrainingCampaign,
    platform: &HeterogeneousPlatform,
    boosting: BoostingParams,
    reference: &TrainedModels,
) -> (TrainedModels, bool) {
    let host = span("platform.train_sim", || campaign.host_dataset(platform));
    count("platform.train_experiments", host.len() as u64);
    let (host_model, mut same) = fit_side(campaign, &host, boosting, &reference.host_accuracy);
    let mut device_models = Vec::new();
    let mut device_experiments = 0;
    for (index, accuracy) in reference.device_accuracies.iter().enumerate() {
        let data = span("platform.train_sim", || {
            campaign.device_dataset(platform, index)
        });
        count("platform.train_experiments", data.len() as u64);
        device_experiments += data.len();
        let (model, fits) = fit_side(campaign, &data, boosting, accuracy);
        same &= fits;
        device_models.push(model);
    }
    same &= host.len() == reference.host_experiments
        && device_experiments == reference.device_experiments;
    let models = TrainedModels {
        host_model,
        device_models,
        host_accuracy: reference.host_accuracy.clone(),
        device_accuracies: reference.device_accuracies.clone(),
        host_experiments: host.len(),
        device_experiments,
    };
    (models, same)
}

/// One side of the campaign: shuffle with the campaign's split seed, fit on the
/// training part, predict the held-out part.  Returns the model and whether the
/// held-out predictions equal `reference` bit for bit.
fn fit_side(
    campaign: &TrainingCampaign,
    data: &Dataset,
    boosting: BoostingParams,
    reference: &AccuracyReport,
) -> (BoostedTreesRegressor, bool) {
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(campaign.split_seed));
    let eval_len =
        ((data.len() as f64) * campaign.evaluation_fraction.clamp(0.0, 0.9)).round() as usize;
    let (eval, train) = order.split_at(eval_len.min(data.len().saturating_sub(1)));
    let mut training = Dataset::new(data.feature_names().to_vec());
    for &row in train {
        training
            .push(data.features(row).to_vec(), data.target(row))
            .expect("rows of one dataset share its schema");
    }
    let mut model = TracedRegressor(BoostedTreesRegressor::new(boosting));
    let fitted = model.fit(&training).is_ok();
    let same = fitted
        && eval.len() == reference.rows.len()
        && eval.iter().zip(&reference.rows).all(|(&row, expected)| {
            let predicted = model.predict_one(data.features(row)).max(0.0);
            predicted.to_bits() == expected.predicted.to_bits()
                && data.target(row).to_bits() == expected.measured.to_bits()
        });
    (model.0, same)
}

/// `MethodRunner` re-driven for one workload.
pub struct Tuner<'a> {
    pub platform: &'a HeterogeneousPlatform,
    pub workload: &'a WorkloadProfile,
    pub models: Option<&'a TrainedModels>,
    pub grid: &'a ConfigurationSpace,
    pub space: &'a ConfigurationSpace,
    pub seed: u64,
}

impl Tuner<'_> {
    /// `MethodRunner::run_observed`: the same evaluators, fast paths, optimizer
    /// constructors and recorder emissions, in the same order.
    pub fn run(
        &self,
        method: MethodKind,
        iterations: usize,
        recorder: &dyn Recorder,
    ) -> MethodOutcome {
        span(method_span(method), || {
            self.run_inner(method, iterations, recorder)
        })
    }

    fn run_inner(
        &self,
        method: MethodKind,
        iterations: usize,
        recorder: &dyn Recorder,
    ) -> MethodOutcome {
        let started = Instant::now();
        let scope = method.name().to_ascii_lowercase();
        let measurement = MeasurementEvaluator::new(self.platform.clone(), self.workload.clone());
        let (outcome, cache) = if method.uses_prediction() {
            let models = self
                .models
                .expect("prediction methods run with trained models");
            let prediction = traced_prediction(models, self.workload.clone());
            if method.uses_enumeration() {
                let table = span("core.table_build", || prediction.tabulated(self.grid));
                count("core.table_rows", table.table_len() as u64);
                let scored = Traced::new("core.table_eval", "core.table_evals", &table);
                self.search(method, iterations, &scored, recorder, &scope)
            } else {
                let lazy = prediction.lazy_tabulated();
                let probed = Traced::new("core.lazy", "core.lazy_calls", &lazy);
                let outcome = span("opt.walk", || {
                    if method == MethodKind::Gaml {
                        genetic(self.seed, iterations)
                            .run_delta_observed(self.space, &probed, recorder, &scope)
                    } else {
                        annealer(self.seed, iterations)
                            .run_delta_observed(self.space, &probed, recorder, &scope)
                    }
                });
                count("opt.walk_steps", outcome.trace.len() as u64);
                lazy.publish_stats(recorder, &scope);
                count("core.lazy_probes", lazy.probes() as u64);
                count("core.lazy_model_queries", lazy.model_queries() as u64);
                (outcome, lazy.stats())
            }
        } else {
            let measured = Traced::new("platform.measure", "platform.measure_calls", &measurement);
            self.search(method, iterations, &measured, recorder, &scope)
        };
        count("platform.measure_calls", 1);
        let measured = span("platform.measure", || {
            measurement.measure(&outcome.best_config)
        });
        let measured_energy = measured.t_host.max(measured.t_device);
        if recorder.enabled() {
            measured.stats.publish(recorder, &scope);
            recorder.span(
                &format!("{scope}.run"),
                started.elapsed().as_secs_f64(),
                &[
                    ("iterations", FieldValue::U64(outcome.trace.len() as u64)),
                    ("evaluations", FieldValue::U64(outcome.evaluations as u64)),
                    ("cache_hits", FieldValue::U64(cache.hits as u64)),
                    ("cache_misses", FieldValue::U64(cache.misses as u64)),
                    ("search_energy", FieldValue::F64(outcome.best_energy)),
                    ("measured_energy", FieldValue::F64(measured_energy)),
                ],
            );
        }
        MethodOutcome {
            method,
            best_config: outcome.best_config,
            search_energy: outcome.best_energy,
            measured_energy,
            evaluations: outcome.evaluations,
            cache,
            stats: measured.stats,
            trace: outcome.trace,
        }
    }

    /// The cached search of EM, EML and SAM.
    fn search<O>(
        &self,
        method: MethodKind,
        iterations: usize,
        objective: &O,
        recorder: &dyn Recorder,
        scope: &str,
    ) -> (Outcome<SystemConfiguration>, CacheStats)
    where
        O: Objective<SystemConfiguration> + Sync,
    {
        let cached = CachedObjective::new(objective);
        let probed = Traced::new("opt.cache", "opt.cache_calls", &cached);
        let outcome = if method.uses_enumeration() {
            let outcome = span("opt.enum", || {
                ParallelEnumeration::new().run(self.grid, &probed)
            });
            count("opt.enum_configs", outcome.evaluations as u64);
            outcome
        } else {
            let outcome = span("opt.walk", || {
                annealer(self.seed, iterations).run_observed(self.space, &probed, recorder, scope)
            });
            count("opt.walk_steps", outcome.trace.len() as u64);
            outcome
        };
        cached.publish_stats(recorder, scope);
        let stats = cached.stats();
        let (hits, requests) = cache_counters(method);
        count(hits, stats.hits as u64);
        count(requests, stats.requests() as u64);
        (outcome, stats)
    }
}

/// `MethodRunner::genetic`: the budget is mixed into the seed.
fn genetic(seed: u64, iterations: usize) -> GeneticAlgorithm {
    let seed = seed ^ (iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    GeneticAlgorithm::with_budget(iterations.max(8), seed)
}

/// `MethodRunner::annealer`: the budget is mixed into the seed.
fn annealer(seed: u64, iterations: usize) -> SimulatedAnnealing {
    let seed = seed ^ (iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    SimulatedAnnealing::with_budget_and_range(iterations.max(8), 2.0, 0.02, seed)
}

/// One convergence-study case re-driven: EM and EML once, then SAM, SAML and
/// GAML `repeats` times per budget, keeping the run with the median measured
/// energy.  `runs` collects every re-driven outcome with its seed.
pub struct CaseRedrive {
    pub em: MethodOutcome,
    pub eml: MethodOutcome,
    pub walks: Vec<(MethodKind, usize, MethodOutcome)>,
    pub runs: Vec<(u64, usize, MethodOutcome)>,
}

#[allow(clippy::too_many_arguments)]
pub fn study_case(
    platform: &HeterogeneousPlatform,
    models: &TrainedModels,
    workload: &WorkloadProfile,
    budgets: &[usize],
    seed: u64,
    repeats: usize,
    grid: &ConfigurationSpace,
    space: &ConfigurationSpace,
) -> CaseRedrive {
    let case_seed = seed ^ label_seed(&workload.name);
    let tuner = |seed| Tuner {
        platform,
        workload,
        models: Some(models),
        grid,
        space,
        seed,
    };
    let mut runs = Vec::new();
    let em = tuner(case_seed).run(MethodKind::Em, 0, &wd_obs::NoopRecorder);
    let eml = tuner(case_seed).run(MethodKind::Eml, 0, &wd_obs::NoopRecorder);
    runs.push((case_seed, 0, em.clone()));
    runs.push((case_seed, 0, eml.clone()));
    let mut walks = Vec::new();
    for method in [MethodKind::Sam, MethodKind::Saml, MethodKind::Gaml] {
        for &budget in budgets {
            let mut outcomes: Vec<MethodOutcome> = (0..repeats.max(1))
                .map(|repeat| {
                    let run_seed = repeat_seed(case_seed, repeat);
                    let outcome = tuner(run_seed).run(method, budget, &wd_obs::NoopRecorder);
                    runs.push((run_seed, budget, outcome.clone()));
                    outcome
                })
                .collect();
            span("bench.select", || {
                outcomes.sort_by(|a, b| a.measured_energy.total_cmp(&b.measured_energy))
            });
            walks.push((method, budget, outcomes.swap_remove(outcomes.len() / 2)));
        }
    }
    CaseRedrive {
        em,
        eml,
        walks,
        runs,
    }
}

/// The host-only and device-only baselines of one case, as the study measures them.
pub fn baselines(platform: &HeterogeneousPlatform, workload: &WorkloadProfile) -> Vec<f64> {
    let measurement = MeasurementEvaluator::new(platform.clone(), workload.clone());
    let measured = Traced::new("platform.measure", "platform.measure_calls", &measurement);
    let accelerators = platform.accelerator_count();
    measured.evaluate_batch(&[
        SystemConfiguration::host_only_baseline_for(accelerators),
        SystemConfiguration::device_only_baseline_for(accelerators),
    ])
}

/// `run_enumeration_sharded` for EM re-driven from `ShardPlan`, `ShardView`,
/// `StoreBackedObjective`, `ParallelEnumeration` and `merge_shard_bests`, with the
/// store behind [`TracedStore`].  Shards run one after another.
pub fn sharded_em<R>(
    platform: &HeterogeneousPlatform,
    workload: &WorkloadProfile,
    grid: &ConfigurationSpace,
    shard_count: usize,
    store: &R,
) -> Result<MethodOutcome, String>
where
    R: ResultStore<SystemConfiguration> + Sync,
{
    span("dist.campaign", || {
        let store = TracedStore(store);
        let measurement = MeasurementEvaluator::new(platform.clone(), workload.clone());
        let measured = Traced::new("platform.measure", "platform.measure_calls", &measurement);
        let total = grid.space_len().ok_or("the grid is not indexed")?;
        let plan = ShardPlan::new(total, shard_count);
        let batch_size = ShardedCampaign::new(shard_count).batch_size;
        let mut bests = Vec::new();
        let mut evaluations = 0;
        let mut stats = CacheStats::default();
        for shard in 0..plan.shard_count() {
            let view = ShardView::lazy(grid, plan.range(shard));
            let backed = StoreBackedObjective::new(&measured, &store);
            let adapted = Traced::new("dist.backed", "dist.backed_calls", &backed);
            let indexed = span("opt.enum", || {
                ParallelEnumeration::with_batch_size(batch_size).try_run_indexed(&view, &adapted)
            })
            .map_err(|error| error.to_string())?;
            count("opt.enum_configs", indexed.outcome.evaluations as u64);
            bests.push((
                view.global_index(indexed.best_index),
                indexed.outcome.best_energy,
            ));
            evaluations += indexed.outcome.evaluations;
            stats += backed.stats();
        }
        let (best_index, best_energy) = merge_shard_bests(bests).ok_or("empty grid")?;
        count("dist.campaign.evaluations", stats.misses as u64);
        store.record_stats(stats);
        store.flush().map_err(|error| error.to_string())?;
        let best_config = grid
            .config_at(best_index)
            .ok_or("best index outside the grid")?;
        count("platform.measure_calls", 1);
        let measured = span("platform.measure", || measurement.measure(&best_config));
        Ok(MethodOutcome {
            method: MethodKind::Em,
            best_config,
            search_energy: best_energy,
            measured_energy: measured.t_host.max(measured.t_device),
            evaluations,
            cache: stats,
            stats: measured.stats,
            trace: OptimizationTrace::new(),
        })
    })
}

/// The genome workloads of a study, labelled by genome name.
pub fn genome_workloads(genomes: &[Genome]) -> Vec<WorkloadProfile> {
    genomes.iter().map(Genome::workload).collect()
}
