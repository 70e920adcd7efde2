//! Performance evaluation of system configurations — implementations of the unified
//! [`wd_opt::Objective`] evaluation layer.
//!
//! An evaluator binds a platform (or trained models) to one workload and scores
//! [`SystemConfiguration`]s; the optimization energy is `max(T_host, T_device)` (the
//! paper's Eq. 2).  Three evaluators are provided, matching the paper's two evaluation
//! modes:
//!
//! * [`MeasurementEvaluator`] — "runs" the configuration on the simulated platform
//!   (stands in for executing the real application on the Emil machine);
//! * [`PredictionEvaluator`] — queries the trained host/device regression models, the
//!   fast evaluation mode that makes EML and SAML possible;
//! * [`TabulatedPredictionEvaluator`] — the same predictions memoized in one time
//!   table per device, prefilled for enumeration ([`PredictionEvaluator::tabulated`])
//!   or filled on first touch for walks ([`PredictionEvaluator::lazy_tabulated`]),
//!   bit-identical to the direct models either way.
//!
//! All implement [`Objective<SystemConfiguration>`] directly, so any optimizer in
//! [`wd_opt`] — enumeration, simulated annealing, the ablation heuristics — consumes
//! them without adapters, and all override [`Objective::evaluate_batch`]:
//! measurement batches go through the platform's parallel
//! [`HeterogeneousPlatform::execute_many`], prediction batches fan out over rayon
//! workers, table batches are sequential probes.  Enumeration never repeats a
//! configuration and runs on the bare evaluator; wrap an evaluator in
//! [`wd_opt::CachedObjective`] only for walks that revisit configurations (SAM).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

use hetero_platform::{
    Affinity, ExecutionRequest, HeterogeneousPlatform, Measurement, WorkloadProfile,
};
use rayon::prelude::*;
use wd_ml::Regressor;
use wd_opt::sync::{read_lock, write_lock};
use wd_opt::{CacheStats, DeltaObjective, Objective, Touched};

use crate::config::{ConfigurationSpace, DeviceSetting, SystemConfiguration};
use crate::features::{device_features, host_features, share_bytes};

/// Per-configuration evaluation state of the delta-evaluable prediction evaluators:
/// the predicted host time plus one predicted time per accelerator — exactly what
/// [`PredictionEvaluator::evaluate_all_times`] returns, retained between neighbour
/// moves so untouched devices are never re-scored.
pub type PredictedTimes = (f64, Vec<f64>);

/// Compose the energy and delta state of one full evaluation from its predicted
/// times — the same max-fold, in the same order, as [`PredictionEvaluator::energy`].
fn compose((host, devices): PredictedTimes) -> (f64, PredictedTimes) {
    let device = devices.iter().copied().fold(0.0, f64::max);
    (host.max(device), (host, devices))
}

/// Re-score `config` against `base`'s retained per-device times: recompute the
/// components `touched` may cover (component 0 is the host, component `i + 1` is
/// accelerator `i`; [`Touched::Unknown`] falls back to diffing the two
/// configurations), copy every other component's time from `state`, and re-compose
/// the energy with the same max-fold, in the same order, as the full evaluation path
/// — so the result is bit-identical to evaluating `config` from scratch.
fn recompose_move(
    base: &SystemConfiguration,
    state: &PredictedTimes,
    config: &SystemConfiguration,
    touched: &Touched,
    host_time: impl FnOnce() -> f64,
    device_time: impl Fn(usize, DeviceSetting) -> f64,
) -> (f64, PredictedTimes) {
    // a state from a differently-shaped configuration cannot be reused
    let comparable = base.accelerator_count() == config.accelerator_count()
        && state.1.len() == config.accelerator_count();
    let host_changed = !comparable
        || (touched.may_touch(0)
            && (config.host_threads != base.host_threads
                || config.host_affinity != base.host_affinity
                || config.host_permille() != base.host_permille()));
    let host = if host_changed { host_time() } else { state.0 };
    let devices: Vec<f64> = config
        .devices()
        .iter()
        .enumerate()
        .map(|(index, &device)| {
            if comparable && !(touched.may_touch(index + 1) && device != base.devices()[index]) {
                state.1[index]
            } else {
                device_time(index, device)
            }
        })
        .collect();
    let device = devices.iter().copied().fold(0.0, f64::max);
    (host.max(device), (host, devices))
}

/// Evaluation by "measurement": one simulated execution per query, bound to one
/// workload.
#[derive(Debug, Clone)]
pub struct MeasurementEvaluator {
    platform: HeterogeneousPlatform,
    workload: WorkloadProfile,
}

impl MeasurementEvaluator {
    /// Evaluate `workload` on the given platform.
    pub fn new(platform: HeterogeneousPlatform, workload: WorkloadProfile) -> Self {
        MeasurementEvaluator { platform, workload }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &HeterogeneousPlatform {
        &self.platform
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Rebind the evaluator to a different workload.
    pub fn with_workload(mut self, workload: WorkloadProfile) -> Self {
        self.workload = workload;
        self
    }

    fn request(config: &SystemConfiguration) -> ExecutionRequest {
        ExecutionRequest {
            partition: config.partition(),
            host: config.host_execution(),
            devices: config.device_executions(),
        }
    }

    /// The full simulated [`Measurement`] of running the workload under `config` —
    /// the exact execution behind [`MeasurementEvaluator::energy`], with the
    /// [`hetero_platform::ExecutionStats`] breakdown kept instead of discarded.
    pub fn measure(&self, config: &SystemConfiguration) -> Measurement {
        self.platform
            .execute(
                &self.workload,
                &config.partition(),
                &config.host_execution(),
                &config.device_executions(),
            )
            .unwrap_or_else(|err| panic!("invalid configuration {config}: {err}"))
    }

    /// Measured `(T_host, T_device)` for running the workload under `config`.
    /// A device that receives no work reports 0.
    pub fn evaluate_times(&self, config: &SystemConfiguration) -> (f64, f64) {
        let measurement = self.measure(config);
        (measurement.t_host, measurement.t_device)
    }

    /// The optimization energy `E = max(T_host, T_device)` (Eq. 2).
    pub fn energy(&self, config: &SystemConfiguration) -> f64 {
        let (host, device) = self.evaluate_times(config);
        host.max(device)
    }
}

impl Objective<SystemConfiguration> for MeasurementEvaluator {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        self.energy(config)
    }

    /// Batched measurement: all configurations are executed in one
    /// [`HeterogeneousPlatform::execute_many`] pass (rayon-parallel, bit-identical to
    /// one-at-a-time execution).
    fn evaluate_batch(&self, configs: &[SystemConfiguration]) -> Vec<f64> {
        let requests: Vec<ExecutionRequest> = configs.iter().map(Self::request).collect();
        self.platform
            .execute_many(&self.workload, &requests)
            .into_iter()
            .zip(configs)
            .map(|(result, config)| {
                let measurement =
                    result.unwrap_or_else(|err| panic!("invalid configuration {config}: {err}"));
                measurement.t_host.max(measurement.t_device)
            })
            .collect()
    }
}

/// Evaluation by machine-learning prediction: one model query per device (one trained
/// model *per accelerator*), bound to one workload.
pub struct PredictionEvaluator {
    host_model: Box<dyn Regressor + Send + Sync>,
    device_models: Vec<Box<dyn Regressor + Send + Sync>>,
    workload: WorkloadProfile,
    /// Fixed overhead added to the device prediction for the offload launch + transfer
    /// of the device share.  The paper's device-side training measurements include the
    /// offload cost, so after training this is zero; it is exposed for experimentation
    /// with models trained on compute-only data.
    device_fixed_overhead: f64,
}

impl PredictionEvaluator {
    /// Build an evaluator for `workload` from a trained host model and one trained
    /// model per accelerator (device order matches the platform's accelerator order).
    pub fn new(
        host_model: Box<dyn Regressor + Send + Sync>,
        device_models: Vec<Box<dyn Regressor + Send + Sync>>,
        workload: WorkloadProfile,
    ) -> Self {
        assert!(
            !device_models.is_empty(),
            "at least one device model is required"
        );
        PredictionEvaluator {
            host_model,
            device_models,
            workload,
            device_fixed_overhead: 0.0,
        }
    }

    /// Number of accelerators this evaluator has models for.
    pub fn device_model_count(&self) -> usize {
        self.device_models.len()
    }

    /// Add a fixed overhead to every device prediction.
    pub fn with_device_overhead(mut self, overhead: f64) -> Self {
        self.device_fixed_overhead = overhead.max(0.0);
        self
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Rebind the evaluator to a different workload (the models depend only on the
    /// platform, not on the particular workload).
    pub fn with_workload(mut self, workload: WorkloadProfile) -> Self {
        self.workload = workload;
        self
    }

    /// Predict the host time for a host share of `bytes` bytes.
    pub fn predict_host(
        &self,
        threads: u32,
        affinity: hetero_platform::Affinity,
        bytes: u64,
    ) -> f64 {
        self.host_model
            .predict_one(&host_features(threads, affinity, bytes))
            .max(0.0)
    }

    /// Predict the time of accelerator `device_index` for a share of `bytes` bytes.
    pub fn predict_device_on(
        &self,
        device_index: usize,
        threads: u32,
        affinity: hetero_platform::Affinity,
        bytes: u64,
    ) -> f64 {
        (self.device_models[device_index].predict_one(&device_features(threads, affinity, bytes))
            + self.device_fixed_overhead)
            .max(0.0)
    }

    /// Predict the time of the first accelerator for a device share of `bytes` bytes.
    pub fn predict_device(
        &self,
        threads: u32,
        affinity: hetero_platform::Affinity,
        bytes: u64,
    ) -> f64 {
        self.predict_device_on(0, threads, affinity, bytes)
    }

    /// Predicted host time plus one predicted time per accelerator for running the
    /// workload under `config`.  A device that receives no work reports 0.
    pub fn evaluate_all_times(&self, config: &SystemConfiguration) -> (f64, Vec<f64>) {
        self.assert_arity(config.accelerator_count());
        let host = self.component_time(0, host_key(config));
        let devices = config
            .devices()
            .iter()
            .enumerate()
            .map(|(index, &device)| self.component_time(index + 1, device_key(device)))
            .collect();
        (host, devices)
    }

    /// Predicted `(T_host, T_device)` for running the workload under `config`, where
    /// `T_device` is the time of the slowest accelerator (matching
    /// [`hetero_platform::Measurement::t_device`]).
    pub fn evaluate_times(&self, config: &SystemConfiguration) -> (f64, f64) {
        let (host, devices) = self.evaluate_all_times(config);
        (host, devices.into_iter().fold(0.0, f64::max))
    }

    /// The optimization energy `E = max(T_host, T_device)` (Eq. 2) under the models.
    pub fn energy(&self, config: &SystemConfiguration) -> f64 {
        let (host, device) = self.evaluate_times(config);
        host.max(device)
    }

    /// The factorized fast path for exhaustive searches over `space`: a
    /// [`TabulatedPredictionEvaluator`] whose per-device time tables are prefilled
    /// with batched, rayon-parallel model queries
    /// ([`TabulatedPredictionEvaluator::prefill`]), so scanning `space` walks no model.
    pub fn tabulated(&self, space: &ConfigurationSpace) -> TabulatedPredictionEvaluator<'_> {
        let table = TabulatedPredictionEvaluator::new(self);
        table.prefill(space);
        table
    }

    /// A [`TabulatedPredictionEvaluator`] whose per-device time tables start empty and
    /// fill on first touch, so a walk pays one model query per *distinct*
    /// `(threads, affinity, share)` triple it ever visits instead of one per device per
    /// move.  A standalone SAML/GAML run ([`crate::MethodRunner::run`] without a
    /// borrowed table) walks a private one; the adaptive refinement controller probes
    /// one directly.
    pub fn lazy_tabulated(&self) -> TabulatedPredictionEvaluator<'_> {
        TabulatedPredictionEvaluator::new(self)
    }

    fn assert_arity(&self, accelerators: usize) {
        assert!(
            accelerators <= self.device_models.len(),
            "{accelerators} accelerators described but only {} device models are trained",
            self.device_models.len()
        );
    }

    /// The time of component `component` (0 is the host, `i + 1` accelerator `i`) under
    /// its own `(threads, affinity, share permille)` setting, exactly as
    /// [`PredictionEvaluator::evaluate_all_times`] computes it: a zero share
    /// short-circuits to 0 without a model query.
    fn component_time(&self, component: usize, (threads, affinity, permille): TableKey) -> f64 {
        let bytes = share_bytes(self.workload.bytes, permille);
        if bytes == 0 {
            0.0
        } else if component == 0 {
            self.predict_host(threads, affinity, bytes)
        } else {
            self.predict_device_on(component - 1, threads, affinity, bytes)
        }
    }
}

impl Objective<SystemConfiguration> for PredictionEvaluator {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        self.energy(config)
    }

    /// Batched prediction: the model queries fan out over rayon workers.
    fn evaluate_batch(&self, configs: &[SystemConfiguration]) -> Vec<f64> {
        configs
            .par_iter()
            .map(|config| self.energy(config))
            .collect()
    }
}

/// Direct-model incremental evaluation: a neighbour move that touched only one
/// device re-queries only that device's model — O(1) model walks per move instead of
/// N + 1 — and re-composes the energy from the retained [`PredictedTimes`],
/// bit-identically to [`PredictionEvaluator::energy`].
impl DeltaObjective<SystemConfiguration> for PredictionEvaluator {
    type State = PredictedTimes;

    fn evaluate_with_state(&self, config: &SystemConfiguration) -> (f64, PredictedTimes) {
        compose(self.evaluate_all_times(config))
    }

    fn evaluate_move(
        &self,
        base: &SystemConfiguration,
        state: &PredictedTimes,
        config: &SystemConfiguration,
        touched: &Touched,
    ) -> (f64, PredictedTimes) {
        self.assert_arity(config.accelerator_count());
        recompose_move(
            base,
            state,
            config,
            touched,
            || self.component_time(0, host_key(config)),
            |index, device| self.component_time(index + 1, device_key(device)),
        )
    }
}

/// The key of one per-device time table: that device's own
/// `(threads, affinity, share permille)` setting.
type TableKey = (u32, Affinity, u32);

/// The host's table key under `config`.
fn host_key(config: &SystemConfiguration) -> TableKey {
    (
        config.host_threads,
        config.host_affinity,
        config.host_permille(),
    )
}

/// An accelerator's table key under its setting `device`.
fn device_key(device: DeviceSetting) -> TableKey {
    (device.threads, device.affinity, device.permille)
}

/// One per-device time table: each entry's predicted time and its index, the
/// entry's insertion rank.  Entries are never removed, so a table of `n` entries
/// holds the indices `0..n`; a [`TableView`] marks the entries its run touched by
/// index.
type TimeTable = HashMap<TableKey, (f64, usize)>;

/// Insert `time` under `key` unless the entry exists; return the entry either way.
fn insert(table: &mut TimeTable, key: TableKey, time: f64) -> (f64, usize) {
    let index = table.len();
    *table.entry(key).or_insert((time, index))
}

/// Number of table entries scored per batched model call of a prefill.
const TABLE_BATCH: usize = 256;

/// The factorized prediction fast path: per-device time tables over the trained
/// models, shared by enumeration (EML, sharded EML) and local-search walks (SAML,
/// GAML, tabu, hill climbing, the adaptive refinement controller).
///
/// The energy `E = max(T_host, max_d T_d)` is *separable*: each device's predicted
/// time depends only on that device's own `(threads, affinity, share)` triple, never
/// on the other devices.  An N-way grid of `|host axis| × Π_d |axis_d| × |splits|`
/// configurations therefore needs only `Σ_d |threads_d| × |affinities_d| × |shares_d|`
/// *distinct* model queries, after which scoring any configuration is a handful of
/// table lookups and a max-fold, with **zero** boosted-tree walks.
///
/// The tables are memoized by value and fill on first touch, so the evaluator is
/// total: any configuration, inside a particular space or not, fills its own entries
/// through the direct model path.  How the tables get filled depends on the search:
///
/// * enumeration visits every entry thousands of times, so
///   [`PredictionEvaluator::tabulated`] fills them up front through
///   [`TabulatedPredictionEvaluator::prefill`] (batched, rayon-parallel
///   [`wd_ml::Regressor::predict_batch`] calls) and the scan adds no model query;
/// * one walk visits too few configurations to amortise a full prefill, so a
///   standalone SAML/GAML run starts from [`PredictionEvaluator::lazy_tabulated`]:
///   a 2 000-iteration SAML walk revisits the same few dozen axis values, and its
///   model cost is bounded by the number of *distinct* triples visited, not by the
///   walk length;
/// * the convergence study runs EML and 48 SAML/GAML walks per case, so it builds
///   one table per case, prefilled with the annealing space, lets EML prefill its
///   grid into the same table, and lends it to every walk
///   ([`crate::MethodRunner::with_table`]): each per-device row is walked once per
///   case instead of once per run.
///
/// Either way every energy is **bit-identical** to [`PredictionEvaluator`]: the
/// tables store exactly what `predict_host` / `predict_device_on` would return, zero
/// shares short-circuit to 0 without a model query, and the max-composition
/// replicates [`PredictionEvaluator::energy`] operation for operation.
///
/// The tables live behind [`RwLock`]s, so one evaluator can be shared across rayon
/// workers (the parallel enumeration, the convergence study's parallel annealing
/// repeats); under a race two workers may redundantly query the model for the same
/// fresh entry — the values are identical, one wins the insert, and
/// [`TabulatedPredictionEvaluator::model_queries`] counts both walks (it reports real
/// model cost, not distinct entries).  The table's counters cover every user; what
/// one `MethodRunner` walk reports as its own cost comes from its per-run view,
/// which counts what a private empty table would have counted for that walk.
///
/// Implements [`DeltaObjective`], so the incremental drivers
/// ([`wd_opt::SimulatedAnnealing::run_delta`] and friends) re-probe only the devices
/// a neighbour move touched: an accepted move costs O(1) table probes and — once the
/// tables are warm — zero model queries.
pub struct TabulatedPredictionEvaluator<'a> {
    inner: &'a PredictionEvaluator,
    /// One table per component: the host's first, then one per trained device model.
    tables: Vec<RwLock<TimeTable>>,
    probes: AtomicUsize,
    model_queries: AtomicUsize,
}

impl<'a> TabulatedPredictionEvaluator<'a> {
    /// Wrap `inner` with empty tables (one for the host, one per trained device model).
    pub fn new(inner: &'a PredictionEvaluator) -> Self {
        TabulatedPredictionEvaluator {
            inner,
            tables: (0..=inner.device_models.len())
                .map(|_| RwLock::new(TimeTable::new()))
                .collect(),
            probes: AtomicUsize::new(0),
            model_queries: AtomicUsize::new(0),
        }
    }

    /// Fill the host table and one table per accelerator with every axis triple of
    /// `space`, through batched, rayon-parallel model calls.  Entries already in a
    /// table are not queried again; each fresh entry counts as one
    /// [`TabulatedPredictionEvaluator::model_queries`] walk (zero shares are filled
    /// for free).  Afterwards a scan of `space` adds no model query.
    ///
    /// # Panics
    ///
    /// Panics if `space` describes more accelerators than `inner` has models for.
    pub fn prefill(&self, space: &ConfigurationSpace) {
        let inner = self.inner;
        inner.assert_arity(space.accelerator_count());

        // distinct share values per simplex position (column 0 is the host)
        let shares_of = |position: usize| {
            let mut shares: Vec<u32> = space.splits.iter().map(|split| split[position]).collect();
            shares.sort_unstable();
            shares.dedup();
            shares
        };

        self.fill_axis(
            &self.tables[0],
            inner.host_model.as_ref(),
            &space.host_threads,
            &space.host_affinities,
            &shares_of(0),
            host_features,
            // exactly `predict_host`: clamp the raw prediction at zero
            &|prediction| prediction.max(0.0),
        );
        let overhead = inner.device_fixed_overhead;
        for (index, axis) in space.device_axes.iter().enumerate() {
            self.fill_axis(
                &self.tables[index + 1],
                inner.device_models[index].as_ref(),
                &axis.threads,
                &axis.affinities,
                &shares_of(index + 1),
                device_features,
                // exactly `predict_device_on`: add the offload overhead, clamp
                &|prediction| (prediction + overhead).max(0.0),
            );
        }
    }

    /// Tabulate one device axis into `table`: zero shares short-circuit to 0 (as the
    /// direct path does), every other missing entry is scored through batched,
    /// rayon-parallel model calls.
    #[allow(clippy::too_many_arguments)] // one axis of `prefill`, spelled out
    fn fill_axis(
        &self,
        table: &RwLock<TimeTable>,
        model: &(dyn Regressor + Send + Sync),
        threads: &[u32],
        affinities: &[Affinity],
        shares: &[u32],
        featurize: fn(u32, Affinity, u64) -> Vec<f64>,
        finish: &(dyn Fn(f64) -> f64 + Sync),
    ) {
        let total_bytes = self.inner.workload.bytes;
        let mut queried: Vec<TableKey> = Vec::new();
        let mut entries = write_lock(table);
        for &t in threads {
            for &a in affinities {
                for &share in shares {
                    let key = (t, a, share);
                    if entries.contains_key(&key) {
                        continue;
                    }
                    if share_bytes(total_bytes, share) == 0 {
                        // a side that receives no work reports 0, without a model query
                        insert(&mut entries, key, 0.0);
                    } else {
                        queried.push(key);
                    }
                }
            }
        }
        drop(entries);

        let predictions: Vec<Vec<f64>> = queried
            .chunks(TABLE_BATCH)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|chunk| {
                let mut width = 0;
                let mut matrix: Vec<f64> = Vec::new();
                for &(t, a, share) in chunk {
                    let row = featurize(t, a, share_bytes(total_bytes, share));
                    width = row.len();
                    matrix.extend(row);
                }
                model
                    .predict_batch(&matrix, width)
                    .into_iter()
                    .map(finish)
                    .collect()
            })
            .collect();
        self.model_queries
            .fetch_add(queried.len(), Ordering::Relaxed);
        let mut table = write_lock(table);
        for (chunk, chunk_predictions) in queried.chunks(TABLE_BATCH).zip(predictions) {
            for (&key, &time) in chunk.iter().zip(&chunk_predictions) {
                insert(&mut table, key, time);
            }
        }
    }

    /// The wrapped direct evaluator.
    pub fn inner(&self) -> &PredictionEvaluator {
        self.inner
    }

    /// Total number of per-device table probes served so far, through the table
    /// itself or through any run's view of it (every energy evaluation performs one
    /// probe for the host plus one per accelerator; a delta re-evaluation probes only
    /// the touched components).  [`TabulatedPredictionEvaluator::prefill`] fills
    /// tables without probing.
    pub fn probes(&self) -> usize {
        self.probes.load(Ordering::Relaxed)
    }

    /// Number of boosted-tree model walks performed so far, by
    /// [`TabulatedPredictionEvaluator::prefill`] and by first-touch fills — the
    /// *entire* model cost of the evaluator, bounded by the number of distinct
    /// `(threads, affinity, share)` triples tabulated (plus any racing duplicate
    /// fills under concurrent use).
    pub fn model_queries(&self) -> usize {
        self.model_queries.load(Ordering::Relaxed)
    }

    /// Total number of table entries memoized so far across the host and all devices.
    pub fn table_len(&self) -> usize {
        self.tables.iter().map(|table| read_lock(table).len()).sum()
    }

    fn counters(&self) -> TableCounters {
        TableCounters {
            probes: self.probes(),
            model_walks: self.model_queries(),
            entries: self.table_len(),
        }
    }

    /// Hit/miss counters at the *per-device probe* granularity: `misses` is the number
    /// of model walks performed (the real evaluation cost), `hits` every probe
    /// answered without one (warm table entries and zero-share short-circuits).
    pub fn stats(&self) -> CacheStats {
        self.counters().stats()
    }

    /// Publish the table counters to `recorder` as `{scope}.lazy.*`: probes served,
    /// boosted-tree model walks, and entries memoized.  Called post-hoc (counters are
    /// read once at the end of a run, never on the evaluation path), so observed runs
    /// stay bit-identical.
    pub fn publish_stats(&self, recorder: &dyn wd_obs::Recorder, scope: &str) {
        self.counters().publish(recorder, scope);
    }

    /// Probe one entry of component `component`'s table, filling it through the
    /// direct model path on first touch (a zero share is filled without a model
    /// walk).  Returns the entry: its time and its index.
    fn probe_entry(&self, component: usize, key: TableKey) -> (f64, usize) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let table = &self.tables[component];
        if let Some(&entry) = read_lock(table).get(&key) {
            return entry;
        }
        let time = self.inner.component_time(component, key);
        if share_bytes(self.inner.workload.bytes, key.2) != 0 {
            self.model_queries.fetch_add(1, Ordering::Relaxed);
        }
        // a racing worker may have filled the entry while we computed; the values are
        // identical (models are deterministic), so first insert wins
        insert(&mut write_lock(table), key, time)
    }

    /// Predicted host time plus one predicted time per accelerator, served from (and
    /// memoized into) the tables — bit-identical to
    /// [`PredictionEvaluator::evaluate_all_times`].
    pub fn evaluate_all_times(&self, config: &SystemConfiguration) -> (f64, Vec<f64>) {
        self.probe_times(config)
    }

    /// Predicted `(T_host, T_device)` where `T_device` is the slowest accelerator —
    /// the oracle shape [`crate::AdaptiveRefinement::refine_with`] consumes.
    pub fn evaluate_times(&self, config: &SystemConfiguration) -> (f64, f64) {
        let (host, devices) = self.probe_times(config);
        (host, devices.into_iter().fold(0.0, f64::max))
    }

    /// The optimization energy `E = max(T_host, max_d T_d)` by table probe +
    /// max-composition — the same fold, in the same order, as
    /// [`PredictionEvaluator::energy`], without collecting the per-device times.
    pub fn energy(&self, config: &SystemConfiguration) -> f64 {
        self.probe_energy(config)
    }
}

/// What a table, or one run's view of it, has served.
struct TableCounters {
    probes: usize,
    model_walks: usize,
    entries: usize,
}

impl TableCounters {
    /// `misses` are the model walks, `hits` every other probe.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.probes.saturating_sub(self.model_walks),
            misses: self.model_walks,
        }
    }

    /// Publish as `{scope}.lazy.probes`, `{scope}.lazy.model_walks` and
    /// `{scope}.lazy.table_entries` (nothing when the recorder is disabled).
    fn publish(&self, recorder: &dyn wd_obs::Recorder, scope: &str) {
        if !recorder.enabled() {
            return;
        }
        recorder.counter(&format!("{scope}.lazy.probes"), self.probes as u64);
        recorder.counter(
            &format!("{scope}.lazy.model_walks"),
            self.model_walks as u64,
        );
        recorder.counter(&format!("{scope}.lazy.table_entries"), self.entries as u64);
    }
}

/// A reader of the per-device time tables: the table itself, or one run's
/// [`TableView`] of it.  Scoring is written once, over this trait, so both score
/// bit-identically.
trait Probe {
    /// The direct evaluator behind the tables.
    fn predictor(&self) -> &PredictionEvaluator;

    /// The time of `component` (0 is the host, `i + 1` accelerator `i`) under `key`.
    fn probe(&self, component: usize, key: TableKey) -> f64;

    /// Host time plus one time per accelerator of `config`.
    fn probe_times(&self, config: &SystemConfiguration) -> PredictedTimes {
        self.predictor().assert_arity(config.accelerator_count());
        let host = self.probe(0, host_key(config));
        let devices = config
            .devices()
            .iter()
            .enumerate()
            .map(|(index, &device)| self.probe(index + 1, device_key(device)))
            .collect();
        (host, devices)
    }

    /// The energy of `config`, without collecting the per-device times.
    fn probe_energy(&self, config: &SystemConfiguration) -> f64 {
        self.predictor().assert_arity(config.accelerator_count());
        let host = self.probe(0, host_key(config));
        let device = config
            .devices()
            .iter()
            .enumerate()
            .map(|(index, &device)| self.probe(index + 1, device_key(device)))
            .fold(0.0, f64::max);
        host.max(device)
    }

    /// Re-score a move from `base`'s retained times, re-probing only the components
    /// `touched` may cover.
    fn probe_move(
        &self,
        base: &SystemConfiguration,
        state: &PredictedTimes,
        config: &SystemConfiguration,
        touched: &Touched,
    ) -> (f64, PredictedTimes) {
        self.predictor().assert_arity(config.accelerator_count());
        recompose_move(
            base,
            state,
            config,
            touched,
            || self.probe(0, host_key(config)),
            |index, device| self.probe(index + 1, device_key(device)),
        )
    }
}

impl Probe for TabulatedPredictionEvaluator<'_> {
    fn predictor(&self) -> &PredictionEvaluator {
        self.inner
    }

    fn probe(&self, component: usize, key: TableKey) -> f64 {
        self.probe_entry(component, key).0
    }
}

impl Objective<SystemConfiguration> for TabulatedPredictionEvaluator<'_> {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        self.probe_energy(config)
    }

    /// Batched scoring: table probes.  Deliberately sequential — a warm probe is
    /// ~ns and the enumeration drivers already spread batches over rayon workers, so
    /// fanning out *inside* the batch would only add thread overhead.
    fn evaluate_batch(&self, configs: &[SystemConfiguration]) -> Vec<f64> {
        configs
            .iter()
            .map(|config| self.probe_energy(config))
            .collect()
    }
}

/// Incremental evaluation over the memoized tables: an accepted move re-probes only
/// the touched components, so long walks cost O(1) probes per move and amortized
/// zero model queries.
impl DeltaObjective<SystemConfiguration> for TabulatedPredictionEvaluator<'_> {
    type State = PredictedTimes;

    fn evaluate_with_state(&self, config: &SystemConfiguration) -> (f64, PredictedTimes) {
        compose(self.probe_times(config))
    }

    fn evaluate_move(
        &self,
        base: &SystemConfiguration,
        state: &PredictedTimes,
        config: &SystemConfiguration,
        touched: &Touched,
    ) -> (f64, PredictedTimes) {
        self.probe_move(base, state, config, touched)
    }
}

/// One run's view of a [`TabulatedPredictionEvaluator`], shared or private: it scores
/// through the table and counts exactly what a private table started empty would
/// count for the same run, whatever the table already held:
///
/// * every probe;
/// * the first touch of each entry with a non-zero share — that private table's
///   model walks;
/// * the distinct entries touched — that private table's entries.
///
/// So a SAML/GAML run reports the same [`crate::MethodOutcome::cache`] and
/// `{scope}.lazy.*` counters over a shared table as over its own.  A view serves one
/// sequential walk; parallel runs each make their own view of the same table.
pub(crate) struct TableView<'t> {
    table: &'t TabulatedPredictionEvaluator<'t>,
    probes: Cell<usize>,
    model_walks: Cell<usize>,
    entries: Cell<usize>,
    /// Per component, a bitset over the table's entry indices: the entries this run
    /// has touched.
    touched: RefCell<Vec<Vec<u64>>>,
}

impl<'t> TableView<'t> {
    /// A fresh view of `table`: nothing touched yet.
    pub(crate) fn new(table: &'t TabulatedPredictionEvaluator<'t>) -> Self {
        TableView {
            table,
            probes: Cell::new(0),
            model_walks: Cell::new(0),
            entries: Cell::new(0),
            touched: RefCell::new(vec![Vec::new(); table.tables.len()]),
        }
    }

    fn counters(&self) -> TableCounters {
        TableCounters {
            probes: self.probes.get(),
            model_walks: self.model_walks.get(),
            entries: self.entries.get(),
        }
    }

    /// The run's counters, as [`TabulatedPredictionEvaluator::stats`] of a private
    /// empty table would report them.
    pub(crate) fn stats(&self) -> CacheStats {
        self.counters().stats()
    }

    /// The run's counters as `{scope}.lazy.*`, as
    /// [`TabulatedPredictionEvaluator::publish_stats`] of a private empty table would
    /// publish them.
    pub(crate) fn publish_stats(&self, recorder: &dyn wd_obs::Recorder, scope: &str) {
        self.counters().publish(recorder, scope);
    }
}

impl Probe for TableView<'_> {
    fn predictor(&self) -> &PredictionEvaluator {
        self.table.inner
    }

    fn probe(&self, component: usize, key: TableKey) -> f64 {
        self.probes.set(self.probes.get() + 1);
        let (time, index) = self.table.probe_entry(component, key);
        let mut touched = self.touched.borrow_mut();
        let words = &mut touched[component];
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if words.len() <= word {
            words.resize(word + 1, 0);
        }
        if words[word] & bit == 0 {
            words[word] |= bit;
            self.entries.set(self.entries.get() + 1);
            // a private table would walk the model here, unless the share is empty
            if share_bytes(self.table.inner.workload.bytes, key.2) != 0 {
                self.model_walks.set(self.model_walks.get() + 1);
            }
        }
        time
    }
}

impl Objective<SystemConfiguration> for TableView<'_> {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        self.probe_energy(config)
    }
}

impl DeltaObjective<SystemConfiguration> for TableView<'_> {
    type State = PredictedTimes;

    fn evaluate_with_state(&self, config: &SystemConfiguration) -> (f64, PredictedTimes) {
        compose(self.probe_times(config))
    }

    fn evaluate_move(
        &self,
        base: &SystemConfiguration,
        state: &PredictedTimes,
        config: &SystemConfiguration,
        touched: &Touched,
    ) -> (f64, PredictedTimes) {
        self.probe_move(base, state, config, touched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_analysis::Genome;
    use hetero_platform::Affinity;

    fn human() -> WorkloadProfile {
        Genome::Human.workload()
    }

    fn evaluator() -> MeasurementEvaluator {
        MeasurementEvaluator::new(HeterogeneousPlatform::emil().without_noise(), human())
    }

    #[test]
    fn energy_is_the_maximum_of_both_times() {
        let evaluator = evaluator();
        let cfg = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            60,
        );
        let (host, device) = evaluator.evaluate_times(&cfg);
        assert!(host > 0.0 && device > 0.0);
        assert_eq!(evaluator.energy(&cfg), host.max(device));
    }

    #[test]
    fn host_only_and_device_only_have_one_sided_times() {
        let evaluator = evaluator();
        let host_only = SystemConfiguration::host_only_baseline();
        let (host, device) = evaluator.evaluate_times(&host_only);
        assert!(host > 0.0);
        assert_eq!(device, 0.0);

        let device_only = SystemConfiguration::device_only_baseline();
        let (host, device) = evaluator.evaluate_times(&device_only);
        assert_eq!(host, 0.0);
        assert!(device > 0.0);
    }

    #[test]
    fn measurement_energy_prefers_balanced_splits_for_large_inputs() {
        let evaluator = evaluator();
        let all_host = evaluator.energy(&SystemConfiguration::host_only_baseline());
        let all_device = evaluator.energy(&SystemConfiguration::device_only_baseline());
        let split = evaluator.energy(&SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            65,
        ));
        assert!(split < all_host);
        assert!(split < all_device);
    }

    #[test]
    fn measurement_batches_match_single_evaluations() {
        let evaluator = evaluator();
        let configs: Vec<SystemConfiguration> = (0..=10u32)
            .map(|p| {
                SystemConfiguration::with_host_percent(
                    48,
                    Affinity::Scatter,
                    240,
                    Affinity::Balanced,
                    p * 10,
                )
            })
            .collect();
        let batched = evaluator.evaluate_batch(&configs);
        for (config, energy) in configs.iter().zip(batched) {
            assert_eq!(energy, evaluator.evaluate(config), "config {config}");
        }
    }

    #[test]
    fn prediction_evaluator_uses_the_models() {
        // dummy models: host predicts 2 s/GB of its share, device predicts 1 s/GB + 0.3 s
        struct PerGb(f64);
        impl Regressor for PerGb {
            fn fit(&mut self, _data: &wd_ml::Dataset) -> Result<(), wd_ml::MlError> {
                Ok(())
            }
            fn predict_one(&self, features: &[f64]) -> f64 {
                self.0 * features[4]
            }
            fn is_fitted(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "per-gb"
            }
        }
        let workload = WorkloadProfile::dna_scan("x", 1_000_000_000);
        let evaluator =
            PredictionEvaluator::new(Box::new(PerGb(2.0)), vec![Box::new(PerGb(1.0))], workload)
                .with_device_overhead(0.3);
        let cfg = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            50,
        );
        let (host, device) = evaluator.evaluate_times(&cfg);
        assert!((host - 1.0).abs() < 1e-9, "host {host}");
        assert!((device - 0.8).abs() < 1e-9, "device {device}");
        assert!((evaluator.energy(&cfg) - 1.0).abs() < 1e-9);

        // zero shares produce zero predictions
        let host_only = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            100,
        );
        let (_, device) = evaluator.evaluate_times(&host_only);
        assert_eq!(device, 0.0);

        // batch evaluation matches single evaluation
        let configs = vec![cfg, host_only];
        assert_eq!(
            evaluator.evaluate_batch(&configs),
            configs
                .iter()
                .map(|c| evaluator.evaluate(c))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tabulated_evaluator_is_bit_identical_and_factorizes_the_queries() {
        use wd_opt::SearchSpace as _;
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);

        let space = crate::config::ConfigurationSpace::tiny();
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);

        let configs = space.enumerate().unwrap();
        let direct: Vec<f64> = configs.iter().map(|c| evaluator.energy(c)).collect();
        let direct_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);

        HOST_CALLS.store(0, Ordering::Relaxed);
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let tabulated = evaluator.tabulated(&space);
        let table_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);
        assert_eq!(tabulated.model_queries(), table_queries);
        // the factorization collapses |grid| × 2 queries to Σ axis sizes
        assert!(
            table_queries * 5 <= direct_queries,
            "tabulation used {table_queries} queries, direct used {direct_queries}"
        );

        for (config, &reference) in configs.iter().zip(&direct) {
            assert_eq!(
                tabulated.energy(config).to_bits(),
                reference.to_bits(),
                "config {config}"
            );
        }
        // scoring the whole prefilled grid consumed zero additional model queries
        assert_eq!(
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed),
            table_queries
        );
        assert_eq!(tabulated.model_queries(), table_queries);

        // a configuration outside the space fills its own entries, identically
        let outside =
            SystemConfiguration::with_host_percent(48, Affinity::None, 240, Affinity::Balanced, 55);
        assert_eq!(
            tabulated.energy(&outside).to_bits(),
            evaluator.energy(&outside).to_bits()
        );
        assert!(tabulated.model_queries() > table_queries);

        // prefilling again queries only entries the tables still lack: none
        let filled = tabulated.model_queries();
        tabulated.prefill(&space);
        assert_eq!(tabulated.model_queries(), filled);

        // the batched path matches too
        let batched = tabulated.evaluate_batch(&configs);
        assert_eq!(batched.len(), direct.len());
        for (a, b) in batched.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A deterministic nonlinear dummy model counting invocations (shared by the
    /// table tests below).
    struct CountingWavy(&'static AtomicUsize);
    impl Regressor for CountingWavy {
        fn fit(&mut self, _data: &wd_ml::Dataset) -> Result<(), wd_ml::MlError> {
            Ok(())
        }
        fn predict_one(&self, features: &[f64]) -> f64 {
            self.0.fetch_add(1, Ordering::Relaxed);
            (features[0] * 0.29).sin().abs() * 0.75 + features[4] * (1.0 + features[1] * 0.125)
        }
        fn is_fitted(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "counting-wavy"
        }
    }

    fn counting_wavy_evaluator(
        host_calls: &'static AtomicUsize,
        device_calls: &'static AtomicUsize,
    ) -> PredictionEvaluator {
        PredictionEvaluator::new(
            Box::new(CountingWavy(host_calls)),
            vec![Box::new(CountingWavy(device_calls))],
            WorkloadProfile::dna_scan("x", 2_500_000_000),
        )
        .with_device_overhead(0.0625)
    }

    #[test]
    fn lazy_tabulation_is_bit_identical_and_memoizes_model_queries() {
        use wd_opt::SearchSpace as _;
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);

        let space = crate::config::ConfigurationSpace::tiny();
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);
        let configs = space.enumerate().unwrap();
        let direct: Vec<f64> = configs.iter().map(|c| evaluator.energy(c)).collect();
        let direct_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);

        HOST_CALLS.store(0, Ordering::Relaxed);
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let lazy = evaluator.lazy_tabulated();
        assert_eq!(lazy.table_len(), 0, "lazy tables start empty");

        // first pass fills the tables, bit-identically to the direct path
        for (config, &reference) in configs.iter().zip(&direct) {
            assert_eq!(lazy.energy(config).to_bits(), reference.to_bits());
        }
        let fill_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);
        assert_eq!(lazy.model_queries(), fill_queries);
        // the factorization collapses |grid| × 2 queries to the distinct axis triples
        assert!(
            fill_queries * 5 <= direct_queries,
            "lazy filled {fill_queries} entries, direct used {direct_queries} queries"
        );

        // second pass is answered entirely from the tables
        for (config, &reference) in configs.iter().zip(&direct) {
            assert_eq!(lazy.energy(config).to_bits(), reference.to_bits());
        }
        assert_eq!(
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed),
            fill_queries,
            "a warm table must not walk the models again"
        );

        // probe-level stats: every evaluation probes host + 1 device
        assert_eq!(lazy.probes(), configs.len() * 4);
        assert_eq!(lazy.stats().misses, fill_queries);
        assert_eq!(lazy.stats().hits, lazy.probes() - fill_queries);

        // a configuration outside the tiny space is memoized by value, identically
        let outside =
            SystemConfiguration::with_host_percent(48, Affinity::None, 240, Affinity::Balanced, 55);
        assert_eq!(
            lazy.energy(&outside).to_bits(),
            evaluator.energy(&outside).to_bits()
        );
    }

    #[test]
    fn a_view_counts_what_a_private_table_counts() {
        use wd_obs::Registry;
        use wd_opt::{GeneticAlgorithm, SimulatedAnnealing};
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);
        let space = crate::config::ConfigurationSpace::tiny();
        let sa = SimulatedAnnealing::with_budget_and_range(300, 2.0, 0.02, 5);
        let ga = GeneticAlgorithm::with_budget(200, 5);
        // one SA walk and one GA walk, each through its own view
        let walk = |[annealing, genetic]: &[TableView<'_>; 2]| {
            (
                sa.run_delta(&space, annealing),
                ga.run_delta(&space, genetic),
            )
        };
        let published = |publish: &dyn Fn(&Registry)| {
            let registry = Registry::new();
            publish(&registry);
            registry.snapshot().counters
        };
        let counters = |views: &[TableView<'_>; 2]| {
            views.each_ref().map(|view| {
                let counters = published(&|registry| view.publish_stats(registry, "walk"));
                (view.stats(), counters)
            })
        };

        // over a fresh table, a view reports exactly that table's own counters
        let fresh = [evaluator.lazy_tabulated(), evaluator.lazy_tabulated()];
        let private_views = fresh.each_ref().map(TableView::new);
        let private = walk(&private_views);
        for (view, table) in private_views.iter().zip(&fresh) {
            assert_eq!(view.stats(), table.stats());
            assert_eq!(
                published(&|registry| view.publish_stats(registry, "walk")),
                published(&|registry| table.publish_stats(registry, "walk"))
            );
            assert!(view.stats().hits > 0 && view.stats().misses > 0);
        }

        // two views of one table prefilled with the space report the same numbers,
        // score the same walks, and walk no further model
        let prefilled = evaluator.tabulated(&space);
        let rows = prefilled.model_queries();
        let shared_views = [TableView::new(&prefilled), TableView::new(&prefilled)];
        let shared = walk(&shared_views);
        assert_eq!(counters(&shared_views), counters(&private_views));
        assert_eq!(prefilled.model_queries(), rows);
        for (a, b) in [(&shared.0, &private.0), (&shared.1, &private.1)] {
            assert_eq!(a.best_config, b.best_config);
            assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits());
            assert_eq!(a.trace.records(), b.trace.records());
        }
    }

    #[test]
    fn delta_moves_recompute_only_touched_devices() {
        use wd_opt::Touched;
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);

        let base = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            120,
            Affinity::Balanced,
            60,
        );
        let device_move = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            60,
        );
        let host_move = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            60,
        );
        // reference energies first, so the counters below see only the delta path
        let expected_base = evaluator.energy(&base);
        let expected_device_move = evaluator.energy(&device_move);
        let expected_host_move = evaluator.energy(&host_move);

        let (energy, state) = evaluator.evaluate_with_state(&base);
        assert_eq!(energy.to_bits(), expected_base.to_bits());

        // a device-only move re-queries only the device model...
        HOST_CALLS.store(0, Ordering::Relaxed);
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let (moved, moved_state) =
            evaluator.evaluate_move(&base, &state, &device_move, &Touched::Components(vec![1]));
        assert_eq!(HOST_CALLS.load(Ordering::Relaxed), 0);
        assert_eq!(DEVICE_CALLS.load(Ordering::Relaxed), 1);
        assert_eq!(moved.to_bits(), expected_device_move.to_bits());

        // ...and Unknown footprints diff the configurations, same result & cost
        let (diffed, _) = evaluator.evaluate_move(&base, &state, &device_move, &Touched::Unknown);
        assert_eq!(diffed.to_bits(), moved.to_bits());
        assert_eq!(HOST_CALLS.load(Ordering::Relaxed), 0);

        // chaining from the moved state works too (host-only move)
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let (chained, _) = evaluator.evaluate_move(
            &device_move,
            &moved_state,
            &host_move,
            &Touched::Components(vec![0]),
        );
        assert_eq!(DEVICE_CALLS.load(Ordering::Relaxed), 0);
        assert_eq!(chained.to_bits(), expected_host_move.to_bits());
    }

    #[test]
    fn crossover_footprints_rescore_children_from_the_first_parents_state() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use wd_opt::SearchSpace as _;

        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);
        let space = crate::config::ConfigurationSpace::paper();
        let mut rng = StdRng::seed_from_u64(0x6a11);

        // the GA's recombination contract: a child scored against its FIRST parent's
        // retained state via the crossover footprint must be bit-identical to scoring
        // it from scratch, for arbitrary parent pairs
        for _ in 0..120 {
            let parent_a = space.random(&mut rng);
            let parent_b = space.random(&mut rng);
            let (child, touched) = space.crossover_move(&parent_a, &parent_b, &mut rng);
            let (_, state) = evaluator.evaluate_with_state(&parent_a);
            let (expected, _) = evaluator.evaluate_with_state(&child);
            let (delta, delta_state) = evaluator.evaluate_move(&parent_a, &state, &child, &touched);
            assert_eq!(delta.to_bits(), expected.to_bits());
            // the re-scored state is itself reusable: a follow-up identity move
            // (empty footprint) reproduces the energy without any model walk
            HOST_CALLS.store(0, Ordering::Relaxed);
            DEVICE_CALLS.store(0, Ordering::Relaxed);
            let (again, _) = evaluator.evaluate_move(
                &child,
                &delta_state,
                &child,
                &wd_opt::Touched::Components(vec![]),
            );
            assert_eq!(again.to_bits(), expected.to_bits());
            assert_eq!(HOST_CALLS.load(Ordering::Relaxed), 0);
            assert_eq!(DEVICE_CALLS.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn prefilled_table_delta_matches_the_direct_delta() {
        use wd_opt::SearchSpace as _;
        use wd_opt::Touched;
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);
        let space = crate::config::ConfigurationSpace::tiny();
        let tabulated = evaluator.tabulated(&space);
        let prefill_queries = tabulated.model_queries();

        let configs = space.enumerate().unwrap();
        let (_, mut state) = tabulated.evaluate_with_state(&configs[0]);
        let mut previous = configs[0].clone();
        for config in configs.iter().skip(1).take(40) {
            let (energy, next) =
                tabulated.evaluate_move(&previous, &state, config, &Touched::Unknown);
            assert_eq!(energy.to_bits(), evaluator.energy(config).to_bits());
            state = next;
            previous = config.clone();
        }
        // the walk stays in the prefilled space, so it walks no model
        assert_eq!(tabulated.model_queries(), prefill_queries);
    }

    #[test]
    fn evaluators_are_objectives() {
        let evaluator = evaluator();
        let cfg = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            120,
            Affinity::Balanced,
            70,
        );
        assert!((Objective::evaluate(&evaluator, &cfg) - evaluator.energy(&cfg)).abs() < 1e-12);

        // and therefore compose with the generic wrappers of the evaluation layer
        let cached = wd_opt::CachedObjective::new(&evaluator);
        assert_eq!(cached.evaluate(&cfg), cached.evaluate(&cfg));
        assert_eq!(cached.stats(), wd_opt::CacheStats { hits: 1, misses: 1 });
    }
}
