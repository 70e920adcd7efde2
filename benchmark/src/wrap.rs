//! Wrapper types that time and count calls into each layer through its public
//! trait seams: [`Objective`] / [`DeltaObjective`] (platform measurement, core
//! tables, the opt cache, the dist store adapter), [`Regressor`] (ml),
//! [`ResultStore`] (dist) and [`Recorder`] (obs).
//!
//! Every wrapper forwards each call unchanged to the wrapped value, so a run
//! through the wrappers is bit-identical to a run without them; with tracing off
//! (see `trace.rs`) they cost one thread-local flag check per call.

use wd_dist::ResultStore;
use wd_ml::{Dataset, MlError, Regressor};
use wd_obs::{FieldValue, IterationEvent, Recorder};
use wd_opt::{CacheStats, DeltaObjective, Objective, Touched};

use crate::trace::{count, span};

/// An [`Objective`] (and, when the wrapped value is one, [`DeltaObjective`])
/// whose every call runs inside the span `name` and adds the number of
/// configurations scored to the counter `calls`.
pub struct Traced<'a, O: ?Sized> {
    name: &'static str,
    calls: &'static str,
    inner: &'a O,
}

impl<'a, O: ?Sized> Traced<'a, O> {
    pub fn new(name: &'static str, calls: &'static str, inner: &'a O) -> Self {
        Traced { name, calls, inner }
    }
}

impl<C, O: Objective<C> + ?Sized> Objective<C> for Traced<'_, O> {
    fn evaluate(&self, config: &C) -> f64 {
        count(self.calls, 1);
        span(self.name, || self.inner.evaluate(config))
    }

    fn evaluate_batch(&self, configs: &[C]) -> Vec<f64> {
        count(self.calls, configs.len() as u64);
        span(self.name, || self.inner.evaluate_batch(configs))
    }
}

impl<C, O: DeltaObjective<C> + ?Sized> DeltaObjective<C> for Traced<'_, O> {
    type State = O::State;

    fn evaluate_with_state(&self, config: &C) -> (f64, Self::State) {
        count(self.calls, 1);
        span(self.name, || self.inner.evaluate_with_state(config))
    }

    fn evaluate_move(
        &self,
        base: &C,
        state: &Self::State,
        config: &C,
        touched: &Touched,
    ) -> (f64, Self::State) {
        count(self.calls, 1);
        span(self.name, || {
            self.inner.evaluate_move(base, state, config, touched)
        })
    }

    fn evaluate_with_state_batch(&self, configs: &[C]) -> Vec<(f64, Self::State)> {
        count(self.calls, configs.len() as u64);
        span(self.name, || self.inner.evaluate_with_state_batch(configs))
    }

    fn evaluate_move_batch(
        &self,
        moves: &[(&C, &Self::State, &C, &Touched)],
    ) -> Vec<(f64, Self::State)> {
        count(self.calls, moves.len() as u64);
        span(self.name, || self.inner.evaluate_move_batch(moves))
    }
}

/// A [`Regressor`] whose fits run in `ml.fit` and whose predictions run in
/// `ml.predict`, counting calls and predicted rows.
#[derive(Clone)]
pub struct TracedRegressor<M>(pub M);

impl<M: Regressor> Regressor for TracedRegressor<M> {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        span("ml.fit", || self.0.fit(data))
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        count("ml.predict_calls", 1);
        count("ml.predict_rows", 1);
        span("ml.predict", || self.0.predict_one(features))
    }

    fn predict_batch(&self, rows: &[f64], width: usize) -> Vec<f64> {
        count("ml.predict_calls", 1);
        count(
            "ml.predict_rows",
            rows.len().checked_div(width).unwrap_or(0) as u64,
        );
        span("ml.predict", || self.0.predict_batch(rows, width))
    }

    fn is_fitted(&self) -> bool {
        self.0.is_fitted()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A [`ResultStore`] whose lookups, appends and flushes run in `dist.store.*`
/// spans, counting configurations looked up, found and recorded.
pub struct TracedStore<'a, R: ?Sized>(pub &'a R);

impl<C, R: ResultStore<C> + ?Sized> ResultStore<C> for TracedStore<'_, R> {
    fn lookup(&self, config: &C) -> Option<f64> {
        let found = span("dist.store.lookup", || self.0.lookup(config));
        count("dist.store.lookups", 1);
        count("dist.store.hits", u64::from(found.is_some()));
        found
    }

    fn lookup_batch(&self, configs: &[C]) -> Vec<Option<f64>> {
        let found = span("dist.store.lookup", || self.0.lookup_batch(configs));
        count("dist.store.lookups", configs.len() as u64);
        count(
            "dist.store.hits",
            found.iter().filter(|slot| slot.is_some()).count() as u64,
        );
        found
    }

    fn record(&self, config: &C, energy: f64) {
        count("dist.store.records_written", 1);
        span("dist.store.append", || self.0.record(config, energy));
    }

    fn record_batch(&self, configs: &[C], energies: &[f64]) {
        count("dist.store.records_written", configs.len() as u64);
        span("dist.store.append", || {
            self.0.record_batch(configs, energies)
        });
    }

    fn record_stats(&self, stats: CacheStats) {
        span("dist.store.append", || self.0.record_stats(stats));
    }

    fn recorded_stats(&self) -> CacheStats {
        self.0.recorded_stats()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn flush(&self) -> std::io::Result<()> {
        span("dist.store.flush", || self.0.flush())
    }

    fn inject_torn_write(&self, hint: &str) {
        self.0.inject_torn_write(hint);
    }
}

/// A [`Recorder`] whose every emission runs in an `obs.export` span.
pub struct TracedRecorder<'a>(pub &'a dyn Recorder);

impl Recorder for TracedRecorder<'_> {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn counter(&self, name: &str, delta: u64) {
        span("obs.export", || self.0.counter(name, delta));
    }

    fn gauge(&self, name: &str, value: f64) {
        span("obs.export", || self.0.gauge(name, value));
    }

    fn observe(&self, name: &str, value: f64) {
        span("obs.export", || self.0.observe(name, value));
    }

    fn span(&self, name: &str, seconds: f64, fields: &[(&str, FieldValue)]) {
        span("obs.export", || self.0.span(name, seconds, fields));
    }

    fn iteration(&self, scope: &str, event: IterationEvent) {
        span("obs.export", || self.0.iteration(scope, event));
    }

    fn event(&self, scope: &str, kind: &str, fields: &[(&str, FieldValue)]) {
        span("obs.export", || self.0.event(scope, kind, fields));
    }
}
