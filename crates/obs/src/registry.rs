//! The shared in-memory [`Registry`] and its serializable [`MetricsSnapshot`].

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::recorder::{FieldValue, IterationEvent, Recorder};

/// Aggregate of one histogram: count, sum and range of the observed values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl HistogramSummary {
    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn new(value: f64) -> Self {
        HistogramSummary {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    /// Mean of the observed values (0 when nothing was observed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Aggregate of all spans recorded under one name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    /// Number of completed spans.
    pub count: u64,
    /// Total seconds across all spans.
    pub total_seconds: f64,
    /// Shortest span in seconds.
    pub min_seconds: f64,
    /// Longest span in seconds.
    pub max_seconds: f64,
}

impl SpanSummary {
    fn record(&mut self, seconds: f64) {
        self.count += 1;
        self.total_seconds += seconds;
        self.min_seconds = self.min_seconds.min(seconds);
        self.max_seconds = self.max_seconds.max(seconds);
    }

    fn new(seconds: f64) -> Self {
        SpanSummary {
            count: 1,
            total_seconds: seconds,
            min_seconds: seconds,
            max_seconds: seconds,
        }
    }
}

/// Aggregate of the iteration events recorded under one scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationSummary {
    /// Number of iterations recorded.
    pub count: u64,
    /// Number of accepted proposals.
    pub accepted: u64,
    /// Best energy reported by the most recent iteration.
    pub last_best_energy: f64,
}

impl IterationSummary {
    fn record(&mut self, event: IterationEvent) {
        self.count += 1;
        self.accepted += u64::from(event.accepted);
        self.last_best_energy = event.best_energy;
    }

    fn new(event: IterationEvent) -> Self {
        IterationSummary {
            count: 1,
            accepted: u64::from(event.accepted),
            last_best_energy: event.best_energy,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSummary>,
    spans: BTreeMap<String, SpanSummary>,
    iterations: BTreeMap<String, IterationSummary>,
    events: BTreeMap<String, u64>,
}

/// A thread-safe, in-memory metrics aggregator.
///
/// The registry is the standard "collect now, report at the end" recorder: share it
/// (by reference — it is `Sync`) with every observed entry point of a run, then call
/// [`Registry::snapshot`] and serialize the result with [`MetricsSnapshot::to_json`].
/// Per-iteration events are aggregated (count / accepted / last best), not stored —
/// full-fidelity event streams are the [`crate::JsonlExporter`]'s job.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The metric maps, recovering from poisoning: every critical section below
    /// is a sequence of whole-entry inserts and updates, so the maps stay
    /// consistent even if a thread panicked while holding the guard.
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans.clone(),
            iterations: inner.iterations.clone(),
            events: inner.events.clone(),
        }
    }
}

impl Recorder for Registry {
    fn counter(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        inner.gauges.insert(name.to_string(), value);
    }

    fn observe(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(summary) => summary.record(value),
            None => {
                inner
                    .histograms
                    .insert(name.to_string(), HistogramSummary::new(value));
            }
        }
    }

    fn span(&self, name: &str, seconds: f64, fields: &[(&str, FieldValue)]) {
        let mut inner = self.lock();
        match inner.spans.get_mut(name) {
            Some(summary) => summary.record(seconds),
            None => {
                inner
                    .spans
                    .insert(name.to_string(), SpanSummary::new(seconds));
            }
        }
        // numeric span attributes double as gauges so one-shot spans (a method run's
        // evaluations, iterations, ...) show up in the snapshot without extra calls
        for (key, value) in fields {
            let gauge = format!("{name}.{key}");
            let value = match value {
                FieldValue::U64(v) => *v as f64,
                FieldValue::F64(v) => *v,
                FieldValue::Bool(v) => f64::from(u8::from(*v)),
            };
            inner.gauges.insert(gauge, value);
        }
    }

    fn iteration(&self, scope: &str, event: IterationEvent) {
        let mut inner = self.lock();
        match inner.iterations.get_mut(scope) {
            Some(summary) => summary.record(event),
            None => {
                inner
                    .iterations
                    .insert(scope.to_string(), IterationSummary::new(event));
            }
        }
    }

    fn event(&self, scope: &str, kind: &str, _fields: &[(&str, FieldValue)]) {
        let mut inner = self.lock();
        *inner.events.entry(format!("{scope}/{kind}")).or_insert(0) += 1;
    }
}

/// A point-in-time copy of a [`Registry`], serializable to JSON without any external
/// dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (last written value).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Span summaries by name.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Iteration summaries by scope.
    pub iterations: BTreeMap<String, IterationSummary>,
    /// Structured-event counts by `scope/kind`.
    pub events: BTreeMap<String, u64>,
}

/// Schema identifier stamped into serialized metrics snapshots.  `v2` pairs every
/// decimal `f64` with a `<name>_bits` sibling holding the exact IEEE-754 bit
/// pattern (the decimal is for human eyes; the bits are authoritative on replay).
pub const METRICS_SCHEMA_VERSION: &str = "wd-obs-metrics/v2";

impl MetricsSnapshot {
    /// Serialize the snapshot as a pretty-printed JSON report (hand-rolled — the
    /// workspace has no serde).  Keys are emitted in sorted order, so two snapshots
    /// of the same run serialize identically, and every `f64` carries a `_bits`
    /// hex sibling for exact round-trips.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA_VERSION}\",\n"));

        out.push_str("  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |count| format!("{count}"));
        out.push_str("  },\n");

        out.push_str("  \"gauges\": {");
        push_entries(&mut out, self.gauges.iter(), |gauge| {
            let pair = json_f64_pair("value", *gauge);
            format!("{{{pair}}}")
        });
        out.push_str("  },\n");

        out.push_str("  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |h| {
            let count = h.count;
            let fields = [
                json_f64_pair("sum", h.sum),
                json_f64_pair("min", h.min),
                json_f64_pair("max", h.max),
                json_f64_pair("mean", h.mean()),
            ];
            format!("{{\"count\": {count}, {}}}", fields.join(", "))
        });
        out.push_str("  },\n");

        out.push_str("  \"spans\": {");
        push_entries(&mut out, self.spans.iter(), |s| {
            let count = s.count;
            let fields = [
                json_f64_pair("total_seconds", s.total_seconds),
                json_f64_pair("min_seconds", s.min_seconds),
                json_f64_pair("max_seconds", s.max_seconds),
            ];
            format!("{{\"count\": {count}, {}}}", fields.join(", "))
        });
        out.push_str("  },\n");

        out.push_str("  \"iterations\": {");
        push_entries(&mut out, self.iterations.iter(), |i| {
            let count = i.count;
            let accepted = i.accepted;
            let energy = json_f64_pair("last_best_energy", i.last_best_energy);
            format!("{{\"count\": {count}, \"accepted\": {accepted}, {energy}}}")
        });
        out.push_str("  },\n");

        out.push_str("  \"events\": {");
        push_entries(&mut out, self.events.iter(), |count| format!("{count}"));
        out.push_str("  }\n");

        out.push_str("}\n");
        out
    }
}

/// Format an `f64` as a JSON-safe token: Rust's shortest round-trip decimal, with
/// non-finite values quoted (JSON has no literal for them).  Callers pair it with
/// a `_bits` hex sibling via [`json_f64_pair`].
fn json_f64(value: f64) -> String {
    let decimal = value.to_string();
    if value.is_finite() {
        decimal
    } else {
        format!("\"{decimal}\"")
    }
}

/// Render `"name": <decimal>, "name_bits": "<hex>"` — the decimal for humans, the
/// exact bit pattern for replay.
fn json_f64_pair(name: &str, value: f64) -> String {
    format!(
        "\"{name}\": {decimal}, \"{name}_bits\": \"{value_bits:016x}\"",
        decimal = json_f64(value),
        value_bits = value.to_bits()
    )
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    render: impl Fn(&V) -> String,
) {
    let mut first = true;
    for (key, entry) in entries {
        if first {
            out.push('\n');
            first = false;
        } else {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    \"{}\": {}",
            crate::escape_json(key),
            render(entry)
        ));
    }
    if !first {
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(best: f64, accepted: bool) -> IterationEvent {
        IterationEvent {
            iteration: 0,
            proposed_energy: best,
            current_energy: best,
            best_energy: best,
            temperature: 1.0,
            accepted,
        }
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let registry = Registry::new();
        registry.counter("hits", 2);
        registry.counter("hits", 3);
        registry.gauge("temp", 1.5);
        registry.gauge("temp", 0.5);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["hits"], 5);
        assert_eq!(snapshot.gauges["temp"], 0.5);
    }

    #[test]
    fn histograms_and_spans_summarize() {
        let registry = Registry::new();
        for v in [1.0, 3.0, 2.0] {
            registry.observe("energy", v);
        }
        registry.span("run", 0.5, &[("iterations", FieldValue::U64(10))]);
        registry.span("run", 1.5, &[]);
        let snapshot = registry.snapshot();
        let h = snapshot.histograms["energy"];
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        let s = snapshot.spans["run"];
        assert_eq!(s.count, 2);
        assert!((s.total_seconds - 2.0).abs() < 1e-12);
        // span fields double as gauges
        assert_eq!(snapshot.gauges["run.iterations"], 10.0);
    }

    #[test]
    fn iterations_and_events_aggregate_per_scope() {
        let registry = Registry::new();
        registry.iteration("saml", event(5.0, true));
        registry.iteration("saml", event(4.0, false));
        registry.event("campaign", "shard_started", &[]);
        registry.event("campaign", "shard_started", &[]);
        registry.event("campaign", "merged", &[]);
        let snapshot = registry.snapshot();
        let i = snapshot.iterations["saml"];
        assert_eq!(i.count, 2);
        assert_eq!(i.accepted, 1);
        assert_eq!(i.last_best_energy, 4.0);
        assert_eq!(snapshot.events["campaign/shard_started"], 2);
        assert_eq!(snapshot.events["campaign/merged"], 1);
    }

    #[test]
    fn snapshot_serializes_to_deterministic_json() {
        let registry = Registry::new();
        registry.counter("b", 1);
        registry.counter("a", 2);
        registry.gauge("g", 0.25);
        registry.observe("h", 2.0);
        registry.span("s", 0.125, &[]);
        let a = registry.snapshot().to_json();
        let b = registry.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.contains(&format!("\"schema\": \"{METRICS_SCHEMA_VERSION}\"")));
        // sorted keys: "a" before "b"
        let pos_a = a.find("\"a\": 2").unwrap();
        let pos_b = a.find("\"b\": 1").unwrap();
        assert!(pos_a < pos_b);
        // every decimal f64 carries its exact bit pattern as a sibling field
        assert!(a.contains("\"g\": {\"value\": 0.25, \"value_bits\": \"3fd0000000000000\"}"));
        assert!(a.contains("\"min_seconds\": 0.125, \"min_seconds_bits\": \"3fc0000000000000\""));
    }

    #[test]
    fn non_finite_gauges_serialize_quoted() {
        let registry = Registry::new();
        registry.gauge("inf", f64::INFINITY);
        let json = registry.snapshot().to_json();
        assert!(
            json.contains("\"inf\": {\"value\": \"inf\", \"value_bits\": \"7ff0000000000000\"}")
        );
    }

    #[test]
    fn a_poisoned_registry_keeps_recording() {
        let registry = Registry::new();
        registry.counter("n", 1);
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = registry.inner.lock();
                    panic!("poison the metrics registry");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(registry.inner.is_poisoned());
        registry.counter("n", 2);
        registry.span("run", 0.5, &[]);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["n"], 3);
        assert_eq!(snapshot.spans["run"].count, 1);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let registry = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        registry.counter("n", 1);
                    }
                });
            }
        });
        assert_eq!(registry.snapshot().counters["n"], 400);
    }
}
