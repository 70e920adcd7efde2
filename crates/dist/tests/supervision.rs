//! Acceptance tests for the fault-tolerance layer: under any deterministic
//! [`FaultPlan`], a supervised campaign converges to the **bit-identical** best
//! `(config, energy, index)` of the fault-free run, and keys persisted before a
//! fault are **never** re-evaluated — recovery only pays for what the fault lost.
//!
//! The chaos seed is taken from `WD_CHAOS_SEED` when set (the CI chaos job sweeps
//! several), so a failing schedule can be replayed exactly.

use std::collections::HashMap;
use std::sync::Mutex;

use proptest::prelude::*;

use wd_dist::{
    AttemptRecord, FailureReason, FaultEvent, FaultKind, FaultPlan, JsonlStore, MemoryStore,
    ResultStore, RetryPolicy, ShardedCampaign, SupervisionReport,
};
use wd_obs::Registry;
use wd_opt::space::GridSpace;
use wd_opt::{CacheStats, CountingObjective, Objective, ResilienceStats};

/// A deterministic objective with exact ties, so the earliest-index merge rule is
/// exercised under supervision too.
fn quantized(salt: u64) -> impl Fn(&(u32, u32)) -> f64 + Sync {
    move |config: &(u32, u32)| {
        let mixed = (u64::from(config.0) << 32 | u64::from(config.1))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ salt;
        (mixed % 7) as f64
    }
}

/// Counts how often each configuration is evaluated, so re-evaluation of persisted
/// keys is detectable per key (not just in aggregate).
struct TrackingObjective<'a, F> {
    inner: &'a F,
    counts: Mutex<HashMap<(u32, u32), usize>>,
}

impl<'a, F> TrackingObjective<'a, F> {
    fn new(inner: &'a F) -> Self {
        TrackingObjective {
            inner,
            counts: Mutex::new(HashMap::new()),
        }
    }

    fn counts(&self) -> HashMap<(u32, u32), usize> {
        self.counts.lock().unwrap().clone()
    }
}

impl<F: Fn(&(u32, u32)) -> f64 + Sync> Objective<(u32, u32)> for TrackingObjective<'_, F> {
    fn evaluate(&self, config: &(u32, u32)) -> f64 {
        *self.counts.lock().unwrap().entry(*config).or_insert(0) += 1;
        (self.inner)(config)
    }
}

fn chaos_seed() -> u64 {
    std::env::var("WD_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The acceptance invariant: for random spaces, shard counts, batch sizes and
    /// fault plans, the supervised campaign converges to the bit-identical best of
    /// the fault-free run — and no configuration is evaluated more than once,
    /// except the (at most one per torn-write event) records a torn append lost
    /// before they reached the store.
    #[test]
    fn supervised_campaigns_converge_bit_identically_under_random_fault_plans(
        width in 1u32..22,
        height in 1u32..16,
        shards in 1usize..7,
        batch in 1usize..40,
        salt in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
    ) {
        let space = GridSpace { width, height };
        let objective = quantized(salt);
        let reference = ShardedCampaign::new(shards)
            .with_batch_size(batch)
            .run(&space, &objective, &MemoryStore::new())
            .unwrap();

        let faults = FaultPlan::random(plan_seed ^ chaos_seed(), shards, 2, 3);
        let tracking = TrackingObjective::new(&objective);
        let supervised = ShardedCampaign::new(shards)
            .with_batch_size(batch)
            .run_supervised(
                &space,
                &tracking,
                &MemoryStore::new(),
                &faults,
                &RetryPolicy::default(),
            )
            .unwrap();

        prop_assert_eq!(&supervised.outcome.best_config, &reference.best_config);
        prop_assert_eq!(
            supervised.outcome.best_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        prop_assert_eq!(supervised.outcome.best_index, reference.best_index);
        prop_assert_eq!(supervised.outcome.evaluations, (width * height) as usize);

        // persisted keys resume from the store: a key is only ever re-evaluated if
        // a torn write dropped it before it was persisted, and each torn-write
        // event loses at most one record
        let torn_events = faults
            .events()
            .iter()
            .filter(|event| event.kind == FaultKind::TornWrite)
            .count();
        let counts = tracking.counts();
        let extra_evaluations: usize =
            counts.values().map(|&count| count.saturating_sub(1)).sum();
        prop_assert!(
            extra_evaluations <= torn_events,
            "{extra_evaluations} re-evaluations but only {torn_events} torn-write events"
        );
        if torn_events == 0 {
            prop_assert_eq!(
                counts.len(),
                (width * height) as usize,
                "without torn writes every key is evaluated exactly once"
            );
        }
    }
}

/// The supervised runner against a real on-disk store, with every fault kind in one
/// plan: the campaign recovers, the result matches the fault-free reference, and a
/// warm resume afterwards costs zero evaluations.
#[test]
fn supervised_jsonl_campaign_recovers_and_then_resumes_for_free() {
    let path =
        std::env::temp_dir().join(format!("wd_dist-supervision-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let space = GridSpace {
        width: 18,
        height: 9,
    };
    let objective = quantized(41);
    let reference = ShardedCampaign::new(3)
        .run(&space, &objective, &MemoryStore::new())
        .unwrap();

    let faults = FaultPlan::from_events(vec![
        FaultEvent {
            slot: 0,
            attempt: 0,
            after_batches: 1,
            kind: FaultKind::TornWrite,
        },
        FaultEvent {
            slot: 1,
            attempt: 0,
            after_batches: 0,
            kind: FaultKind::ShardDeath,
        },
        FaultEvent {
            slot: 2,
            attempt: 0,
            after_batches: 2,
            kind: FaultKind::Stall,
        },
        FaultEvent {
            slot: 1,
            attempt: 1,
            after_batches: 1,
            kind: FaultKind::EvalError,
        },
    ]);
    {
        let store: JsonlStore<(u32, u32)> = JsonlStore::open(&path).unwrap();
        let supervised = ShardedCampaign::new(3)
            .with_batch_size(8)
            .run_supervised(&space, &objective, &store, &faults, &RetryPolicy::default())
            .unwrap();
        assert_eq!(supervised.outcome.best_config, reference.best_config);
        assert_eq!(
            supervised.outcome.best_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        assert!(supervised.supervision.resilience.recovered_from_faults());
        assert_eq!(
            store.len(),
            18 * 9,
            "every record persisted despite the tear"
        );
    }

    // the injected torn half-record is on disk; a fresh open skips it and the
    // store still answers the whole campaign
    let store: JsonlStore<(u32, u32)> = JsonlStore::open(&path).unwrap();
    assert_eq!(store.skipped_lines(), 1, "the torn fragment is on disk");
    assert_eq!(store.len(), 18 * 9);
    let counting = CountingObjective::new(&objective);
    let warm = ShardedCampaign::new(5)
        .run_supervised(
            &space,
            &counting,
            &store,
            &FaultPlan::none(),
            &RetryPolicy::default(),
        )
        .unwrap();
    assert_eq!(counting.evaluations(), 0, "warm supervised resume is free");
    assert_eq!(warm.outcome.best_config, reference.best_config);
    assert_eq!(
        warm.outcome.best_energy.to_bits(),
        reference.best_energy.to_bits()
    );
    std::fs::remove_file(&path).unwrap();
}

/// Contract: `ShardedCampaign::run_supervised_observed` is bit-identical to
/// `ShardedCampaign::run_supervised` (the recorder only observes), and the
/// supervision events land in the registry.
#[test]
fn sharded_campaign_run_supervised_observed_is_bit_identical_to_run_supervised() {
    let space = GridSpace {
        width: 17,
        height: 11,
    };
    let objective = quantized(7);
    let campaign = ShardedCampaign::new(3).with_batch_size(8);
    let policy = RetryPolicy::default();
    let faults = FaultPlan::from_events(vec![
        FaultEvent {
            slot: 0,
            attempt: 0,
            after_batches: 1,
            kind: FaultKind::Stall,
        },
        FaultEvent {
            slot: 2,
            attempt: 0,
            after_batches: 0,
            kind: FaultKind::EvalError,
        },
    ]);

    let plain = campaign
        .run_supervised(&space, &objective, &MemoryStore::new(), &faults, &policy)
        .unwrap();

    let registry = Registry::new();
    let observed = campaign
        .run_supervised_observed(
            &space,
            &objective,
            &MemoryStore::new(),
            &faults,
            &policy,
            &registry,
            "chaos",
        )
        .unwrap();

    assert_eq!(observed.outcome.best_config, plain.outcome.best_config);
    assert_eq!(
        observed.outcome.best_energy.to_bits(),
        plain.outcome.best_energy.to_bits()
    );
    assert_eq!(observed.outcome.best_index, plain.outcome.best_index);
    assert_eq!(observed.supervision, plain.supervision);

    let events = registry.snapshot().events;
    assert_eq!(events.get("chaos/shard.lease_expired"), Some(&1));
    assert_eq!(events.get("chaos/shard.retried"), Some(&2));
    assert_eq!(events.get("chaos/merged"), Some(&1));
    assert!(events.contains_key("chaos/shard_started"));
    assert!(events.contains_key("chaos/shard_completed"));
}

fn record(
    slot: usize,
    attempt: usize,
    range: std::ops::Range<usize>,
    stolen_from: Option<usize>,
    failure: Option<FailureReason>,
) -> AttemptRecord {
    AttemptRecord {
        slot,
        attempt,
        range,
        stolen_from,
        failure,
    }
}

fn resilience(
    attempts: usize,
    retries: usize,
    lease_expiries: usize,
    steals: usize,
) -> ResilienceStats {
    ResilienceStats {
        attempts,
        retries,
        lease_expiries,
        steals,
    }
}

fn golden_bowl(config: &(u32, u32)) -> f64 {
    let dx = f64::from(config.0) - 13.0;
    let dy = f64::from(config.1) - 5.0;
    dx * dx + dy * dy
}

/// Pinned supervision reports: any change to how attempts are counted, when a
/// range is retried or stolen, or how far the logical clock moves shows up here.
/// The single-fault plans are one slot-1 fault of each kind over 19x11 in 3
/// shards of 16-config batches, under the default policy: no steal, so the
/// whole report is deterministic.
#[test]
fn single_fault_supervision_reports_are_pinned() {
    use FailureReason::*;
    let cases = [
        (FaultKind::EvalError, EvalError, 0, 16, 18),
        (FaultKind::ShardDeath, ShardDeath, 0, 16, 18),
        (FaultKind::Stall, LeaseExpired, 1, 16, 22),
        (FaultKind::TornWrite, TornWrite, 0, 32, 18),
    ];
    for (kind, failure, lease_expiries, failed_misses, final_clock) in cases {
        let faults = FaultPlan::from_events(vec![FaultEvent {
            slot: 1,
            attempt: 0,
            after_batches: 1,
            kind,
        }]);
        let supervised = ShardedCampaign::new(3)
            .with_batch_size(16)
            .run_supervised(
                &GridSpace {
                    width: 19,
                    height: 11,
                },
                &golden_bowl,
                &MemoryStore::new(),
                &faults,
                &RetryPolicy::default(),
            )
            .unwrap();
        let expected = SupervisionReport {
            resilience: resilience(4, 1, lease_expiries, 0),
            failed_stats: CacheStats {
                hits: 0,
                misses: failed_misses,
            },
            attempts: vec![
                record(0, 0, 0..70, None, None),
                record(1, 0, 70..140, None, Some(failure)),
                record(1, 1, 70..140, None, None),
                record(2, 0, 140..209, None, None),
            ],
            dead_slots: vec![],
            final_clock,
        };
        assert_eq!(supervised.supervision, expected, "{kind:?}");
    }
}

/// Pinned reports for three seeded random plans over 12x12 in 3 shards of
/// 10-config batches, with two attempts per range so slots die and their ranges
/// are stolen.  Which survivor steals depends on thread timing, so a plan with a
/// steal pins everything but the attempt log; a plan without one pins it all.
#[test]
fn random_plan_supervision_reports_are_pinned() {
    use FailureReason::*;
    let policy = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    let run = |seed: u64| {
        ShardedCampaign::new(3)
            .with_batch_size(10)
            .run_supervised(
                &GridSpace {
                    width: 12,
                    height: 12,
                },
                &golden_bowl,
                &MemoryStore::new(),
                &FaultPlan::random(seed, 3, 2, 2),
                &policy,
            )
            .unwrap()
            .supervision
    };

    assert_eq!(
        run(3),
        SupervisionReport {
            resilience: resilience(5, 2, 0, 0),
            failed_stats: CacheStats { hits: 0, misses: 0 },
            attempts: vec![
                record(0, 0, 0..48, None, Some(EvalError)),
                record(0, 1, 0..48, None, None),
                record(1, 0, 48..96, None, None),
                record(2, 0, 96..144, None, Some(ShardDeath)),
                record(2, 1, 96..144, None, None),
            ],
            dead_slots: vec![],
            final_clock: 19,
        }
    );

    for (seed, stats, failed_stats, dead_slots, final_clock) in [
        (
            1,
            resilience(6, 2, 2, 1),
            CacheStats {
                hits: 10,
                misses: 30,
            },
            vec![0],
            32,
        ),
        (
            5,
            resilience(8, 3, 1, 2),
            CacheStats {
                hits: 40,
                misses: 70,
            },
            vec![0, 2],
            37,
        ),
    ] {
        let report = run(seed);
        assert_eq!(report.resilience, stats, "seed {seed}");
        assert_eq!(report.failed_stats, failed_stats, "seed {seed}");
        assert_eq!(report.dead_slots, dead_slots, "seed {seed}");
        assert_eq!(report.final_clock, final_clock, "seed {seed}");
    }
}
