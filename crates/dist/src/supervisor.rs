//! The supervised campaign runner: leases, retries with capped backoff, and
//! work-stealing on top of the sharded scan.
//!
//! [`ShardedCampaign::run_supervised`] runs the same partitioned exhaustive scan as
//! [`ShardedCampaign::run`], but every shard attempt executes under supervision:
//!
//! * **Leases + logical clock.**  A shared logical clock ticks once per scan batch;
//!   each worker renews a per-slot lease on every tick (the heartbeat).  A worker
//!   that stalls ([`crate::fault::FaultKind::Stall`]) stops renewing, observes its
//!   own expiry once the clock passes its lease, and fences itself off — emitting
//!   `shard.lease_expired` and failing the attempt.
//! * **Retries with capped exponential backoff.**  A failed attempt is retried up
//!   to [`RetryPolicy::max_attempts`] times, waiting
//!   `min(backoff_base · 2^k, backoff_cap)` logical ticks between tries and
//!   emitting `shard.retried`.
//! * **Work stealing.**  A shard that exhausts its retries is dead; its range goes
//!   to a shared steal queue, and surviving shards (or, as a last resort, the
//!   coordinator itself after the parallel join) take it over, emitting
//!   `shard.stolen`.
//! * **Idempotent resume.**  Every attempt scans store-first: persisted keys are
//!   answered by the store and **never re-evaluated**, so a retry or a thief only
//!   pays for the records the fault actually lost.
//!
//! The hard invariant carries over from the coordinator: under *any* injected
//! [`FaultPlan`] a supervised campaign converges to the bit-identical
//! `(best_config, best_energy, best_index)` of the fault-free run.  Faults only
//! decide *who* evaluates a configuration and *when* — never the value, and never
//! the `(energy, index)` merge order.  Termination is structural: the plan is
//! finite and every failed attempt consumes a scheduled event, so after finitely
//! many failures every range completes.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;

use wd_obs::{FieldValue, NoopRecorder, Recorder};
use wd_opt::sync::lock;
use wd_opt::{better_indexed, CacheStats, Objective, ResilienceStats, SearchSpace, ShardPlan};

use crate::coordinator::{merge_shard_bests, CampaignOutcome, ShardReport, ShardedCampaign};
use crate::error::CampaignError;
use crate::fault::{FaultKind, FaultPlan, FaultyObjective, FaultyStore};
use crate::store::ResultStore;

/// Retry and lease parameters of a supervised campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts a worker makes on one range before giving it up to the steal
    /// queue (at least 1).
    pub max_attempts: usize,
    /// Backoff before the first retry, in logical-clock ticks.
    pub backoff_base: u64,
    /// Upper bound on the backoff, in logical-clock ticks.
    pub backoff_cap: u64,
    /// How many ticks a lease stays valid past its last renewal (the heartbeat
    /// renews once per scan batch).
    pub lease_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: 1,
            backoff_cap: 8,
            lease_ticks: 3,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry_index` (0-based):
    /// `min(backoff_base · 2^retry_index, backoff_cap)` ticks, saturating.
    pub fn backoff_ticks(&self, retry_index: usize) -> u64 {
        let factor = if retry_index >= 63 {
            u64::MAX
        } else {
            1u64 << retry_index
        };
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Why one supervised attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The objective failed to evaluate a batch (nothing was recorded).
    EvalError,
    /// The worker died between batches.
    ShardDeath,
    /// The worker stalled and its lease expired on the logical clock.
    LeaseExpired,
    /// A batch append was torn mid-write (the prefix persisted, the attempt died).
    TornWrite,
}

/// One attempt a worker made on a range, successful or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Executing worker slot (`shard_count` for the coordinator's final drain).
    pub slot: usize,
    /// The slot's cumulative attempt counter at the time.
    pub attempt: usize,
    /// Global enumeration-index range scanned.
    pub range: Range<usize>,
    /// When the range was stolen: the slot that originally owned (and abandoned)
    /// it.
    pub stolen_from: Option<usize>,
    /// `None` for a completed scan, otherwise why the attempt aborted.
    pub failure: Option<FailureReason>,
}

/// How much supervision a campaign needed, beyond the merged result itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Merged attempt/retry/lease/steal counters.
    pub resilience: ResilienceStats,
    /// Store hit/miss counters accumulated by attempts that *failed*.  Misses here
    /// are evaluations whose results were persisted before the fault — the
    /// store-first rescan reuses them, so they are spent once, not wasted.
    pub failed_stats: CacheStats,
    /// Every attempt in deterministic `(slot, attempt)` order.
    pub attempts: Vec<AttemptRecord>,
    /// Worker slots that exhausted their retries on their own range (their ranges
    /// were completed by work-stealing).
    pub dead_slots: Vec<usize>,
    /// Final value of the campaign's logical clock.
    pub final_clock: u64,
}

/// A [`CampaignOutcome`] plus the [`SupervisionReport`] describing how it was won.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedOutcome<C> {
    /// The merged campaign result — bit-identical to the fault-free run.
    pub outcome: CampaignOutcome<C>,
    /// What supervision had to do to get there.
    pub supervision: SupervisionReport,
}

/// A range waiting on the steal queue.
struct StolenRange {
    /// Plan position of the range (reports keep the plan's shard numbering).
    plan_shard: usize,
    /// The slot that abandoned it.
    owner: usize,
    range: Range<usize>,
}

/// One completed scan of a range.
struct ScanSuccess {
    best: Option<(usize, f64)>,
    requests: usize,
    stats: CacheStats,
}

/// Why one scan attempt stopped early.
enum AttemptError {
    /// An injected (or observed) fault — retryable.
    Fault(FailureReason, CacheStats),
    /// A campaign-level error — aborts the whole run.
    Fatal(CampaignError),
}

/// Mutable per-worker bookkeeping.
struct SlotState {
    slot: usize,
    attempt_counter: usize,
    attempts: Vec<AttemptRecord>,
    resilience: ResilienceStats,
    failed_stats: CacheStats,
    dead: bool,
    reports: Vec<ShardReport>,
}

impl SlotState {
    fn new(slot: usize) -> Self {
        SlotState {
            slot,
            attempt_counter: 0,
            attempts: Vec::new(),
            resilience: ResilienceStats::default(),
            failed_stats: CacheStats::default(),
            dead: false,
            reports: Vec::new(),
        }
    }
}

/// Shared supervision state: the logical clock, the per-slot leases, and the steal
/// queue, plus everything read-only the workers need.
struct Shared<'a> {
    clock: AtomicU64,
    leases: Vec<AtomicU64>,
    queue: Mutex<VecDeque<StolenRange>>,
    faults: &'a FaultPlan,
    policy: &'a RetryPolicy,
    recorder: &'a dyn Recorder,
    scope: &'a str,
    batch_size: usize,
}

impl Shared<'_> {
    /// Advance the logical clock by `ticks`, returning the new time.
    fn tick(&self, ticks: u64) -> u64 {
        self.clock
            .fetch_add(ticks, Ordering::Relaxed)
            .wrapping_add(ticks)
    }

    fn renew_lease(&self, slot: usize, now: u64) {
        if let Some(lease) = self.leases.get(slot) {
            lease.store(
                now.saturating_add(self.policy.lease_ticks),
                Ordering::Relaxed,
            );
        }
    }

    fn lease_expired(&self, slot: usize) -> bool {
        match self.leases.get(slot) {
            Some(lease) => self.clock.load(Ordering::Relaxed) > lease.load(Ordering::Relaxed),
            None => true,
        }
    }

    fn pop_stolen(&self) -> Option<StolenRange> {
        lock(&self.queue).pop_front()
    }

    fn push_stolen(&self, stolen: StolenRange) {
        lock(&self.queue).push_back(stolen);
    }

    fn emit_shard_started(&self, slot: usize, range: &Range<usize>) {
        if self.recorder.enabled() {
            self.recorder.event(
                self.scope,
                "shard_started",
                &[
                    ("shard", FieldValue::U64(slot as u64)),
                    ("start", FieldValue::U64(range.start as u64)),
                    ("len", FieldValue::U64(range.len() as u64)),
                ],
            );
        }
    }

    fn emit_shard_completed(&self, report: &ShardReport) {
        if self.recorder.enabled() {
            self.recorder.event(
                self.scope,
                "shard_completed",
                &[
                    ("shard", FieldValue::U64(report.shard_index as u64)),
                    ("best_index", FieldValue::U64(report.best_index as u64)),
                    ("best_energy", FieldValue::F64(report.best_energy)),
                    ("evaluations", FieldValue::U64(report.evaluations as u64)),
                    ("hits", FieldValue::U64(report.stats.hits as u64)),
                    ("misses", FieldValue::U64(report.stats.misses as u64)),
                ],
            );
        }
    }

    fn emit_lease_expired(&self, slot: usize, attempt: usize) {
        if self.recorder.enabled() {
            self.recorder.event(
                self.scope,
                "shard.lease_expired",
                &[
                    ("shard", FieldValue::U64(slot as u64)),
                    ("attempt", FieldValue::U64(attempt as u64)),
                    ("clock", FieldValue::U64(self.clock.load(Ordering::Relaxed))),
                ],
            );
        }
    }

    fn emit_retried(&self, slot: usize, attempt: usize, backoff: u64) {
        if self.recorder.enabled() {
            self.recorder.event(
                self.scope,
                "shard.retried",
                &[
                    ("shard", FieldValue::U64(slot as u64)),
                    ("attempt", FieldValue::U64(attempt as u64)),
                    ("backoff_ticks", FieldValue::U64(backoff)),
                ],
            );
        }
    }

    fn emit_stolen(&self, thief: usize, stolen: &StolenRange) {
        if self.recorder.enabled() {
            self.recorder.event(
                self.scope,
                "shard.stolen",
                &[
                    ("shard", FieldValue::U64(stolen.plan_shard as u64)),
                    ("owner", FieldValue::U64(stolen.owner as u64)),
                    ("thief", FieldValue::U64(thief as u64)),
                    ("start", FieldValue::U64(stolen.range.start as u64)),
                    ("len", FieldValue::U64(stolen.range.len() as u64)),
                ],
            );
        }
    }
}

/// Everything a supervised worker needs: the space, the store-backed evaluation
/// path, and the shared supervision state.
struct Ctx<'a, S: SearchSpace, O: ?Sized, R: ?Sized> {
    space: &'a S,
    materialized: Option<&'a [S::Config]>,
    objective: &'a O,
    store: &'a R,
    shared: Shared<'a>,
}

impl<S, O, R> Ctx<'_, S, O, R>
where
    S: SearchSpace + Sync,
    S::Config: Clone + Send + Sync,
    O: Objective<S::Config> + Sync,
    R: ResultStore<S::Config> + Sync + ?Sized,
{
    /// Materialise the configurations of one batch.
    fn configs_for(&self, range: &Range<usize>) -> Result<Vec<S::Config>, CampaignError> {
        if let Some(all) = self.materialized {
            return all
                .get(range.clone())
                .map(<[S::Config]>::to_vec)
                .ok_or(CampaignError::MissingConfig { index: range.start });
        }
        range
            .clone()
            .map(|index| {
                self.space
                    .config_at(index)
                    .ok_or(CampaignError::MissingConfig { index })
            })
            .collect()
    }

    /// One full scan of `range` as `slot`'s `attempt`-th attempt: store-first
    /// lookups, fallible evaluation, batch-granular heartbeat, and the attempt's
    /// scheduled fault routed through the wrappers.
    fn scan_attempt(
        &self,
        slot: usize,
        attempt: usize,
        range: &Range<usize>,
    ) -> Result<ScanSuccess, AttemptError> {
        let shared = &self.shared;
        let fate = shared.faults.fate(slot, attempt);
        let faulty_objective = FaultyObjective::new(self.objective, fate);
        let faulty_store = FaultyStore::new(self.store, fate);

        let mut best: Option<(usize, f64)> = None;
        let mut requests = 0usize;
        let mut stats = CacheStats::default();
        let mut start = range.start;
        let mut batch_index = 0usize;
        while start < range.end {
            let end = start.saturating_add(shared.batch_size).min(range.end);

            // heartbeat: tick the clock, renew this slot's lease
            let now = shared.tick(1);
            shared.renew_lease(slot, now);

            // scheduled between-batch faults
            if let Some(event) = fate {
                if event.after_batches == batch_index {
                    match event.kind {
                        FaultKind::ShardDeath => {
                            return Err(AttemptError::Fault(FailureReason::ShardDeath, stats));
                        }
                        FaultKind::Stall => {
                            // a stalled worker stops heartbeating; once the clock
                            // passes its lease it observes its own expiry and
                            // fences itself off
                            shared.tick(shared.policy.lease_ticks.saturating_add(1));
                            if shared.lease_expired(slot) {
                                shared.emit_lease_expired(slot, attempt);
                                return Err(AttemptError::Fault(
                                    FailureReason::LeaseExpired,
                                    stats,
                                ));
                            }
                            // the clock only moves forward, so this is unreachable
                            // in practice; a lease that somehow held keeps scanning
                        }
                        FaultKind::EvalError | FaultKind::TornWrite => {}
                    }
                }
            }

            let batch = start..end;
            let configs = self.configs_for(&batch).map_err(AttemptError::Fatal)?;
            requests += configs.len();

            let mut energies = vec![0.0f64; configs.len()];
            let mut pending: Vec<usize> = Vec::new();
            for (offset, found) in faulty_store.lookup_batch(&configs).into_iter().enumerate() {
                match found {
                    Some(energy) => energies[offset] = energy,
                    None => pending.push(offset),
                }
            }
            stats.hits += configs.len() - pending.len();
            if !pending.is_empty() {
                let pending_configs: Vec<S::Config> = pending
                    .iter()
                    .map(|&offset| configs[offset].clone())
                    .collect();
                // evaluate-then-record: an injected evaluation error aborts BEFORE
                // anything reaches the store, so the store never holds a value the
                // fault-free run would not have produced
                let fresh = faulty_objective
                    .try_evaluate_batch(&pending_configs)
                    .map_err(|_| AttemptError::Fault(FailureReason::EvalError, stats))?;
                faulty_store.record_batch(&pending_configs, &fresh);
                stats.misses += pending_configs.len();
                for (&offset, &energy) in pending.iter().zip(&fresh) {
                    energies[offset] = energy;
                }
                if faulty_store.tripped() {
                    // the torn record was evaluated but never persisted; the retry
                    // re-evaluates exactly that configuration
                    return Err(AttemptError::Fault(FailureReason::TornWrite, stats));
                }
            }

            for (offset, &energy) in energies.iter().enumerate() {
                let candidate = (start + offset, energy);
                best = Some(match best {
                    None => candidate,
                    Some(current) => better_indexed(current, candidate),
                });
            }
            start = end;
            batch_index += 1;
        }
        Ok(ScanSuccess {
            best,
            requests,
            stats,
        })
    }

    /// Run `range` to completion for `slot`, retrying with capped backoff.
    /// `Ok(None)` means the retry budget is exhausted (the caller queues the range
    /// for stealing).
    fn run_range(
        &self,
        state: &mut SlotState,
        plan_shard: usize,
        range: Range<usize>,
        stolen_from: Option<usize>,
    ) -> Result<Option<ShardReport>, CampaignError> {
        let shared = &self.shared;
        let mut tries = 0usize;
        loop {
            let attempt = state.attempt_counter;
            state.attempt_counter += 1;
            tries += 1;
            state.resilience.attempts += 1;
            match self.scan_attempt(state.slot, attempt, &range) {
                Ok(success) => {
                    state.attempts.push(AttemptRecord {
                        slot: state.slot,
                        attempt,
                        range: range.clone(),
                        stolen_from,
                        failure: None,
                    });
                    let (best_index, best_energy) = match success.best {
                        Some(best) => best,
                        // plan ranges are never empty, but an empty steal is not
                        // worth a panic either
                        None => return Ok(None),
                    };
                    return Ok(Some(ShardReport {
                        shard_index: plan_shard,
                        range,
                        best_index,
                        best_energy,
                        evaluations: success.requests,
                        stats: success.stats,
                    }));
                }
                Err(AttemptError::Fatal(error)) => return Err(error),
                Err(AttemptError::Fault(reason, partial)) => {
                    state.attempts.push(AttemptRecord {
                        slot: state.slot,
                        attempt,
                        range: range.clone(),
                        stolen_from,
                        failure: Some(reason),
                    });
                    state.failed_stats += partial;
                    if reason == FailureReason::LeaseExpired {
                        state.resilience.lease_expiries += 1;
                    }
                    if tries >= shared.policy.max_attempts.max(1) {
                        return Ok(None);
                    }
                    state.resilience.retries += 1;
                    let backoff = shared.policy.backoff_ticks(tries - 1);
                    shared.tick(backoff);
                    shared.emit_retried(state.slot, state.attempt_counter, backoff);
                }
            }
        }
    }

    /// One worker: scan its own plan range, then drain the steal queue.
    fn work_slot(&self, slot: usize, plan: &ShardPlan) -> Result<SlotState, CampaignError> {
        let mut state = SlotState::new(slot);
        let own = plan.range(slot);
        self.shared.emit_shard_started(slot, &own);
        match self.run_range(&mut state, slot, own.clone(), None)? {
            Some(report) => {
                self.shared.emit_shard_completed(&report);
                state.reports.push(report);
            }
            None => {
                state.dead = true;
                self.shared.push_stolen(StolenRange {
                    plan_shard: slot,
                    owner: slot,
                    range: own,
                });
            }
        }
        if !state.dead {
            while let Some(stolen) = self.shared.pop_stolen() {
                state.resilience.steals += 1;
                self.shared.emit_stolen(slot, &stolen);
                match self.run_range(
                    &mut state,
                    stolen.plan_shard,
                    stolen.range.clone(),
                    Some(stolen.owner),
                )? {
                    Some(report) => state.reports.push(report),
                    // hand it back: another survivor or the final drain takes it
                    None => self.shared.push_stolen(stolen),
                }
            }
        }
        Ok(state)
    }
}

impl ShardedCampaign {
    /// [`ShardedCampaign::run`] under supervision: leases with a logical-clock
    /// heartbeat, capped-exponential-backoff retries, work-stealing of dead
    /// shards, and idempotent store-first resume — with `faults` injected on the
    /// deterministic schedule of the [`FaultPlan`] (pass [`FaultPlan::none`] for a
    /// production run without injection).
    ///
    /// The merged `(best_config, best_energy, best_index)` is **bit-identical** to
    /// the fault-free [`ShardedCampaign::run`] for every plan, policy, shard count
    /// and batch size; keys persisted in `store` are never re-evaluated, so
    /// recovery only pays for what a fault actually lost.
    ///
    /// # Errors
    ///
    /// The same conditions as [`ShardedCampaign::run`], plus
    /// [`CampaignError::RangeAbandoned`] as a defensive backstop if a range could
    /// not be completed by any worker or the coordinator (structurally impossible
    /// under a finite plan).
    pub fn run_supervised<S, O, R>(
        &self,
        space: &S,
        objective: &O,
        store: &R,
        faults: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<SupervisedOutcome<S::Config>, CampaignError>
    where
        S: SearchSpace + Sync,
        S::Config: Clone + Send + Sync,
        O: Objective<S::Config> + Sync,
        R: ResultStore<S::Config> + Sync,
    {
        self.run_supervised_observed(
            space,
            objective,
            store,
            faults,
            policy,
            &NoopRecorder,
            "campaign",
        )
    }

    /// [`ShardedCampaign::run_supervised`] with every supervision decision
    /// published to `recorder` under `scope`: the coordinator lifecycle events
    /// (`shard_started` / `shard_completed` / `merged`) plus
    /// `shard.lease_expired`, `shard.retried` and `shard.stolen`.  The recorder
    /// only observes, so outcomes are bit-identical to the unobserved run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised_observed<S, O, R>(
        &self,
        space: &S,
        objective: &O,
        store: &R,
        faults: &FaultPlan,
        policy: &RetryPolicy,
        recorder: &dyn Recorder,
        scope: &str,
    ) -> Result<SupervisedOutcome<S::Config>, CampaignError>
    where
        S: SearchSpace + Sync,
        S::Config: Clone + Send + Sync,
        O: Objective<S::Config> + Sync,
        R: ResultStore<S::Config> + Sync,
    {
        let (materialized, total) = match space.space_len() {
            Some(len) => (None, len),
            None => {
                let configs = space.enumerate().ok_or(CampaignError::NotEnumerable)?;
                let len = configs.len();
                (Some(configs), len)
            }
        };
        if total == 0 {
            return Err(CampaignError::EmptySpace);
        }
        let plan = ShardPlan::new(total, self.shard_count);
        let slots = plan.shard_count();

        let ctx = Ctx {
            space,
            materialized: materialized.as_deref(),
            objective,
            store,
            shared: Shared {
                clock: AtomicU64::new(0),
                // one lease per worker slot plus one for the coordinator's drain
                leases: (0..=slots).map(|_| AtomicU64::new(0)).collect(),
                queue: Mutex::new(VecDeque::new()),
                faults,
                policy,
                recorder,
                scope,
                batch_size: self.batch_size.max(1),
            },
        };

        let slot_results: Vec<Result<SlotState, CampaignError>> = (0..slots)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|slot| ctx.work_slot(slot, &plan))
            .collect();
        let mut states = Vec::with_capacity(slots + 1);
        for result in slot_results {
            states.push(result?);
        }

        // final drain: ranges still queued (e.g. the last worker died after every
        // survivor already returned) are completed by the coordinator itself,
        // running as the extra worker slot `slots`
        let mut drain = SlotState::new(slots);
        let mut drain_failures = 0usize;
        while let Some(stolen) = ctx.shared.pop_stolen() {
            drain.resilience.steals += 1;
            ctx.shared.emit_stolen(slots, &stolen);
            match self.drain_range(&ctx, &mut drain, &stolen)? {
                Some(report) => drain.reports.push(report),
                None => {
                    // every failure consumes a scheduled fault event, so more
                    // failures than events means the invariant broke — give up
                    // loudly instead of spinning
                    drain_failures += ctx.shared.policy.max_attempts.max(1);
                    if drain_failures > ctx.shared.faults.len() {
                        return Err(CampaignError::RangeAbandoned {
                            range: stolen.range,
                        });
                    }
                    ctx.shared.push_stolen(stolen);
                }
            }
        }
        let final_clock = ctx.shared.clock.load(Ordering::Relaxed);
        states.push(drain);

        // reports in plan order (one completed range per plan shard)
        let mut reports: Vec<ShardReport> = states
            .iter()
            .flat_map(|state| state.reports.iter().cloned())
            .collect();
        reports.sort_by_key(|report| report.range.start);
        let (best_index, best_energy) = merge_shard_bests(reports.iter().map(ShardReport::best))
            .ok_or(CampaignError::EmptySpace)?;
        let stats: CacheStats = reports.iter().map(|report| report.stats).sum();
        let failed_stats: CacheStats = states.iter().map(|state| state.failed_stats).sum();
        let resilience: ResilienceStats = states.iter().map(|state| state.resilience).sum();
        if recorder.enabled() {
            recorder.event(
                scope,
                "merged",
                &[
                    ("shards", FieldValue::U64(reports.len() as u64)),
                    ("best_index", FieldValue::U64(best_index as u64)),
                    ("best_energy", FieldValue::F64(best_energy)),
                    ("hits", FieldValue::U64(stats.hits as u64)),
                    ("misses", FieldValue::U64(stats.misses as u64)),
                ],
            );
        }
        // the audit trail records everything that ran, failed attempts included
        store.record_stats(stats + failed_stats);
        store.flush()?;

        let best_config = match materialized {
            Some(mut configs) => {
                if best_index < configs.len() {
                    configs.swap_remove(best_index)
                } else {
                    return Err(CampaignError::MissingConfig { index: best_index });
                }
            }
            None => space
                .config_at(best_index)
                .ok_or(CampaignError::MissingConfig { index: best_index })?,
        };

        let mut attempts: Vec<AttemptRecord> = states
            .iter()
            .flat_map(|state| state.attempts.iter().cloned())
            .collect();
        attempts.sort_by_key(|a| (a.slot, a.attempt));
        let dead_slots: Vec<usize> = states
            .iter()
            .filter(|state| state.dead)
            .map(|state| state.slot)
            .collect();

        Ok(SupervisedOutcome {
            outcome: CampaignOutcome {
                best_config,
                best_energy,
                best_index,
                evaluations: reports.iter().map(|report| report.evaluations).sum(),
                stats,
                shards: reports,
            },
            supervision: SupervisionReport {
                resilience,
                failed_stats,
                attempts,
                dead_slots,
                final_clock,
            },
        })
    }

    /// One coordinator-drain pass over a stolen range (split out so the generic
    /// bounds stay in one place).
    fn drain_range<S, O, R>(
        &self,
        ctx: &Ctx<'_, S, O, R>,
        drain: &mut SlotState,
        stolen: &StolenRange,
    ) -> Result<Option<ShardReport>, CampaignError>
    where
        S: SearchSpace + Sync,
        S::Config: Clone + Send + Sync,
        O: Objective<S::Config> + Sync,
        R: ResultStore<S::Config> + Sync,
    {
        ctx.run_range(
            drain,
            stolen.plan_shard,
            stolen.range.clone(),
            Some(stolen.owner),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::store::MemoryStore;
    use wd_opt::space::GridSpace;

    fn bowl(config: &(u32, u32)) -> f64 {
        let dx = config.0 as f64 - 13.0;
        let dy = config.1 as f64 - 5.0;
        dx * dx + dy * dy
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            max_attempts: 10,
            backoff_base: 2,
            backoff_cap: 12,
            lease_ticks: 3,
        };
        assert_eq!(policy.backoff_ticks(0), 2);
        assert_eq!(policy.backoff_ticks(1), 4);
        assert_eq!(policy.backoff_ticks(2), 8);
        assert_eq!(policy.backoff_ticks(3), 12, "capped");
        assert_eq!(policy.backoff_ticks(200), 12, "no overflow at huge retries");
    }

    #[test]
    fn fault_free_supervision_matches_the_plain_run() {
        let space = GridSpace {
            width: 23,
            height: 17,
        };
        let reference = ShardedCampaign::new(4)
            .run(&space, &bowl, &MemoryStore::new())
            .unwrap();
        let supervised = ShardedCampaign::new(4)
            .run_supervised(
                &space,
                &bowl,
                &MemoryStore::new(),
                &FaultPlan::none(),
                &RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(supervised.outcome.best_config, reference.best_config);
        assert_eq!(
            supervised.outcome.best_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        assert_eq!(supervised.outcome.best_index, reference.best_index);
        assert_eq!(supervised.outcome.evaluations, 23 * 17);
        assert_eq!(
            supervised.supervision.resilience,
            ResilienceStats {
                attempts: 4,
                ..ResilienceStats::default()
            }
        );
        assert!(supervised.supervision.dead_slots.is_empty());
        assert!(!supervised.supervision.resilience.recovered_from_faults());
    }

    #[test]
    fn every_fault_kind_recovers_to_the_reference_result() {
        let space = GridSpace {
            width: 19,
            height: 11,
        };
        let reference = ShardedCampaign::new(3)
            .run(&space, &bowl, &MemoryStore::new())
            .unwrap();
        for kind in [
            FaultKind::EvalError,
            FaultKind::ShardDeath,
            FaultKind::Stall,
            FaultKind::TornWrite,
        ] {
            let faults = FaultPlan::from_events(vec![FaultEvent {
                slot: 1,
                attempt: 0,
                after_batches: 1,
                kind,
            }]);
            let supervised = ShardedCampaign::new(3)
                .with_batch_size(16)
                .run_supervised(
                    &space,
                    &bowl,
                    &MemoryStore::new(),
                    &faults,
                    &RetryPolicy::default(),
                )
                .unwrap();
            assert_eq!(
                supervised.outcome.best_config, reference.best_config,
                "{kind:?}"
            );
            assert_eq!(
                supervised.outcome.best_energy.to_bits(),
                reference.best_energy.to_bits(),
                "{kind:?}"
            );
            assert_eq!(supervised.outcome.best_index, reference.best_index);
            let resilience = supervised.supervision.resilience;
            assert_eq!(resilience.retries, 1, "{kind:?}");
            assert_eq!(
                resilience.lease_expiries,
                usize::from(kind == FaultKind::Stall),
                "{kind:?}"
            );
            assert_eq!(
                supervised
                    .supervision
                    .attempts
                    .iter()
                    .filter(|attempt| attempt.failure.is_some())
                    .count(),
                1
            );
        }
    }

    #[test]
    fn dead_shards_are_work_stolen_and_the_result_still_matches() {
        let space = GridSpace {
            width: 21,
            height: 13,
        };
        let reference = ShardedCampaign::new(4)
            .run(&space, &bowl, &MemoryStore::new())
            .unwrap();
        // slot 2 dies on every attempt it is allowed: it must be declared dead and
        // its range completed by someone else
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let faults = FaultPlan::from_events(
            (0..2)
                .map(|attempt| FaultEvent {
                    slot: 2,
                    attempt,
                    after_batches: 0,
                    kind: FaultKind::ShardDeath,
                })
                .collect(),
        );
        let supervised = ShardedCampaign::new(4)
            .with_batch_size(8)
            .run_supervised(&space, &bowl, &MemoryStore::new(), &faults, &policy)
            .unwrap();
        assert_eq!(supervised.outcome.best_config, reference.best_config);
        assert_eq!(
            supervised.outcome.best_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        assert_eq!(supervised.supervision.dead_slots, vec![2]);
        assert!(supervised.supervision.resilience.steals >= 1);
        // the stolen range was still completed exactly once per plan shard
        assert_eq!(supervised.outcome.shards.len(), 4);
        let mut next = 0usize;
        for report in &supervised.outcome.shards {
            assert_eq!(report.range.start, next);
            next = report.range.end;
        }
        assert_eq!(next, 21 * 13);
    }

    #[test]
    fn supervision_report_is_deterministically_ordered() {
        let space = GridSpace {
            width: 12,
            height: 12,
        };
        let faults = FaultPlan::random(99, 3, 2, 2);
        let run = || {
            ShardedCampaign::new(3)
                .with_batch_size(10)
                .run_supervised(
                    &space,
                    &bowl,
                    &MemoryStore::new(),
                    &faults,
                    &RetryPolicy::default(),
                )
                .map(|supervised| supervised.supervision.attempts)
        };
        let attempts = run().unwrap();
        for window in attempts.windows(2) {
            assert!(
                (window[0].slot, window[0].attempt) < (window[1].slot, window[1].attempt),
                "attempts are sorted and unique per (slot, attempt)"
            );
        }
    }
}
