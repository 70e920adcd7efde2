//! Supervised campaigns: leases, retries with capped backoff, and work
//! stealing, decided by one state machine and run by two drivers.
//!
//! [`ShardedCampaign::run_supervised`] runs the same partitioned exhaustive scan as
//! [`ShardedCampaign::run`] on rayon workers; [`crate::proc`] runs it on a fleet of
//! worker processes.  Both are thin drivers around `Supervisor`, a pure state
//! machine: no I/O, no threads, and no clock of its own (the driver passes `now`
//! in ticks).  Calls come in — assign work to slot `s` at tick `t`, lease
//! succeeded, lease failed, lease fenced, the fleet now has `n` slots — and
//! decisions go out: a lease to run, a retry with its `ready_at`, a steal, an
//! abandon, or "ignored" when a fenced holder reports late.  The machine owns the
//! range queue, the per-slot attempt counters (the [`FaultPlan::fate`] key), the
//! per-slot generations (the fencing token), every [`RetryPolicy`] decision, and
//! the attempt log behind [`SupervisionReport`].  Its rules, the same for both
//! drivers:
//!
//! * **A retry stays on its slot.**  A failed attempt is retried up to
//!   [`RetryPolicy::max_attempts`] times by the slot that failed it, after
//!   `min(backoff_base · 2^k, backoff_cap)` ticks; the slot takes nothing else
//!   meanwhile, so both drivers see the same `(slot, attempt)` fault keys.
//! * **A slot that exhausts its range is dead.**  It takes no more work, and the
//!   range waits for a live slot to steal it — or is abandoned when no other
//!   live slot is left.
//! * **A stolen range that exhausts its retries is abandoned**
//!   ([`CampaignError::RangeAbandoned`]).  One steal per range bounds the work
//!   whatever the fault plan, so every campaign terminates.
//! * **A fenced holder is ignored.**  Fencing rotates the slot's generation; a
//!   report carrying the old lease changes nothing.
//!
//! The thread driver keeps a shared logical clock that ticks once per scan batch
//! (the heartbeat).  A stalled worker ([`crate::fault::FaultKind::Stall`]) lets
//! its lease lapse, observes the expiry and fails (`shard.lease_expired`); a retry
//! advances the clock by its backoff (`shard.retried`); a steal is announced by
//! the thief (`shard.stolen`), and the coordinator itself finishes whatever is
//! still queued after the join, as the extra slot `shard_count`.  Every attempt
//! scans store-first: persisted keys are answered by the store and **never
//! re-evaluated**, so a retry or a thief only pays for what the fault lost.
//!
//! The hard invariant carries over from the coordinator: under *any* injected
//! [`FaultPlan`] that does not exhaust a stolen range, a supervised campaign
//! converges to the bit-identical `(best_config, best_energy, best_index)` of the
//! fault-free run.  Faults only decide *who* evaluates a configuration and *when*
//! — never the value, and never the `(energy, index)` merge order.

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

/// A range waiting for its next attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending {
    plan_shard: usize,
    range: Range<usize>,
    /// Failed attempts its current owner already spent on it.
    tries: usize,
    stolen_from: Option<usize>,
    /// The only slot that may take it: a pinned plan shard's, or a retry's.
    slot: Option<usize>,
    /// First tick at which it may start.
    ready_at: u64,
}

/// One granted attempt, and the token every report about it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(test, derive(Hash))]
pub(crate) struct Lease {
    pub(crate) slot: usize,
    /// The slot's generation at the grant: the fencing token.
    pub(crate) generation: u64,
    /// The slot's cumulative attempt counter: the [`FaultPlan::fate`] key.
    pub(crate) attempt: usize,
    pub(crate) plan_shard: usize,
    pub(crate) range: Range<usize>,
    /// Failed attempts the range had under its current owner before this one.
    pub(crate) tries: usize,
    pub(crate) stolen_from: Option<usize>,
}

/// The machine's answer to a failed or fenced attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Decision {
    /// The same slot retries the range once the clock reaches `ready_at`.
    Retry { backoff: u64, ready_at: u64 },
    /// The slot is dead; its range waits for a live slot to steal it.
    Steal,
    /// The range cannot be finished, so neither can the campaign.
    Abandon(Range<usize>),
    /// The report came from a fenced holder and changed nothing.
    Ignored,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(test, derive(Hash))]
struct SlotBook {
    generation: u64,
    attempts: usize,
    held: Option<Lease>,
    dead: bool,
}

/// The supervision state machine both campaign drivers run on (see the module
/// docs for its rules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Supervisor {
    policy: RetryPolicy,
    queue: Vec<Pending>,
    slots: Vec<SlotBook>,
    fleet: usize,
    /// Queued ranges at least this long are halved to feed idle slots.
    split_min: Option<usize>,
    /// Ranges split so far.
    pub(crate) splits: usize,
    resilience: ResilienceStats,
    /// Finished attempts, kept in `(slot, attempt)` order.
    log: Vec<AttemptRecord>,
}

impl Supervisor {
    /// A machine over `ranges` for a fleet of `slots`; with `pinned`, range `i`
    /// belongs to slot `i`, otherwise any slot may take any range.
    pub(crate) fn new(
        policy: RetryPolicy,
        ranges: Vec<Range<usize>>,
        pinned: bool,
        slots: usize,
    ) -> Self {
        let queue = (0..)
            .zip(ranges)
            .map(|(plan_shard, range)| Pending {
                plan_shard,
                range,
                tries: 0,
                stolen_from: None,
                slot: pinned.then_some(plan_shard),
                ready_at: 0,
            })
            .collect();
        Supervisor {
            policy,
            queue,
            slots: vec![SlotBook::default(); slots],
            fleet: slots,
            split_min: None,
            splits: 0,
            resilience: ResilienceStats::default(),
            log: Vec::new(),
        }
    }

    /// Halve queued ranges of at least `min_len` whenever idle slots outnumber
    /// them (checked on every [`Supervisor::resize`]).
    pub(crate) fn with_splits(mut self, min_len: usize) -> Self {
        self.split_min = Some(min_len.max(2));
        self
    }

    /// The fleet now has `slots` slots: slots that left release their pinned
    /// work, and queued ranges are split to feed idle capacity.
    pub(crate) fn resize(&mut self, slots: usize) {
        self.fleet = slots;
        if self.slots.len() < slots {
            self.slots.resize(slots, SlotBook::default());
        }
        for pending in &mut self.queue {
            if pending.slot.is_some_and(|slot| slot >= slots) {
                pending.slot = None;
            }
        }
        let Some(min_len) = self.split_min else {
            return;
        };
        let idle = self.slots[..slots]
            .iter()
            .filter(|book| !book.dead && book.held.is_none())
            .count();
        while idle > self.queue.len() {
            let Some(pending) = self
                .queue
                .iter_mut()
                .filter(|p| p.slot.is_none() && p.range.len() >= min_len)
                .max_by_key(|p| p.range.len())
            else {
                break;
            };
            let mid = pending.range.start + pending.range.len() / 2;
            let tail = Pending {
                range: mid..pending.range.end,
                tries: 0,
                ..pending.clone()
            };
            pending.range.end = mid;
            self.queue.push(tail);
            self.splits += 1;
        }
    }

    /// Assign work to `slot` at tick `now`: its pinned range or retry once ready,
    /// otherwise the first ready unpinned range.  `None` while the slot is
    /// outside the fleet, dead, busy, or has nothing ready.
    pub(crate) fn assign(&mut self, slot: usize, now: u64) -> Option<Lease> {
        let book = self.slots.get_mut(slot)?;
        if slot >= self.fleet || book.dead || book.held.is_some() {
            return None;
        }
        let pos = match self.queue.iter().position(|p| p.slot == Some(slot)) {
            Some(pos) => pos,
            None => self.queue.iter().position(|p| p.slot.is_none())?,
        };
        if self.queue[pos].ready_at > now {
            return None;
        }
        let pending = self.queue.remove(pos);
        book.generation += 1;
        let lease = Lease {
            slot,
            generation: book.generation,
            attempt: book.attempts,
            plan_shard: pending.plan_shard,
            range: pending.range,
            tries: pending.tries,
            stolen_from: pending.stolen_from,
        };
        book.attempts += 1;
        book.held = Some(lease.clone());
        self.resilience.attempts += 1;
        Some(lease)
    }

    /// Lease `lease` succeeded; `false` when its holder was fenced (ignored).
    pub(crate) fn succeed(&mut self, lease: &Lease) -> bool {
        self.release(lease, None)
    }

    /// Lease `lease` failed for `reason` at tick `now`.
    pub(crate) fn fail(&mut self, lease: &Lease, reason: FailureReason, now: u64) -> Decision {
        if !self.release(lease, Some(reason)) {
            return Decision::Ignored;
        }
        if reason == FailureReason::LeaseExpired {
            self.resilience.lease_expiries += 1;
        }
        let mut next = Pending {
            plan_shard: lease.plan_shard,
            range: lease.range.clone(),
            tries: lease.tries + 1,
            stolen_from: lease.stolen_from,
            slot: Some(lease.slot),
            ready_at: now,
        };
        let decision = if next.tries < self.policy.max_attempts.max(1) {
            let backoff = self.policy.backoff_ticks(lease.tries);
            next.ready_at = now.saturating_add(backoff);
            self.resilience.retries += 1;
            Decision::Retry {
                backoff,
                ready_at: next.ready_at,
            }
        } else if lease.stolen_from.is_some() || !self.live_slot_besides(lease.slot) {
            return Decision::Abandon(next.range);
        } else {
            if let Some(book) = self.slots.get_mut(lease.slot) {
                book.dead = true;
            }
            self.resilience.steals += 1;
            next.tries = 0;
            next.stolen_from = Some(lease.slot);
            next.slot = None;
            Decision::Steal
        };
        self.queue.push(next);
        decision
    }

    /// Fence `lease` at tick `now` (its holder stopped heartbeating): rotate the
    /// slot's generation and fail the attempt as [`FailureReason::LeaseExpired`].
    /// Returns the slot's new generation with the decision.
    pub(crate) fn fence(&mut self, lease: &Lease, now: u64) -> (u64, Decision) {
        let Some(book) = self.slots.get_mut(lease.slot) else {
            return (0, Decision::Ignored);
        };
        if book.held.as_ref() == Some(lease) {
            book.generation += 1;
        }
        let generation = book.generation;
        (
            generation,
            self.fail(lease, FailureReason::LeaseExpired, now),
        )
    }

    /// End `lease` and log the attempt; `false` when it is not the slot's live
    /// lease (a fenced or finished holder).
    fn release(&mut self, lease: &Lease, failure: Option<FailureReason>) -> bool {
        match self.slots.get_mut(lease.slot) {
            Some(book) if book.held.as_ref() == Some(lease) => book.held = None,
            _ => return false,
        }
        let key = (lease.slot, lease.attempt);
        let pos = self.log.partition_point(|a| (a.slot, a.attempt) < key);
        self.log.insert(
            pos,
            AttemptRecord {
                slot: lease.slot,
                attempt: lease.attempt,
                range: lease.range.clone(),
                stolen_from: lease.stolen_from,
                failure,
            },
        );
        true
    }

    fn live_slot_besides(&self, slot: usize) -> bool {
        (0..self.fleet)
            .any(|other| other != slot && self.slots.get(other).is_some_and(|book| !book.dead))
    }

    /// The first range not completed yet (queued or held), if any.
    pub(crate) fn unfinished(&self) -> Option<Range<usize>> {
        let held = self.slots.iter().filter_map(|book| book.held.as_ref());
        self.queue
            .iter()
            .map(|p| p.range.clone())
            .chain(held.map(|lease| lease.range.clone()))
            .next()
    }

    /// The attempt log as a [`SupervisionReport`], completed by the driver's
    /// store counters of failed attempts and its final clock.
    pub(crate) fn report(&self, failed_stats: CacheStats, final_clock: u64) -> SupervisionReport {
        SupervisionReport {
            resilience: self.resilience,
            failed_stats,
            attempts: self.log.clone(),
            dead_slots: (0..)
                .zip(&self.slots)
                .filter(|(_, book)| book.dead)
                .map(|(slot, _)| slot)
                .collect(),
            final_clock,
        }
    }
}

/// Why one scan attempt stopped early.
enum AttemptError {
    /// An injected (or observed) fault — retryable.
    Fault(FailureReason, CacheStats),
    /// A campaign-level error — aborts the whole run.
    Fatal(CampaignError),
}

/// Everything a supervised worker needs: the space, the store-backed evaluation
/// path, the logical clock, and the state machine the workers share.
struct Ctx<'a, S: SearchSpace, O: ?Sized, R: ?Sized> {
    space: &'a S,
    materialized: Option<&'a [S::Config]>,
    objective: &'a O,
    store: &'a R,
    clock: AtomicU64,
    machine: Mutex<Supervisor>,
    faults: &'a FaultPlan,
    policy: &'a RetryPolicy,
    recorder: &'a dyn Recorder,
    scope: &'a str,
    batch_size: usize,
}

impl<S: SearchSpace, O: ?Sized, R: ?Sized> Ctx<'_, S, O, R> {
    /// Advance the logical clock by `ticks`.
    fn tick(&self, ticks: u64) {
        self.clock.fetch_add(ticks, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    fn emit(&self, kind: &str, fields: &[(&str, FieldValue)]) {
        if self.recorder.enabled() {
            self.recorder.event(self.scope, kind, fields);
        }
    }
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

    /// One full scan of the leased range as the lease's attempt: store-first
    /// lookups, fallible evaluation, batch-granular heartbeat, and the attempt's
    /// scheduled fault routed through the wrappers.
    fn scan_attempt(&self, lease: &Lease) -> Result<ShardReport, AttemptError> {
        let range = &lease.range;
        let fate = self.faults.fate(lease.slot, lease.attempt);
        let faulty_objective = FaultyObjective::new(self.objective, fate);
        let faulty_store = FaultyStore::new(self.store, fate);

        let mut best: Option<(usize, f64)> = None;
        let mut requests = 0usize;
        let mut stats = CacheStats::default();
        let mut start = range.start;
        let mut batch_index = 0usize;
        while start < range.end {
            let end = start.saturating_add(self.batch_size).min(range.end);

            // heartbeat: one tick per batch renews this slot's lease
            self.tick(1);

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
                            self.tick(self.policy.lease_ticks.saturating_add(1));
                            self.emit(
                                "shard.lease_expired",
                                &[
                                    ("shard", FieldValue::U64(lease.slot as u64)),
                                    ("attempt", FieldValue::U64(lease.attempt as u64)),
                                    ("clock", FieldValue::U64(self.now())),
                                ],
                            );
                            return Err(AttemptError::Fault(FailureReason::LeaseExpired, stats));
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
        let (best_index, best_energy) =
            best.ok_or(AttemptError::Fatal(CampaignError::EmptySpace))?;
        Ok(ShardReport {
            shard_index: lease.plan_shard,
            range: range.clone(),
            best_index,
            best_energy,
            evaluations: requests,
            stats,
        })
    }

    /// Run `slot` until the machine has nothing ready for it: its own plan
    /// range, its retries, then ranges stolen from dead slots.  Returns the
    /// completed ranges and the store counters of the failed attempts.
    fn work(&self, slot: usize) -> Result<(Vec<ShardReport>, CacheStats), CampaignError> {
        let mut reports = Vec::new();
        let mut failed_stats = CacheStats::default();
        loop {
            let now = self.now();
            let Some(lease) = lock(&self.machine).assign(slot, now) else {
                return Ok((reports, failed_stats));
            };
            let (start, len) = (lease.range.start as u64, lease.range.len() as u64);
            match (lease.tries, lease.stolen_from) {
                (0, None) => self.emit(
                    "shard_started",
                    &[
                        ("shard", FieldValue::U64(slot as u64)),
                        ("start", FieldValue::U64(start)),
                        ("len", FieldValue::U64(len)),
                    ],
                ),
                (0, Some(owner)) => self.emit(
                    "shard.stolen",
                    &[
                        ("shard", FieldValue::U64(lease.plan_shard as u64)),
                        ("owner", FieldValue::U64(owner as u64)),
                        ("thief", FieldValue::U64(slot as u64)),
                        ("start", FieldValue::U64(start)),
                        ("len", FieldValue::U64(len)),
                    ],
                ),
                _ => {}
            }
            match self.scan_attempt(&lease) {
                Ok(report) => {
                    lock(&self.machine).succeed(&lease);
                    if lease.stolen_from.is_none() {
                        self.emit(
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
                    reports.push(report);
                }
                Err(AttemptError::Fatal(error)) => return Err(error),
                Err(AttemptError::Fault(reason, partial)) => {
                    failed_stats += partial;
                    let decision = lock(&self.machine).fail(&lease, reason, self.now());
                    match decision {
                        Decision::Retry { backoff, .. } => {
                            // waiting out the backoff moves the clock past `ready_at`
                            self.tick(backoff);
                            self.emit(
                                "shard.retried",
                                &[
                                    ("shard", FieldValue::U64(slot as u64)),
                                    ("attempt", FieldValue::U64(lease.attempt as u64 + 1)),
                                    ("backoff_ticks", FieldValue::U64(backoff)),
                                ],
                            );
                        }
                        Decision::Abandon(range) => {
                            return Err(CampaignError::RangeAbandoned { range })
                        }
                        Decision::Steal | Decision::Ignored => {}
                    }
                }
            }
        }
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
    /// and batch size that the campaign survives; keys persisted in `store` are
    /// never re-evaluated, so recovery only pays for what a fault actually lost.
    ///
    /// # Errors
    ///
    /// The same conditions as [`ShardedCampaign::run`], plus
    /// [`CampaignError::RangeAbandoned`] when a stolen range exhausts its retries
    /// too.
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
            clock: AtomicU64::new(0),
            // one slot per plan shard, which owns it, plus the coordinator's
            // final drain
            machine: Mutex::new(Supervisor::new(*policy, plan.ranges(), true, slots + 1)),
            faults,
            policy,
            recorder,
            scope,
            batch_size: self.batch_size.max(1),
        };

        let slot_results: Vec<Result<_, CampaignError>> = (0..slots)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|slot| ctx.work(slot))
            .collect();
        let mut outputs = slot_results.into_iter().collect::<Result<Vec<_>, _>>()?;
        // final drain: ranges still queued (e.g. the last worker died after every
        // survivor already returned) are completed by the coordinator itself,
        // running as the extra worker slot `slots`
        outputs.push(ctx.work(slots)?);
        if let Some(range) = lock(&ctx.machine).unfinished() {
            return Err(CampaignError::RangeAbandoned { range });
        }
        let (reports, failed): (Vec<Vec<ShardReport>>, Vec<CacheStats>) =
            outputs.into_iter().unzip();

        // reports in plan order (one completed range per plan shard)
        let mut reports: Vec<ShardReport> = reports.into_iter().flatten().collect();
        reports.sort_by_key(|report| report.range.start);
        let (best_index, best_energy) = merge_shard_bests(reports.iter().map(ShardReport::best))
            .ok_or(CampaignError::EmptySpace)?;
        let stats: CacheStats = reports.iter().map(|report| report.stats).sum();
        let failed_stats: CacheStats = failed.into_iter().sum();
        let supervision = lock(&ctx.machine).report(failed_stats, ctx.now());
        ctx.emit(
            "merged",
            &[
                ("shards", FieldValue::U64(reports.len() as u64)),
                ("best_index", FieldValue::U64(best_index as u64)),
                ("best_energy", FieldValue::F64(best_energy)),
                ("hits", FieldValue::U64(stats.hits as u64)),
                ("misses", FieldValue::U64(stats.misses as u64)),
            ],
        );
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

        Ok(SupervisedOutcome {
            outcome: CampaignOutcome {
                best_config,
                best_energy,
                best_index,
                evaluations: reports.iter().map(|report| report.evaluations).sum(),
                stats,
                shards: reports,
            },
            supervision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::store::MemoryStore;
    use std::collections::HashMap;
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

    /// One node of the exploration: the machine, the tick, the faults the path
    /// may still inject, and every lease fenced so far (its holder may report
    /// at any later time).
    #[derive(Debug, Clone)]
    struct World {
        machine: Supervisor,
        now: u64,
        faults_left: usize,
        zombies: Vec<Lease>,
    }

    impl World {
        /// What decides the future: queued work with its deadline relative to
        /// now, the slot books, the completed ranges, the fault budget and the
        /// fenced leases.  The attempt log's history and failure reasons do not,
        /// so interleavings that differ only there are explored once.
        fn key(&self) -> Key {
            let machine = &self.machine;
            let queue = machine
                .queue
                .iter()
                .map(|p| {
                    let wait = p.ready_at.saturating_sub(self.now);
                    (p.range.clone(), p.tries, p.stolen_from, p.slot, wait)
                })
                .collect();
            let mut completed: Vec<usize> = machine
                .log
                .iter()
                .filter(|record| record.failure.is_none())
                .map(|record| record.range.start)
                .collect();
            completed.sort_unstable();
            (
                queue,
                machine.slots.clone(),
                completed,
                self.faults_left,
                self.zombies.clone(),
            )
        }
    }

    type QueueKey = Vec<(Range<usize>, usize, Option<usize>, Option<usize>, u64)>;
    type Key = (QueueKey, Vec<SlotBook>, Vec<usize>, usize, Vec<Lease>);

    const REASONS: [FailureReason; 4] = [
        FailureReason::EvalError,
        FailureReason::ShardDeath,
        FailureReason::LeaseExpired,
        FailureReason::TornWrite,
    ];

    /// The invariants every reachable state must hold.
    fn check(world: &World, total: usize) {
        let machine = &world.machine;
        let held: Vec<&Lease> = machine
            .slots
            .iter()
            .filter_map(|book| book.held.as_ref())
            .collect();
        // every index is queued, held by exactly one unfenced lease, or completed
        // exactly once: together they tile the space without overlap
        let mut cover: Vec<Range<usize>> = machine
            .queue
            .iter()
            .map(|pending| pending.range.clone())
            .chain(held.iter().map(|lease| lease.range.clone()))
            .chain(
                machine
                    .log
                    .iter()
                    .filter(|record| record.failure.is_none())
                    .map(|record| record.range.clone()),
            )
            .collect();
        cover.sort_by_key(|range| range.start);
        let mut next = 0;
        for range in &cover {
            assert_eq!(range.start, next, "ranges lost or doubled: {world:?}");
            next = range.end;
        }
        assert_eq!(next, total, "ranges lost: {world:?}");
        // per-slot attempt numbers are consecutive: finished and held attempts
        // are exactly 0..counter
        for (slot, book) in machine.slots.iter().enumerate() {
            let mut seen: Vec<usize> = machine
                .log
                .iter()
                .filter(|record| record.slot == slot)
                .map(|record| record.attempt)
                .chain(book.held.iter().map(|lease| lease.attempt))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..book.attempts).collect::<Vec<_>>(), "{world:?}");
        }
        assert_eq!(machine.resilience.attempts, machine.log.len() + held.len());
        // a report from a fenced token changes no state (checked here rather
        // than expanded as an event, since its successor is this very state)
        for zombie in &world.zombies {
            let mut probe = machine.clone();
            assert!(!probe.succeed(zombie));
            for reason in REASONS {
                assert_eq!(probe.fail(zombie, reason, world.now), Decision::Ignored);
            }
            assert_eq!(probe.fence(zombie, world.now).1, Decision::Ignored);
            assert_eq!(&probe, machine, "a fenced token changed the state");
        }
    }

    /// Every event enabled in `world`: its successor, or the abandoned range.
    fn successors(world: &World) -> Vec<Result<World, Range<usize>>> {
        let mut next = Vec::new();
        for (slot, book) in world.machine.slots.iter().enumerate() {
            if slot >= world.machine.fleet || book.dead || book.held.is_some() {
                continue;
            }
            let mut successor = world.clone();
            if successor.machine.assign(slot, world.now).is_some() {
                next.push(Ok(successor));
            }
        }
        let assignable = !next.is_empty();
        let held = world
            .machine
            .slots
            .iter()
            .filter_map(|book| book.held.clone());
        for lease in held {
            let mut successor = world.clone();
            assert!(successor.machine.succeed(&lease));
            next.push(Ok(successor));
            if world.faults_left == 0 {
                continue;
            }
            let mut outcomes: Vec<(World, Decision)> = REASONS
                .into_iter()
                .map(|reason| {
                    let mut successor = world.clone();
                    let decision = successor.machine.fail(&lease, reason, world.now);
                    (successor, decision)
                })
                .collect();
            let mut fenced = world.clone();
            let (generation, decision) = fenced.machine.fence(&lease, world.now);
            assert!(generation > lease.generation, "fencing rotates the token");
            fenced.zombies.push(lease.clone());
            outcomes.push((fenced, decision));
            for (mut successor, decision) in outcomes {
                successor.faults_left -= 1;
                next.push(match decision {
                    Decision::Abandon(range) => Err(range),
                    Decision::Ignored => panic!("the live holder of {lease:?} was ignored"),
                    Decision::Retry { backoff, ready_at } => {
                        // the retry waits out its backoff on the same slot
                        assert_eq!(ready_at, world.now + backoff);
                        let early = successor.machine.clone().assign(lease.slot, world.now);
                        assert!(backoff == 0 || early.is_none(), "retried before ready_at");
                        Ok(successor)
                    }
                    Decision::Steal => Ok(successor),
                });
            }
        }
        // with no assignment possible, the clock reaches the next backoff deadline
        let deadline = world
            .machine
            .queue
            .iter()
            .map(|pending| pending.ready_at)
            .filter(|&ready_at| ready_at > world.now)
            .min()
            .filter(|_| !assignable);
        if let Some(ready_at) = deadline {
            let mut successor = world.clone();
            successor.now = ready_at;
            next.push(Ok(successor));
        }
        next
    }

    #[derive(Default)]
    struct Exploration {
        /// Every state reached, and whether it is on the current path.
        visited: HashMap<Key, bool>,
        finished: usize,
        abandoned: usize,
    }

    impl Exploration {
        fn explore(&mut self, world: World, total: usize) {
            let key = world.key();
            if let Some(&on_path) = self.visited.get(&key) {
                assert!(!on_path, "a path loops: {world:?}");
                return;
            }
            check(&world, total);
            let next = successors(&world);
            if next.is_empty() {
                // no event left: the campaign must have finished, not be stuck
                assert_eq!(world.machine.unfinished(), None, "stuck: {world:?}");
                self.finished += 1;
                self.visited.insert(key, false);
                return;
            }
            self.visited.insert(key.clone(), true);
            for successor in next {
                match successor {
                    Ok(successor) => self.explore(successor, total),
                    Err(_) => self.abandoned += 1,
                }
            }
            self.visited.insert(key, false);
        }
    }

    /// Depth-first search over every interleaving of assignments, successes,
    /// failures of each kind, fences, late reports from fenced holders and clock
    /// advances, for small fleets in both placements (pinned thread-driver
    /// shards plus the drain slot, and pooled process-driver ranges).
    #[test]
    fn the_machine_is_correct_on_every_interleaving_of_small_fleets() {
        // (max_attempts, ranges, pinned, slots, faults): two and three slots,
        // two to four ranges, up to three faults (four, to reach abandonment);
        // the largest fleets only at two attempts, to keep the search in budget
        let mut configs = vec![(2, 1, true, 2, 4), (2, 2, false, 2, 4)];
        for max_attempts in 2..=3 {
            for owners in 1..=2 {
                configs.push((max_attempts, owners, true, owners + 1, 3));
            }
            for (ranges, slots) in [(2, 2), (3, 2), (2, 3)] {
                configs.push((max_attempts, ranges, false, slots, 3));
            }
        }
        for (ranges, slots) in [(4, 2), (3, 3)] {
            configs.push((2, ranges, false, slots, 3));
        }
        let (mut states, mut abandoned) = (0, 0usize);
        for (max_attempts, ranges, pinned, slots, faults) in configs {
            let policy = RetryPolicy {
                max_attempts,
                ..RetryPolicy::default()
            };
            let world = World {
                machine: Supervisor::new(
                    policy,
                    (0..ranges).map(|i| i..i + 1).collect(),
                    pinned,
                    slots,
                ),
                now: 0,
                faults_left: faults,
                zombies: Vec::new(),
            };
            let mut exploration = Exploration::default();
            exploration.explore(world, ranges);
            assert!(exploration.finished > 0);
            states += exploration.visited.len();
            abandoned += exploration.abandoned;
        }
        assert!(abandoned > 0, "the search reaches abandonment too");
        assert!(states > 10_000, "explored only {states} states");
    }
}
