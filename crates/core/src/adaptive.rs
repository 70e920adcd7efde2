//! Adaptive workload-aware refinement of the host/device split.
//!
//! The paper closes with "Future work will study adaptive workload-aware approaches."
//! This module provides such an approach as an extension: starting from any system
//! configuration (for example the one SAML suggests), it repeatedly *runs* the
//! configuration, observes the imbalance between `T_host` and `T_device`, and shifts
//! the workload fraction towards the side that finished early — a proportional
//! controller on the split ratio.  Because every step is an actual (simulated)
//! execution, the refinement also corrects residual errors of the prediction model.

use crate::config::SystemConfiguration;
use crate::evaluator::{MeasurementEvaluator, TabulatedPredictionEvaluator};

/// One refinement step.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementStep {
    /// The configuration that was executed.
    pub config: SystemConfiguration,
    /// Host time observed for this configuration.
    pub t_host: f64,
    /// Device time observed for this configuration.
    pub t_device: f64,
    /// Total (max) time observed.
    pub t_total: f64,
}

/// Result of an adaptive refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementOutcome {
    /// The best configuration observed during refinement.
    pub best_config: SystemConfiguration,
    /// Its total execution time.
    pub best_time: f64,
    /// Every step taken, in order.
    pub steps: Vec<RefinementStep>,
}

impl RefinementOutcome {
    /// Number of executions performed.
    pub fn executions(&self) -> usize {
        self.steps.len()
    }

    /// Relative imbalance `|T_host − T_device| / T_total` of the final step
    /// (0 when either side is idle).
    pub fn final_imbalance(&self) -> f64 {
        match self.steps.last() {
            Some(step) if step.t_total > 0.0 && step.t_host > 0.0 && step.t_device > 0.0 => {
                (step.t_host - step.t_device).abs() / step.t_total
            }
            _ => 0.0,
        }
    }
}

/// Proportional controller that refines the workload fraction of a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveRefinement {
    /// Maximum number of refinement executions.
    pub max_steps: usize,
    /// Stop once the relative imbalance between host and device drops below this value.
    pub imbalance_tolerance: f64,
    /// Gain of the proportional controller (fraction of the observed imbalance that is
    /// shifted per step); values in (0, 1].
    pub gain: f64,
}

impl Default for AdaptiveRefinement {
    fn default() -> Self {
        AdaptiveRefinement {
            max_steps: 12,
            imbalance_tolerance: 0.02,
            gain: 0.85,
        }
    }
}

impl AdaptiveRefinement {
    /// Refine `start` by executing on the (simulated) platform via `evaluator`.
    pub fn refine(
        &self,
        evaluator: &MeasurementEvaluator,
        start: SystemConfiguration,
    ) -> RefinementOutcome {
        self.refine_with(|config| evaluator.evaluate_times(config), start)
    }

    /// Refine `start` against the prediction models through the factorized tables
    /// (typically [`crate::PredictionEvaluator::lazy_tabulated`]): every step's
    /// `(T_host, T_device)` comes from memoized per-device entries, so repeated
    /// refinements (e.g. one per SAML suggestion, or a sweep of starting points)
    /// share the walk's table fills instead of re-walking the boosted trees —
    /// bit-identical to refining over
    /// [`crate::PredictionEvaluator::evaluate_times`] directly.
    pub fn refine_predicted(
        &self,
        evaluator: &TabulatedPredictionEvaluator<'_>,
        start: SystemConfiguration,
    ) -> RefinementOutcome {
        self.refine_with(|config| evaluator.evaluate_times(config), start)
    }

    /// Refine `start` with an arbitrary `(T_host, T_device)` oracle.  This is the
    /// generic entry point: pass a closure over any evaluator (for example a
    /// [`crate::PredictionEvaluator`], or a cached/instrumented one).
    pub fn refine_with(
        &self,
        times: impl Fn(&SystemConfiguration) -> (f64, f64),
        start: SystemConfiguration,
    ) -> RefinementOutcome {
        let mut config = start.clone();
        let mut steps = Vec::with_capacity(self.max_steps);
        let mut best_config = start;
        let mut best_time = f64::INFINITY;

        for _ in 0..self.max_steps.max(1) {
            let (t_host, t_device) = times(&config);
            let t_total = t_host.max(t_device);
            steps.push(RefinementStep {
                config: config.clone(),
                t_host,
                t_device,
                t_total,
            });
            if t_total < best_time {
                best_time = t_total;
                best_config = config.clone();
            }

            // One-sided configurations cannot be rebalanced by moving the fraction;
            // stop immediately (the caller picked a host-only or device-only start).
            if t_host == 0.0 || t_device == 0.0 {
                break;
            }
            let imbalance = (t_host - t_device).abs() / t_total;
            if imbalance <= self.imbalance_tolerance {
                break;
            }

            // Shift work away from the slower side proportionally to the imbalance.
            // If the host is slower, its share shrinks by `gain * imbalance` of itself.
            let host_fraction = config.host_fraction();
            let adjustment = self.gain.clamp(0.0, 1.0) * imbalance;
            let new_fraction = if t_host > t_device {
                host_fraction * (1.0 - adjustment)
            } else {
                host_fraction + (1.0 - host_fraction) * adjustment
            };
            let new_permille = (new_fraction * 1000.0).round().clamp(0.0, 1000.0) as u32;
            if new_permille == config.host_permille() {
                break; // converged to the granularity of the fraction parameter
            }
            // rebalances the accelerator shares proportionally, so the controller
            // works unchanged on multi-accelerator configurations
            config = config.with_host_permille(new_permille);
        }

        RefinementOutcome {
            best_config,
            best_time,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_analysis::Genome;
    use hetero_platform::{Affinity, HeterogeneousPlatform};

    fn evaluator(genome: Genome) -> MeasurementEvaluator {
        MeasurementEvaluator::new(
            HeterogeneousPlatform::emil().without_noise(),
            genome.workload(),
        )
    }

    fn start_config(host_percent: u32) -> SystemConfiguration {
        SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            host_percent,
        )
    }

    #[test]
    fn refinement_balances_a_skewed_split() {
        let evaluator = evaluator(Genome::Human);
        let refinement = AdaptiveRefinement::default();
        let outcome = refinement.refine(&evaluator, start_config(95));

        // the refined configuration is clearly better than the skewed start
        let start_time = outcome.steps.first().unwrap().t_total;
        assert!(
            outcome.best_time < start_time * 0.8,
            "refinement should improve a 95/5 split: {} -> {}",
            start_time,
            outcome.best_time
        );
        // and the final step is nearly balanced
        assert!(
            outcome.final_imbalance() < 0.1,
            "imbalance {}",
            outcome.final_imbalance()
        );
        // the refined split lands in the regime the paper's enumeration finds optimal
        let percent = outcome.best_config.host_percent();
        assert!(
            (50.0..=80.0).contains(&percent),
            "refined host share {percent}%"
        );
    }

    #[test]
    fn refinement_approaches_the_enumerated_optimum() {
        let evaluator = evaluator(Genome::Cat);
        // brute-force the best fraction for this thread/affinity choice, through the
        // unified layer's batched path
        use wd_opt::Objective as _;
        let candidates: Vec<SystemConfiguration> = (0..=100u32).map(start_config).collect();
        let best_enumerated = evaluator
            .evaluate_batch(&candidates)
            .into_iter()
            .fold(f64::INFINITY, f64::min);

        let outcome = AdaptiveRefinement::default().refine(&evaluator, start_config(20));
        assert!(
            outcome.best_time <= best_enumerated * 1.05,
            "adaptive refinement ({}) should come within 5% of the best fraction ({})",
            outcome.best_time,
            best_enumerated
        );
        // and it needs only a handful of executions, not 101
        assert!(outcome.executions() <= AdaptiveRefinement::default().max_steps);
    }

    #[test]
    fn one_sided_configurations_terminate_immediately() {
        let evaluator = evaluator(Genome::Dog);
        let outcome = AdaptiveRefinement::default().refine(&evaluator, start_config(100));
        assert_eq!(outcome.executions(), 1);
        assert_eq!(outcome.best_config.host_permille(), 1000);
        assert_eq!(outcome.final_imbalance(), 0.0);
    }

    #[test]
    fn step_budget_is_respected() {
        let evaluator = evaluator(Genome::Mouse);
        let refinement = AdaptiveRefinement {
            max_steps: 3,
            imbalance_tolerance: 0.0,
            gain: 0.3,
        };
        let outcome = refinement.refine(&evaluator, start_config(90));
        assert!(outcome.executions() <= 3);
    }

    #[test]
    fn refine_predicted_matches_the_direct_models_and_shares_tables() {
        use crate::training::TrainingCampaign;
        use wd_ml::BoostingParams;

        let platform = HeterogeneousPlatform::emil();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        let prediction = models.prediction_evaluator(Genome::Human.workload());
        let lazy = prediction.lazy_tabulated();
        let refinement = AdaptiveRefinement::default();

        let fast = refinement.refine_predicted(&lazy, start_config(95));
        let direct =
            refinement.refine_with(|config| prediction.evaluate_times(config), start_config(95));
        assert_eq!(fast.best_config, direct.best_config);
        assert_eq!(fast.best_time.to_bits(), direct.best_time.to_bits());
        assert_eq!(fast.steps, direct.steps);

        // a second refinement re-walks mostly warm table entries
        let warm_queries = lazy.model_queries();
        let again = refinement.refine_predicted(&lazy, start_config(95));
        assert_eq!(again.steps, fast.steps);
        assert_eq!(
            lazy.model_queries(),
            warm_queries,
            "an identical refinement must be answered from the tables"
        );

        // refinements only move the split, so other starts reuse the same
        // thread/affinity axis and still fill few fresh entries
        let other = refinement.refine_predicted(&lazy, start_config(20));
        assert!(other.executions() >= 1);
    }

    #[test]
    fn refine_with_accepts_any_times_oracle() {
        // a synthetic oracle: host time proportional to its share, device to the rest
        let outcome = AdaptiveRefinement::default().refine_with(
            |config| (2.0 * config.host_fraction(), 1.0 * config.device_fraction()),
            start_config(90),
        );
        // the balance point of 2h = (1-h) is h = 1/3
        let percent = outcome.best_config.host_percent();
        assert!(
            (28.0..=38.0).contains(&percent),
            "refined host share {percent}%"
        );
    }
}
