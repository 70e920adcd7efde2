//! The four workloads, each in an untraced form (the end-to-end metrics) and a
//! traced form (the per-layer metrics).
//!
//! Every workload reports the same end-to-end metrics for its own operation:
//!
//! | workload          | set-up                               | operation                          |
//! |-------------------|--------------------------------------|------------------------------------|
//! | `paper-repro`     | platform + training campaign + fit   | one convergence study              |
//! | `grid-campaign`   | platform + `MethodRunner` EM answers  | cold EM campaigns, every genome    |
//! | `grid-resume`     | as above + the cold campaigns        | warm resumes of those stores       |
//! | `observed-tuning` | platform + training campaign + fit   | one observed tuning request        |

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dna_analysis::Genome;
use hetero_autotune::experiments::ConvergenceStudy;
use hetero_autotune::{
    campaign_context, run_enumeration_sharded, workload_mix, CaseConvergence, ConfigurationSpace,
    MethodKind, MethodOutcome, MethodRunner, TrainedModels,
};
use hetero_platform::{HeterogeneousPlatform, WorkloadProfile};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use wd_bench::{PaperStudy, Scale};
use wd_dist::JsonlStore;
use wd_obs::{EventLog, JsonlExporter, ObsEvent};

use crate::redrive::{self, genome_workloads, same_outcome, Tuner};
use crate::report::{guarded, median, peak_rss_mb, percentile, Lap, Metrics, Stopwatch, Tally};
use crate::speed::{Gauge, REFERENCE_SECONDS};
use crate::trace::{self, count, span, TraceReport};
use crate::wrap::TracedRecorder;

/// How much work one run does.
pub struct Size {
    /// Whether this is the paper's scale (then the study runs through
    /// `ConvergenceStudy::run`, exactly as `PaperStudy::run` does).
    pub paper: bool,
    pub scale: Scale,
    pub genomes: Vec<Genome>,
    pub budgets: Vec<usize>,
    pub repeats: usize,
    pub grid: ConfigurationSpace,
    pub space: ConfigurationSpace,
    /// Input sizes of the synthetic workload kinds in the tuning stream.
    pub mix_bytes: Vec<u64>,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Operations per run at least, however short `--seconds` is.
    pub min_ops: usize,
    /// Tuning requests in the traced run.
    pub traced_requests: usize,
    /// Repetitions of the traced run; its timings are their medians.
    pub trace_reps: usize,
}

impl Size {
    /// The paper's proportions: 7 200-experiment campaign, 19 926-point grid,
    /// 57 267-point annealing space, budgets 250..=2000, four genomes.
    pub fn paper() -> Self {
        Size {
            paper: true,
            scale: Scale::Paper,
            genomes: Genome::ALL.to_vec(),
            budgets: Scale::Paper.budgets(),
            repeats: 3,
            grid: ConfigurationSpace::enumeration_grid(),
            space: ConfigurationSpace::paper(),
            mix_bytes: vec![500_000_000, 2_000_000_000],
            setup_reps: 5,
            min_ops: 3,
            traced_requests: 64,
            trace_reps: 3,
        }
    }

    /// A few-second smoke size for the self-test.
    pub fn tiny() -> Self {
        Size {
            paper: false,
            scale: Scale::Quick,
            genomes: vec![Genome::Human, Genome::Cat],
            budgets: vec![60, 120],
            repeats: 2,
            grid: ConfigurationSpace::tiny(),
            space: ConfigurationSpace::tiny(),
            mix_bytes: vec![200_000_000],
            setup_reps: 2,
            min_ops: 2,
            traced_requests: 6,
            trace_reps: 1,
        }
    }
}

/// One benchmark run: its inputs and what it has found so far.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Directory for stores and event files, removed at the end of the run.
    pub scratch: PathBuf,
    pub tally: Tally,
    pub metrics: Metrics,
    pub notes: Vec<String>,
    /// The machine's speed, read between operations (see `speed.rs`).
    pub gauge: Gauge,
}

/// The laps of one operation, timed apart so that the speed gauge can be read
/// between them; the operation's time is their sum.
type OpLaps = Vec<Lap>;

/// Run `op` until the run's `seconds` of wall time have passed and at least
/// `min_ops` operations ran, reading the speed gauge before the first operation
/// and after each.  `op` gets the run, the operation's index and whether a
/// set-up is due before it (see [`SetupPacer`]), and returns the laps it wants
/// counted.  The window is wall time, so that a run lasts as long as it is asked
/// to however much of it the machine gives the process.
fn measure(run: &mut Run, mut op: impl FnMut(&mut Run, usize, bool) -> OpLaps) -> Vec<OpLaps> {
    let mut pacer = SetupPacer::new(&run.size, run.seconds);
    let window = Instant::now();
    let mut samples = Vec::new();
    run.gauge.read();
    while samples.len() < run.size.min_ops || seconds_since(window) < run.seconds {
        let setup_due = pacer.due(seconds_since(window));
        samples.push(op(run, samples.len(), setup_due));
        run.gauge.read();
    }
    samples
}

/// Spreads the repeated set-ups of a run evenly over its measured window, so
/// that `setup_s` samples the same spells of machine load as the operations do
/// instead of only the first seconds of the process.
pub struct SetupPacer {
    remaining: usize,
    spacing: f64,
    next: f64,
}

impl SetupPacer {
    /// `size.setup_reps - 1` more set-ups over a window of `seconds` (the first
    /// one runs before the window, to build the operation's inputs).
    fn new(size: &Size, seconds: f64) -> Self {
        let remaining = size.setup_reps.saturating_sub(1);
        let spacing = seconds / (remaining + 1) as f64;
        SetupPacer {
            remaining,
            spacing,
            next: spacing,
        }
    }

    /// Whether a set-up is due once `elapsed` seconds of the window have passed.
    fn due(&mut self, elapsed: f64) -> bool {
        let due = self.remaining > 0 && elapsed >= self.next;
        if due {
            self.remaining -= 1;
            self.next += self.spacing;
        }
        due
    }
}

/// A lap's seconds on one clock: reference (scaled by the gauge), CPU or wall.
type Clock = fn(&Gauge, &Lap) -> f64;

const CLOCKS: [(&str, Clock); 3] = [
    ("reference", Gauge::scaled),
    ("CPU", |_, lap| lap.cpu),
    ("wall", |_, lap| lap.wall),
];

/// The seconds of every operation in `ops` on `clock`.
fn op_seconds(gauge: &Gauge, ops: &[OpLaps], clock: Clock) -> Vec<f64> {
    ops.iter()
        .map(|laps| laps.iter().map(|lap| clock(gauge, lap)).sum())
        .collect()
}

/// The median seconds of `ops` on every clock, for the `# ` lines.
fn medians(gauge: &Gauge, ops: &[OpLaps]) -> String {
    let [reference, cpu, wall] = CLOCKS.map(|(_, clock)| median(&op_seconds(gauge, ops, clock)));
    format!("{reference:.4} reference s, {cpu:.4} CPU s, {wall:.4} wall s (medians)")
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

impl Run {
    /// The end-to-end metrics from the set-up and operation laps.  The gated
    /// timings are CPU time in reference seconds (see `speed.rs`): the wall
    /// and plain CPU times of the same laps, printed beside them, swing with the
    /// load of a shared machine.
    fn report_e2e(&mut self, setups: &[Lap], ops: &[OpLaps], op_label: &str) {
        let gauge = &self.gauge;
        let setup_seconds =
            |clock: Clock| -> Vec<f64> { setups.iter().map(|lap| clock(gauge, lap)).collect() };
        let per_s = |s: &[f64]| s.len() as f64 / s.iter().sum::<f64>();
        let reference = op_seconds(gauge, ops, Gauge::scaled);
        let mut notes = vec![format!(
            "{op_label}: {} samples; the speed gauge read {} times, median {:.4} ms (reference {:.1} ms)",
            ops.len(),
            gauge.seconds().len(),
            median(&gauge.seconds()) * 1e3,
            REFERENCE_SECONDS * 1e3,
        )];
        for (name, clock) in CLOCKS {
            let (setup, op) = (setup_seconds(clock), op_seconds(gauge, ops, clock));
            let ms: Vec<f64> = op.iter().map(|s| s * 1e3).collect();
            let p90 = percentile(&ms, 90.0);
            notes.push(format!(
                "{name} time: setup {:.4} s (median of {}); {:.4} ops/s; ms per op p10/p25/p50/p75/p90 = {:.3}/{:.3}/{:.3}/{:.3}/{p90:.3}, {} beyond p90",
                median(&setup),
                setup.len(),
                per_s(&op),
                percentile(&ms, 10.0),
                percentile(&ms, 25.0),
                median(&ms),
                percentile(&ms, 75.0),
                ms.iter().filter(|&&value| value > p90).count()
            ));
        }
        self.metrics
            .set("setup_s", median(&setup_seconds(Gauge::scaled)), "s");
        self.metrics
            .set("op_p50_ref_ms", median(&reference) * 1e3, "ms");
        self.metrics.set("ops_per_ref_s", per_s(&reference), "1/s");
        self.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        self.notes.append(&mut notes);
        let wrong = self.gauge.wrong;
        self.tally.check("speed.reference_checksum", wrong == 0);
    }

    fn genome_workloads(&self) -> Vec<WorkloadProfile> {
        genome_workloads(&self.size.genomes)
    }

    fn runner<'a>(
        &'a self,
        platform: &'a HeterogeneousPlatform,
        workload: &'a WorkloadProfile,
        models: Option<&'a TrainedModels>,
        seed: u64,
    ) -> MethodRunner<'a> {
        let runner = MethodRunner::new(platform, workload, models, seed);
        if self.size.paper {
            runner
        } else {
            runner
                .with_grid(self.size.grid.clone())
                .with_space(self.size.space.clone())
        }
    }

    fn tuner<'a>(
        &'a self,
        platform: &'a HeterogeneousPlatform,
        workload: &'a WorkloadProfile,
        models: Option<&'a TrainedModels>,
        seed: u64,
    ) -> Tuner<'a> {
        Tuner {
            platform,
            workload,
            models,
            grid: &self.size.grid,
            space: &self.size.space,
            seed,
        }
    }

    /// `PaperStudy::run_training_only`: the platform, the campaign and the fit.
    fn train(&self) -> (HeterogeneousPlatform, TrainedModels) {
        PaperStudy::run_training_only(self.size.scale, self.seed)
    }

    /// The study phase of `PaperStudy::run`, for the genomes in `cases`.  A
    /// case's seed follows from the seed and its genome alone, so the cases of
    /// the whole study are those of the studies of its genomes one by one.
    fn study(
        &self,
        platform: &HeterogeneousPlatform,
        models: &TrainedModels,
        cases: Range<usize>,
    ) -> ConvergenceStudy {
        if self.size.paper {
            ConvergenceStudy::run(
                platform,
                models,
                &self.size.genomes[cases],
                &self.size.budgets,
                self.seed,
            )
        } else {
            ConvergenceStudy::run_workloads_scaled(
                platform,
                models,
                &self.genome_workloads()[cases],
                &self.size.budgets,
                self.seed,
                self.size.repeats,
                &self.size.grid,
                &self.size.space,
            )
        }
    }

    /// Run one set-up, appending its time to `setups`; a panic counts as a
    /// failed check.
    fn timed_setup<T>(
        &mut self,
        setups: &mut Vec<Lap>,
        setup: impl FnOnce(&Run) -> T,
    ) -> Option<T> {
        self.gauge.read();
        let watch = Stopwatch::start();
        let out = guarded(|| setup(self));
        setups.push(watch.lap());
        self.gauge.read();
        self.tally.check("setup.completed", out.is_some());
        out
    }

    fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
        dir
    }

    /// Record the checks every traced run makes on its own trace.
    fn check_trace(&mut self, report: &TraceReport) {
        self.tally
            .check("trace.accounting", report.accounting_error() < 1e-6);
        self.tally
            .check("trace.children_fit", report.children_fit());
        self.tally
            .check("trace.single_thread", report.foreign_spans == 0);
        self.tally.check("trace.closed", report.unclosed == 0);
    }
}

/// The traced run's timings: the untraced set-up and operation of every
/// repetition (seconds), and the trace of every traced repetition.
#[derive(Default)]
pub struct Timings {
    untraced_setup: Vec<f64>,
    untraced_op: Vec<f64>,
    reports: Vec<TraceReport>,
}

/// The traced run: `reps` times, run `untraced` — which returns its set-up and
/// operation seconds and what the traced half needs — then `traced` between
/// `trace::start` and `trace::finish`.  Alternating the two halves exposes both
/// to the same machine state; the outputs of the last repetition are returned.
/// Like every workload it runs on one thread (see [`trace::run_sequential`]), so
/// spans nest on one stack.
fn alternate<U, T>(
    reps: usize,
    untraced: impl Fn() -> (f64, f64, U),
    traced: impl Fn(&U) -> T,
) -> (U, T, Timings) {
    let mut timings = Timings::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (setup, op, inputs) = untraced();
        timings.untraced_setup.push(setup);
        timings.untraced_op.push(op);
        trace::start();
        let outputs = traced(&inputs);
        timings.reports.push(trace::finish());
        last = Some((inputs, outputs));
    }
    let (inputs, outputs) = last.expect("at least one repetition ran");
    (inputs, outputs, timings)
}

// ---------------------------------------------------------------------------
// paper-repro
// ---------------------------------------------------------------------------

/// The SAM, SAML and GAML cells of one study case.
fn walks(case: &CaseConvergence) -> Vec<&(usize, MethodOutcome)> {
    [&case.sam, &case.saml, &case.gaml]
        .into_iter()
        .flatten()
        .collect()
}

fn same_study(a: &ConvergenceStudy, b: &ConvergenceStudy) -> bool {
    a.cases.len() == b.cases.len()
        && a.cases.iter().zip(&b.cases).all(|(x, y)| {
            let (wx, wy) = (walks(x), walks(y));
            same_outcome(&x.em, &y.em)
                && same_outcome(&x.eml, &y.eml)
                && wx.len() == wy.len()
                && wx
                    .iter()
                    .zip(&wy)
                    .all(|(a, b)| a.0 == b.0 && same_outcome(&a.1, &b.1))
                && x.host_only_seconds.to_bits() == y.host_only_seconds.to_bits()
                && x.device_only_seconds.to_bits() == y.device_only_seconds.to_bits()
        })
}

/// Table VI's average row, averaged over the budgets, for SAML and GAML.
fn gaps(study: &ConvergenceStudy) -> (f64, f64) {
    let saml = study
        .percent_difference_rows()
        .pop()
        .map_or(0.0, |(_, row)| {
            row.iter().sum::<f64>() / row.len().max(1) as f64
        });
    let cells: Vec<f64> = study
        .cases
        .iter()
        .flat_map(|case| {
            let em = case.em.measured_energy;
            case.gaml
                .iter()
                .map(move |(_, outcome)| 100.0 * (outcome.measured_energy - em).abs() / em)
        })
        .collect();
    let gaml = cells.iter().sum::<f64>() / cells.len().max(1) as f64;
    (saml, gaml)
}

/// Compare one re-driven case with the program's study case.
fn check_case(tally: &mut Tally, redriven: &redrive::CaseRedrive, case: &CaseConvergence) {
    tally.check("redrive.em", same_outcome(&redriven.em, &case.em));
    tally.check("redrive.eml", same_outcome(&redriven.eml, &case.eml));
    for (method, budget, outcome) in &redriven.walks {
        let cells = match method {
            MethodKind::Sam => &case.sam,
            MethodKind::Saml => &case.saml,
            _ => &case.gaml,
        };
        let kept = cells.iter().find(|(b, _)| b == budget);
        tally.check(
            "redrive.walk",
            kept.is_some_and(|(_, kept)| same_outcome(outcome, kept)),
        );
    }
}

pub fn paper_repro(run: &mut Run) {
    let mut setups = Vec::new();
    let Some((platform, models)) = run.timed_setup(&mut setups, Run::train) else {
        return;
    };
    // the whole study in one call, untimed: what every timed study must equal
    let genomes = run.size.genomes.len();
    let study = guarded(|| run.study(&platform, &models, 0..genomes));
    run.tally.check("study.completed", study.is_some());
    let Some(study) = study else { return };
    let samples = measure(run, |run, _, setup_due| {
        if setup_due {
            run.timed_setup(&mut setups, Run::train);
        }
        // one case at a time, with the speed gauge read between them
        let mut laps = Vec::new();
        let mut cases = Vec::new();
        for case in 0..genomes {
            if case > 0 {
                run.gauge.read();
            }
            let watch = Stopwatch::start();
            let single = guarded(|| run.study(&platform, &models, case..case + 1));
            laps.push(watch.lap());
            run.tally.check("study.completed", single.is_some());
            cases.extend(single.into_iter().flat_map(|single| single.cases));
        }
        let timed = ConvergenceStudy {
            budgets: run.size.budgets.clone(),
            cases,
        };
        run.tally
            .check("study.cases_match_whole", same_study(&study, &timed));
        laps
    });
    for case in &study.cases {
        run.tally.check(
            "study.em_optimal_on_grid",
            case.em.measured_energy <= case.eml.measured_energy,
        );
    }
    // one seeded case re-driven from the public pieces, untraced
    let workloads = run.genome_workloads();
    let index = (run.seed as usize) % workloads.len();
    let redriven = redrive::study_case(
        &platform,
        &models,
        &workloads[index],
        &run.size.budgets,
        run.seed,
        run.size.repeats,
        &run.size.grid,
        &run.size.space,
    );
    check_case(&mut run.tally, &redriven, &study.cases[index]);

    let (saml_gap, gaml_gap) = gaps(&study);
    run.report_e2e(
        &setups,
        &samples,
        "study (op = one convergence study, timed case by case)",
    );
    run.notes
        .push(format!("study_s = {}", medians(&run.gauge, &samples)));
    run.notes.push(format!("saml_gap_pct = {saml_gap:.6} %"));
    run.notes.push(format!("gaml_gap_pct = {gaml_gap:.6} %"));
}

pub fn paper_repro_traced(run: &mut Run) {
    let workloads = run.genome_workloads();
    let ((platform, models, study), (training_same, cases), timings) = alternate(
        run.size.trace_reps,
        || {
            let start = Instant::now();
            let (platform, models) = run.train();
            let setup = seconds_since(start);
            let start = Instant::now();
            let study = run.study(&platform, &models, 0..run.size.genomes.len());
            (setup, seconds_since(start), (platform, models, study))
        },
        |(platform, models, _)| {
            let (traced_models, training_same) = span("bench.setup", || {
                let platform = HeterogeneousPlatform::emil_with_seed(run.seed);
                redrive::train(
                    &run.size.scale.campaign(),
                    &platform,
                    run.size.scale.boosting(),
                    models,
                )
            });
            let cases: Vec<(redrive::CaseRedrive, Vec<f64>)> = span("bench.op", || {
                workloads
                    .iter()
                    .map(|workload| {
                        let case = redrive::study_case(
                            platform,
                            &traced_models,
                            workload,
                            &run.size.budgets,
                            run.seed,
                            run.size.repeats,
                            &run.size.grid,
                            &run.size.space,
                        );
                        (case, redrive::baselines(platform, workload))
                    })
                    .collect()
            });
            (training_same, cases)
        },
    );

    run.tally.check("redrive.training", training_same);
    for ((redriven, baselines), case) in cases.iter().zip(&study.cases) {
        check_case(&mut run.tally, redriven, case);
        run.tally.check(
            "redrive.baselines",
            baselines[0].to_bits() == case.host_only_seconds.to_bits()
                && baselines[1].to_bits() == case.device_only_seconds.to_bits(),
        );
    }
    // every re-driven run against its own untraced `MethodRunner` run
    let runs: Vec<(usize, u64, usize, MethodOutcome)> = cases
        .into_iter()
        .enumerate()
        .flat_map(|(index, (case, _))| {
            case.runs
                .into_iter()
                .map(move |(seed, budget, outcome)| (index, seed, budget, outcome))
        })
        .collect();
    let matches: Vec<bool> = runs
        .into_par_iter()
        .map(|(index, seed, budget, outcome)| {
            run.runner(&platform, &workloads[index], Some(&models), seed)
                .run(outcome.method, budget)
                .is_ok_and(|reference| same_outcome(&reference, &outcome))
        })
        .collect();
    for ok in matches {
        run.tally.check("redrive.method_runner", ok);
    }
    run.report_layers(&timings, 1);
}

// ---------------------------------------------------------------------------
// grid-campaign and grid-resume
// ---------------------------------------------------------------------------

/// Each genome's workload with its `MethodRunner` EM outcome: the expected
/// answer of every grid campaign.
type References = Vec<(WorkloadProfile, MethodOutcome)>;

/// The grid workloads' set-up: the platform and `MethodRunner` EM per genome.
fn grid_setup(run: &Run) -> (HeterogeneousPlatform, References) {
    let platform = HeterogeneousPlatform::emil_with_seed(run.seed);
    let references = run
        .genome_workloads()
        .into_iter()
        .map(|workload| {
            let outcome = run
                .runner(&platform, &workload, None, run.seed)
                .run(MethodKind::Em, 0)
                .expect("EM needs no models");
            (workload, outcome)
        })
        .collect();
    (platform, references)
}

/// Shards of a grid campaign: one per thread the run may use, which is one
/// (see [`trace::run_sequential`]).
fn shard_count() -> usize {
    rayon::current_num_threads()
}

fn store_path(dir: &Path, workload: &WorkloadProfile) -> PathBuf {
    dir.join(format!("{}.jsonl", workload.name))
}

/// One pass of `run_enumeration_sharded` EM over every genome, each against the
/// store in `dir`.  Returns the lap of opening, running and closing the stores,
/// and the outcomes.
fn campaign_pass(
    run: &Run,
    platform: &HeterogeneousPlatform,
    references: &References,
    dir: &Path,
) -> (Lap, Vec<Result<MethodOutcome, String>>) {
    let watch = Stopwatch::start();
    let outcomes = references
        .iter()
        .map(|(workload, _)| {
            JsonlStore::open_with_context(
                store_path(dir, workload),
                &campaign_context(MethodKind::Em, workload),
            )
            .map_err(|error| error.to_string())
            .and_then(|store| {
                run_enumeration_sharded(
                    platform,
                    workload,
                    None,
                    MethodKind::Em,
                    &run.size.grid,
                    shard_count(),
                    &store,
                )
            })
        })
        .collect();
    (watch.lap(), outcomes)
}

/// Check one campaign pass against the `MethodRunner` answers: a cold pass must
/// reproduce them exactly (its store counters equal the cache counters of a
/// grid enumeration); a warm one must return the same answer and evaluate nothing.
fn check_pass(
    tally: &mut Tally,
    references: &References,
    outcomes: &[Result<MethodOutcome, String>],
    warm: bool,
) {
    for ((_, reference), outcome) in references.iter().zip(outcomes) {
        let ok = outcome.as_ref().is_ok_and(|outcome| {
            if warm {
                outcome.cache.misses == 0
                    && outcome.cache.hits == reference.evaluations
                    && outcome.best_config == reference.best_config
                    && outcome.search_energy.to_bits() == reference.search_energy.to_bits()
                    && outcome.measured_energy.to_bits() == reference.measured_energy.to_bits()
            } else {
                same_outcome(outcome, reference)
            }
        });
        tally.check(if warm { "grid.warm" } else { "grid.cold" }, ok);
    }
}

/// The grid-resume set-up: the grid set-up plus the cold pass that makes the
/// stores in `dir` warm (checked like any cold pass).
fn warm_setup(
    run: &mut Run,
    setups: &mut Vec<Lap>,
    dir: &Path,
) -> Option<(HeterogeneousPlatform, References)> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("the scratch directory is writable");
    let (platform, references, cold) = run.timed_setup(setups, |run| {
        let (platform, references) = grid_setup(run);
        let cold = campaign_pass(run, &platform, &references, dir).1;
        (platform, references, cold)
    })?;
    check_pass(&mut run.tally, &references, &cold, false);
    Some((platform, references))
}

pub fn grid_campaign(run: &mut Run) {
    let mut setups = Vec::new();
    let Some((platform, references)) = run.timed_setup(&mut setups, grid_setup) else {
        return;
    };
    let root = run.scratch_dir("grid-campaign");
    let mut last_dir = None;
    let samples = measure(run, |run, pass, setup_due| {
        if setup_due {
            run.timed_setup(&mut setups, grid_setup);
        }
        let dir = root.join(format!("pass-{pass}"));
        std::fs::create_dir_all(&dir).expect("the scratch directory is writable");
        let (lap, outcomes) = campaign_pass(run, &platform, &references, &dir);
        check_pass(&mut run.tally, &references, &outcomes, false);
        if let Some(previous) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(previous);
        }
        vec![lap]
    });
    // the warm resume of the last cold pass must evaluate nothing
    if let Some(dir) = last_dir {
        let (warm, outcomes) = campaign_pass(run, &platform, &references, &dir);
        check_pass(&mut run.tally, &references, &outcomes, true);
        run.notes.push(format!(
            "warm_resume_s = {:.4} reference s, {:.4} CPU s, {:.4} wall s (one check pass)",
            run.gauge.scaled(&warm),
            warm.cpu,
            warm.wall
        ));
    }
    run.report_e2e(
        &setups,
        &samples,
        "cold campaign (op = EM over every genome)",
    );
    run.notes.push(format!(
        "cold_campaign_s = {}",
        medians(&run.gauge, &samples)
    ));
}

pub fn grid_resume(run: &mut Run) {
    let (dir, spare) = (
        run.scratch_dir("grid-resume"),
        run.scratch_dir("grid-resume-setup"),
    );
    let mut setups = Vec::new();
    let Some((platform, references)) = warm_setup(run, &mut setups, &dir) else {
        return;
    };
    let samples = measure(run, |run, _, setup_due| {
        if setup_due {
            warm_setup(run, &mut setups, &spare);
        }
        let (lap, outcomes) = campaign_pass(run, &platform, &references, &dir);
        check_pass(&mut run.tally, &references, &outcomes, true);
        vec![lap]
    });
    run.report_e2e(
        &setups,
        &samples,
        "warm resume (op = reopen + resume every genome)",
    );
    run.notes
        .push(format!("warm_resume_s = {}", medians(&run.gauge, &samples)));
}

/// One grid pass re-driven: open every store (timed in `dist.store.open`) and
/// run the sharded campaign from its public pieces.
fn traced_pass(
    run: &Run,
    platform: &HeterogeneousPlatform,
    references: &References,
    dir: &Path,
) -> Vec<Result<MethodOutcome, String>> {
    references
        .iter()
        .map(|(workload, _)| {
            let store = span("dist.store.open", || {
                JsonlStore::open_with_context(
                    store_path(dir, workload),
                    &campaign_context(MethodKind::Em, workload),
                )
            })
            .map_err(|error| error.to_string())?;
            let outcome =
                redrive::sharded_em(platform, workload, &run.size.grid, shard_count(), &store);
            count("dist.store.bytes", store.io_stats().appended_bytes);
            outcome
        })
        .collect()
}

pub fn grid_traced(run: &mut Run, warm: bool) {
    let (untraced_dir, traced_dir) = (run.scratch.join("untraced"), run.scratch.join("traced"));
    let fresh = |dir: &Path| {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("the scratch directory is writable");
    };
    let ((references, setup_cold, untraced), (traced_refs, traced_cold, outcomes), timings) =
        alternate(
            run.size.trace_reps,
            || {
                fresh(&untraced_dir);
                let start = Instant::now();
                let (platform, references) = grid_setup(run);
                let cold =
                    warm.then(|| campaign_pass(run, &platform, &references, &untraced_dir).1);
                let setup = seconds_since(start);
                let (op, outcomes) = campaign_pass(run, &platform, &references, &untraced_dir);
                (setup, op.wall, (references, cold, outcomes))
            },
            |_| {
                fresh(&traced_dir);
                let platform = HeterogeneousPlatform::emil_with_seed(run.seed);
                let (references, cold) = span("bench.setup", || {
                    let references: References = run
                        .genome_workloads()
                        .into_iter()
                        .map(|workload| {
                            let outcome = run.tuner(&platform, &workload, None, run.seed).run(
                                MethodKind::Em,
                                0,
                                &wd_obs::NoopRecorder,
                            );
                            (workload, outcome)
                        })
                        .collect();
                    let cold = warm.then(|| traced_pass(run, &platform, &references, &traced_dir));
                    (references, cold)
                });
                let outcomes = span("bench.op", || {
                    traced_pass(run, &platform, &references, &traced_dir)
                });
                (references, cold, outcomes)
            },
        );
    for ((_, expected), (_, redriven)) in references.iter().zip(&traced_refs) {
        run.tally
            .check("redrive.em", same_outcome(expected, redriven));
    }
    if let (Some(untraced_cold), Some(traced_cold)) = (setup_cold, traced_cold) {
        check_pass(&mut run.tally, &references, &untraced_cold, false);
        check_pass(&mut run.tally, &references, &traced_cold, false);
    }
    check_pass(&mut run.tally, &references, &untraced, warm);
    check_pass(&mut run.tally, &references, &outcomes, warm);
    run.report_layers(&timings, 1);
}

// ---------------------------------------------------------------------------
// observed-tuning
// ---------------------------------------------------------------------------

/// One tuning request of the stream.
#[derive(Debug, Clone, Copy)]
struct Request {
    workload: usize,
    method: MethodKind,
    budget: usize,
    seed: u64,
    /// Whether the request is re-run unobserved to check its outcome.
    sampled: bool,
}

/// Methods of the tuning stream with their weights, towards the ML walks.
const METHOD_WEIGHTS: [(MethodKind, usize); 4] = [
    (MethodKind::Saml, 4),
    (MethodKind::Gaml, 3),
    (MethodKind::Sam, 2),
    (MethodKind::Eml, 1),
];

/// The seeded request stream: workloads drawn from the genomes and the
/// `workload_mix` kinds (so they repeat), and (method, budget) pairs dealt from
/// shuffled decks holding each method as often as its weight at every budget.
/// Dealing from decks keeps the stream's mix of methods and budgets the same
/// for every seed, so that seeds change which requests come when, not how much
/// work the stream holds.
fn request_stream(
    seed: u64,
    workloads: usize,
    budgets: &[usize],
) -> impl Iterator<Item = Request> + '_ {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7475_6e65_2d73_7472);
    let mut deck: Vec<(MethodKind, usize)> = Vec::new();
    std::iter::from_fn(move || {
        if deck.is_empty() {
            deck = METHOD_WEIGHTS
                .iter()
                .flat_map(|&(method, weight)| {
                    budgets
                        .iter()
                        .flat_map(move |&budget| std::iter::repeat_n((method, budget), weight))
                })
                .collect();
            deck.shuffle(&mut rng);
        }
        let (method, budget) = deck.pop()?;
        Some(Request {
            workload: rng.gen_range(0..workloads),
            method,
            budget,
            seed: rng.gen::<u64>(),
            sampled: rng.gen_range(0..16u32) == 0,
        })
    })
}

/// Requests in one deck of [`request_stream`].  Each exporter file holds one
/// deck, so that every file, and the memory its replay takes, holds the same
/// mix of methods and budgets.
fn deck_len(budgets: &[usize]) -> usize {
    METHOD_WEIGHTS
        .iter()
        .map(|&(_, weight)| weight)
        .sum::<usize>()
        * budgets.len()
}

fn tuning_workloads(run: &Run) -> Vec<WorkloadProfile> {
    let mut workloads = run.genome_workloads();
    for &bytes in &run.size.mix_bytes {
        workloads.extend(workload_mix(bytes).into_iter().map(|mut workload| {
            workload.name = format!("{}-{}mb", workload.name, bytes / 1_000_000);
            workload
        }));
    }
    workloads
}

/// Iteration events in an exporter file, or `None` if it has unparseable lines.
fn exported_iterations(path: &Path) -> Option<usize> {
    let log = EventLog::read(path).ok()?;
    (log.skipped_lines == 0).then(|| {
        log.events
            .iter()
            .filter(|event| matches!(event, ObsEvent::Iteration { .. }))
            .count()
    })
}

pub fn observed_tuning(run: &mut Run) {
    let mut setups = Vec::new();
    let Some((platform, models)) = run.timed_setup(&mut setups, Run::train) else {
        return;
    };
    let mut pacer = SetupPacer::new(&run.size, run.seconds);
    let workloads = tuning_workloads(run);
    let dir = run.scratch_dir("observed-tuning");
    let budgets = run.size.budgets.clone();
    let mut stream = request_stream(run.seed, workloads.len(), &budgets);
    let mut sampled: Vec<(Request, MethodOutcome)> = Vec::new();
    let mut rerun = 0;
    let mut latencies: Vec<OpLaps> = Vec::new();
    let (min_ops, seconds, window) = (run.size.min_ops, run.seconds, Instant::now());
    let closed =
        |latencies: &[OpLaps]| latencies.len() >= min_ops && seconds_since(window) >= seconds;
    let mut segment = 0;
    while !closed(&latencies) {
        let path = dir.join(format!("events-{segment}.jsonl"));
        segment += 1;
        let exporter = JsonlExporter::create(&path).expect("the scratch directory is writable");
        let mut walked = 0;
        run.gauge.read();
        for request in stream.by_ref().take(deck_len(&budgets)) {
            if pacer.due(seconds_since(window)) {
                run.timed_setup(&mut setups, Run::train);
            }
            let watch = Stopwatch::start();
            let outcome = guarded(|| {
                run.runner(
                    &platform,
                    &workloads[request.workload],
                    Some(&models),
                    request.seed,
                )
                .run_observed(request.method, request.budget, &exporter)
            })
            .and_then(Result::ok);
            latencies.push(vec![watch.lap()]);
            if let Some(outcome) = &outcome {
                walked += outcome.trace.len();
                if request.sampled {
                    sampled.push((request, outcome.clone()));
                }
            }
            run.tally.check(
                "tune.request",
                outcome.is_some_and(|o| o.measured_energy.is_finite() && o.measured_energy > 0.0),
            );
            if closed(&latencies) {
                break;
            }
        }
        run.gauge.read();
        run.tally
            .check("tune.export_flush", exporter.flush().is_ok());
        drop(exporter);
        run.tally.check(
            "tune.export_replay",
            exported_iterations(&path) == Some(walked),
        );
        let _ = std::fs::remove_file(&path);
        // re-run the deck's sampled requests now, so that the outcomes kept for
        // them, and the run's memory, do not grow with the length of the run
        for (request, observed) in sampled.drain(..) {
            let ok = run
                .runner(
                    &platform,
                    &workloads[request.workload],
                    Some(&models),
                    request.seed,
                )
                .run(request.method, request.budget)
                .is_ok_and(|plain| same_outcome(&plain, &observed));
            run.tally.check("tune.unobserved_rerun", ok);
            rerun += 1;
        }
    }
    run.report_e2e(&setups, &latencies, "tuning requests (op = one request)");
    for (name, clock) in [CLOCKS[0], CLOCKS[2]] {
        let seconds = op_seconds(&run.gauge, &latencies, clock);
        run.notes.push(format!(
            "{name} time: tune_p50_ms = {:.4} ms, tune_p90_ms = {:.4} ms, tunes_per_s = {:.3} 1/s",
            median(&seconds) * 1e3,
            percentile(&seconds, 90.0) * 1e3,
            seconds.len() as f64 / seconds.iter().sum::<f64>(),
        ));
    }
    run.notes.push(format!(
        "{} requests, {rerun} re-run unobserved",
        latencies.len()
    ));
}

pub fn observed_tuning_traced(run: &mut Run) {
    let workloads = tuning_workloads(run);
    let requests: Vec<Request> = request_stream(run.seed, workloads.len(), &run.size.budgets)
        .take(run.size.traced_requests)
        .collect();
    let dir = run.scratch_dir("observed-tuning-traced");
    let (untraced_path, traced_path) = (dir.join("untraced.jsonl"), dir.join("traced.jsonl"));
    let per_request = |seconds: f64| seconds / requests.len().max(1) as f64;
    let ((_, _, plain, plain_events), (training_same, outcomes, events), timings) = alternate(
        run.size.trace_reps,
        || {
            let start = Instant::now();
            let (platform, models) = run.train();
            let setup = seconds_since(start);
            let exporter =
                JsonlExporter::create(&untraced_path).expect("the scratch directory is writable");
            let start = Instant::now();
            let plain: Vec<Option<MethodOutcome>> = requests
                .iter()
                .map(|request| {
                    run.runner(
                        &platform,
                        &workloads[request.workload],
                        Some(&models),
                        request.seed,
                    )
                    .run_observed(request.method, request.budget, &exporter)
                    .ok()
                })
                .collect();
            let op = per_request(seconds_since(start));
            (
                setup,
                op,
                (platform, models, plain, exporter.events_written()),
            )
        },
        |(platform, models, _, _)| {
            let (traced_models, training_same) = span("bench.setup", || {
                let platform = HeterogeneousPlatform::emil_with_seed(run.seed);
                redrive::train(
                    &run.size.scale.campaign(),
                    &platform,
                    run.size.scale.boosting(),
                    models,
                )
            });
            let exporter =
                JsonlExporter::create(&traced_path).expect("the scratch directory is writable");
            let recorder = TracedRecorder(&exporter);
            let outcomes: Vec<MethodOutcome> = span("bench.op", || {
                let outcomes = requests
                    .iter()
                    .map(|request| {
                        run.tuner(
                            platform,
                            &workloads[request.workload],
                            Some(&traced_models),
                            request.seed,
                        )
                        .run(request.method, request.budget, &recorder)
                    })
                    .collect();
                let _ = span("obs.flush", || exporter.flush());
                outcomes
            });
            count("obs.events", exporter.events_written());
            count("obs.bytes", exporter.bytes_written());
            (training_same, outcomes, exporter.events_written())
        },
    );
    run.tally.check("redrive.training", training_same);
    for (plain, traced) in plain.iter().zip(&outcomes) {
        run.tally.check(
            "redrive.request",
            plain
                .as_ref()
                .is_some_and(|plain| same_outcome(plain, traced)),
        );
    }
    run.tally
        .check("tune.export_events", events == plain_events);
    let walked: usize = outcomes.iter().map(|outcome| outcome.trace.len()).sum();
    run.tally.check(
        "tune.export_replay",
        exported_iterations(&traced_path) == Some(walked),
    );
    run.report_layers(&timings, requests.len());
}

// ---------------------------------------------------------------------------
// per-layer metrics
// ---------------------------------------------------------------------------

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Run {
    /// The per-layer metrics of a traced run, plus the traced end-to-end timings
    /// and their overhead over the same work untraced on one thread.
    fn report_layers(&mut self, timings: &Timings, ops: usize) {
        let root = |report: &TraceReport, name| report.roots.get(name).copied().unwrap_or(0.0);
        let traced_setups: Vec<f64> = timings
            .reports
            .iter()
            .map(|r| root(r, "bench.setup"))
            .collect();
        let traced_ops: Vec<f64> = timings
            .reports
            .iter()
            .map(|r| root(r, "bench.op") / ops.max(1) as f64)
            .collect();
        for report in &timings.reports {
            self.check_trace(report);
        }
        // the per-layer figures of the repetition with the median traced operation
        let mut order: Vec<usize> = (0..traced_ops.len()).collect();
        order.sort_by(|&a, &b| traced_ops[a].total_cmp(&traced_ops[b]));
        let report = &timings.reports[order[order.len() / 2]];
        let (traced_setup, traced_op) = (median(&traced_setups), median(&traced_ops));
        let (untraced_setup, untraced_op) = (
            median(&timings.untraced_setup),
            median(&timings.untraced_op),
        );
        let m = &mut self.metrics;
        let total = |name| report.total_s(name);
        let counter = |name| report.counter(name) as f64;
        m.set(
            "platform.measure_calls",
            counter("platform.measure_calls"),
            "count",
        );
        m.set("platform.measure_s", total("platform.measure"), "s");
        m.set(
            "platform.train_experiments",
            counter("platform.train_experiments"),
            "count",
        );
        m.set("platform.train_sim_s", total("platform.train_sim"), "s");
        m.set("ml.fit_s", total("ml.fit"), "s");
        m.set("ml.predict_calls", counter("ml.predict_calls"), "count");
        m.set("ml.predict_rows", counter("ml.predict_rows"), "count");
        m.set("ml.predict_s", total("ml.predict"), "s");
        m.set("core.table_build_s", total("core.table_build"), "s");
        m.set("core.table_rows", counter("core.table_rows"), "count");
        let probes = report.counter("core.lazy_probes");
        let queries = report.counter("core.lazy_model_queries");
        m.set("core.lazy_probes", probes as f64, "count");
        m.set("core.lazy_model_queries", queries as f64, "count");
        m.set(
            "core.lazy_hit_ratio",
            ratio(probes.saturating_sub(queries), probes),
            "ratio",
        );
        for (method, span_name) in [
            ("em", "core.method.em"),
            ("eml", "core.method.eml"),
            ("sam", "core.method.sam"),
            ("saml", "core.method.saml"),
            ("gaml", "core.method.gaml"),
        ] {
            m.set(&format!("core.method.{method}_s"), total(span_name), "s");
            m.set(
                &format!("core.method.{method}_calls"),
                report.count(span_name) as f64,
                "count",
            );
        }
        m.set("opt.enum_configs", counter("opt.enum_configs"), "count");
        m.set("opt.enum_scan_s", total("opt.enum"), "s");
        for method in ["em", "eml", "sam"] {
            let hits = report.counter(&format!("opt.cache_hits.{method}"));
            let requests = report.counter(&format!("opt.cache_requests.{method}"));
            m.set(
                &format!("opt.cache_hit_ratio.{method}"),
                ratio(hits, requests),
                "ratio",
            );
        }
        m.set("opt.walk_steps", counter("opt.walk_steps"), "count");
        m.set("opt.walk_s", total("opt.walk"), "s");
        m.set("obs.events", counter("obs.events"), "count");
        m.set("obs.bytes", counter("obs.bytes"), "bytes");
        m.set("obs.export_s", total("obs.export"), "s");
        m.set("obs.flush_s", total("obs.flush"), "s");
        m.set("dist.store.open_s", total("dist.store.open"), "s");
        let lookups = report.counter("dist.store.lookups");
        m.set("dist.store.lookups", lookups as f64, "count");
        m.set("dist.store.lookup_s", total("dist.store.lookup"), "s");
        m.set(
            "dist.store.hit_ratio",
            ratio(report.counter("dist.store.hits"), lookups),
            "ratio",
        );
        m.set(
            "dist.store.records_written",
            counter("dist.store.records_written"),
            "count",
        );
        m.set("dist.store.append_s", total("dist.store.append"), "s");
        m.set("dist.store.bytes", counter("dist.store.bytes"), "bytes");
        m.set("dist.store.flush_s", total("dist.store.flush"), "s");
        m.set(
            "dist.campaign.evaluations",
            counter("dist.campaign.evaluations"),
            "count",
        );
        for layer in trace::LAYERS {
            m.set(&format!("{layer}.self_s"), report.layer_self_s(layer), "s");
        }
        m.set(
            "trace.spans",
            report.spans.values().map(|s| s.count).sum::<u64>() as f64,
            "count",
        );
        m.set("trace.setup_s", traced_setup, "s");
        m.set("trace.op_ms", traced_op * 1e3, "ms");
        m.set("trace.overhead.setup_s", traced_setup - untraced_setup, "s");
        m.set(
            "trace.overhead.op_ms",
            (traced_op - untraced_op) * 1e3,
            "ms",
        );
        self.notes.push(format!(
            "traced on one thread, medians of {} repetitions: setup {traced_setup:.4} s \
             (untraced {untraced_setup:.4} s), op {:.3} ms (untraced {:.3} ms)",
            timings.reports.len(),
            traced_op * 1e3,
            untraced_op * 1e3,
        ));
        self.notes.push(format!(
            "self times of the median repetition sum to its set-up + operation roots \
             ({:.4} s + {:.4} s) to a relative {:.2e}:",
            root(report, "bench.setup"),
            root(report, "bench.op"),
            report.accounting_error()
        ));
        for layer in trace::LAYERS {
            self.notes.push(format!(
                "self time {layer:>8}: {:.4} s",
                report.layer_self_s(layer)
            ));
        }
        for (name, span) in &report.spans {
            self.notes.push(format!(
                "span {name}: {} calls, {:.6} s total, {:.6} s self",
                span.count, span.total_s, span.self_s
            ));
        }
        for (name, value) in &report.counters {
            self.notes.push(format!("counter {name} = {value}"));
        }
    }
}
