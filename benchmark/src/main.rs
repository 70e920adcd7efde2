//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-repro|grid-campaign|grid-resume|observed-tuning> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size paper|tiny] \
//!     [--scratch <dir>] [--sabotage <check>]
//! ```
//!
//! One process runs one workload, on one thread.  With `--trace 0` it measures
//! the workload for `--seconds` of wall time and reports the end-to-end metrics,
//! its timings in CPU time scaled by a speed gauge (see `speed.rs`); with
//! `--trace 1` it re-drives one set-up and a fixed amount of work through the
//! layer wrappers and reports the per-layer metrics.  Either way it checks the
//! program's outputs, prints what it measured as `# ` lines, and ends with one
//! JSON line: `correct`, `attempted`, `failed` and `metrics`.
//! `--sabotage <check>` inverts the named check, to prove failures are reported.
//! `BENCHMARK.json` names the metrics; `benchmark/metrics.json` records, for
//! each, its layer and which end-to-end metric it should move on which workload.

mod redrive;
mod report;
mod speed;
mod trace;
mod workloads;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{guarded, print_result, Metrics, Tally};
use speed::Gauge;
use trace::run_sequential;
use workloads::{Run, Size};

const WORKLOADS: [&str; 4] = [
    "paper-repro",
    "grid-campaign",
    "grid-resume",
    "observed-tuning",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    scratch: PathBuf,
    sabotage: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::paper();
    let mut scratch = PathBuf::from(".bench_run");
    let mut sabotage = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "paper" => Size::paper(),
                    "tiny" => Size::tiny(),
                    _ => return Err(format!("--size takes paper or tiny, not {value}")),
                }
            }
            "--scratch" => scratch = PathBuf::from(value),
            "--sabotage" => sabotage = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        scratch,
        sabotage,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wd-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    let scratch = args
        .scratch
        .join(format!("{}-{}", args.workload, std::process::id()));
    let gauge = match std::fs::create_dir_all(&scratch)
        .and_then(|()| Gauge::create(&scratch.join("speed-gauge")))
    {
        Ok(gauge) => gauge,
        Err(error) => {
            eprintln!(
                "wd-benchmark: cannot write in {}: {error}",
                scratch.display()
            );
            return ExitCode::from(1);
        }
    };
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        size: args.size,
        scratch: scratch.clone(),
        tally: Tally {
            sabotage: args.sabotage,
            ..Tally::default()
        },
        metrics: Metrics::default(),
        notes: vec![format!(
            "workload {} seed {} trace {} on one thread of {} available",
            args.workload,
            args.seed,
            u8::from(args.trace),
            rayon::current_num_threads()
        )],
        gauge,
    };
    let completed = guarded(|| {
        run_sequential(|| match (args.workload.as_str(), args.trace) {
            ("paper-repro", false) => workloads::paper_repro(&mut run),
            ("paper-repro", true) => workloads::paper_repro_traced(&mut run),
            ("grid-campaign", false) => workloads::grid_campaign(&mut run),
            ("grid-campaign", true) => workloads::grid_traced(&mut run, false),
            ("grid-resume", false) => workloads::grid_resume(&mut run),
            ("grid-resume", true) => workloads::grid_traced(&mut run, true),
            ("observed-tuning", false) => workloads::observed_tuning(&mut run),
            (_, _) => workloads::observed_tuning_traced(&mut run),
        })
    });
    run.tally.check("workload.completed", completed.is_some());
    run.tally.check(
        "metrics.finite",
        run.metrics.0.values().all(|(value, _)| value.is_finite()),
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&args.scratch);
    print_result(&run.tally, &run.metrics, &run.notes);
    ExitCode::SUCCESS
}
