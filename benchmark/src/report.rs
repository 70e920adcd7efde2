//! Sample statistics, the pass/fail tally, peak memory and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `samples` (mean of the middle two for an even count; 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set size in MB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, living or ended.
///
/// Unlike wall time it leaves out the time the process waits for a CPU,
/// whether to another process or, with paravirtual steal-time accounting, to
/// the host of a virtual machine.  It still grows when the CPU it gets runs
/// slower (see `speed.rs`), and it leaves out waiting with no CPU in use, such
/// as for a disk.
pub fn process_cpu_seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` with the C layout of
    // this target, and the clock id is a constant the kernel defines.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock is readable");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// The wall and CPU seconds one piece of work took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    pub wall: f64,
    pub cpu: f64,
    /// The process's CPU clock when the work began.
    pub cpu_at: f64,
}

/// Times one piece of work on both clocks.
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu: process_cpu_seconds(),
        }
    }

    pub fn lap(&self) -> Lap {
        Lap {
            wall: self.wall.elapsed().as_secs_f64(),
            cpu: process_cpu_seconds() - self.cpu,
            cpu_at: self.cpu,
        }
    }
}

/// Operations and checks attempted, and the names of those that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// A check deliberately inverted to prove that failures are reported.
    pub sabotage: Option<String>,
}

impl Tally {
    /// Record one check called `name`; `ok` is whether it passed.
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        let ok = ok != (self.sabotage.as_deref() == Some(name));
        self.attempted += 1;
        if !ok {
            self.failures.push(name.to_string());
        }
        ok
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Run `op`, turning a panic into `None` so that it counts as a failed check
/// instead of ending the run.
pub fn guarded<T>(op: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)).ok()
}

/// Metrics of one run, by name, with their units.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// Print the human-readable lines, then the one-line JSON result.
pub fn print_result(tally: &Tally, metrics: &Metrics, notes: &[String]) {
    for note in notes {
        println!("# {note}");
    }
    for failure in &tally.failures {
        println!("# FAILED: {failure}");
    }
    let attempted = tally.attempted.max(1);
    println!(
        "# failure_ratio = {} ({} of {} operations and checks failed)",
        tally.failed() as f64 / attempted as f64,
        tally.failed(),
        attempted
    );
    let mut json = String::new();
    for (index, (name, (value, unit))) in metrics.0.iter().enumerate() {
        let separator = if index == 0 { "" } else { ", " };
        // keep the line valid JSON; a non-finite value already failed `metrics.finite`
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            json,
            "{separator}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.failures.is_empty(),
        tally.failed()
    );
}
