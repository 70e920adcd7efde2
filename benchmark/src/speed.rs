//! A gauge of the machine's speed: a fixed reference computation, owned by the
//! benchmark and independent of the program, timed in CPU time between the
//! program's operations.
//!
//! On a shared virtual machine the same single-threaded work can take 40 % more
//! CPU time in one minute than in the next: the host's other tenants slow the
//! core the process runs on, which no clock of the process can leave out.  The
//! benchmark therefore times the reference right before and right after each
//! stretch of operations and scales the operations' CPU times by how much
//! slower or faster than [`REFERENCE_SECONDS`] the reference ran then.  The
//! reference does, in about equal parts, the three kinds of work the workloads
//! spend their time on: arithmetic (integer hashing, floating point,
//! data-dependent branches, number formatting into text), a dependent walk
//! through a table the size of a core's own cache, as the lookups in tables and
//! stores make, and small appends to a file, one system call each, as the
//! result store and the event exporter make them.  The workloads weigh these
//! differently, and each alone tracked some workload poorly: on a 2-vCPU
//! virtual machine, over three to seven minutes of each workload, the medians
//! of 10 to 30 seconds of operations spread by 6 to 44 % in CPU time, and by 4
//! to 10 % scaled by the three parts together.  A change to the program cannot
//! move the reference.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::hint::black_box;
use std::io::{self, Seek, Write};
use std::path::Path;

use crate::report::{process_cpu_seconds, Lap};

/// Rounds of the arithmetic part.
const ROUNDS: u64 = 200_000;

/// Entries of the walk's table (2 MiB of `u32`), and the steps of one walk.
const WALK_ENTRIES: usize = 1 << 19;
const WALK_STEPS: usize = 30_000;

/// Appends of the file part, and the bytes of each.
const APPENDS: usize = 4_000;
const APPEND_BYTES: usize = 96;

/// The nominal CPU seconds of one reference computation, the unit scaled times
/// are expressed in: about what it takes on a quiet 2 GHz Xeon core.  Only a
/// unit; it never changes, so scaled times of different versions compare.
pub const REFERENCE_SECONDS: f64 = 0.009;

/// The checksum the arithmetic part and the walk must produce.
pub const REFERENCE_CHECKSUM: u64 = 2_423_674_471_865_683_961;

/// The arithmetic part of the reference; returns its checksum.
fn arithmetic() -> u64 {
    let mut table = [0u64; 1 << 13];
    let mask = table.len() - 1;
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut sum = 0.0f64;
    let mut text = String::new();
    let mut formatted = 0u64;
    for round in 0..black_box(ROUNDS) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let slot = (state as usize) & mask;
        table[slot] = table[slot].rotate_left(7) ^ state;
        let unit = (state >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        sum += if table[slot] & 1 == 0 {
            unit.sqrt()
        } else {
            (unit + 1.0).ln()
        };
        if round % 64 == 0 {
            text.clear();
            write!(text, "{sum}").expect("writing to a String cannot fail");
            formatted += text.len() as u64;
        }
    }
    table
        .iter()
        .fold(sum.to_bits() ^ formatted, |hash, &value| {
            hash.rotate_left(5) ^ value
        })
}

/// The walk's table: a random cyclic permutation of its slots, so that a walk
/// from any slot visits every slot before it repeats.
fn walk_table() -> Vec<u32> {
    // Sattolo's shuffle of the identity yields a single cycle.
    let mut next: Vec<u32> = (0..WALK_ENTRIES as u32).collect();
    let mut state: u64 = 0x1234_5678_9abc_def1;
    for slot in (1..WALK_ENTRIES).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(slot, (state % slot as u64) as usize);
    }
    next
}

/// The walk part of the reference: each step's slot is the previous step's
/// entry, so every step waits for a load from the table.  Returns the last slot.
fn walk(next: &[u32]) -> u32 {
    let mut slot = 0u32;
    for _ in 0..black_box(WALK_STEPS) {
        slot = next[slot as usize];
    }
    slot
}

/// One timed reference computation.
#[derive(Debug, Clone, Copy)]
struct Reading {
    /// The process's CPU clock when it began.
    cpu_at: f64,
    /// Its CPU seconds.
    seconds: f64,
}

/// Reference computations timed between the operations of one run.
pub struct Gauge {
    /// The walk's table.
    next: Vec<u32>,
    /// The file the reference appends to, emptied after every reading.
    file: File,
    readings: Vec<Reading>,
    /// Readings whose checksum was wrong or whose appends failed.
    pub wrong: usize,
}

impl Gauge {
    /// A gauge that appends to a new file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        Ok(Gauge {
            next: walk_table(),
            file,
            readings: Vec::new(),
            wrong: 0,
        })
    }

    /// The file part of the reference: the appends, then emptying the file.
    fn appends(&mut self) -> io::Result<()> {
        let line = [b'x'; APPEND_BYTES];
        for _ in 0..APPENDS {
            self.file.write_all(&line)?;
        }
        self.file.set_len(0)?;
        self.file.rewind()?;
        Ok(())
    }

    /// Time one reference computation.
    pub fn read(&mut self) {
        let cpu_at = process_cpu_seconds();
        let checksum = black_box(arithmetic()) ^ u64::from(black_box(walk(&self.next)));
        let appended = self.appends();
        let seconds = process_cpu_seconds() - cpu_at;
        if checksum != REFERENCE_CHECKSUM || appended.is_err() {
            self.wrong += 1;
        }
        self.readings.push(Reading { cpu_at, seconds });
    }

    /// Every reading's CPU seconds, in order.
    pub fn seconds(&self) -> Vec<f64> {
        self.readings
            .iter()
            .map(|reading| reading.seconds)
            .collect()
    }

    /// `lap`'s CPU seconds in reference seconds: scaled by [`REFERENCE_SECONDS`]
    /// over the mean of the last reading before the lap and the first after it
    /// (the one there is, at either end of the run; NaN, which fails the run's
    /// `metrics.finite` check, if there is none).
    pub fn scaled(&self, lap: &Lap) -> f64 {
        let after = self
            .readings
            .partition_point(|reading| reading.cpu_at < lap.cpu_at + lap.cpu);
        let before = self.readings[..after]
            .iter()
            .rposition(|reading| reading.cpu_at + reading.seconds <= lap.cpu_at);
        let around: Vec<f64> = before
            .into_iter()
            .chain((after < self.readings.len()).then_some(after))
            .map(|index| self.readings[index].seconds)
            .collect();
        lap.cpu * REFERENCE_SECONDS * around.len() as f64 / around.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_computes_its_checksum() {
        assert_eq!(
            arithmetic() ^ u64::from(walk(&walk_table())),
            REFERENCE_CHECKSUM
        );
    }

    #[test]
    fn a_lap_is_scaled_by_the_readings_around_it() {
        let dir = std::env::temp_dir().join(format!("speed-gauge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temporary directory");
        let mut gauge = Gauge::create(&dir.join("appends")).expect("a gauge file");
        gauge.read();
        assert_eq!(gauge.wrong, 0);
        assert_eq!(
            std::fs::metadata(dir.join("appends")).map(|m| m.len()).ok(),
            Some(0)
        );
        let reading = |cpu_at, seconds| Reading { cpu_at, seconds };
        gauge.readings = vec![
            reading(0.0, 1.0),
            reading(1.0, 2.0 * REFERENCE_SECONDS),
            reading(5.0, 4.0 * REFERENCE_SECONDS),
            reading(9.0, 1.0),
        ];
        let lap = |cpu_at, cpu| Lap {
            wall: cpu,
            cpu,
            cpu_at,
        };
        // between the readings at 1 and 5: their mean is 3 references
        assert!((gauge.scaled(&lap(2.0, 3.0)) - 1.0).abs() < 1e-12);
        // after the last reading: that one alone
        assert!((gauge.scaled(&lap(10.0, 2.0)) - 2.0 * REFERENCE_SECONDS).abs() < 1e-12);
        gauge.readings.clear();
        assert!(gauge.scaled(&lap(0.0, 1.0)).is_nan());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
