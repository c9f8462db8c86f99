//! Clocks, process counters and summary statistics.

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its value with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, secs_since(t0))
}

/// A wall-clock span that also records the process CPU time it used, so a
/// parallel layer can report how busy it kept the pool
/// (CPU seconds / (wall seconds × workers)).
pub struct CpuSpan {
    wall0: Instant,
    cpu0: f64,
}

impl CpuSpan {
    pub fn start() -> CpuSpan {
        CpuSpan {
            cpu0: process_cpu_seconds(),
            wall0: Instant::now(),
        }
    }

    /// `(wall seconds, CPU seconds)`.
    pub fn stop(self) -> (f64, f64) {
        let wall = secs_since(self.wall0);
        (wall, process_cpu_seconds() - self.cpu0)
    }
}

/// User plus system CPU time of this process, from `/proc/self/stat`
/// (kernel clock ticks, 100 per second on Linux).
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // the command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, after which utime/stime are the 12th
    // and 13th entries
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the
/// closest ranks.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
