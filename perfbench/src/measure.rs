//! Process-level measurements (CPU time, peak memory) and the summary
//! statistics every reported timing goes through.

use std::ffi::{c_int, c_long};
use std::time::Instant;

use crate::metrics::Report;

/// `struct timeval` of the C library on 64-bit Linux.
#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of the C library on 64-bit Linux: two timevals and
/// fourteen `long` counters.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    counters: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// User + system CPU seconds consumed by this process so far, all
/// threads, exited ones included. The kernel keeps the sum exact (the
/// tick-based user/system split is only rescaled), so the resolution is
/// a microsecond, not a 10 ms tick as in `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout on this target, and RUSAGE_SELF is a valid `who`; the call
    // writes only within the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&usage.ru_utime) + secs(&usage.ru_stime)
}

/// Peak resident set size of this process since start or the last
/// [`reset_peak_rss`], MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM present");
    kb / 1024.0
}

/// Returns the allocator's free memory to the kernel, then resets the
/// peak resident set size to the current one, so the next
/// [`peak_rss_mb`] covers what runs in between on top of the live set
/// alone, as in a fresh process. Without the trim, the peak would also
/// hold whatever free memory earlier work (a warm-up, priming) left in
/// the allocator's per-thread arenas, which varies with thread timing.
/// Where the kernel refuses the reset, the peak stays cumulative over
/// the process.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim only releases free pages of the
    // allocator's own heaps; it takes no pointers.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Wall and CPU seconds of one timed section.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, every thread).
    pub cpu_s: f64,
}

/// Runs `f`, returning its result with the wall and CPU time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (out, Timed { wall_s, cpu_s })
}

/// Per-pass measurements of a workload's timed loop.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall seconds of each pass's set-up: the part of the pass's inputs
    /// (context, store, server) built before its timed body.
    pub setups: Vec<f64>,
    /// Wall seconds per pass.
    pub walls: Vec<f64>,
    /// Process CPU seconds per pass.
    pub cpus: Vec<f64>,
    /// Peak resident set reached during the first pass, MB. Measured
    /// from the live set alone, the first pass's peak repeats from run
    /// to run; later passes' peaks scatter (on `study_fast`, 22–39 MB
    /// against 27 MB for the first), so they are not used.
    pub first_peak_mb: f64,
}

impl Passes {
    /// Whether another pass fits in `budget_s` seconds since `started`:
    /// always the first, then while the elapsed time plus one mean pass
    /// stays within the budget.
    pub fn another(&self, started: Instant, budget_s: f64) -> bool {
        if self.walls.is_empty() {
            return true;
        }
        let mean = self.walls.iter().sum::<f64>() / self.walls.len() as f64;
        started.elapsed().as_secs_f64() + mean <= budget_s
    }

    /// Runs `f` as the set-up of the next pass, recording its wall time.
    pub fn set_up<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, t) = timed(f);
        self.setups.push(t.wall_s);
        out
    }

    /// Runs `f` as one pass, recording its wall and CPU time and, for the
    /// first pass, the peak resident set reached while it ran.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let first = self.walls.is_empty();
        if first {
            reset_peak_rss();
        }
        let (out, t) = timed(f);
        if first {
            self.first_peak_mb = peak_rss_mb();
        }
        self.walls.push(t.wall_s);
        self.cpus.push(t.cpu_s);
        out
    }

    /// Median over passes of `cpu / (wall × threads)`.
    pub fn util(&self, threads: usize) -> f64 {
        let u: Vec<f64> = self
            .walls
            .iter()
            .zip(&self.cpus)
            .map(|(w, c)| c / (w * threads as f64))
            .collect();
        median(&u)
    }

    /// Median over passes of `ops / wall`.
    pub fn rate(&self, ops: usize) -> f64 {
        let r: Vec<f64> = self.walls.iter().map(|w| ops as f64 / w).collect();
        median(&r)
    }

    /// Records the end-to-end metrics of these passes, each of `ops`
    /// operations, in `report`.
    pub fn put_end_to_end(&self, report: &mut Report, ops: usize) {
        report.put("setup_s", median(&self.setups));
        report.put("wall_s", median(&self.walls));
        report.put("cpu_s", median(&self.cpus));
        report.put("peak_rss_mb", self.first_peak_mb);
        report.put("ops_per_s", self.rate(ops));
    }

    /// Logs the pass and set-up walls to standard error and keeps the
    /// pass walls for the result file.
    pub fn log(&self, workload: &str, report: &mut Report) {
        log_times(workload, "pass walls", &self.walls);
        log_times(workload, "set-ups", &self.setups);
        report.pass_walls.clone_from(&self.walls);
    }
}

/// Logs a list of timings to standard error, for diagnosing spread.
fn log_times(workload: &str, what: &str, secs: &[f64]) {
    let list: Vec<String> = secs.iter().map(|w| format!("{w:.6}")).collect();
    eprintln!("perfbench: {workload} {what} (s): {}", list.join(" "));
}

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`.
fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail report may use, highest first.
const TAIL_LEVELS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// The highest of [`TAIL_LEVELS`] that still leaves at least ten samples
/// strictly beyond it, with its value: a tail estimate resting on fewer
/// than ten samples is one outlier wide. `None` when not even the median
/// has ten samples beyond it (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    TAIL_LEVELS.iter().find_map(|&q| {
        let beyond = values.len() - (q * values.len() as f64).ceil() as usize;
        (beyond >= 10).then(|| (q, percentile(values, q)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.99, 990.0)));
        // 999 samples: p99 would leave 9, so p95 is the highest allowed.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|(q, _)| q), Some(0.95));
        // 100 samples: p90 leaves 10.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.9, 90.0)));
        // 20 samples: only the median has ten beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.5, 10.0)));
        // 19 samples: nothing qualifies.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn every_tail_choice_leaves_ten_beyond() {
        for n in 1..3000usize {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            if let Some((_, value)) = tail(&v) {
                let beyond = v.iter().filter(|&&x| x > value).count();
                assert!(beyond >= 10, "n = {n}: {beyond} beyond");
            }
        }
    }

    #[test]
    fn process_counters_read() {
        let t0 = cpu_seconds();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > t0, "{x}");
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn passes_stop_before_the_budget() {
        let started = Instant::now();
        let mut p = Passes::default();
        assert!(p.another(started, 0.0));
        p.walls.push(2.0);
        assert!(!p.another(started, 1.0));
        p.walls.push(4.0);
        assert!(p.another(started, 10.0));
        assert!(!p.another(started, 2.5));
    }
}
