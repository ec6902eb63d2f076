//! `mpvar-perfbench`: the repository's benchmark.
//!
//! ```text
//! mpvar-perfbench --workload <study_fast|spice_rw|serve_mix> --seed <n>
//!                 --seconds <s> --trace <0|1> [--out-dir DIR] [--repo-root DIR]
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload's end-to-end
//! metrics; a traced run (`--trace 1`) installs an `mpvar-trace`
//! collector and reports the per-layer metrics. Both verify the
//! workload's outputs outside the timed body. The last line of standard
//! output is the result object; a copy with the machine fingerprint is
//! written under `--out-dir`. See `README.md` for the metric map.

mod layers;
mod measure;
mod metrics;
mod probes;
mod serve_mix;
mod spice_rw;
mod study_fast;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use metrics::{Report, Set};

/// Every workload this runner knows, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["study_fast", "spice_rw", "serve_mix"];

/// Default `--seed`: the paper's Monte-Carlo seed, the one the golden
/// CSVs in `results/` were generated with.
pub const DEFAULT_SEED: u64 = 2015;

/// SplitMix64 finalizer: derives the workloads' input seeds and
/// sequences from `--seed` (inputs only; the program's own randomness
/// stays inside the library).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The parsed command line plus what every workload shares.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget of the timed body, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Worker threads every workload runs with: all cores.
    pub threads: usize,
    /// Directory for result files, traces and scratch stores.
    pub out_dir: PathBuf,
    /// Repository root (for the golden CSVs, read only).
    pub repo_root: PathBuf,
}

impl Run {
    fn parse(args: &[String]) -> Result<Run, String> {
        let mut run = Run {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            threads: mpvar_exec::available_parallelism(),
            out_dir: PathBuf::from("perfbench/out"),
            repo_root: PathBuf::from("."),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => run.workload = value()?.clone(),
                "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                        return Err("--seconds must be positive".to_string());
                    }
                }
                "--trace" => {
                    run.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                    }
                }
                "--out-dir" => run.out_dir = PathBuf::from(value()?),
                "--repo-root" => run.repo_root = PathBuf::from(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !WORKLOADS.contains(&run.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, not `{}`",
                run.workload
            ));
        }
        Ok(run)
    }

    /// File stem of this run's outputs.
    fn tag(&self) -> String {
        format!(
            "{}-seed{}-trace{}-pid{}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            std::process::id()
        )
    }

    /// Path of the JSONL trace of one traced section.
    pub fn trace_path(&self, section: &str) -> PathBuf {
        self.out_dir
            .join(format!("{}.{section}.trace.jsonl", self.tag()))
    }

    /// A fresh scratch directory for this run's stores, under
    /// `--out-dir`; removed when the run ends.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir.join(format!("{}.tmp", self.tag()))
    }
}

/// The machine and build a result was measured on, as JSON fields.
fn fingerprint(run: &Run) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut out = String::new();
    let mut field = |key: &str, value: &str| {
        out.push_str(&format!("\"{key}\": "));
        mpvar_trace::json::push_json_str(&mut out, value);
        out.push_str(", ");
    };
    field("workload", &run.workload);
    field("seed", &run.seed.to_string());
    field("seconds", &run.seconds.to_string());
    field("trace", if run.trace { "1" } else { "0" });
    field(
        "available_parallelism",
        &mpvar_exec::available_parallelism().to_string(),
    );
    field("cpu_model", &cpu);
    field("rustflags", env!("PERFBENCH_RUSTFLAGS"));
    field("target_features", env!("PERFBENCH_TARGET_FEATURES"));
    field(
        "git_commit",
        &std::env::var("PERFBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
    );
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match Run::parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(run.scratch_dir()) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            run.scratch_dir().display()
        );
        std::process::exit(2);
    }
    let started = Instant::now();
    let mut report = Report::new(if run.trace {
        Set::PerLayer
    } else {
        Set::EndToEnd
    });
    let outcome = match run.workload.as_str() {
        "study_fast" => study_fast::run(&run, &mut report),
        "spice_rw" => spice_rw::run(&run, &mut report),
        "serve_mix" => serve_mix::run(&run, &mut report),
        _ => unreachable!("workload validated by parse"),
    };
    let _ = std::fs::remove_dir_all(run.scratch_dir());
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", run.workload);
        std::process::exit(1);
    }
    for failure in &report.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let line = report.to_json();
    let mut file = format!("{{{}", fingerprint(&run));
    file.push_str(&format!(
        "\"elapsed_s\": {:?}, \"failures\": [",
        started.elapsed().as_secs_f64()
    ));
    for (i, failure) in report.failures.iter().enumerate() {
        if i > 0 {
            file.push_str(", ");
        }
        mpvar_trace::json::push_json_str(&mut file, failure);
    }
    file.push_str("], \"pass_walls_s\": [");
    let walls: Vec<String> = report.pass_walls.iter().map(|w| format!("{w:?}")).collect();
    file.push_str(&walls.join(", "));
    let tail = measure::tail(&report.pass_walls);
    file.push_str(&format!(
        "], \"pass_wall_tail\": {}, \"result\": {line}}}\n",
        tail.map_or("null".to_string(), |(q, v)| format!(
            "{{\"q\": {q}, \"s\": {v:?}}}"
        ))
    ));
    let path = run.out_dir.join(format!("{}.result.json", run.tag()));
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{line}");
}
