//! The metric vocabulary and the result line.
//!
//! Every name the runner can print is declared here, with its unit;
//! `BENCHMARK.json` at the repository root lists the same names (a
//! test holds the two in step). A run fills one [`Report`] for its
//! set (end-to-end when untraced, per-layer when traced), and the
//! report refuses to print unless every name of that set was measured.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mpvar_study::ArtifactId;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them from its untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics with a fixed name: `(name, unit)`. The traced run
/// of every workload reports all of them, plus one
/// `study.node_s.<artifact>` per [`ArtifactId`] (see [`per_layer`]).
pub const PER_LAYER_FIXED: [(&str, &str); 53] = [
    // Workload-level figures taken from the untraced phase of the
    // traced run (end-to-end in kind, but not every workload has them).
    ("yield_trials", "count"),
    ("read_trials_per_s", "1/s"),
    ("write_trials_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("warm_p50_ms", "ms"),
    ("warm_tail_ms", "ms"),
    ("warm_samples", "count"),
    ("cold_p50_ms", "ms"),
    ("cold_tail_ms", "ms"),
    ("cold_samples", "count"),
    ("trace_overhead_pct", "%"),
    // litho
    ("litho.sample_draw_ns", "ns"),
    ("litho.apply_draw_ns", "ns"),
    // extract
    ("extract.extract_track_ns", "ns"),
    // core
    ("core.tdp_percent_ns", "ns"),
    ("core.formula_trial_ns", "ns"),
    ("core.mc_useful_ratio", "ratio"),
    // yield
    ("yield.trials", "count"),
    ("yield.rounds", "count"),
    ("yield.useful_ratio", "ratio"),
    ("yield.round_ms", "ms"),
    // exec
    ("exec.util", "ratio"),
    ("exec.par_maps", "count"),
    ("exec.serial_par_maps", "count"),
    ("exec.chunks", "count"),
    ("exec.imbalance", "ratio"),
    // study
    ("study.cache_hits", "count"),
    ("study.cache_misses", "count"),
    ("study.encode_us", "us"),
    ("study.decode_us", "us"),
    ("study.encoded_bytes", "bytes"),
    // store
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.disk_hits", "count"),
    ("store.disk_writes", "count"),
    // sram
    ("sram.read_lane_ms", "ms"),
    ("sram.write_lane_ms", "ms"),
    ("sram.read_scalar_ms", "ms"),
    ("sram.write_scalar_ms", "ms"),
    // spice
    ("spice.fallout_ratio", "ratio"),
    ("spice.nr_iterations_per_step", "ratio"),
    ("spice.steps_per_trial", "count"),
    ("spice.batch_workspace_bytes", "bytes"),
    // serve
    ("serve.dispatch_ms.warm_p50", "ms"),
    ("serve.dispatch_ms.warm_tail", "ms"),
    ("serve.dispatch_ms.cold_p50", "ms"),
    ("serve.transport_ms.warm_p50", "ms"),
    ("serve.context_build_us", "us"),
    ("serve.materializations", "count"),
    ("serve.deduped", "count"),
    ("serve.batched", "count"),
    ("serve.dedupe_ratio", "ratio"),
    ("serve.requests", "count"),
];

/// Per-layer figures only `spice_rw` measures; the other workloads
/// report them as 0.
pub const SPICE_FIGURES: [&str; 2] = ["read_trials_per_s", "write_trials_per_s"];

/// Per-layer figures only `serve_mix` measures; the other workloads
/// report them as 0.
pub const SERVE_FIGURES: [&str; 11] = [
    "req_per_s",
    "warm_p50_ms",
    "warm_tail_ms",
    "warm_samples",
    "cold_p50_ms",
    "cold_tail_ms",
    "cold_samples",
    "serve.dispatch_ms.warm_p50",
    "serve.dispatch_ms.warm_tail",
    "serve.dispatch_ms.cold_p50",
    "serve.transport_ms.warm_p50",
];

/// Name of the per-artifact study-node metric.
pub fn node_metric(id: ArtifactId) -> String {
    format!("study.node_s.{}", id.name())
}

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    all.extend(ArtifactId::ALL.iter().map(|&id| (node_metric(id), "s")));
    all
}

/// Which metric set a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    /// Untraced run: [`END_TO_END`].
    EndToEnd,
    /// Traced run: [`per_layer`].
    PerLayer,
}

impl Set {
    fn names(self) -> Vec<(String, &'static str)> {
        match self {
            Set::EndToEnd => END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
            Set::PerLayer => per_layer(),
        }
    }
}

/// The outcome of one run: operations attempted and failed, the
/// measured metrics, and notes naming each failure.
#[derive(Debug)]
pub struct Report {
    set: Set,
    units: BTreeMap<String, &'static str>,
    values: BTreeMap<String, f64>,
    /// Operations (body operations plus verification checks) attempted.
    pub attempted: u64,
    /// Of those, the ones that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failure, for the result file and standard error.
    pub failures: Vec<String>,
    /// Wall seconds of every timed pass, for the result file.
    pub pass_walls: Vec<f64>,
}

impl Report {
    /// An empty report for `set`.
    pub fn new(set: Set) -> Self {
        Report {
            set,
            units: set.names().into_iter().collect(),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            pass_walls: Vec::new(),
        }
    }

    /// The metric set this report prints.
    pub fn set(&self) -> Set {
        self.set
    }

    /// Records `value` for `name`. Names outside this report's set are a
    /// bug in the runner.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(
            self.units.contains_key(name),
            "metric `{name}` is not declared for {:?}",
            self.set
        );
        self.values.insert(name.to_string(), value);
    }

    /// Records 0 for every name in `names`: figures of a layer this
    /// workload does not reach.
    pub fn put_zero(&mut self, names: &[&str]) {
        for name in names {
            self.put(name, 0.0);
        }
    }

    /// Counts one attempted operation, failed unless `ok`; `what` names
    /// it in the failure list.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// The metrics not yet measured.
    fn missing(&self) -> Vec<String> {
        self.units
            .keys()
            .filter(|n| !self.values.contains_key(*n))
            .cloned()
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Panics if a metric of the set is missing or not finite.
    pub fn to_json(&self) -> String {
        let missing = self.missing();
        assert!(missing.is_empty(), "unmeasured metrics: {missing:?}");
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.values.iter().enumerate() {
            assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                self.units[name]
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name in `BENCHMARK.json` under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = mpvar_trace::json::parse_json(&text).expect("BENCHMARK.json parses");
        let mpvar_trace::json::Json::Obj(top) = doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let Some(mpvar_trace::json::Json::Arr(items)) = top.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list")
        };
        items
            .iter()
            .map(|item| {
                let mpvar_trace::json::Json::Obj(o) = item else {
                    panic!("`{key}` entry is not an object")
                };
                let name = mpvar_trace::json::get_str(o, "name").expect("name");
                let unit = mpvar_trace::json::get_str(o, "unit").expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn sorted(v: Vec<(String, &str)>) -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = v.into_iter().map(|(n, u)| (n, u.to_string())).collect();
        v.sort();
        v
    }

    #[test]
    fn end_to_end_names_match_the_benchmark_file() {
        let mut file = declared("end_to_end");
        file.sort();
        let emitted = sorted(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
        );
        assert_eq!(emitted, file);
    }

    #[test]
    fn per_layer_names_match_the_benchmark_file() {
        let mut file = declared("per_layer");
        file.sort();
        assert_eq!(sorted(per_layer()), file);
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &all {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name `{name}`"
            );
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn workload_names_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let mpvar_trace::json::Json::Obj(top) = mpvar_trace::json::parse_json(&text).unwrap()
        else {
            panic!()
        };
        let Some(mpvar_trace::json::Json::Arr(items)) = top.get("workloads") else {
            panic!()
        };
        let mut file: Vec<String> = items
            .iter()
            .map(|item| {
                let mpvar_trace::json::Json::Obj(o) = item else {
                    panic!()
                };
                mpvar_trace::json::get_str(o, "name").unwrap().to_string()
            })
            .collect();
        file.sort();
        let mut known: Vec<String> = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
        known.sort();
        assert_eq!(known, file);
    }

    #[test]
    fn report_refuses_unknown_and_prints_complete_sets() {
        let mut r = Report::new(Set::EndToEnd);
        for (name, _) in END_TO_END {
            r.put(name, 1.5);
        }
        r.check(true, || unreachable!());
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let caught = std::panic::catch_unwind(|| Report::new(Set::EndToEnd).put("nope", 1.0));
        assert!(caught.is_err());
    }
}
