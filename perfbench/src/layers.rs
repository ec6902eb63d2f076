//! Per-layer metrics read from the spans and counters the library
//! already emits during one traced pass of a workload's body.

use std::collections::BTreeMap;

use mpvar_study::ArtifactId;
use mpvar_trace::names;

use crate::measure::median;
use crate::metrics::{node_metric, Report};
use crate::trace::{ratio, u64_field, Recorded};

/// Fills every counter- and span-derived per-layer metric from `body`.
/// A layer the workload does not reach reads 0.
pub fn fill(body: &Recorded, report: &mut Report) {
    // core: accepted Monte-Carlo samples over draws attempted.
    let trials = body.counter(names::MC_TRIALS);
    report.put(
        "core.mc_useful_ratio",
        ratio(trials, trials + body.counter(names::MC_SHORTED)),
    );

    // yield
    let y_trials = body.counter(names::YIELD_TRIALS);
    report.put("yield.trials", y_trials);
    report.put("yield.rounds", body.counter(names::YIELD_ROUNDS));
    report.put(
        "yield.useful_ratio",
        if y_trials > 0.0 {
            1.0 - body.counter(names::YIELD_ZERO_WEIGHT) / y_trials
        } else {
            0.0
        },
    );
    report.put("yield.round_ms", body.p50_ms(names::SPAN_YIELD_ROUND));

    // exec: parallel maps, the ones that ran on one thread, and the
    // median slowest-over-mean chunk wall of maps with several chunks.
    let maps: Vec<_> = body.named(names::SPAN_EXEC_PAR_MAP).collect();
    report.put("exec.par_maps", maps.len() as f64);
    report.put(
        "exec.serial_par_maps",
        maps.iter()
            .filter(|s| u64_field(s, "threads") == Some(1))
            .count() as f64,
    );
    report.put("exec.chunks", body.counter(names::EXEC_CHUNKS));
    let mut chunks: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for chunk in body.named(names::SPAN_EXEC_CHUNK) {
        if let Some(parent) = chunk.parent {
            chunks.entry(parent).or_default().push(chunk.dur_ns as f64);
        }
    }
    let imbalances: Vec<f64> = chunks
        .values()
        .filter(|d| d.len() >= 2)
        .map(|d| {
            let mean = d.iter().sum::<f64>() / d.len() as f64;
            ratio(d.iter().copied().fold(0.0, f64::max), mean)
        })
        .collect();
    report.put(
        "exec.imbalance",
        if imbalances.is_empty() {
            0.0
        } else {
            median(&imbalances)
        },
    );

    // study: producer wall per artifact (cache hits are zero-length
    // spans and are skipped), and the cache counters.
    let mut node_s: BTreeMap<&str, f64> = BTreeMap::new();
    for span in body.named(names::SPAN_STUDY_NODE) {
        if span.str_field("outcome") == Some("computed") {
            if let Some(artifact) = span.str_field("artifact") {
                *node_s.entry(artifact).or_default() += span.dur_ns as f64 / 1e9;
            }
        }
    }
    for id in ArtifactId::ALL {
        report.put(
            &node_metric(id),
            node_s.get(id.name()).copied().unwrap_or(0.0),
        );
    }
    report.put("study.cache_hits", body.counter(names::CACHE_HITS));
    report.put("study.cache_misses", body.counter(names::CACHE_MISSES));

    // store
    report.put("store.disk_hits", body.counter(names::STORE_DISK_HITS));
    report.put("store.disk_writes", body.counter(names::STORE_DISK_WRITES));

    // spice: lanes evicted to the scalar path; Newton iterations per
    // timestep (scalar iterations plus batched refactors, over scalar
    // plus batched solves); integration steps per transient analysis,
    // a batched analysis counting once for all its lanes.
    report.put(
        "spice.fallout_ratio",
        ratio(
            body.counter(names::SPICE_BATCH_FALLOUTS),
            body.counter(names::SPICE_BATCH_LANE_TRIALS),
        ),
    );
    report.put(
        "spice.nr_iterations_per_step",
        ratio(
            body.counter(names::SPICE_NR_ITERATIONS) + body.counter(names::SPICE_BATCH_REFACTORS),
            body.counter(names::SPICE_SOLVES) + body.counter(names::SPICE_BATCH_SOLVES),
        ),
    );
    let analyses = body.named(names::SPAN_SPICE_TRANSIENT).count()
        + body.named(names::SPAN_SPICE_BATCH).count();
    report.put(
        "spice.steps_per_trial",
        ratio(
            body.counter(names::SPICE_TRANSIENT_STEPS) + body.counter(names::SPICE_BATCH_SOLVES),
            analyses as f64,
        ),
    );
    report.put(
        "spice.batch_workspace_bytes",
        body.gauge(names::SPICE_BATCH_WORKSPACE_BYTES),
    );

    // serve: dispatcher counters (the dedupe ratio as the dispatcher
    // defines its gauge: deduped over requests).
    let requests = body.counter(names::SERVE_REQUESTS);
    report.put("serve.requests", requests);
    report.put(
        "serve.materializations",
        body.counter(names::SERVE_MATERIALIZATIONS),
    );
    report.put("serve.deduped", body.counter(names::SERVE_DEDUPED));
    report.put("serve.batched", body.counter(names::SERVE_BATCHED));
    report.put(
        "serve.dedupe_ratio",
        ratio(body.counter(names::SERVE_DEDUPED), requests),
    );
}
