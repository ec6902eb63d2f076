//! The traced run's recording: an `mpvar-trace` collector with an
//! in-memory sink, written out as `mpvar-trace/v1` JSONL when the
//! section ends, and read back through `mpvar-obs` aggregates.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use mpvar_obs::TraceProfile;
use mpvar_trace::{
    Collector, CollectorGuard, FieldValue, JsonlSink, Metric, RecordingSink, SpanRecord, TraceSink,
};

/// Span the benchmark opens around its calls into a layer. Fields name
/// the layer function (`call`) and how many calls the span covers
/// (`calls`).
pub const BENCH_SPAN: &str = "bench_call";

/// Opens a [`BENCH_SPAN`] over `calls` calls of `call` (a no-op guard
/// while untraced).
pub fn bench_span(call: &str, calls: usize) -> mpvar_trace::SpanGuard {
    mpvar_trace::span!(BENCH_SPAN, call = call.to_string(), calls = calls)
}

/// A collector installed for one traced section.
pub struct Recording {
    recording: Arc<RecordingSink>,
    jsonl: Arc<JsonlSink>,
    guard: CollectorGuard,
}

impl Recording {
    /// Installs a fresh collector; spans and metrics from every thread
    /// are recorded until [`Recording::finish`].
    pub fn start() -> Self {
        let recording = Arc::new(RecordingSink::new());
        let jsonl = Arc::new(JsonlSink::new());
        let collector = Collector::new(vec![
            Arc::clone(&recording) as Arc<dyn TraceSink>,
            Arc::clone(&jsonl) as Arc<dyn TraceSink>,
        ]);
        let guard = collector.install();
        Recording {
            recording,
            jsonl,
            guard,
        }
    }

    /// Ends the section, writes its JSONL trace to `path`, and returns
    /// what was recorded.
    pub fn finish(self, path: &Path) -> Recorded {
        drop(self.guard);
        let text = self.jsonl.contents();
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("perfbench: cannot write trace {}: {e}", path.display());
        }
        let profile = mpvar_trace::validate_jsonl(&text)
            .ok()
            .and_then(|log| mpvar_obs::profile(&log).ok());
        Recorded {
            spans: self.recording.spans(),
            metrics: self.recording.metrics().unwrap_or_default(),
            profile,
        }
    }
}

/// The spans and final metrics of one traced section.
pub struct Recorded {
    /// Every completed span, in completion order.
    pub spans: Vec<SpanRecord>,
    /// Final counters, gauges and histograms.
    pub metrics: BTreeMap<String, Metric>,
    /// `mpvar-obs` aggregates over the section's trace (`None` when the
    /// section emitted no spans).
    pub profile: Option<TraceProfile>,
}

impl Recorded {
    /// A counter's final value (0 when never bumped).
    pub fn counter(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(n)) => *n as f64,
            _ => 0.0,
        }
    }

    /// A gauge's last value (0 when never set).
    pub fn gauge(&self, name: &str) -> f64 {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) if v.is_finite() => *v,
            _ => 0.0,
        }
    }

    /// Median duration of the spans named `name`, ms, from the
    /// `mpvar-obs` aggregate (0 when none ran).
    pub fn p50_ms(&self, name: &str) -> f64 {
        self.profile
            .as_ref()
            .and_then(|p| p.aggregate(name))
            .map_or(0.0, |a| a.p50_ns as f64 / 1e6)
    }

    /// The nearest ancestor of `span` named `name`.
    pub fn ancestor(&self, span: &SpanRecord, name: &str) -> Option<&SpanRecord> {
        let mut parent = span.parent;
        while let Some(id) = parent {
            let p = self.spans.iter().find(|s| s.id == id)?;
            if p.name == name {
                return Some(p);
            }
            parent = p.parent;
        }
        None
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// A span's unsigned integer field.
pub fn u64_field(span: &SpanRecord, key: &str) -> Option<u64> {
    match span.field(key)? {
        FieldValue::U64(v) => Some(*v),
        FieldValue::I64(v) => u64::try_from(*v).ok(),
        _ => None,
    }
}

/// Numerator over denominator, 0 when the denominator is 0 (the layer
/// did not run in this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
