//! The perf gate's multi-span share windows: a `share_window` check may
//! name several spans and gates their summed self-time share, so an
//! executor whose self time moves between `exec_par_map` (serial maps
//! run inline) and `exec_chunk` (chunks of parallel maps) with the
//! thread count keeps one verdict.

use std::collections::BTreeMap;

use mpvar_obs::{check, CheckKind, ObsError, PerfBaseline, PerfCheck};
use mpvar_trace::schema::{SpanEntry, TraceLog};

/// One root span per `(name, self_ns)`, laid end to end on one thread.
fn trace(spans: &[(&str, u64)]) -> TraceLog {
    let mut log = TraceLog {
        schema: "mpvar-trace/v1".into(),
        ..TraceLog::default()
    };
    let mut start_ns = 0;
    for (i, &(name, dur_ns)) in spans.iter().enumerate() {
        log.spans.push(SpanEntry {
            id: i as u64 + 1,
            parent: None,
            name: name.into(),
            thread: 0,
            start_ns,
            dur_ns,
            fields: BTreeMap::new(),
        });
        start_ns += dur_ns;
    }
    log
}

fn executor_window(spans: &[&str]) -> PerfBaseline {
    PerfBaseline {
        workload: "test".into(),
        checks: vec![PerfCheck {
            name: "executor-self-share".into(),
            kind: CheckKind::ShareWindow {
                spans: spans.iter().map(|s| s.to_string()).collect(),
                min: 0.5,
                max: 1.0,
            },
        }],
    }
}

#[test]
fn summed_share_passes_where_each_span_alone_fails() {
    // 45% inline maps + 30% worker chunks + 25% elsewhere.
    let log = trace(&[("exec_par_map", 45), ("exec_chunk", 30), ("other", 25)]);
    let both = check(&executor_window(&["exec_par_map", "exec_chunk"]), &log).expect("check");
    assert!(both.passed(), "{both:?}");
    assert!(
        both.checks[0]
            .detail
            .contains("`exec_par_map` + `exec_chunk`")
            && both.checks[0].detail.contains("75.0%"),
        "{}",
        both.checks[0].detail
    );
    for alone in ["exec_par_map", "exec_chunk"] {
        let report = check(&executor_window(&[alone]), &log).expect("check");
        assert_eq!(report.failed_names(), ["executor-self-share"], "{alone}");
    }
}

#[test]
fn summed_share_still_fails_when_the_executor_loses_its_share() {
    let log = trace(&[("exec_par_map", 20), ("exec_chunk", 20), ("other", 60)]);
    let report = check(&executor_window(&["exec_par_map", "exec_chunk"]), &log).expect("check");
    assert_eq!(report.failed_names(), ["executor-self-share"]);
    // A listed span missing from the trace adds nothing.
    let log = trace(&[("exec_par_map", 40), ("other", 60)]);
    let report = check(&executor_window(&["exec_par_map", "exec_chunk"]), &log).expect("check");
    assert!(!report.passed());
}

#[test]
fn span_lists_round_trip_and_single_names_keep_their_form() {
    let multi = executor_window(&["exec_par_map", "exec_chunk"]);
    let json = multi.to_json();
    assert!(
        json.contains(r#""span":["exec_par_map","exec_chunk"]"#),
        "{json}"
    );
    assert_eq!(PerfBaseline::parse(&json).expect("parse"), multi);

    let single = executor_window(&["spice_transient"]);
    let json = single.to_json();
    assert!(json.contains(r#""span":"spice_transient""#), "{json}");
    assert_eq!(PerfBaseline::parse(&json).expect("parse"), single);
}

#[test]
fn bad_span_lists_are_named_baseline_errors() {
    let doc = |span: &str| {
        format!(
            r#"{{"schema":"mpvar-perf-baseline/v1","workload":"w",
            "checks":[{{"name":"x","kind":"share_window","span":{span},"min":0.1,"max":0.9}}]}}"#
        )
    };
    for (span, needle) in [
        ("[]", "at least one"),
        (r#"["a","a"]"#, "twice"),
        (r#"["a",3]"#, "must contain strings"),
        ("7", "span"),
    ] {
        match PerfBaseline::parse(&doc(span)) {
            Err(ObsError::Baseline(m)) => assert!(m.contains(needle), "{span}: {m}"),
            other => panic!("{span}: expected a baseline error, got {other:?}"),
        }
    }
}

#[test]
fn committed_baseline_gates_the_whole_executor() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/perf_baseline.json"
    );
    let text = std::fs::read_to_string(path).expect("committed baseline");
    let baseline = PerfBaseline::parse(&text).expect("parse");
    let executor = baseline
        .checks
        .iter()
        .find(|c| c.name == "executor-self-share")
        .expect("executor-self-share check");
    assert_eq!(
        executor.kind,
        CheckKind::ShareWindow {
            spans: vec!["exec_par_map".into(), "exec_chunk".into()],
            min: 0.5,
            max: 1.0,
        }
    );
}
