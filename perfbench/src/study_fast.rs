//! `study_fast`: a cold `Study::run_all` on the `repro check --fast`
//! context (heights {16, 64}, 5 000 trials) with the input seed as the
//! Monte-Carlo seed, a `MemoryStore`, and all cores.
//!
//! One pass is one cold session, set up (context, store, session) just
//! before its timed body; passes repeat while another fits in
//! `--seconds`. The last session is then verified with the repository's own
//! `check` pass.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mpvar_bench::check::{check_context, run_check_in, CheckOptions};
use mpvar_core::experiments::ExperimentContext;
use mpvar_core::rareevent::YieldTable;
use mpvar_core::writeexp::WriteYieldTable;
use mpvar_core::{CoreError, ExecConfig};
use mpvar_study::{ArtifactId, MemoryStore, Study};
use mpvar_trace::names;

use crate::measure::{median, timed, Passes};
use crate::metrics::{Report, Set, SERVE_FIGURES, SPICE_FIGURES};
use crate::trace::{bench_span, u64_field, Recorded, Recording};
use crate::{layers, probes, Run, DEFAULT_SEED};

fn check_options(run: &Run) -> CheckOptions {
    let mut opts = CheckOptions::new(true);
    opts.exec = ExecConfig::with_threads(run.threads);
    opts.golden_dir = run.repo_root.join("results");
    opts
}

fn context(run: &Run) -> Result<ExperimentContext, CoreError> {
    let mut ctx = check_context(&check_options(run))?;
    ctx.mc.seed = run.seed;
    Ok(ctx)
}

/// Set-up of one pass: the context, an empty store and the session.
fn setup(run: &Run) -> Result<Study, String> {
    let ctx = context(run).map_err(|e| format!("setup: {e}"))?;
    Ok(Study::with_store(ctx, Arc::new(MemoryStore::new())))
}

/// One cold pass: every artifact of the fresh session `study`.
fn pass(study: &Study, report: &mut Report) -> Result<(), String> {
    let arts = {
        let _span = bench_span("study.run_all", 1);
        study.run_all()
    };
    let arts = arts.map_err(|e| format!("run_all: {e}"))?;
    report.check(arts.len() == ArtifactId::ALL.len(), || {
        format!("run_all returned {} artifacts", arts.len())
    });
    report.succeeded(arts.len() as u64 - 1);
    Ok(())
}

/// Yield-engine trials the two yield artifacts report: every run of
/// `yield_6sigma`, and the write-side runs of `write_yield`.
fn yield_trials(study: &Study) -> Result<(u64, u64), CoreError> {
    let read = study.get::<YieldTable>()?;
    let write = study.get::<WriteYieldTable>()?;
    Ok((
        read.rows.iter().map(|r| r.trials).sum(),
        write.rows.iter().map(|r| r.trials).sum(),
    ))
}

/// Cross-checks the trials the artifacts report against the trace:
/// the `yield.trials` counter must equal the summed `len` of every
/// `yield_round` span; the rounds under the `yield_6sigma` node must
/// add up to its rows exactly; and the rounds under `write_yield` must
/// cover its write-side rows (the rest are its read-side runs, which
/// the artifact reports as a probability only).
fn check_yield_trials(body: &Recorded, reported: (u64, u64), report: &mut Report) {
    let mut by_node: BTreeMap<&str, u64> = BTreeMap::new();
    let mut total = 0;
    for round in body.named(names::SPAN_YIELD_ROUND) {
        let len = u64_field(round, "len").unwrap_or(0);
        total += len;
        if let Some(node) = body.ancestor(round, names::SPAN_STUDY_NODE) {
            *by_node
                .entry(node.str_field("artifact").unwrap_or(""))
                .or_default() += len;
        }
    }
    let counter = body.counter(names::YIELD_TRIALS);
    report.check(counter == total as f64, || {
        format!("yield.trials counter {counter} != {total} trials in yield_round spans")
    });
    let six_sigma = by_node.get("yield_6sigma").copied().unwrap_or(0);
    report.check(six_sigma == reported.0, || {
        format!(
            "yield_6sigma reports {} trials, its rounds ran {six_sigma}",
            reported.0
        )
    });
    let write = by_node.get("write_yield").copied().unwrap_or(0);
    report.check(write >= reported.1, || {
        format!(
            "write_yield reports {} write trials, its rounds ran {write}",
            reported.1
        )
    });
}

/// The repository's `check --fast` verdicts on `study`. Golden CSVs
/// were generated at the paper seed, so other seeds run the named
/// invariants and oracles alone.
fn verify(run: &Run, study: &Study, report: &mut Report) -> Result<(), String> {
    let checks = run_check_in(&check_options(run), study).map_err(|e| format!("check: {e}"))?;
    for item in checks.items {
        if run.seed != DEFAULT_SEED && item.name.starts_with("golden.") {
            continue;
        }
        report.check(item.passed, || format!("{}: {}", item.name, item.detail));
    }
    Ok(())
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let budget = match report.set() {
        Set::EndToEnd => run.seconds,
        Set::PerLayer => run.seconds / 2.0,
    };
    let started = Instant::now();
    let (mut passes, mut last) = (Passes::default(), None);
    while passes.another(started, budget) {
        let study = passes.set_up(|| setup(run))?;
        passes.time(|| pass(&study, report))?;
        last = Some(study);
    }
    let study = last.expect("at least one pass");
    passes.log(&run.workload, report);

    match report.set() {
        Set::EndToEnd => {
            verify(run, &study, report)?;
            passes.put_end_to_end(report, ArtifactId::ALL.len());
        }
        Set::PerLayer => {
            report.put("exec.util", passes.util(run.threads));
            let reported = yield_trials(&study).map_err(|e| e.to_string())?;
            report.put("yield_trials", (reported.0 + reported.1) as f64);
            report.put_zero(&SPICE_FIGURES);
            report.put_zero(&SERVE_FIGURES);

            let study = setup(run)?;
            let recording = Recording::start();
            let (traced, t) = timed(|| pass(&study, report));
            let body = recording.finish(&run.trace_path("body"));
            traced?;
            report.put(
                "trace_overhead_pct",
                (t.wall_s / median(&passes.walls) - 1.0) * 100.0,
            );
            layers::fill(&body, report);
            check_yield_trials(&body, reported, report);
            verify(run, &study, report)?;

            let mut artifacts = Vec::with_capacity(ArtifactId::ALL.len());
            for id in ArtifactId::ALL {
                let value = study.artifact(id).map_err(|e| e.to_string())?;
                artifacts.push((study.key_of(id), value));
            }
            let recording = Recording::start();
            let probed = probes::all(
                study.context(),
                run.seed,
                &artifacts,
                &run.scratch_dir(),
                report,
            );
            recording.finish(&run.trace_path("probes"));
            probed?;
        }
    }
    Ok(())
}
