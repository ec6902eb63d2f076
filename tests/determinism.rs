//! Reproducibility guarantees: identical seeds give bit-identical
//! results regardless of repetition or thread count.

use mpvar::core::prelude::*;
use mpvar::litho::sample_draw;
use mpvar::sram::BitcellGeometry;
use mpvar::stats::{MonteCarlo, RngStream};
use mpvar::tech::{preset::n10, PatterningOption, VariationBudget};

#[test]
fn tdp_distribution_bit_identical_across_runs() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).expect("budget");
    let mc = McConfig::builder().trials(400).seed(99).build();
    let a =
        tdp_distribution(&tech, &cell, PatterningOption::Le3, &budget, 64, &mc).expect("mc runs");
    let b =
        tdp_distribution(&tech, &cell, PatterningOption::Le3, &budget, 64, &mc).expect("mc runs");
    assert_eq!(a.samples_percent(), b.samples_percent());
    assert_eq!(a.sigma_percent(), b.sigma_percent());
    assert_eq!(a.shorted_draws(), b.shorted_draws());
}

#[test]
fn different_seeds_give_different_samples_same_statistics() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let budget = VariationBudget::paper_default(PatterningOption::Euv, 8.0).expect("budget");
    let a = tdp_distribution(
        &tech,
        &cell,
        PatterningOption::Euv,
        &budget,
        64,
        &McConfig::builder().trials(3000).seed(1).build(),
    )
    .expect("mc runs");
    let b = tdp_distribution(
        &tech,
        &cell,
        PatterningOption::Euv,
        &budget,
        64,
        &McConfig::builder().trials(3000).seed(2).build(),
    )
    .expect("mc runs");
    assert_ne!(a.samples_percent(), b.samples_percent());
    // Statistics converge to the same distribution.
    let rel = (a.sigma_percent() - b.sigma_percent()).abs() / a.sigma_percent();
    assert!(rel < 0.10, "sigma mismatch {rel}");
}

#[test]
fn stats_engine_thread_count_invariance_carries_to_draws() {
    // The generic Monte-Carlo engine guarantees substream-per-trial;
    // spot-check with a trial body that samples litho draws.
    let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).expect("budget");
    let trial = |rng: &mut RngStream| match sample_draw(PatterningOption::Le3, &budget, rng)
        .expect("samples")
    {
        mpvar::litho::Draw::Le3(d) => d.overlay_nm[1] + d.cd_nm[0],
        _ => unreachable!(),
    };
    let serial = MonteCarlo::new(512)
        .expect("trials > 0")
        .with_seed(7)
        .run(trial);
    let parallel = MonteCarlo::new(512)
        .expect("trials > 0")
        .with_seed(7)
        .with_threads(4)
        .run(trial);
    assert_eq!(serial.samples(), parallel.samples());
}

#[test]
fn thread_count_never_changes_results() {
    // The mpvar-exec contract: for the same seed, threads = 1/4/8 give
    // byte-identical tdp samples and the identical worst-case corner,
    // for every patterning option.
    use mpvar::exec::ExecConfig;

    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    for option in PatterningOption::ALL {
        let budget = VariationBudget::paper_default(option, 8.0).expect("budget");
        let window = NominalWindow::build(&tech, &cell, option).expect("window builds");

        let mc = |threads: usize| {
            McConfig::builder()
                .trials(300)
                .seed(41)
                .threads(threads)
                .build()
        };
        let serial = tdp_distribution_with(&window, &budget, 64, &mc(1)).expect("mc runs");
        for threads in [4usize, 8] {
            let parallel =
                tdp_distribution_with(&window, &budget, 64, &mc(threads)).expect("mc runs");
            let serial_bits: Vec<u64> = serial
                .samples_percent()
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let parallel_bits: Vec<u64> = parallel
                .samples_percent()
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(serial_bits, parallel_bits, "{option} @ {threads} threads");
            assert_eq!(
                serial.shorted_draws(),
                parallel.shorted_draws(),
                "{option} @ {threads} threads"
            );
        }

        let wc_serial =
            find_worst_case_with(&window, &budget, ExecConfig::SERIAL).expect("search runs");
        for threads in [4usize, 8] {
            let wc_parallel =
                find_worst_case_with(&window, &budget, ExecConfig::with_threads(threads))
                    .expect("search runs");
            assert_eq!(
                wc_serial.draw, wc_parallel.draw,
                "{option} @ {threads} threads"
            );
            assert_eq!(
                wc_serial.infeasible_corners, wc_parallel.infeasible_corners,
                "{option} @ {threads} threads"
            );
            assert_eq!(
                wc_serial.worst, wc_parallel.worst,
                "{option} @ {threads} threads"
            );
        }
    }
}

/// A context whose yield settings are shrunk to integration-test
/// budgets: one σ-margin per option, small fit/trial caps, small
/// rounds. Bit-identity claims are budget-independent, so the shrunken
/// runs exercise exactly the dispatch paths the full experiment uses.
fn yield_ctx(threads: usize) -> experiments::ExperimentContext {
    let mut ctx = experiments::ExperimentContext::builder()
        .expect("context builds")
        .quick_preset()
        .threads(threads)
        .build();
    ctx.yield_settings.sigma_margins = vec![2.0];
    ctx.yield_settings.common_margins_percent = vec![];
    ctx.yield_settings.fit_trials = 2_000;
    ctx.yield_settings.base_round = 512;
    ctx.yield_settings.max_trials = 2_048;
    ctx.yield_settings.brute_max_trials = 2_048;
    ctx
}

#[test]
fn yield_runs_bit_identical_across_thread_counts() {
    // The round-based importance-sampling dispatch makes the same
    // substream-per-trial promise as the plain MC engine: threads =
    // 1/4/8 give byte-identical yield tables, down to the weight sums.
    use mpvar::core::rareevent::yield_6sigma;

    let serial = yield_6sigma(&yield_ctx(1)).expect("yield runs serial");
    for threads in [4usize, 8] {
        let parallel = yield_6sigma(&yield_ctx(threads)).expect("yield runs parallel");
        assert_eq!(
            serial.rows.len(),
            parallel.rows.len(),
            "@ {threads} threads"
        );
        for (s, p) in serial.rows.iter().zip(&parallel.rows) {
            assert_eq!(
                s.p_fail.to_bits(),
                p.p_fail.to_bits(),
                "{} {} p_fail @ {threads} threads",
                s.option,
                s.estimator
            );
            assert_eq!(
                s.mean_weight.to_bits(),
                p.mean_weight.to_bits(),
                "{} {} mean_w @ {threads} threads",
                s.option,
                s.estimator
            );
        }
        assert_eq!(serial, parallel, "@ {threads} threads");
    }
}

#[test]
fn yield_resume_and_merge_match_the_uninterrupted_run() {
    // Budget stops land *between* rounds, so a truncated run is a
    // round-prefix of the full one: resuming it — even on a different
    // thread count — and merging the continuation back must reproduce
    // the uninterrupted run bit for bit, on the real circuit problem.
    use mpvar::core::rareevent::resume_option_yield;
    use mpvar::yield_engine::YieldRun;

    let margin = 12.0; // shallow: failures occur, convergence does not
    let max_trials = 2_048;

    let full = resume_option_yield(
        &yield_ctx(1),
        PatterningOption::Le3,
        margin,
        max_trials,
        &YieldRun::empty(),
    )
    .expect("full run");

    // max_trials = base_round + 1 stops after round 1: a strict prefix.
    let half = resume_option_yield(
        &yield_ctx(4),
        PatterningOption::Le3,
        margin,
        513,
        &YieldRun::empty(),
    )
    .expect("half run");
    assert!(!half.converged(), "half run must be budget-stopped");
    assert!(half.consumed() < full.consumed(), "half is a strict prefix");

    let resumed = resume_option_yield(
        &yield_ctx(8),
        PatterningOption::Le3,
        margin,
        max_trials,
        &half,
    )
    .expect("resumed run");
    assert_eq!(full, resumed, "resume diverged from the uninterrupted run");

    // The merge identity: prefix ⊕ continuation == full.
    let tail = YieldRun::from_parts(
        resumed.rounds()[half.rounds().len()..].to_vec(),
        resumed.converged(),
    );
    let merged = half.merge(&tail).expect("prefix did not converge");
    assert_eq!(full, merged, "merge of the two half-runs diverged");
}

#[test]
fn experiment_context_runs_are_repeatable() {
    let ctx = {
        let mut c = experiments::ExperimentContext::quick().expect("context builds");
        c.mc.trials = 300;
        c
    };
    let a = experiments::table4(&ctx).expect("table4 runs");
    let b = experiments::table4(&ctx).expect("table4 runs");
    assert_eq!(a.rows, b.rows);
}

#[test]
fn check_report_identical_across_thread_counts() {
    // The whole `repro -- check` verdict pass — golden gate, shape
    // invariants, differential oracles — must render the exact same
    // report whether the experiment stages run serial or on 2, 4 or 8
    // workers. Reduced trials keep this test cheap; statistical golden
    // bands are calibrated for the real profiles, so the assertion here
    // is report *equality*, not that every item passes.
    use mpvar_bench::check::{run_check, CheckOptions};

    let opts = |threads: usize| CheckOptions {
        exec: ExecConfig::with_threads(threads),
        trials: Some(400),
        oracle_cases: 12,
        ..CheckOptions::new(true)
    };
    let serial = run_check(&opts(1)).expect("check runs serial");
    for threads in [2, 4, 8] {
        let parallel = run_check(&opts(threads)).expect("check runs in parallel");
        assert_eq!(
            serial, parallel,
            "check verdicts depend on thread count ({threads})"
        );
        assert_eq!(serial.render(), parallel.render());
    }
}
