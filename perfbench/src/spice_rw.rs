//! `spice_rw`: SPICE-backed LE3 trials at the paper's Fig. 5 height
//! (n = 64) on all cores. Reads go through `tdp_distribution_spice` at
//! the default batch width; writes through `run_yield` on a
//! `SpiceWriteYieldProblem` with a brute-force proposal and a fixed
//! trial budget.
//!
//! One pass is [`READ_TRIALS`] reads then [`WRITE_TRIALS`] writes, on a
//! context and write problem set up just before it, and on draws of a
//! seed of its own, derived from the input seed and the pass number.
//! Passes repeat while another fits in `--seconds`. A read whose sense
//! never trips or a write that never flips is a measured result of its
//! trial, not an error.

use std::time::Instant;

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::montecarlo::TdpDistribution;
use mpvar_core::rareevent::{SpiceWriteYieldProblem, ZMap};
use mpvar_core::{tdp_distribution_spice, CoreError, McConfig, SpiceMcOptions};
use mpvar_litho::{sample_draw, Draw};
use mpvar_sram::{
    simulate_read, simulate_write, simulate_write_batch_in, ReadConfig, SramError,
    WriteBatchScratch, WriteConfig,
};
use mpvar_stats::RngStream;
use mpvar_tech::PatterningOption;
use mpvar_yield::{run_yield, FailureProblem, Proposal, YieldConfig, YieldRun};

use crate::measure::{median, timed, Passes, Timed};
use crate::metrics::{Report, Set, SERVE_FIGURES};
use crate::probes::N_CELLS;
use crate::trace::{bench_span, Recording};
use crate::{layers, mix, probes, Run};

/// SPICE read trials per pass (two 16-lane batches per worker on two
/// cores).
const READ_TRIALS: usize = 64;
/// SPICE write trials per pass: one brute-force yield round of this
/// size.
const WRITE_TRIALS: usize = 64;
/// Write-time-penalty margin (percent) defining a write failure: the
/// shallower of the write-yield study's margins.
const WRITE_MARGIN_PERCENT: f64 = 8.0;
/// Leading trials of a pass re-run on the scalar path.
const PREFIX: usize = 16;

const OPTION: PatterningOption = PatterningOption::Le3;

fn context(run: &Run) -> Result<ExperimentContext, CoreError> {
    Ok(ExperimentContext::builder()?
        .quick_preset()
        .seed(run.seed)
        .threads(run.threads)
        .build())
}

fn problem_of(ctx: &ExperimentContext) -> Result<SpiceWriteYieldProblem<'_>, CoreError> {
    SpiceWriteYieldProblem::new(
        &ctx.tech,
        &ctx.cell,
        WriteConfig::default(),
        OPTION,
        &ctx.budget(OPTION)?,
        N_CELLS,
        WRITE_MARGIN_PERCENT,
    )
}

fn read_config(seed: u64, trials: usize, threads: usize) -> McConfig {
    McConfig::builder()
        .trials(trials)
        .seed(seed)
        .threads(threads)
        .build()
}

/// The write problem's z-space map (the one `SpiceWriteYieldProblem`
/// builds from the same option and budget).
fn z_map(ctx: &ExperimentContext) -> Result<ZMap, CoreError> {
    ZMap::build(OPTION, &ctx.budget(OPTION)?)
}

fn write_config(
    seed: u64,
    map: &ZMap,
    trials: usize,
    threads: usize,
) -> Result<YieldConfig, CoreError> {
    Ok(YieldConfig::new(map.domain()?, Proposal::BruteForce)
        .seed(seed)
        .base_round(trials)
        .max_trials(trials)
        .threads(threads))
}

/// The batched SPICE read farm over `mc.trials` trials.
fn reads(
    ctx: &ExperimentContext,
    mc: &McConfig,
    opts: &SpiceMcOptions,
) -> Result<TdpDistribution, CoreError> {
    tdp_distribution_spice(
        &ctx.tech,
        &ctx.cell,
        OPTION,
        &ctx.budget(OPTION)?,
        N_CELLS,
        mc,
        opts,
    )
}

/// Trials a read farm accounts for: `tdp` samples, shorted draws and
/// failed reads (a sense that never tripped).
fn accounted(dist: &TdpDistribution) -> usize {
    dist.samples_percent().len() + dist.shorted_draws() + dist.failed_reads()
}

/// One read trial, classified as the farm classifies it.
#[derive(Debug, Clone, Copy)]
enum ReadTrial {
    /// Read-delay penalty over the nominal read, percent.
    Sample(f64),
    /// The draw printed shorted geometry.
    Shorted,
    /// The sense never tripped: a measured failure of the cell.
    Failed,
}

/// The scalar-path twin of the first `trials` read trials of seed
/// `seed`: each draw through `simulate_read`.
fn scalar_reads(
    ctx: &ExperimentContext,
    read: &ReadConfig,
    seed: u64,
    trials: usize,
) -> Result<Vec<ReadTrial>, CoreError> {
    let budget = ctx.budget(OPTION)?;
    let td_nom = simulate_read(&ctx.tech, &ctx.cell, read, N_CELLS, &Draw::nominal(OPTION))?.td_s;
    let base = RngStream::from_seed(seed);
    (0..trials as u64)
        .map(|k| {
            let draw = sample_draw(OPTION, &budget, &mut base.substream(k))?;
            match simulate_read(&ctx.tech, &ctx.cell, read, N_CELLS, &draw) {
                Ok(o) => Ok(ReadTrial::Sample((o.td_s / td_nom - 1.0) * 100.0)),
                Err(SramError::Litho(_)) => Ok(ReadTrial::Shorted),
                Err(SramError::SenseNeverTripped { .. }) => Ok(ReadTrial::Failed),
                Err(e) => Err(e.into()),
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether `dist`, a farm over the same trials as `scalar`, resolved
/// them the same way: the same samples bit for bit in trial order, and
/// as many shorted draws and failed reads. (The farm reports only
/// counts of the latter two; a shorted draw is decided by the print
/// alone, before any simulation.)
fn same_reads(dist: &TdpDistribution, scalar: &[ReadTrial]) -> bool {
    let mut samples = Vec::new();
    let (mut shorted, mut failed) = (0, 0);
    for trial in scalar {
        match *trial {
            ReadTrial::Sample(v) => samples.push(v.to_bits()),
            ReadTrial::Shorted => shorted += 1,
            ReadTrial::Failed => failed += 1,
        }
    }
    bits(dist.samples_percent()) == samples
        && dist.shorted_draws() == shorted
        && dist.failed_reads() == failed
}

/// Whether two read farms over the same trials agree exactly.
fn same_farm(a: &TdpDistribution, b: &TdpDistribution) -> bool {
    bits(a.samples_percent()) == bits(b.samples_percent())
        && a.shorted_draws() == b.shorted_draws()
        && a.failed_reads() == b.failed_reads()
}

/// The z-vectors of the first `trials` trials of the brute-force write
/// round `cfg`, rebuilt as `run_yield` draws them (trial `k` from
/// substream `k`; out-of-support draws are skipped).
fn write_zs(cfg: &YieldConfig, seed: u64, trials: usize) -> Result<Vec<f64>, String> {
    let base = RngStream::from_seed(seed);
    let (mut zs, mut z) = (Vec::new(), Vec::new());
    for k in 0..trials as u64 {
        let log_w = cfg
            .proposal()
            .draw(cfg.domain(), &mut base.substream(k), &mut z)
            .map_err(|e| e.to_string())?;
        if log_w.exp() > 0.0 {
            zs.extend_from_slice(&z);
        }
    }
    Ok(zs)
}

/// Checks a timed pass against the scalar testbenches and one thread:
/// its first [`PREFIX`] read and write trials lane by lane against
/// scalar `simulate_read`/`simulate_write` on the same draws, and its
/// whole read farm and write round against one-thread runs.
fn verify(
    run: &Run,
    ctx: &ExperimentContext,
    problem: &SpiceWriteYieldProblem<'_>,
    last: &Pass,
    report: &mut Report,
) -> Result<(), String> {
    let err = |e: CoreError| e.to_string();
    let opts = SpiceMcOptions::default();

    // Reads: a farm over the pass's first trials against the scalar
    // reads; the pass's leading samples against the same; and the whole
    // pass against a one-thread farm.
    let scalar = scalar_reads(ctx, &opts.read, last.seed, PREFIX).map_err(err)?;
    let head = reads(ctx, &read_config(last.seed, PREFIX, run.threads), &opts).map_err(err)?;
    report.check(same_reads(&head, &scalar), || {
        "batched read trials differ from scalar simulate_read".to_string()
    });
    let n = head.samples_percent().len();
    let pass_head = last.reads.samples_percent().get(..n);
    report.check(
        pass_head.map(bits) == Some(bits(head.samples_percent())),
        || "the pass's leading read samples differ from scalar simulate_read".to_string(),
    );
    let serial = reads(ctx, &read_config(last.seed, READ_TRIALS, 1), &opts).map_err(err)?;
    report.check(same_farm(&serial, &last.reads), || {
        "read farm differs between all cores and one thread".to_string()
    });

    // Writes: the pass's first trials through batched lanes against
    // scalar simulate_write, the yield predicate against the scalar
    // classification, and the whole round against one thread.
    let map = z_map(ctx).map_err(err)?;
    let cfg = write_config(last.seed, &map, WRITE_TRIALS, run.threads).map_err(err)?;
    let zs = write_zs(&cfg, last.seed, PREFIX)?;
    let draws: Vec<Draw> = zs
        .chunks_exact(problem.dims())
        .map(|z| map.draw_from_z(z))
        .collect();
    let write = WriteConfig::default();
    let batched = simulate_write_batch_in(
        &ctx.tech,
        &ctx.cell,
        &write,
        N_CELLS,
        &draws,
        &mut WriteBatchScratch::new(),
    )
    .map_err(|e| e.to_string())?;
    let fails = problem.evaluate_batch(&zs).map_err(|e| e.to_string())?;
    for (i, draw) in draws.iter().enumerate() {
        let scalar = simulate_write(&ctx.tech, &ctx.cell, &write, N_CELLS, draw);
        let same = match (&scalar, &batched[i]) {
            (Ok(a), Ok(b)) => a.t_write_s.to_bits() == b.t_write_s.to_bits(),
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        report.check(same, || {
            format!("write lane {i} differs from scalar simulate_write")
        });
        let fail = match &scalar {
            Ok(o) => (o.t_write_s / problem.t_write_nom_s() - 1.0) * 100.0 > WRITE_MARGIN_PERCENT,
            Err(SramError::Litho(_) | SramError::WriteNeverFlipped { .. }) => true,
            Err(_) => false,
        };
        report.check(fails[i] == fail, || {
            format!("write trial {i} classified differently from scalar")
        });
    }
    let one = run_yield(
        problem,
        &write_config(last.seed, &map, WRITE_TRIALS, 1).map_err(err)?,
    )
    .map_err(|e| e.to_string())?;
    report.check(one == last.write_run, || {
        "write round differs between all cores and one thread".to_string()
    });
    Ok(())
}

/// The seed of pass `pass`'s draws: every pass samples draws of its
/// own, so a run covers more of the input seed's population than one
/// pass holds.
fn pass_seed(seed: u64, pass: u64) -> u64 {
    mix(seed ^ mix(pass))
}

/// One pass: the reads, then the writes, each timed.
struct Pass {
    /// Seed of the pass's draws.
    seed: u64,
    reads: TdpDistribution,
    write_run: YieldRun,
    read: Timed,
    write: Timed,
}

fn pass(
    run: &Run,
    seed: u64,
    ctx: &ExperimentContext,
    problem: &SpiceWriteYieldProblem<'_>,
    report: &mut Report,
) -> Result<Pass, CoreError> {
    let mc = read_config(seed, READ_TRIALS, run.threads);
    let (dist, read) = timed(|| {
        let _span = bench_span("core.tdp_distribution_spice", READ_TRIALS);
        reads(ctx, &mc, &SpiceMcOptions::default())
    });
    let dist = dist?;
    let cfg = write_config(seed, &z_map(ctx)?, WRITE_TRIALS, run.threads)?;
    let (write_run, write) = timed(|| {
        let _span = bench_span("yield.run_yield", WRITE_TRIALS);
        run_yield(problem, &cfg)
    });
    let write_run = write_run?;
    report.check(accounted(&dist) == READ_TRIALS, || {
        format!(
            "read farm accounts for {} of {READ_TRIALS} trials",
            accounted(&dist)
        )
    });
    report.check(write_run.consumed() == WRITE_TRIALS as u64, || {
        format!("write run consumed {} trials", write_run.consumed())
    });
    report.succeeded((READ_TRIALS + WRITE_TRIALS - 2) as u64);
    Ok(Pass {
        seed,
        reads: dist,
        write_run,
        read,
        write,
    })
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let err = |e: CoreError| e.to_string();
    let budget = match report.set() {
        Set::EndToEnd => run.seconds,
        Set::PerLayer => run.seconds / 2.0,
    };
    let ctx = context(run).map_err(err)?;
    let problem = problem_of(&ctx).map_err(err)?;
    // One untimed pass first: the first batched solves of a process
    // pay for page faults and allocator growth.
    pass(run, pass_seed(run.seed, 0), &ctx, &problem, report).map_err(err)?;
    let started = Instant::now();
    let (mut passes, mut sides) = (Passes::default(), Vec::new());
    while passes.another(started, budget) {
        // Set-up of this pass: the context and the write problem with
        // its nominal write.
        let t0 = Instant::now();
        let ctx = context(run).map_err(err)?;
        let problem = problem_of(&ctx).map_err(err)?;
        passes.setups.push(t0.elapsed().as_secs_f64());
        let seed = pass_seed(run.seed, sides.len() as u64);
        sides.push(
            passes
                .time(|| pass(run, seed, &ctx, &problem, report))
                .map_err(err)?,
        );
    }
    passes.log(&run.workload, report);
    let last = sides.last().expect("at least one pass");
    verify(run, &ctx, &problem, last, report)?;

    match report.set() {
        Set::EndToEnd => passes.put_end_to_end(report, READ_TRIALS + WRITE_TRIALS),
        Set::PerLayer => {
            report.put("exec.util", passes.util(run.threads));
            let reads: Vec<f64> = sides
                .iter()
                .map(|p| READ_TRIALS as f64 / p.read.wall_s)
                .collect();
            let writes: Vec<f64> = sides
                .iter()
                .map(|p| WRITE_TRIALS as f64 / p.write.wall_s)
                .collect();
            report.put("read_trials_per_s", median(&reads));
            report.put("write_trials_per_s", median(&writes));
            report.put("yield_trials", last.write_run.consumed() as f64);
            report.put_zero(&SERVE_FIGURES);

            let recording = Recording::start();
            let traced = pass(run, pass_seed(run.seed, 0), &ctx, &problem, report);
            let body = recording.finish(&run.trace_path("body"));
            let traced = traced.map_err(err)?;
            report.put(
                "trace_overhead_pct",
                ((traced.read.wall_s + traced.write.wall_s) / median(&passes.walls) - 1.0) * 100.0,
            );
            layers::fill(&body, report);

            let recording = Recording::start();
            let probed = probes::all(&ctx, run.seed, &[], &run.scratch_dir(), report);
            recording.finish(&run.trace_path("probes"));
            probed?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A read window too short for many LE3 draws (and no retries): the
    /// nominal read still trips, but some trials' senses never do.
    fn planted() -> SpiceMcOptions {
        SpiceMcOptions {
            read: ReadConfig {
                window_scale: 0.6,
                max_retries: 0,
                ..ReadConfig::default()
            },
            ..SpiceMcOptions::default()
        }
    }

    #[test]
    fn failed_reads_are_results_that_the_checks_account_for() {
        let ctx = ExperimentContext::builder().unwrap().quick_preset().build();
        let (seed, trials) = (11, 6);
        let scalar = scalar_reads(&ctx, &planted().read, seed, trials).unwrap();
        assert!(
            scalar.iter().any(|t| matches!(t, ReadTrial::Failed)),
            "the plant produced no failed read: {scalar:?}"
        );
        for threads in [1, 2] {
            let farm = reads(&ctx, &read_config(seed, trials, threads), &planted()).unwrap();
            assert!(farm.failed_reads() > 0);
            assert_eq!(accounted(&farm), trials);
            assert!(same_reads(&farm, &scalar), "{threads} threads");
        }
    }

    #[test]
    fn same_reads_tells_a_failed_read_from_a_shorted_draw() {
        let dist = |samples: Vec<f64>, shorted, failed| {
            TdpDistribution::from_parts(
                OPTION,
                N_CELLS,
                samples.clone(),
                samples.iter().copied().collect(),
                shorted,
                failed,
            )
        };
        let scalar = [
            ReadTrial::Sample(1.5),
            ReadTrial::Failed,
            ReadTrial::Shorted,
        ];
        assert!(same_reads(&dist(vec![1.5], 1, 1), &scalar));
        assert!(!same_reads(&dist(vec![1.5], 2, 0), &scalar));
        assert!(!same_reads(&dist(vec![1.5, 2.0], 1, 0), &scalar));
        assert!(!same_reads(&dist(vec![1.25], 1, 1), &scalar));
    }

    #[test]
    fn rebuilt_write_draws_are_the_rounds_draws() {
        // A round the same seed draws through `run_yield` evaluates
        // exactly the rebuilt z-vectors, in trial order.
        struct Recorder(std::sync::Mutex<Vec<f64>>, usize);
        impl FailureProblem for Recorder {
            fn dims(&self) -> usize {
                self.1
            }
            fn evaluate_batch(&self, zs: &[f64]) -> Result<Vec<bool>, mpvar_yield::YieldError> {
                self.0.lock().unwrap().extend_from_slice(zs);
                Ok(vec![false; zs.len() / self.1])
            }
        }
        let ctx = ExperimentContext::builder().unwrap().quick_preset().build();
        let map = z_map(&ctx).unwrap();
        let run = Run {
            workload: "spice_rw".to_string(),
            seed: 7,
            seconds: 1.0,
            trace: false,
            threads: 1,
            out_dir: std::path::PathBuf::new(),
            repo_root: std::path::PathBuf::new(),
        };
        let cfg = write_config(run.seed, &map, PREFIX, 1).unwrap();
        let recorder = Recorder(std::sync::Mutex::new(Vec::new()), map.dims());
        run_yield(&recorder, &cfg).unwrap();
        let seen = recorder.0.into_inner().unwrap();
        assert_eq!(
            bits(&seen),
            bits(&write_zs(&cfg, run.seed, PREFIX).unwrap())
        );
    }
}
