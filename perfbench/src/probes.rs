//! Per-layer probes of the traced run: each replays a workload's own
//! draws or artifacts through one layer's public functions, timed from
//! here and wrapped in a [`bench_span`] per batch of calls.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::{AnalyticalModel, CoreError, NominalWindow};
use mpvar_extract::{extract_track, RelativeVariation};
use mpvar_litho::{apply_draw, sample_draw, Draw};
use mpvar_serve::protocol::ContextSpec;
use mpvar_sram::{
    simulate_read, simulate_read_batch_in, simulate_write, simulate_write_batch_in, FormulaParams,
    ReadBatchScratch, ReadConfig, WriteBatchScratch, WriteConfig,
};
use mpvar_stats::RngStream;
use mpvar_study::{decode_value, encode_value, ArtifactStore, ArtifactValue, CacheKey, DiskStore};
use mpvar_tech::PatterningOption;

use crate::measure::median;
use crate::metrics::Report;
use crate::trace::bench_span;

/// Array height every probe runs at: the paper's Fig. 5 column.
pub const N_CELLS: usize = 64;

/// Trials per timed batch of the formula-chain probes.
const FORMULA_BATCH: usize = 1024;
/// Timed batches of the formula-chain probes (the median is reported).
const FORMULA_BATCHES: usize = 8;
/// Lanes of the batched read/write probes (the default batch width).
const SRAM_LANES: usize = 16;
/// Scalar read/write simulations timed per probe.
const SRAM_SCALAR: usize = 3;

/// The first `count` LE3 draws of the substream population `seed`
/// whose print is not shorted — the draws a Monte-Carlo farm seeded
/// with `seed` simulates first.
fn printable_draws(
    ctx: &ExperimentContext,
    seed: u64,
    count: usize,
) -> Result<Vec<Draw>, CoreError> {
    let option = PatterningOption::Le3;
    let budget = ctx.budget(option)?;
    let window = NominalWindow::build(&ctx.tech, &ctx.cell, option)?;
    let base = RngStream::from_seed(seed);
    let mut draws = Vec::with_capacity(count);
    let mut k = 0u64;
    while draws.len() < count {
        let draw = sample_draw(option, &budget, &mut base.substream(k))?;
        if apply_draw(window.stack(), &draw).is_ok() {
            draws.push(draw);
        }
        k += 1;
    }
    Ok(draws)
}

/// Times the formula route link by link on LE3 draws of population
/// `seed`: `sample_draw`, `apply_draw`, `extract_track`,
/// `AnalyticalModel::tdp_percent`, and the whole chain per trial (so
/// glue cost shows as chain minus parts). Median ns per call.
pub fn formula_chain(
    ctx: &ExperimentContext,
    seed: u64,
    report: &mut Report,
) -> Result<(), CoreError> {
    let option = PatterningOption::Le3;
    let budget = ctx.budget(option)?;
    let window = NominalWindow::build(&ctx.tech, &ctx.cell, option)?;
    let params = FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let model = AnalyticalModel::new(params, ctx.read_config.sense_dv_v / ctx.read_config.vdd_v)?;
    let n = ctx.pinned_height();
    let base = RngStream::from_seed(seed);
    let per_call = |t0: Instant, calls: usize| t0.elapsed().as_nanos() as f64 / calls.max(1) as f64;

    let (mut sample, mut apply, mut extract, mut tdp, mut chain) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for b in 0..FORMULA_BATCHES {
        let trials = (b * FORMULA_BATCH) as u64..((b + 1) * FORMULA_BATCH) as u64;

        let t0 = Instant::now();
        let draws = {
            let _span = bench_span("litho.sample_draw", FORMULA_BATCH);
            trials
                .clone()
                .map(|k| sample_draw(option, &budget, &mut base.substream(k)))
                .collect::<Result<Vec<Draw>, _>>()?
        };
        sample.push(per_call(t0, draws.len()));

        let t0 = Instant::now();
        let printed: Vec<_> = {
            let _span = bench_span("litho.apply_draw", draws.len());
            draws
                .iter()
                .filter_map(|d| apply_draw(window.stack(), d).ok())
                .collect()
        };
        apply.push(per_call(t0, draws.len()));

        let t0 = Instant::now();
        let parasitics = {
            let _span = bench_span("extract.extract_track", printed.len());
            printed
                .iter()
                .map(|p| extract_track(p, window.bl_index(), window.metal()))
                .collect::<Result<Vec<_>, _>>()?
        };
        extract.push(per_call(t0, printed.len()));

        let vars: Vec<RelativeVariation> = parasitics
            .iter()
            .map(|p| RelativeVariation::between(window.nominal(), p))
            .collect();
        let t0 = Instant::now();
        {
            let _span = bench_span("core.tdp_percent", vars.len());
            for v in &vars {
                black_box(model.tdp_percent(black_box(n), black_box(v.r_var), black_box(v.c_var)));
            }
        }
        tdp.push(per_call(t0, vars.len()));

        let t0 = Instant::now();
        {
            let _span = bench_span("core.formula_trial", FORMULA_BATCH);
            for k in trials {
                let draw = sample_draw(option, &budget, &mut base.substream(k))?;
                let Ok(p) = apply_draw(window.stack(), &draw) else {
                    continue;
                };
                let w = extract_track(&p, window.bl_index(), window.metal())?;
                let v = RelativeVariation::between(window.nominal(), &w);
                black_box(model.tdp_percent(n, v.r_var, v.c_var));
            }
        }
        chain.push(per_call(t0, FORMULA_BATCH));
    }
    report.put("litho.sample_draw_ns", median(&sample));
    report.put("litho.apply_draw_ns", median(&apply));
    report.put("extract.extract_track_ns", median(&extract));
    report.put("core.tdp_percent_ns", median(&tdp));
    report.put("core.formula_trial_ns", median(&chain));
    Ok(())
}

/// Times the SRAM testbenches on printable LE3 draws of population
/// `seed`: one batched read and one batched write of [`SRAM_LANES`]
/// lanes (after a warm-up batch that builds the solver images; ms per
/// lane), and [`SRAM_SCALAR`] scalar reads and writes (median ms each).
/// The scalar results must match their batched lanes bit for bit.
pub fn sram(ctx: &ExperimentContext, seed: u64, report: &mut Report) -> Result<(), CoreError> {
    let draws = printable_draws(ctx, seed, SRAM_LANES)?;
    let read = ReadConfig::default();
    let write = WriteConfig::default();
    let (tech, cell) = (&ctx.tech, &ctx.cell);

    let mut rs = ReadBatchScratch::new();
    simulate_read_batch_in(tech, cell, &read, N_CELLS, &draws, &mut rs)?;
    let t0 = Instant::now();
    let reads = {
        let _span = bench_span("sram.simulate_read_batch_in", draws.len());
        simulate_read_batch_in(tech, cell, &read, N_CELLS, &draws, &mut rs)?
    };
    report.put(
        "sram.read_lane_ms",
        t0.elapsed().as_secs_f64() * 1e3 / draws.len() as f64,
    );

    let mut ws = WriteBatchScratch::new();
    simulate_write_batch_in(tech, cell, &write, N_CELLS, &draws, &mut ws)?;
    let t0 = Instant::now();
    let writes = {
        let _span = bench_span("sram.simulate_write_batch_in", draws.len());
        simulate_write_batch_in(tech, cell, &write, N_CELLS, &draws, &mut ws)?
    };
    report.put(
        "sram.write_lane_ms",
        t0.elapsed().as_secs_f64() * 1e3 / draws.len() as f64,
    );

    let (mut read_ms, mut write_ms) = (Vec::new(), Vec::new());
    for (i, draw) in draws.iter().take(SRAM_SCALAR).enumerate() {
        let t0 = Instant::now();
        let r = {
            let _span = bench_span("sram.simulate_read", 1);
            simulate_read(tech, cell, &read, N_CELLS, draw)
        };
        read_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let same = match (&r, &reads[i]) {
            (Ok(a), Ok(b)) => a.td_s.to_bits() == b.td_s.to_bits(),
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        report.check(same, || format!("probe read lane {i} differs from scalar"));

        let t0 = Instant::now();
        let w = {
            let _span = bench_span("sram.simulate_write", 1);
            simulate_write(tech, cell, &write, N_CELLS, draw)
        };
        write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let same = match (&w, &writes[i]) {
            (Ok(a), Ok(b)) => a.t_write_s.to_bits() == b.t_write_s.to_bits(),
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        report.check(same, || format!("probe write lane {i} differs from scalar"));
    }
    report.put("sram.read_scalar_ms", median(&read_ms));
    report.put("sram.write_scalar_ms", median(&write_ms));
    Ok(())
}

/// Repetitions of the codec and store probes (the median is reported).
const CODEC_REPS: usize = 5;

/// Times the artifact codec and the disk store on `values` (a
/// workload's own artifacts): total µs to encode / decode the set, and
/// to `put` it into a fresh [`DiskStore`] / `get` it back through a
/// reopened one (so every get decodes from disk). Round trips must
/// reproduce each value exactly. With no values every figure is 0.
pub fn codec_and_store(
    values: &[(CacheKey, Arc<ArtifactValue>)],
    tmp: &Path,
    report: &mut Report,
) -> std::io::Result<()> {
    if values.is_empty() {
        report.put_zero(&[
            "study.encode_us",
            "study.decode_us",
            "study.encoded_bytes",
            "store.put_us",
            "store.get_us",
        ]);
        return Ok(());
    }
    let (mut enc, mut dec, mut put, mut get) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bytes_total = 0usize;
    for rep in 0..CODEC_REPS {
        let t0 = Instant::now();
        let encoded: Vec<Vec<u8>> = {
            let _span = bench_span("study.encode_value", values.len());
            values.iter().map(|(_, v)| encode_value(v)).collect()
        };
        enc.push(t0.elapsed().as_secs_f64() * 1e6);
        bytes_total = encoded.iter().map(Vec::len).sum();

        let t0 = Instant::now();
        let decoded: Vec<_> = {
            let _span = bench_span("study.decode_value", encoded.len());
            encoded.iter().map(|b| decode_value(b)).collect()
        };
        dec.push(t0.elapsed().as_secs_f64() * 1e6);
        if rep == 0 {
            for ((_, v), d) in values.iter().zip(&decoded) {
                let ok = matches!(d, Ok(d) if d == v.as_ref());
                report.check(ok, || "codec round trip changed an artifact".to_string());
            }
        }

        let dir = tmp.join(format!("codec-store-{rep}"));
        let store = DiskStore::open(&dir)?;
        let t0 = Instant::now();
        {
            let _span = bench_span("store.put", values.len());
            for (key, v) in values {
                store.put(*key, Arc::clone(v));
            }
        }
        put.push(t0.elapsed().as_secs_f64() * 1e6);
        drop(store);

        let store = DiskStore::open(&dir)?;
        let t0 = Instant::now();
        let got: Vec<_> = {
            let _span = bench_span("store.get", values.len());
            values.iter().map(|(key, _)| store.get(*key)).collect()
        };
        get.push(t0.elapsed().as_secs_f64() * 1e6);
        if rep == 0 {
            for ((_, v), g) in values.iter().zip(&got) {
                let ok = matches!(g, Some(g) if g.as_ref() == v.as_ref());
                report.check(ok, || {
                    "disk store round trip changed an artifact".to_string()
                });
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir)?;
    }
    report.put("study.encode_us", median(&enc));
    report.put("study.decode_us", median(&dec));
    report.put("study.encoded_bytes", bytes_total as f64);
    report.put("store.put_us", median(&put));
    report.put("store.get_us", median(&get));
    Ok(())
}

/// Builds of the serve-side request context timed per probe.
const CONTEXT_BUILDS: usize = 64;

/// Times `ContextSpec::build` for a quick-preset request with `seed`
/// (the serve dispatcher runs it on every submit). Median µs.
pub fn context_build(seed: u64, report: &mut Report) -> Result<(), CoreError> {
    let spec = ContextSpec {
        seed: Some(seed),
        ..ContextSpec::default()
    };
    let mut us = Vec::with_capacity(CONTEXT_BUILDS);
    for _ in 0..CONTEXT_BUILDS {
        let t0 = Instant::now();
        let ctx = {
            let _span = bench_span("serve.context_build", 1);
            spec.build()?
        };
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        black_box(ctx);
    }
    report.put("serve.context_build_us", median(&us));
    Ok(())
}

/// Runs every layer probe: the formula chain, the SRAM testbenches,
/// the codec and store on `artifacts`, and the context build.
pub fn all(
    ctx: &ExperimentContext,
    seed: u64,
    artifacts: &[(CacheKey, Arc<ArtifactValue>)],
    tmp: &Path,
    report: &mut Report,
) -> Result<(), String> {
    formula_chain(ctx, seed, report).map_err(|e| format!("formula probe: {e}"))?;
    sram(ctx, seed, report).map_err(|e| format!("sram probe: {e}"))?;
    codec_and_store(artifacts, tmp, report).map_err(|e| format!("store probe: {e}"))?;
    context_build(seed, report).map_err(|e| format!("context probe: {e}"))
}
