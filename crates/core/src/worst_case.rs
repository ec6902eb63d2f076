//! Worst-case variability search (paper §II.B) and the td study (Fig. 4).
//!
//! The ±3σ corner enumeration is a parallel map-reduce (`mpvar-exec`):
//! every corner is scored independently, then a single in-order scan
//! picks the maximum with ties broken toward the **lowest corner
//! index** — exactly what the sequential first-strict-maximum loop
//! selects — so the winning corner never depends on scheduling.

use mpvar_exec::ExecConfig;
use mpvar_extract::{extract_track, RelativeVariation, WireParasitics};
use mpvar_litho::{apply_draw, corner_draws, CornerSpec, Draw};
use mpvar_sram::{simulate_read, BitcellGeometry, ReadConfig};
use mpvar_tech::{PatterningOption, TechDb, VariationBudget};
use mpvar_trace::names;

use crate::error::CoreError;
use crate::nominal::NominalWindow;

/// The worst corner of one patterning option, by bit-line capacitance.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstCase {
    /// The option searched.
    pub option: PatterningOption,
    /// The winning corner draw.
    pub draw: Draw,
    /// Nominal bit-line parasitics (per analysed window).
    pub nominal: WireParasitics<'static>,
    /// Worst-case bit-line parasitics.
    pub worst: WireParasitics<'static>,
    /// `R_var` / `C_var` multipliers (Table I's impact columns).
    pub variation: RelativeVariation,
    /// Corners skipped because they printed shorted/collapsed lines.
    pub infeasible_corners: usize,
}

/// Searches all ±3σ corner combinations of `option` for the one that
/// maximizes the central bit line's total capacitance — the paper's
/// worst-case criterion ("the worst case scenario for each option with
/// respect to C_bl increase", §II.B).
///
/// Corners whose printed geometry is physically infeasible (shorted or
/// collapsed lines) are skipped and counted.
///
/// # Errors
///
/// * [`CoreError::NoFeasibleCorner`] when every corner shorts;
/// * propagated tech/extraction failures.
pub fn find_worst_case(
    tech: &TechDb,
    cell: &BitcellGeometry,
    option: PatterningOption,
    budget: &VariationBudget,
) -> Result<WorstCase, CoreError> {
    let window = NominalWindow::build(tech, cell, option)?;
    find_worst_case_with(&window, budget, ExecConfig::default())
}

/// [`find_worst_case`] against a precomputed [`NominalWindow`] and an
/// explicit thread-count knob — the cache-aware entry point used by the
/// experiment matrix.
///
/// The corner scores are computed in parallel, then reduced by one
/// in-order scan keeping the first strict maximum, so the winning
/// corner has the lowest index among ties and is identical for every
/// thread count.
///
/// # Errors
///
/// * [`CoreError::NoFeasibleCorner`] when every corner shorts;
/// * propagated tech/extraction failures.
pub fn find_worst_case_with(
    window: &NominalWindow<'_>,
    budget: &VariationBudget,
    exec: ExecConfig,
) -> Result<WorstCase, CoreError> {
    let option = window.option();
    let draws = corner_draws(option, budget, CornerSpec::default());
    let _search_span = mpvar_trace::span!(
        names::SPAN_CORNER_SEARCH,
        option = option.to_string(),
        corners = draws.len(),
    );
    // Score every corner independently: `None` marks a physically
    // infeasible print (shorted/collapsed lines), hard extraction
    // errors abort with the lowest corner index (what a sequential
    // loop would have hit first).
    let mut scored: Vec<Option<WireParasitics>> = mpvar_exec::try_par_map_indexed(
        &draws,
        exec.effective_threads(),
        |_, draw| match apply_draw(window.stack(), draw) {
            Ok(printed) => extract_track(&printed, window.bl_index(), window.metal())
                .map(Some)
                .map_err(CoreError::from),
            Err(_) => Ok(None),
        },
    )?;

    // Deterministic reduce: first strict maximum wins, so ties break
    // toward the lowest corner index.
    let mut best: Option<(usize, f64)> = None;
    let mut infeasible = 0usize;
    for (i, parasitics) in scored.iter().enumerate() {
        match parasitics {
            None => infeasible += 1,
            Some(p) => {
                let better = match best {
                    Some((_, b)) => p.c_total_f() > b,
                    None => true,
                };
                if better {
                    best = Some((i, p.c_total_f()));
                }
            }
        }
    }

    mpvar_trace::counter_add(names::CORNERS_ENUMERATED, draws.len() as u64);
    mpvar_trace::counter_add(names::CORNERS_INFEASIBLE, infeasible as u64);

    let (winner, _) = best.ok_or_else(|| CoreError::NoFeasibleCorner {
        option: option.to_string(),
    })?;
    let worst = scored[winner]
        .take()
        .expect("winner was scored")
        .into_owned();
    let draw = draws[winner];
    let variation = RelativeVariation::between(window.nominal(), &worst);
    Ok(WorstCase {
        option,
        draw,
        nominal: window.nominal().clone(),
        worst,
        variation,
        infeasible_corners: infeasible,
    })
}

/// One row of the worst-case td study (Fig. 4): nominal and worst-case
/// simulated read times for one array size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseTdRow {
    /// Array size (word lines).
    pub n: usize,
    /// Simulated nominal td, s.
    pub td_nominal_s: f64,
    /// Simulated worst-case td, s.
    pub td_worst_s: f64,
}

impl WorstCaseTdRow {
    /// Read-time penalty in percent.
    pub fn tdp_percent(&self) -> f64 {
        (self.td_worst_s / self.td_nominal_s - 1.0) * 100.0
    }
}

/// Simulates the worst-case td penalty of `worst_case` across the given
/// array sizes (the paper uses 16/64/256/1024).
///
/// # Errors
///
/// Propagates read-simulation failures.
pub fn worst_case_td_study(
    tech: &TechDb,
    cell: &BitcellGeometry,
    config: &ReadConfig,
    worst_case: &WorstCase,
    sizes: &[usize],
) -> Result<Vec<WorstCaseTdRow>, CoreError> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let nominal = simulate_read(tech, cell, config, n, &Draw::nominal(worst_case.option))?;
        let worst = simulate_read(tech, cell, config, n, &worst_case.draw)?;
        rows.push(WorstCaseTdRow {
            n,
            td_nominal_s: nominal.td_s,
            td_worst_s: worst.td_s,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    fn setup() -> (TechDb, BitcellGeometry) {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        (tech, cell)
    }

    fn worst(option: PatterningOption, ol: f64) -> WorstCase {
        let (tech, cell) = setup();
        let budget = VariationBudget::paper_default(option, ol).unwrap();
        find_worst_case(&tech, &cell, option, &budget).unwrap()
    }

    #[test]
    fn le3_worst_case_is_large_and_overlay_driven() {
        let wc = worst(PatterningOption::Le3, 8.0);
        // Table I regime: tens of percent C increase, R decrease.
        assert!(
            wc.variation.c_percent() > 30.0 && wc.variation.c_percent() < 90.0,
            "dC = {}%",
            wc.variation.c_percent()
        );
        assert!(wc.variation.r_percent() < -5.0);
        // The winning corner must use both overlays at full swing,
        // approaching the BL from both sides.
        match wc.draw {
            Draw::Le3(d) => {
                assert_eq!(d.overlay_nm[1].abs(), 8.0);
                assert_eq!(d.overlay_nm[2].abs(), 8.0);
                // CDs all at +3 (wider lines shrink gaps further).
                for cd in d.cd_nm {
                    assert_eq!(cd, 3.0);
                }
            }
            _ => panic!("wrong option"),
        }
    }

    #[test]
    fn sadp_worst_case_is_small() {
        let wc = worst(PatterningOption::Sadp, 8.0);
        // Self-alignment: single-digit percent C change.
        assert!(
            wc.variation.c_percent() > 0.0 && wc.variation.c_percent() < 12.0,
            "dC = {}%",
            wc.variation.c_percent()
        );
        // Spacer-defined bit line widens strongly: R drops a lot
        // (paper: -18.19%).
        assert!(
            wc.variation.r_percent() < -10.0,
            "dR = {}%",
            wc.variation.r_percent()
        );
    }

    #[test]
    fn euv_worst_case_between_options() {
        let le3 = worst(PatterningOption::Le3, 8.0);
        let sadp = worst(PatterningOption::Sadp, 8.0);
        let euv = worst(PatterningOption::Euv, 8.0);
        // Paper's ordering: LE3 >> EUV > SADP on C_bl impact.
        assert!(le3.variation.c_percent() > euv.variation.c_percent());
        assert!(euv.variation.c_percent() > sadp.variation.c_percent());
    }

    #[test]
    fn tighter_overlay_budget_shrinks_le3_worst_case() {
        let loose = worst(PatterningOption::Le3, 8.0);
        let tight = worst(PatterningOption::Le3, 3.0);
        assert!(tight.variation.c_percent() < loose.variation.c_percent());
    }

    #[test]
    fn infeasible_corners_counted_not_fatal() {
        // An absurd overlay budget shorts many corners but the search
        // still returns the best feasible one.
        let (tech, cell) = setup();
        let budget = VariationBudget::new(3.0, 20.0, 0.0).unwrap();
        let wc = find_worst_case(&tech, &cell, PatterningOption::Le3, &budget).unwrap();
        assert!(wc.infeasible_corners > 0);
    }

    #[test]
    fn all_corners_infeasible_is_an_error() {
        let (tech, cell) = setup();
        // 60nm overlay shorts every +/- corner.
        let budget = VariationBudget::new(3.0, 60.0, 0.0).unwrap();
        assert!(matches!(
            find_worst_case(&tech, &cell, PatterningOption::Le3, &budget),
            Err(CoreError::NoFeasibleCorner { .. })
        ));
    }

    #[test]
    fn td_study_small_sizes() {
        let (tech, cell) = setup();
        let wc = worst(PatterningOption::Le3, 8.0);
        let rows =
            worst_case_td_study(&tech, &cell, &ReadConfig::default(), &wc, &[8, 16]).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.td_worst_s > r.td_nominal_s);
            assert!(r.tdp_percent() > 5.0, "tdp = {}%", r.tdp_percent());
        }
        assert!(rows[1].td_nominal_s > rows[0].td_nominal_s);
    }
}
