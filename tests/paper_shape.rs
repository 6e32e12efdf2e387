//! Shape tests: the qualitative findings of the paper's evaluation must
//! hold in this reproduction at reduced scale.
//!
//! These encode *who wins*, not absolute numbers: Fig. 6's algorithm
//! ordering, Fig. 7's congestion behaviour, Fig. 8's gradual-vs-rapid
//! decline, and Fig. 9's parameter sensitivities.

use space_booking::sb_cear::CearParams;
use space_booking::sb_demand::ValuationModel;
use space_booking::sb_sim::engine::{self, AlgorithmKind};
use space_booking::sb_sim::{RunMetrics, ScenarioConfig};

/// Runs all five algorithms on the same prepared network/workload,
/// averaged over `seeds`.
fn comparison(scenario: &ScenarioConfig, seeds: u64) -> Vec<(String, f64, RunMetrics)> {
    let mut out = Vec::new();
    for kind in AlgorithmKind::all(scenario) {
        let mut ratios = Vec::new();
        let mut last = None;
        for seed in 0..seeds {
            let prepared = engine::prepare(scenario, seed);
            let requests = engine::workload(scenario, &prepared, seed);
            let m = engine::run_prepared(scenario, &prepared, &requests, &kind, seed);
            ratios.push(m.social_welfare_ratio);
            last = Some(m);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        out.push((kind.name().to_owned(), mean, last.unwrap()));
    }
    out
}

fn ratio_of(results: &[(String, f64, RunMetrics)], name: &str) -> f64 {
    results.iter().find(|(n, _, _)| n == name).unwrap().1
}

#[test]
fn fig6_ordering_cear_wins_eru_loses() {
    // Moderate load makes the ordering crisp (everyone near 1.0 at light
    // load, everyone starved at extreme load).
    let mut scenario = ScenarioConfig::tiny();
    scenario.arrivals_per_slot = 2.0;
    let results = comparison(&scenario, 3);
    let cear = ratio_of(&results, "CEAR");
    for name in ["SSP", "ECARS", "ERU"] {
        let other = ratio_of(&results, name);
        assert!(cear >= other - 0.02, "CEAR ({cear:.3}) should dominate {name} ({other:.3})");
    }
    // ERU's over-pruning makes it the weakest — the paper's stand-out
    // negative result.
    let eru = ratio_of(&results, "ERU");
    for name in ["CEAR", "SSP", "ECARS", "ERA"] {
        let other = ratio_of(&results, name);
        assert!(eru <= other + 0.02, "ERU ({eru:.3}) should trail {name} ({other:.3})");
    }
}

#[test]
fn fig6_welfare_declines_with_arrival_rate() {
    let kind = AlgorithmKind::Cear(CearParams::default());
    let mut prev = f64::INFINITY;
    for rate in [0.5, 1.5, 3.0] {
        let mut scenario = ScenarioConfig::tiny();
        scenario.arrivals_per_slot = rate;
        let mean: f64 =
            (0..3).map(|s| engine::run(&scenario, &kind, s).social_welfare_ratio).sum::<f64>()
                / 3.0;
        assert!(
            mean <= prev + 0.1,
            "welfare ratio should fall with load: {mean:.3} after {prev:.3} at rate {rate}"
        );
        prev = mean;
    }
}

#[test]
fn fig7_ssp_congests_more_links_than_cear() {
    // The paper runs the congestion comparison at 2.5× the default rate.
    let mut scenario = ScenarioConfig::tiny();
    scenario.arrivals_per_slot = 2.5;
    let results = comparison(&scenario, 2);
    let cear_cong = results.iter().find(|(n, _, _)| n == "CEAR").unwrap().2.mean_congested();
    let ssp_cong = results.iter().find(|(n, _, _)| n == "SSP").unwrap().2.mean_congested();
    assert!(
        cear_cong <= ssp_cong + 0.5,
        "CEAR ({cear_cong:.2}) should not congest more links than SSP ({ssp_cong:.2})"
    );
}

#[test]
fn fig8_welfare_ratio_declines_over_time() {
    // Every algorithm starts with an empty network (ratio near 1) and
    // declines as resources fill; CEAR's curve must end highest.
    let mut scenario = ScenarioConfig::tiny();
    scenario.arrivals_per_slot = 2.0;
    let results = comparison(&scenario, 2);
    for (name, _, metrics) in &results {
        let series = &metrics.welfare_ratio_over_time;
        let early = series[series.len() / 4];
        let late = *series.last().unwrap();
        assert!(
            late <= early + 0.05,
            "{name}: cumulative ratio should not rise over time ({early:.3} → {late:.3})"
        );
    }
    let cear_final = results.iter().find(|(n, _, _)| n == "CEAR").unwrap().2.social_welfare_ratio;
    let ssp_final = results.iter().find(|(n, _, _)| n == "SSP").unwrap().2.social_welfare_ratio;
    assert!(cear_final >= ssp_final - 0.02);
}

#[test]
fn fig9_welfare_rises_with_valuation() {
    // Left subfigure: higher valuations clear higher prices, so the
    // welfare ratio rises clearly with the valuation, then saturates. One
    // tiny seed's ratio at the top valuation ranges over ±0.2, so the mean
    // is over eight seeds; at saturation admission control legitimately
    // trades a few acceptances, so that leg is held two-sidedly.
    let mean_ratio = |valuation: f64| -> f64 {
        let mut scenario = ScenarioConfig::tiny();
        scenario.arrivals_per_slot = 2.0;
        scenario.valuation = ValuationModel::Constant(valuation);
        let kind = AlgorithmKind::Cear(scenario.cear);
        (0..8).map(|s| engine::run(&scenario, &kind, s).social_welfare_ratio).sum::<f64>() / 8.0
    };
    let (low, mid, high) = (mean_ratio(1e5), mean_ratio(1e7), mean_ratio(2.3e9));
    assert!(mid >= low + 0.05, "ratio should rise from 1e5 ({low:.3}) to 1e7 ({mid:.3})");
    assert!(
        (high - mid).abs() <= 0.1,
        "ratio should saturate past 1e7: {mid:.3} at 1e7, {high:.3} at 2.3e9"
    );
}

#[test]
fn fig9_higher_f2_is_more_conservative() {
    // Right subfigure: raising F₂ raises energy prices, conserving
    // batteries at the cost of welfare.
    let run_with_f2 = |f2: f64| -> f64 {
        let mut scenario = ScenarioConfig::tiny();
        scenario.arrivals_per_slot = 2.0;
        scenario.cear = CearParams::with_conservativeness(1.0, f2);
        let kind = AlgorithmKind::Cear(scenario.cear);
        (0..3).map(|s| engine::run(&scenario, &kind, s).social_welfare_ratio).sum::<f64>() / 3.0
    };
    let low = run_with_f2(1.0);
    let high = run_with_f2(16.0);
    assert!(high <= low + 0.02, "F2=16 ({high:.3}) should not beat F2=1 ({low:.3}) on welfare");
}
