//! Fig. 9 — CEAR's social-welfare ratio under (left) varying request
//! valuations and (right) varying energy conservativeness `F₂`.
//!
//! ```text
//! cargo run -p sb-bench --release --bin fig9 -- --scale fast
//! ```
//!
//! `--jobs N` fans sweep cells across workers, `--build-threads N`
//! parallelizes the topology build, and the prepared-network cache gives
//! each seed a single build across both sweeps (valuation and `F₂` are
//! workload/pricing knobs, invisible to `prepare`). Outputs are
//! byte-identical for every knob.

use sb_bench::{parse_args, run_cells, write_csv};
use sb_demand::ValuationModel;
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::metrics;
use sb_sim::output::{markdown_table, write_series_csv, SeriesPoint};
use sb_sim::PreparedCache;
use sb_sim::{RunMetrics, ScenarioConfig};

/// Runs one sweep — `(scenario, seed)` cells in deterministic order — and
/// regroups the flat results into per-configuration seed batches. Cells
/// pull their prepared network from the shared cache instead of
/// rebuilding it per configuration.
fn sweep(
    jobs: usize,
    seeds: u64,
    scenarios: &[ScenarioConfig],
    cache: &PreparedCache,
) -> Vec<Vec<RunMetrics>> {
    let cells: Vec<(ScenarioConfig, u64)> =
        scenarios.iter().flat_map(|sc| (0..seeds).map(move |seed| (sc.clone(), seed))).collect();
    let flat = run_cells(jobs, &cells, |_, (sc, seed)| {
        let prepared = cache.get(sc, *seed);
        let requests = engine::workload(sc, &prepared, *seed);
        engine::run_prepared(sc, &prepared, &requests, &AlgorithmKind::Cear(sc.cear), *seed)
    });
    flat.chunks(seeds as usize).map(|c| c.to_vec()).collect()
}

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    let cache = sb_bench::prepared_cache(&opts);

    // Left: valuation sweep. The paper saturates at its default 2.3e9, so
    // the sweep reaches down to where prices actually bind (the interesting
    // rising part of the curve) and up to the saturated plateau.
    let valuations = [0.001, 0.01, 0.05, 0.25, 1.0].map(|m| m * 2.3e9);
    let val_scenarios: Vec<ScenarioConfig> = valuations
        .iter()
        .map(|&v| {
            let mut scenario = opts.scenario.clone();
            scenario.valuation = ValuationModel::Constant(v);
            scenario
        })
        .collect();
    let mut val_points = Vec::new();
    for (&v, runs) in valuations.iter().zip(sweep(opts.jobs, opts.seeds, &val_scenarios, &cache)) {
        let ratios: Vec<f64> = runs.iter().map(|m| m.social_welfare_ratio).collect();
        eprintln!("valuation {v:>10.2e}: ratio {:.4}", metrics::mean_std(&ratios).mean);
        val_points.push(SeriesPoint {
            x: v,
            values: vec![("CEAR".to_owned(), metrics::mean_std(&ratios))],
        });
    }

    // Right: F2 sweep, wide enough for the energy price to start binding.
    let f2s = [0.5, 2.0, 8.0, 32.0, 128.0];
    let f2_scenarios: Vec<ScenarioConfig> = f2s
        .iter()
        .map(|&f2| {
            let mut scenario = opts.scenario.clone();
            scenario.cear.f2 = f2;
            scenario
        })
        .collect();
    let mut f2_points = Vec::new();
    for (&f2, runs) in f2s.iter().zip(sweep(opts.jobs, opts.seeds, &f2_scenarios, &cache)) {
        let ratios: Vec<f64> = runs.iter().map(|m| m.social_welfare_ratio).collect();
        let depleted = runs.iter().map(|m| m.mean_depleted()).sum::<f64>() / runs.len() as f64;
        eprintln!(
            "F2 {f2:>5.1}: ratio {:.4}, mean depleted satellites {depleted:.1}",
            metrics::mean_std(&ratios).mean
        );
        f2_points.push(SeriesPoint {
            x: f2,
            values: vec![("CEAR".to_owned(), metrics::mean_std(&ratios))],
        });
    }

    sb_bench::report_cache(&cache);
    println!("\n# Fig. 9 — CEAR sensitivity ({} scale)\n", opts.scenario.name);
    println!("## Social welfare ratio vs valuation\n");
    println!("{}", markdown_table("valuation", &val_points));
    println!("## Social welfare ratio vs F2\n");
    println!("{}", markdown_table("F2", &f2_points));

    let left = opts.out_dir.join(format!("fig9_valuation_{}.csv", opts.scenario.name));
    let right = opts.out_dir.join(format!("fig9_f2_{}.csv", opts.scenario.name));
    write_csv(&left, |p| write_series_csv(p, "valuation", &val_points));
    write_csv(&right, |p| write_series_csv(p, "f2", &f2_points));
    println!("CSV written to {} and {}", left.display(), right.display());
}
