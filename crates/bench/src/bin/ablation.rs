//! Ablation study: which of CEAR's mechanisms buys what?
//!
//! DESIGN.md calls out three load-bearing design choices — exponential
//! congestion pricing, deficit-propagated energy pricing, and price-based
//! admission control. This harness removes them one at a time and reports
//! welfare, congestion and battery health side by side.
//!
//! ```text
//! cargo run -p sb-bench --release --bin ablation -- --scale fast
//! ```
//!
//! Supports `--checkpoint-every N` (durable runs under `OUT/durable/`)
//! and `--resume DIR` to continue an interrupted sweep; see the
//! robustness binary for the workflow. `--jobs N` parallelizes across sweep
//! cells, byte-identically.

use sb_bench::{parse_args, prepared_cache, report_cache, run_cell, run_cells};
use sb_cear::AblationFlags;
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::metrics;
use sb_sim::RunMetrics;

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    let scenario = opts.scenario.clone();

    let variants: Vec<AlgorithmKind> = vec![
        AlgorithmKind::Cear(scenario.cear),
        AlgorithmKind::CearAblated(
            scenario.cear,
            AblationFlags { price_bandwidth: false, ..AblationFlags::default() },
        ),
        AlgorithmKind::CearAblated(
            scenario.cear,
            AblationFlags { price_energy: false, ..AblationFlags::default() },
        ),
        AlgorithmKind::CearAblated(
            scenario.cear,
            AblationFlags { admission_control: false, ..AblationFlags::default() },
        ),
        AlgorithmKind::CearAblated(
            scenario.cear,
            AblationFlags { price_bandwidth: false, price_energy: false, admission_control: false },
        ),
    ];

    // Flat (variant, seed) cell list; durable per-cell directories are
    // distinct per cell and seed, so parallel workers never collide.
    let cells: Vec<(AlgorithmKind, u64)> =
        variants.iter().flat_map(|&kind| (0..opts.seeds).map(move |seed| (kind, seed))).collect();
    let cache = prepared_cache(&opts);
    let flat = run_cells(opts.jobs, &cells, |_, (kind, seed)| {
        let cell = format!("ablation-{}", kind.name());
        let prepared = cache.get(&scenario, *seed);
        let requests = engine::workload(&scenario, &prepared, *seed);
        run_cell(&opts, &scenario, &prepared, &requests, kind, *seed, &cell)
    });
    report_cache(&cache);

    println!("# CEAR ablation ({} scale, {} seeds)\n", scenario.name, opts.seeds);
    println!("| variant | welfare ratio | mean congested links | mean depleted sats | revenue |");
    println!("|---|---|---|---|---|");
    for (kind, runs) in variants.iter().zip(flat.chunks(opts.seeds as usize)) {
        let ratio =
            metrics::mean_std(&runs.iter().map(|m| m.social_welfare_ratio).collect::<Vec<_>>());
        let congested =
            runs.iter().map(RunMetrics::mean_congested).sum::<f64>() / runs.len() as f64;
        let depleted = runs.iter().map(RunMetrics::mean_depleted).sum::<f64>() / runs.len() as f64;
        let revenue = runs.iter().map(|m| m.revenue).sum::<f64>() / runs.len() as f64;
        println!(
            "| {} | {:.4} ± {:.4} | {congested:.2} | {depleted:.2} | {revenue:.3e} |",
            kind.name(),
            ratio.mean,
            ratio.std
        );
    }
    println!(
        "\nVariant naming: -nobw drops the congestion price term, -noenergy the battery \
         term, -noadmission the valuation check, -custom all pricing and admission \
         (feasibility-greedy routing)."
    );
}
