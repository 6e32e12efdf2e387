//! Fig. 7 — energy-depleted satellites over time (left, default arrival
//! rate) and congested links over time (right, 2.5× the default rate —
//! the paper uses rate 25 against a default of 10).
//!
//! ```text
//! cargo run -p sb-bench --release --bin fig7 -- --scale fast
//! ```
//!
//! `--jobs N` fans sweep cells across workers, `--build-threads N`
//! parallelizes the topology build, and the prepared-network cache shares
//! one build across all ten cells (both subfigures differ only in load).
//! Outputs are byte-identical for every knob.

use sb_bench::{parse_args, prepared_cache, report_cache, run_cells, write_csv};
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::output::write_timeseries_csv;
use sb_sim::ScenarioConfig;

fn main() {
    let opts = parse_args(std::env::args().skip(1));

    // Both subfigures as one flat cell list: (scenario, algorithm) pairs in
    // deterministic order — left (default rate) first, then right (hot).
    let scenario = opts.scenario.clone();
    let mut hot = opts.scenario.clone();
    hot.arrivals_per_slot *= 2.5;
    let cells: Vec<(ScenarioConfig, AlgorithmKind)> = AlgorithmKind::all(&scenario)
        .into_iter()
        .map(|k| (scenario.clone(), k))
        .chain(AlgorithmKind::all(&hot).into_iter().map(|k| (hot.clone(), k)))
        .collect();
    let cache = prepared_cache(&opts);
    let runs = run_cells(opts.jobs, &cells, |_, (sc, kind)| {
        let prepared = cache.get(sc, 0);
        let requests = engine::workload(sc, &prepared, 0);
        engine::run_prepared(sc, &prepared, &requests, kind, 0)
    });
    report_cache(&cache);
    let n_left = AlgorithmKind::all(&scenario).len();

    // Left subfigure: depleted satellites at the default rate.
    let mut depleted_series = Vec::new();
    for ((_, kind), m) in cells.iter().zip(&runs).take(n_left) {
        eprintln!(
            "{:<6} depleted: mean {:.2} peak {}",
            kind.name(),
            m.mean_depleted(),
            m.peak_depleted()
        );
        depleted_series.push((
            kind.name().to_owned(),
            m.depleted_satellites_over_time.iter().map(|&c| c as f64).collect(),
        ));
    }

    // Right subfigure: congested links at 2.5× the default rate.
    let mut congested_series = Vec::new();
    for ((_, kind), m) in cells.iter().zip(&runs).skip(n_left) {
        eprintln!(
            "{:<6} congested: mean {:.2} peak {}",
            kind.name(),
            m.mean_congested(),
            m.peak_congested()
        );
        congested_series.push((
            kind.name().to_owned(),
            m.congested_links_over_time.iter().map(|&c| c as f64).collect(),
        ));
    }

    println!("\n# Fig. 7 — over-time resource health ({} scale)\n", opts.scenario.name);
    println!(
        "## Energy-depleted satellites (battery < 20 %), rate {}/slot",
        opts.scenario.arrivals_per_slot
    );
    print_summary(&depleted_series);
    println!("\n## Congested links (residual < 10 %), rate {}/slot", hot.arrivals_per_slot);
    print_summary(&congested_series);

    let left = opts.out_dir.join(format!("fig7_depleted_{}.csv", opts.scenario.name));
    let right = opts.out_dir.join(format!("fig7_congested_{}.csv", opts.scenario.name));
    write_csv(&left, |p| write_timeseries_csv(p, &depleted_series));
    write_csv(&right, |p| write_timeseries_csv(p, &congested_series));
    println!("\nCSV written to {} and {}", left.display(), right.display());
}

fn print_summary(series: &[(String, Vec<f64>)]) {
    println!("| algorithm | mean over time | peak |");
    println!("|---|---|---|");
    for (name, values) in series {
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        let peak = values.iter().copied().fold(0.0, f64::max);
        println!("| {name} | {mean:.2} | {peak:.0} |");
    }
}
