//! Fig. 8 — cumulative social-welfare ratio over time for the five
//! algorithms at the default arrival rate.
//!
//! ```text
//! cargo run -p sb-bench --release --bin fig8 -- --scale fast
//! ```
//!
//! `--jobs N` fans sweep cells across workers, `--build-threads N`
//! parallelizes the topology build, and the prepared-network cache shares
//! one build across the five algorithm cells. Outputs are byte-identical
//! for every knob.

use sb_bench::{parse_args, prepared_cache, report_cache, run_cells, write_csv};
use sb_sim::engine::{self, AlgorithmKind};
use sb_sim::output::write_timeseries_csv;

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    let scenario = opts.scenario.clone();

    let kinds = AlgorithmKind::all(&scenario);
    let cache = prepared_cache(&opts);
    let runs = run_cells(opts.jobs, &kinds, |_, kind| {
        let prepared = cache.get(&scenario, 0);
        let requests = engine::workload(&scenario, &prepared, 0);
        engine::run_prepared(&scenario, &prepared, &requests, kind, 0)
    });
    report_cache(&cache);

    let mut series = Vec::new();
    for (kind, m) in kinds.iter().zip(&runs) {
        eprintln!("{:<6} final welfare ratio {:.4}", kind.name(), m.social_welfare_ratio);
        series.push((kind.name().to_owned(), m.welfare_ratio_over_time.clone()));
    }

    println!("\n# Fig. 8 — cumulative social welfare ratio over time ({} scale)\n", scenario.name);
    println!("| algorithm | at 25% | at 50% | at 75% | final |");
    println!("|---|---|---|---|---|");
    for (name, values) in &series {
        let at = |frac: f64| values[((values.len() - 1) as f64 * frac) as usize];
        println!(
            "| {name} | {:.4} | {:.4} | {:.4} | {:.4} |",
            at(0.25),
            at(0.5),
            at(0.75),
            values.last().copied().unwrap_or(1.0)
        );
    }

    let path = opts.out_dir.join(format!("fig8_{}.csv", scenario.name));
    write_csv(&path, |p| write_timeseries_csv(p, &series));
    println!("\nCSV written to {}", path.display());
}
