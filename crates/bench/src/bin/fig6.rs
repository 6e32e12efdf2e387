//! Fig. 6 — social-welfare ratio of the five algorithms under varying
//! request arrival rates (5, 10, 15, 20, 25 per minute), mean ± std over
//! seeds.
//!
//! ```text
//! cargo run -p sb-bench --release --bin fig6 -- --scale fast
//! cargo run -p sb-bench --release --bin fig6 -- --scale paper   # full
//! cargo run -p sb-bench --release --bin fig6 -- --jobs 8       # parallel
//! cargo run -p sb-bench --release --bin fig6 -- --fleet 4      # processes
//! ```
//!
//! `--build-threads N` parallelizes each per-slot topology build. The
//! shared prepared-network cache gives the five algorithm cells (and, here,
//! every rate) of one seed a single topology build. All knobs are
//! byte-identical on the CSVs.
//!
//! `--fleet N` runs the same cells across N worker *processes* with
//! heartbeat supervision, retries and durable per-cell results (resume a
//! killed sweep by rerunning the same command); `--chaos SPEC` injects
//! scripted faults. CSVs stay byte-identical to `--jobs` runs.

use sb_bench::cells::{fig6_cells, fig6_rates};
use sb_bench::{parse_args, prepared_cache, report_cache, run_sweep, write_csv};
use sb_sim::engine::AlgorithmKind;
use sb_sim::metrics;
use sb_sim::output::{markdown_table, write_series_csv, SeriesPoint};
use sb_sim::RunMetrics;

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    // The paper sweeps 5..=25 requests/min; the fast scenario scales the
    // sweep around its own default load.
    let rates = fig6_rates(&opts.scenario);

    // Flat cell list in deterministic (rate, algorithm, seed) order; both
    // runners return results in exactly this order.
    let cells = fig6_cells(&opts.scenario, opts.seeds);
    let cache = prepared_cache(&opts);
    let metrics_flat = run_sweep(&opts, &cache, &cells);
    report_cache(&cache);

    let mut results = metrics_flat.into_iter();
    let mut points = Vec::new();
    for &rate in &rates {
        let mut values = Vec::new();
        for kind in AlgorithmKind::all(&opts.scenario) {
            let runs: Vec<RunMetrics> =
                (0..opts.seeds).map(|_| results.next().expect("one result per cell")).collect();
            let ratios: Vec<f64> = runs.iter().map(|m| m.social_welfare_ratio).collect();
            values.push((kind.name().to_owned(), metrics::mean_std(&ratios)));
            eprintln!(
                "rate {rate:>5.1}/slot  {:<6} ratio {:.4} ({} runs)",
                kind.name(),
                metrics::mean_std(&ratios).mean,
                runs.len()
            );
        }
        points.push(SeriesPoint { x: rate, values });
    }

    println!("\n# Fig. 6 — social welfare ratio vs arrival rate ({} scale)\n", opts.scenario.name);
    println!("{}", markdown_table("arrival rate (req/slot)", &points));
    let path = opts.out_dir.join(format!("fig6_{}.csv", opts.scenario.name));
    write_csv(&path, |p| write_series_csv(p, "arrival_rate", &points));
    println!("CSV written to {}", path.display());
}
