//! Robustness study (extension): reservations under link and node
//! failures.
//!
//! Two sweeps:
//!
//! 1. **Foresight baseline** — the original study: per-slot ISL failures
//!    are applied to the topology *before* routing, so every algorithm
//!    routes around them. Reports each algorithm's social-welfare ratio as
//!    the +Grid loses links.
//! 2. **Unforeseen failures** — outages strike *after* admission. CEAR is
//!    run under each failure model (independent links, whole-satellite
//!    outages, Gilbert–Elliott bursts) × repair policy
//!    (drop / repair / repair-paid) and compared against the foresight
//!    baseline at the same intensity. Reports delivered-welfare ratio,
//!    interruption rate, repair success rate and repair latency.
//!
//! ```text
//! cargo run -p sb-bench --release --bin robustness -- --scale fast
//! ```
//!
//! Long paper-scale sweeps can checkpoint and resume: add
//! `--checkpoint-every N` to journal every run into `OUT/durable/`, and
//! after an interruption rerun with `--resume OUT/durable` to pick up at
//! the last checkpoint (completed cells replay from their cached metrics).
//! `--jobs N` fans the independent sweep cells across N worker threads.
//! `--fleet N` runs the same cells across N supervised worker *processes*
//! with per-cell durable results (rerun the same command to resume a
//! killed sweep), and `--chaos SPEC` injects scripted worker kills/hangs
//! for the fault-tolerance tests. Outputs are byte-identical for every
//! value of every knob (CI diffs the CSVs of `--jobs` vs `--fleet` runs
//! under chaos to prove it end-to-end).

use sb_bench::cells::{
    failure_models, robustness_foresight_cells, robustness_unforeseen_cells, FORESIGHT_PROBS,
    UNFORESEEN_PROBS,
};
use sb_bench::{parse_args, prepared_cache, report_cache, run_sweep, write_csv};
use sb_cear::RepairPolicy;
use sb_sim::engine::AlgorithmKind;
use sb_sim::metrics::{self, RunMetrics};
use sb_sim::output::{markdown_table, write_series_csv, SeriesPoint};

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    let cache = prepared_cache(&opts);

    // ---- Part 1: foresight sweep, all algorithms ----------------------
    let foresight_cells = robustness_foresight_cells(&opts.scenario, opts.seeds);
    let foresight_runs = run_sweep(&opts, &cache, &foresight_cells);
    let foresight_ratios: Vec<f64> =
        foresight_runs.iter().map(|m| m.social_welfare_ratio).collect();

    let mut ratio_chunks = foresight_ratios.chunks(opts.seeds as usize);
    let mut foresight_points = Vec::new();
    for &p in &FORESIGHT_PROBS {
        let mut values = Vec::new();
        for kind in AlgorithmKind::all(&opts.scenario) {
            let ratios = ratio_chunks.next().expect("one chunk per (prob, algorithm)");
            let ms = metrics::mean_std(ratios);
            eprintln!("foresight {p:>5.2}  {:<6} ratio {:.4}", kind.name(), ms.mean);
            values.push((kind.name().to_owned(), ms));
        }
        foresight_points.push(SeriesPoint { x: p, values });
    }

    // ---- Part 2: unforeseen failures, CEAR, model × policy ------------
    // The routed series is clean for every unforeseen config (`prepare`
    // ignores the `unforeseen` field), so all cells of one seed share a
    // single prepared network through the cache.
    let unforeseen_cells = robustness_unforeseen_cells(&opts.scenario, opts.seeds);
    let unforeseen_runs = run_sweep(&opts, &cache, &unforeseen_cells);
    report_cache(&cache);

    let mut run_chunks = unforeseen_runs.chunks(opts.seeds as usize);
    let mut delivered_points = Vec::new();
    let mut interruption_points = Vec::new();
    let mut repair_points = Vec::new();
    let mut latency_points = Vec::new();
    for &p in &UNFORESEEN_PROBS {
        let mut delivered = Vec::new();
        let mut interruption = Vec::new();
        let mut repair = Vec::new();
        let mut latency = Vec::new();

        // Foresight reference at the same intensity: with failures known
        // in advance, booked welfare is delivered welfare.
        let foresight = foresight_points
            .iter()
            .find(|pt| pt.x == p)
            .and_then(|pt| pt.values.iter().find(|(a, _)| a == "CEAR"))
            .map(|(_, ms)| *ms)
            .expect("foresight sweep covers the unforeseen probabilities");
        delivered.push(("foresight".to_owned(), foresight));

        for (model_name, _) in failure_models(p) {
            for policy in RepairPolicy::all() {
                let label = format!("{model_name}/{}", policy.name());
                let runs = run_chunks.next().expect("one chunk per (prob, model, policy)");
                let per_seed = |f: &dyn Fn(&RunMetrics) -> f64| {
                    metrics::mean_std(&runs.iter().map(f).collect::<Vec<_>>())
                };
                let d = per_seed(&|m| m.delivered_welfare_ratio);
                delivered.push((label.clone(), d));
                interruption.push((
                    label.clone(),
                    per_seed(&|m| {
                        if m.accepted_requests > 0 {
                            m.interrupted_requests as f64 / m.accepted_requests as f64
                        } else {
                            0.0
                        }
                    }),
                ));
                repair.push((
                    label.clone(),
                    per_seed(&|m| {
                        if m.repair_attempts > 0 {
                            m.repairs_succeeded as f64 / m.repair_attempts as f64
                        } else {
                            0.0
                        }
                    }),
                ));
                latency.push((label.clone(), per_seed(&|m| m.mean_repair_latency_slots)));
                eprintln!("unforeseen {p:>5.2}  {label:<24} delivered {:.4}", d.mean);
            }
        }
        delivered_points.push(SeriesPoint { x: p, values: delivered });
        interruption_points.push(SeriesPoint { x: p, values: interruption });
        repair_points.push(SeriesPoint { x: p, values: repair });
        latency_points.push(SeriesPoint { x: p, values: latency });
    }

    // ---- Reporting ----------------------------------------------------
    let scale = &opts.scenario.name;
    println!("\n# Robustness — social welfare ratio vs foreseen ISL failure probability ({scale} scale)\n");
    println!("{}", markdown_table("ISL failure prob", &foresight_points));
    println!("\n# Robustness — delivered welfare ratio under unforeseen failures, CEAR ({scale} scale)\n");
    println!("{}", markdown_table("failure intensity", &delivered_points));
    println!("\n# Repair success rate (successes / attempts)\n");
    println!("{}", markdown_table("failure intensity", &repair_points));

    let outputs: [(&str, &str, &[SeriesPoint]); 5] = [
        ("robustness", "failure_prob", &foresight_points),
        ("robustness_unforeseen", "failure_intensity", &delivered_points),
        ("robustness_interruption", "failure_intensity", &interruption_points),
        ("robustness_repair", "failure_intensity", &repair_points),
        ("robustness_latency", "failure_intensity", &latency_points),
    ];
    for (stem, x_label, points) in outputs {
        let path = opts.out_dir.join(format!("{stem}_{scale}.csv"));
        write_csv(&path, |p| write_series_csv(p, x_label, points));
        println!("CSV written to {}", path.display());
    }
}
