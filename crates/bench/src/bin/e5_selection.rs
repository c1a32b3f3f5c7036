//! Experiment E5 — implements and evaluates the paper's **§5 future-work
//! proposal**: "we plan to improve our learning algorithm by using the
//! Spearman rank correlation for finding automatically the most
//! correlated \[counters\] with the power consumption", motivated by its
//! conclusion that "only consider the generic counters is not …
//! necessarily the most reliable solution leading to high errors".
//!
//! The ablation: sample *every* generic counter the PMU exposes during
//! calibration, then build per-frequency models over (a) the paper's
//! fixed triple, (b) the Spearman top-k, (c) greedy cross-validated
//! forward selection — and score each on workloads the calibration never
//! saw (SPEC-CPU-like mixes and a SPECjbb excerpt).
//!
//! Run: `cargo run --release -p bench-suite --bin e5_selection [--quick] [--check|--bless]`
//! (`--quick` keeps the extended grid — selection needs its contrast —
//! but samples short windows at three frequencies and shortens the
//! held-out runs.)

use bench_suite::{row, section, BenchArgs, Evaluation, Golden};
use os_sim::task::SteadyTask;
use perf_sim::pfm::Pfm;
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{fit_from_samples, measure_idle_power, LearnConfig};
use powerapi::model::sampling::{collect, SamplingConfig};
use powerapi::model::selection::{select_events, spearman_ranking, Strategy};
use simcpu::presets;
use simcpu::units::Nanos;
use workloads::speccpu;
use workloads::specjbb::{self, SpecJbbConfig};
use workloads::stress::extended_grid;

fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    section("E5: automatic counter selection (the paper's §5 proposal)");
    let machine = presets::intel_i3_2120();
    let pfm = Pfm::for_machine(&machine);

    // One wide calibration campaign: every available generic counter,
    // on a realistic 4-slot PMU (multiplexing included), over the
    // extended stress grid. Quick mode keeps that grid — the ranking
    // needs its contrast — and shrinks the windows instead.
    let base_sampling = if quick {
        SamplingConfig::quick()
    } else {
        SamplingConfig::default()
    };
    let cfg = LearnConfig {
        sampling: SamplingConfig {
            events: pfm.available_generic(),
            slots: 4,
            grid: extended_grid(),
            ..base_sampling
        },
        ..if quick {
            LearnConfig::quick()
        } else {
            LearnConfig::default()
        }
    };
    let jbb_secs = if quick { 120 } else { 300 };
    let spec_secs = if quick { 10 } else { 20 };
    println!(
        "  sampling {} generic counters on a 4-slot PMU ({} grid points)…",
        cfg.sampling.events.len(),
        cfg.sampling.grid.len()
    );
    let idle = measure_idle_power(&machine, &cfg).expect("idle measurement");
    let set = collect(&machine, &cfg.sampling).expect("wide campaign");

    section("Spearman ranking of every generic counter vs power");
    let mut ranking = spearman_ranking(&set).expect("ranking");
    ranking.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
    for (event, rho) in &ranking {
        println!("  {:<26} rho = {:+.3}", event.to_string(), rho);
    }

    // Strategies under test.
    let strategies = [
        Strategy::FixedGeneric,
        Strategy::SpearmanTopK(3),
        Strategy::SpearmanTopK(5),
        Strategy::GreedyCv {
            max_features: 5,
            folds: 4,
        },
    ];

    section("held-out evaluation (workloads never seen in calibration)");
    println!(
        "  {:<18} {:<42} {:>10} {:>10}",
        "strategy", "counters", "jbb_med%", "spec_avg%"
    );
    let mut results = Vec::new();
    for strategy in &strategies {
        let events = select_events(&set, strategy).expect("selection");
        let projected = set.project(&events).expect("projection");
        let model = fit_from_samples(idle, &projected).expect("fit");

        // Held-out 1: a SPECjbb excerpt.
        let jbb = SpecJbbConfig {
            duration: Nanos::from_secs(jbb_secs),
            ..SpecJbbConfig::default()
        };
        let jbb_report = Evaluation {
            events: events.clone(),
            ..Evaluation::new(machine.clone(), "jbb", specjbb::tasks(&jbb), jbb.duration)
        }
        .run(PerFrequencyFormula::new(model.clone()))
        .and_then(|o| bench_suite::score_outcome(&o))
        .expect("jbb evaluation");

        // Held-out 2: three SPEC-CPU-like apps, a short run each.
        let mut spec_errs = Vec::new();
        for name in ["perlbench", "mcf", "milc"] {
            let b = speccpu::by_name(name).expect("known benchmark");
            let report = Evaluation {
                events: events.clone(),
                clock: Nanos::from_millis(500),
                ..Evaluation::new(
                    machine.clone(),
                    b.name,
                    (0..machine.topology.physical_cores())
                        .map(|_| SteadyTask::boxed(b.work))
                        .collect(),
                    Nanos::from_secs(spec_secs),
                )
            }
            .run(PerFrequencyFormula::new(model.clone()))
            .and_then(|o| bench_suite::score_outcome(&o))
            .expect("spec evaluation");
            spec_errs.push(report.mape);
        }
        let spec_avg = spec_errs.iter().sum::<f64>() / spec_errs.len() as f64;

        let names: Vec<String> = events.iter().map(|e| e.to_string()).collect();
        println!(
            "  {:<18} {:<42} {:>10.2} {:>10.2}",
            strategy.label(),
            names.join(","),
            jbb_report.median_ape,
            spec_avg
        );
        results.push((strategy.label(), jbb_report.median_ape, spec_avg));
    }

    section("E5 summary");
    let fixed = &results[0];
    let best = results
        .iter()
        .min_by(|a, b| (a.1 + a.2).partial_cmp(&(b.1 + b.2)).expect("finite"))
        .expect("nonempty");
    row(
        "fixed generic counters (the paper's setup)",
        format!("jbb {:.1}% / spec {:.1}%", fixed.1, fixed.2),
    );
    row(
        "best automatic strategy",
        format!("{} (jbb {:.1}% / spec {:.1}%)", best.0, best.1, best.2),
    );
    let ok = best.1 + best.2 <= fixed.1 + fixed.2 + 1e-9;
    println!();
    println!(
        "E5 verdict: {} (automatic selection matches or beats the fixed triple, as §5 anticipates)",
        if ok { "SHAPE REPRODUCED" } else { "MISMATCH" }
    );
    let mut golden = Golden::new("e5_selection", args.quick);
    golden.push_exact("counters_ranked", ranking.len() as f64);
    golden.push("top_rho_abs", ranking[0].1.abs());
    for (label, jbb_med, spec_avg) in &results {
        let key: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        golden.push(format!("{key}_jbb_median_ape_pct"), *jbb_med);
        golden.push(format!("{key}_spec_avg_mape_pct"), *spec_avg);
    }
    golden.finish(&args, ok);
}
