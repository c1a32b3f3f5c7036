//! Experiment E3 — regenerates **Figure 3**: the SPECjbb2013 preliminary
//! experiment. A model is learned on the simulated i3-2120 (Figure 1
//! pipeline), then a 2500 s SPECjbb2013-like run is estimated live by the
//! PowerAPI actor pipeline while the simulated PowerSpy measures ground
//! truth. The two series are written as gnuplot-ready columns and the
//! median error is reported (paper: "the estimations … follow the same
//! trend as the real power consumption and exhibit a median error of
//! 15 %").
//!
//! Run: `cargo run --release -p bench-suite --bin e3_figure3 [--quick] [--check|--bless]`
//! (`--quick` learns on the quick grid and replays a 300 s excerpt.)
//! Data: `target/e3_figure3.dat` (columns: time_s meter_w estimate_w)

use bench_suite::{row, score_outcome, section, BenchArgs, Evaluation, Golden};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{learn_model, LearnConfig};
use simcpu::presets;
use simcpu::units::Nanos;

use std::io::Write;
use workloads::specjbb::{self, SpecJbbConfig};

fn main() {
    let args = BenchArgs::parse();
    section("E3: Figure 3 — SPECjbb2013, PowerSpy vs PowerAPI estimation");

    println!("  [1/3] learning the energy profile (Figure 1 pipeline)…");
    let learn_cfg = if args.quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };
    let model = learn_model(presets::intel_i3_2120(), &learn_cfg).expect("learning");
    println!(
        "        idle = {:.2} W, {} frequencies",
        model.idle_w(),
        model.frequencies().len()
    );

    let jbb = if args.quick {
        SpecJbbConfig {
            duration: Nanos::from_secs(300),
            ..SpecJbbConfig::default()
        }
    } else {
        SpecJbbConfig::default()
    };
    println!(
        "  [2/3] running SPECjbb2013 for {} s under live estimation…",
        jbb.duration.as_secs_f64()
    );
    let eval = Evaluation::new(
        presets::intel_i3_2120(),
        "specjbb2013",
        specjbb::tasks(&jbb),
        jbb.duration,
    );
    let outcome = eval
        .run(PerFrequencyFormula::new(model))
        .expect("estimation run");

    println!("  [3/3] aligning traces and scoring…");
    let meter = outcome.meter_trace();
    let est = outcome.estimate_trace();
    let (actual, predicted) = meter.align(&est);
    let report = score_outcome(&outcome).expect("scoring");

    // Write the figure data.
    let path = std::path::Path::new("target").join("e3_figure3.dat");
    std::fs::create_dir_all("target").expect("target dir");
    let mut f = std::fs::File::create(&path).expect("figure data file");
    writeln!(f, "# Figure 3 reproduction: time_s meter_w estimate_w").expect("write");
    for (s, (a, p)) in meter.samples().iter().zip(actual.iter().zip(&predicted)) {
        writeln!(f, "{:.1} {:.3} {:.3}", s.at.as_secs_f64(), a, p).expect("write");
    }
    println!("        wrote {} rows to {}", actual.len(), path.display());

    section("trace excerpt (every 250 s)");
    println!(
        "  {:>8} {:>12} {:>12}",
        "time_s", "powerspy_w", "estimate_w"
    );
    for (i, (a, p)) in actual.iter().zip(&predicted).enumerate() {
        if i % 250 == 0 {
            println!("  {:>8} {:>12.2} {:>12.2}", i + 1, a, p);
        }
    }

    section("Figure 3 headline numbers");
    row("paper: median error", "15 %");
    row(
        "reproduction: median error",
        format!("{:.1} %", report.median_ape),
    );
    row(
        "reproduction: mean error (MAPE)",
        format!("{:.1} %", report.mape),
    );
    row(
        "reproduction: R^2 vs meter",
        format!("{:.3}", report.r_squared),
    );
    let mean_meter = actual.iter().sum::<f64>() / actual.len() as f64;
    let mean_est = predicted.iter().sum::<f64>() / predicted.len() as f64;
    row("mean measured power", format!("{mean_meter:.2} W"));
    row("mean estimated power", format!("{mean_est:.2} W"));

    // Shape verdict: trend-following with a median error in the paper's
    // ballpark (we accept 5–25 % — the paper itself calls 15 % a result
    // to improve on).
    let trend = mathkit::correlation::pearson(&actual, &predicted).expect("correlation");
    row("trend correlation (Pearson)", format!("{trend:.3}"));
    let ok = report.median_ape > 1.0 && report.median_ape < 25.0 && trend > 0.6;
    println!();
    println!(
        "E3 verdict: {} (median error {:.1}% in band 1–25%, trend r={:.2} > 0.6)",
        if ok { "SHAPE REPRODUCED" } else { "MISMATCH" },
        report.median_ape,
        trend
    );
    let mut golden = Golden::new("e3_figure3", args.quick);
    golden.push_exact("aligned_samples", actual.len() as f64);
    golden.push("median_ape_pct", report.median_ape);
    golden.push("mape_pct", report.mape);
    golden.push("r_squared", report.r_squared);
    golden.push("trend_pearson", trend);
    golden.push("mean_meter_w", mean_meter);
    golden.push("mean_estimate_w", mean_est);
    golden.finish(&args, ok);
}
