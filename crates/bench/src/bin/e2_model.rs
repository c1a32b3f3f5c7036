//! Experiment E2 — regenerates the paper's **§4 power-model equations**:
//! runs the full Figure 1 learning process (stress grid × every DVFS
//! frequency × HPC + PowerSpy → multivariate regression) on the simulated
//! i3-2120 and prints the learned idle constant and per-frequency
//! coefficients next to the published ones.
//!
//! The paper publishes `Power = 31.48 + Σ_f Power_f` and, at 3.30 GHz,
//! `P = 2.22e-9·i + 2.48e-8·r + 1.87e-7·m`. Absolute values depend on the
//! (simulated) silicon; the *shape* must hold: an idle constant near the
//! machine floor, positive coefficients, cache terms dominating per-event
//! cost, and coefficients growing with frequency (V² scaling).
//!
//! Run: `cargo run --release -p bench-suite --bin e2_model [--quick] [--check|--bless]`
//! (`--quick` learns on the quick grid at three frequencies.)
//! Evidence: `tests/golden/e2_model[.quick].golden`

use bench_suite::{row, section, BenchArgs, Golden};
use powerapi::model::learn::{fit_from_samples, measure_idle_power, LearnConfig};
use powerapi::model::sampling::collect;
use simcpu::presets;
use simcpu::units::MegaHertz;

fn main() {
    let args = BenchArgs::parse();
    section("E2: learning the i3-2120 energy profile (Figure 1 pipeline)");
    let machine = presets::intel_i3_2120();
    let cfg = if args.quick {
        LearnConfig::quick()
    } else {
        LearnConfig::default()
    };
    println!(
        "  grid: {} workloads x {} frequencies x {} samples of {}",
        cfg.sampling.grid.len(),
        machine.pstates.frequencies().len(),
        cfg.sampling.samples_per_point,
        cfg.sampling.sample_period,
    );

    // The sweep runs twice: the parallel fan-out must reproduce the
    // serial sample set bit for bit. How long either takes is host time —
    // `benchmark/` times model learning inside `host-deep`'s `setup_s`.
    let mut sweep_cfg = cfg.sampling.clone();
    sweep_cfg.parallelism = 1;
    let serial_set = collect(&machine, &sweep_cfg).expect("serial sweep");
    sweep_cfg.parallelism = 0;
    let parallel_set = collect(&machine, &sweep_cfg).expect("parallel sweep");
    assert_eq!(
        serial_set, parallel_set,
        "parallel sweep must be bit-identical to serial"
    );
    row(
        "serial vs parallel calibration sweep",
        format!("bit-identical ({} samples)", parallel_set.samples.len()),
    );

    let idle = measure_idle_power(&machine, &cfg).expect("idle measurement");
    let model = fit_from_samples(idle, &parallel_set).expect("learning pipeline");

    section("learned model (paper equation form)");
    print!("{model}");

    section("idle constant");
    row("paper (measured by PowerSpy)", "31.48 W");
    row(
        "reproduction (measured by simulated meter)",
        format!("{:.2} W", model.idle_w()),
    );

    section("coefficients at 3.30 GHz  [W per (event/s) = J per event]");
    let paper = [2.22e-9, 2.48e-8, 1.87e-7];
    let got = model
        .coefficients(MegaHertz(3300))
        .expect("3.3 GHz was sampled");
    println!(
        "  {:<20} {:>14} {:>14} {:>10}",
        "event", "paper", "reproduction", "ratio"
    );
    for ((name, p), g) in model.event_names().iter().zip(paper).zip(got) {
        println!("  {:<20} {:>14.3e} {:>14.3e} {:>9.2}x", name, p, g, g / p);
    }

    section("shape checks");
    let (i, r, m) = (got[0], got[1], got[2]);
    let checks = [
        (
            "idle within 10% of the machine floor",
            (model.idle_w() - 31.6).abs() < 3.2,
        ),
        ("instruction coefficient positive", i > 0.0),
        ("cache-reference > instruction energy", r > i),
        ("cache-miss > cache-reference energy", m > r),
        (
            "instruction energy within a decade of 2.22 nJ",
            i > 2.22e-10 && i < 2.22e-8,
        ),
        (
            "miss energy within a decade of 187 nJ",
            m > 1.87e-8 && m < 1.87e-6,
        ),
    ];
    let mut ok = true;
    for (label, pass) in checks {
        row(label, if pass { "PASS" } else { "FAIL" });
        ok &= pass;
    }

    // Coefficients per frequency: voltage-squared scaling makes per-event
    // energy rise with frequency — the reason for per-frequency models.
    let freqs = model.frequencies();
    let lo = model.coefficients(freqs[0]).expect("min freq")[0];
    let hi = model
        .coefficients(*freqs.last().expect("nonempty"))
        .expect("max freq")[0];
    row(
        "instruction energy grows with frequency",
        if hi > lo { "PASS" } else { "FAIL" },
    );
    ok &= hi > lo;
    println!(
        "  (instructions: {:.3e} J at {} -> {:.3e} J at {})",
        lo,
        freqs[0],
        hi,
        freqs.last().expect("nonempty")
    );

    println!();
    println!(
        "E2 verdict: {}",
        if ok { "SHAPE REPRODUCED" } else { "MISMATCH" }
    );

    let mut golden = Golden::new("e2_model", args.quick);
    golden.push("idle_w", model.idle_w());
    golden.push("coef_instructions_j", i);
    golden.push("coef_cache_references_j", r);
    golden.push("coef_cache_misses_j", m);
    golden.push("coef_instructions_min_freq_j", lo);
    golden.push("coef_instructions_max_freq_j", hi);
    golden.push_exact("frequencies", freqs.len() as f64);
    golden.finish(&args, ok);
}
