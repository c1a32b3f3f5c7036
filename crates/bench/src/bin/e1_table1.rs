//! Experiment E1 — regenerates **Table 1** of the paper: the Intel Core
//! i3-2120 specification sheet, straight from the simulator preset the
//! whole evaluation runs on. Every row is checked against the published
//! value; the comparison machines' sheets are printed for context.
//!
//! Run: `cargo run --release -p bench-suite --bin e1_table1 [--quick] [--check|--bless]`
//! (`--quick` only switches the golden snapshot name — the spec sheet has
//! no schedule to shrink.)

use bench_suite::{section, BenchArgs, Golden};
use simcpu::presets::{self, Spec};
use simcpu::units::MegaHertz;

fn main() {
    let args = BenchArgs::parse();
    section("E1: Table 1 — Intel Core i3 2120 specifications");
    let spec = Spec::of(&presets::intel_i3_2120());
    print!("{spec}");

    // Assert the reproduction matches the paper's published rows.
    let paper = [
        ("Vendor", "Intel"),
        ("Processor", "i3"),
        ("Model", "2120"),
        ("Design", "4 threads"),
        ("Frequency", "3.30 GHz"),
        ("TDP", "65 W"),
        ("SpeedStep (DVFS)", "yes"),
        ("HyperThreading (SMT)", "yes"),
        ("TurboBoost (Overclocking)", "no"),
        ("C-states (Idle states)", "yes"),
        ("L1 cache", "64 KB / core"),
        ("L2 cache", "256 KB / core"),
        ("L3 cache", "3 MB"),
    ];
    let rows = spec.rows();
    let mut ok = true;
    for (label, want) in paper {
        let got = rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_str())
            .unwrap_or("<missing>");
        if got != want {
            println!("MISMATCH {label}: paper={want} repro={got}");
            ok = false;
        }
    }
    assert_eq!(spec.frequency, MegaHertz(3300));
    println!();
    println!(
        "Table 1 reproduction: {} ({} rows checked)",
        if ok { "MATCH" } else { "MISMATCH" },
        paper.len()
    );

    section("comparison platforms (context, not in Table 1)");
    for cfg in [presets::core2duo_e6600(), presets::xeon_smt_turbo()] {
        println!("--- {} {} {} ---", cfg.vendor, cfg.family, cfg.model);
        print!("{}", Spec::of(&cfg));
    }

    let mut golden = Golden::new("e1_table1", args.quick);
    golden.push_exact("rows_checked", paper.len() as f64);
    golden.push_exact("rows_matched", f64::from(ok));
    golden.push_exact("frequency_mhz", f64::from(spec.frequency.0));
    golden.finish(&args, ok);
}
