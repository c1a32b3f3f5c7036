//! Experiment E12 — fleet transport: N simulated hosts streaming batched
//! tick frames over fault-injected links to a sharded central estimator.
//! Three arms, same hosts, same cpu-load formula:
//!
//! * **clean** — perfect links: the lag/accuracy floor;
//! * **faulty** — 5 % frame loss plus duplicate/corrupt/reorder faults,
//!   two 10-tick partition windows and host-dark windows: the fleet must
//!   hold its aggregate error within 1.10× of the clean arm by riding
//!   retransmits, last-known-good hold-over and widened bands;
//! * **saturated** — every host aimed at one under-provisioned shard:
//!   ingest must shed loudly (counted, journaled) while the aggregate
//!   keeps reporting with honest quality tags.
//!
//! Every arm ends with the conservation assertion: produced frames are
//! applied, counted against an explicit loss cause, or still visibly
//! queued — transmissions, drops, sheds and retransmits reconcile
//! exactly. Nothing is lost silently.
//!
//! Run:   `cargo run --release -p bench-suite --bin e12_fleet`
//! Quick: `... -- --quick`   (CI smoke: 40 hosts, shorter run)
//! Gate:  `... -- --check`   (compare against the golden)
//! Evidence: `tests/golden/e12_fleet[.quick].golden`

use bench_suite::fleetsim::{self, fleet_faults, percentile, FleetSpec, WARMUP_TICKS};
use bench_suite::{dump_trace, row, section, BenchArgs, Golden};
use powerapi::fleet::{Fleet, HostId, LinkFaultPlan, ShardConfig, SloConfig};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::telemetry::{EventKind, Telemetry};
use simcpu::presets;

/// Acceptance bound: faulty-arm MAE within this factor of clean.
const MAX_ERROR_RATIO: f64 = 1.10;
/// The saturated arm is fixed (quick-sized) under both schedules.
const SAT_HOSTS: usize = 40;
const SAT_TICKS: u64 = 24;

/// Everything one arm produces.
struct Arm {
    /// The fleet after the run (its ledger, journeys and metrics).
    fleet: Fleet,
    /// Fleet-aggregate estimate per tick (whole run, warmup included).
    est_w: Vec<f64>,
    mae_w: f64,
    lag_p50: u64,
    lag_p99: u64,
    stale_mean: f64,
    stale_max: f64,
    telemetry: Telemetry,
}

/// Runs one arm and scores it. Ends with the no-silent-loss accounting
/// assertion (inside [`fleetsim::run_fleet`]): the run aborts if any
/// frame fate went uncounted.
fn run_arm(
    hosts: usize,
    ticks: u64,
    shards: usize,
    shard: ShardConfig,
    fault: LinkFaultPlan,
    formula: &PerFrequencyFormula,
) -> Arm {
    let run = fleetsim::run_fleet(
        FleetSpec {
            hosts,
            ticks,
            shards,
            shard,
            fault,
            slo: SloConfig::default(),
        },
        formula,
        fleetsim::make_source,
    );
    let reports = &run.reports;

    let scored = &reports[WARMUP_TICKS.min(reports.len() - 1)..];
    let mae_w = scored
        .iter()
        .map(|r| (r.estimate_w - r.truth_w).abs())
        .sum::<f64>()
        / scored.len().max(1) as f64;

    let mut lags = run.fleet.lag_samples().to_vec();
    lags.sort_unstable();
    let ratios: Vec<f64> = (0..hosts)
        .map(|h| run.fleet.staleness_ratio(HostId(h as u32)))
        .collect();
    let stale_mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let stale_max = ratios.iter().fold(0.0f64, |a, &b| a.max(b));

    Arm {
        est_w: reports.iter().map(|r| r.estimate_w).collect(),
        mae_w,
        lag_p50: percentile(&lags, 0.50),
        lag_p99: percentile(&lags, 0.99),
        stale_mean,
        stale_max,
        fleet: run.fleet,
        telemetry: run.telemetry,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    section(if quick {
        "E12: fleet transport under link faults (quick)"
    } else {
        "E12: fleet transport under link faults"
    });

    let (hosts, ticks, shards) = if quick { (40, 24, 4) } else { (200, 60, 8) };

    println!("  [1/4] learning the energy profile on the i3 testbed…");
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learning");
    let formula = PerFrequencyFormula::new(model);

    println!("  [2/4] clean arm: {hosts} hosts × {ticks} ticks, {shards} shards, perfect links…");
    let clean = run_arm(
        hosts,
        ticks,
        shards,
        ShardConfig::default(),
        LinkFaultPlan::none(),
        &formula,
    );

    println!("  [3/4] faulty arm: 5 % loss, dup/corrupt/reorder, 2 partitions, dark windows…");
    let faulty = run_arm(
        hosts,
        ticks,
        shards,
        ShardConfig::default(),
        fleet_faults(hosts, ticks),
        &formula,
    );
    // `--dump-trace` captures the interesting arm: the faulty run's
    // pipeline spans, journal instants and per-frame journey tracks.
    if let Some(path) = &args.dump_trace {
        dump_trace(&faulty.telemetry, Some(&faulty.fleet), path);
    }

    println!("  [4/4] saturated arm: every host into one under-provisioned shard…");
    let saturated = run_arm(
        SAT_HOSTS,
        SAT_TICKS,
        1,
        ShardConfig {
            ingest_cap: 16,
            tick_budget: 8,
        },
        LinkFaultPlan::none(),
        &formula,
    );

    let s = *faulty.fleet.stats();
    let sat_shed: u64 = saturated.fleet.shard_shed_by().iter().sum();
    let journal = faulty.telemetry.journal();
    let shed_events = journal.count(EventKind::FleetShed);
    let retry_events = journal.count(EventKind::FleetRetry);
    let timeout_events = journal.count(EventKind::FleetTimeout);
    let partition_events = journal.count(EventKind::FleetPartition);
    let prom = faulty.fleet.render_prometheus();

    section("faulty-arm frame accounting (conserved exactly)");
    row("frames produced", s.produced);
    row("link transmissions", s.transmissions);
    row("  of which retransmits", s.retransmits);
    row("duplicate copies injected", s.dup_injected);
    row("dropped: link fault", s.dropped_fault);
    row("dropped: partition", s.dropped_partition);
    row("dropped: queue full", s.dropped_queue);
    row("lost: host dark", s.dark_lost);
    row("shed: sender backlog", s.sender_shed);
    row("shed: shard ingest", s.shard_shed);
    row("corrupt at shard", s.corrupt_frames);
    row("applied", s.applied);
    row("duplicates discarded", s.dup_discarded);
    row("abandoned (budget exhausted)", s.abandoned);
    row(
        "stale transitions / recoveries",
        format!("{} / {}", s.stale_transitions, s.recoveries),
    );
    row(
        "journaled shed/retry/timeout/partition",
        format!("{shed_events}/{retry_events}/{timeout_events}/{partition_events}"),
    );

    section("E12 headline numbers");
    row("clean fleet MAE", format!("{:.3} W", clean.mae_w));
    row("faulty fleet MAE", format!("{:.3} W", faulty.mae_w));
    let ratio = faulty.mae_w / clean.mae_w.max(1e-9);
    row(
        "faulty / clean error ratio",
        format!("{ratio:.3}× (bound {MAX_ERROR_RATIO}×)"),
    );
    // Identical hosts under both arms, so the per-tick estimate gap is
    // *pure* transport effect — lag, hold-over and loss — with the
    // (shared) model bias cancelled out.
    let divergence_w = clean.est_w[WARMUP_TICKS..]
        .iter()
        .zip(&faulty.est_w[WARMUP_TICKS..])
        .map(|(c, f)| (c - f).abs())
        .sum::<f64>()
        / clean.est_w[WARMUP_TICKS..].len().max(1) as f64;
    row(
        "transport divergence (faulty vs clean est)",
        format!("{divergence_w:.3} W"),
    );
    row(
        "estimate lag p50/p99 (clean)",
        format!("{}/{} ticks", clean.lag_p50, clean.lag_p99),
    );
    row(
        "estimate lag p50/p99 (faulty)",
        format!("{}/{} ticks", faulty.lag_p50, faulty.lag_p99),
    );
    row(
        "staleness ratio mean/max (faulty)",
        format!("{:.4} / {:.4}", faulty.stale_mean, faulty.stale_max),
    );
    row(
        "saturated arm: shard sheds",
        format!("{sat_shed} (still conserved)"),
    );

    let ok = ratio <= MAX_ERROR_RATIO
        && s.dropped_fault > 0
        && s.dropped_partition > 0
        && s.retransmits > 0
        && s.stale_transitions > 0
        && s.recoveries > 0
        && clean.fleet.stats().dropped_fault == 0
        && clean.fleet.stats().retransmits == 0
        && sat_shed > 0
        && shed_events > 0
        && retry_events > 0
        && timeout_events > 0
        && partition_events > 0
        && prom.contains("powerapi_fleet_retransmits_total")
        && prom.contains("powerapi_fleet_shard_shed_total{shard=\"0\"}");

    println!();
    println!(
        "E12 verdict: {} (error ratio {ratio:.3}x <= {MAX_ERROR_RATIO}x, \
         {} retransmits, {} shard sheds under saturation, accounting conserved)",
        if ok { "RESILIENT" } else { "FLEET DEGRADED" },
        s.retransmits,
        sat_shed,
    );

    // Everything the single-threaded fleet simulation derives is exact;
    // only the error metrics are floats (still deterministic — default
    // tolerance absorbs compiler float-contraction drift only).
    let mut golden = Golden::new("e12_fleet", args.quick);
    golden.push("clean_mae_w", clean.mae_w);
    golden.push("faulty_mae_w", faulty.mae_w);
    golden.push("error_ratio", ratio);
    golden.push("transport_divergence_w", divergence_w);
    golden.push_exact("frames_produced", s.produced as f64);
    golden.push_exact("transmissions", s.transmissions as f64);
    golden.push_exact("retransmits", s.retransmits as f64);
    golden.push_exact("dup_injected", s.dup_injected as f64);
    golden.push_exact("dropped_fault", s.dropped_fault as f64);
    golden.push_exact("dropped_partition", s.dropped_partition as f64);
    golden.push_exact("dropped_queue", s.dropped_queue as f64);
    golden.push_exact("dark_lost", s.dark_lost as f64);
    golden.push_exact("sender_shed", s.sender_shed as f64);
    golden.push_exact("shard_shed", s.shard_shed as f64);
    golden.push_exact("corrupt_frames", s.corrupt_frames as f64);
    golden.push_exact("applied", s.applied as f64);
    golden.push_exact("dup_discarded", s.dup_discarded as f64);
    golden.push_exact("abandoned", s.abandoned as f64);
    golden.push_exact("stale_transitions", s.stale_transitions as f64);
    golden.push_exact("recoveries", s.recoveries as f64);
    golden.push_exact("clean_lag_p50_ticks", clean.lag_p50 as f64);
    golden.push_exact("clean_lag_p99_ticks", clean.lag_p99 as f64);
    golden.push_exact("faulty_lag_p50_ticks", faulty.lag_p50 as f64);
    golden.push_exact("faulty_lag_p99_ticks", faulty.lag_p99 as f64);
    golden.push("staleness_mean", faulty.stale_mean);
    golden.push("staleness_max", faulty.stale_max);
    golden.push_exact("saturated_shard_shed", sat_shed as f64);
    golden.push_exact("journal_partition_events", partition_events as f64);
    golden.push_exact("journal_shed_events", shed_events as f64);
    golden.push_exact("journal_retry_events", retry_events as f64);
    golden.push_exact("journal_timeout_events", timeout_events as f64);
    golden.finish(&args, ok);
}
