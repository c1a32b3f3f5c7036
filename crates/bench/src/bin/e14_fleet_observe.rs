//! Experiment E14 — the fleet observability plane, proven from its own
//! exhaust. The E12 chaos arms are replayed with cgrouped tenants and a
//! declared lag SLO, each arm writes a post-mortem dump (journal,
//! Chrome trace with per-frame journey tracks, Prometheus metrics), and
//! the bench then **reads only the dump files back** to show the plane
//! is self-describing:
//!
//! * **journey reconstruction** — every frame's causal track (produce →
//!   send per attempt → apply/drop/shed/abandon) is regrouped from
//!   `trace.json` alone; ≥95 % of produced frames must reconstruct with
//!   a single origin trace id, contiguous transmission attempts and a
//!   decided (or honestly in-flight) fate;
//! * **latency surface** — `metrics.prom` must carry the
//!   `powerapi_fleet_lag_ticks` p50/p95/p99 rows plus per-link latency,
//!   per-shard service-time and retransmit-count histograms;
//! * **lag SLO** — the saturated arm must journal burn-rate alerts and
//!   exhaust its error budget, which is what triggers its post-mortem
//!   dump (reason `slo-budget-exhausted`);
//! * **estimate provenance** — `Fleet::explain` names the host frames
//!   behind a tenant estimate and its JSON round-trips exactly.
//!
//! Run:   `cargo run --release -p bench-suite --bin e14_fleet_observe`
//! Quick: `... -- --quick`   (CI smoke: 40 hosts, shorter run)
//! Gate:  `... -- --check`   (compare against the golden)
//! Evidence: `tests/golden/e14_fleet_observe[.quick].golden`

use bench_suite::fleetsim::{self, fleet_faults, percentile, FleetRun, FleetSpec, WARMUP_TICKS};
use bench_suite::{dump_trace, row, section, BenchArgs, Golden};
use powerapi::fleet::{LinkFaultPlan, ProvenanceReport, ShardConfig, SloConfig};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::telemetry::export::{parse_json, Json};
use powerapi::telemetry::{write_post_mortem, EventKind};
use simcpu::presets;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Acceptance bound: fraction of produced frames whose journey must
/// reconstruct end-to-end from the dump alone.
const MIN_RECONSTRUCTED: f64 = 0.95;
/// The saturated arm is fixed (quick-sized) under both schedules.
const SAT_HOSTS: usize = 40;
const SAT_TICKS: u64 = 24;

/// One journey hop as read back from `trace.json` (nothing but the dump
/// feeds this).
struct DumpHop {
    name: String,
    trace: u64,
    attempt: u64,
}

/// What one arm's dump reconstructs to.
struct Reconstruction {
    /// Frames produced, per `metrics.prom`.
    produced: u64,
    /// Journey tracks found in `trace.json`.
    tracks: u64,
    /// Tracks telling a complete story with a decided fate.
    fate_decided: u64,
    /// Complete tracks still honestly in flight at dump time.
    in_flight: u64,
    /// Tracks that failed reconstruction (missing produce, mixed trace
    /// ids, gapped attempts).
    malformed: u64,
    /// Tracks whose story includes at least one retransmission.
    retransmit_tracks: u64,
    /// `slo-burn-rate` events in `journal.jsonl`.
    burn_alerts: u64,
    /// `slo-budget-exhausted` events in `journal.jsonl`.
    budget_exhausted: u64,
    /// All lag-histogram percentile rows present in `metrics.prom`.
    lag_rows_present: bool,
    /// Link-latency, shard-service and retransmit-count histograms
    /// present in `metrics.prom`.
    latency_rows_present: bool,
}

impl Reconstruction {
    /// Fraction of produced frames reconstructed end-to-end (decided
    /// fate or honestly in flight).
    fn ratio(&self) -> f64 {
        (self.fate_decided + self.in_flight) as f64 / self.produced.max(1) as f64
    }
}

/// A hop name that decides (or progresses past) a frame's fate —
/// anything but the produce/send spine.
fn is_fate(name: &str) -> bool {
    !matches!(name, "produce" | "send")
}

/// Regroups `trace.json`'s fleet instants into per-frame tracks:
/// one (pid, tid) pair is one frame's journey, in timestamp order.
fn journey_tracks(trace_text: &str) -> BTreeMap<(u64, u64), Vec<DumpHop>> {
    let json = parse_json(trace_text).expect("dump trace.json parses");
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let mut tracks: BTreeMap<(u64, u64), Vec<DumpHop>> = BTreeMap::new();
    for ev in events {
        if ev.get("cat").and_then(Json::as_str) != Some("fleet") {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_u64).expect("fleet pid");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("fleet tid");
        let name = ev.get("name").and_then(Json::as_str).expect("hop name");
        let args = ev.get("args").expect("hop args");
        tracks.entry((pid, tid)).or_default().push(DumpHop {
            name: name.to_string(),
            trace: args.get("trace").and_then(Json::as_u64).unwrap_or(0),
            attempt: args.get("attempt").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    tracks
}

/// Pulls `name <value>` out of Prometheus text (exact name match up to
/// the value separator, labels included).
fn prom_number(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// Reconstructs one arm's story from its dump directory — and nothing
/// else. The fleet that wrote it is out of scope on purpose.
fn reconstruct(dir: &Path) -> Reconstruction {
    let trace_text = std::fs::read_to_string(dir.join("trace.json")).expect("dump trace.json");
    let journal_text =
        std::fs::read_to_string(dir.join("journal.jsonl")).expect("dump journal.jsonl");
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("dump metrics.prom");

    let produced = prom_number(&prom, "powerapi_fleet_frames_produced_total")
        .expect("produced counter in metrics.prom") as u64;

    let tracks = journey_tracks(&trace_text);
    let (mut fate_decided, mut in_flight, mut malformed, mut retransmit_tracks) = (0, 0, 0, 0);
    for hops in tracks.values() {
        let produce_first = hops.first().is_some_and(|h| h.name == "produce");
        let one_trace = hops
            .iter()
            .all(|h| h.trace == hops[0].trace && h.trace != 0);
        // Transmission attempts (sends and their counted losses) must
        // cover 0..=max with no gaps — a gap means a hop went missing.
        let mut attempts: Vec<u64> = hops
            .iter()
            .filter(|h| {
                matches!(
                    h.name.as_str(),
                    "send" | "drop-fault" | "drop-partition" | "drop-queue"
                )
            })
            .map(|h| h.attempt)
            .collect();
        attempts.sort_unstable();
        attempts.dedup();
        let contiguous = attempts.iter().enumerate().all(|(i, &a)| a == i as u64);
        if produce_first && one_trace && contiguous {
            if hops.last().is_some_and(|h| is_fate(&h.name)) {
                fate_decided += 1;
            } else {
                in_flight += 1;
            }
            if attempts.len() > 1 {
                retransmit_tracks += 1;
            }
        } else {
            malformed += 1;
        }
    }

    let events = powerapi::telemetry::parse_jsonl(&journal_text).expect("dump journal parses");
    let burn_alerts = events
        .iter()
        .filter(|e| e.kind == EventKind::SloBurnRate)
        .count() as u64;
    let budget_exhausted = events
        .iter()
        .filter(|e| e.kind == EventKind::SloBudgetExhausted)
        .count() as u64;

    let lag_rows_present = ["_p50", "_p95", "_p99"]
        .iter()
        .all(|q| prom.contains(&format!("powerapi_fleet_lag_ticks{q}")));
    let latency_rows_present = prom
        .contains("powerapi_fleet_link_latency_ticks_bucket{host=\"host-0\"")
        && prom.contains("powerapi_fleet_shard_service_ticks_bucket{shard=\"0\"")
        && prom.contains("powerapi_fleet_retransmit_count_bucket");

    Reconstruction {
        produced,
        tracks: tracks.len() as u64,
        fate_decided,
        in_flight,
        malformed,
        retransmit_tracks,
        burn_alerts,
        budget_exhausted,
        lag_rows_present,
        latency_rows_present,
    }
}

/// Runs one arm with cgrouped tenant hosts and dumps its post-mortem:
/// unconditionally for the clean/faulty arms (`reason: requested`), and
/// as the SLO-exhaustion dump when the budget actually blew.
fn run_and_dump(spec: FleetSpec, formula: &PerFrequencyFormula, dir: &Path) -> FleetRun {
    let run = fleetsim::run_fleet(spec, formula, fleetsim::make_tenant_source);
    let reason = if run.fleet.slo().exhausted() {
        "slo-budget-exhausted"
    } else {
        "requested"
    };
    write_post_mortem(dir, &run.telemetry, Some(&run.fleet), reason).expect("post-mortem dump");
    run
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    section(if quick {
        "E14: fleet observability plane (quick)"
    } else {
        "E14: fleet observability plane"
    });

    let (hosts, ticks, shards) = if quick { (40, 24, 4) } else { (120, 48, 6) };
    let dump_root = PathBuf::from("target/e14_fleet_observe");

    println!("  [1/5] learning the energy profile on the i3 testbed…");
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick()).expect("learning");
    let formula = PerFrequencyFormula::new(model);

    println!("  [2/5] clean arm: {hosts} tenant hosts × {ticks} ticks, {shards} shards…");
    let clean = run_and_dump(
        FleetSpec::clean(hosts, ticks, shards),
        &formula,
        &dump_root.join("clean"),
    );

    println!("  [3/5] faulty arm: E12 fault schedule over the same tenant hosts…");
    let faulty = run_and_dump(
        FleetSpec {
            hosts,
            ticks,
            shards,
            shard: ShardConfig::default(),
            fault: fleet_faults(hosts, ticks),
            slo: SloConfig::default(),
        },
        &formula,
        &dump_root.join("faulty"),
    );
    if let Some(path) = &args.dump_trace {
        dump_trace(&faulty.telemetry, Some(&faulty.fleet), path);
    }

    println!("  [4/5] saturated arm: every host into one under-provisioned shard…");
    // The saturated arm declares a production-strength SLO (a quarter of
    // the default error budget, alerts at 4 violations per window): an
    // under-provisioned shard must burn through it, journal the alerts
    // and trigger the exhaustion post-mortem.
    let saturated = run_and_dump(
        FleetSpec {
            hosts: SAT_HOSTS,
            ticks: SAT_TICKS,
            shards: 1,
            shard: ShardConfig {
                ingest_cap: 16,
                tick_budget: 8,
            },
            fault: LinkFaultPlan::none(),
            slo: SloConfig {
                error_budget: 16,
                burn_alert_violations: 4,
            },
        },
        &formula,
        &dump_root.join("saturated"),
    );

    println!("  [5/5] reconstructing journeys from the dumps alone…");
    let clean_r = reconstruct(&dump_root.join("clean"));
    let faulty_r = reconstruct(&dump_root.join("faulty"));
    let sat_r = reconstruct(&dump_root.join("saturated"));

    // Estimate provenance: which host frames back the gold tenant's
    // watts right now, and does the explanation survive its own JSON.
    let explain_tick = faulty.fleet.now();
    let report = faulty
        .fleet
        .explain("tenant-gold", explain_tick)
        .expect("gold tenant is attributable");
    let round = ProvenanceReport::from_json(&report.to_json()).expect("provenance parses");
    assert_eq!(report, round, "provenance JSON must round-trip exactly");
    assert_eq!(
        report.to_json(),
        round.to_json(),
        "provenance serialization must be a fixed point"
    );
    let explain_retransmits: u32 = report.hosts.iter().map(|h| h.retransmits).sum();

    // The SLO story, from the live trackers (the dumps told it above).
    let slo_violations = faulty.fleet.slo().total_violations();
    let sat_violations = saturated.fleet.slo().total_violations();
    let sat_exhausted = saturated.fleet.slo().exhausted();

    // Lag percentiles straight from the shared histogram bounds — the
    // same numbers the metrics.prom rows carry.
    let mut faulty_lags = faulty.fleet.lag_samples().to_vec();
    faulty_lags.sort_unstable();
    let lag_p50 = percentile(&faulty_lags, 0.50);
    let lag_p99 = percentile(&faulty_lags, 0.99);

    // Scoring floor: the observability plane must not change the
    // estimates — same MAE recipe as E12 over the clean arm.
    let scored = &clean.reports[WARMUP_TICKS.min(clean.reports.len() - 1)..];
    let clean_mae_w = scored
        .iter()
        .map(|r| (r.estimate_w - r.truth_w).abs())
        .sum::<f64>()
        / scored.len().max(1) as f64;

    section("journey reconstruction (from dump files only)");
    for (label, r) in [
        ("clean", &clean_r),
        ("faulty", &faulty_r),
        ("saturated", &sat_r),
    ] {
        row(
            &format!("{label}: produced / tracks in dump"),
            format!("{} / {}", r.produced, r.tracks),
        );
        row(
            &format!("{label}: fate-decided + in-flight / malformed"),
            format!("{} + {} / {}", r.fate_decided, r.in_flight, r.malformed),
        );
        row(
            &format!("{label}: reconstructed end-to-end"),
            format!(
                "{:.1} % (bound ≥ {:.0} %)",
                r.ratio() * 100.0,
                MIN_RECONSTRUCTED * 100.0
            ),
        );
    }
    row(
        "faulty: retransmit journeys recovered",
        faulty_r.retransmit_tracks,
    );

    section("SLO + provenance");
    row(
        "faulty lag p50/p99 (histogram source)",
        format!("{lag_p50}/{lag_p99} ticks"),
    );
    row("faulty SLO violations", slo_violations);
    row(
        "saturated SLO violations / exhausted",
        format!("{sat_violations} / {sat_exhausted}"),
    );
    row("saturated burn-rate alerts journaled", sat_r.burn_alerts);
    row(
        "explain(tenant-gold): contributing hosts",
        format!(
            "{} ({} retransmits behind them)",
            report.hosts.len(),
            explain_retransmits
        ),
    );
    row("clean fleet MAE", format!("{clean_mae_w:.3} W"));

    let ok = clean_r.ratio() >= MIN_RECONSTRUCTED
        && faulty_r.ratio() >= MIN_RECONSTRUCTED
        && sat_r.ratio() >= MIN_RECONSTRUCTED
        && clean_r.malformed == 0
        && faulty_r.malformed == 0
        && sat_r.malformed == 0
        && faulty_r.retransmit_tracks > 0
        && sat_r.burn_alerts >= 1
        && sat_r.budget_exhausted >= 1
        && sat_exhausted
        && clean_r.lag_rows_present
        && faulty_r.lag_rows_present
        && sat_r.lag_rows_present
        && clean_r.latency_rows_present
        && faulty_r.latency_rows_present
        && report.hosts.len() == hosts
        && clean_r.burn_alerts == 0;

    println!();
    println!(
        "E14 verdict: {} ({:.1}/{:.1}/{:.1} % journeys reconstructed, {} burn alerts, \
         budget exhausted = {}, provenance round-trips)",
        if ok {
            "SELF-DESCRIBING"
        } else {
            "DUMP INCOMPLETE"
        },
        clean_r.ratio() * 100.0,
        faulty_r.ratio() * 100.0,
        sat_r.ratio() * 100.0,
        sat_r.burn_alerts,
        sat_exhausted,
    );

    // Everything the single-threaded fleet derives is exact; the ratios
    // are integer quotients and the MAE is deterministic float math.
    let mut golden = Golden::new("e14_fleet_observe", args.quick);
    golden.push_exact("clean_produced", clean_r.produced as f64);
    golden.push_exact("clean_tracks", clean_r.tracks as f64);
    golden.push_exact("clean_fate_decided", clean_r.fate_decided as f64);
    golden.push_exact("clean_in_flight", clean_r.in_flight as f64);
    golden.push_exact("clean_malformed", clean_r.malformed as f64);
    golden.push_exact("faulty_produced", faulty_r.produced as f64);
    golden.push_exact("faulty_tracks", faulty_r.tracks as f64);
    golden.push_exact("faulty_fate_decided", faulty_r.fate_decided as f64);
    golden.push_exact("faulty_in_flight", faulty_r.in_flight as f64);
    golden.push_exact("faulty_malformed", faulty_r.malformed as f64);
    golden.push_exact(
        "faulty_retransmit_tracks",
        faulty_r.retransmit_tracks as f64,
    );
    golden.push_exact("saturated_produced", sat_r.produced as f64);
    golden.push_exact("saturated_tracks", sat_r.tracks as f64);
    golden.push_exact("saturated_fate_decided", sat_r.fate_decided as f64);
    golden.push_exact("saturated_burn_alerts", sat_r.burn_alerts as f64);
    golden.push_exact("saturated_budget_exhausted", sat_r.budget_exhausted as f64);
    golden.push_exact("faulty_slo_violations", slo_violations as f64);
    golden.push_exact("saturated_slo_violations", sat_violations as f64);
    golden.push_exact("faulty_lag_p50_ticks", lag_p50 as f64);
    golden.push_exact("faulty_lag_p99_ticks", lag_p99 as f64);
    golden.push_exact("explain_hosts", report.hosts.len() as f64);
    golden.push_exact("explain_retransmits", f64::from(explain_retransmits));
    golden.push("clean_mae_w", clean_mae_w);
    golden.finish(&args, ok);
}
