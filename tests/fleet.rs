//! Fleet transport integration: a small simulated fleet streamed over
//! fault-injected links into sharded estimators, exercised end-to-end
//! through the public API. The invariants under test are the ones the
//! bench leans on: exact frame-accounting conservation under faults,
//! stale-hold degradation with recovery after a partition heals, and
//! the transport's journal/Prometheus observability surface.

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::perf_sim::events::PAPER_EVENTS;
use powerapi_suite::powerapi::fleet::SimHostSource;
use powerapi_suite::powerapi::fleet::{
    encode_frame, EstimatorShard, Fleet, FleetConfig, FrameEnvelope, FrameSource, HopStage, HostId,
    Link, LinkConfig, LinkFaultConfig, LinkFaultKind, LinkFaultPlan, LinkWindow, ShardConfig,
};
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::frame::FramePool;
use powerapi_suite::powerapi::host::SimHost;
use powerapi_suite::powerapi::telemetry::{EventKind, Telemetry, TraceId};
use powerapi_suite::powermeter::powerspy::PowerSpyConfig;
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;

const HOSTS: usize = 6;
const TICKS: u64 = 30;
/// Hosts 0..=2 lose both directions of their links over this window.
const PART_START: u64 = 10;
const PART_END: u64 = 18;

fn source(index: usize) -> Box<SimHostSource> {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let load = 0.2 + 0.1 * index as f64;
    let pid = kernel.spawn(
        format!("svc{index}"),
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(load))],
    );
    let mut host = SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
    host.monitor(pid).expect("monitor");
    Box::new(SimHostSource::new(host, Nanos::from_millis(250), 4))
}

/// A cgrouped host: gold tenant everywhere, bronze on the even hosts,
/// one stray process outside every cgroup (the catch-all contributor).
fn grouped_source(index: usize) -> Box<SimHostSource> {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-gold", 4096);
    kernel.cgroup_create("tenant-bronze", 1024);
    let mut pids = vec![kernel.spawn_in_cgroup(
        "web",
        "tenant-gold/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(
            0.2 + 0.1 * index as f64,
        ))],
    )];
    if index.is_multiple_of(2) {
        pids.push(kernel.spawn_in_cgroup(
            "batch",
            "tenant-bronze/svc-batch",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.3))],
        ));
    }
    pids.push(kernel.spawn(
        format!("stray{index}"),
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.1))],
    ));
    let mut host = SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
    for pid in pids {
        host.monitor(pid).expect("monitor");
    }
    Box::new(SimHostSource::new(host, Nanos::from_millis(250), 4))
}

/// Builds the shared test fleet plus a handle to its telemetry hub
/// (`Telemetry` is an `Arc`-backed handle, so the clone observes
/// everything the fleet records).
fn faulty_fleet() -> (Fleet, Telemetry) {
    faulty_fleet_with(ShardConfig::default())
}

/// [`faulty_fleet`] whose shards have the given ingest queue and budget.
fn faulty_fleet_with(shard: ShardConfig) -> (Fleet, Telemetry) {
    let fault = LinkFaultPlan::from_parts(
        0xF1EE_7E57,
        &LinkFaultConfig {
            drop_rate: 0.10,
            duplicate_rate: 0.05,
            corrupt_rate: 0.03,
            reorder_rate: 0.05,
            ..LinkFaultConfig::default()
        },
        vec![LinkWindow {
            kind: LinkFaultKind::Partition,
            start: PART_START,
            end: PART_END,
            host_lo: 0,
            host_hi: 2,
        }],
    );
    let cfg = FleetConfig {
        shards: 2,
        events: PAPER_EVENTS.to_vec(),
        fault,
        shard,
        ..FleetConfig::default()
    };
    let sources = (0..HOSTS).map(|i| source(i) as _).collect();
    let telemetry = Telemetry::new();
    let fleet = Fleet::new(
        cfg,
        &PerFrequencyFormula::cpu_load(30.0, 25.0),
        sources,
        telemetry.clone(),
    );
    (fleet, telemetry)
}

/// Every produced frame is accounted for — dropped, shed, corrupted,
/// duplicated, applied, or still in flight — even under drops,
/// duplicates, corruption, reordering and a partition window; and with
/// shards too small for their load, which shed.
#[test]
fn conservation_holds_under_link_faults() {
    let (mut fleet, telemetry) = faulty_fleet();
    assert_ledger_matches_hops_and_journal(&mut fleet, &telemetry);

    // Two queued frames and one processed per tick, for three hosts a
    // shard: the ingest queue overflows and sheds.
    let small = ShardConfig {
        ingest_cap: 2,
        tick_budget: 1,
    };
    let (mut fleet, telemetry) = faulty_fleet_with(small);
    assert_ledger_matches_hops_and_journal(&mut fleet, &telemetry);
    assert!(fleet.stats().shard_shed > 0, "the small shards shed");
}

/// Runs `fleet` and holds its ledger to its hops, stage by stage, and
/// its per-frame journal lines to the hops that write them.
fn assert_ledger_matches_hops_and_journal(fleet: &mut Fleet, telemetry: &Telemetry) {
    let reports = fleet.run(TICKS);
    assert_eq!(reports.len(), TICKS as usize);
    fleet.assert_conserved();

    let stats = fleet.stats();
    assert!(stats.produced >= HOSTS as u64 * (TICKS - 1), "hosts report");
    assert!(stats.dropped_fault > 0, "drop faults fired");
    assert!(stats.dropped_partition > 0, "the partition severed frames");
    assert!(stats.retransmits > 0, "drops provoke retransmissions");
    assert!(stats.applied > 0, "frames still get through");

    // Each stage-named counter is the count of the hops that log it.
    let journeys = fleet.journeys();
    assert_eq!(journeys.evicted(), 0, "the whole run is in the log");
    let hops = |stage: &str| journeys.hops().filter(|h| h.stage.label() == stage).count() as u64;
    let transmitted = |retry: bool| {
        let sends = ["send", "drop-fault", "drop-partition", "drop-queue"];
        journeys
            .hops()
            .filter(|h| sends.contains(&h.stage.label()) && (h.attempt > 0) == retry)
            .count() as u64
    };
    for (counter, stage) in [
        (stats.produced, "produce"),
        (stats.dropped_fault, "drop-fault"),
        (stats.dropped_partition, "drop-partition"),
        (stats.dropped_queue, "drop-queue"),
        (stats.dark_lost, "host-dark"),
        (stats.sender_shed, "sender-shed"),
        (stats.shard_shed, "shard-shed"),
        (stats.applied, "apply"),
        (stats.dup_discarded, "duplicate"),
        (stats.corrupt_frames, "corrupt"),
        (stats.abandoned, "abandon"),
    ] {
        assert_eq!(counter, hops(stage), "{stage}");
    }
    assert_eq!(stats.retransmits, transmitted(true));
    assert_eq!(stats.transmissions, transmitted(false) + transmitted(true));

    // Each per-frame journal line is written by the hop it describes.
    let journal = telemetry.journal();
    assert_eq!(journal.dropped(), 0, "the whole run is in the journal");
    let events = journal.events();
    let lines = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(
        lines(EventKind::FleetRetry),
        transmitted(true) + hops("abandon"),
        "one retry line per retransmission and per abandon"
    );
    assert_eq!(
        lines(EventKind::FleetShed),
        hops("sender-shed") + hops("shard-shed"),
        "one shed line per shed hop"
    );
}

/// A partitioned host decays to stale (held at last-known-good with a
/// widening band) and recovers to fresh once the partition heals; both
/// transitions are journaled.
#[test]
fn partition_degrades_to_stale_and_recovers() {
    let (mut fleet, _telemetry) = faulty_fleet();
    let reports = fleet.run(TICKS);

    let worst_stale = reports
        .iter()
        .map(|r| r.hosts_stale)
        .max()
        .expect("non-empty run");
    assert!(worst_stale > 0, "the partition starves hosts to stale");
    let last = reports.last().expect("non-empty run");
    assert_eq!(
        last.hosts_stale, 0,
        "all hosts recover after the partition heals"
    );
    assert_eq!(last.hosts_unknown, 0, "every host reported at least once");
    assert!(last.estimate_w > 0.0 && last.truth_w > 0.0);

    let stats = fleet.stats();
    assert!(stats.stale_transitions > 0, "staleness was entered");
    assert!(
        stats.recoveries >= stats.stale_transitions.saturating_sub(fleet.hosts() as u64),
        "staleness was left again (allowing still-stale hosts at the end)"
    );

    // Band widening: stale ticks carry a wider aggregate band than the
    // steady state before the partition.
    let pre = &reports[(PART_START - 2) as usize];
    let widest = reports
        .iter()
        .skip(PART_START as usize)
        .take((PART_END - PART_START + 2) as usize)
        .map(|r| r.band_w)
        .fold(0.0_f64, f64::max);
    assert!(
        widest > pre.band_w,
        "stale hold-over widens the band ({widest:.2} W vs {:.2} W)",
        pre.band_w
    );
}

/// The transport journals its lifecycle (retry, timeout→stale,
/// partition edges) and exports its counters to the Prometheus dump.
#[test]
fn fleet_observability_surfaces_transport_events() {
    let (mut fleet, telemetry) = faulty_fleet();
    fleet.run(TICKS);

    let journal = telemetry.journal();
    assert!(
        journal.count(EventKind::FleetRetry) > 0,
        "retries journaled"
    );
    assert!(
        journal.count(EventKind::FleetPartition) > 0,
        "partition edges journaled"
    );
    assert!(
        journal.count(EventKind::FleetTimeout) > 0,
        "delivery timeouts journaled"
    );

    let prom = fleet.render_prometheus();
    for metric in [
        "powerapi_fleet_frames_produced_total",
        "powerapi_fleet_retransmits_total",
        "powerapi_fleet_dropped_total{cause=\"link-fault\"}",
        "powerapi_fleet_shard_shed_total{shard=\"0\"}",
    ] {
        assert!(prom.contains(metric), "prometheus dump exports {metric}");
    }
}

/// The same seed replays the same fleet: every counter is bit-identical
/// across two runs (the property the golden harness relies on).
#[test]
fn fleet_replay_is_deterministic() {
    let (mut a, _ta) = faulty_fleet();
    let (mut b, _tb) = faulty_fleet();
    let ra = a.run(TICKS);
    let rb = b.run(TICKS);
    assert_eq!(a.stats(), b.stats(), "counters replay bit-identically");
    assert_eq!(a.lag_samples(), b.lag_samples());
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(x.estimate_w.to_bits(), y.estimate_w.to_bits());
        assert_eq!(x.hosts_stale, y.hosts_stale);
    }
}

/// Per-tenant attribution across the sharded fleet, under the same
/// partition: a stale host's *held* frames keep the per-tenant ledger
/// closed (tenants + `__ungrouped__` equal the summed host actives
/// exactly), and the staleness is visible as `Quality::Stale` with a
/// widened band — never silently served as fresh.
#[test]
fn stale_hosts_keep_per_tenant_sums_conserved() {
    use powerapi_suite::powerapi::fleet::{shard, HostId};
    use powerapi_suite::powerapi::hierarchy::UNGROUPED;
    use powerapi_suite::powerapi::msg::Quality;

    const IDLE_W: f64 = 30.0;
    let fault = LinkFaultPlan::from_parts(
        0xF1EE_7E57,
        &LinkFaultConfig::default(),
        vec![LinkWindow {
            kind: LinkFaultKind::Partition,
            start: PART_START,
            end: PART_END,
            host_lo: 0,
            host_hi: 2,
        }],
    );
    let cfg = FleetConfig {
        shards: 2,
        events: PAPER_EVENTS.to_vec(),
        fault,
        ..FleetConfig::default()
    };
    let sources = (0..HOSTS).map(|i| grouped_source(i) as _).collect();
    let mut fleet = Fleet::new(
        cfg,
        &PerFrequencyFormula::cpu_load(IDLE_W, 25.0),
        sources,
        Telemetry::new(),
    );

    // The per-tenant ledger must close at EVERY tick — partitioned hosts
    // serve their held (stale) books, but held books still sum exactly.
    let closure = |fleet: &Fleet| -> (f64, f64) {
        let tenants: f64 = ["tenant-gold", "tenant-bronze", UNGROUPED]
            .iter()
            .filter_map(|p| fleet.tenant_estimate(p))
            .map(|e| e.power_w)
            .sum();
        let hosts: f64 = (0..HOSTS)
            .map(|h| {
                let host = HostId(h as u32);
                let s = shard::route(host, 2);
                fleet
                    .shard(s)
                    .track(host)
                    .map_or(0.0, |t| t.power_w - IDLE_W)
            })
            .sum();
        (tenants, hosts)
    };

    let mut pre_partition_band = 0.0;
    let mut saw_stale_tenant = false;
    let mut stale_band = 0.0_f64;
    for tick in 0..TICKS {
        fleet.tick();
        let (tenants, hosts) = closure(&fleet);
        assert!(
            (tenants - hosts).abs() < 1e-9,
            "tick {tick}: per-tenant ledger leaks ({tenants} W vs {hosts} W)"
        );
        let gold = fleet.tenant_estimate("tenant-gold");
        if tick == PART_START - 2 {
            let gold = gold.as_ref().expect("gold tenant visible pre-partition");
            assert_eq!(gold.quality, Quality::Full, "fresh before the partition");
            pre_partition_band = gold.band_w;
        }
        if let Some(g) = &gold {
            if g.quality == Quality::Stale {
                saw_stale_tenant = true;
                stale_band = stale_band.max(g.band_w);
            }
        }
    }
    assert!(
        saw_stale_tenant,
        "the partition must surface as a Stale per-tenant quality"
    );
    assert!(
        stale_band > pre_partition_band,
        "stale tenants widen the band ({stale_band:.2} W vs {pre_partition_band:.2} W)"
    );

    // After the partition heals: every tenant is Full again, visible on
    // all the hosts that run it.
    let gold = fleet.tenant_estimate("tenant-gold").expect("gold tenant");
    assert_eq!(gold.quality, Quality::Full, "staleness recovers");
    assert_eq!(gold.hosts, HOSTS, "gold runs on every host");
    let bronze = fleet
        .tenant_estimate("tenant-bronze")
        .expect("bronze tenant");
    assert_eq!(bronze.hosts, HOSTS / 2, "bronze runs on the even hosts");
    assert!(
        fleet.tenant_estimate("tenant-none").is_none(),
        "unknown tenants stay absent, not zero"
    );
    fleet.assert_conserved();
}

/// Source audit: fleet code must never stamp `TraceId::NONE` — every
/// journal call and envelope carries a propagated origin trace (or the
/// deterministic per-frame fallback). Only `#[cfg(test)]` helpers may
/// build untraced envelopes.
#[test]
fn fleet_sources_never_stamp_trace_none() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/fleet");
    let mut scanned = 0;
    for entry in std::fs::read_dir(&dir).expect("fleet source dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        scanned += 1;
        let text = std::fs::read_to_string(&path).expect("fleet source file");
        // Test helpers legitimately build untraced envelopes; production
        // code stops at the first `#[cfg(test)]`.
        let production = text.split("#[cfg(test)]").next().unwrap_or("");
        for (i, line) in production.lines().enumerate() {
            assert!(
                !line.contains("TraceId::NONE"),
                "{}:{}: fleet production code stamps TraceId::NONE — \
                 propagate the frame's origin trace instead",
                path.display(),
                i + 1
            );
        }
    }
    assert!(scanned >= 6, "expected the fleet modules, found {scanned}");
}

/// Cross-host trace propagation, observed end-to-end at runtime: every
/// fleet journal event and every journey hop carries a real trace id,
/// and each frame's hop chain starts at `produce` and shares one origin
/// trace across retransmits and duplicates.
#[test]
fn fleet_journal_and_journeys_carry_real_traces() {
    use powerapi_suite::powerapi::fleet::HopStage;
    use std::collections::BTreeMap;

    let (mut fleet, telemetry) = faulty_fleet();
    fleet.run(TICKS);

    for event in telemetry.journal().events() {
        if event.kind.label().starts_with("fleet-") || event.kind.label().starts_with("slo-") {
            assert!(
                event.trace.is_traced(),
                "journal event {} ({}) lost its trace",
                event.kind.label(),
                event.subject
            );
        }
    }

    let mut journeys: BTreeMap<(u32, u64), Vec<_>> = BTreeMap::new();
    for hop in fleet.journeys().hops() {
        assert!(hop.trace.is_traced(), "journey hop without an origin trace");
        journeys.entry((hop.host.0, hop.seq)).or_default().push(hop);
    }
    assert!(!journeys.is_empty(), "faulty run records journeys");
    for ((host, seq), hops) in &journeys {
        assert_eq!(
            hops[0].stage,
            HopStage::Produce,
            "host {host} seq {seq}: journeys start at produce"
        );
        assert!(
            hops.iter().all(|h| h.trace == hops[0].trace),
            "host {host} seq {seq}: retransmits/duplicates must share the origin trace"
        );
    }
    // The faulty plan provokes retransmissions, so at least one journey
    // must contain a second transmission attempt — the chain the
    // Chrome-trace track renders.
    assert!(
        journeys
            .values()
            .any(|hops| hops.iter().any(|h| h.attempt > 0)),
        "some journey records a retransmission attempt"
    );
}

/// `Fleet::explain` names the host frames behind a tenant estimate and
/// its JSON round-trips exactly (bit-identical floats, stable key
/// order) — the provenance contract the E14 bench leans on.
#[test]
fn explain_provenance_round_trips_exactly() {
    use powerapi_suite::powerapi::fleet::ProvenanceReport;

    // Provenance needs tenant books, so this fleet streams grouped
    // frames — same fault schedule as the shared faulty fleet.
    let fault = LinkFaultPlan::from_parts(
        0xF1EE_7E57,
        &LinkFaultConfig {
            drop_rate: 0.10,
            duplicate_rate: 0.05,
            corrupt_rate: 0.03,
            reorder_rate: 0.05,
            ..LinkFaultConfig::default()
        },
        vec![LinkWindow {
            kind: LinkFaultKind::Partition,
            start: PART_START,
            end: PART_END,
            host_lo: 0,
            host_hi: 2,
        }],
    );
    let cfg = FleetConfig {
        shards: 2,
        events: PAPER_EVENTS.to_vec(),
        fault,
        ..FleetConfig::default()
    };
    let sources = (0..HOSTS).map(|i| grouped_source(i) as _).collect();
    let mut fleet = Fleet::new(
        cfg,
        &PerFrequencyFormula::cpu_load(30.0, 25.0),
        sources,
        Telemetry::new(),
    );
    fleet.run(TICKS);
    let report = fleet
        .explain("tenant-gold", fleet.now())
        .expect("gold tenant is attributable");
    assert_eq!(report.hosts.len(), HOSTS, "every host contributes");
    for h in &report.hosts {
        assert!(h.trace != 0, "provenance names the origin trace");
        assert!(
            matches!(h.quality.as_str(), "full" | "degraded" | "stale"),
            "quality label is one of the three tiers"
        );
        assert_eq!(
            h.staleness_ticks,
            report.tick - h.applied_tick,
            "staleness is derived from the applied tick"
        );
    }

    let json = report.to_json();
    let round = ProvenanceReport::from_json(&json).expect("provenance JSON parses");
    assert_eq!(report, round, "parse(serialize(r)) == r, exactly");
    assert_eq!(round.to_json(), json, "serialization is a fixed point");
}

/// A network that mostly damages: a quarter of the transmissions
/// corrupted, with duplicates (a copy made *after* the damage), reorders
/// and drops mixed in.
fn corrupting_plan() -> LinkFaultPlan {
    LinkFaultPlan::from_parts(
        0x0BAD_B175,
        &LinkFaultConfig {
            drop_rate: 0.05,
            duplicate_rate: 0.10,
            corrupt_rate: 0.25,
            reorder_rate: 0.10,
            ..LinkFaultConfig::default()
        },
        Vec::new(),
    )
}

/// The checked zero: over real links into a real shard, count the
/// deliveries whose bytes differ from what the sender encoded, and what
/// the shard did with each. None is applied or acked as a duplicate,
/// every one is refused, and no intact delivery is refused.
#[test]
fn no_frame_damaged_in_flight_is_ever_applied() {
    const FRAMES: u64 = 150;
    let plan = std::sync::Arc::new(corrupting_plan());
    let mut shard = EstimatorShard::new(
        0,
        ShardConfig::default(),
        Box::new(PerFrequencyFormula::cpu_load(30.0, 25.0)),
        PAPER_EVENTS.iter().copied().collect(),
    );
    let pool = FramePool::new();
    let mut sources: Vec<_> = (0..HOSTS).map(grouped_source).collect();
    let mut links: Vec<Link> = (0..HOSTS)
        .map(|h| Link::new(HostId(h as u32), LinkConfig::default(), plan.clone()))
        .collect();
    // sent[host][seq]: the bytes the sender encoded.
    let mut sent: Vec<Vec<Vec<u8>>> = vec![Vec::new(); HOSTS];
    let (mut damaged, mut refused, mut accepted, mut accepted_damaged) = (0u64, 0u64, 0u64, 0u64);
    let mut due = Vec::new();
    // A few ticks past the last send, so the links drain.
    for now in 1..=FRAMES + 8 {
        for h in 0..HOSTS {
            if now <= FRAMES {
                let payload = encode_frame(&sources[h].produce(&pool));
                let env = FrameEnvelope {
                    host: HostId(h as u32),
                    seq: sent[h].len() as u64,
                    sent_at: Nanos(now),
                    trace: TraceId(now),
                    attempt: 0,
                    payload: payload.clone(),
                };
                sent[h].push(payload);
                links[h].send(env, 0, now);
            }
            links[h].take_due(now, &mut due);
        }
        for env in due.drain(..) {
            let differs = env.payload != sent[env.host.0 as usize][env.seq as usize];
            damaged += u64::from(differs);
            shard.ingest(env, now);
            match shard.process_one(now).expect("just ingested").hop.stage {
                HopStage::Corrupt { .. } => {
                    assert!(differs, "an intact delivery was refused");
                    refused += 1;
                }
                HopStage::Apply { .. } | HopStage::Duplicate { .. } => {
                    accepted += 1;
                    accepted_damaged += u64::from(differs);
                }
                stage => panic!("a shard never reports {stage:?}"),
            }
        }
    }
    assert_eq!(accepted_damaged, 0, "damaged frames accepted");
    assert_eq!(refused, damaged, "every damaged delivery is refused");
    assert!(
        damaged > 150 && accepted > 500,
        "the schedule has teeth: {damaged} damaged, {accepted} accepted"
    );
}

/// The same count on a whole fleet, from its own books: the link damages
/// exactly the transmissions the plan names, so every copy a shard
/// applied or acked must be one the plan left intact, and
/// `corrupt_frames` must be the number of damaged copies shards
/// processed — retransmits and link duplicates included.
#[test]
fn corrupt_frames_counts_every_damaged_delivery_and_nothing_else() {
    let plan = corrupting_plan();
    let cfg = FleetConfig {
        shards: 2,
        events: PAPER_EVENTS.to_vec(),
        fault: plan.clone(),
        ..FleetConfig::default()
    };
    let sources = (0..HOSTS).map(|i| grouped_source(i) as _).collect();
    let formula = PerFrequencyFormula::cpu_load(30.0, 25.0);
    let mut fleet = Fleet::new(cfg, &formula, sources, Telemetry::new());
    fleet.run(4 * TICKS);
    fleet.assert_conserved();
    assert_eq!(
        fleet.journeys().evicted(),
        0,
        "every hop is still on the log"
    );

    let (mut damaged_processed, mut processed) = (0u64, 0u64);
    for hop in fleet.journeys().hops() {
        let damaged = plan.corrupts(hop.host, hop.seq, hop.attempt);
        match hop.stage {
            HopStage::Apply { .. } | HopStage::Duplicate { .. } => {
                assert!(!damaged, "a damaged copy was accepted: {hop:?}");
                processed += 1;
            }
            HopStage::Corrupt { .. } => {
                assert!(damaged, "an intact copy was refused: {hop:?}");
                damaged_processed += 1;
                processed += 1;
            }
            _ => {}
        }
    }
    let stats = fleet.stats();
    assert_eq!(stats.corrupt_frames, damaged_processed);
    assert_eq!(
        stats.applied + stats.dup_discarded + stats.corrupt_frames,
        processed
    );
    assert!(
        damaged_processed > 100,
        "{damaged_processed} damaged copies"
    );
}

/// The retransmit budget, end to end: a host partitioned for the whole
/// run never gets an ack, so every frame it sends is transmitted
/// `MAX_RETRIES + 1` times and then abandoned — journeyed, counted and
/// exported exactly once, with the send window still reconciling.
#[test]
fn a_partitioned_host_spends_its_retry_budget_then_abandons() {
    use powerapi_suite::powerapi::fleet::retry::MAX_RETRIES;
    use std::collections::BTreeMap;

    const TICKS: u64 = 120;
    let fault = LinkFaultPlan::from_parts(
        0xAB0_4D0,
        &LinkFaultConfig::default(),
        vec![LinkWindow {
            kind: LinkFaultKind::Partition,
            start: 0,
            end: TICKS + 1,
            host_lo: 0,
            host_hi: 1,
        }],
    );
    let cfg = FleetConfig {
        shards: 2,
        events: PAPER_EVENTS.to_vec(),
        fault,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(
        cfg,
        &PerFrequencyFormula::cpu_load(30.0, 25.0),
        (0..2).map(|i| source(i) as _).collect(),
        Telemetry::new(),
    );
    fleet.run(TICKS);
    fleet.assert_conserved();
    assert_eq!(
        fleet.journeys().evicted(),
        0,
        "every hop is still on the log"
    );

    let mut journeys: BTreeMap<(u32, u64), Vec<_>> = BTreeMap::new();
    for hop in fleet.journeys().hops() {
        journeys.entry((hop.host.0, hop.seq)).or_default().push(hop);
    }
    let abandoned: Vec<_> = journeys
        .iter()
        .filter(|(_, hops)| hops.iter().any(|h| h.stage == HopStage::Abandon))
        .collect();
    let stats = fleet.stats();
    assert!(
        stats.abandoned > 0,
        "the partition exhausts budgets: {stats:?}"
    );
    assert_eq!(
        stats.abandoned,
        abandoned.len() as u64,
        "one abandon hop per frame"
    );
    for ((host, seq), hops) in &abandoned {
        assert_eq!(*host, 0, "only the partitioned host abandons");
        let sends: Vec<u32> = hops
            .iter()
            .filter(|h| !matches!(h.stage, HopStage::Produce | HopStage::Abandon))
            .map(|h| {
                assert_eq!(h.stage, HopStage::DropPartition, "seq {seq}: {h:?}");
                h.attempt
            })
            .collect();
        assert_eq!(
            sends,
            (0..=MAX_RETRIES).collect::<Vec<_>>(),
            "seq {seq}: one transmission per attempt of the budget"
        );
        let last = hops.last().expect("non-empty journey");
        assert_eq!(
            (last.stage, last.attempt),
            (HopStage::Abandon, MAX_RETRIES),
            "seq {seq}: the journey ends at the abandon"
        );
    }
    assert!(
        fleet.render_prometheus().contains(&format!(
            "powerapi_fleet_frames_abandoned_total {}",
            stats.abandoned
        )),
        "the Prometheus counter matches the ledger"
    );
}
