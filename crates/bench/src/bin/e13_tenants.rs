//! Experiment E13 — hierarchical tenant→service→process attribution
//! with a per-tick conservation audit. Four pipeline arms plus a small
//! cgrouped fleet, all over the same i3 testbed and per-frequency model:
//!
//! * **noisy** — noisy-neighbor tenants: a gold tenant (cgroup shares
//!   4096) and a bronze tenant (1024) contending for the same cores;
//!   the share-weighted scheduler must show up as a matching watt split;
//! * **bursty** — request-driven services duty-cycling at different
//!   periods, under PR 2 fault windows (counter stalls) that silence the
//!   primary formula and force degraded-quality fallback estimates —
//!   conservation must keep holding with `Quality` floors intact;
//! * **churn** — container start/stop storms: one container spawned and
//!   one killed every second, so windows constantly open and close
//!   mid-run; nothing may linger and no watt may escape the ledger;
//! * **churn-control** — the same base tenants with a static container
//!   set: the churn arm's machine-level error must stay within 1.10× of
//!   this clean baseline;
//! * **fleet** — 12 cgrouped hosts streaming grouped frames to sharded
//!   estimators, queried per tenant across shards; per-tenant sums plus
//!   the `__ungrouped__` catch-all must close against the per-host
//!   actives exactly.
//!
//! Every pipeline arm ends with `Hierarchy::assert_conserved`: child
//! sums equal each parent bit-for-bit, root = idle + top-level nodes
//! bit-for-bit, and the root stream reconciles with the plain machine
//! aggregator per timestamp (power, flush count, quality floor). The
//! fleet arm ends with `Fleet::assert_conserved` as in E12.
//!
//! Run:   `cargo run --release -p bench-suite --bin e13_tenants`
//! Quick: `... -- --quick`   (CI smoke: shorter runs)
//! Gate:  `... -- --check`   (compare against the golden)
//! Evidence: `tests/golden/e13_tenants[.quick].golden`

use bench_suite::{row, section, BenchArgs, Golden};
use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::{PeriodicTask, SteadyTask};
use perf_sim::events::PAPER_EVENTS;
use powerapi::fleet::{Fleet, FleetConfig, FrameSource, HostId, LinkFaultPlan, SimHostSource};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::formula::PowerFormula;
use powerapi::hierarchy::{Hierarchy, UNGROUPED};
use powerapi::host::SimHost;
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::msg::Quality;
use powerapi::runtime::{PowerApi, RunOutcome};
use powermeter::powerspy::PowerSpyConfig;
use simcpu::fault::{FaultKind, FaultPlan, FaultWindow};
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;

/// Acceptance bound: churn-arm MAE within this factor of the control.
const MAX_ERROR_RATIO: f64 = 1.10;
/// Cgroup shares: the noisy arm's gold tenant outweighs bronze 4:1.
const GOLD_SHARES: u64 = 4096;
const BRONZE_SHARES: u64 = 1024;
/// Backup formula for the bursty arm's degradation path (i3 ballpark).
const BACKUP_IDLE_W: f64 = 30.0;
const BACKUP_SLOPE_W: f64 = 25.0;

/// Everything one pipeline arm produces.
struct Arm {
    outcome: RunOutcome,
    hierarchy: Hierarchy,
    mae_w: f64,
    /// Hierarchy flushes recorded (== audited ticks).
    ticks: usize,
}

fn formula() -> PerFrequencyFormula {
    PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example())
}

/// Mean power attributed to one node subtree over the run, watts.
fn node_mean_w(outcome: &RunOutcome, path: &str) -> f64 {
    let est = outcome.group_estimates(path);
    if est.is_empty() {
        return 0.0;
    }
    est.iter().map(|(_, w)| w.as_f64()).sum::<f64>() / est.len() as f64
}

/// Per-chunk kernel mutation: the churn schedule gets the live pipeline
/// and the chunk index. It touches the kernel only; the hierarchy reads
/// each pid's cgroup from the tick frames.
type ChurnHook<'a> = &'a mut dyn FnMut(&mut PowerApi, u64);

/// Runs a pipeline over `kernel` with a hierarchy on its aggregator,
/// optionally mutating the kernel between one-second chunks (the churn
/// schedule), and audits conservation before returning.
fn run_arm(
    kernel: Kernel,
    pids: Vec<Pid>,
    secs: u64,
    faults: FaultPlan,
    degrade: bool,
    churn: Option<ChurnHook<'_>>,
) -> Arm {
    let f = formula();
    let hierarchy = Hierarchy::new();
    let mut b = PowerApi::builder(kernel)
        .formula(f)
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .fault_plan(faults)
        .hierarchy(&hierarchy);
    if degrade {
        b = b.degrade_to(
            PerFrequencyFormula::cpu_load(BACKUP_IDLE_W, BACKUP_SLOPE_W),
            Nanos::from_millis(1500),
        );
    }
    let mut papi = b.build().expect("pipeline builds");
    for pid in pids {
        papi.monitor(pid).expect("monitor");
    }
    match churn {
        None => papi.run_for(Nanos::from_secs(secs)).expect("run"),
        Some(mutate) => {
            for chunk in 0..secs {
                papi.run_for(Nanos::from_secs(1)).expect("run");
                mutate(&mut papi, chunk);
            }
        }
    }
    let outcome = papi.finish().expect("shutdown");

    // The conservation audit: every flush, bit-exact, plus per-timestamp
    // reconciliation against the machine aggregator (power above idle,
    // flush counts, quality floors).
    hierarchy.assert_conserved(&outcome.reports);
    // One window per tick: a batch of an older tick arriving late would
    // split one into partial sums under a repeated timestamp.
    let mut stamps: Vec<Nanos> = outcome
        .machine_estimates()
        .iter()
        .map(|(at, _)| *at)
        .collect();
    stamps.dedup();
    assert_eq!(hierarchy.ticks(), stamps.len(), "a window was split");

    let mae_w = bench_suite::score_outcome(&outcome).expect("score").mae;
    Arm {
        mae_w,
        ticks: hierarchy.ticks(),
        outcome,
        hierarchy,
    }
}

/// Noisy-neighbor arm: gold and bronze tenants, identical demand,
/// unequal shares, everything contending for four cores.
fn noisy_kernel() -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-gold", GOLD_SHARES);
    kernel.cgroup_create("tenant-bronze", BRONZE_SHARES);
    let mut pids = Vec::new();
    for (tenant, svc) in [
        ("tenant-gold", "svc-web"),
        ("tenant-gold", "svc-db"),
        ("tenant-bronze", "svc-batch"),
        ("tenant-bronze", "svc-scan"),
    ] {
        let path = format!("{tenant}/{svc}");
        // 2 greedy threads per service: 8 runnable threads on 4 cores,
        // so the scheduler's share weighting decides who actually runs.
        pids.push(kernel.spawn_in_cgroup(
            svc,
            &path,
            vec![
                SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)),
                SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)),
            ],
        ));
    }
    (kernel, pids)
}

/// Bursty arm: request-driven services duty-cycling at different phases.
fn bursty_kernel() -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-gold", GOLD_SHARES);
    kernel.cgroup_create("tenant-bronze", BRONZE_SHARES);
    let mut pids = Vec::new();
    for (i, (tenant, svc, period_ms, duty)) in [
        ("tenant-gold", "svc-api", 2_000u64, 0.7),
        ("tenant-gold", "svc-worker", 5_000, 0.4),
        ("tenant-bronze", "svc-cron", 8_000, 0.3),
        ("tenant-bronze", "svc-index", 3_000, 0.5),
    ]
    .into_iter()
    .enumerate()
    {
        let path = format!("{tenant}/{svc}");
        pids.push(kernel.spawn_in_cgroup(
            svc,
            &path,
            vec![PeriodicTask::boxed(
                WorkUnit::cpu_intensive(0.6 + 0.1 * i as f64),
                Nanos::from_millis(period_ms),
                duty,
            )],
        ));
    }
    (kernel, pids)
}

/// The bursty arm's fault schedule: two counter-stall windows (the PR 2
/// machinery), pinned so quick and full runs cover them both. Stalled
/// counters silence the per-frequency primary; the cpu-load backup
/// serves degraded estimates. The second stall runs to the end of the
/// run, so the degraded tail is long and recovery is also exercised
/// (after window one).
fn bursty_faults(secs: u64) -> FaultPlan {
    let w = |start_s: u64, end_s: u64| FaultWindow {
        kind: FaultKind::CounterStall,
        start: Nanos::from_secs(start_s),
        end: Nanos::from_secs(end_s),
        magnitude: 0.0,
    };
    FaultPlan::from_windows(vec![w(secs / 4, secs / 4 + 3), w(secs / 2, secs)])
}

/// Base kernel for the churn arms: two long-lived tenants.
fn churn_base() -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-gold", GOLD_SHARES);
    kernel.cgroup_create("tenant-bronze", BRONZE_SHARES);
    let a = kernel.spawn_in_cgroup(
        "svc-web",
        "tenant-gold/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.5))],
    );
    let b = kernel.spawn_in_cgroup(
        "svc-batch",
        "tenant-bronze/svc-batch",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.4))],
    );
    (kernel, vec![a, b])
}

/// One simulated fleet host with cgrouped tenants (index varies load and
/// which tenants it runs).
fn fleet_source(index: usize) -> Box<dyn FrameSource> {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-gold", GOLD_SHARES);
    kernel.cgroup_create("tenant-bronze", BRONZE_SHARES);
    let mut pids = Vec::new();
    let gold_load = 0.3 + 0.05 * (index % 5) as f64;
    pids.push(kernel.spawn_in_cgroup(
        "svc-web",
        "tenant-gold/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(gold_load))],
    ));
    if index.is_multiple_of(2) {
        pids.push(kernel.spawn_in_cgroup(
            "svc-batch",
            "tenant-bronze/svc-batch",
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.25))],
        ));
    }
    // One process outside every cgroup: the fleet's per-tenant ledger
    // must still close via the catch-all.
    pids.push(kernel.spawn(
        format!("stray-{index}"),
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.1))],
    ));
    let mut host = SimHost::new(kernel, PAPER_EVENTS.to_vec(), 4, PowerSpyConfig::default());
    for pid in pids {
        host.monitor(pid).expect("monitor");
    }
    for _ in 0..30 {
        host.step(Nanos::from_secs(1));
    }
    Box::new(SimHostSource::new(host, Nanos::from_millis(250), 4))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = BenchArgs::parse();
    let quick = args.quick;
    section(if quick {
        "E13: hierarchical tenant attribution (quick)"
    } else {
        "E13: hierarchical tenant attribution"
    });

    let (noisy_secs, bursty_secs, churn_chunks) = if quick { (8, 12, 10) } else { (20, 30, 24) };

    println!(
        "  [1/5] noisy-neighbor arm: gold (shares {GOLD_SHARES}) vs bronze ({BRONZE_SHARES})…"
    );
    let (kernel, pids) = noisy_kernel();
    let noisy = run_arm(kernel, pids, noisy_secs, FaultPlan::none(), false, None);
    let gold_w = node_mean_w(&noisy.outcome, "tenant-gold");
    let bronze_w = node_mean_w(&noisy.outcome, "tenant-bronze");
    let watt_skew = gold_w / bronze_w.max(1e-9);

    println!("  [2/5] bursty arm: duty-cycled services under counter-stall windows…");
    let (kernel, pids) = bursty_kernel();
    let bursty = run_arm(
        kernel,
        pids,
        bursty_secs,
        bursty_faults(bursty_secs),
        true,
        None,
    );
    // Quality must actually have degraded somewhere (the fault windows
    // bite), and conservation held anyway (asserted inside run_arm).
    let degraded_flushes = bursty
        .hierarchy
        .ledger()
        .iter()
        .filter(|f| f.nodes[powerapi::hierarchy::ROOT].quality_or_full() < Quality::Full)
        .count();

    println!("  [3/5] churn arm: one container spawned + one killed per second…");
    let (kernel, pids) = churn_base();
    let mut live: Vec<(u64, Pid)> = Vec::new();
    let mut spawned = 0u64;
    let mut mutate = |papi: &mut PowerApi, chunk: u64| {
        // Kill everything older than 3 chunks — a start/stop storm with
        // a steady-state population of 3 containers.
        while let Some(&(born, pid)) = live.first() {
            if chunk < born + 3 {
                break;
            }
            live.remove(0);
            papi.unmonitor(pid);
            papi.kernel_mut().kill(pid).expect("kill container");
        }
        let tenant = if chunk.is_multiple_of(2) {
            "tenant-gold"
        } else {
            "tenant-bronze"
        };
        let path = format!("{tenant}/svc-burst/job-{chunk}");
        let pid = papi.kernel_mut().spawn_in_cgroup(
            format!("job-{chunk}"),
            &path,
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.6))],
        );
        papi.monitor(pid).expect("monitor container");
        live.push((chunk, pid));
        spawned += 1;
    };
    let churn = run_arm(
        kernel,
        pids,
        churn_chunks,
        FaultPlan::none(),
        false,
        Some(&mut mutate),
    );

    println!("  [4/5] churn-control arm: same tenants, static container set…");
    let (mut kernel, mut pids) = churn_base();
    // The churn arm's steady-state population (3 containers at 0.6 load),
    // alive for the whole run: the clean baseline the storm is scored
    // against.
    for c in 0..3u64 {
        let tenant = if c.is_multiple_of(2) {
            "tenant-gold"
        } else {
            "tenant-bronze"
        };
        let path = format!("{tenant}/svc-burst/job-{c}");
        pids.push(kernel.spawn_in_cgroup(
            format!("job-{c}"),
            &path,
            vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.6))],
        ));
    }
    let control = run_arm(kernel, pids, churn_chunks, FaultPlan::none(), false, None);
    let error_ratio = churn.mae_w / control.mae_w.max(1e-9);
    let churn_gold_w = node_mean_w(&churn.outcome, "tenant-gold");
    let churn_bronze_w = node_mean_w(&churn.outcome, "tenant-bronze");

    println!("  [5/5] fleet arm: 12 cgrouped hosts, per-tenant queries across shards…");
    let fleet_hosts = 12usize;
    let fleet_ticks = if quick { 12 } else { 24 };
    let f = formula();
    let idle_w = f.idle_w();
    let cfg = FleetConfig {
        shards: 4,
        events: PAPER_EVENTS.to_vec(),
        fault: LinkFaultPlan::none(),
        ..FleetConfig::default()
    };
    let sources: Vec<Box<dyn FrameSource>> = (0..fleet_hosts).map(fleet_source).collect();
    let fleet_telemetry = powerapi::telemetry::Telemetry::new();
    let mut fleet = Fleet::new(cfg, &f, sources, fleet_telemetry.clone());
    fleet.run(fleet_ticks);
    fleet.assert_conserved();
    // `--dump-trace` captures the fleet arm: journey tracks per frame
    // plus the journal instants the cgrouped fleet emitted.
    if let Some(path) = &args.dump_trace {
        bench_suite::dump_trace(&fleet_telemetry, Some(&fleet), path);
    }
    let paths = fleet.tenant_paths();
    let gold_fleet = fleet.tenant_estimate("tenant-gold").expect("gold tenant");
    let bronze_fleet = fleet
        .tenant_estimate("tenant-bronze")
        .expect("bronze tenant");
    let stray_fleet = fleet.tenant_estimate(UNGROUPED).expect("catch-all");
    // The fleet per-tenant ledger closes: tenants + catch-all must equal
    // the summed per-host actives (host tracks carry idle; subtract it).
    let host_active: f64 = (0..fleet_hosts)
        .map(|h| {
            let host = HostId(h as u32);
            let s = powerapi::fleet::shard::route(host, 4);
            fleet
                .shard(s)
                .track(host)
                .map_or(0.0, |t| t.power_w - idle_w)
        })
        .sum();
    let tenant_sum = gold_fleet.power_w + bronze_fleet.power_w + stray_fleet.power_w;
    let fleet_closure = (tenant_sum - host_active).abs();
    assert!(
        fleet_closure < 1e-9,
        "fleet per-tenant ledger leaks: tenants {tenant_sum} W vs hosts {host_active} W"
    );

    section("conservation audit (every arm, every tick)");
    row("noisy arm ticks audited", noisy.ticks);
    row("bursty arm ticks audited", bursty.ticks);
    row("churn arm ticks audited", churn.ticks);
    row("control arm ticks audited", control.ticks);
    row(
        "bursty flushes with degraded quality",
        format!("{degraded_flushes} (conservation held throughout)"),
    );
    let prom = bursty.hierarchy.ledger().len(); // ledger size == flush counter
    row("bursty ledger flushes", prom);

    section("E13 headline numbers");
    row(
        "noisy: gold / bronze tenant watts",
        format!("{gold_w:.3} / {bronze_w:.3} W ({watt_skew:.2}× skew)"),
    );
    row("noisy MAE vs meter", format!("{:.3} W", noisy.mae_w));
    row("bursty MAE vs meter", format!("{:.3} W", bursty.mae_w));
    row("churn containers spawned", spawned);
    row("churn MAE vs meter", format!("{:.3} W", churn.mae_w));
    row(
        "churn: gold / bronze tenant watts",
        format!("{churn_gold_w:.3} / {churn_bronze_w:.3} W"),
    );
    row("control MAE vs meter", format!("{:.3} W", control.mae_w));
    row(
        "churn / control error ratio",
        format!("{error_ratio:.3}× (bound {MAX_ERROR_RATIO}×)"),
    );
    row("fleet tenant paths", paths.len());
    row(
        "fleet gold/bronze/stray watts",
        format!(
            "{:.2} / {:.2} / {:.2} W across {} hosts",
            gold_fleet.power_w, bronze_fleet.power_w, stray_fleet.power_w, gold_fleet.hosts
        ),
    );
    row("fleet ledger closure", format!("{fleet_closure:.2e} W"));

    let ok = watt_skew > 1.5
        && degraded_flushes > 0
        && error_ratio <= MAX_ERROR_RATIO
        && gold_fleet.quality == Quality::Full
        && gold_fleet.hosts == fleet_hosts
        && bronze_fleet.hosts == fleet_hosts / 2
        && !paths.is_empty();

    println!();
    println!(
        "E13 verdict: {} (skew {watt_skew:.2}x, error ratio {error_ratio:.3}x <= \
         {MAX_ERROR_RATIO}x, {} + {} + {} + {} ticks conserved, fleet ledger closed)",
        if ok { "CONSERVED" } else { "LEDGER LEAKS" },
        noisy.ticks,
        bursty.ticks,
        churn.ticks,
        control.ticks,
    );

    // Only deterministic metrics: the pipeline is sim-clocked, the
    // sensor stage publishes each tick's sources in one fixed order, and
    // the fleet is single-threaded. The churn arm's per-tenant split is
    // one of them: a pid's cgroup is snapshotted into the tick frame with
    // its counters, so a container started or stopped at a chunk
    // boundary lands in the same leaf however the threads interleave.
    let mut golden = Golden::new("e13_tenants", args.quick);
    golden.push("noisy_gold_w", gold_w);
    golden.push("noisy_bronze_w", bronze_w);
    golden.push("noisy_mae_w", noisy.mae_w);
    golden.push_exact("noisy_ticks", noisy.ticks as f64);
    golden.push_exact("churn_ticks", churn.ticks as f64);
    golden.push_exact("control_ticks", control.ticks as f64);
    golden.push_exact("churn_spawned", spawned as f64);
    golden.push("churn_mae_w", churn.mae_w);
    golden.push("churn_gold_w", churn_gold_w);
    golden.push("churn_bronze_w", churn_bronze_w);
    golden.push("control_mae_w", control.mae_w);
    golden.push_exact("fleet_tenant_paths", paths.len() as f64);
    golden.push("fleet_gold_w", gold_fleet.power_w);
    golden.push("fleet_bronze_w", bronze_fleet.power_w);
    golden.push("fleet_stray_w", stray_fleet.power_w);
    golden.push_exact("bursty_ticks", bursty.ticks as f64);
    golden.push_exact("bursty_degraded_flushes", degraded_flushes as f64);
    golden.push("bursty_mae_w", bursty.mae_w);
    golden.finish(&args, ok);
}
