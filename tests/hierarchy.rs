//! Hierarchical tenant→service→process attribution end to end: cgroup
//! trees in the kernel, the aggregator's leaf fold in the middleware, and
//! the conservation ledger that proves no watt escapes — including under
//! container churn and degraded sensor quality.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::process::Pid;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::actor::{Actor, ActorSystem, Context};
use powerapi_suite::powerapi::aggregator::{Aggregator, Dimension};
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::formula::PowerFormula;
use powerapi_suite::powerapi::frame::{FrameBuilder, PowerBatch};
use powerapi_suite::powerapi::hierarchy::{Hierarchy, ROOT, UNGROUPED};
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::msg::{Message, Quality, Scope, Topic};
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::powerapi::telemetry::TraceId;
use powerapi_suite::simcpu::fault::{FaultKind, FaultPlan, FaultWindow};
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::{Nanos, Watts};
use powerapi_suite::simcpu::workunit::WorkUnit;

fn paper_formula() -> PerFrequencyFormula {
    PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example())
}

/// A three-level tenant→service→process tree through the full pipeline:
/// every node gets one report per tick, parents are the bit-exact sum of
/// their children, and the root reconciles with the machine aggregator.
#[test]
fn hierarchical_pipeline_conserves_every_tick() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-a", 4096);
    kernel.cgroup_create("tenant-b", 1024);
    let w1 = kernel.spawn_in_cgroup(
        "web",
        "tenant-a/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.8))],
    );
    let w2 = kernel.spawn_in_cgroup(
        "db",
        "tenant-a/svc-db",
        vec![SteadyTask::boxed(WorkUnit::memory_intensive(65_536.0, 0.5))],
    );
    let w3 = kernel.spawn_in_cgroup(
        "batch",
        "tenant-b/svc-batch",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.4))],
    );
    // A stray process outside every cgroup: the `__ungrouped__`
    // catch-all must account for it.
    let stray = kernel.spawn(
        "stray",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.2))],
    );

    let formula = paper_formula();
    let hierarchy = Hierarchy::new();
    let mut papi = PowerApi::builder(kernel)
        .formula(formula)
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .hierarchy(&hierarchy)
        .build()
        .expect("pipeline builds");
    for pid in [w1, w2, w3, stray] {
        papi.monitor(pid).expect("monitor");
    }
    papi.run_for(Nanos::from_secs(4)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    // The whole ledger holds, and the root stream reconciles with the
    // plain machine aggregator (power above idle, windows, quality).
    hierarchy.assert_conserved(&outcome.reports);
    assert_eq!(hierarchy.ticks(), 8, "one audited flush per 500 ms tick");

    // One report per node per tick, interior nodes included.
    for node in [
        "tenant-a",
        "tenant-a/svc-web",
        "tenant-a/svc-db",
        "tenant-b",
        "tenant-b/svc-batch",
        UNGROUPED,
        ROOT,
    ] {
        assert_eq!(
            outcome.group_estimates(node).len(),
            8,
            "node {node} must report every tick"
        );
    }

    // Parents are the bit-exact sum of their children at every tick.
    let at = |node: &str, ts: Nanos| {
        outcome
            .reports
            .iter()
            .find(|r| r.timestamp == ts && matches!(&r.scope, Scope::Group(g) if &**g == node))
            .map(|r| r.power.as_f64())
            .unwrap_or_else(|| panic!("missing {node} at {ts:?}"))
    };
    for (ts, _) in outcome.group_estimates("tenant-a") {
        let parent = at("tenant-a", ts);
        let children = at("tenant-a/svc-web", ts) + at("tenant-a/svc-db", ts);
        assert_eq!(
            parent.to_bits(),
            children.to_bits(),
            "tenant-a at {ts:?}: {parent} W vs children {children} W"
        );
    }

    // The stray pid's watts landed in the catch-all, not nowhere.
    assert!(
        outcome
            .group_estimates(UNGROUPED)
            .iter()
            .any(|(_, w)| w.as_f64() > 0.0),
        "stray process must surface under __ungrouped__"
    );
}

/// Conservation keeps holding when fault windows knock the primary
/// formula out and the fallback serves degraded estimates — the root's
/// quality floor matches the machine aggregator's every tick.
#[test]
fn conservation_survives_degraded_quality() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    kernel.cgroup_create("tenant-a", 2048);
    let pid = kernel.spawn_in_cgroup(
        "web",
        "tenant-a/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.9))],
    );
    let plan = FaultPlan::from_windows(vec![FaultWindow {
        kind: FaultKind::CounterStall,
        start: Nanos::from_secs(2),
        end: Nanos::from_secs(60),
        magnitude: 0.0,
    }]);
    let formula = paper_formula();
    let hierarchy = Hierarchy::new();
    let mut papi = PowerApi::builder(kernel)
        .formula(formula)
        .degrade_to(
            PerFrequencyFormula::cpu_load(31.5, 12.0),
            Nanos::from_millis(1500),
        )
        .fault_plan(plan)
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .hierarchy(&hierarchy)
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(6)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    hierarchy.assert_conserved(&outcome.reports);
    let degraded = outcome
        .reports
        .iter()
        .filter(|r| {
            matches!(&r.scope, Scope::Group(g) if &**g == ROOT) && r.quality < Quality::Full
        })
        .count();
    assert!(degraded > 0, "the stall must degrade some root flushes");
}

/// The root adds the aggregator's idle floor, which is the formula's: a
/// model whose idle line is overridden moves the root's floor with it and
/// still reconciles with the machine stream.
#[test]
fn an_overridden_idle_floor_is_the_roots_floor() {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn_in_cgroup(
        "web",
        "tenant-a/svc-web",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.6))],
    );
    let paper = PerFrequencyPowerModel::paper_i3_example();
    assert_ne!(paper.idle_w(), 40.0, "the override must differ");
    let text: String = paper
        .to_text()
        .lines()
        .map(|l| match l.starts_with("idle ") {
            true => "idle 40\n".to_string(),
            false => format!("{l}\n"),
        })
        .collect();
    let formula =
        PerFrequencyFormula::new(PerFrequencyPowerModel::from_text(&text).expect("model"));
    assert_eq!(formula.idle_w(), 40.0);
    let hierarchy = Hierarchy::new();
    let mut papi = PowerApi::builder(kernel)
        .formula(formula)
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .hierarchy(&hierarchy)
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(2)).expect("run");
    let outcome = papi.finish().expect("shutdown");

    hierarchy.assert_conserved(&outcome.reports);
    assert_eq!(hierarchy.ticks(), 4);
    for flush in hierarchy.ledger() {
        let (root, tops) = (flush.nodes[ROOT], flush.nodes["tenant-a"].power_w);
        let ungrouped = flush.nodes[UNGROUPED].power_w;
        assert_eq!(
            root.power_w.to_bits(),
            (40.0 + (tops + ungrouped)).to_bits()
        );
    }
}

/// Holds the loop thread on the first tick frame until the test opens
/// the gate, so no tick is folded before the main thread moves on.
struct Gate(Option<mpsc::Receiver<()>>);

impl Actor for Gate {
    fn handle(&mut self, _msg: Message, _ctx: &Context) {
        if let Some(gate) = self.0.take() {
            gate.recv().expect("the test opens the gate");
        }
    }
}

/// Membership is a property of the tick: a pid moved to another cgroup
/// between two `run_for` calls, before the loop has folded any tick,
/// lands for every tick in the leaf the kernel had when that tick was
/// snapshotted — never in the one it moved to later.
#[test]
fn a_rehomed_pid_lands_in_the_leaf_its_tick_recorded() {
    let (open, gate) = mpsc::channel();
    let mut gate = Some(gate);
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pid = kernel.spawn_in_cgroup(
        "web",
        "tenant-a/svc-old",
        vec![SteadyTask::boxed(WorkUnit::cpu_intensive(0.8))],
    );
    let formula = paper_formula();
    let hierarchy = Hierarchy::new();
    let mut papi = PowerApi::builder(kernel)
        .formula(formula)
        .report_to_memory()
        .quantum(Nanos::from_millis(2))
        .clock_period(Nanos::from_millis(500))
        .hierarchy(&hierarchy)
        .with_supervised_actor(
            "gate",
            move || Box::new(Gate(gate.take())),
            vec![Topic::Tick],
        )
        .build()
        .expect("pipeline builds");
    papi.monitor(pid).expect("monitor");
    papi.run_for(Nanos::from_secs(2)).expect("run");
    papi.kernel_mut()
        .cgroup_attach(pid, "tenant-a/svc-new")
        .expect("re-home");
    open.send(()).expect("the loop holds the gate");
    papi.run_for(Nanos::from_secs(2)).expect("run");
    let outcome = papi.finish().expect("shutdown");
    hierarchy.assert_conserved(&outcome.reports);

    let moved_at = Nanos::from_secs(2);
    let leaf =
        |node| -> BTreeMap<Nanos, Watts> { outcome.group_estimates(node).into_iter().collect() };
    let (old, new) = (leaf("tenant-a/svc-old"), leaf("tenant-a/svc-new"));
    let estimates = outcome.process_estimates(pid);
    assert_eq!(estimates.len(), 8, "one estimate per tick");
    for (ts, w) in estimates {
        let (home, away) = if ts <= moved_at {
            (&old, &new)
        } else {
            (&new, &old)
        };
        assert_eq!(
            home.get(&ts).map(|h| h.as_f64().to_bits()),
            Some(w.as_f64().to_bits()),
            "at {ts:?} the pid's {} W must be in the leaf its frame named",
            w.as_f64()
        );
        assert_eq!(
            away.get(&ts).map_or(0.0, |a| a.as_f64()),
            0.0,
            "at {ts:?} the other leaf must be empty"
        );
    }
}

/// One tick's power batch: `(pid, cgroup node, watts)` rows at `ts_ms`,
/// over a frame whose group columns record each pid's node — the
/// membership a host stamps when it snapshots the tick.
fn power(ts_ms: u64, rows: &[(u32, Option<&str>, f64)]) -> Message {
    let at = Nanos::from_millis(ts_ms);
    let mut frame = FrameBuilder::new();
    let mut b = PowerBatch::with_capacity(at, "t", TraceId::NONE, rows.len());
    for &(pid, node, w) in rows {
        frame.push_time_row(Pid(pid), Nanos::ZERO, |_| {});
        frame.set_time_group(node);
        b.push(Pid(pid), Watts(w), Watts(0.0), Quality::Full);
    }
    let interval = Nanos::from_millis(500);
    b.frame = Some(Arc::new(frame.finish(
        at,
        interval,
        Vec::new().into(),
        None,
    )));
    Message::PowerBatch(Arc::new(b))
}

/// A flat set of VMs is a depth-1 tree: each group is the sum of its
/// members per timestamp, and a pid outside every group lands in the
/// catch-all instead of vanishing.
#[test]
fn groups_sum_their_members_per_timestamp() {
    let vms = Hierarchy::new();
    let mut sys = ActorSystem::new();
    let agg = Aggregator::new(Dimension::timestamp(), 0.0).with_hierarchy(vms.clone());
    let agg = sys.spawn("groups", Box::new(agg));
    sys.bus().subscribe(Topic::Power, &agg);
    let (alpha, beta) = (Some("vm-alpha"), Some("vm-beta"));
    // Tick 1: alpha gets 2+3 W, beta gets 4 W; pid 9 is ungrouped.
    sys.bus().publish(power(
        500,
        &[
            (1, alpha, 2.0),
            (2, alpha, 3.0),
            (3, beta, 4.0),
            (9, None, 100.0),
        ],
    ));
    // Tick 2 flushes the tick-1 window; shutdown flushes tick 2.
    sys.bus()
        .publish(power(1000, &[(1, alpha, 1.0), (3, beta, 1.5)]));
    sys.shutdown();
    let ledger = vms.ledger();
    let emitted = |tick: usize, node: &str| ledger[tick].nodes[node].power_w;
    assert_eq!(ledger.len(), 2);
    assert_eq!(emitted(0, "vm-alpha"), 5.0);
    assert_eq!(emitted(0, "vm-beta"), 4.0);
    assert_eq!(emitted(0, UNGROUPED), 100.0);
    assert_eq!(emitted(1, "vm-alpha"), 1.0);
    assert_eq!(emitted(1, "vm-beta"), 1.5);
    assert_eq!(emitted(1, UNGROUPED), 0.0);
    vms.conservation().expect("ledger conserves");
}

/// The churn law: a hierarchy leaf whose pid died flushes with the next
/// tick — forced by any other node's traffic, never held until shutdown
/// — and the ledger still conserves.
#[test]
fn dying_process_never_leaves_a_stale_hierarchy_leaf() {
    let hierarchy = Hierarchy::new();
    let mut sys = ActorSystem::new();
    let agg = Aggregator::new(Dimension::timestamp(), 0.0).with_hierarchy(hierarchy.clone());
    let agg = sys.spawn("hierarchy", Box::new(agg));
    sys.bus().subscribe(Topic::Power, &agg);

    let (dying, survivor) = (Some("tenant-a/svc-dying"), Some("tenant-b/svc-survivor"));
    sys.bus()
        .publish(power(500, &[(1, dying, 4.0), (2, survivor, 1.0)]));
    // Pid 1 dies between ticks — its row simply leaves the frame; only
    // the survivor speaks at tick 2.
    sys.bus().publish(power(1000, &[(2, survivor, 1.5)]));

    // The ts=500 whole-tree window (including the dead leaf) must be in
    // the ledger before shutdown, flushed by the survivor's report.
    sys.settle();
    assert_eq!(
        hierarchy.ticks(),
        1,
        "tick-1 window lingered past the tick-2 boundary"
    );
    let first = &hierarchy.ledger()[0];
    assert_eq!(first.ts, Nanos::from_millis(500));
    assert_eq!(
        first.leaves["tenant-a/svc-dying"].power_w.to_bits(),
        4.0f64.to_bits(),
        "the dead pid's final watts are in its leaf, not lost"
    );
    sys.shutdown();
    hierarchy
        .conservation()
        .expect("ledger conserves after churn");
    assert_eq!(
        hierarchy.ticks(),
        2,
        "shutdown flushed the open tick-2 window"
    );
}
