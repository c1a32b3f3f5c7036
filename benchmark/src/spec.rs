//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root states
//! the same tables for the driver; a test keeps the two in step. Later
//! issues refer to these names verbatim.

use simcpu::units::Nanos;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// One SPECjbb process, 1 000 kernel quanta per monitoring tick.
    HostDeep,
    /// 1 000 monitored processes, 10 quanta per tick, ~40 active rows.
    HostWide,
    /// 200 live simulated hosts over perfect links.
    FleetLive,
    /// 200 canned sources over lossy links: transport only.
    FleetFaulty,
}

impl Workload {
    /// Every workload, in the order repetitions interleave them.
    pub const ALL: [Workload; 4] = [
        Workload::HostDeep,
        Workload::HostWide,
        Workload::FleetLive,
        Workload::FleetFaulty,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HostDeep => "host-deep",
            Workload::HostWide => "host-wide",
            Workload::FleetLive => "fleet-live",
            Workload::FleetFaulty => "fleet-faulty",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HostDeep => "one SPECjbb process at 1000 kernel quanta per tick: simcpu/os-sim/perf-sim do ~90% of the work and the actor pipeline almost none (the shape of every paper experiment)",
            Workload::HostWide => "1000 monitored processes at 10 quanta per tick, ~40 active rows: snapshot_frame and the Sensor/Formula/Aggregator/Reporter threads do most of the work, the substrate a quarter",
            Workload::FleetLive => "200 live simulated hosts over perfect links into 8 shards: host stepping is ~90% of a fleet tick, so cheaper or parallel stepping must show here and transport work must not",
            Workload::FleetFaulty => "200 canned 16-row frame sources over lossy links with partitions: no simulator runs, so envelope/link/shard/tenant books and the retry, dedup and reject paths do all the work",
        }
    }

    /// Whether this is one of the two single-host pipeline workloads.
    pub fn is_host(self) -> bool {
        matches!(self, Workload::HostDeep | Workload::HostWide)
    }

    /// Salt that keeps workloads sharing a seed from sharing inputs.
    pub fn salt(self) -> u64 {
        self as u64 + 1
    }
}

/// How much work one repetition does. `--quick` divides the tick counts by
/// twenty and keeps every other shape parameter, for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Whether this is the 1/20 smoke size.
    pub quick: bool,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size { quick: false };
    /// The smoke size.
    pub const QUICK: Size = Size { quick: true };

    /// Monitoring ticks (host) or fleet ticks (fleet) in the timed window
    /// of one repetition: 2–3 s on the 2-core reference box, a third of
    /// the issue's sizes. A driver run repeats until `--seconds` are
    /// measured, so with short repetitions its length is set by the clock
    /// and not by the box's speed, which matters under the driver's cap on
    /// the total; three repetitions of the issue's size are no steadier
    /// (`noise/repetition-length.jsonl`, README "Noise discipline").
    pub fn ticks(self, workload: Workload) -> u64 {
        let full = match workload {
            Workload::HostDeep => 1_000,
            Workload::HostWide => 4_000,
            Workload::FleetLive => 600,
            Workload::FleetFaulty => 1_200,
        };
        if self.quick {
            full / 20
        } else {
            full
        }
    }
}

/// The seed of the committed expected outputs and of every default.
pub const DEFAULT_SEED: u64 = 2014;

/// The monitoring clock of every workload: one tick is one simulated
/// second, on a host and in the fleet.
pub const CLOCK: Nanos = Nanos(1_000_000_000);

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The workloads a metric is judged on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every workload.
    All,
    /// `host-deep` and `host-wide`.
    Host,
    /// `fleet-live` and `fleet-faulty`.
    Fleet,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// The name, as printed.
    pub name: &'static str,
    /// The unit, as printed.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may get worse before it is a regression.
    pub bound: Option<f64>,
    /// Where the suite reports the metric and `--compare` judges it.
    pub scope: Scope,
}

impl MetricSpec {
    /// Whether the metric is reported and judged on `workload`.
    pub fn applies(&self, workload: Workload) -> bool {
        match self.scope {
            Scope::All => true,
            Scope::Host => workload.is_host(),
            Scope::Fleet => !workload.is_host(),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    scope: Scope,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        scope,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        scope: Scope::All,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. The rate and the CPU cost each have a
/// host form and a fleet form, and each form is reported and judged only
/// on its own workloads: a regression is one finding, not two. The driver
/// wants every metric from every run, so a driver run also prints the
/// other form — the same measurement in the other unit (on a host a frame
/// is a monitoring tick; a fleet tick is 200 frames) — and nothing in
/// this harness reads it.
///
/// The issue asked for 10 % bounds on the timings. The driver refuses a
/// benchmark whose ten-run spread (IQR ÷ median) exceeds a metric's bound,
/// and on the reference box that spread reaches 10–20 % whenever a
/// neighbour is busy (`noise/`, README "Noise discipline"). A bound has to
/// exceed the spread it is judged against, so the timings take the widest
/// bound the driver allows.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Lower, 0.25, Scope::All),
    e2e("sim_s_per_s", "sim_s/s", Higher, 0.25, Scope::Host),
    e2e("frames_per_s", "1/s", Higher, 0.25, Scope::Fleet),
    e2e("cpu_us_per_tick", "us", Lower, 0.25, Scope::Host),
    e2e("cpu_us_per_frame", "us", Lower, 0.25, Scope::Fleet),
];

/// `setup_s` may also get worse by this many seconds before `--compare`
/// calls it a regression (the driver's contract has no absolute floor).
pub const SETUP_FLOOR_S: f64 = 0.05;

/// Single layers, from the traced pass. A layer that does no work on a
/// workload reports 0 there.
pub const PER_LAYER: [MetricSpec; 59] = [
    // Simulated statistics: exact for a seed, bit-identical across commits
    // that only change speed.
    layer("median_ape_pct", "%", Lower),
    layer("fleet_mae_w", "W", Lower),
    layer("lag_p99_ticks", "ticks", Lower),
    // Substrate, per kernel quantum unless named otherwise.
    layer("simcpu.tick_ns", "ns", Lower),
    layer("os-sim.tick_ns", "ns", Lower),
    layer("os-sim.self_ns", "ns", Lower),
    layer("os-sim.tick_allocs", "count", Lower),
    layer("workloads.slice_ns", "ns", Lower),
    layer("perf-sim.observe_ns", "ns", Lower),
    layer("perf-sim.sample_ns", "ns", Lower),
    layer("powermeter.observe_ns", "ns", Lower),
    layer("powermeter.rapl_ns", "ns", Lower),
    layer("core.host.step_ns", "ns", Lower),
    layer("core.host.step_self_ns", "ns", Lower),
    layer("core.host.snapshot_ns", "ns", Lower),
    layer("core.host.snapshot_allocs", "count", Lower),
    layer("core.host.frame_rows", "count", Higher),
    layer("core.host.active_rows", "count", Higher),
    // The driver thread inside the pipeline, per monitoring tick.
    layer("core.runtime.producer_us", "us", Lower),
    layer("core.runtime.publish_us", "us", Lower),
    layer("core.runtime.drain_share", "ratio", Lower),
    // Actor threads, per monitoring tick, from schedstat.
    layer("core.sensor.cpu_us", "us", Lower),
    layer("core.sensor.rq_wait_us", "us", Lower),
    layer("core.formula.cpu_us", "us", Lower),
    layer("core.formula.rq_wait_us", "us", Lower),
    layer("core.aggregator.cpu_us", "us", Lower),
    layer("core.aggregator.rq_wait_us", "us", Lower),
    layer("core.reporter.cpu_us", "us", Lower),
    layer("core.reporter.rq_wait_us", "us", Lower),
    layer("core.reporter.rows_per_tick", "count", Higher),
    layer("core.reporter.bytes_per_tick", "B", Lower),
    layer("core.telemetry.on_off_pct", "%", Lower),
    // Fleet, per frame or per fleet tick as named.
    layer("core.fleet.produce_us", "us", Lower),
    layer("core.fleet.transport_us", "us", Lower),
    layer("core.fleet.tick_ms_p50", "ms", Lower),
    layer("core.fleet.tick_ms_p99", "ms", Lower),
    layer("core.fleet.envelope.encode_ns", "ns", Lower),
    layer("core.fleet.envelope.checksum_ns", "ns", Lower),
    layer("core.fleet.envelope.decode_ns", "ns", Lower),
    layer("core.fleet.envelope.bytes_per_frame", "B", Lower),
    layer("core.fleet.link.send_ns", "ns", Lower),
    layer("core.fleet.link.take_due_ns", "ns", Lower),
    layer("core.fleet.shard.ingest_ns", "ns", Lower),
    layer("core.fleet.shard.process_ns", "ns", Lower),
    layer("core.fleet.shard.estimate_ns", "ns", Lower),
    layer("core.fleet.residual_us", "us", Lower),
    layer("core.fleet.applied_ratio", "ratio", Higher),
    layer("core.fleet.retransmit_ratio", "ratio", Lower),
    layer("core.fleet.dup_discard_ratio", "ratio", Lower),
    layer("core.fleet.corrupt_rejected", "count", Lower),
    layer("core.fleet.shed", "count", Lower),
    layer("core.fleet.lost_frames", "count", Lower),
    layer("alloc.per_tick", "count", Lower),
    layer("alloc.per_frame", "count", Lower),
    layer("trace.unaccounted_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // Where the traced window's time went: the acceptance shares.
    layer("share.substrate_pct", "%", Higher),
    layer("share.pipeline_pct", "%", Higher),
    layer("share.produce_pct", "%", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/"))
            .expect("BENCHMARK.json parses")
    }

    fn check_metrics(listed: &[json::Value], specs: &[MetricSpec]) {
        assert_eq!(listed.len(), specs.len());
        for (j, s) in listed.iter().zip(specs) {
            assert_eq!(j.get("name").and_then(json::Value::as_str), Some(s.name));
            assert_eq!(j.get("unit").and_then(json::Value::as_str), Some(s.unit));
            assert_eq!(
                j.get("better").and_then(json::Value::as_str),
                Some(s.better.word())
            );
            assert_eq!(
                j.get("bound").and_then(json::Value::as_f64),
                s.bound,
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc = benchmark_json();
        let workloads = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (j, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(j.get("name").and_then(json::Value::as_str), Some(w.name()));
            assert_eq!(j.get("why").and_then(json::Value::as_str), Some(w.why()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        check_metrics(
            doc.get("end_to_end")
                .and_then(json::Value::as_array)
                .unwrap(),
            &END_TO_END,
        );
        check_metrics(
            doc.get("per_layer")
                .and_then(json::Value::as_array)
                .unwrap(),
            &PER_LAYER,
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(Workload::ALL.map(Workload::name));
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("host"), None);
        assert_eq!(
            Size::QUICK.ticks(Workload::HostWide) * 20,
            Size::FULL.ticks(Workload::HostWide)
        );
    }
}
