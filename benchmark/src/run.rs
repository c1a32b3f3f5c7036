//! Passes over a workload and the arithmetic that turns them into the
//! named metrics: a checked pass (outputs verified, nothing timed), timed
//! repetitions (end-to-end metrics) and a traced pass (per-layer metrics).

use crate::check::{load_expected, Fingerprint};
use crate::fleet::{self, FleetPass, FleetShape};
use crate::host::{self, HostPass, HostShape, PassOptions};
use crate::procstat::Stage;
use crate::spec::{Size, Workload, DEFAULT_SEED, PER_LAYER};
use crate::stats::percentile_sorted;
use crate::twin::TwinReport;
use std::collections::BTreeMap;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One pass, reduced to what every workload has in common.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds of the timed window (drain included on a host).
    pub wall_s: f64,
    /// Process CPU seconds over the same window.
    pub cpu_s: f64,
    /// The end-to-end metrics of this pass, `setup_s` included.
    pub end_to_end: Metrics,
    /// Operations attempted: monitoring ticks (host), frames (fleet).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Exact outputs.
    pub fingerprint: Fingerprint,
    /// The pass as the workload's own module saw it.
    pub detail: Detail,
}

/// Workload-specific measurements of a pass.
#[derive(Debug, Clone)]
pub enum Detail {
    /// `host-deep`, `host-wide`.
    Host(HostPass),
    /// `fleet-live`, `fleet-faulty`.
    Fleet(FleetPass),
}

/// Which kind of pass to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Outputs digested and verified; its timings are not reported.
    Checked,
    /// A timed repetition.
    Timed,
    /// Sampler thread, allocation counting and per-tick clock reads on.
    Traced,
    /// `host-wide` only: a timed repetition with telemetry off.
    TelemetryOff,
}

fn per_million(seconds: f64, count: u64) -> f64 {
    seconds * 1e6 / count.max(1) as f64
}

/// Runs one pass of `workload`.
pub fn pass(workload: Workload, size: Size, seed: u64, kind: Kind) -> Pass {
    let mut end_to_end = Metrics::new();
    if workload.is_host() {
        let shape = HostShape::new(workload, size);
        let opts = match kind {
            Kind::Checked => PassOptions::CHECKED,
            Kind::Timed => PassOptions::TIMED,
            Kind::Traced => PassOptions::TRACED,
            Kind::TelemetryOff => PassOptions {
                telemetry: Some(false),
                ..PassOptions::TIMED
            },
        };
        let p = host::run_pass(&shape, seed, opts);
        // One frame per monitoring tick: on a host the fleet forms, which
        // only the driver's result line carries, equal the host forms.
        let rate = shape.ticks as f64 / p.wall_s;
        let cpu_us = per_million(p.cpu_s, shape.ticks);
        end_to_end.insert("setup_s", p.setup_s);
        end_to_end.insert("sim_s_per_s", rate);
        end_to_end.insert("frames_per_s", rate);
        end_to_end.insert("cpu_us_per_tick", cpu_us);
        end_to_end.insert("cpu_us_per_frame", cpu_us);
        Pass {
            wall_s: p.wall_s,
            cpu_s: p.cpu_s,
            end_to_end,
            attempted: p.attempted,
            failed: p.failed,
            fingerprint: p.fingerprint.clone(),
            detail: Detail::Host(p),
        }
    } else {
        let shape = FleetShape::new(workload, size);
        let p = fleet::run_pass(&shape, seed, kind == Kind::Traced);
        end_to_end.insert("setup_s", p.setup_s);
        end_to_end.insert("sim_s_per_s", shape.ticks as f64 / p.wall_s);
        end_to_end.insert("frames_per_s", p.stats.applied as f64 / p.wall_s);
        end_to_end.insert("cpu_us_per_tick", per_million(p.cpu_s, shape.ticks));
        end_to_end.insert("cpu_us_per_frame", per_million(p.cpu_s, p.stats.produced));
        Pass {
            wall_s: p.wall_s,
            cpu_s: p.cpu_s,
            end_to_end,
            attempted: p.stats.produced,
            failed: p.failed,
            fingerprint: p.fingerprint.clone(),
            detail: Detail::Fleet(p),
        }
    }
}

/// The checked pass of a run, and what was wrong with it: a mismatch with
/// the blessed fingerprint (for the blessed seed at the measured size; a
/// blessed fingerprint that cannot be read is a mismatch too), failed
/// operations, an unhealthy shutdown.
pub fn checked_pass(workload: Workload, size: Size, seed: u64) -> (Pass, Vec<String>) {
    let checked = pass(workload, size, seed, Kind::Checked);
    let mut problems = Vec::new();
    if !size.quick && seed == DEFAULT_SEED {
        match load_expected(workload) {
            Ok(expected) => {
                problems.extend(expected.mismatches(&checked.fingerprint).iter().map(|m| {
                    format!(
                        "checked pass differs from expected/{}.txt: {m}",
                        workload.name()
                    )
                }));
            }
            Err(e) => problems.push(format!("no blessed fingerprint to check against: {e}")),
        }
    }
    if checked.failed > 0 {
        problems.push(format!(
            "checked pass: {} of {} operations failed",
            checked.failed, checked.attempted
        ));
    }
    if checked.fingerprint.0.get("healthy") == Some(&0) {
        problems.push("checked pass: the pipeline shut down unhealthy".into());
    }
    (checked, problems)
}

/// `trace.unaccounted_pct` above this makes a run incorrect: the
/// `Fleet::conservation()` discipline applied to time.
const MAX_UNACCOUNTED_PCT: f64 = 10.0;

/// The per-layer metrics of one workload, and whether every cross-check
/// of the traced pass held.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Every name of [`PER_LAYER`]; 0 where the layer does no work.
    pub per_layer: Metrics,
    /// Problems found: twin disagreement, inexact replay, a traced pass
    /// whose outputs differ from the checked pass's.
    pub problems: Vec<String>,
    /// Most threads the sampler saw alive at once (host workloads).
    pub max_threads: usize,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn substrate_layers(m: &mut Metrics, tw: &TwinReport) {
    let per_quantum = |total: u64| ratio(total, tw.quanta);
    let per_tick = |total: u64| ratio(total, tw.ticks);
    m.insert("simcpu.tick_ns", per_quantum(tw.machine_ns));
    m.insert("os-sim.tick_ns", per_quantum(tw.kernel_ns));
    m.insert(
        "os-sim.self_ns",
        per_quantum(tw.kernel_ns.saturating_sub(tw.machine_ns)),
    );
    m.insert("os-sim.tick_allocs", per_quantum(tw.kernel_allocs));
    m.insert("workloads.slice_ns", per_quantum(tw.slice_ns));
    m.insert("perf-sim.observe_ns", per_quantum(tw.observe_ns));
    m.insert("perf-sim.sample_ns", per_tick(tw.sample_ns));
    m.insert("powermeter.observe_ns", per_quantum(tw.meter_ns));
    m.insert("powermeter.rapl_ns", per_quantum(tw.rapl_ns));
    m.insert("core.host.step_ns", per_quantum(tw.step_ns));
    m.insert(
        "core.host.step_self_ns",
        per_quantum(tw.step_ns - tw.substrate_in_step_ns()),
    );
    m.insert("core.host.snapshot_ns", per_tick(tw.snapshot_ns));
    m.insert("core.host.snapshot_allocs", per_tick(tw.snapshot_allocs));
    m.insert("core.host.frame_rows", per_tick(tw.frame_rows));
    m.insert("core.host.active_rows", per_tick(tw.active_rows));
}

/// Share of the traced windows' wall time outside every top-level span.
fn unaccounted_pct(windows: &[(u64, u64)]) -> f64 {
    let wall: u64 = windows.iter().map(|w| w.0).sum();
    let spans: u64 = windows.iter().map(|w| w.1).sum();
    100.0 * wall.saturating_sub(spans) as f64 / wall.max(1) as f64
}

/// Runs the traced pass of `workload`: one traced trip through the real
/// program, then the twins and the direct calls. `checked` is the
/// fingerprint the trip must reproduce; `untraced_wall_s` is the median
/// window of the run's timed repetitions, when it has any — otherwise one
/// untraced trip is made to have something to compare with.
pub fn traced(
    workload: Workload,
    size: Size,
    seed: u64,
    checked: &Fingerprint,
    untraced_wall_s: Option<f64>,
) -> Traced {
    let mut m: Metrics = PER_LAYER.iter().map(|s| (s.name, 0.0)).collect();
    let mut problems = Vec::new();
    let mut reproduces = |label: &str, p: &Pass| {
        for miss in p.fingerprint.mismatches(checked) {
            problems.push(format!(
                "{label} pass differs from the checked pass: {miss}"
            ));
        }
    };
    let untraced_wall_s = untraced_wall_s.unwrap_or_else(|| {
        let untraced = pass(workload, size, seed, Kind::Timed);
        reproduces("untraced", &untraced);
        untraced.wall_s
    });
    let traced = pass(workload, size, seed, Kind::Traced);
    reproduces("traced", &traced);
    m.insert(
        "trace.overhead_pct",
        100.0 * (traced.wall_s - untraced_wall_s) / untraced_wall_s,
    );
    let mut max_threads = 1;
    let traced_wall_ns = (traced.wall_s * 1e9) as u64;
    let mut windows = Vec::new();

    match &traced.detail {
        Detail::Host(t) => {
            let shape = HostShape::new(workload, size);
            let ticks = shape.ticks;
            let tw = host::twins(&shape, seed);
            if !tw.consistent {
                problems.push("the twin stacks disagree with each other or with the replay".into());
            }
            substrate_layers(&mut m, &tw);
            m.insert("median_ape_pct", t.median_ape_pct);
            m.insert("core.runtime.producer_us", per_million(t.producer_s, ticks));
            let twin_producer_s = (tw.step_ns + tw.snapshot_ns) as f64 / 1e9;
            let publish_s = (t.producer_s - twin_producer_s).max(0.0);
            m.insert("core.runtime.publish_us", per_million(publish_s, ticks));
            m.insert(
                "core.runtime.drain_share",
                (t.wall_s - t.producer_s) / t.wall_s,
            );
            let sampler = t.sampler.clone().unwrap_or_default();
            max_threads = sampler.max_threads;
            let mut stage_ns = 0;
            for (stage, name_cpu, name_wait) in [
                (
                    Stage::Sensor,
                    "core.sensor.cpu_us",
                    "core.sensor.rq_wait_us",
                ),
                (
                    Stage::Formula,
                    "core.formula.cpu_us",
                    "core.formula.rq_wait_us",
                ),
                (
                    Stage::Aggregator,
                    "core.aggregator.cpu_us",
                    "core.aggregator.rq_wait_us",
                ),
                (
                    Stage::Reporter,
                    "core.reporter.cpu_us",
                    "core.reporter.rq_wait_us",
                ),
            ] {
                let s = sampler.stages.get(&stage).copied().unwrap_or_default();
                stage_ns += s.run_ns;
                m.insert(name_cpu, ratio(s.run_ns, ticks) / 1e3);
                m.insert(name_wait, ratio(s.wait_ns, ticks) / 1e3);
            }
            let rows = t.fingerprint.0.get("rows").copied().unwrap_or(0);
            let bytes = t.fingerprint.0.get("bytes").copied().unwrap_or(0);
            m.insert("core.reporter.rows_per_tick", ratio(rows, t.attempted));
            m.insert("core.reporter.bytes_per_tick", ratio(bytes, t.attempted));
            if workload == Workload::HostWide {
                let off = pass(workload, size, seed, Kind::TelemetryOff);
                m.insert(
                    "core.telemetry.on_off_pct",
                    100.0 * (untraced_wall_s - off.wall_s) / off.wall_s,
                );
            }
            m.insert("alloc.per_tick", ratio(t.allocs, ticks));
            m.insert("alloc.per_frame", ratio(t.allocs, ticks));
            // The budget the shares divide: the driver thread (twin steps
            // and snapshots, plus what publishing adds on top) and the
            // stage threads. Each part comes from its own measurement, so
            // a share cannot exceed the whole when the box's speed drifts
            // between passes.
            let budget_ns = (tw.step_ns + tw.snapshot_ns + stage_ns) as f64 + publish_s * 1e9;
            m.insert(
                "share.substrate_pct",
                100.0 * tw.substrate_in_step_ns() as f64 / budget_ns,
            );
            m.insert(
                "share.pipeline_pct",
                100.0 * (stage_ns + tw.snapshot_ns) as f64 / budget_ns,
            );
            // Only the twins' window: there every span is a clock pair of
            // its own. The pipeline's window is `run_for` and `finish()`
            // back to back and opaque from outside, so its "spans" would
            // equal its wall by construction and only dilute the figure.
            windows.push((tw.wall_ns, tw.span_ns));
        }
        Detail::Fleet(t) => {
            let shape = FleetShape::new(workload, size);
            let ticks = shape.ticks;
            let s = &t.stats;
            let tick_total: u64 = t.tick_ns.iter().sum();
            m.insert("fleet_mae_w", t.fleet_mae_w);
            m.insert("lag_p99_ticks", t.lag_p99_ticks as f64);
            m.insert(
                "core.fleet.produce_us",
                ratio(t.produce_ns, s.produced) / 1e3,
            );
            let transport_ns = tick_total.saturating_sub(t.produce_ns);
            m.insert("core.fleet.transport_us", ratio(transport_ns, ticks) / 1e3);
            let mut sorted = t.tick_ns.clone();
            sorted.sort_unstable();
            m.insert(
                "core.fleet.tick_ms_p50",
                percentile_sorted(&sorted, 0.50) as f64 / 1e6,
            );
            m.insert(
                "core.fleet.tick_ms_p99",
                percentile_sorted(&sorted, 0.99) as f64 / 1e6,
            );

            let d = fleet::direct_calls(&shape, seed);
            m.insert("core.fleet.envelope.encode_ns", d.encode_ns);
            m.insert("core.fleet.envelope.checksum_ns", d.checksum_ns);
            m.insert("core.fleet.envelope.decode_ns", d.decode_ns);
            m.insert("core.fleet.envelope.bytes_per_frame", d.bytes_per_frame);
            m.insert("core.fleet.link.send_ns", d.send_ns);
            m.insert("core.fleet.link.take_due_ns", d.take_due_ns);
            m.insert("core.fleet.shard.ingest_ns", d.ingest_ns);
            m.insert("core.fleet.shard.process_ns", d.process_ns);
            m.insert("core.fleet.shard.estimate_ns", d.estimate_ns);
            // What the direct calls explain of a tick's transport: every
            // frame is encoded once, every transmission is one send, every
            // link is polled and every host's estimate read once a tick,
            // every delivery is ingested and processed.
            let processed = s.applied + s.dup_discarded + s.corrupt_frames;
            let host_ticks = fleet::HOSTS as u64 * ticks;
            let explained_ns = d.encode_ns * s.produced as f64
                + d.send_ns * s.transmissions as f64
                + d.take_due_ns * host_ticks as f64
                + d.ingest_ns * (processed + s.shard_shed) as f64
                + d.process_ns * processed as f64
                + d.estimate_ns * host_ticks as f64;
            m.insert(
                "core.fleet.residual_us",
                (transport_ns as f64 - explained_ns).max(0.0) / ticks as f64 / 1e3,
            );
            m.insert(
                "core.fleet.applied_ratio",
                ratio(s.applied, s.transmissions),
            );
            m.insert(
                "core.fleet.retransmit_ratio",
                ratio(s.retransmits, s.transmissions),
            );
            m.insert(
                "core.fleet.dup_discard_ratio",
                ratio(s.dup_discarded, processed),
            );
            m.insert("core.fleet.corrupt_rejected", s.corrupt_frames as f64);
            m.insert("core.fleet.shed", (s.sender_shed + s.shard_shed) as f64);
            m.insert("core.fleet.lost_frames", fleet::lost_frames(s) as f64);
            m.insert("alloc.per_tick", ratio(t.allocs, ticks));
            m.insert("alloc.per_frame", ratio(t.allocs, s.produced));
            m.insert("share.produce_pct", 100.0 * ratio(t.produce_ns, tick_total));
            windows.push((traced_wall_ns, tick_total));
            windows.push((d.wall_ns, d.span_ns));
            if let Some(tw) = fleet::twins(&shape, seed) {
                if !tw.consistent {
                    problems
                        .push("the twin stacks disagree with each other or with the replay".into());
                }
                substrate_layers(&mut m, &tw);
                // `produce` is steps plus a snapshot; the twinned hosts
                // say how much of that the substrate is.
                m.insert(
                    "share.substrate_pct",
                    100.0
                        * ratio(t.produce_ns, tick_total)
                        * ratio(tw.substrate_in_step_ns(), tw.step_ns + tw.snapshot_ns),
                );
                windows.push((tw.wall_ns, tw.span_ns));
            }
        }
    }
    let unaccounted = unaccounted_pct(&windows);
    m.insert("trace.unaccounted_pct", unaccounted);
    if unaccounted > MAX_UNACCOUNTED_PCT {
        problems.push(format!(
            "trace.unaccounted_pct is {unaccounted:.1} %, above {MAX_UNACCOUNTED_PCT} %"
        ));
    }
    Traced {
        per_layer: m,
        problems,
        max_threads,
    }
}

/// Median of each end-to-end metric over `passes`.
pub fn medians(passes: &[Pass]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = passes.first() {
        for &name in first.end_to_end.keys() {
            let values: Vec<f64> = passes.iter().map(|p| p.end_to_end[name]).collect();
            out.insert(
                name,
                mathkit::stats::median(&values).expect("at least one pass"),
            );
        }
    }
    out
}
