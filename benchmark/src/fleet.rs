//! The two fleet workloads: 200 frame sources streaming checksummed
//! envelopes over links into 8 estimator shards, on one thread.
//!
//! `fleet-live` is E12's clean arm: every source is a simulated i3 that
//! is stepped four 250 ms quanta per fleet tick, links are perfect, and
//! stepping the hosts is nearly all of a tick. `fleet-faulty` takes the
//! simulator out: sources replay frames recorded in set-up from cgrouped
//! 16-process hosts, and the links drop, duplicate, corrupt, reorder and
//! partition, so the tick is envelope, link, retry, shard and tenant-book
//! work on the paths the clean arm never takes.

use crate::alloc;
use crate::check::Fingerprint;
use crate::digest::Fnv;
use crate::procstat::process_cpu_s;
use crate::rng::SplitMix64;
use crate::spec::{Size, Workload, CLOCK};
use crate::stats::percentile_sorted;
use crate::twin::{run_twins, TwinPlan, TwinReport, TwinWorld, SLOTS};
use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::{PeriodicTask, SteadyTask, TaskBehavior};
use perf_sim::events::{Event, PAPER_EVENTS};
use powerapi::fleet::{
    decode_frame, encode_frame, envelope::fnv1a64, EstimatorShard, Fleet, FleetConfig, FleetStats,
    FleetTickReport, FrameEnvelope, FrameSource, HostId, Link, LinkFaultConfig, LinkFaultKind,
    LinkFaultPlan, LinkWindow, SimHostSource,
};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::formula::PowerFormula;
use powerapi::frame::{FramePool, TickFrame};
use powerapi::host::SimHost;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::telemetry::{Telemetry, TraceId};
use powermeter::powerspy::PowerSpyConfig;
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hosts in the fleet.
pub const HOSTS: usize = 200;
/// Estimator shards.
pub const SHARDS: usize = 8;
/// Scheduler quantum of a live host.
const QUANTUM: Nanos = Nanos(250_000_000);
/// Quanta per fleet tick.
const QUANTA_PER_TICK: u32 = 4;
/// One-second steps that bring a host to thermal steady state (5 τ).
const THERMAL_STEPS: u32 = 150;
/// Ticks skipped before the fleet estimate is scored against truth.
const SCORE_AFTER_TICKS: usize = 5;
/// Frames a canned source cycles through.
const CANNED_FRAMES: usize = 16;
/// Distinct recorded hosts the canned sources share.
const CANNED_HOSTS: usize = 8;
/// Processes on a recorded host.
const CANNED_PROCESSES: usize = 16;
/// Live hosts the traced pass twins to price the substrate.
const TWIN_HOSTS: usize = 8;

/// The fixed shape of a fleet workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// `fleet-live` or `fleet-faulty`.
    pub workload: Workload,
    /// Fleet ticks in the timed window.
    pub ticks: u64,
}

impl FleetShape {
    /// The shape of `workload` at `size`.
    ///
    /// # Panics
    ///
    /// Panics when `workload` is a host workload.
    pub fn new(workload: Workload, size: Size) -> FleetShape {
        assert!(
            !workload.is_host(),
            "{} is not a fleet workload",
            workload.name()
        );
        FleetShape {
            workload,
            ticks: size.ticks(workload),
        }
    }
}

/// One process of a simulated host: its name, cgroup and behaviour recipe.
#[derive(Debug, Clone)]
struct ProcessSpec {
    name: String,
    cgroup: Option<&'static str>,
    work: WorkUnit,
    /// `Some((period, duty))` for a duty-cycled job, `None` for steady.
    periodic: Option<(Nanos, f64)>,
}

impl ProcessSpec {
    fn behaviour(&self) -> Box<dyn TaskBehavior> {
        match self.periodic {
            Some((period, duty)) => PeriodicTask::boxed(self.work, period, duty),
            None => SteadyTask::boxed(self.work),
        }
    }
}

/// A live host, as E12's `make_source` builds it: one to three steady
/// services whose loads the seed draws, plus one duty-cycled batch job so
/// that host power genuinely moves from tick to tick.
fn live_host(index: usize, rng: &mut SplitMix64) -> Vec<ProcessSpec> {
    let mut procs: Vec<ProcessSpec> = (0..1 + index % 3)
        .map(|p| ProcessSpec {
            name: format!("svc-{index}-{p}"),
            cgroup: None,
            work: WorkUnit::cpu_intensive(rng.range(0.15, 0.85)),
            periodic: None,
        })
        .collect();
    procs.push(ProcessSpec {
        name: format!("batch-{index}"),
        cgroup: None,
        work: WorkUnit::cpu_intensive(0.5),
        periodic: Some((Nanos::from_secs(15 + (index % 5) as u64 * 5), 0.5)),
    });
    procs
}

/// A recorded host: 16 processes under two tenants and a stray, so that
/// its frames carry the cgroup section and exercise the tenant books.
fn canned_host(index: usize, rng: &mut SplitMix64) -> Vec<ProcessSpec> {
    (0..CANNED_PROCESSES)
        .map(|p| {
            let (cgroup, what) = match p {
                0..=8 => (Some("tenant-gold/svc-web"), "web"),
                9..=14 => (Some("tenant-bronze/svc-batch"), "batch"),
                _ => (None, "stray"),
            };
            ProcessSpec {
                name: format!("{what}-{index}-{p}"),
                cgroup,
                work: if p % 4 == 3 {
                    WorkUnit::memory_intensive(8_192.0, rng.range(0.1, 0.6))
                } else {
                    WorkUnit::cpu_intensive(rng.range(0.1, 0.6))
                },
                periodic: (p == CANNED_PROCESSES - 1).then_some((Nanos::from_secs(4), 0.5)),
            }
        })
        .collect()
}

fn spawn_host(procs: &[ProcessSpec]) -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    if procs.iter().any(|p| p.cgroup.is_some()) {
        kernel.cgroup_create("tenant-gold", 4096);
        kernel.cgroup_create("tenant-bronze", 1024);
    }
    let pids = procs
        .iter()
        .map(|p| match p.cgroup {
            Some(path) => kernel.spawn_in_cgroup(p.name.clone(), path, vec![p.behaviour()]),
            None => kernel.spawn(p.name.clone(), vec![p.behaviour()]),
        })
        .collect();
    (kernel, pids)
}

/// Monitors every process, settles the host thermally and wraps it as a
/// frame source stepped four quanta per fleet tick.
fn live_source(procs: &[ProcessSpec]) -> SimHostSource {
    let (kernel, pids) = spawn_host(procs);
    let mut host = SimHost::new(
        kernel,
        PAPER_EVENTS.to_vec(),
        SLOTS,
        PowerSpyConfig::default(),
    );
    for pid in pids {
        host.monitor(pid)
            .expect("spawned processes can be monitored");
    }
    for _ in 0..THERMAL_STEPS {
        host.step(CLOCK);
    }
    SimHostSource::new(host, QUANTUM, QUANTA_PER_TICK)
}

/// Frames and ground truth recorded from one live host.
pub type Recording = Arc<Vec<(TickFrame, f64)>>;

/// Records `frames` consecutive ticks of `source`.
pub fn record(source: &mut dyn FrameSource, frames: usize) -> Recording {
    let pool = FramePool::new();
    Arc::new(
        (0..frames)
            .map(|_| {
                let frame = source.produce(&pool);
                // The clone owns plain storage; the original returns its
                // columns to the pool.
                (frame.clone(), source.truth_w())
            })
            .collect(),
    )
}

/// Replays a recording forever, starting at `offset` so that sources
/// sharing a recording do not send the same frame on the same tick.
pub struct CannedSource {
    recording: Recording,
    next: usize,
    truth_w: f64,
}

impl CannedSource {
    /// A source over `recording`.
    pub fn new(recording: Recording, offset: usize) -> CannedSource {
        CannedSource {
            recording,
            next: offset,
            truth_w: 0.0,
        }
    }
}

impl FrameSource for CannedSource {
    fn produce(&mut self, _pool: &FramePool) -> TickFrame {
        let (frame, truth_w) = &self.recording[self.next % self.recording.len()];
        self.next += 1;
        self.truth_w = *truth_w;
        frame.clone()
    }

    fn truth_w(&self) -> f64 {
        self.truth_w
    }
}

/// The lossy network of `fleet-faulty`: E12's rates, and per 300 ticks
/// one 10-tick partition of an eighth of the fleet and one 3-tick dark
/// host. Windows are pinned relative to the run so that every size sees
/// the same schedule shape and every host has reported before going dark.
fn faulty_plan(seed: u64, ticks: u64) -> LinkFaultPlan {
    let span = (HOSTS / 8) as u32;
    let mut windows = Vec::new();
    for k in 0..ticks.div_ceil(300) {
        let base = k * 300;
        let lo = (k as u32 * span) % HOSTS as u32;
        windows.push(LinkWindow {
            kind: LinkFaultKind::Partition,
            start: base + 20,
            end: base + 30,
            host_lo: lo,
            host_hi: lo + span,
        });
        let dark = (k as u32 * 37 + 50) % HOSTS as u32;
        windows.push(LinkWindow {
            kind: LinkFaultKind::HostDark,
            start: base + 40,
            end: base + 43,
            host_lo: dark,
            host_hi: dark + 1,
        });
    }
    LinkFaultPlan::from_parts(
        seed,
        &LinkFaultConfig {
            drop_rate: 0.05,
            duplicate_rate: 0.01,
            corrupt_rate: 0.01,
            reorder_rate: 0.02,
            ..LinkFaultConfig::default()
        },
        windows,
    )
}

/// Counts what happens inside `FrameSource::produce` without touching it.
struct TimedSource {
    inner: Box<dyn FrameSource>,
    /// Nanoseconds inside `produce`, all sources. One thread drives the
    /// fleet; the atomic only satisfies `FrameSource: Send`.
    produce_ns: Arc<AtomicU64>,
}

impl FrameSource for TimedSource {
    fn produce(&mut self, pool: &FramePool) -> TickFrame {
        let started = Instant::now();
        let frame = self.inner.produce(pool);
        self.produce_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        frame
    }

    fn truth_w(&self) -> f64 {
        self.inner.truth_w()
    }
}

/// Everything the seed decides, and the model the shards estimate with.
pub struct FleetInputs {
    formula: PerFrequencyFormula,
    plan: LinkFaultPlan,
    /// `fleet-live`: every host. `fleet-faulty`: the recorded hosts.
    hosts: Vec<Vec<ProcessSpec>>,
}

/// Generates a fleet workload's inputs from the seed.
pub fn inputs(shape: &FleetShape, seed: u64) -> FleetInputs {
    let mut rng = SplitMix64::new(seed, shape.workload.salt());
    let model = learn_model(presets::intel_i3_2120(), &LearnConfig::quick())
        .expect("the quick campaign learns a model");
    let (plan, hosts) = match shape.workload {
        Workload::FleetLive => (
            LinkFaultPlan::none(),
            (0..HOSTS).map(|h| live_host(h, &mut rng)).collect(),
        ),
        _ => (
            faulty_plan(rng.next_u64(), shape.ticks),
            (0..CANNED_HOSTS)
                .map(|h| canned_host(h, &mut rng))
                .collect(),
        ),
    };
    FleetInputs {
        formula: PerFrequencyFormula::new(model),
        plan,
        hosts,
    }
}

/// `fleet-faulty`: settles each recorded host and records its frames.
fn recordings(inputs: &FleetInputs) -> Vec<Recording> {
    inputs
        .hosts
        .iter()
        .map(|procs| record(&mut live_source(procs), CANNED_FRAMES))
        .collect()
}

/// Builds the fleet of `shape`. With `produce_ns`, every source is
/// wrapped to time `produce`.
fn build(shape: &FleetShape, inputs: &FleetInputs, produce_ns: Option<&Arc<AtomicU64>>) -> Fleet {
    let mut sources: Vec<Box<dyn FrameSource>> = match shape.workload {
        Workload::FleetLive => inputs
            .hosts
            .iter()
            .map(|procs| Box::new(live_source(procs)) as Box<dyn FrameSource>)
            .collect(),
        _ => {
            let recordings = recordings(inputs);
            (0..HOSTS)
                .map(|h| {
                    let recording = recordings[h % CANNED_HOSTS].clone();
                    Box::new(CannedSource::new(recording, h / CANNED_HOSTS)) as Box<dyn FrameSource>
                })
                .collect()
        }
    };
    if let Some(acc) = produce_ns {
        sources = sources
            .into_iter()
            .map(|inner| {
                Box::new(TimedSource {
                    inner,
                    produce_ns: acc.clone(),
                }) as Box<dyn FrameSource>
            })
            .collect();
    }
    let cfg = FleetConfig {
        shards: SHARDS,
        tick: CLOCK,
        events: PAPER_EVENTS.to_vec(),
        fault: inputs.plan.clone(),
        ..FleetConfig::default()
    };
    Fleet::new(cfg, &inputs.formula, sources, Telemetry::disabled())
}

/// What one pass over the tick loop measured and produced.
#[derive(Debug, Clone)]
pub struct FleetPass {
    /// Model, sources (thermal settling or frame recording), fleet.
    pub setup_s: f64,
    /// Wall seconds of the `Fleet::tick` loop.
    pub wall_s: f64,
    /// Process CPU seconds over the loop.
    pub cpu_s: f64,
    /// The frame ledger at the end of the run.
    pub stats: FleetStats,
    /// Frames produced that no equation of `Fleet::conservation()`
    /// accounts for (all of them when the ledger does not close).
    pub failed: u64,
    /// Mean |estimate − truth| after the first ticks, watts.
    pub fleet_mae_w: f64,
    /// 99th percentile send → applied lag, fleet ticks.
    pub lag_p99_ticks: u64,
    /// Exact outputs.
    pub fingerprint: Fingerprint,
    /// Traced passes: per-tick wall nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Traced passes: nanoseconds inside `produce`.
    pub produce_ns: u64,
    /// Traced passes: allocations inside the loop.
    pub allocs: u64,
}

/// Frames the fault plan destroyed or superseded: produced, never applied
/// and no longer in flight. Exact for a seed; the workload's input, not a
/// failure of the program.
pub fn lost_frames(stats: &FleetStats) -> u64 {
    stats.dark_lost + stats.sender_shed + stats.abandoned + stats.shard_shed
}

fn fingerprint_of(pass: &FleetPass, reports: &[FleetTickReport]) -> Fingerprint {
    let stats = &pass.stats;
    let mut fp = Fingerprint::default();
    for (key, value) in [
        ("produced", stats.produced),
        ("transmissions", stats.transmissions),
        ("retransmits", stats.retransmits),
        ("dup_injected", stats.dup_injected),
        ("dropped_fault", stats.dropped_fault),
        ("dropped_partition", stats.dropped_partition),
        ("dropped_queue", stats.dropped_queue),
        ("dark_lost", stats.dark_lost),
        ("sender_shed", stats.sender_shed),
        ("shard_shed", stats.shard_shed),
        ("corrupt_frames", stats.corrupt_frames),
        ("applied", stats.applied),
        ("dup_discarded", stats.dup_discarded),
        ("abandoned", stats.abandoned),
        ("acked", stats.acked),
        ("stale_transitions", stats.stale_transitions),
        ("recoveries", stats.recoveries),
        ("lag_p99_ticks", pass.lag_p99_ticks),
    ] {
        fp.set(key, value);
    }
    fp.set_f64("fleet_mae_w", pass.fleet_mae_w);
    // The fleet's output stream, tick by tick, in order.
    let mut h = Fnv::default();
    for r in reports {
        for v in [
            r.tick,
            r.estimate_w.to_bits(),
            r.band_w.to_bits(),
            r.truth_w.to_bits(),
            r.hosts_fresh as u64,
            r.hosts_stale as u64,
            r.hosts_unknown as u64,
        ] {
            h.word(v);
        }
    }
    fp.set("digest", h.value());
    fp
}

/// Builds the fleet and runs the tick loop. `traced` wraps the sources,
/// reads the clock around every tick and counts allocations.
pub fn run_pass(shape: &FleetShape, seed: u64, traced: bool) -> FleetPass {
    let produce_acc = Arc::new(AtomicU64::new(0));
    let setup_started = Instant::now();
    let mut fleet = build(shape, &inputs(shape, seed), traced.then_some(&produce_acc));
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut reports = Vec::with_capacity(shape.ticks as usize);
    let mut tick_ns = Vec::with_capacity(if traced { shape.ticks as usize } else { 0 });
    alloc::set_counting(traced);
    let allocs_before = alloc::allocations();
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    if traced {
        let mut t = started;
        for _ in 0..shape.ticks {
            reports.push(fleet.tick());
            let now = Instant::now();
            tick_ns.push(now.duration_since(t).as_nanos() as u64);
            t = now;
        }
    } else {
        for _ in 0..shape.ticks {
            reports.push(fleet.tick());
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    let allocs = alloc::allocations() - allocs_before;
    alloc::set_counting(false);

    let stats = *fleet.stats();
    let scored = &reports[SCORE_AFTER_TICKS.min(reports.len() - 1)..];
    let fleet_mae_w = scored
        .iter()
        .map(|r| (r.estimate_w - r.truth_w).abs())
        .sum::<f64>()
        / scored.len() as f64;
    let mut lags = fleet.lag_samples().to_vec();
    lags.sort_unstable();
    let mut pass = FleetPass {
        setup_s,
        wall_s,
        cpu_s,
        stats,
        failed: match fleet.conservation() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("fleet accounting violated: {e}");
                stats.produced
            }
        },
        fleet_mae_w,
        lag_p99_ticks: percentile_sorted(&lags, 0.99),
        fingerprint: Fingerprint::default(),
        tick_ns,
        produce_ns: produce_acc.load(Ordering::Relaxed),
        allocs,
    };
    pass.fingerprint = fingerprint_of(&pass, &reports);
    pass
}

/// Mean nanoseconds per call of each transport primitive, called directly
/// over frames like the workload's own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirectCalls {
    /// `encode_frame` (checksum trailer included).
    pub encode_ns: f64,
    /// `fnv1a64` over one payload.
    pub checksum_ns: f64,
    /// `decode_frame` (checksum verification included).
    pub decode_ns: f64,
    /// Mean payload size.
    pub bytes_per_frame: f64,
    /// `Link::send` under the workload's fault plan.
    pub send_ns: f64,
    /// `Link::take_due`, one call per link per tick.
    pub take_due_ns: f64,
    /// `EstimatorShard::ingest`.
    pub ingest_ns: f64,
    /// `EstimatorShard::process_one`: decode, formula, tenant books.
    pub process_ns: f64,
    /// `EstimatorShard::estimate`.
    pub estimate_ns: f64,
    /// Wall time of the loops below.
    pub wall_ns: u64,
    /// Time inside the timed calls.
    pub span_ns: u64,
}

/// The transport primitives [`direct_calls`] times.
#[derive(Clone, Copy)]
enum Call {
    Encode,
    Checksum,
    Decode,
    Send,
    TakeDue,
    Ingest,
    Process,
    Estimate,
}

/// Rounds of the direct-call loops: enough calls that a clock read per
/// call is the only noise left.
const DIRECT_ROUNDS: usize = 40;

/// Times the transport primitives from outside. Each call is bracketed by
/// two clock reads; their cost is part of every figure and of
/// `trace.overhead_pct`'s story, not subtracted.
pub fn direct_calls(shape: &FleetShape, seed: u64) -> DirectCalls {
    let inputs = inputs(shape, seed);
    let pool = FramePool::new();
    let frames: Vec<TickFrame> = match shape.workload {
        // Live frames: what the fleet's first few hosts produce.
        Workload::FleetLive => inputs.hosts[..TWIN_HOSTS]
            .iter()
            .flat_map(|procs| {
                let mut source = live_source(procs);
                (0..TWIN_HOSTS)
                    .map(|_| source.produce(&pool).clone())
                    .collect::<Vec<_>>()
            })
            .collect(),
        _ => recordings(&inputs)
            .iter()
            .flat_map(|r| r.iter().map(|(f, _)| f.clone()))
            .collect(),
    };
    let frames = &frames;
    let mut d = DirectCalls::default();
    let mut spans = [0u64; 8];
    let mut calls = [0u64; 8];
    let started = Instant::now();
    let mut timed = |call: Call, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        spans[call as usize] += t.elapsed().as_nanos() as u64;
        calls[call as usize] += 1;
    };

    let mut payloads: Vec<Vec<u8>> = Vec::new();
    for round in 0..DIRECT_ROUNDS {
        for frame in frames {
            let mut payload = Vec::new();
            timed(Call::Encode, &mut || {
                payload = encode_frame(black_box(frame))
            });
            timed(Call::Checksum, &mut || {
                black_box(fnv1a64(black_box(&payload[..payload.len() - 8])));
            });
            timed(Call::Decode, &mut || {
                black_box(decode_frame(black_box(&payload)).is_ok());
            });
            if round == 0 {
                payloads.push(payload);
            }
        }
    }
    d.bytes_per_frame = payloads.iter().map(Vec::len).sum::<usize>() as f64 / payloads.len() as f64;

    // One link and one shard, fed the way the fleet feeds them: a send and
    // a take_due per tick, deliveries ingested then processed, then the
    // host's estimate read.
    let events: Arc<[Event]> = PAPER_EVENTS.iter().copied().collect();
    let cfg = FleetConfig::default();
    let plan = Arc::new(inputs.plan.clone());
    let per_shard = HOSTS / SHARDS;
    let mut links: Vec<Link> = (0..per_shard)
        .map(|h| Link::new(HostId(h as u32), cfg.link, plan.clone()))
        .collect();
    let mut shard = EstimatorShard::new(0, cfg.shard, inputs.formula.boxed_clone(), events);
    let mut due = Vec::new();
    let ticks = (DIRECT_ROUNDS * payloads.len() / per_shard).max(1) as u64;
    for now in 1..=ticks {
        for (h, link) in links.iter_mut().enumerate() {
            let payload = payloads[(now as usize + h) % payloads.len()].clone();
            let env = FrameEnvelope {
                host: HostId(h as u32),
                seq: now - 1,
                sent_at: Nanos(now * CLOCK.as_u64()),
                trace: TraceId(now),
                attempt: 0,
                payload,
            };
            let mut slot = Some(env);
            timed(Call::Send, &mut || {
                black_box(link.send(slot.take().expect("one call"), 0, now));
            });
            timed(Call::TakeDue, &mut || link.take_due(now, &mut due));
        }
        for env in due.drain(..) {
            let mut slot = Some(env);
            timed(Call::Ingest, &mut || {
                black_box(shard.ingest(slot.take().expect("one call"), now));
            });
        }
        while shard.queue_len() > 0 {
            timed(Call::Process, &mut || {
                black_box(shard.process_one(now));
            });
        }
        for h in 0..per_shard {
            timed(Call::Estimate, &mut || {
                black_box(shard.estimate(HostId(h as u32), now));
            });
        }
    }
    d.wall_ns = started.elapsed().as_nanos() as u64;
    d.span_ns = spans.iter().sum();
    let mean = |call: Call| spans[call as usize] as f64 / calls[call as usize].max(1) as f64;
    d.encode_ns = mean(Call::Encode);
    d.checksum_ns = mean(Call::Checksum);
    d.decode_ns = mean(Call::Decode);
    d.send_ns = mean(Call::Send);
    d.take_due_ns = mean(Call::TakeDue);
    d.ingest_ns = mean(Call::Ingest);
    d.process_ns = mean(Call::Process);
    d.estimate_ns = mean(Call::Estimate);
    d
}

/// `fleet-live` only: twins a few of the fleet's hosts to price the
/// substrate calls inside `produce`. `None` for `fleet-faulty`, where no
/// simulator runs in the window.
pub fn twins(shape: &FleetShape, seed: u64) -> Option<TwinReport> {
    if shape.workload != Workload::FleetLive {
        return None;
    }
    let inputs = inputs(shape, seed);
    let mut total = TwinReport {
        consistent: true,
        ..TwinReport::default()
    };
    for procs in &inputs.hosts[..TWIN_HOSTS] {
        let build = || {
            let (kernel, pids) = spawn_host(procs);
            TwinWorld {
                kernel,
                pids,
                shadows: procs.iter().map(|p| vec![p.behaviour()]).collect(),
            }
        };
        let r = run_twins(&TwinPlan {
            build: &build,
            meter: PowerSpyConfig::default(),
            prewarm: (CLOCK, THERMAL_STEPS),
            warmup_ticks: 0,
            ticks: (shape.ticks / TWIN_HOSTS as u64).max(1),
            quantum: QUANTUM,
            quanta_per_tick: QUANTA_PER_TICK,
        });
        total.absorb(&r);
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_source_replays_the_live_host_bit_for_bit() {
        let procs = canned_host(0, &mut SplitMix64::new(2014, Workload::FleetFaulty.salt()));
        let recording = record(&mut live_source(&procs), CANNED_FRAMES);
        let mut canned = CannedSource::new(recording.clone(), 0);
        // A second host built from the same inputs, producing live.
        let mut live = live_source(&procs);
        let pool = FramePool::new();
        for i in 0..CANNED_FRAMES {
            let replayed = canned.produce(&pool);
            let fresh = live.produce(&pool);
            assert_eq!(replayed, fresh, "frame {i}");
            assert_eq!(
                canned.truth_w().to_bits(),
                live.truth_w().to_bits(),
                "truth {i}"
            );
            assert!(replayed.has_groups(), "recorded hosts are cgrouped");
            assert_eq!(replayed.time_len(), CANNED_PROCESSES);
        }
        // Past the end the recording starts over; an offset shifts it.
        assert_eq!(canned.produce(&pool), recording[0].0);
        let mut shifted = CannedSource::new(recording.clone(), 3);
        assert_eq!(shifted.produce(&pool), recording[3].0);
    }

    #[test]
    fn faulty_plan_places_one_partition_and_one_dark_host_per_300_ticks() {
        let plan = faulty_plan(7, 1_200);
        let partitions = plan
            .windows()
            .iter()
            .filter(|w| w.kind == LinkFaultKind::Partition);
        let dark = plan
            .windows()
            .iter()
            .filter(|w| w.kind == LinkFaultKind::HostDark);
        assert_eq!(partitions.clone().count(), 4);
        assert_eq!(dark.clone().count(), 4);
        assert!(partitions
            .clone()
            .all(|w| w.end - w.start == 10 && w.host_hi <= HOSTS as u32));
        assert!(dark
            .clone()
            .all(|w| w.end - w.start == 3 && w.host_hi - w.host_lo == 1));
        // The smoke size still sees both kinds.
        assert_eq!(faulty_plan(7, 60).windows().len(), 2);
    }

    #[test]
    fn same_seed_same_outputs_and_another_seed_other_outputs() {
        let shape = FleetShape::new(Workload::FleetFaulty, Size::QUICK);
        let a = run_pass(&shape, 2014, false);
        let b = run_pass(&shape, 2014, true);
        let c = run_pass(&shape, 2015, false);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "tracing must not change outputs"
        );
        assert_ne!(a.fingerprint.0["digest"], c.fingerprint.0["digest"]);
        assert_eq!(a.failed, 0, "the ledger closes");
        assert!(
            a.stats.retransmits > 0 && a.stats.corrupt_frames > 0,
            "the faults fire"
        );
        assert_eq!(b.tick_ns.len() as u64, shape.ticks);
        assert!(b.produce_ns > 0);
    }

    #[test]
    fn live_fleet_applies_every_frame_it_can() {
        let shape = FleetShape::new(Workload::FleetLive, Size::QUICK);
        let p = run_pass(&shape, 2014, false);
        assert_eq!(p.failed, 0);
        assert_eq!(lost_frames(&p.stats), 0, "perfect links lose nothing");
        assert_eq!(p.stats.produced, shape.ticks * HOSTS as u64);
        assert_eq!(p.stats.retransmits, 0);
    }
}
