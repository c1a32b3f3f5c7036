//! The two single-host workloads: a simulated i3-2120 under the full
//! Sensor → Formula → Aggregator → Reporter pipeline.
//!
//! `host-deep` monitors one SPECjbb process at a 1 ms quantum, so every
//! monitoring tick is 1 000 kernel quanta and a four-row frame;
//! `host-wide` monitors 1 000 steady processes at a 100 ms quantum, so a
//! tick is 10 quanta over run queues of 250 threads per CPU and a
//! 1 000-row frame of which about 40 rows ran. Together they put the
//! substrate and the pipeline each in the majority once.

use crate::alloc;
use crate::check::Fingerprint;
use crate::digest::{CountingSink, DigestSink, SinkTotals};
use crate::procstat::{process_cpu_s, Sampler, SamplerReport};
use crate::rng::SplitMix64;
use crate::spec::{Size, Workload, CLOCK};
use crate::twin::{run_twins, TwinPlan, TwinReport, TwinWorld};
use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::{SteadyTask, TaskBehavior};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::model::learn::{learn_model, LearnConfig};
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::prelude::Dimension;
use powerapi::runtime::PowerApi;
use powermeter::powerspy::PowerSpyConfig;
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::specjbb::{self, SpecJbbConfig};

/// How often the traced pass's sampler thread reads `schedstat`.
const SAMPLE_PERIOD: Duration = Duration::from_millis(25);

/// Processes `host-wide` monitors.
const WIDE_PROCESSES: usize = 1_000;

/// The fixed shape of a host workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct HostShape {
    /// `host-deep` or `host-wide`.
    pub workload: Workload,
    /// Monitoring ticks in the timed window.
    pub ticks: u64,
    /// Monitoring ticks run in set-up, before the window opens.
    pub warmup_ticks: u64,
    /// Scheduler quantum.
    pub quantum: Nanos,
}

impl HostShape {
    /// The shape of `workload` at `size`.
    ///
    /// # Panics
    ///
    /// Panics when `workload` is a fleet workload.
    pub fn new(workload: Workload, size: Size) -> HostShape {
        let (warmup_ticks, quantum) = match workload {
            Workload::HostDeep => (0, Nanos::from_millis(1)),
            Workload::HostWide => (3, Nanos::from_millis(100)),
            _ => panic!("{} is not a host workload", workload.name()),
        };
        HostShape {
            workload,
            ticks: size.ticks(workload),
            warmup_ticks,
            quantum,
        }
    }

    /// Kernel quanta per monitoring tick.
    pub fn quanta_per_tick(&self) -> u32 {
        (CLOCK.as_u64() / self.quantum.as_u64()) as u32
    }
}

/// Everything the seed decides.
#[derive(Debug, Clone)]
pub struct HostInputs {
    /// `host-deep`: the SPECjbb run (its seed jitters the GC cycles).
    jbb: SpecJbbConfig,
    /// `host-wide`: one work unit per process.
    work: Vec<WorkUnit>,
    /// PowerSpy noise seed.
    meter_seed: u64,
}

/// Generates a host workload's inputs from the seed.
pub fn inputs(shape: &HostShape, seed: u64) -> HostInputs {
    let mut rng = SplitMix64::new(seed, shape.workload.salt());
    let jbb = SpecJbbConfig {
        threads: 4,
        // The whole script — ramp, plateau, staircase — fits the window.
        duration: Nanos(shape.ticks * CLOCK.as_u64()),
        seed: rng.next_u64(),
        ..SpecJbbConfig::default()
    };
    let meter_seed = rng.next_u64();
    let work = if shape.workload == Workload::HostWide {
        (0..WIDE_PROCESSES)
            .map(|i| {
                let intensity = rng.range(0.3, 0.9);
                if i % 3 == 2 {
                    // 1 MB … 64 MB: from L3-resident to DRAM-bound.
                    let footprint_kb = 1024.0 * 2f64.powf(rng.range(0.0, 6.0));
                    WorkUnit::memory_intensive(footprint_kb, intensity)
                } else {
                    WorkUnit::cpu_intensive(intensity)
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    HostInputs {
        jbb,
        work,
        meter_seed,
    }
}

/// One behaviour set per process, in spawn order. Called once for the
/// kernel and once more for a twin's shadows.
fn task_sets(shape: &HostShape, inputs: &HostInputs) -> Vec<Vec<Box<dyn TaskBehavior>>> {
    match shape.workload {
        Workload::HostDeep => vec![specjbb::tasks(&inputs.jbb)],
        _ => inputs
            .work
            .iter()
            .map(|w| vec![SteadyTask::boxed(*w)])
            .collect(),
    }
}

fn spawn_world(shape: &HostShape, inputs: &HostInputs) -> (Kernel, Vec<Pid>) {
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pids = task_sets(shape, inputs)
        .into_iter()
        .enumerate()
        .map(|(i, tasks)| kernel.spawn(format!("p{i}"), tasks))
        .collect();
    (kernel, pids)
}

fn meter_config(inputs: &HostInputs) -> PowerSpyConfig {
    PowerSpyConfig::default().with_seed(inputs.meter_seed)
}

/// `host-deep` learns its model the way every paper experiment does;
/// `host-wide` takes the paper's published coefficients.
fn model(workload: Workload) -> PerFrequencyPowerModel {
    match workload {
        Workload::HostDeep => learn_model(presets::intel_i3_2120(), &LearnConfig::default())
            .expect("the default campaign learns a model"),
        _ => PerFrequencyPowerModel::paper_i3_example(),
    }
}

/// Where the CSV reporter writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Bytes and lines only: every timed window.
    Counting,
    /// Also the order-insensitive line digest: the checked pass.
    Digest,
}

/// How to run one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassOptions {
    /// The reporter's sink.
    pub sink: Sink,
    /// Overrides the workload's telemetry setting (`host-deep` off,
    /// `host-wide` on, as in production).
    pub telemetry: Option<bool>,
    /// Run the sampler thread and count allocations over the window.
    pub traced: bool,
}

impl PassOptions {
    /// A timed repetition.
    pub const TIMED: PassOptions = PassOptions {
        sink: Sink::Counting,
        telemetry: None,
        traced: false,
    };
    /// The checked pass.
    pub const CHECKED: PassOptions = PassOptions {
        sink: Sink::Digest,
        telemetry: None,
        traced: false,
    };
    /// The traced pipeline pass.
    pub const TRACED: PassOptions = PassOptions {
        sink: Sink::Counting,
        telemetry: None,
        traced: true,
    };
}

/// What one pass through the pipeline measured and produced.
#[derive(Debug, Clone)]
pub struct HostPass {
    /// World building, model, pipeline assembly and warm-up ticks.
    pub setup_s: f64,
    /// Wall seconds inside the window's `run_for`.
    pub producer_s: f64,
    /// Wall seconds from the first `run_for` until `finish()` returned.
    pub wall_s: f64,
    /// Process CPU seconds over the same window.
    pub cpu_s: f64,
    /// Monitoring ticks attempted, warm-up included.
    pub attempted: u64,
    /// Ticks whose machine estimate never reached the memory reporter
    /// (`host-deep`; `host-wide` has no per-tick view and relies on the
    /// fingerprint).
    pub failed: u64,
    /// Exact outputs.
    pub fingerprint: Fingerprint,
    /// `host-deep`: median absolute percentage error vs the PowerSpy.
    pub median_ape_pct: f64,
    /// Traced passes: per-stage thread time.
    pub sampler: Option<SamplerReport>,
    /// Traced passes: allocations inside the window, all threads.
    pub allocs: u64,
}

/// Builds the pipeline, runs the warm-up and the window, drains it.
pub fn run_pass(shape: &HostShape, seed: u64, opts: PassOptions) -> HostPass {
    let setup_started = Instant::now();
    let inputs = inputs(shape, seed);
    let model = model(shape.workload);
    let (sink, totals): (Box<dyn Write + Send>, Arc<SinkTotals>) = match opts.sink {
        Sink::Counting => {
            let (s, t) = CountingSink::new();
            (Box::new(s), t)
        }
        Sink::Digest => {
            let (s, t) = DigestSink::new();
            (Box::new(s), t)
        }
    };
    let (kernel, pids) = spawn_world(shape, &inputs);
    let deep = shape.workload == Workload::HostDeep;
    let mut builder = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .quantum(shape.quantum)
        .clock_period(CLOCK)
        .meter(meter_config(&inputs))
        .dimension(Dimension::both())
        .telemetry(opts.telemetry.unwrap_or(!deep))
        .report_to_csv(sink);
    if deep {
        builder = builder.report_to_memory();
    }
    let mut papi = builder.build().expect("the pipeline assembles");
    for pid in pids {
        papi.monitor(pid)
            .expect("spawned processes can be monitored");
    }
    papi.run_for(Nanos(shape.warmup_ticks * CLOCK.as_u64()))
        .expect("warm-up runs");
    let setup_s = setup_started.elapsed().as_secs_f64();

    let sampler = opts.traced.then(|| Sampler::start(SAMPLE_PERIOD));
    alloc::set_counting(opts.traced);
    let allocs_before = alloc::allocations();
    let cpu_before = process_cpu_s();
    let started = Instant::now();
    papi.run_for(Nanos(shape.ticks * CLOCK.as_u64()))
        .expect("the window runs");
    let producer_s = started.elapsed().as_secs_f64();
    let outcome = papi.finish().expect("the pipeline drains");
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_before;
    let allocs = alloc::allocations() - allocs_before;
    alloc::set_counting(false);
    let sampler = sampler.map(Sampler::stop);

    let attempted = shape.warmup_ticks + shape.ticks;
    let mut fingerprint = Fingerprint::default();
    fingerprint.set("rows", totals.lines());
    fingerprint.set("bytes", totals.bytes());
    fingerprint.set("healthy", u64::from(outcome.is_healthy()));
    if opts.sink == Sink::Digest {
        fingerprint.set("digest", totals.digest());
    }
    let (mut failed, mut median_ape_pct) = (0, 0.0);
    if deep {
        let estimates = outcome.machine_estimates().len() as u64;
        failed = attempted.saturating_sub(estimates);
        let (actual, predicted) = outcome.meter_trace().align(&outcome.estimate_trace());
        median_ape_pct = mathkit::metrics::median_ape(&actual, &predicted)
            .expect("a full run has aligned samples");
        fingerprint.set("estimates", estimates);
        fingerprint.set("meter_samples", outcome.meter.len() as u64);
        fingerprint.set_f64("median_ape_pct", median_ape_pct);
    }
    HostPass {
        setup_s,
        producer_s,
        wall_s,
        cpu_s,
        attempted,
        failed,
        fingerprint,
        median_ape_pct,
        sampler,
        allocs,
    }
}

/// Drives the twin stacks of the same world over the same ticks.
pub fn twins(shape: &HostShape, seed: u64) -> TwinReport {
    let inputs = inputs(shape, seed);
    let build = || {
        let (kernel, pids) = spawn_world(shape, &inputs);
        TwinWorld {
            kernel,
            pids,
            shadows: task_sets(shape, &inputs),
        }
    };
    run_twins(&TwinPlan {
        build: &build,
        meter: meter_config(&inputs),
        prewarm: (Nanos::ZERO, 0),
        warmup_ticks: shape.warmup_ticks,
        ticks: shape.ticks,
        quantum: shape.quantum,
        quanta_per_tick: shape.quanta_per_tick(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_and_another_seed_another_digest() {
        let shape = HostShape::new(Workload::HostWide, Size::QUICK);
        let a = run_pass(&shape, 2014, PassOptions::CHECKED);
        let b = run_pass(&shape, 2014, PassOptions::CHECKED);
        let c = run_pass(&shape, 2015, PassOptions::CHECKED);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint.0["digest"], c.fingerprint.0["digest"]);
        // A timed repetition counts the same rows and bytes the checked
        // pass digested.
        let timed = run_pass(&shape, 2014, PassOptions::TIMED);
        assert!(timed.fingerprint.mismatches(&a.fingerprint).is_empty());
        assert!(!timed.fingerprint.0.contains_key("digest"));
        assert!(
            a.fingerprint.0["rows"] > (shape.ticks + shape.warmup_ticks) * WIDE_PROCESSES as u64
        );
    }

    #[test]
    fn deep_pass_scores_every_tick_against_the_meter() {
        let shape = HostShape::new(Workload::HostDeep, Size::QUICK);
        let p = run_pass(&shape, 2014, PassOptions::CHECKED);
        assert_eq!(p.failed, 0);
        assert_eq!(p.fingerprint.0["estimates"], shape.ticks);
        assert_eq!(p.fingerprint.0["healthy"], 1);
        assert!(p.median_ape_pct > 0.0 && p.median_ape_pct < 100.0);
        assert!(p.wall_s >= p.producer_s);
    }

    #[test]
    fn twin_stacks_harvest_identical_frames_and_replay_exactly() {
        for workload in [Workload::HostDeep, Workload::HostWide] {
            let shape = HostShape::new(workload, Size::QUICK);
            let tw = twins(&shape, 2014);
            assert!(tw.consistent, "{}", workload.name());
            assert_eq!(tw.ticks, shape.ticks);
            assert_eq!(tw.quanta, shape.ticks * u64::from(shape.quanta_per_tick()));
            assert!(tw.step_ns > 0 && tw.kernel_ns > tw.machine_ns && tw.machine_ns > 0);
            assert!(tw.span_ns <= tw.wall_ns);
        }
    }

    #[test]
    fn twins_built_from_different_inputs_are_caught() {
        // Shadows drawn from another seed hand the replaying machine other
        // work units than the kernel scheduled.
        let shape = HostShape::new(Workload::HostWide, Size::QUICK);
        let (mine, other) = (inputs(&shape, 2014), inputs(&shape, 2015));
        let build = || {
            let (kernel, pids) = spawn_world(&shape, &mine);
            TwinWorld {
                kernel,
                pids,
                shadows: task_sets(&shape, &other),
            }
        };
        let tw = run_twins(&TwinPlan {
            build: &build,
            meter: meter_config(&mine),
            prewarm: (Nanos::ZERO, 0),
            warmup_ticks: 0,
            ticks: 5,
            quantum: shape.quantum,
            quanta_per_tick: shape.quanta_per_tick(),
        });
        assert!(!tw.consistent);
    }
}
