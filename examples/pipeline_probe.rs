//! Where a pipeline tick's CPU goes, stage by stage: the benchmark's
//! `host-wide` pipeline rebuilt from the public API — 1 000 steady
//! processes on the simulated i3-2120 at a 100 ms quantum (about 40 of
//! them run in any one-second tick), telemetry on, CSV into a sink that
//! only counts.
//!
//! Prints the producer's wall time per tick (`run_for`: simulator,
//! `snapshot_frame`, the tick's publish) and, per actor, the sum of
//! `powerapi_actor_handle_ns` ÷ ticks. Every actor runs on the one
//! `actor-loop` thread and handlers run to completion, so no handler is
//! ever preempted by another: the per-actor figures are the per-stage CPU
//! account, and what is left of the loop's time is queueing and the
//! once-a-tick wake-up.
//!
//! Run: `cargo run --release --example pipeline_probe [-- <ticks>]`

use powerapi_suite::os_sim::kernel::Kernel;
use powerapi_suite::os_sim::task::SteadyTask;
use powerapi_suite::powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi_suite::powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi_suite::powerapi::prelude::Dimension;
use powerapi_suite::powerapi::runtime::PowerApi;
use powerapi_suite::simcpu::presets;
use powerapi_suite::simcpu::units::Nanos;
use powerapi_suite::simcpu::workunit::WorkUnit;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PROCESSES: u32 = 1_000;
const WARMUP_TICKS: u64 = 3;
const TICK: Nanos = Nanos(1_000_000_000);

/// Counts what the reporter writes and keeps none of it.
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ticks: u64 = match std::env::args().nth(1) {
        Some(n) => n.parse()?,
        None => 2_000,
    };
    let mut kernel = Kernel::new(presets::intel_i3_2120());
    let pids: Vec<_> = (0..PROCESSES)
        .map(|i| {
            // A third memory-bound, the rest compute-bound, as `host-wide`.
            let intensity = 0.3 + 0.6 * f64::from(i % 7) / 7.0;
            let work = match i % 3 {
                2 => WorkUnit::memory_intensive(1024.0 * f64::from(1 << (i % 7)), intensity),
                _ => WorkUnit::cpu_intensive(intensity),
            };
            kernel.spawn(format!("p{i}"), vec![SteadyTask::boxed(work)])
        })
        .collect();
    let formula = PerFrequencyFormula::new(PerFrequencyPowerModel::paper_i3_example());
    let bytes = Arc::new(AtomicU64::new(0));
    let mut papi = PowerApi::builder(kernel)
        .formula(formula)
        .quantum(Nanos::from_millis(100))
        .clock_period(TICK)
        .dimension(Dimension::both())
        .telemetry(true)
        .report_to_csv(CountingSink(bytes.clone()))
        .build()?;
    for pid in pids {
        papi.monitor(pid)?;
    }
    papi.run_for(Nanos(WARMUP_TICKS * TICK.as_u64()))?;

    let started = Instant::now();
    papi.run_for(Nanos(ticks * TICK.as_u64()))?;
    let producer_us = started.elapsed().as_secs_f64() * 1e6 / ticks as f64;
    let outcome = papi.finish()?;
    let wall_us = started.elapsed().as_secs_f64() * 1e6 / ticks as f64;
    assert!(outcome.is_healthy(), "the pipeline shut down unhealthy");

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("pipeline_probe: {PROCESSES} processes, {ticks} ticks (+{WARMUP_TICKS} warm-up), nproc {cores}");
    println!("  producer (run_for)             {producer_us:8.1} us/tick wall");
    println!("  producer + drain (to finish)   {wall_us:8.1} us/tick wall");
    let all_ticks = (ticks + WARMUP_TICKS) as f64;
    let mut pipeline_us = 0.0;
    for actor in [
        "sensor",
        "formula-0-per-frequency-hpc",
        "aggregator",
        "reporter-csv",
    ] {
        let handle = outcome
            .telemetry
            .registry()
            .histogram(&format!("powerapi_actor_handle_ns{{actor=\"{actor}\"}}"));
        assert!(handle.count() > 0, "{actor} handled nothing");
        let us = handle.sum() as f64 / 1e3 / all_ticks;
        pipeline_us += us;
        println!(
            "  {actor:<30} {us:8.1} us/tick in handlers ({} messages)",
            handle.count()
        );
    }
    println!(
        "  {:<30} {pipeline_us:8.1} us/tick",
        "the four stages together"
    );
    println!(
        "  reporter output                {:8.0} B/tick",
        bytes.load(Ordering::Relaxed) as f64 / all_ticks
    );
    Ok(())
}
