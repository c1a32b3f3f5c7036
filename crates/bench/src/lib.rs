//! Shared harness for the `eN_*` experiment binaries (one per paper
//! table/figure or later claim). Each binary prints the paper's numbers
//! next to the reproduction's, ends with a `verdict:` line, and records
//! its deterministic statistics in one [`Golden`] set — the committed
//! evidence of the experiment. Host time is not measured here: that is
//! `benchmark/`'s job (`e8_overhead`'s paired on/off ratio excepted).

pub mod args;
pub mod chaos;
pub mod fleetsim;
pub mod golden;

pub use args::BenchArgs;
pub use golden::Golden;

use mathkit::metrics::ErrorReport;
use os_sim::kernel::Kernel;
use os_sim::process::Pid;
use os_sim::task::{SteadyTask, TaskBehavior};
use perf_sim::events::{Event, PAPER_EVENTS};
use powerapi::formula::per_freq::PerFrequencyFormula;
use powerapi::formula::PowerFormula;
use powerapi::model::power_model::PerFrequencyPowerModel;
use powerapi::runtime::{PowerApi, PowerApiBuilder, RunOutcome};
use simcpu::machine::MachineConfig;
use simcpu::power::PowerModel;
use simcpu::presets;
use simcpu::units::Nanos;
use simcpu::workunit::WorkUnit;

/// Everything an estimation-accuracy evaluation needs.
pub struct Evaluation {
    /// Machine to run on.
    pub machine: MachineConfig,
    /// Process name for the workload.
    pub name: String,
    /// The workload's threads.
    pub tasks: Vec<Box<dyn TaskBehavior>>,
    /// How long to run.
    pub duration: Nanos,
    /// Monitoring/estimation period.
    pub clock: Nanos,
    /// HPC events the sensor counts (must cover the formula's needs).
    pub events: Vec<Event>,
    /// PMU slots available.
    pub slots: usize,
}

impl Evaluation {
    /// A default evaluation harness: 1 s estimates, on the builder's
    /// default scheduler quantum.
    pub fn new(
        machine: MachineConfig,
        name: impl Into<String>,
        tasks: Vec<Box<dyn TaskBehavior>>,
        duration: Nanos,
    ) -> Evaluation {
        Evaluation {
            machine,
            name: name.into(),
            tasks,
            duration,
            clock: Nanos::from_secs(1),
            events: PAPER_EVENTS.to_vec(),
            slots: 4,
        }
    }

    /// Runs the workload under a formula and returns the raw outcome
    /// (estimate + meter traces).
    ///
    /// # Errors
    ///
    /// Propagates middleware errors.
    pub fn run(self, formula: impl PowerFormula + 'static) -> Result<RunOutcome, powerapi::Error> {
        let mut kernel = Kernel::new(self.machine);
        let pid = kernel.spawn(self.name, self.tasks);
        let mut papi = PowerApi::builder(kernel)
            .formula(formula)
            .events(self.events)
            .slots(self.slots)
            .report_to_memory()
            .clock_period(self.clock)
            .build()?;
        papi.monitor(pid)?;
        papi.run_for(self.duration)?;
        papi.finish()
    }

    /// Runs and scores the formula against the meter.
    ///
    /// # Errors
    ///
    /// Propagates middleware/metric errors.
    pub fn score(
        self,
        formula: impl PowerFormula + 'static,
    ) -> Result<ErrorReport, powerapi::Error> {
        let outcome = self.run(formula)?;
        score_outcome(&outcome)
    }
}

/// The i3 testbed with thermal leakage removed: what the calibration
/// sweep effectively sees (short, cold bursts). E9 and E15 learn on it
/// and then serve the stock i3, whose 0.30 W/°C leakage is the drift
/// they detect. Mirrors `presets::intel_i3_2120` except
/// `thermal_leak_w_per_c(0)`.
pub fn cold_i3() -> MachineConfig {
    let mut machine = presets::intel_i3_2120();
    machine.power = PowerModel::builder()
        .platform_idle_w(26.0)
        .package_idle_w(5.5)
        .core_baseline_w_per_ghz_v2(2.7)
        .smt_second_thread_factor(0.10)
        .vref(1.05)
        .thermal_tau_s(30.0)
        .thermal_resistance_c_per_w(1.2)
        .thermal_leak_w_per_c(0.0)
        .build();
    machine
}

/// The drift pipeline E9 watches and E15 samples adaptively: four
/// full-load threads (both hyperthreads of both cores busy) spawned as
/// `steady-load` on `machine`, estimated by `model` with the residual
/// monitor on. Returns the builder, reporting to memory, and the
/// workload's pid.
pub fn drift_pipeline(
    machine: MachineConfig,
    model: PerFrequencyPowerModel,
) -> (PowerApiBuilder, Pid) {
    let mut kernel = Kernel::new(machine);
    let tasks = (0..4)
        .map(|_| SteadyTask::boxed(WorkUnit::cpu_intensive(1.0)))
        .collect();
    let pid = kernel.spawn("steady-load", tasks);
    let builder = PowerApi::builder(kernel)
        .formula(PerFrequencyFormula::new(model))
        .model_health()
        .report_to_memory();
    (builder, pid)
}

/// Aligns an outcome's meter and estimate traces and computes the error
/// metrics (meter = actual, estimate = predicted).
///
/// # Errors
///
/// Metric errors propagate (e.g. empty traces).
pub fn score_outcome(outcome: &RunOutcome) -> Result<ErrorReport, powerapi::Error> {
    let meter = outcome.meter_trace();
    let est = outcome.estimate_trace();
    let (actual, predicted) = meter.align(&est);
    Ok(ErrorReport::compute(&actual, &predicted)?)
}

/// Writes the hub's Chrome trace-event JSON — pipeline spans, journal
/// instants and, given a `fleet`, its per-frame journey tracks — to
/// `path` (creating parent directories as needed) and prints where it
/// went.
///
/// # Panics
///
/// Panics when the directory or file cannot be written.
pub fn dump_trace(
    telemetry: &powerapi::telemetry::Telemetry,
    fleet: Option<&powerapi::fleet::Fleet>,
    path: &std::path::Path,
) {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create --dump-trace directory");
    }
    let (hops, tick_ns) = fleet.map_or((Vec::new(), 0), |f| (f.journeys().snapshot(), f.tick_ns()));
    let trace = powerapi::telemetry::chrome_trace(
        &telemetry.tracer().spans(),
        &telemetry.journal().events(),
        &hops,
        tick_ns,
    );
    std::fs::write(path, trace).expect("write --dump-trace file");
    println!("        wrote Chrome trace to {}", path.display());
}

/// Prints a two-column ruled table row.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<42} {value}");
}

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;
    use os_sim::task::SteadyTask;
    use powerapi::formula::per_freq::PerFrequencyFormula;
    use powerapi::model::power_model::PerFrequencyPowerModel;
    use simcpu::presets;
    use simcpu::workunit::WorkUnit;

    #[test]
    fn evaluation_produces_scores() {
        let eval = Evaluation {
            clock: Nanos::from_millis(500),
            ..Evaluation::new(
                presets::intel_i3_2120(),
                "t",
                vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))],
                Nanos::from_secs(3),
            )
        };
        let report = eval
            .score(PerFrequencyFormula::new(
                PerFrequencyPowerModel::paper_i3_example(),
            ))
            .unwrap();
        assert!(report.median_ape.is_finite());
        assert!(report.median_ape >= 0.0);
    }
}
