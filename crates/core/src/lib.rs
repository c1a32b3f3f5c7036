//! # powerapi
//!
//! The paper's contribution: a middleware toolkit that estimates the power
//! consumption of running processes in real time, with a minimal hardware
//! investment, on top of learned per-frequency CPU power models.
//!
//! The architecture follows the paper's Figure 2. Four kinds of actor
//! components run concurrently, connected by an event bus — one actor
//! type per kind; what varies inside a stage (sensor source, formula,
//! text format) is a pure function or a value:
//!
//! * **[`sensor`]** — monitors the metrics of a given process (hardware
//!   performance counters through the perf/libpfm4 substrate, `/proc` CPU
//!   load, the PowerSpy meter, RAPL) and publishes sensor messages, every
//!   source of a tick in one fixed order;
//! * **[`formula`]** — turns sensor messages into power estimations (the
//!   learned per-frequency HPC model, plus the baselines the paper
//!   compares against: CPU-load-based, Bertran-style decomposable,
//!   HaPPy-style hyperthread-aware, RAPL passthrough);
//! * **[`aggregator`]** — folds process-level estimates along a dimension
//!   (per PID, or whole machine per timestamp);
//! * **[`reporter`]** — renders the estimates (console, CSV, JSON lines
//!   or InfluxDB line protocol as text, or an in-memory trace for
//!   programmatic use).
//!
//! The **[`model`]** module implements the Figure 1 learning process:
//! stress workloads × every DVFS frequency × (HPC rates, wall power) →
//! multivariate regression → one linear model per frequency, plus the
//! Spearman-based automatic counter selection the paper announces as
//! future work.
//!
//! The **[`actor`]** and **[`bus`]** modules provide the lightweight
//! event-driven runtime ("an actor … can handle millions of messages per
//! second"): one event-loop thread, one queue with no bound.
//!
//! ## Quickstart
//!
//! ```
//! use powerapi::prelude::*;
//! use simcpu::presets;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Learn the machine's energy profile (abbreviated grid for the
//! //    doctest; use `LearnConfig::default()` for the full Figure-1 run).
//! let config = LearnConfig::quick();
//! let profile = learn_model(presets::intel_i3_2120(), &config)?;
//!
//! // 2. Monitor a process with the learned model.
//! let mut kernel = os_sim::kernel::Kernel::new(presets::intel_i3_2120());
//! let pid = kernel.spawn(
//!     "app",
//!     vec![os_sim::task::SteadyTask::boxed(
//!         simcpu::workunit::WorkUnit::cpu_intensive(0.8),
//!     )],
//! );
//! let mut papi = PowerApi::builder(kernel)
//!     .formula(PerFrequencyFormula::new(profile))
//!     .report_to_memory()
//!     .build()?;
//! papi.monitor(pid)?;
//! papi.run_for(simcpu::Nanos::from_secs(5))?;
//! let outcome = papi.finish()?;
//! assert!(!outcome.reports.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod actor;
pub mod adaptive;
pub mod aggregator;
pub mod bus;
pub mod control;
pub mod fleet;
pub mod formula;
pub mod frame;
pub mod health;
pub mod hierarchy;
pub mod host;
pub mod model;
pub mod msg;
pub mod reporter;
pub mod runtime;
pub mod sensor;
pub mod telemetry;
pub mod testing;

mod error;

pub use error::Error;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::adaptive::{
        RateCause, SamplingConfig, SamplingController, SelfCostLedger, SelfCostSummary,
    };
    pub use crate::aggregator::Dimension;
    pub use crate::formula::per_freq::PerFrequencyFormula;
    pub use crate::formula::PowerFormula;
    pub use crate::frame::{
        AggregateBatch, FramePool, PowerBatch, SensorBatch, SensorRow, TickFrame,
    };
    pub use crate::health::{ModelHealth, ModelHealthSummary};
    pub use crate::hierarchy::Hierarchy;
    pub use crate::model::learn::{learn_model, LearnConfig};
    pub use crate::model::power_model::PerFrequencyPowerModel;
    pub use crate::runtime::{PowerApi, PowerApiBuilder, RunOutcome};
    pub use crate::telemetry::{Stage, Telemetry, TraceId};
    pub use crate::Error as PowerApiError;
}
