//! # perf-sim
//!
//! A `perf_event_open(2)` / libpfm4-like hardware-performance-counter
//! interface over the simulated kernel — the "HPC" and "libpfm4" boxes of
//! the paper's Figures 1 and 2.
//!
//! What it reproduces from the real stack:
//!
//! * the **generic event set** of the `perf_event_open` man page the paper
//!   cites (`instructions`, `cache-references`, `cache-misses`, …), plus
//!   **architecture-specific raw events** with vendor-dependent
//!   availability — the portability problem that motivates the paper's
//!   choice of generic counters;
//! * **per-process counting**: a counter follows its target pid across
//!   CPUs, counting only while a thread of that pid runs;
//! * a **finite number of hardware counter slots** per logical CPU with
//!   round-robin **multiplexing** and `time_enabled`/`time_running`
//!   scaling, the accuracy/overhead trade-off the paper discusses.
//!   Counters are solo and always enabled, as the paper's sensor opens
//!   them: a process's running counters are one cyclic window of the slot
//!   budget over its counters in open order, advancing one counter each
//!   tick the process runs;
//! * name-based event resolution (libpfm4 style).
//!
//! ```
//! use os_sim::kernel::Kernel;
//! use os_sim::task::SteadyTask;
//! use perf_sim::pfm::Pfm;
//! use perf_sim::session::PerfSession;
//! use simcpu::{presets, Nanos};
//! use simcpu::workunit::WorkUnit;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut kernel = Kernel::new(presets::intel_i3_2120());
//! let pid = kernel.spawn("app", vec![SteadyTask::boxed(WorkUnit::cpu_intensive(1.0))]);
//!
//! let pfm = Pfm::for_machine(kernel.machine().config());
//! let mut session = PerfSession::new(4);
//! let id = session.open(pid, pfm.resolve("instructions")?)?;
//! for _ in 0..10 {
//!     let report = kernel.tick(Nanos::from_millis(1));
//!     session.observe(&report);
//! }
//! assert!(session.read(id)?.scaled > 0);
//! # Ok(())
//! # }
//! ```

pub mod events;
pub mod monitor;
pub mod pfm;
pub mod session;

mod error;

pub use error::Error;
pub use events::Event;
pub use session::{CounterId, PerfSession, ScaledValue};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
