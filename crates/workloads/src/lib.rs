//! # workloads
//!
//! Synthetic workloads standing in for the benchmarks the paper runs:
//!
//! * [`stress`]: the CPU- and memory-intensive calibration grid of
//!   Figure 1 ("specific CPU and memory intensive workloads to identify
//!   and capture the relationship between the kind of operations executed
//!   and the power consumption");
//! * [`specjbb`]: a SPECjbb2013-like multi-phase business-transaction
//!   driver (ramp-up, plateau with load oscillation and GC pauses,
//!   step-down) — the Figure 3 experiment workload;
//! * [`speccpu`]: six SPEC CPU2006-like application mixes, the Bertran et
//!   al. comparison suite;
//! * [`happy`]: HaPPy-style hyperthread co-run pairs, the Zhai et al.
//!   comparison scenario;
//! * [`phases`]: the phase-scripting machinery all of the above build on.

pub mod happy;
pub mod phases;
pub mod speccpu;
pub mod specjbb;
pub mod stress;

pub use phases::{Phase, PhaseScript, PhasedTask};
