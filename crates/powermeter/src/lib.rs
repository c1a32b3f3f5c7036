//! # powermeter
//!
//! Measurement substrates standing in for the paper's physical equipment:
//!
//! * [`powerspy`]: a bluetooth wall-socket power meter in the spirit of
//!   the Alciom PowerSpy the paper samples ground truth with — an
//!   integrating sampler with Gaussian measurement noise, ADC
//!   quantization, and a small ASCII frame protocol;
//! * [`trace`]: timestamped power traces with alignment/resampling and
//!   summary statistics (what Figure 3 plots);
//! * [`rapl`]: an Intel RAPL emulation — MSR-style energy counters with
//!   coarse update granularity and 32-bit wraparound, *gated on processor
//!   generation* exactly like the real feature the paper criticizes for
//!   its architecture dependence.
//!
//! ```
//! use powermeter::powerspy::{PowerSpy, PowerSpyConfig};
//! use simcpu::{Nanos, Watts};
//!
//! let mut meter = PowerSpy::new(PowerSpyConfig::default().with_seed(7));
//! // Integrate 2 s of a constant 30 W draw in 1 ms steps.
//! let mut samples = Vec::new();
//! for i in 0..2000 {
//!     let now = Nanos::from_millis(i + 1);
//!     samples.extend(meter.observe(Watts(30.0), now));
//! }
//! assert!(!samples.is_empty());
//! assert!((samples[0].power.as_f64() - 30.0).abs() < 1.0);
//! ```

pub mod powerspy;
pub mod rapl;
pub mod trace;

mod error;

pub use error::Error;
pub use powerspy::{PowerSample, PowerSpy, PowerSpyConfig};
pub use trace::PowerTrace;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
