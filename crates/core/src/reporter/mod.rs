//! Reporter actors: "converts the power estimations produced by the
//! library into a suitable format" (§3). Three actor types: an in-memory
//! trace for programmatic use ([`MemoryReporter`]), a text writer
//! ([`TextReporter`]) in one of four [`Format`]s — human-readable console
//! lines, CSV, JSON lines, InfluxDB line protocol (the production
//! PowerAPI export target) — and a telemetry self-observation stream
//! ([`TelemetryReporter`], the middleware reporting on itself). The first
//! two also record meter and RAPL samples when subscribed to those
//! topics, so measured-vs-estimated comparisons come for free.

pub mod memory;
pub mod telemetry;
pub mod text;

pub use memory::{MemoryHandle, MemoryReporter};
pub use telemetry::TelemetryReporter;
pub use text::{Format, TextReporter};
