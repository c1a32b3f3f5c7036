//! Reporter actors: "converts the power estimations produced by the
//! library into a suitable format" (§3). Two actor types: an in-memory
//! trace for programmatic use ([`MemoryReporter`]) and a text writer
//! ([`TextReporter`]) in one of four [`Format`]s — human-readable console
//! lines, CSV, JSON lines, InfluxDB line protocol (the production
//! PowerAPI export target). Both also record meter and RAPL samples when
//! subscribed to those topics, so measured-vs-estimated comparisons come
//! for free. (The middleware's report on *itself* is not an actor: the
//! tick loop streams it, see
//! [`report_telemetry_to`](crate::runtime::PowerApiBuilder::report_telemetry_to).)

pub mod memory;
pub mod text;

pub use memory::{MemoryHandle, MemoryReporter};
pub use text::{Format, TextReporter};
