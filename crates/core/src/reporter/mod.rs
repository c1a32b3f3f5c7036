//! Reporter actors: "converts the power estimations produced by the
//! library into a suitable format" (§3). Two actor types: an in-memory
//! trace for programmatic use ([`MemoryReporter`]) and a CSV writer
//! ([`TextReporter`]). Both also record meter and RAPL samples when
//! subscribed to those topics, so measured-vs-estimated comparisons come
//! for free. (The middleware's report on *itself* is not an actor: it is
//! the telemetry hub, handed back as
//! [`RunOutcome::telemetry`](crate::runtime::RunOutcome::telemetry).)

pub mod memory;
pub mod text;

pub use memory::{MemoryHandle, MemoryReporter};
pub use text::TextReporter;
