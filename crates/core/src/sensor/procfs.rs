//! The CPU-load source: per-process CPU-time rows *without* hardware
//! counters — the metric Versick et al. use and the paper argues is
//! inferior ("the CPU load mostly indicates whether the processor
//! executes a job"). Feeds the CPU-load baseline,
//! [`PerFrequencyFormula::cpu_load`].
//!
//! [`PerFrequencyFormula::cpu_load`]: crate::formula::per_freq::PerFrequencyFormula::cpu_load

use crate::frame::{SensorBatch, SensorRow, TickFrame, NO_ROW};
use crate::telemetry::TraceId;
use std::sync::Arc;

/// Source tag carried on this source's batches.
pub const SOURCE: &str = "procfs";

/// What this source sees in a frame: one time-only row per time row.
pub fn observe(frame: Arc<TickFrame>, trace: TraceId) -> SensorBatch {
    let rows = (0..frame.time_len())
        .map(|i| SensorRow {
            pid: frame.time_pid(i),
            hpc: NO_ROW,
            time: i as u32,
            corun: NO_ROW,
        })
        .collect();
    SensorBatch {
        source: SOURCE,
        frame,
        rows,
        trace,
    }
}
