//! The hardware-performance-counter source: the paper's primary metric.
//! For every monitored process its batch carries the interval's scaled
//! counter deltas together with the per-frequency CPU-time split the
//! per-frequency formula weights by, and the SMT co-run split HT-aware
//! formulas need.

use crate::frame::{SensorBatch, SensorRow, TickFrame, NO_ROW};
use crate::telemetry::TraceId;
use simcpu::units::Nanos;
use std::sync::Arc;

/// Source tag carried on this source's batches.
pub const SOURCE: &str = "hpc";

/// What this source sees in a frame: one row per counted process,
/// joined to its time and co-run rows.
pub fn observe(frame: Arc<TickFrame>, trace: TraceId) -> SensorBatch {
    let mut rows = Vec::with_capacity(frame.hpc_len());
    // All sections are ascending by pid, so row lookups advance a
    // cursor instead of scanning.
    let (mut time_cur, mut corun_cur) = (0usize, 0usize);
    for i in 0..frame.hpc_len() {
        let pid = frame.hpc_pid(i);
        let time = frame.time_row(pid, time_cur);
        if let Some(t) = time {
            time_cur = t + 1;
        }
        let busy = time.map(|t| frame.busy(t)).unwrap_or(Nanos::ZERO);
        // A process that burned CPU time but retired zero on every
        // counter means the PMU stalled (or reset mid-read). Publish
        // nothing for the row: absence is the signal the downstream
        // staleness watchdog keys its HPC→cpu-load fallback on, and a
        // zeroed row would instead be trusted as "this process drew
        // 0 W".
        if busy > Nanos::ZERO
            && !frame.events.is_empty()
            && frame.hpc_row(i).iter().all(|v| *v == 0)
        {
            continue;
        }
        let corun = frame.corun_row(pid, corun_cur);
        if let Some(c) = corun {
            corun_cur = c + 1;
        }
        rows.push(SensorRow {
            pid,
            hpc: i as u32,
            time: time.map_or(NO_ROW, |t| t as u32),
            corun: corun.map_or(NO_ROW, |c| c as u32),
        });
    }
    SensorBatch {
        source: SOURCE,
        frame,
        rows,
        trace,
    }
}
