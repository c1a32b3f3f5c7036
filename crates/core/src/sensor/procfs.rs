//! The CPU-load sensor: publishes per-process CPU-time reports *without*
//! hardware counters — the metric Versick et al. use and the paper argues
//! is inferior ("the CPU load mostly indicates whether the processor
//! executes a job"). Feeds the [`CpuLoadFormula`] baseline.
//!
//! [`CpuLoadFormula`]: crate::formula::cpuload::CpuLoadFormula

use crate::actor::{Actor, Context};
use crate::frame::{SensorBatch, SensorRow, TickFrame, NO_ROW};
use crate::msg::Message;
use crate::telemetry::TraceId;
use std::sync::Arc;

/// Source tag carried on this sensor's batches.
pub const SOURCE: &str = "procfs";

/// The sensor actor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcfsSensor;

impl ProcfsSensor {
    /// Creates the sensor.
    pub fn new() -> ProcfsSensor {
        ProcfsSensor
    }
}

impl ProcfsSensor {
    /// What this sensor sees in a frame: one time-only row per time row.
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
}

impl Actor for ProcfsSensor {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        let trace = ctx.telemetry().trace_for_tick(frame.timestamp);
        let batch = ProcfsSensor::observe(frame, trace);
        if !batch.rows.is_empty() {
            ctx.bus().publish(Message::SensorBatch(Arc::new(batch)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::frame::FrameBuilder;
    use crate::msg::Topic;
    use os_sim::process::Pid;
    use parking_lot::Mutex;
    use perf_sim::events::PAPER_EVENTS;
    use simcpu::units::Nanos;

    struct Capture(Arc<Mutex<Vec<Arc<SensorBatch>>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::SensorBatch(b) = msg {
                self.0.lock().push(b);
            }
        }
    }

    #[test]
    fn publishes_time_only_rows() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let sensor = sys.spawn("procfs", Box::new(ProcfsSensor::new()));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Tick, &sensor);
        sys.bus().subscribe(Topic::Sensor, &sink);
        let mut b = FrameBuilder::new();
        // The pid has hpc data too; this source must not surface it.
        let (pids, counters) = b.hpc_columns();
        pids.push(Pid(7));
        counters.push(42);
        b.push_time_row(Pid(7), Nanos(900), |_| {});
        sys.bus().publish(Message::Frame(Arc::new(b.finish(
            Nanos::from_secs(2),
            Nanos::from_secs(1),
            Arc::from([PAPER_EVENTS[0]]),
            None,
        ))));
        sys.shutdown();
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].source, SOURCE);
        assert_eq!(seen[0].rows.len(), 1);
        let mut report = crate::formula::scratch_report();
        seen[0].fill_report(0, &mut report);
        assert_eq!(report.pid, Pid(7));
        assert!(report.counters.is_empty(), "no HPC data on this source");
        assert_eq!(report.time.busy, Nanos(900));
    }
}
