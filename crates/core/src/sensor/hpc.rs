//! The hardware-performance-counter sensor: the paper's primary metric
//! source. For every monitored process it publishes the interval's scaled
//! counter deltas together with the per-frequency CPU-time split the
//! per-frequency formula weights by, and the SMT co-run split HT-aware
//! formulas need.

use crate::actor::{Actor, Context};
use crate::frame::{SensorBatch, SensorRow, TickFrame, NO_ROW};
use crate::msg::Message;
use crate::telemetry::TraceId;
use simcpu::units::Nanos;
use std::sync::Arc;

/// Source tag carried on this sensor's batches.
pub const SOURCE: &str = "hpc";

/// The sensor actor. Stateless: everything it needs arrives in the tick
/// frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct HpcSensor;

impl HpcSensor {
    /// Creates the sensor.
    pub fn new() -> HpcSensor {
        HpcSensor
    }
}

impl HpcSensor {
    /// What this sensor sees in a frame: one row per counted process,
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
}

impl Actor for HpcSensor {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        // One trace per tick, shared by every sensor on the same frame.
        let trace = ctx.telemetry().trace_for_tick(frame.timestamp);
        let batch = HpcSensor::observe(frame, trace);
        // An empty batch would defeat the staleness watchdog: absence of
        // data is the fallback trigger.
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
    use simcpu::units::MegaHertz;

    struct Capture(Arc<Mutex<Vec<Arc<SensorBatch>>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::SensorBatch(b) = msg {
                self.0.lock().push(b);
            }
        }
    }

    /// Pids 1 and 2 counted (100 / 200 on one event), pid 3 stalled
    /// (busy but all-zero); only pid 1 and 3 have a time row.
    fn frame_with_three_pids() -> Message {
        let mut b = FrameBuilder::new();
        let (pids, counters) = b.hpc_columns();
        pids.extend([Pid(1), Pid(2), Pid(3)]);
        counters.extend([100, 200, 0]);
        b.push_time_row(Pid(1), Nanos(500), |f| {
            f.push((MegaHertz(3300), Nanos(500)));
        });
        b.push_time_row(Pid(3), Nanos(400), |_| {});
        Message::Frame(Arc::new(b.finish(
            Nanos::from_secs(1),
            Nanos::from_secs(1),
            Arc::from([PAPER_EVENTS[0]]),
            None,
        )))
    }

    fn run(topic: Topic, msg: Message) -> Vec<Arc<SensorBatch>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let sensor = sys.spawn("hpc", Box::new(HpcSensor::new()));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(topic, &sensor);
        sys.bus().subscribe(Topic::Sensor, &sink);
        sys.bus().publish(msg);
        sys.shutdown();
        let out = seen.lock().clone();
        out
    }

    #[test]
    fn publishes_one_row_per_counted_pid() {
        let seen = run(Topic::Tick, frame_with_three_pids());
        assert_eq!(seen.len(), 1, "one batch per tick");
        let batch = &seen[0];
        assert_eq!(batch.source, SOURCE);
        let mut report = crate::formula::scratch_report();
        batch.fill_report(0, &mut report);
        assert_eq!(report.pid, Pid(1));
        assert_eq!(report.counters[0].1, 100);
        assert_eq!(report.time.busy, Nanos(500));
        // Pid 2 had no time row: defaults to zero time.
        batch.fill_report(1, &mut report);
        assert_eq!(report.pid, Pid(2));
        assert_eq!(report.time.busy, Nanos::ZERO);
        // Pid 3 burned CPU with every counter at zero: PMU stall, no row.
        assert_eq!(batch.rows.len(), 2);
    }

    #[test]
    fn ignores_non_tick_messages() {
        let seen = run(Topic::Meter, Message::Meter(Nanos(1), simcpu::Watts(1.0)));
        assert!(seen.is_empty());
    }
}
