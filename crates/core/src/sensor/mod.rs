//! The sensor stage ("Sensor monitors the metrics of a given process and
//! then publish a sensor message to the event bus" — §3): one
//! [`SensorStage`] actor subscribes to [`Topic::Tick`] and re-publishes
//! each [`TickFrame`] from every angle the pipeline consumes. What varies
//! per source is a pure slicing function ([`hpc::observe`],
//! [`procfs::observe`]); the actor only fixes the order they publish in.
//!
//! # Ordering guarantee
//!
//! For every frame the stage publishes, in this order, the hpc
//! [`SensorBatch`], the procfs [`SensorBatch`], every meter sample and the
//! RAPL sample, and it finishes frame *T* before it touches frame *T+1*.
//! Mailboxes are FIFO, so Sensor → Formula → Aggregator is one ordered
//! chain: primary source before backup source, tick by tick.
//! [`FallbackFormula`], [`Aggregator`] and [`HierarchyAggregator`] rely on
//! it — a late batch of an older tick would split a window. Not covered:
//! messages on a shorter path — `profile_self`'s one-row power batch (tick
//! loop → aggregators) and the meter/RAPL rows (stage → reporters) may
//! overtake a tick's estimates.
//!
//! [`Topic::Tick`]: crate::msg::Topic::Tick
//! [`TickFrame`]: crate::frame::TickFrame
//! [`SensorBatch`]: crate::frame::SensorBatch
//! [`FallbackFormula`]: crate::formula::fallback::FallbackFormula
//! [`Aggregator`]: crate::aggregator::Aggregator
//! [`HierarchyAggregator`]: crate::hierarchy::HierarchyAggregator

pub mod hpc;
pub mod procfs;

use crate::actor::{Actor, Context};
use crate::msg::Message;
use simcpu::units::Watts;
use std::sync::Arc;

/// The sensor actor. Stateless: everything it needs arrives in the tick
/// frame.
#[derive(Debug, Clone, Copy)]
pub struct SensorStage;

impl Actor for SensorStage {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        // One trace per tick, shared by every batch cut from the frame.
        let trace = ctx.telemetry().trace_for_tick(frame.timestamp);
        for observe in [hpc::observe, procfs::observe] {
            let batch = observe(frame.clone(), trace);
            // An empty batch would defeat the staleness watchdog: absence
            // of data is the fallback trigger.
            if !batch.rows.is_empty() {
                ctx.bus().publish(Message::SensorBatch(Arc::new(batch)));
            }
        }
        // The physical meter's samples, relayed so reporters (and the
        // Figure 3 harness) can plot measured vs estimated side by side.
        for &(at, power) in frame.meter() {
            ctx.bus().publish(Message::Meter(at, power));
        }
        // The interval's package-energy delta as average package power.
        // Only frames from machines with RAPL (Sandy Bridge onward) carry
        // one — the architecture dependence the paper criticizes,
        // reproduced.
        if let Some(joules) = frame.rapl_joules {
            let secs = frame.interval.as_secs_f64();
            if secs > 0.0 {
                ctx.bus()
                    .publish(Message::Rapl(frame.timestamp, Watts(joules / secs)));
            }
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
    use simcpu::units::{MegaHertz, Nanos};

    struct Capture(Arc<Mutex<Vec<Message>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            self.0.lock().push(msg);
        }
    }

    /// Publishes `msgs` on the bus with the stage subscribed to `topic`
    /// and returns everything it emitted on `Sensor`, `Meter` and `Rapl`,
    /// in arrival order.
    fn run(topic: Topic, msgs: Vec<Message>) -> Vec<Message> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let stage = sys.spawn("sensor", Box::new(SensorStage));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(topic, &stage);
        for t in [Topic::Sensor, Topic::Meter, Topic::Rapl] {
            sys.bus().subscribe(t, &sink);
        }
        for m in msgs {
            sys.bus().publish(m);
        }
        sys.shutdown();
        let out = seen.lock().clone();
        out
    }

    /// Pids 1 and 2 counted (100 / 200 on one event), pid 3 stalled
    /// (busy but all-zero); only pid 1 and 3 have a time row. Two meter
    /// samples and 30 J of package energy over the 2 s interval ending at
    /// `ts_s`.
    fn frame(ts_s: u64) -> Message {
        let mut b = FrameBuilder::new();
        let (pids, counters) = b.hpc_columns();
        pids.extend([Pid(1), Pid(2), Pid(3)]);
        counters.extend([100, 200, 0]);
        b.push_time_row(Pid(1), Nanos(500), |f| {
            f.push((MegaHertz(3300), Nanos(500)));
        });
        b.push_time_row(Pid(3), Nanos(400), |_| {});
        b.meter_column().extend([
            (Nanos::from_millis(ts_s * 1000 - 500), Watts(31.4)),
            (Nanos::from_secs(ts_s), Watts(35.2)),
        ]);
        Message::Frame(Arc::new(b.finish(
            Nanos::from_secs(ts_s),
            Nanos::from_secs(2),
            Arc::from([PAPER_EVENTS[0]]),
            Some(30.0),
        )))
    }

    #[test]
    fn each_source_slices_its_own_rows() {
        let seen = run(Topic::Tick, vec![frame(2)]);
        let (Message::SensorBatch(hpc), Message::SensorBatch(procfs)) = (&seen[0], &seen[1]) else {
            panic!("hpc batch, then procfs batch: {seen:?}");
        };
        assert_eq!(hpc.source, hpc::SOURCE);
        let mut report = crate::formula::scratch_report();
        hpc.fill_report(0, &mut report);
        assert_eq!(report.pid, Pid(1));
        assert_eq!(report.counters[0].1, 100);
        assert_eq!(report.time.busy, Nanos(500));
        // Pid 2 had no time row: defaults to zero time.
        hpc.fill_report(1, &mut report);
        assert_eq!(report.pid, Pid(2));
        assert_eq!(report.time.busy, Nanos::ZERO);
        // Pid 3 burned CPU with every counter at zero: PMU stall, no row.
        assert_eq!(hpc.rows.len(), 2);

        assert_eq!(procfs.source, procfs::SOURCE);
        assert_eq!(procfs.rows.len(), 2, "one row per time row");
        // Pid 3 has hpc data too; this source must not surface it.
        procfs.fill_report(1, &mut report);
        assert_eq!(report.pid, Pid(3));
        assert!(report.counters.is_empty(), "no HPC data on this source");
        assert_eq!(report.time.busy, Nanos(400));
    }

    #[test]
    fn silent_on_empty_frames_and_other_messages() {
        // No rows, no meter samples, no RAPL support: nothing to say (an
        // empty batch would reset the staleness watchdog).
        let bare = Message::Frame(Arc::new(FrameBuilder::new().finish(
            Nanos::from_secs(5),
            Nanos::from_secs(2),
            Arc::from([]),
            None,
        )));
        assert!(run(Topic::Tick, vec![bare]).is_empty());
        let other = Message::aggregates(vec![], crate::telemetry::TraceId::NONE);
        assert!(run(Topic::Aggregate, vec![other]).is_empty());
    }

    /// Every meter sample relayed, RAPL watts = joules / interval, and
    /// all of a frame published, in the fixed order, before the next.
    #[test]
    fn publishes_everything_in_fixed_order_tick_by_tick() {
        let seen = run(Topic::Tick, vec![frame(2), frame(4), frame(6)]);
        let labels: Vec<String> = seen
            .iter()
            .map(|m| match m {
                Message::SensorBatch(b) => format!("{} {}", b.source, b.timestamp()),
                Message::Meter(at, w) => format!("meter {at} {w}"),
                Message::Rapl(at, w) => format!("rapl {at} {w}"),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<String> = [2.0, 4.0, 6.0]
            .iter()
            .flat_map(|t| {
                [
                    format!("hpc {t:.6} s"),
                    format!("procfs {t:.6} s"),
                    format!("meter {:.6} s 31.40 W", t - 0.5),
                    format!("meter {t:.6} s 35.20 W"),
                    format!("rapl {t:.6} s 15.00 W"),
                ]
            })
            .collect();
        assert_eq!(labels, expected);
    }
}
