//! The sensor stage ("Sensor monitors the metrics of a given process and
//! then publish a sensor message to the event bus" — §3): one
//! [`SensorStage`] actor subscribes to [`Topic::Tick`] and re-publishes
//! each [`TickFrame`] from every angle the pipeline consumes. What varies
//! per source is a pure slicing function ([`hpc::observe`],
//! [`procfs::observe`]); the actor only fixes the order they publish in.
//! With [`profile_self`] on it also senses the one thing no frame
//! carries, the middleware's own busy time, and publishes it as the
//! synthetic [`SELF_PID`] process's power — from here rather than from
//! the tick loop, which would pay for one more cross-thread send every
//! tick.
//!
//! # Ordering guarantee
//!
//! For every frame the stage publishes, in this order, the middleware's
//! own one-row [`PowerBatch`] (when profiling), the hpc [`SensorBatch`],
//! the procfs [`SensorBatch`], every meter sample and the RAPL sample, and
//! it finishes frame *T* before it touches frame *T+1*. The actor loop
//! handles messages in arrival order ([`crate::actor`]), so Sensor →
//! Formula → Aggregator is one ordered chain: primary source before
//! backup source, tick by tick. The [`FormulaActor`]'s staleness
//! watchdog and the [`Aggregator`] (its machine sum and its cgroup tree
//! alike) rely on it — a late batch of an older tick would split a
//! window. Not covered: messages on a shorter path — the self-power
//! batch (stage → aggregator) and the meter/RAPL rows (stage →
//! reporters) may overtake an *earlier* tick's estimates.
//!
//! [`profile_self`]: crate::runtime::PowerApiBuilder::profile_self
//! [`PowerBatch`]: crate::frame::PowerBatch
//! [`Topic::Tick`]: crate::msg::Topic::Tick
//! [`TickFrame`]: crate::frame::TickFrame
//! [`SensorBatch`]: crate::frame::SensorBatch
//! [`FormulaActor`]: crate::formula::FormulaActor
//! [`Aggregator`]: crate::aggregator::Aggregator

pub mod hpc;
pub mod procfs;

use crate::actor::{Actor, Context};
use crate::frame::PowerBatch;
use crate::msg::{Message, Quality};
use crate::telemetry::{SELF_FORMULA, SELF_PID};
use simcpu::units::Watts;
use std::sync::Arc;
use std::time::Instant;

/// The sensor actor. Everything it publishes of the monitored system
/// arrives in the tick frame; its only state is the baseline of the
/// middleware's own busy time.
#[derive(Debug)]
pub struct SensorStage {
    /// Watts attributed to one fully busy middleware core (`None`: no
    /// self-profiling).
    self_watts_per_core: Option<f64>,
    /// Handler busy-ns already attributed, and when.
    self_busy_prev: u64,
    self_wall_prev: Instant,
}

impl SensorStage {
    /// A stage that, with `self_watts_per_core` set, also reports the
    /// middleware itself: that many watts scaled by the fraction of one
    /// core the actor handlers kept busy (wall time) since the previous
    /// tick. Needs an enabled telemetry hub to read the busy time from.
    pub fn new(self_watts_per_core: Option<f64>) -> SensorStage {
        SensorStage {
            self_watts_per_core,
            self_busy_prev: 0,
            self_wall_prev: Instant::now(),
        }
    }
}

impl Actor for SensorStage {
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::Frame(frame) = msg else { return };
        // One trace per tick, shared by every batch cut from the frame.
        let trace = ctx.telemetry().trace_for_tick(frame.timestamp);
        if let Some(wpc) = self.self_watts_per_core {
            let (_, busy) = ctx.telemetry().handle_totals();
            let wall = self.self_wall_prev.elapsed().as_nanos() as u64;
            let utilisation = busy.saturating_sub(self.self_busy_prev) as f64 / wall.max(1) as f64;
            self.self_busy_prev = busy;
            self.self_wall_prev = Instant::now();
            let mut own = PowerBatch::with_capacity(frame.timestamp, SELF_FORMULA, trace, 1);
            own.push(
                SELF_PID,
                Watts(wpc * utilisation),
                Watts(0.0),
                Quality::Full,
            );
            ctx.bus().publish(Message::PowerBatch(Arc::new(own)));
        }
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
    /// and returns everything it emitted on `Power`, `Sensor`, `Meter`
    /// and `Rapl`, in arrival order.
    fn run(topic: Topic, msgs: Vec<Message>) -> Vec<Message> {
        run_stage(ActorSystem::new(), SensorStage::new(None), topic, msgs)
    }

    fn run_stage(
        mut sys: ActorSystem,
        stage: SensorStage,
        topic: Topic,
        msgs: Vec<Message>,
    ) -> Vec<Message> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let stage = sys.spawn("sensor", Box::new(stage));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(topic, &stage);
        for t in [Topic::Power, Topic::Sensor, Topic::Meter, Topic::Rapl] {
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

    /// With self-profiling on, each frame's first message is the
    /// middleware's own one-row power batch, on the frame's timestamp and
    /// trace; without it (the default `run`) nothing reaches `Power`.
    #[test]
    fn self_profile_leads_every_frame() {
        let sys = ActorSystem::with_telemetry(crate::telemetry::Telemetry::new());
        let stage = SensorStage::new(Some(10.0));
        let seen = run_stage(sys, stage, Topic::Tick, vec![frame(2), frame(4)]);
        assert_eq!(seen.len(), 12, "five sensed messages per frame + its own");
        for (first, ts) in [(&seen[0], 2), (&seen[6], 4)] {
            let Message::PowerBatch(own) = first else {
                panic!("self batch first: {seen:?}");
            };
            let rows: Vec<_> = own.reports().collect();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].pid, SELF_PID);
            assert_eq!(rows[0].formula, SELF_FORMULA);
            assert_eq!(rows[0].timestamp, Nanos::from_secs(ts));
            assert!(rows[0].trace.is_traced());
            // The sink's handler time is busy time too, so only the
            // bounds are exact: no more than wall time on one core each
            // for the two actors.
            assert!((0.0..=20.0).contains(&rows[0].power.as_f64()), "{rows:?}");
        }
        let unprofiled = run(Topic::Tick, vec![frame(2)]);
        assert!(unprofiled
            .iter()
            .all(|m| !matches!(m, Message::PowerBatch(_))));
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
