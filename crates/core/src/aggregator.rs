//! The aggregator actor: "aggregates the power estimations according to a
//! dimension, like the PID or the timestamp" (§3).
//!
//! * **PID dimension** — forwards each process estimate as a
//!   process-scoped aggregate;
//! * **timestamp dimension** — folds all estimates sharing a timestamp
//!   into one machine-scoped aggregate, adding the machine idle floor
//!   once (the paper's `31.48 + Σ…` form, comparable to the wall meter).
//!
//! Timestamp aggregation flushes a window when a different timestamp
//! arrives and on shutdown, so no interval is lost — and relies on the
//! [sensor stage's ordering guarantee](crate::sensor) (tick *T*'s power
//! batches all arrive before tick *T+1*'s) to flush each window whole.

use crate::actor::{Actor, Context};
use crate::msg::{AggregateReport, Message, PowerReport, Quality, Scope};
use crate::telemetry::TraceId;
use simcpu::units::{Nanos, Watts};

/// Which dimensions to aggregate along (both may be enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dimension {
    /// Emit one aggregate per (timestamp, pid).
    pub per_process: bool,
    /// Emit one machine aggregate per timestamp (idle + Σ processes).
    pub machine: bool,
}

impl Dimension {
    /// Per-process aggregates only.
    pub fn pid() -> Dimension {
        Dimension {
            per_process: true,
            machine: false,
        }
    }

    /// Machine aggregates only.
    pub fn timestamp() -> Dimension {
        Dimension {
            per_process: false,
            machine: true,
        }
    }

    /// Both dimensions.
    pub fn both() -> Dimension {
        Dimension {
            per_process: true,
            machine: true,
        }
    }
}

/// The actor.
#[derive(Debug, Clone)]
pub struct Aggregator {
    dimension: Dimension,
    idle_w: f64,
    window: Option<(Nanos, Watts, Watts, Quality, TraceId)>,
}

impl Aggregator {
    /// Creates an aggregator. `idle_w` is added once to every machine
    /// aggregate (0 for purely relative reporting).
    pub fn new(dimension: Dimension, idle_w: f64) -> Aggregator {
        Aggregator {
            dimension,
            idle_w,
            window: None,
        }
    }

    fn fold(&mut self, p: &PowerReport, emit: &mut impl FnMut(AggregateReport)) {
        if self.dimension.per_process {
            emit(AggregateReport {
                timestamp: p.timestamp,
                scope: Scope::Process(p.pid),
                power: p.power,
                band_w: p.band_w,
                quality: p.quality,
                trace: p.trace,
            });
        }
        if self.dimension.machine {
            match &mut self.window {
                Some((ts, acc, band, q, tr)) if *ts == p.timestamp => {
                    *acc += p.power;
                    *band += p.band_w;
                    *q = (*q).min(p.quality);
                    // Trace ids are monotone per tick: keep the newest.
                    *tr = (*tr).max(p.trace);
                }
                Some((ts, acc, band, q, tr)) => {
                    let done = AggregateReport {
                        timestamp: *ts,
                        scope: Scope::Machine,
                        power: Watts(acc.as_f64() + self.idle_w),
                        band_w: *band,
                        quality: *q,
                        trace: *tr,
                    };
                    *ts = p.timestamp;
                    *acc = p.power;
                    *band = p.band_w;
                    *q = p.quality;
                    *tr = p.trace;
                    emit(done);
                }
                None => self.window = Some((p.timestamp, p.power, p.band_w, p.quality, p.trace)),
            }
        }
    }
}

impl Actor for Aggregator {
    /// One [`Message::AggregateBatch`] out per power batch in, folding
    /// every row through the same window logic (so batches from several
    /// publishers — the formula and self-power profiling — share one
    /// machine window).
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::PowerBatch(b) = msg else { return };
        let mut reports = Vec::with_capacity(b.len() + 1);
        for i in 0..b.len() {
            self.fold(&b.report(i), &mut |a| reports.push(a));
        }
        if !reports.is_empty() {
            ctx.bus().publish(Message::aggregates(reports, b.trace));
        }
    }

    fn on_stop(&mut self, ctx: &Context) {
        if let Some((ts, acc, band, q, tr)) = self.window.take() {
            let last = AggregateReport {
                timestamp: ts,
                scope: Scope::Machine,
                power: Watts(acc.as_f64() + self.idle_w),
                band_w: band,
                quality: q,
                trace: tr,
            };
            ctx.bus().publish(Message::aggregates(vec![last], tr));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::frame::PowerBatch;
    use crate::msg::Topic;
    use os_sim::process::Pid;
    use parking_lot::Mutex;
    use std::sync::Arc;

    struct Capture(Arc<Mutex<Vec<AggregateReport>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::AggregateBatch(b) = msg {
                self.0.lock().extend(b.reports.iter().cloned());
            }
        }
    }

    /// One tick's power batch: `(pid, watts)` rows at `ts` seconds.
    fn power(ts: u64, rows: &[(u32, f64)]) -> Message {
        let mut b = PowerBatch::with_capacity(Nanos::from_secs(ts), "t", TraceId(ts), rows.len());
        for &(pid, w) in rows {
            b.push(Pid(pid), Watts(w), Watts(0.0), Quality::Full);
        }
        Message::PowerBatch(Arc::new(b))
    }

    fn run(dim: Dimension, idle: f64, msgs: Vec<Message>) -> Vec<AggregateReport> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut sys = ActorSystem::new();
        let agg = sys.spawn("agg", Box::new(Aggregator::new(dim, idle)));
        let sink = sys.spawn("sink", Box::new(Capture(seen.clone())));
        sys.bus().subscribe(Topic::Power, &agg);
        sys.bus().subscribe(Topic::Aggregate, &sink);
        for m in msgs {
            sys.bus().publish(m);
        }
        sys.shutdown();
        let out = seen.lock().clone();
        out
    }

    #[test]
    fn pid_dimension_forwards_per_process() {
        let out = run(
            Dimension::pid(),
            31.48,
            vec![power(1, &[(10, 2.0), (11, 3.0)])],
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|a| matches!(a.scope, Scope::Process(_))));
        assert!(out
            .iter()
            .any(|a| a.scope == Scope::Process(Pid(10)) && (a.power.as_f64() - 2.0).abs() < 1e-12));
    }

    #[test]
    fn machine_dimension_sums_and_adds_idle() {
        let out = run(
            Dimension::timestamp(),
            31.48,
            vec![
                // Two publishers on one tick share the ts=1 window.
                power(1, &[(10, 2.0)]),
                power(1, &[(11, 3.0)]),
                power(2, &[(10, 4.0)]), // triggers flush of ts=1
            ],
        );
        // ts=1 flushed by ts=2's arrival; ts=2 flushed on shutdown.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].timestamp, Nanos::from_secs(1));
        assert_eq!(out[0].scope, Scope::Machine);
        assert!((out[0].power.as_f64() - 36.48).abs() < 1e-12);
        assert!((out[1].power.as_f64() - 35.48).abs() < 1e-12);
        assert_eq!(out[0].trace, TraceId(1), "window keeps its tick's trace");
        assert_eq!(out[1].trace, TraceId(2));
    }

    #[test]
    fn both_dimensions_interleave() {
        let out = run(Dimension::both(), 0.0, vec![power(1, &[(10, 2.0)])]);
        assert_eq!(out.len(), 2, "one process scope + one machine flush");
        assert!(out.iter().any(|a| a.scope == Scope::Process(Pid(10))));
        assert!(out.iter().any(|a| a.scope == Scope::Machine));
    }

    #[test]
    fn empty_run_emits_nothing() {
        let out = run(Dimension::both(), 10.0, vec![]);
        assert!(out.is_empty());
    }
}
