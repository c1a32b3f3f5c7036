//! The aggregator actor: "aggregates the power estimations according to a
//! dimension, like the PID or the timestamp" (§3).
//!
//! * **PID dimension** — forwards each process estimate as a
//!   process-scoped aggregate: the formula's [`PowerBatch`] rides along
//!   inside the [`AggregateBatch`] untouched, no row is rebuilt;
//! * **timestamp dimension** — folds all estimates sharing a timestamp
//!   into one machine-scoped aggregate, adding the machine idle floor
//!   once (the paper's `31.48 + Σ…` form, comparable to the wall meter);
//! * **cgroup tree** — with a [`Hierarchy`] attached, the same fold also
//!   keeps one cell per leaf the tick's frame names, and the closed
//!   window becomes one group-scoped aggregate per node.
//!
//! One `LeafCells` window holds a timestamp's fold: the machine
//! aggregate is its total plus the idle floor, the tree its leaves. A
//! window is flushed when a different timestamp arrives and on shutdown,
//! so no interval is lost — and relies on the [sensor stage's ordering
//! guarantee](crate::sensor) (tick *T*'s power batches all arrive before
//! tick *T+1*'s) to flush each window whole.

use crate::actor::{Actor, Context};
use crate::frame::{AggregateBatch, PowerBatch};
use crate::hierarchy::{Hierarchy, LeafCells};
use crate::msg::{AggregateReport, Message, Scope};
use crate::telemetry::TraceId;
use simcpu::units::{Nanos, Watts};
use std::sync::Arc;

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
    hierarchy: Option<Hierarchy>,
    /// The open window's timestamp and newest trace; its sums are in
    /// `cells`.
    window: Option<(Nanos, TraceId)>,
    cells: LeafCells,
}

impl Aggregator {
    /// Creates an aggregator. `idle_w` is added once to every machine
    /// aggregate (0 for purely relative reporting).
    pub fn new(dimension: Dimension, idle_w: f64) -> Aggregator {
        Aggregator {
            dimension,
            idle_w,
            hierarchy: None,
            window: None,
            cells: LeafCells::default(),
        }
    }

    /// Also folds every window by cgroup leaf and flushes it through
    /// `hierarchy` (over this aggregator's idle floor) as one
    /// group-scoped aggregate per node.
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Aggregator {
        self.hierarchy = Some(hierarchy);
        self
    }

    /// Folds one power batch into what the aggregator publishes for it
    /// (`None` when that is nothing): the batch itself under the PID
    /// dimension, then what its first row closed — the machine aggregate,
    /// folded right after that row, and the node aggregates after the
    /// batch's last row.
    pub fn fold(&mut self, batch: Arc<PowerBatch>) -> Option<AggregateBatch> {
        if batch.is_empty() {
            return None;
        }
        let per_process = self.dimension.per_process;
        let mut out = match per_process {
            true => AggregateBatch::forwarding(batch.clone()),
            false => AggregateBatch::explicit(Vec::new(), batch.trace),
        };
        if self.dimension.machine || self.hierarchy.is_some() {
            // A batch's rows share its timestamp and trace, so only its
            // first row can turn the window over.
            match &mut self.window {
                // Trace ids are monotone per tick: keep the newest.
                Some((ts, trace)) if *ts == batch.timestamp => *trace = (*trace).max(batch.trace),
                _ => {
                    self.close(&mut out, usize::from(per_process), batch.len());
                    self.window = Some((batch.timestamp, batch.trace));
                }
            }
            match self.hierarchy {
                Some(_) => self.cells.fold(&batch, batch.frame.as_deref()),
                None => self.cells.fold_total(&batch),
            }
        }
        (!out.is_empty()).then_some(out)
    }

    /// Flushes the open window into `out`: the machine aggregate as
    /// folded after `machine_at` forwarded rows, the node aggregates
    /// after `nodes_at`.
    fn close(&mut self, out: &mut AggregateBatch, machine_at: usize, nodes_at: usize) {
        let Some((timestamp, trace)) = self.window.take() else {
            return;
        };
        if self.dimension.machine {
            let total = self.cells.total();
            out.push_after(
                machine_at,
                AggregateReport {
                    timestamp,
                    scope: Scope::Machine,
                    power: Watts(total.power_w + self.idle_w),
                    band_w: Watts(total.band_w),
                    quality: total.quality_or_full(),
                    trace,
                },
            );
        }
        if let Some(h) = &self.hierarchy {
            h.record_flush(timestamp, trace, self.idle_w, &self.cells, |node| {
                out.push_after(nodes_at, node)
            });
        }
        self.cells.clear();
    }
}

impl Actor for Aggregator {
    /// One [`Message::AggregateBatch`] out per power batch in, every
    /// batch folded through the same window (so batches from several
    /// publishers — the formula and self-power profiling — share one
    /// window).
    fn handle(&mut self, msg: Message, ctx: &Context) {
        let Message::PowerBatch(b) = msg else { return };
        if let Some(out) = self.fold(b) {
            ctx.bus().publish(Message::AggregateBatch(Arc::new(out)));
        }
    }

    fn on_stop(&mut self, ctx: &Context) {
        let trace = self.window.map_or(TraceId::NONE, |(_, trace)| trace);
        let mut out = AggregateBatch::explicit(Vec::new(), trace);
        self.close(&mut out, 0, 0);
        if !out.is_empty() {
            ctx.bus().publish(Message::AggregateBatch(Arc::new(out)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::ActorSystem;
    use crate::fleet::fault::splitmix64;
    use crate::msg::{PowerReport, Quality, Topic};
    use os_sim::process::Pid;
    use parking_lot::Mutex;
    use std::sync::Arc;

    struct Capture(Arc<Mutex<Vec<AggregateReport>>>);
    impl Actor for Capture {
        fn handle(&mut self, msg: Message, _ctx: &Context) {
            if let Message::AggregateBatch(b) = msg {
                self.0.lock().extend(b.iter());
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

    /// The displaced fold, kept as the oracle: every row materialised
    /// and folded on its own, every aggregate a struct in one `Vec`.
    struct RowFold {
        dimension: Dimension,
        idle_w: f64,
        window: Option<(Nanos, Watts, Watts, Quality, TraceId)>,
    }

    impl RowFold {
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
                    None => {
                        self.window = Some((p.timestamp, p.power, p.band_w, p.quality, p.trace));
                    }
                }
            }
        }

        /// What one batch publishes (empty: nothing).
        fn batch(&mut self, b: &PowerBatch) -> Vec<AggregateReport> {
            let mut reports = Vec::new();
            for i in 0..b.len() {
                self.fold(&b.report(i), &mut |a| reports.push(a));
            }
            reports
        }

        /// What `on_stop` publishes.
        fn flush(&mut self) -> Vec<AggregateReport> {
            let last = self.window.take();
            last.map(|(ts, acc, band, q, tr)| AggregateReport {
                timestamp: ts,
                scope: Scope::Machine,
                power: Watts(acc.as_f64() + self.idle_w),
                band_w: band,
                quality: q,
                trace: tr,
            })
            .into_iter()
            .collect()
        }
    }

    /// Seeded power batches: ticks that advance, repeat (a second
    /// publisher on the tick) or stay empty; watts that do not sum
    /// exactly, so the order of the additions shows in the bits.
    fn generated_batches(mut seed: u64, count: usize) -> Vec<Arc<PowerBatch>> {
        let mut next = move || {
            seed = splitmix64(seed);
            seed
        };
        let mut tick = 1;
        (0..count)
            .map(|_| {
                tick += next() % 3;
                let rows = [0, 1, 1, 2, 5, 17][(next() % 6) as usize];
                let at = Nanos::from_secs(tick);
                let mut b = PowerBatch::with_capacity(at, "generated", TraceId(next() % 9), rows);
                for _ in 0..rows {
                    let quality = [Quality::Full, Quality::Degraded, Quality::Stale];
                    b.push(
                        Pid(next() as u32 % 5_000),
                        Watts((next() % 100_000) as f64 / 7.0),
                        Watts((next() % 1_000) as f64 / 3.0),
                        quality[(next() % 3) as usize],
                    );
                }
                Arc::new(b)
            })
            .collect()
    }

    #[test]
    fn forwarded_batches_read_back_as_the_row_fold_built_them() {
        for dimension in [Dimension::pid(), Dimension::timestamp(), Dimension::both()] {
            let batches = generated_batches(2014, 300);
            let mut oracle = RowFold {
                dimension,
                idle_w: 31.48,
                window: None,
            };
            let mut agg = Aggregator::new(dimension, 31.48);
            let mut published = Vec::new();
            for (i, batch) in batches.iter().enumerate() {
                let want = oracle.batch(batch);
                let got = agg.fold(batch.clone());
                assert_eq!(got.is_none(), want.is_empty(), "batch {i}, {dimension:?}");
                let got = got.map_or(Vec::new(), |out| {
                    assert_eq!(out.trace, batch.trace);
                    assert_eq!(out.len(), want.len());
                    out.iter().collect()
                });
                assert_eq!(got, want, "batch {i}, {dimension:?}");
                published.extend(want);
            }
            // The same through the actor, its shutdown flush included.
            published.extend(oracle.flush());
            let msgs = batches.into_iter().map(Message::PowerBatch).collect();
            assert_eq!(run(dimension, 31.48, msgs), published, "{dimension:?}");
        }
    }

    #[test]
    fn the_machine_aggregate_sits_where_the_row_fold_emitted_it() {
        let out = run(
            Dimension::both(),
            0.0,
            vec![
                power(1, &[(10, 2.0), (11, 3.0)]),
                power(2, &[(10, 4.0), (11, 5.0), (12, 6.0)]),
            ],
        );
        let scopes: Vec<_> = out
            .iter()
            .map(|a| (a.timestamp.as_u64() / 1_000_000_000, a.scope.clone()))
            .collect();
        let pid = |p| Scope::Process(Pid(p));
        assert_eq!(
            scopes,
            vec![
                (1, pid(10)),
                (1, pid(11)),
                (2, pid(10)),
                (1, Scope::Machine),
                (2, pid(11)),
                (2, pid(12)),
                (2, Scope::Machine),
            ]
        );
    }

    #[test]
    fn empty_run_emits_nothing() {
        let out = run(Dimension::both(), 10.0, vec![]);
        assert!(out.is_empty());
    }

    /// `(pid, cgroup node, watts)` rows at `ts` seconds over a frame
    /// whose group column records each row's node.
    fn grouped(ts: u64, rows: &[(u32, Option<&str>, f64)]) -> Arc<PowerBatch> {
        let at = Nanos::from_secs(ts);
        let mut frame = crate::frame::FrameBuilder::new();
        let mut b = PowerBatch::with_capacity(at, "t", TraceId(ts), rows.len());
        for &(pid, node, w) in rows {
            frame.push_time_row(Pid(pid), Nanos::ZERO, |_| {});
            frame.set_time_group(node);
            b.push(Pid(pid), Watts(w), Watts(0.0), Quality::Full);
        }
        b.frame = Some(Arc::new(frame.finish(at, at, Arc::from([]), None)));
        Arc::new(b)
    }

    #[test]
    fn node_aggregates_follow_the_rows_of_the_batch_that_closed_their_tick() {
        use crate::hierarchy::{Hierarchy, ROOT, UNGROUPED};
        let h = Hierarchy::new();
        let mut agg = Aggregator::new(Dimension::both(), 10.0).with_hierarchy(h.clone());
        let first = agg.fold(grouped(1, &[(1, Some("a"), 2.0), (2, None, 3.0)]));
        assert_eq!(first.map(|out| out.len()), Some(2), "no tick closed");
        // Tick 2's first row names a node tick 1 never did.
        let out = agg.fold(grouped(2, &[(1, Some("b"), 4.0), (2, Some("a"), 5.0)]));
        let scopes: Vec<_> = out
            .expect("tick 2 publishes")
            .iter()
            .map(|a| (a.timestamp, a.scope, a.power.as_f64()))
            .collect();
        let (one, two) = (Nanos::from_secs(1), Nanos::from_secs(2));
        let group = |p: &str| Scope::Group(Arc::from(p));
        assert_eq!(
            scopes,
            vec![
                (two, Scope::Process(Pid(1)), 4.0),
                (one, Scope::Machine, 15.0),
                (two, Scope::Process(Pid(2)), 5.0),
                (one, group(UNGROUPED), 3.0),
                (one, group("a"), 2.0),
                (one, group(ROOT), 15.0),
            ]
        );
        // `b` reports from the first tick whose rows name it.
        agg.fold(grouped(3, &[(1, None, 1.0)]));
        let declared = |i: usize| h.ledger()[i].nodes.contains_key("b");
        assert_eq!((declared(0), declared(1)), (false, true));
        h.conservation().expect("ledger conserves");
    }
}
