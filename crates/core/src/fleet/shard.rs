//! The sharded central estimator: each shard owns a contiguous slice of
//! the host space (static modulo routing), decodes incoming frame
//! envelopes back into [`TickFrame`] columns, runs the power formula's
//! `estimate_batch` over them, and tracks per-host freshness so a silent
//! host degrades to a quality-tagged last-known-good estimate with a
//! widening prediction band instead of vanishing from the fleet
//! aggregate.
//!
//! Shards are load-shedding consumers: a bounded ingest queue that
//! drops its oldest frame when full (freshest data wins — right for
//! periodic sensor ticks) plus a per-tick processing budget model a
//! saturated service. This is the one queue in the crate that sheds —
//! frames arrive here from outside at a rate the shard does not set,
//! while the [actor runtime](crate::actor)'s queue has no bound. Every
//! shed is surfaced to the caller so the fleet can count and journal
//! it — shedding is loud by design. The two sizes are the caller's
//! ([`ShardConfig`]); the staleness deadline and band widening are the
//! constants below.

use super::envelope::{FrameDecoder, FrameEnvelope, HostId};
use super::observe::{FleetHop, HopStage};
use crate::formula::PowerFormula;
use crate::frame::{PowerBatch, SensorBatch, SensorRow, TickFrame, NO_ROW};
use crate::hierarchy::LeafCells;
use crate::msg::Quality;
use crate::sensor::hpc;
use crate::telemetry::TraceId;
use perf_sim::events::Event;
use simcpu::units::Nanos;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Static shard routing: host → shard index.
pub fn route(host: HostId, shards: usize) -> usize {
    host.0 as usize % shards.max(1)
}

/// Ticks without a fresh frame before a host is marked stale.
pub const STALE_AFTER_TICKS: u64 = 5;

/// Watts added to a stale host's prediction band per tick of additional
/// silence (the band widens as the hold-over ages).
pub const WIDEN_W_PER_TICK: f64 = 0.5;

/// Shard service sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Bound on the ingest queue.
    pub ingest_cap: usize,
    /// Frames one shard may process per fleet tick (models estimator
    /// CPU; the rest waits, building queueing lag).
    pub tick_budget: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            ingest_cap: 256,
            tick_budget: 1024,
        }
    }
}

/// What `ingest` did with an envelope.
#[derive(Debug)]
pub enum IngestOutcome {
    /// Queued for processing.
    Accepted,
    /// The queue was full: the newcomer was queued and the returned
    /// envelope, the oldest queued one, was shed.
    Shed(FrameEnvelope),
}

/// What processing one envelope produced: the frame's journey hop —
/// stage [`HopStage::Apply`] (decoded and applied to the host's track),
/// [`HopStage::Duplicate`] (a duplicate or superseded frame, acked so the
/// sender stops retransmitting it but not applied) or
/// [`HopStage::Corrupt`] (failed checksum or framing; not acked, so the
/// sender's retransmission recovers the data) — plus the envelope's
/// timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessOutcome {
    /// The frame's hop at this shard, on its origin trace.
    pub hop: FleetHop,
    /// Sim-clock timestamp of the original send (for lag).
    pub sent_at: Nanos,
    /// Fleet ticks the envelope waited in the ingest queue (the shard's
    /// service time under its per-tick budget).
    pub queued_ticks: u64,
}

/// Per-host estimator state.
#[derive(Debug, Clone, Copy)]
pub struct HostTrack {
    /// Highest sequence number applied.
    pub last_seq: u64,
    /// Fleet tick of the last applied frame.
    pub last_update: u64,
    /// Last estimated host power (idle floor + active), watts.
    pub power_w: f64,
    /// Prediction-band half-width at the last update, watts.
    pub band_w: f64,
    /// Whether the host is currently past the staleness deadline.
    pub stale: bool,
    /// Origin trace of the last applied frame (provenance).
    pub last_trace: TraceId,
    /// Transmission ordinal of the applied copy (0 = first try) — how
    /// many retransmits the applied frame needed.
    pub last_attempt: u32,
}

/// A host estimate as the shard currently believes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostEstimate {
    /// Estimated host power, watts (held at last-known-good while
    /// stale).
    pub power_w: f64,
    /// Prediction-band half-width, watts (widened while stale).
    pub band_w: f64,
    /// Estimate trustworthiness.
    pub quality: Quality,
}

/// One estimator shard.
pub struct EstimatorShard {
    index: usize,
    cfg: ShardConfig,
    formula: Box<dyn PowerFormula>,
    events: Arc<[Event]>,
    /// (fleet tick of ingest, envelope) — the tick rides along so
    /// processing can report how long the frame queued.
    ingest: VecDeque<(u64, FrameEnvelope)>,
    tracks: BTreeMap<u32, HostTrack>,
    /// Per-host fold of the last applied frame's estimates: the total
    /// feeds the host's track, the leaves its tenant books (none for a
    /// frame without a group section). Kept beside `tracks` so
    /// [`HostTrack`] stays `Copy`.
    books: BTreeMap<u32, LeafCells>,
    /// Per-frame scratch, reused so a warm apply allocates nothing: the
    /// decoder's recycled columns and interned paths, the frame applied
    /// last (refilled in place while this shard holds its only handle),
    /// the row descriptors handed to the formula, and its output columns.
    decoder: FrameDecoder,
    frame: Option<Arc<TickFrame>>,
    rows: Vec<SensorRow>,
    out: Option<PowerBatch>,
}

impl EstimatorShard {
    /// A shard with its own formula instance (cloned from the fleet's
    /// template, like a supervisor rebuilding a formula actor).
    pub fn new(
        index: usize,
        cfg: ShardConfig,
        formula: Box<dyn PowerFormula>,
        events: Arc<[Event]>,
    ) -> EstimatorShard {
        EstimatorShard {
            index,
            cfg,
            formula,
            events,
            ingest: VecDeque::new(),
            tracks: BTreeMap::new(),
            books: BTreeMap::new(),
            decoder: FrameDecoder::new(),
            frame: None,
            rows: Vec::new(),
            out: None,
        }
    }

    /// This shard's index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Frames waiting to be processed.
    pub fn queue_len(&self) -> usize {
        self.ingest.len()
    }

    /// Accepts a delivered envelope at fleet tick `now`, shedding the
    /// oldest queued one when the bounded ingest queue is full.
    pub fn ingest(&mut self, env: FrameEnvelope, now: u64) -> IngestOutcome {
        if self.ingest.len() < self.cfg.ingest_cap {
            self.ingest.push_back((now, env));
            return IngestOutcome::Accepted;
        }
        let (_, old) = self.ingest.pop_front().expect("non-empty at cap");
        self.ingest.push_back((now, env));
        IngestOutcome::Shed(old)
    }

    /// Processes one queued envelope at fleet tick `now`, or `None`
    /// when the queue is empty.
    pub fn process_one(&mut self, now: u64) -> Option<ProcessOutcome> {
        let (ingested_at, env) = self.ingest.pop_front()?;
        let (host, trace, shard) = (env.host, env.trace, self.index as u32);
        let outcome = |stage| ProcessOutcome {
            hop: FleetHop::of(now, &env, stage),
            sent_at: env.sent_at,
            queued_ticks: now.saturating_sub(ingested_at),
        };
        // Decoded into the last applied frame's columns unless something
        // still holds that frame (a formula may keep a batch's frame);
        // then into a block of the decoder's pool. Sealed under this
        // shard's own layout `Arc`, the same one every frame, so the
        // formulas resolve their event slots once.
        let spent = self.frame.as_mut().and_then(Arc::get_mut);
        let sealed = self
            .decoder
            .decode_reusing(&env.payload, spent)
            .and_then(|d| d.seal(self.events.clone()));
        let Ok(sealed) = sealed else {
            return Some(outcome(HopStage::Corrupt { shard }));
        };
        // Back where its columns came from, or into a new `Arc` beside
        // the frame someone else still holds.
        match self.frame.as_mut().and_then(Arc::get_mut) {
            Some(slot) => *slot = sealed,
            None => self.frame = Some(Arc::new(sealed)),
        }
        let frame = self.frame.clone().expect("just stored");
        let known = self.tracks.get(&host.0);
        if let Some(t) = known {
            // Duplicates *and* frames superseded by a newer delivery
            // (reordering) are redundant: ack so the sender stops
            // retransmitting, but keep the newer estimate.
            if env.seq <= t.last_seq {
                return Some(outcome(HopStage::Duplicate { shard }));
            }
        }
        // The staleness flag persists across the apply so the next
        // `refresh_staleness` pass reports the recovery transition.
        let was_stale = known.is_some_and(|t| t.stale);
        // One row per time row with its counters joined in: the wire
        // carries them at the row's own index (zeros for a process that
        // had none). Not `hpc::observe` — that drops busy rows whose
        // counters are all zero, which the shard estimates (0 W with a
        // band).
        let mut rows = std::mem::take(&mut self.rows);
        rows.clear();
        rows.extend((0..frame.time_len()).map(|i| SensorRow {
            pid: frame.time_pid(i),
            hpc: i as u32,
            time: i as u32,
            corun: NO_ROW,
        }));
        let batch = SensorBatch {
            source: hpc::SOURCE,
            frame,
            rows,
            trace,
        };
        let (timestamp, formula) = (batch.timestamp(), self.formula.name());
        let mut out = match self.out.take() {
            Some(mut out) => {
                (out.timestamp, out.formula, out.trace) = (timestamp, formula, trace);
                out.pids.clear();
                out.watts.clear();
                out.band_w.clear();
                out.quality.clear();
                out
            }
            None => PowerBatch::with_capacity(timestamp, formula, trace, batch.rows.len()),
        };
        self.formula.estimate_batch(&batch, Quality::Full, &mut out);
        // The host's previous books are overwritten in place; a host that
        // stopped carrying cgroups must not keep stale tenant attribution.
        let books = self.books.entry(host.0).or_default();
        books.clear();
        let frame = &*batch.frame;
        match frame.has_groups() {
            true => books.fold(&out, Some(frame)),
            false => books.fold_total(&out),
        }
        let total = books.total();
        // Dropping the batch leaves the shard the frame's only holder,
        // unless the formula kept a handle.
        self.rows = batch.rows;
        self.out = Some(out);
        self.tracks.insert(
            host.0,
            HostTrack {
                last_seq: env.seq,
                last_update: now,
                power_w: self.formula.idle_w() + total.power_w,
                band_w: total.band_w,
                stale: was_stale,
                last_trace: trace,
                last_attempt: env.attempt,
            },
        );
        Some(outcome(HopStage::Apply { shard }))
    }

    /// Re-evaluates staleness for every tracked host, appending
    /// `(host, is_now_stale, last_applied_trace)` transitions to `out`
    /// (for journaling — the trace ties the timeout/recovery to the last
    /// frame the shard actually saw from that host).
    pub fn refresh_staleness(&mut self, now: u64, out: &mut Vec<(HostId, bool, TraceId)>) {
        for (&h, t) in self.tracks.iter_mut() {
            let stale = now.saturating_sub(t.last_update) > STALE_AFTER_TICKS;
            if stale != t.stale {
                t.stale = stale;
                out.push((HostId(h), stale, t.last_trace));
            }
        }
    }

    /// The shard's current belief about a host. `None` until the first
    /// frame from that host is applied.
    pub fn estimate(&self, host: HostId, now: u64) -> Option<HostEstimate> {
        let t = self.tracks.get(&host.0)?;
        Some(self.held(t, now, t.power_w, t.band_w))
    }

    /// Hold-and-widen: a value last refreshed by `t`'s frame is held as
    /// is until the staleness deadline, then tagged [`Quality::Stale`]
    /// with its band widened per tick of further silence.
    fn held(&self, t: &HostTrack, now: u64, power_w: f64, band_w: f64) -> HostEstimate {
        let age = now.saturating_sub(t.last_update);
        let (band_w, quality) = if age > STALE_AFTER_TICKS {
            let widened = age - STALE_AFTER_TICKS;
            let band_w = band_w + WIDEN_W_PER_TICK * widened as f64;
            (band_w, Quality::Stale)
        } else {
            (band_w, Quality::Full)
        };
        HostEstimate {
            power_w,
            band_w,
            quality,
        }
    }

    /// The per-host track table (tests, fleet staleness accounting).
    pub fn track(&self, host: HostId) -> Option<&HostTrack> {
        self.tracks.get(&host.0)
    }

    /// This host's active power attributed at or under cgroup node
    /// `path` (no idle floor — idle belongs to the machine root, not to
    /// any tenant). `None` until a grouped frame from that host is
    /// applied, and `None` when the host's last frame had no leaf under
    /// `path` (so absent tenants never degrade a fleet roll-up);
    /// staleness holds and widens exactly like [`EstimatorShard::estimate`].
    pub fn tenant_estimate(&self, host: HostId, now: u64, path: &str) -> Option<HostEstimate> {
        let t = self.tracks.get(&host.0)?;
        let cell = self.books.get(&host.0)?.under(path)?;
        Some(self.held(t, now, cell.power_w, cell.band_w))
    }

    /// Every cgroup leaf path this shard currently attributes power to,
    /// host by host (one entry per host that books it, unsorted).
    pub fn tenant_paths(&self, out: &mut Vec<Arc<str>>) {
        for books in self.books.values() {
            out.extend(books.leaves().map(|(path, _)| path.clone()));
        }
    }
}

impl std::fmt::Debug for EstimatorShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimatorShard")
            .field("index", &self.index)
            .field("queue", &self.ingest.len())
            .field("tracked_hosts", &self.tracks.len())
            .field("formula", &self.formula.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::envelope::encode_frame;
    use crate::formula::per_freq::PerFrequencyFormula;
    use crate::frame::FrameBuilder;
    use os_sim::process::Pid;

    /// One encoded frame of `(pid, busy ms, cgroup)` rows in `events`'
    /// layout (no counter rows, so the wire carries zeros).
    fn payload_of(rows: &[(u32, u64, Option<&str>)], events: &[Event]) -> Vec<u8> {
        let mut b = FrameBuilder::new();
        for &(pid, busy_ms, group) in rows {
            b.push_time_row(Pid(pid), Nanos::from_millis(busy_ms), |_| {});
            b.set_time_group(group);
        }
        let frame = b.finish(
            Nanos::from_secs(1),
            Nanos::from_millis(1000),
            Arc::from(events),
            None,
        );
        encode_frame(&frame)
    }

    fn frame_payload(busy_ms: u64) -> Vec<u8> {
        payload_of(&[(1, busy_ms, None)], &[])
    }

    fn envelope(host: u32, seq: u64, busy_ms: u64) -> FrameEnvelope {
        FrameEnvelope {
            host: HostId(host),
            seq,
            sent_at: Nanos(seq * 1_000),
            trace: TraceId(seq + 100),
            attempt: 0,
            payload: frame_payload(busy_ms),
        }
    }

    fn shard(cfg: ShardConfig) -> EstimatorShard {
        EstimatorShard::new(
            0,
            cfg,
            Box::new(PerFrequencyFormula::cpu_load(30.0, 10.0)),
            Arc::from([] as [Event; 0]),
        )
    }

    #[test]
    fn routing_is_stable_modulo() {
        assert_eq!(route(HostId(0), 4), 0);
        assert_eq!(route(HostId(7), 4), 3);
        assert_eq!(route(HostId(9), 1), 0);
        assert_eq!(
            route(HostId(9), 0),
            0,
            "zero shards must not divide by zero"
        );
    }

    #[test]
    fn applies_estimates_and_acks_duplicates() {
        let mut s = shard(ShardConfig::default());
        assert!(matches!(
            s.ingest(envelope(2, 0, 500), 0),
            IngestOutcome::Accepted
        ));
        let out = s.process_one(1).unwrap();
        assert_eq!(
            out,
            ProcessOutcome {
                hop: FleetHop {
                    tick: 1,
                    host: HostId(2),
                    seq: 0,
                    trace: TraceId(100),
                    attempt: 0,
                    stage: HopStage::Apply { shard: 0 },
                },
                sent_at: Nanos(0),
                queued_ticks: 1,
            }
        );
        let track = s.track(HostId(2)).unwrap();
        assert_eq!(track.last_trace, TraceId(100), "provenance sticks");
        assert_eq!(track.last_attempt, 0);
        let est = s.estimate(HostId(2), 1).unwrap();
        assert!((est.power_w - 35.0).abs() < 1e-9, "idle 30 + 10·0.5 load");
        assert_eq!(est.quality, Quality::Full);
        // The same seq again: duplicate, estimate untouched.
        s.ingest(envelope(2, 0, 900), 2);
        let hop = s.process_one(2).unwrap().hop;
        assert!(matches!(
            hop,
            FleetHop {
                trace: TraceId(100),
                stage: HopStage::Duplicate { .. },
                ..
            }
        ));
        assert!((s.estimate(HostId(2), 2).unwrap().power_w - 35.0).abs() < 1e-9);
    }

    #[test]
    fn corrupt_payload_is_counted_not_applied() {
        let mut s = shard(ShardConfig::default());
        let mut env = envelope(1, 0, 500);
        let mid = env.payload.len() / 2;
        env.payload[mid] ^= 0x10;
        s.ingest(env, 0);
        let hop = s.process_one(1).unwrap().hop;
        assert!(matches!(
            hop,
            FleetHop {
                trace: TraceId(100),
                stage: HopStage::Corrupt { .. },
                ..
            }
        ));
        assert!(s.estimate(HostId(1), 1).is_none());
    }

    #[test]
    fn well_checksummed_but_mismatched_payloads_are_corrupt() {
        let mut s = shard(ShardConfig::default());
        // A sender counting one event against this shard's none: its
        // rows must not be read against the wrong columns.
        let wide = payload_of(&[(1, 500, None)], &[perf_sim::events::PAPER_EVENTS[0]]);
        // A group index pointing outside the payload's one-path table
        // (the body ends in the per-row indices), checksum recomputed.
        let grouped = payload_of(&[(1, 500, Some("tenant-a"))], &[]);
        let mut stray = grouped[..grouped.len() - 8].to_vec();
        let last = stray.len() - 4;
        stray[last..].copy_from_slice(&7u32.to_le_bytes());
        let sum = crate::fleet::envelope::wire_sum(&stray);
        stray.extend_from_slice(&sum.to_le_bytes());
        for (seq, payload) in [wide, stray].into_iter().enumerate() {
            let env = FrameEnvelope {
                payload,
                ..envelope(1, seq as u64, 0)
            };
            s.ingest(env, 0);
            let out = s.process_one(1).map(|o| o.hop);
            assert!(
                matches!(out, Some(FleetHop { seq: got, stage: HopStage::Corrupt { .. }, .. }) if got == seq as u64),
                "{out:?}"
            );
            assert!(s.estimate(HostId(1), 1).is_none(), "never applied");
        }
        // The untampered grouped payload applies.
        let env = FrameEnvelope {
            payload: grouped,
            ..envelope(1, 2, 0)
        };
        s.ingest(env, 1);
        assert!(matches!(
            s.process_one(1).map(|o| o.hop.stage),
            Some(HopStage::Apply { .. })
        ));
        assert!(s.tenant_estimate(HostId(1), 1, "tenant-a").is_some());
    }

    /// 1 W for every odd pid; even pids are inestimable.
    struct OddPidsOnly;
    impl PowerFormula for OddPidsOnly {
        fn name(&self) -> &'static str {
            "odd-pids-only"
        }
        fn idle_w(&self) -> f64 {
            0.0
        }
        fn estimate(&mut self, r: &crate::msg::SensorReport) -> Option<simcpu::units::Watts> {
            (r.pid.0 % 2 == 1).then_some(simcpu::units::Watts(1.0))
        }
        fn boxed_clone(&self) -> Box<dyn PowerFormula> {
            Box::new(OddPidsOnly)
        }
    }

    #[test]
    fn skipped_rows_do_not_shift_tenant_attribution() {
        let mut s = EstimatorShard::new(
            0,
            ShardConfig::default(),
            Box::new(OddPidsOnly),
            Arc::from([] as [Event; 0]),
        );
        let rows = [
            (1, 500, Some("tenant-a")),
            (2, 500, Some("tenant-a")),
            (3, 500, Some("tenant-b")),
        ];
        let env = FrameEnvelope {
            payload: payload_of(&rows, &[]),
            ..envelope(0, 0, 0)
        };
        s.ingest(env, 0);
        s.process_one(0);
        // The second estimate is pid 3's, not the second row's.
        for tenant in ["tenant-a", "tenant-b"] {
            let est = s.tenant_estimate(HostId(0), 0, tenant).unwrap();
            assert_eq!(est.power_w, 1.0, "{tenant}");
        }
    }

    /// Busy seconds as watts, keeping a handle to every frame it is
    /// handed.
    struct Retaining(Arc<std::sync::Mutex<Vec<Arc<TickFrame>>>>);
    impl PowerFormula for Retaining {
        fn name(&self) -> &'static str {
            "retaining"
        }
        fn idle_w(&self) -> f64 {
            0.0
        }
        fn estimate(&mut self, r: &crate::msg::SensorReport) -> Option<simcpu::units::Watts> {
            Some(simcpu::units::Watts(r.time.busy.as_secs_f64()))
        }
        fn estimate_batch(&mut self, batch: &SensorBatch, quality: Quality, out: &mut PowerBatch) {
            self.0.lock().unwrap().push(batch.frame.clone());
            crate::formula::estimate_row_by_row(self, batch, quality, out);
        }
        fn boxed_clone(&self) -> Box<dyn PowerFormula> {
            Box::new(Retaining(self.0.clone()))
        }
    }

    #[test]
    fn a_frame_the_formula_kept_is_never_refilled() {
        let kept = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut s = EstimatorShard::new(
            0,
            ShardConfig::default(),
            Box::new(Retaining(kept.clone())),
            Arc::from([] as [Event; 0]),
        );
        for (seq, busy_ms) in [(0, 100), (1, 200), (2, 300)] {
            s.ingest(envelope(4, seq, busy_ms), seq);
            assert!(matches!(
                s.process_one(seq).map(|o| o.hop.stage),
                Some(HopStage::Apply { .. })
            ));
            let est = s.estimate(HostId(4), seq).unwrap();
            assert!((est.power_w - busy_ms as f64 / 1000.0).abs() < 1e-12);
        }
        let busy: Vec<_> = kept.lock().unwrap().iter().map(|f| f.busy(0)).collect();
        let want = [100, 200, 300].map(Nanos::from_millis);
        assert_eq!(busy, want, "each kept frame still holds its own payload");
    }

    #[test]
    fn stale_hosts_hold_value_and_widen_band() {
        let mut s = shard(ShardConfig::default());
        s.ingest(envelope(3, 0, 1000), 1);
        s.process_one(1);
        let deadline = 1 + STALE_AFTER_TICKS;
        let fresh = s.estimate(HostId(3), deadline).unwrap();
        assert_eq!(fresh.quality, Quality::Full, "fresh up to the deadline");
        let stale = s.estimate(HostId(3), deadline + 3).unwrap();
        assert_eq!(stale.quality, Quality::Stale);
        assert!((stale.power_w - fresh.power_w).abs() < 1e-12, "hold-over");
        assert!(
            (stale.band_w - (fresh.band_w + WIDEN_W_PER_TICK * 3.0)).abs() < 1e-9,
            "band widens per tick past the deadline"
        );
        let mut transitions = Vec::new();
        s.refresh_staleness(deadline, &mut transitions);
        assert!(transitions.is_empty(), "not stale at the deadline itself");
        s.refresh_staleness(deadline + 1, &mut transitions);
        assert_eq!(transitions, vec![(HostId(3), true, TraceId(100))]);
        transitions.clear();
        s.refresh_staleness(deadline + 2, &mut transitions);
        assert!(transitions.is_empty(), "transition fires once");
        // A fresh frame recovers the host.
        s.ingest(envelope(3, 1, 1000), deadline + 3);
        s.process_one(deadline + 3);
        s.refresh_staleness(deadline + 3, &mut transitions);
        assert_eq!(transitions, vec![(HostId(3), false, TraceId(101))]);
    }

    #[test]
    fn tenant_attribution_follows_grouped_frames() {
        let mut s = shard(ShardConfig::default());
        // Two tenants plus one ungrouped pid; formula idle 30 + 10·load.
        let rows = [
            (1, 400, Some("tenant-a/svc-web")),
            (2, 200, Some("tenant-a/svc-db")),
            (3, 100, Some("tenant-b")),
            (4, 300, None),
        ];
        let env = FrameEnvelope {
            payload: payload_of(&rows, &[]),
            ..envelope(0, 0, 0)
        };
        s.ingest(env, 0);
        s.process_one(1);

        // Subtree query rolls svc-web + svc-db into tenant-a.
        let a = s.tenant_estimate(HostId(0), 1, "tenant-a").unwrap();
        assert!(
            (a.power_w - 6.0).abs() < 1e-9,
            "10·(0.4+0.2), got {}",
            a.power_w
        );
        assert_eq!(a.quality, Quality::Full);
        let web = s.tenant_estimate(HostId(0), 1, "tenant-a/svc-web").unwrap();
        assert!((web.power_w - 4.0).abs() < 1e-9);
        let b_est = s.tenant_estimate(HostId(0), 1, "tenant-b").unwrap();
        assert!((b_est.power_w - 1.0).abs() < 1e-9);
        // Prefix matching is segment-aware: "tenant-" matches nothing.
        assert!(s.tenant_estimate(HostId(0), 1, "tenant-").is_none());
        // The ungrouped pid lands in the catch-all, so the per-host
        // ledger closes: Σ tenants + catch-all == track − idle.
        let misc = s
            .tenant_estimate(HostId(0), 1, crate::hierarchy::UNGROUPED)
            .unwrap();
        let total = a.power_w + b_est.power_w + misc.power_w;
        assert!(
            (total - (s.track(HostId(0)).unwrap().power_w - 30.0)).abs() < 1e-9,
            "no watt escapes the ledger"
        );

        // Staleness holds the tenant value and degrades quality.
        let later = 1 + STALE_AFTER_TICKS + 1;
        let held = s.tenant_estimate(HostId(0), later, "tenant-a").unwrap();
        assert_eq!(held.quality, Quality::Stale);
        assert!((held.power_w - a.power_w).abs() < 1e-12, "hold-over");
        assert!(held.band_w > a.band_w, "stale bands widen");

        // An ungrouped follow-up frame clears the tenant books.
        s.ingest(envelope(0, 1, 500), later);
        s.process_one(later);
        assert!(s.tenant_estimate(HostId(0), later, "tenant-a").is_none());
        let mut paths = Vec::new();
        s.tenant_paths(&mut paths);
        assert!(paths.is_empty());
    }

    #[test]
    fn overflow_sheds_the_oldest_frame() {
        let cfg = ShardConfig {
            ingest_cap: 2,
            ..ShardConfig::default()
        };
        let mut s = shard(cfg);
        s.ingest(envelope(0, 0, 100), 0);
        s.ingest(envelope(0, 1, 100), 0);
        match s.ingest(envelope(0, 2, 100), 0) {
            IngestOutcome::Shed(old) => assert_eq!(old.seq, 0, "oldest shed first"),
            IngestOutcome::Accepted => panic!("expected shed"),
        }
        assert_eq!(s.queue_len(), 2, "the newcomer took the freed slot");
        let queued: Vec<u64> = std::iter::from_fn(|| s.process_one(1))
            .map(|o| match o.hop.stage {
                HopStage::Apply { .. } | HopStage::Duplicate { .. } => o.hop.seq,
                _ => panic!("intact frames"),
            })
            .collect();
        assert_eq!(queued, vec![1, 2]);
    }
}
