//! The fleet observability plane: per-frame journey logging (the hop
//! records behind the Chrome-trace fleet tracks), lag SLO tracking with
//! error-budget burn alerts, and estimate provenance for "why does the
//! fleet believe this number" queries.
//!
//! Everything here is passive bookkeeping over what the fleet already
//! does — recording a hop never changes a fault decision, a delivery
//! schedule or an estimate, so enabling observability cannot perturb
//! the simulation (the e1–e13 goldens stay bit-identical).

use super::envelope::{FrameEnvelope, HostId};
use crate::telemetry::export::{escape_json, parse_json, Json};
use crate::telemetry::TraceId;
use std::collections::VecDeque;

/// Where a transmission is in its journey. Shard-side stages carry the
/// shard index so the reconstructed track names where the frame landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopStage {
    /// The host produced the frame and allocated its sequence number.
    Produce,
    /// A transmission entered the link (fresh send or retransmit — the
    /// hop's `attempt` tells them apart).
    Send,
    /// The transmission was lost to a link-fault drop.
    DropFault,
    /// The transmission was severed by a partition window.
    DropPartition,
    /// The transmission was lost to a full link queue.
    DropQueue,
    /// The frame died at a dark host before reaching its link.
    HostDark,
    /// The frame was shed from the sender backlog (credit starvation).
    SenderShed,
    /// The frame was shed at shard ingest (overflow policy).
    ShardShed {
        /// The shedding shard.
        shard: u32,
    },
    /// The frame was decoded and applied to its host track.
    Apply {
        /// The applying shard.
        shard: u32,
    },
    /// The frame was acked but discarded as duplicate/superseded.
    Duplicate {
        /// The discarding shard.
        shard: u32,
    },
    /// The payload failed checksum at the shard.
    Corrupt {
        /// The rejecting shard.
        shard: u32,
    },
    /// The sender abandoned the frame after exhausting its retransmit
    /// budget.
    Abandon,
}

impl HopStage {
    /// Stable label (Chrome-trace event name, journey reconstruction
    /// key).
    pub fn label(&self) -> &'static str {
        match self {
            HopStage::Produce => "produce",
            HopStage::Send => "send",
            HopStage::DropFault => "drop-fault",
            HopStage::DropPartition => "drop-partition",
            HopStage::DropQueue => "drop-queue",
            HopStage::HostDark => "host-dark",
            HopStage::SenderShed => "sender-shed",
            HopStage::ShardShed { .. } => "shard-shed",
            HopStage::Apply { .. } => "apply",
            HopStage::Duplicate { .. } => "duplicate",
            HopStage::Corrupt { .. } => "corrupt",
            HopStage::Abandon => "abandon",
        }
    }

    /// The shard index, for shard-side stages.
    pub fn shard(&self) -> Option<u32> {
        match self {
            HopStage::ShardShed { shard }
            | HopStage::Apply { shard }
            | HopStage::Duplicate { shard }
            | HopStage::Corrupt { shard } => Some(*shard),
            _ => None,
        }
    }
}

/// One hop in one frame's journey through the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetHop {
    /// Fleet tick at which the hop happened.
    pub tick: u64,
    /// The frame's origin host.
    pub host: HostId,
    /// The frame's per-host sequence number.
    pub seq: u64,
    /// The frame's origin tick trace (shared by every copy).
    pub trace: TraceId,
    /// Which transmission the hop belongs to (0 = first send).
    pub attempt: u32,
    /// What happened.
    pub stage: HopStage,
}

impl FleetHop {
    /// The hop `env`'s frame makes at fleet tick `tick`, on the
    /// transmission the envelope's `attempt` names.
    pub(crate) fn of(tick: u64, env: &FrameEnvelope, stage: HopStage) -> FleetHop {
        FleetHop {
            tick,
            host: env.host,
            seq: env.seq,
            trace: env.trace,
            attempt: env.attempt,
            stage,
        }
    }
}

/// A bounded log of fleet hops. When full it evicts the *oldest* hops
/// (recent journeys matter most in a post-mortem) and counts what it
/// lost — eviction is loud, never silent.
#[derive(Debug)]
pub struct JourneyLog {
    hops: VecDeque<FleetHop>,
    cap: usize,
    evicted: u64,
    enabled: bool,
}

/// Default hop capacity: enough for every e12/e14 arm without eviction.
pub const JOURNEY_CAP: usize = 262_144;

impl JourneyLog {
    /// An empty log bounded at `cap` hops, with room for the first few
    /// thousand up front (grown from nothing, a 3 000-hop run re-copied
    /// its log a dozen times).
    pub fn new(cap: usize) -> JourneyLog {
        JourneyLog {
            hops: VecDeque::with_capacity(cap.min(4096)),
            cap: cap.max(1),
            evicted: 0,
            enabled: true,
        }
    }

    /// A log that records nothing — what a fleet built against a
    /// disabled telemetry hub uses, so switching tracing off really
    /// takes journey capture off the hot path too.
    pub fn disabled() -> JourneyLog {
        JourneyLog {
            hops: VecDeque::new(),
            cap: 1,
            evicted: 0,
            enabled: false,
        }
    }

    /// Records one hop, evicting the oldest when full.
    pub fn record(&mut self, hop: FleetHop) {
        if !self.enabled {
            return;
        }
        if self.hops.len() >= self.cap {
            self.hops.pop_front();
            self.evicted += 1;
        }
        self.hops.push_back(hop);
    }

    /// Hops recorded and still held, oldest first.
    pub fn hops(&self) -> impl Iterator<Item = &FleetHop> {
        self.hops.iter()
    }

    /// Hops held (≤ cap).
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Hops lost to eviction so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// A contiguous snapshot for the exporters.
    pub fn snapshot(&self) -> Vec<FleetHop> {
        self.hops.iter().copied().collect()
    }
}

impl Default for JourneyLog {
    fn default() -> JourneyLog {
        JourneyLog::new(JOURNEY_CAP)
    }
}

/// Applied-frame lag at or under this many ticks meets the lag SLO.
pub const LAG_TARGET_TICKS: u64 = 8;

/// Sliding window, in ticks, over which the SLO burn rate is judged.
pub const BURN_WINDOW_TICKS: u64 = 16;

/// A declared lag service-level objective: how much violation it
/// tolerates. The target itself and the burn window are
/// [`LAG_TARGET_TICKS`] and [`BURN_WINDOW_TICKS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Violating samples tolerated over the whole run before the budget
    /// is exhausted.
    pub error_budget: u64,
    /// Violations inside one window that raise a burn-rate alert.
    pub burn_alert_violations: u64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            error_budget: 64,
            burn_alert_violations: 8,
        }
    }
}

/// What one tick of SLO accounting concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloTickOutcome {
    /// `Some(window_violations)` when the burn rate crossed the alert
    /// threshold this tick (rate-limited to one alert per window span).
    pub burn_alert: Option<u64>,
    /// True exactly once: the tick the cumulative violations first
    /// exceeded the error budget.
    pub exhausted_now: bool,
}

/// Tracks a lag SLO over applied-frame samples: cumulative error-budget
/// spend plus a sliding-window burn rate. Deterministic — same samples,
/// same alerts.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    /// (tick, violations that tick), oldest first; pruned to the burn
    /// window.
    window: VecDeque<(u64, u64)>,
    pending_tick_violations: u64,
    total_samples: u64,
    total_violations: u64,
    exhausted: bool,
    last_alert_tick: Option<u64>,
    alerts: u64,
}

impl SloTracker {
    /// A fresh tracker for one declared SLO.
    pub fn new(cfg: SloConfig) -> SloTracker {
        SloTracker {
            cfg,
            window: VecDeque::new(),
            pending_tick_violations: 0,
            total_samples: 0,
            total_violations: 0,
            exhausted: false,
            last_alert_tick: None,
            alerts: 0,
        }
    }

    /// Feeds one applied-frame lag sample (ticks).
    pub fn observe(&mut self, lag_ticks: u64) {
        self.total_samples += 1;
        if lag_ticks > LAG_TARGET_TICKS {
            self.total_violations += 1;
            self.pending_tick_violations += 1;
        }
    }

    /// Closes tick `now`: folds the tick's violations into the sliding
    /// window, prunes the window, and reports alerts.
    pub fn end_tick(&mut self, now: u64) -> SloTickOutcome {
        let v = std::mem::take(&mut self.pending_tick_violations);
        if v > 0 {
            self.window.push_back((now, v));
        }
        let horizon = now.saturating_sub(BURN_WINDOW_TICKS);
        while self.window.front().is_some_and(|&(t, _)| t <= horizon) {
            self.window.pop_front();
        }
        let window_violations: u64 = self.window.iter().map(|&(_, v)| v).sum();
        let alert_due = window_violations >= self.cfg.burn_alert_violations.max(1)
            && self
                .last_alert_tick
                .is_none_or(|t| now >= t + BURN_WINDOW_TICKS);
        let burn_alert = if alert_due {
            self.last_alert_tick = Some(now);
            self.alerts += 1;
            Some(window_violations)
        } else {
            None
        };
        let exhausted_now = !self.exhausted && self.total_violations > self.cfg.error_budget;
        if exhausted_now {
            self.exhausted = true;
        }
        SloTickOutcome {
            burn_alert,
            exhausted_now,
        }
    }

    /// Lag samples observed.
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Samples that violated the target.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// Whether the budget has been exhausted.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Burn-rate alerts raised so far.
    pub fn alerts(&self) -> u64 {
        self.alerts
    }
}

/// One host's contribution to a fleet tenant estimate, with the full
/// provenance chain back to the frame the shard applied.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameProvenance {
    /// The contributing host.
    pub host: u32,
    /// The shard holding the host's track.
    pub shard: u32,
    /// Origin tick trace of the last applied frame (raw id).
    pub trace: u64,
    /// Sequence number of the last applied frame.
    pub seq: u64,
    /// Fleet tick at which the frame was applied.
    pub applied_tick: u64,
    /// Ticks since the last applied frame, at the query tick.
    pub staleness_ticks: u64,
    /// Whether the host is past its staleness deadline.
    pub stale: bool,
    /// Estimate trustworthiness label (`full` | `stale`).
    pub quality: String,
    /// Retransmits the applied copy needed (transmission ordinal).
    pub retransmits: u32,
    /// Watts this host attributes to the queried subtree.
    pub power_w: f64,
    /// Prediction-band half-width of that attribution, watts.
    pub band_w: f64,
}

/// The answer to "why does the fleet believe this tenant number":
/// which host frames contributed, how fresh each was, and what it took
/// to deliver them. Round-trips exactly through [`Self::to_json`] /
/// [`Self::from_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceReport {
    /// The queried cgroup subtree path.
    pub path: String,
    /// The fleet tick the query was evaluated at.
    pub tick: u64,
    /// Total attributed power, watts (sum of contributors).
    pub power_w: f64,
    /// Total prediction-band half-width, watts.
    pub band_w: f64,
    /// Per-host provenance, host-ascending.
    pub hosts: Vec<FrameProvenance>,
}

/// Formats an f64 through Rust's shortest-round-trip `Display`, so
/// `from_json(to_json(x)) == x` bit-for-bit.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        // Keep a decimal point so the value reads as a float.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

impl ProvenanceReport {
    /// Serializes the report as one JSON object (stable key order).
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(128 + self.hosts.len() * 160);
        write!(
            out,
            "{{\"path\":\"{}\",\"tick\":{},\"power_w\":{},\"band_w\":{},\"hosts\":[",
            escape_json(&self.path),
            self.tick,
            fmt_f64(self.power_w),
            fmt_f64(self.band_w),
        )
        .expect("write to string");
        for (i, h) in self.hosts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"host\":{},\"shard\":{},\"trace\":{},\"seq\":{},\"applied_tick\":{},\
                 \"staleness_ticks\":{},\"stale\":{},\"quality\":\"{}\",\"retransmits\":{},\
                 \"power_w\":{},\"band_w\":{}}}",
                h.host,
                h.shard,
                h.trace,
                h.seq,
                h.applied_tick,
                h.staleness_ticks,
                h.stale,
                escape_json(&h.quality),
                h.retransmits,
                fmt_f64(h.power_w),
                fmt_f64(h.band_w),
            )
            .expect("write to string");
        }
        out.push_str("]}");
        out
    }

    /// Parses a report back from [`Self::to_json`] output. Returns
    /// `None` on any structural mismatch.
    pub fn from_json(text: &str) -> Option<ProvenanceReport> {
        let doc = parse_json(text).ok()?;
        let hosts = doc
            .get("hosts")?
            .as_array()?
            .iter()
            .map(|h| {
                Some(FrameProvenance {
                    host: h.get("host")?.as_u64()? as u32,
                    shard: h.get("shard")?.as_u64()? as u32,
                    trace: h.get("trace")?.as_u64()?,
                    seq: h.get("seq")?.as_u64()?,
                    applied_tick: h.get("applied_tick")?.as_u64()?,
                    staleness_ticks: h.get("staleness_ticks")?.as_u64()?,
                    stale: matches!(h.get("stale")?, Json::Bool(true)),
                    quality: h.get("quality")?.as_str()?.to_string(),
                    retransmits: h.get("retransmits")?.as_u64()? as u32,
                    power_w: h.get("power_w")?.as_f64()?,
                    band_w: h.get("band_w")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ProvenanceReport {
            path: doc.get("path")?.as_str()?.to_string(),
            tick: doc.get("tick")?.as_u64()?,
            power_w: doc.get("power_w")?.as_f64()?,
            band_w: doc.get("band_w")?.as_f64()?,
            hosts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journey_log_evicts_oldest_loudly() {
        let mut log = JourneyLog::new(3);
        for seq in 0..5u64 {
            log.record(FleetHop {
                tick: seq,
                host: HostId(0),
                seq,
                trace: TraceId(seq + 1),
                attempt: 0,
                stage: HopStage::Produce,
            });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        let seqs: Vec<u64> = log.hops().map(|h| h.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest hops evicted first");
    }

    #[test]
    fn hop_stage_labels_and_shards() {
        assert_eq!(HopStage::Apply { shard: 2 }.label(), "apply");
        assert_eq!(HopStage::Apply { shard: 2 }.shard(), Some(2));
        assert_eq!(HopStage::Send.shard(), None);
    }

    #[test]
    fn slo_burn_alert_rate_limits_per_window() {
        let mut t = SloTracker::new(SloConfig {
            error_budget: 1000,
            burn_alert_violations: 2,
        });
        // Two violations per tick — the alert fires at tick 1 and again
        // no earlier than one burn window later.
        let ticks = BURN_WINDOW_TICKS + 2;
        let mut alerts = Vec::new();
        for now in 1..=ticks {
            t.observe(LAG_TARGET_TICKS + 1);
            t.observe(LAG_TARGET_TICKS + 2);
            t.observe(LAG_TARGET_TICKS); // in-target sample spends no budget
            let out = t.end_tick(now);
            if out.burn_alert.is_some() {
                alerts.push(now);
            }
        }
        assert_eq!(
            alerts,
            vec![1, 1 + BURN_WINDOW_TICKS],
            "one alert per window span"
        );
        assert_eq!(t.alerts(), 2);
        assert_eq!(t.total_samples(), 3 * ticks);
        assert_eq!(t.total_violations(), 2 * ticks);
        assert!(!t.exhausted());
    }

    #[test]
    fn slo_budget_exhausts_exactly_once() {
        let mut t = SloTracker::new(SloConfig {
            error_budget: 3,
            burn_alert_violations: 100,
        });
        let mut fired = 0;
        for now in 1..=6u64 {
            t.observe(LAG_TARGET_TICKS + 1);
            if t.end_tick(now).exhausted_now {
                fired += 1;
                assert_eq!(now, 4, "budget 3 exhausts on the 4th violation");
            }
        }
        assert_eq!(fired, 1, "exhaustion reports once");
        assert!(t.exhausted());
    }

    #[test]
    fn provenance_report_round_trips_exactly() {
        let report = ProvenanceReport {
            path: "tenant-a/svc-web".to_string(),
            tick: 42,
            power_w: 12.625,
            band_w: 0.30000000000000004,
            hosts: vec![
                FrameProvenance {
                    host: 0,
                    shard: 0,
                    trace: 7,
                    seq: 41,
                    applied_tick: 42,
                    staleness_ticks: 0,
                    stale: false,
                    quality: "full".to_string(),
                    retransmits: 0,
                    power_w: 6.5,
                    band_w: 0.1,
                },
                FrameProvenance {
                    host: 3,
                    shard: 1,
                    trace: 9,
                    seq: 38,
                    applied_tick: 39,
                    staleness_ticks: 3,
                    stale: true,
                    quality: "stale".to_string(),
                    retransmits: 2,
                    power_w: 6.125,
                    band_w: 0.20000000000000004,
                },
            ],
        };
        let json = report.to_json();
        let back = ProvenanceReport::from_json(&json).expect("parse back");
        assert_eq!(back, report, "exact round-trip, floats included");
        // And the serialization is a fixed point.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn provenance_rejects_malformed_documents() {
        assert!(ProvenanceReport::from_json("{}").is_none());
        assert!(ProvenanceReport::from_json("not json").is_none());
        assert!(
            ProvenanceReport::from_json("{\"path\":\"x\",\"tick\":1,\"power_w\":0.0}").is_none()
        );
    }
}
