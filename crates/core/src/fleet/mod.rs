//! The fleet transport layer: N simulated hosts streaming batched tick
//! frames over fault-injected links to a sharded central estimator —
//! the paper's two-stage deployment (distributed sensors, central
//! formula service) scaled out, with the robustness machinery a real
//! network forces: retry/backoff, credit-based flow control, staleness
//! fallback, and loud load shedding.
//!
//! ## Topology
//!
//! ```text
//!  host 0 ──[SimHost → TickFrame → envelope]──┐
//!  host 1 ──────── link (latency, jitter, ────┤    shard 0 (hosts ≡ 0 mod S)
//!    ⋮        drop/dup/reorder/corrupt/       ├──▶ shard 1 (hosts ≡ 1 mod S)
//!  host N ──────── partition, host-dark) ─────┘      ⋮  bounded ingest +
//!            ◀─ acks (credits) ─ ▲                       tick budget +
//!                                └────────────────── drop-oldest sheds
//! ```
//!
//! ## Determinism
//!
//! The whole fleet is a single-threaded, tick-stepped simulation: hosts
//! produce, links deliver, shards process — in fixed order within each
//! [`Fleet::tick`]. Fault decisions are pure functions of the seeded
//! [`LinkFaultPlan`] (no shared RNG state), so every counter in
//! [`FleetStats`] reproduces bit-identically run over run — which is
//! what lets the e12 bench assert *exact* frame accounting: every frame
//! produced is eventually applied, counted as dropped/shed/abandoned,
//! or still visibly queued. Nothing is lost silently.

pub mod envelope;
pub mod fault;
pub mod link;
pub mod observe;
pub mod retry;
pub mod shard;

pub use envelope::{
    decode_frame, encode_frame, DecodedFrame, FrameDecoder, FrameEnvelope, HostId, WireError,
};
pub use fault::{LinkFaultConfig, LinkFaultKind, LinkFaultPlan, LinkWindow};
pub use link::{Link, LinkConfig, SendOutcome};
pub use observe::{
    FleetHop, FrameProvenance, HopStage, JourneyLog, ProvenanceReport, SloConfig, SloTickOutcome,
    SloTracker,
};
pub use retry::{Pending, SenderState};
pub use shard::{EstimatorShard, HostEstimate, IngestOutcome, ProcessOutcome, ShardConfig};

use crate::formula::PowerFormula;
use crate::frame::{FramePool, TickFrame};
use crate::host::SimHost;
use crate::msg::Quality;
use crate::telemetry::journal::Text;
use crate::telemetry::{
    EventKind, Histogram, MetricsRegistry, Telemetry, TraceId, COUNT_BOUNDS, TICK_BOUNDS,
};
use perf_sim::events::Event;
use simcpu::units::Nanos;
use std::sync::Arc;

/// Where a host's frames come from, one per fleet tick.
pub trait FrameSource: Send {
    /// Advances the host one monitoring interval and harvests its frame.
    fn produce(&mut self, pool: &FramePool) -> TickFrame;
    /// True machine power at the end of the interval, watts (the ground
    /// truth the bench scores the fleet estimate against).
    fn truth_w(&self) -> f64;
}

/// The production source: a full simcpu/os-sim host (PR 6's
/// [`SimHost::snapshot_frame`] batching) stepped `steps` quanta per
/// fleet tick.
pub struct SimHostSource {
    host: SimHost,
    quantum: Nanos,
    steps: u32,
}

impl SimHostSource {
    /// Wraps a host; each fleet tick advances it `steps × quantum`.
    pub fn new(host: SimHost, quantum: Nanos, steps: u32) -> SimHostSource {
        SimHostSource {
            host,
            quantum,
            steps: steps.max(1),
        }
    }

    /// The wrapped host.
    pub fn host(&self) -> &SimHost {
        &self.host
    }
}

impl FrameSource for SimHostSource {
    fn produce(&mut self, pool: &FramePool) -> TickFrame {
        for _ in 0..self.steps {
            self.host.step(self.quantum);
        }
        self.host.snapshot_frame(pool)
    }

    fn truth_w(&self) -> f64 {
        self.host.kernel().machine().last_power().as_f64()
    }
}

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of estimator shards.
    pub shards: usize,
    /// Sim-clock length of one fleet tick (stamps envelopes and the
    /// journal; lags are measured in ticks).
    pub tick: Nanos,
    /// The fleet-wide counter slot layout (both ends of the wire agree
    /// on it out of band, like a protocol version).
    pub events: Vec<Event>,
    /// Link transport knobs (shared by every link).
    pub link: LinkConfig,
    /// Shard service sizes.
    pub shard: ShardConfig,
    /// The network fault schedule.
    pub fault: LinkFaultPlan,
    /// The declared lag SLO (burn-rate alerts and budget accounting
    /// journal against it; see [`observe::SloTracker`]).
    pub slo: SloConfig,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            tick: Nanos::from_millis(1000),
            events: Vec::new(),
            link: LinkConfig::default(),
            shard: ShardConfig::default(),
            fault: LinkFaultPlan::none(),
            slo: SloConfig::default(),
        }
    }
}

/// Every frame-level tally the fleet keeps. All counters are exact and
/// deterministic; [`Fleet::conservation`] proves they reconcile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Frames produced by hosts.
    pub produced: u64,
    /// Link transmissions attempted (fresh + retransmits).
    pub transmissions: u64,
    /// Retransmissions among `transmissions`.
    pub retransmits: u64,
    /// Extra in-flight copies injected by duplicate faults.
    pub dup_injected: u64,
    /// Transmissions lost to link-fault drops.
    pub dropped_fault: u64,
    /// Transmissions severed by partition windows.
    pub dropped_partition: u64,
    /// Transmissions lost to a full link queue.
    pub dropped_queue: u64,
    /// Frames lost at a dark host before reaching its link.
    pub dark_lost: u64,
    /// Frames shed from sender backlogs (credit starvation).
    pub sender_shed: u64,
    /// Frames shed at shard ingest (overflow policy).
    pub shard_shed: u64,
    /// Deliveries that failed checksum at the shard.
    pub corrupt_frames: u64,
    /// Deliveries decoded and applied to a host track.
    pub applied: u64,
    /// Deliveries acked but discarded as duplicate/superseded.
    pub dup_discarded: u64,
    /// Frames abandoned after exhausting the retransmit budget.
    pub abandoned: u64,
    /// Frames released by a delivered ack.
    pub acked: u64,
    /// Acks queued shard → sender.
    pub acks_sent: u64,
    /// Acks suppressed by an active partition window.
    pub acks_dropped: u64,
    /// Fresh → stale host transitions.
    pub stale_transitions: u64,
    /// Stale → fresh host recoveries.
    pub recoveries: u64,
}

/// The fleet's aggregate estimate for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTickReport {
    /// Fleet tick (1-based).
    pub tick: u64,
    /// Sim-clock timestamp of the tick.
    pub timestamp: Nanos,
    /// Fleet-aggregate power estimate, watts (sum over known hosts;
    /// hosts that never reported contribute 0 and are flagged unknown).
    pub estimate_w: f64,
    /// Aggregate prediction-band half-width, watts (stale hosts widen
    /// it).
    pub band_w: f64,
    /// Ground-truth fleet power, watts.
    pub truth_w: f64,
    /// Hosts with a fresh estimate.
    pub hosts_fresh: usize,
    /// Hosts held at last-known-good past the staleness deadline.
    pub hosts_stale: usize,
    /// Hosts that have never reported.
    pub hosts_unknown: usize,
    /// The worst per-host quality folded into the aggregate.
    pub quality: Quality,
}

/// The fleet's belief about one cgroup subtree, summed across every
/// shard and host that attributed power at or under the queried path.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTenantEstimate {
    /// The queried cgroup node path (e.g. `tenant-a` or
    /// `tenant-a/svc-web`).
    pub path: String,
    /// Active power attributed to the subtree, watts (no idle floor —
    /// idle belongs to each machine's root, not to any tenant).
    pub power_w: f64,
    /// Aggregate prediction-band half-width, watts (stale hosts widen
    /// their contribution).
    pub band_w: f64,
    /// Worst per-host quality folded in: `Full` when every contributing
    /// host is fresh, `Stale` when any is held past its deadline.
    pub quality: Quality,
    /// Hosts contributing to the sum.
    pub hosts: usize,
}

struct AckInFlight {
    due: u64,
    host: HostId,
    seq: u64,
}

/// The per-frame distributions no other record holds, kept only while
/// telemetry is on. [`Fleet::render_prometheus`] turns them into
/// histograms when the metrics are read.
struct Tallies {
    /// Transmissions each acked frame needed minus one (0 = delivered
    /// first try).
    retransmit_count: Tally,
    /// Per-host delivery age at link exit, in ticks (retransmit waits
    /// included — this is the age of the *data*, not of one datagram).
    link_latency: Vec<Tally>,
    /// Per-shard ticks a frame waited in the ingest queue before the
    /// tick budget reached it.
    shard_service: Vec<Tally>,
}

/// How many frames had each value of a small per-frame figure: entry `v`
/// counts the frames whose value was `v`. The figures are tick counts
/// and attempt numbers, so the table is no longer than the run.
#[derive(Clone, Default)]
struct Tally(Vec<u64>);

impl Tally {
    fn record(&mut self, v: u64) {
        let v = v as usize;
        if v >= self.0.len() {
            self.0.resize(v + 1, 0);
        }
        self.0[v] += 1;
    }

    /// Records every counted value into `hist`.
    fn fill(&self, hist: Histogram) {
        for (v, &n) in self.0.iter().enumerate().filter(|&(_, &n)| n > 0) {
            hist.record_n(v as u64, n);
        }
    }
}

/// Whole ticks from the tick `sent_at` falls in to tick `now` (0 for a
/// send time in the future) — `now - sent_at / tick_ns`, found by
/// stepping back from `now`: a frame in flight is a few ticks old, and a
/// 64-bit division costs more than the rest of a frame's bookkeeping.
fn age_ticks(now: u64, sent_at: Nanos, tick_ns: u64) -> u64 {
    if let Some(mut start) = now.checked_mul(tick_ns) {
        for age in 0..=8 {
            if start <= sent_at.as_u64() {
                return age;
            }
            // Above `sent_at`, so a positive multiple of `tick_ns`.
            start -= tick_ns;
        }
    }
    now.saturating_sub(sent_at.as_u64() / tick_ns)
}

/// The fleet orchestrator: owns hosts, links, senders and shards, and
/// advances them all one fleet tick at a time.
pub struct Fleet {
    cfg: FleetConfig,
    plan: Arc<LinkFaultPlan>,
    sources: Vec<Box<dyn FrameSource>>,
    senders: Vec<SenderState>,
    links: Vec<Link>,
    shards: Vec<EstimatorShard>,
    acks: Vec<AckInFlight>,
    pool: FramePool,
    now: u64,
    stats: FleetStats,
    shard_shed_by: Vec<u64>,
    lag_ticks: Vec<u64>,
    stale_ticks: Vec<u64>,
    telemetry: Telemetry,
    tallies: Option<Tallies>,
    delivery_scratch: Vec<FrameEnvelope>,
    transitions_scratch: Vec<(HostId, bool, TraceId)>,
    journeys: JourneyLog,
    slo: SloTracker,
}

impl Fleet {
    /// Builds a fleet: one sender+link per source, `cfg.shards` shards
    /// each owning a fresh clone of `formula`.
    pub fn new(
        cfg: FleetConfig,
        formula: &dyn PowerFormula,
        sources: Vec<Box<dyn FrameSource>>,
        telemetry: Telemetry,
    ) -> Fleet {
        let hosts = sources.len();
        let plan = Arc::new(cfg.fault.clone());
        let events: Arc<[Event]> = cfg.events.iter().copied().collect();
        let senders = (0..hosts)
            .map(|h| SenderState::new(HostId(h as u32)))
            .collect();
        let links = (0..hosts)
            .map(|h| Link::new(HostId(h as u32), cfg.link, plan.clone()))
            .collect();
        let shards = (0..cfg.shards.max(1))
            .map(|i| EstimatorShard::new(i, cfg.shard, formula.boxed_clone(), events.clone()))
            .collect::<Vec<_>>();
        let tallies = telemetry.enabled().then(|| Tallies {
            retransmit_count: Tally::default(),
            link_latency: vec![Tally::default(); hosts],
            shard_service: vec![Tally::default(); shards.len()],
        });
        let shard_count = shards.len();
        let slo = SloTracker::new(cfg.slo);
        let journeys = if telemetry.enabled() {
            JourneyLog::default()
        } else {
            JourneyLog::disabled()
        };
        Fleet {
            cfg,
            plan,
            senders,
            links,
            shards,
            acks: Vec::new(),
            pool: FramePool::new(),
            now: 0,
            stats: FleetStats::default(),
            shard_shed_by: vec![0; shard_count],
            lag_ticks: Vec::new(),
            stale_ticks: vec![0; hosts],
            telemetry,
            tallies,
            delivery_scratch: Vec::new(),
            transitions_scratch: Vec::new(),
            journeys,
            slo,
            sources,
        }
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.sources.len()
    }

    /// The current fleet tick (0 before the first [`Fleet::tick`]).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Sim-clock nanoseconds per fleet tick (what converts journey-hop
    /// ticks to trace timestamps; never 0).
    pub fn tick_ns(&self) -> u64 {
        self.cfg.tick.as_u64().max(1)
    }

    /// The per-frame journey log (hop records behind the Chrome-trace
    /// fleet tracks).
    pub fn journeys(&self) -> &JourneyLog {
        &self.journeys
    }

    /// The lag SLO tracker (budget spend, burn alerts, exhaustion).
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// The frame tallies so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// End-to-end lag (send → applied) of every applied frame, in
    /// fleet ticks.
    pub fn lag_samples(&self) -> &[u64] {
        &self.lag_ticks
    }

    /// Fraction of elapsed ticks a host spent stale or unknown.
    pub fn staleness_ratio(&self, host: HostId) -> f64 {
        if self.now == 0 {
            return 0.0;
        }
        self.stale_ticks[host.0 as usize] as f64 / self.now as f64
    }

    /// Frames shed at each shard's ingest queue.
    pub fn shard_shed_by(&self) -> &[u64] {
        &self.shard_shed_by
    }

    /// Read access to one estimator shard (per-host tracks and tenant
    /// books live there; `shard::route` maps a host to its shard).
    pub fn shard(&self, index: usize) -> &shard::EstimatorShard {
        &self.shards[index]
    }

    /// Every cgroup leaf path any shard currently attributes power to,
    /// sorted. Empty when no host streams grouped frames.
    pub fn tenant_paths(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        for s in &self.shards {
            s.tenant_paths(&mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// The fleet-wide estimate for one cgroup subtree: each host's
    /// attribution at or under `path` summed across shards, quality
    /// folded to the worst contributor. `None` when no host's last
    /// applied frame carried a leaf under `path`.
    pub fn tenant_estimate(&self, path: &str) -> Option<FleetTenantEstimate> {
        let mut sum = FleetTenantEstimate {
            path: path.to_string(),
            power_w: 0.0,
            band_w: 0.0,
            quality: Quality::Full,
            hosts: 0,
        };
        for (.., est) in self.tenant_contributors(path, self.now) {
            sum.power_w += est.power_w;
            sum.band_w += est.band_w;
            sum.quality = sum.quality.min(est.quality);
            sum.hosts += 1;
        }
        (sum.hosts > 0).then_some(sum)
    }

    /// Estimate provenance: why the fleet believes its number for one
    /// cgroup subtree at fleet tick `tick` (usually [`Fleet::now`]).
    /// Names every contributing host frame — origin trace, sequence,
    /// apply tick, staleness, quality and the retransmits the applied
    /// copy needed. `None` when no host contributes under `path`. The
    /// report round-trips exactly through
    /// [`ProvenanceReport::to_json`] / [`ProvenanceReport::from_json`].
    pub fn explain(&self, path: &str, tick: u64) -> Option<ProvenanceReport> {
        let mut report = ProvenanceReport {
            path: path.to_string(),
            tick,
            power_w: 0.0,
            band_w: 0.0,
            hosts: Vec::new(),
        };
        for (host, s, track, est) in self.tenant_contributors(path, tick) {
            report.power_w += est.power_w;
            report.band_w += est.band_w;
            report.hosts.push(FrameProvenance {
                host: host.0,
                shard: s as u32,
                trace: track.last_trace.0,
                seq: track.last_seq,
                applied_tick: track.last_update,
                staleness_ticks: tick.saturating_sub(track.last_update),
                stale: est.quality != Quality::Full,
                quality: est.quality.label().to_string(),
                retransmits: track.last_attempt,
                power_w: est.power_w,
                band_w: est.band_w,
            });
        }
        (!report.hosts.is_empty()).then_some(report)
    }

    /// Every host with power at or under `path` at fleet tick `tick`, in
    /// host order: the host, its shard, its track and its estimate there.
    fn tenant_contributors<'a>(
        &'a self,
        path: &'a str,
        tick: u64,
    ) -> impl Iterator<Item = (HostId, usize, &'a shard::HostTrack, shard::HostEstimate)> + 'a {
        (0..self.sources.len()).filter_map(move |h| {
            let host = HostId(h as u32);
            let s = shard::route(host, self.shards.len());
            let shard = &self.shards[s];
            Some((
                host,
                s,
                shard.track(host)?,
                shard.tenant_estimate(host, tick, path)?,
            ))
        })
    }

    /// Advances the whole fleet one tick.
    pub fn tick(&mut self) -> FleetTickReport {
        self.now += 1;
        let now = self.now;
        let sim_now = Nanos(now.saturating_mul(self.cfg.tick.as_u64()));
        // A handle of its own, so the hub stays readable while `note`
        // borrows the fleet.
        let telemetry = self.telemetry.clone();
        let journal = telemetry.journal();
        journal.set_now(sim_now);
        // A dark journal drops what it is handed. Every frame event is
        // one `note`, which journals its line in spelled text (numbers,
        // formatted on read), so an enabled journal records it without
        // formatting or allocating; the few sites below that still build
        // strings do so only when it is on. Fleet-level events with no
        // single frame to blame (partition windows, SLO alerts) journal
        // on the tick's own trace — opened by the first such event, so an
        // uneventful tick opens none.
        let tick_trace = || telemetry.trace_for_tick(sim_now);

        // 1. Acks that completed their return trip release send credits.
        let mut i = 0;
        while i < self.acks.len() {
            if self.acks[i].due <= now {
                let ack = self.acks.swap_remove(i);
                if let Some(released) = self.senders[ack.host.0 as usize].ack(ack.seq) {
                    self.stats.acked += 1;
                    if let Some(t) = &mut self.tallies {
                        t.retransmit_count.record(u64::from(released.env.attempt));
                    }
                }
            } else {
                i += 1;
            }
        }

        // 2. Journal partition / host-dark window transitions.
        for w in self.plan.windows() {
            if w.start == now || w.end == now {
                let what = if w.start == now { "opened" } else { "closed" };
                journal.emit(
                    EventKind::FleetPartition,
                    w.kind.label(),
                    format!(
                        "{what} ticks {}..{} hosts {}..{}",
                        w.start, w.end, w.host_lo, w.host_hi
                    ),
                    tick_trace(),
                );
            }
        }

        // 3. Per host: retransmit expired frames, produce + enqueue the
        //    new frame, drain backlog into the link while credits last.
        let mut truth_w = 0.0;
        for h in 0..self.sources.len() {
            let host = HostId(h as u32);

            for seq in self.senders[h].expired(now) {
                let p = self.senders[h].pending.get_mut(&seq).expect("expired seq");
                if p.env.attempt >= retry::MAX_RETRIES {
                    let p = self.senders[h].pending.remove(&seq).expect("expired seq");
                    self.note(FleetHop::of(now, &p.env, HopStage::Abandon));
                    continue;
                }
                p.env.attempt += 1;
                p.deadline = retry::deadline(now, p.env.attempt, &self.plan, host, seq);
                // The link may mangle what it carries: it gets a copy,
                // the canonical envelope stays pending.
                let env = p.env.clone();
                self.send(h, env);
            }

            let frame = self.sources[h].produce(&self.pool);
            truth_w += self.sources[h].truth_w();
            let payload = encode_frame(&frame);
            let host_trace = frame.trace();
            drop(frame);
            let seq = self.senders[h].alloc_seq();
            // The frame's causal identity: the producing host's own tick
            // trace when its hub stamped one, else a deterministic
            // fleet-side id unique per (host, seq) — every copy of the
            // frame (retransmits, link duplicates) shares it.
            let origin = if host_trace.is_traced() {
                host_trace
            } else {
                TraceId(((u64::from(host.0) + 1) << 32) | (seq + 1))
            };
            let env = FrameEnvelope {
                host,
                seq,
                sent_at: sim_now,
                trace: origin,
                attempt: 0,
                payload,
            };
            self.note(FleetHop::of(now, &env, HopStage::Produce));
            if self.plan.dark(host, now) {
                self.note(FleetHop::of(now, &env, HopStage::HostDark));
            } else {
                self.senders[h].backlog.push_back(env);
                while self.senders[h].backlog.len() > self.cfg.link.sender_backlog.max(1) {
                    let old = self.senders[h].backlog.pop_front().expect("over cap");
                    self.note(FleetHop::of(now, &old, HopStage::SenderShed));
                }
            }

            while self.senders[h].may_send() {
                let Some(env) = self.senders[h].backlog.pop_front() else {
                    break;
                };
                let deadline = retry::deadline(now, 0, &self.plan, host, env.seq);
                self.senders[h].pending.insert(
                    env.seq,
                    Pending {
                        env: env.clone(),
                        deadline,
                    },
                );
                self.send(h, env);
            }
        }

        // 4. Deliveries route to their shard's bounded ingest queue.
        let tick_ns = self.cfg.tick.as_u64().max(1);
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        for h in 0..self.links.len() {
            deliveries.clear();
            self.links[h].take_due(now, &mut deliveries);
            for env in deliveries.drain(..) {
                if let Some(t) = &mut self.tallies {
                    t.link_latency[h].record(age_ticks(now, env.sent_at, tick_ns));
                }
                let s = shard::route(env.host, self.shards.len());
                if let IngestOutcome::Shed(old) = self.shards[s].ingest(env, now) {
                    let stage = HopStage::ShardShed { shard: s as u32 };
                    self.note(FleetHop::of(now, &old, stage));
                }
            }
        }
        self.delivery_scratch = deliveries;

        // 5. Shards process within their tick budget; applied frames ack
        //    back (unless partitioned), corrupt ones wait for retransmit.
        let ack_latency = self.cfg.link.latency_ticks.max(1);
        for s in 0..self.shards.len() {
            for _ in 0..self.cfg.shard.tick_budget {
                let Some(out) = self.shards[s].process_one(now) else {
                    break;
                };
                let hop = out.hop;
                self.note(hop);
                match hop.stage {
                    HopStage::Apply { .. } => {
                        let lag = age_ticks(now, out.sent_at, tick_ns);
                        self.lag_ticks.push(lag);
                        self.slo.observe(lag);
                        if let Some(t) = &mut self.tallies {
                            t.shard_service[s].record(out.queued_ticks);
                        }
                    }
                    HopStage::Corrupt { .. } => continue,
                    _ => {}
                }
                if self.plan.partitioned(hop.host, now) {
                    self.stats.acks_dropped += 1;
                } else {
                    self.stats.acks_sent += 1;
                    self.acks.push(AckInFlight {
                        due: now + ack_latency,
                        host: hop.host,
                        seq: hop.seq,
                    });
                }
            }
        }

        // 6. Staleness bookkeeping + the fleet aggregate.
        self.transitions_scratch.clear();
        for s in 0..self.shards.len() {
            let mut t = std::mem::take(&mut self.transitions_scratch);
            self.shards[s].refresh_staleness(now, &mut t);
            self.transitions_scratch = t;
        }
        for &(host, stale, trace) in &self.transitions_scratch {
            if stale {
                self.stats.stale_transitions += 1;
                if journal.enabled() {
                    journal.emit(
                        EventKind::FleetTimeout,
                        host,
                        format!(
                            "no fresh frame for {} ticks; holding last-known-good",
                            shard::STALE_AFTER_TICKS
                        ),
                        trace,
                    );
                }
            } else {
                self.stats.recoveries += 1;
                if journal.enabled() {
                    journal.emit(
                        EventKind::QualityRecovered,
                        host,
                        "fresh frame applied; staleness cleared",
                        trace,
                    );
                }
            }
        }

        let mut estimate_w = 0.0;
        let mut band_w = 0.0;
        let (mut fresh, mut stale, mut unknown) = (0usize, 0usize, 0usize);
        let mut quality = Quality::Full;
        for h in 0..self.sources.len() {
            let host = HostId(h as u32);
            let s = shard::route(host, self.shards.len());
            match self.shards[s].estimate(host, now) {
                Some(est) => {
                    estimate_w += est.power_w;
                    band_w += est.band_w;
                    quality = quality.min(est.quality);
                    if est.quality == Quality::Full {
                        fresh += 1;
                    } else {
                        stale += 1;
                        self.stale_ticks[h] += 1;
                    }
                }
                None => {
                    unknown += 1;
                    quality = Quality::Stale;
                    self.stale_ticks[h] += 1;
                }
            }
        }

        // 7. Close the tick's SLO accounting: burn-rate alerts and the
        //    (once-only) budget exhaustion are journal events, so they
        //    survive into the post-mortem dump the caller writes.
        let slo_out = self.slo.end_tick(now);
        if let Some(violations) = slo_out.burn_alert {
            journal.emit(
                EventKind::SloBurnRate,
                "fleet-lag",
                format!(
                    "lag > {} ticks {violations}x in the last {} ticks ({} of {} budget spent)",
                    observe::LAG_TARGET_TICKS,
                    observe::BURN_WINDOW_TICKS,
                    self.slo.total_violations().min(self.cfg.slo.error_budget),
                    self.cfg.slo.error_budget,
                ),
                tick_trace(),
            );
        }
        if slo_out.exhausted_now {
            journal.emit(
                EventKind::SloBudgetExhausted,
                "fleet-lag",
                format!(
                    "error budget exhausted: {} violations > budget {} over {} samples",
                    self.slo.total_violations(),
                    self.cfg.slo.error_budget,
                    self.slo.total_samples(),
                ),
                tick_trace(),
            );
        }

        FleetTickReport {
            tick: now,
            timestamp: sim_now,
            estimate_w,
            band_w,
            truth_w,
            hosts_fresh: fresh,
            hosts_stale: stale,
            hosts_unknown: unknown,
            quality,
        }
    }

    /// Runs `ticks` fleet ticks, collecting every report.
    pub fn run(&mut self, ticks: u64) -> Vec<FleetTickReport> {
        (0..ticks).map(|_| self.tick()).collect()
    }

    /// The `powerapi_fleet_*` Prometheus families, read off the ledger
    /// ([`FleetStats`], [`Fleet::shard_shed_by`], [`Fleet::lag_samples`])
    /// and the tallies when called: they fill a scratch registry, which
    /// renders them. Empty for a fleet built with telemetry off, which
    /// keeps no tallies.
    pub fn render_prometheus(&self) -> String {
        let Some(t) = &self.tallies else {
            return String::new();
        };
        let reg = MetricsRegistry::new();
        let s = &self.stats;
        for (name, n) in [
            ("powerapi_fleet_frames_produced_total", s.produced),
            ("powerapi_fleet_transmissions_total", s.transmissions),
            ("powerapi_fleet_retransmits_total", s.retransmits),
            ("powerapi_fleet_frames_applied_total", s.applied),
            ("powerapi_fleet_duplicates_discarded_total", s.dup_discarded),
            ("powerapi_fleet_corrupt_frames_total", s.corrupt_frames),
            ("powerapi_fleet_frames_abandoned_total", s.abandoned),
            ("powerapi_fleet_sender_shed_total", s.sender_shed),
            (
                "powerapi_fleet_stale_transitions_total",
                s.stale_transitions,
            ),
            (
                "powerapi_fleet_dropped_total{cause=\"host-dark\"}",
                s.dark_lost,
            ),
            (
                "powerapi_fleet_dropped_total{cause=\"link-fault\"}",
                s.dropped_fault,
            ),
            (
                "powerapi_fleet_dropped_total{cause=\"partition\"}",
                s.dropped_partition,
            ),
            (
                "powerapi_fleet_dropped_total{cause=\"queue-full\"}",
                s.dropped_queue,
            ),
        ] {
            reg.counter(name).add(n);
        }
        for (i, &n) in self.shard_shed_by.iter().enumerate() {
            reg.counter(&format!("powerapi_fleet_shard_shed_total{{shard=\"{i}\"}}"))
                .add(n);
        }
        let lag = reg.histogram_with_bounds("powerapi_fleet_lag_ticks", &TICK_BOUNDS);
        self.lag_ticks.iter().for_each(|&v| lag.record(v));
        t.retransmit_count
            .fill(reg.histogram_with_bounds("powerapi_fleet_retransmit_count", &COUNT_BOUNDS));
        for (h, tally) in t.link_latency.iter().enumerate() {
            let name = format!("powerapi_fleet_link_latency_ticks{{host=\"host-{h}\"}}");
            tally.fill(reg.histogram_with_bounds(&name, &TICK_BOUNDS));
        }
        for (i, tally) in t.shard_service.iter().enumerate() {
            let name = format!("powerapi_fleet_shard_service_ticks{{shard=\"{i}\"}}");
            tally.fill(reg.histogram_with_bounds(&name, &TICK_BOUNDS));
        }
        reg.render_prometheus()
    }

    /// Proves the frame accounting reconciles exactly — every produced
    /// frame is applied, counted against a loss cause, or still visibly
    /// queued somewhere. Returns the violated equation on failure.
    pub fn conservation(&self) -> Result<(), String> {
        let s = &self.stats;
        let in_flight: u64 = self.links.iter().map(|l| l.in_flight() as u64).sum();
        let ingest: u64 = self.shards.iter().map(|sh| sh.queue_len() as u64).sum();
        let backlog: u64 = self.senders.iter().map(|x| x.backlog.len() as u64).sum();
        let pending: u64 = self.senders.iter().map(|x| x.pending.len() as u64).sum();

        let sent = s.transmissions + s.dup_injected;
        let fate = s.dropped_fault
            + s.dropped_partition
            + s.dropped_queue
            + s.shard_shed
            + s.corrupt_frames
            + s.applied
            + s.dup_discarded
            + in_flight
            + ingest;
        if sent != fate {
            return Err(format!(
                "transmission fates do not reconcile: sent {sent} != accounted {fate} ({s:?}, in_flight {in_flight}, ingest {ingest})"
            ));
        }

        let fresh_sends = s.transmissions - s.retransmits;
        let produced_fate = fresh_sends + s.dark_lost + s.sender_shed + backlog;
        if s.produced != produced_fate {
            return Err(format!(
                "produced frames do not reconcile: produced {} != accounted {produced_fate} ({s:?}, backlog {backlog})",
                s.produced
            ));
        }

        let window_fate = s.acked + s.abandoned + pending;
        if fresh_sends != window_fate {
            return Err(format!(
                "send window does not reconcile: fresh sends {fresh_sends} != accounted {window_fate} ({s:?}, pending {pending})"
            ));
        }
        Ok(())
    }

    /// Panics with the violated equation when the accounting does not
    /// reconcile (the bench's no-silent-loss assertion).
    #[track_caller]
    pub fn assert_conserved(&self) {
        if let Err(e) = self.conservation() {
            panic!("fleet accounting violated: {e}");
        }
    }

    /// Hands `env` to host `h`'s link as the transmission its `attempt`
    /// names and notes the stage it reached (entered the link, or which
    /// way it died). A duplicate the link injects is the one copy no hop
    /// logs, so it is counted here.
    fn send(&mut self, h: usize, env: FrameEnvelope) {
        let hop = FleetHop::of(self.now, &env, HopStage::Send);
        let stage = match self.links[h].send(env, hop.attempt, self.now) {
            SendOutcome::Queued { duplicated } => {
                self.stats.dup_injected += u64::from(duplicated);
                HopStage::Send
            }
            SendOutcome::DroppedFault => HopStage::DropFault,
            SendOutcome::DroppedPartition => HopStage::DropPartition,
            SendOutcome::DroppedQueueFull => HopStage::DropQueue,
        };
        self.note(FleetHop { stage, ..hop });
    }

    /// Records one frame event, the one place any is recorded: appends
    /// `hop` to the journey log, counts it in the [`FleetStats`] field its
    /// stage names and journals the line its stage names — a retransmit,
    /// an abandon or a shed. Every transmission — sent or dropped — also
    /// counts toward `transmissions`, and toward `retransmits` past the
    /// first attempt.
    fn note(&mut self, hop: FleetHop) {
        let FleetHop {
            host, seq, trace, ..
        } = hop;
        let attempt = u64::from(hop.attempt);
        let journal = self.telemetry.journal();
        let s = &mut self.stats;
        if let HopStage::Send
        | HopStage::DropFault
        | HopStage::DropPartition
        | HopStage::DropQueue = hop.stage
        {
            s.transmissions += 1;
            if attempt > 0 {
                s.retransmits += 1;
                journal.emit(
                    EventKind::FleetRetry,
                    host,
                    Text::Spelled(
                        |[seq, attempt], f| write!(f, "seq {seq} retransmit, attempt {attempt}"),
                        [seq, attempt],
                    ),
                    trace,
                );
            }
        }
        let fate = match hop.stage {
            // A transmission that entered the link has no fate yet.
            HopStage::Send => None,
            HopStage::Produce => Some(&mut s.produced),
            HopStage::DropFault => Some(&mut s.dropped_fault),
            HopStage::DropPartition => Some(&mut s.dropped_partition),
            HopStage::DropQueue => Some(&mut s.dropped_queue),
            HopStage::HostDark => Some(&mut s.dark_lost),
            HopStage::SenderShed => {
                journal.emit(
                    EventKind::FleetShed,
                    host,
                    Text::Spelled(
                        |[seq, _], f| write!(f, "seq {seq} shed from sender backlog (no credits)"),
                        [seq, 0],
                    ),
                    trace,
                );
                Some(&mut s.sender_shed)
            }
            HopStage::ShardShed { shard } => {
                journal.emit(
                    EventKind::FleetShed,
                    Text::Spelled(|[s, _], f| write!(f, "shard-{s}"), [u64::from(shard), 0]),
                    Text::Spelled(
                        |&[host, seq], f| {
                            let host = HostId(host as u32);
                            write!(f, "{host} seq {seq} shed at ingest (overflow)")
                        },
                        [u64::from(host.0), seq],
                    ),
                    trace,
                );
                self.shard_shed_by[shard as usize] += 1;
                Some(&mut s.shard_shed)
            }
            HopStage::Apply { .. } => Some(&mut s.applied),
            HopStage::Duplicate { .. } => Some(&mut s.dup_discarded),
            HopStage::Corrupt { .. } => Some(&mut s.corrupt_frames),
            HopStage::Abandon => {
                journal.emit(
                    EventKind::FleetRetry,
                    host,
                    Text::Spelled(
                        |[seq, sent], f| {
                            write!(
                                f,
                                "seq {seq} abandoned after {sent} transmissions \
                                 (budget exhausted)"
                            )
                        },
                        [seq, attempt + 1],
                    ),
                    trace,
                );
                Some(&mut s.abandoned)
            }
        };
        if let Some(n) = fate {
            *n += 1;
        }
        self.journeys.record(hop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::per_freq::PerFrequencyFormula;
    use crate::frame::FrameBuilder;
    use os_sim::process::Pid;

    /// A synthetic source: constant 50% load on one process, truth a
    /// fixed 40 W — no simcpu machinery, so transport behaviour is the
    /// only variable under test.
    struct FlatSource {
        interval: Nanos,
        ticks: u64,
    }

    impl FrameSource for FlatSource {
        fn produce(&mut self, pool: &FramePool) -> TickFrame {
            self.ticks += 1;
            let mut b = FrameBuilder::pooled(pool);
            b.push_time_row(Pid(1), Nanos(self.interval.as_u64() / 2), |_| {});
            b.finish(
                Nanos(self.ticks * self.interval.as_u64()),
                self.interval,
                Arc::from([] as [Event; 0]),
                None,
            )
        }

        fn truth_w(&self) -> f64 {
            40.0
        }
    }

    fn flat_fleet(hosts: usize, cfg: FleetConfig) -> Fleet {
        flat_fleet_with(hosts, cfg, Telemetry::disabled())
    }

    fn flat_fleet_with(hosts: usize, cfg: FleetConfig, telemetry: Telemetry) -> Fleet {
        let sources: Vec<Box<dyn FrameSource>> = (0..hosts)
            .map(|_| {
                Box::new(FlatSource {
                    interval: Nanos::from_millis(1000),
                    ticks: 0,
                }) as Box<dyn FrameSource>
            })
            .collect();
        // idle 30 + slope 20 · load 0.5 = 40 W — the formula agrees with
        // the source's truth exactly, so estimate error isolates
        // transport effects.
        let formula = PerFrequencyFormula::cpu_load(30.0, 20.0);
        Fleet::new(cfg, &formula, sources, telemetry)
    }

    #[test]
    fn clean_fleet_converges_and_conserves() {
        let mut fleet = flat_fleet(6, FleetConfig::default());
        let reports = fleet.run(10);
        let last = reports.last().unwrap();
        assert_eq!(last.hosts_unknown, 0);
        assert_eq!(last.hosts_stale, 0);
        assert_eq!(last.hosts_fresh, 6);
        assert_eq!(last.quality, Quality::Full);
        assert!(
            (last.estimate_w - 240.0).abs() < 1e-9,
            "6 hosts × 40 W, got {}",
            last.estimate_w
        );
        assert!((last.truth_w - 240.0).abs() < 1e-9);
        fleet.assert_conserved();
        let s = fleet.stats();
        assert_eq!(s.produced, 60);
        assert_eq!(s.retransmits, 0);
        assert!(s.applied > 0);
        assert!(!fleet.lag_samples().is_empty());
        // Latency 1 + jitter ≤ 1, processed the tick it arrives.
        assert!(fleet.lag_samples().iter().all(|&l| (1..=3).contains(&l)));
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = || {
            let fault = LinkFaultPlan::generate(
                21,
                4,
                30,
                &LinkFaultConfig {
                    drop_rate: 0.2,
                    duplicate_rate: 0.1,
                    corrupt_rate: 0.1,
                    reorder_rate: 0.2,
                    partitions: 1,
                    partition_ticks: 5,
                    partition_hosts: 2,
                    dark_windows: 1,
                    dark_ticks: 4,
                    ..LinkFaultConfig::default()
                },
            );
            FleetConfig {
                shards: 2,
                fault,
                ..FleetConfig::default()
            }
        };
        let mut a = flat_fleet(4, cfg());
        let mut b = flat_fleet(4, cfg());
        let ra = a.run(30);
        let rb = b.run(30);
        assert_eq!(ra, rb, "tick reports must replay bit-identically");
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.lag_samples(), b.lag_samples());
        a.assert_conserved();
    }

    #[test]
    fn drops_force_retransmits_and_conservation_still_holds() {
        let fault = LinkFaultPlan::generate(
            9,
            3,
            60,
            &LinkFaultConfig {
                drop_rate: 0.3,
                ..LinkFaultConfig::default()
            },
        );
        let mut fleet = flat_fleet(
            3,
            FleetConfig {
                shards: 2,
                fault,
                ..FleetConfig::default()
            },
        );
        fleet.run(60);
        let s = *fleet.stats();
        assert!(s.dropped_fault > 0, "30% drop must fire: {s:?}");
        assert!(s.retransmits > 0, "drops must trigger retries: {s:?}");
        assert!(s.applied > 0);
        fleet.assert_conserved();
    }

    #[test]
    fn partition_makes_hosts_stale_then_recover() {
        let w = LinkWindow {
            kind: LinkFaultKind::Partition,
            start: 10,
            end: 22,
            host_lo: 0,
            host_hi: 4,
        };
        let fault = LinkFaultPlan::from_parts(3, &LinkFaultConfig::default(), vec![w]);
        let cfg = FleetConfig {
            shards: 2,
            fault,
            ..FleetConfig::default()
        };
        let mut fleet = flat_fleet(4, cfg);
        let reports = fleet.run(40);
        let mid = &reports[(w.start + 8) as usize - 1];
        assert!(
            mid.hosts_stale > 0,
            "hosts inside the partition must go stale: {mid:?}"
        );
        assert_eq!(mid.quality, Quality::Stale);
        assert!(
            mid.band_w > reports[(w.start - 1) as usize].band_w,
            "stale bands must widen"
        );
        let last = reports.last().unwrap();
        assert_eq!(last.hosts_stale, 0, "all hosts recover: {last:?}");
        let s = fleet.stats();
        assert!(s.stale_transitions > 0);
        assert!(s.recoveries > 0);
        fleet.assert_conserved();
    }

    #[test]
    fn saturated_shard_sheds_loudly() {
        let cfg = FleetConfig {
            shards: 1,
            shard: ShardConfig {
                ingest_cap: 2,
                tick_budget: 1,
            },
            ..FleetConfig::default()
        };
        let mut fleet = flat_fleet(8, cfg);
        fleet.run(20);
        let s = fleet.stats();
        assert!(
            s.shard_shed > 0,
            "8 hosts into budget-1 shard must shed: {s:?}"
        );
        assert_eq!(fleet.shard_shed_by().iter().sum::<u64>(), s.shard_shed);
        fleet.assert_conserved();
    }

    #[test]
    fn dark_windows_lose_frames_before_the_link() {
        let fault = LinkFaultPlan::generate(
            13,
            2,
            30,
            &LinkFaultConfig {
                dark_windows: 2,
                dark_ticks: 5,
                ..LinkFaultConfig::default()
            },
        );
        // Count exact (host, tick) dark coverage — overlapping windows
        // on the same host must not be double-counted.
        let expected: u64 = (1..=30u64)
            .flat_map(|t| (0..2u32).map(move |h| (t, h)))
            .filter(|&(t, h)| fault.dark(HostId(h), t))
            .count() as u64;
        let mut fleet = flat_fleet(
            2,
            FleetConfig {
                fault,
                ..FleetConfig::default()
            },
        );
        fleet.run(30);
        assert_eq!(fleet.stats().dark_lost, expected);
        fleet.assert_conserved();
    }

    #[test]
    fn fleet_counters_reach_prometheus() {
        let mut fleet = flat_fleet_with(2, FleetConfig::default(), Telemetry::new());
        fleet.run(5);
        let dump = fleet.render_prometheus();
        assert!(dump.contains("powerapi_fleet_frames_produced_total 10"));
        assert!(dump.contains("powerapi_fleet_transmissions_total"));
        // A dark fleet keeps no tallies and renders nothing.
        let mut dark = flat_fleet(2, FleetConfig::default());
        dark.run(5);
        assert_eq!(dark.render_prometheus(), "");
    }

    #[test]
    fn age_in_ticks_matches_the_division() {
        let by_division = |now: u64, sent: u64, tick: u64| now.saturating_sub(sent / tick);
        for tick in [1, 7, 250_000_000, 1u64 << 56] {
            for now in [0u64, 1, 2, 9, 10, 40] {
                // Every tick boundary up to two ticks into the future,
                // one ns either side.
                for k in 0..=now + 2 {
                    for sent in [k * tick, (k * tick).saturating_sub(1), k * tick + 1] {
                        assert_eq!(
                            age_ticks(now, Nanos(sent), tick),
                            by_division(now, sent, tick),
                            "now {now} sent {sent} tick {tick}"
                        );
                    }
                }
            }
        }
        // A clock too large to multiply out falls back to dividing.
        assert_eq!(age_ticks(u64::MAX, Nanos(20), 10), u64::MAX - 2);
    }

    /// The rendered families are views of the ledger whenever `tick` or
    /// `run` returns: every counter equals its `FleetStats` field, each
    /// shard's shed counter its `shard_shed_by` entry, the lag histogram
    /// holds exactly `lag_samples` (20-tick lags included),
    /// and the tallied histograms count every ack and every apply.
    #[test]
    fn tallied_histograms_are_current_whenever_the_fleet_returns() {
        let fault = LinkFaultPlan::generate(
            5,
            6,
            80,
            &LinkFaultConfig {
                drop_rate: 0.2,
                duplicate_rate: 0.1,
                corrupt_rate: 0.1,
                reorder_rate: 0.2,
                partitions: 1,
                partition_ticks: 6,
                partition_hosts: 2,
                dark_windows: 1,
                dark_ticks: 4,
                ..LinkFaultConfig::default()
            },
        );
        let mut cfg = FleetConfig {
            shards: 2,
            shard: ShardConfig {
                ingest_cap: 2,
                tick_budget: 2,
            },
            fault,
            ..FleetConfig::default()
        };
        cfg.link.latency_ticks = 20;
        let mut fleet = flat_fleet_with(6, cfg, Telemetry::new());
        let check = |fleet: &Fleet| {
            let prom = fleet.render_prometheus();
            let value = |name: &str| -> u64 {
                prom.lines()
                    .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                    .unwrap_or_else(|| panic!("{name} in\n{prom}"))
            };
            let s = fleet.stats();
            for (name, n) in [
                ("powerapi_fleet_frames_produced_total", s.produced),
                ("powerapi_fleet_transmissions_total", s.transmissions),
                ("powerapi_fleet_retransmits_total", s.retransmits),
                ("powerapi_fleet_frames_applied_total", s.applied),
                ("powerapi_fleet_duplicates_discarded_total", s.dup_discarded),
                ("powerapi_fleet_corrupt_frames_total", s.corrupt_frames),
                ("powerapi_fleet_frames_abandoned_total", s.abandoned),
                ("powerapi_fleet_sender_shed_total", s.sender_shed),
                (
                    "powerapi_fleet_stale_transitions_total",
                    s.stale_transitions,
                ),
                (
                    "powerapi_fleet_dropped_total{cause=\"host-dark\"}",
                    s.dark_lost,
                ),
                (
                    "powerapi_fleet_dropped_total{cause=\"link-fault\"}",
                    s.dropped_fault,
                ),
                (
                    "powerapi_fleet_dropped_total{cause=\"partition\"}",
                    s.dropped_partition,
                ),
                (
                    "powerapi_fleet_dropped_total{cause=\"queue-full\"}",
                    s.dropped_queue,
                ),
            ] {
                assert_eq!(value(name), n, "{name}");
            }
            for (i, &n) in fleet.shard_shed_by().iter().enumerate() {
                let name = format!("powerapi_fleet_shard_shed_total{{shard=\"{i}\"}}");
                assert_eq!(value(&name), n, "{name}");
            }
            let lags = fleet.lag_samples();
            assert_eq!(value("powerapi_fleet_lag_ticks_count"), lags.len() as u64);
            assert_eq!(
                value("powerapi_fleet_lag_ticks_sum"),
                lags.iter().sum::<u64>()
            );
            assert_eq!(value("powerapi_fleet_retransmit_count_count"), s.acked);
            let served: u64 = (0..2)
                .map(|i| {
                    value(&format!(
                        "powerapi_fleet_shard_service_ticks_count{{shard=\"{i}\"}}"
                    ))
                })
                .sum();
            assert_eq!(served, s.applied);
        };
        for _ in 0..40 {
            fleet.tick();
            check(&fleet);
        }
        // And after a `run`, whatever its length.
        fleet.run(21);
        check(&fleet);
        let s = *fleet.stats();
        assert!(
            s.retransmits > 0 && s.shard_shed > 0 && s.corrupt_frames > 0 && s.acked > 0,
            "every fault fired: {s:?}"
        );
        assert!(
            fleet.lag_samples().iter().any(|&l| l >= 20),
            "the 20-tick link shows in the lags"
        );
        fleet.assert_conserved();
    }
}
