//! One host's uplink to the estimator service: a bounded in-flight queue
//! with configurable latency and deterministic jitter, through which the
//! [`LinkFaultPlan`] injects drop, duplicate, reorder and corrupt
//! faults. Partition windows sever the
//! link outright.
//!
//! The link is simulation plumbing, not a reliability layer: it loses
//! frames exactly as told and reports what happened through
//! [`SendOutcome`] so the fleet's accounting can prove no frame was lost
//! *silently*. Reliability (retry, backoff, budgets) lives one layer up,
//! in [`super::retry`].

use super::envelope::{FrameEnvelope, HostId};
use super::fault::LinkFaultPlan;
use std::sync::Arc;

/// Per-link transport knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Base delivery latency, in fleet ticks.
    pub latency_ticks: u64,
    /// Maximum deterministic per-frame jitter added on top, in ticks.
    pub jitter_ticks: u64,
    /// Maximum frames in flight on one link (models the NIC/switch
    /// buffer; overflow is a counted drop, not an error).
    pub queue_cap: usize,
    /// Frames a sender may hold locally while waiting for send credits
    /// before it starts shedding its oldest backlog.
    pub sender_backlog: usize,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            latency_ticks: 1,
            jitter_ticks: 1,
            queue_cap: 64,
            sender_backlog: 8,
        }
    }
}

/// What the link did with a transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued for delivery; `duplicated` when the fault plan queued a
    /// second copy.
    Queued {
        /// A duplicate copy was also queued.
        duplicated: bool,
    },
    /// Lost to a link-fault drop.
    DroppedFault,
    /// Severed by an active partition window.
    DroppedPartition,
    /// The in-flight queue was full.
    DroppedQueueFull,
}

const SALT_JITTER: u64 = 5;

#[derive(Debug)]
struct InFlight {
    due: u64,
    order: u64,
    env: FrameEnvelope,
}

/// A host's uplink. Deterministic: identical inputs produce identical
/// delivery schedules, regardless of what other links do.
#[derive(Debug)]
pub struct Link {
    host: HostId,
    cfg: LinkConfig,
    plan: Arc<LinkFaultPlan>,
    queue: Vec<InFlight>,
    /// Scratch of [`Link::take_due`]: the frames due this tick, sorted
    /// here before they are handed over. Empty between calls.
    due: Vec<InFlight>,
    next_order: u64,
}

impl Link {
    /// A link for one host under a shared fault plan.
    pub fn new(host: HostId, cfg: LinkConfig, plan: Arc<LinkFaultPlan>) -> Link {
        Link {
            host,
            cfg,
            plan,
            queue: Vec::new(),
            due: Vec::new(),
            next_order: 0,
        }
    }

    /// Frames currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Transmits one envelope at fleet tick `now`. `attempt` is the
    /// retransmission ordinal (0 for the first try) — it feeds the fault
    /// hash so a retry rerolls its fate, and is stamped onto the
    /// envelope metadata so the delivered copy names its transmission.
    pub fn send(&mut self, env: FrameEnvelope, attempt: u32, now: u64) -> SendOutcome {
        let mut env = env;
        env.attempt = attempt;
        let (host, seq) = (env.host, env.seq);
        debug_assert_eq!(host, self.host, "envelope routed to the wrong link");
        if self.plan.partitioned(host, now) {
            return SendOutcome::DroppedPartition;
        }
        if self.plan.drops(host, seq, attempt) {
            return SendOutcome::DroppedFault;
        }
        if self.queue.len() >= self.cfg.queue_cap {
            return SendOutcome::DroppedQueueFull;
        }
        let jitter = if self.cfg.jitter_ticks == 0 {
            0
        } else {
            self.plan.hash(host, seq, attempt, SALT_JITTER) % (self.cfg.jitter_ticks + 1)
        };
        let due = now
            + self.cfg.latency_ticks.max(1)
            + jitter
            + self.plan.reorder_ticks(host, seq, attempt);
        if self.plan.corrupts(host, seq, attempt) {
            corrupt_payload(&mut env.payload, self.plan.hash(host, seq, attempt, 0xC0));
        }
        let duplicated =
            self.plan.duplicates(host, seq, attempt) && self.queue.len() + 1 < self.cfg.queue_cap;
        if duplicated {
            self.push(env.clone(), due + 1);
        }
        self.push(env, due);
        SendOutcome::Queued { duplicated }
    }

    fn push(&mut self, env: FrameEnvelope, due: u64) {
        self.queue.push(InFlight {
            due,
            order: self.next_order,
            env,
        });
        self.next_order += 1;
    }

    /// Moves every frame due at or before `now` into `out`, in
    /// (due, transmission) order. Frames whose host is partitioned at
    /// delivery time stay queued — they arrive when the window lifts
    /// (or rot in flight until then).
    pub fn take_due(&mut self, now: u64, out: &mut Vec<FrameEnvelope>) {
        if self.plan.partitioned(self.host, now) {
            return;
        }
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].due <= now {
                self.due.push(self.queue.swap_remove(i));
            } else {
                i += 1;
            }
        }
        // Keys are unique (`order` is), so the unstable sort gives the
        // same order as a stable one, without its merge buffer.
        self.due.sort_unstable_by_key(|f| (f.due, f.order));
        out.extend(self.due.drain(..).map(|f| f.env));
    }
}

/// Flips one bit of one payload byte (position and mask derived from the
/// fault hash). The change sits inside one aligned word of the body or
/// inside the trailer, which `envelope::wire_sum` always detects.
fn corrupt_payload(payload: &mut [u8], h: u64) {
    if payload.is_empty() {
        return;
    }
    let i = (h as usize) % payload.len();
    let mask = (0x01u8 << (h >> 13 & 0x07)).max(0x01);
    payload[i] ^= mask;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::fault::LinkFaultConfig;
    use simcpu::units::Nanos;

    fn env(host: u32, seq: u64) -> FrameEnvelope {
        FrameEnvelope {
            host: HostId(host),
            seq,
            sent_at: Nanos(seq * 1000),
            trace: crate::telemetry::TraceId::NONE,
            attempt: 0,
            payload: vec![1, 2, 3, 4, 5, 6, 7, 8, 9],
        }
    }

    fn clean_link(latency: u64, cap: usize) -> Link {
        let cfg = LinkConfig {
            latency_ticks: latency,
            jitter_ticks: 0,
            queue_cap: cap,
            sender_backlog: 8,
        };
        Link::new(HostId(0), cfg, Arc::new(LinkFaultPlan::none()))
    }

    #[test]
    fn clean_link_delivers_in_order_after_latency() {
        let mut link = clean_link(2, 64);
        for seq in 0..3 {
            assert_eq!(
                link.send(env(0, seq), 0, 1),
                SendOutcome::Queued { duplicated: false }
            );
        }
        let mut out = Vec::new();
        link.take_due(2, &mut out);
        assert!(out.is_empty(), "nothing before latency elapses");
        link.take_due(3, &mut out);
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(link.in_flight(), 0);
    }

    #[test]
    fn full_queue_drops_with_a_counted_outcome() {
        let mut link = clean_link(5, 2);
        assert!(matches!(
            link.send(env(0, 0), 0, 1),
            SendOutcome::Queued { .. }
        ));
        assert!(matches!(
            link.send(env(0, 1), 0, 1),
            SendOutcome::Queued { .. }
        ));
        assert_eq!(link.send(env(0, 2), 0, 1), SendOutcome::DroppedQueueFull);
        assert_eq!(link.in_flight(), 2);
    }

    #[test]
    fn partition_severs_send_and_delivery() {
        let cfg = LinkFaultConfig {
            partitions: 1,
            partition_ticks: 10,
            partition_hosts: 4,
            ..LinkFaultConfig::default()
        };
        let plan = Arc::new(LinkFaultPlan::generate(11, 4, 40, &cfg));
        let w = plan.windows()[0];
        let host = HostId(w.host_lo);
        let mut link = Link::new(
            host,
            LinkConfig {
                latency_ticks: 1,
                jitter_ticks: 0,
                queue_cap: 8,
                sender_backlog: 8,
            },
            plan.clone(),
        );
        // Sent just before the window: queued, but delivery stalls while
        // the window is open and resumes after it lifts.
        let before = w.start - 1;
        let mut e = env(host.0, 0);
        e.host = host;
        assert!(matches!(
            link.send(e, 0, before),
            SendOutcome::Queued { .. }
        ));
        let mut out = Vec::new();
        link.take_due(w.start, &mut out);
        assert!(out.is_empty(), "partitioned delivery must stall");
        assert_eq!(
            link.send(env(host.0, 1), 0, w.start),
            SendOutcome::DroppedPartition
        );
        link.take_due(w.end, &mut out);
        assert_eq!(out.len(), 1, "delivery resumes after the window");
    }

    #[test]
    fn corruption_flips_exactly_one_payload_byte() {
        let cfg = LinkFaultConfig {
            corrupt_rate: 1.0,
            ..LinkFaultConfig::default()
        };
        let plan = Arc::new(LinkFaultPlan::generate(5, 1, 10, &cfg));
        let mut link = Link::new(
            HostId(0),
            LinkConfig {
                latency_ticks: 1,
                jitter_ticks: 0,
                queue_cap: 8,
                sender_backlog: 8,
            },
            plan,
        );
        let original = env(0, 0);
        assert!(matches!(
            link.send(original.clone(), 0, 1),
            SendOutcome::Queued { .. }
        ));
        let mut out = Vec::new();
        link.take_due(10, &mut out);
        let delivered = &out[0];
        let diff: usize = original
            .payload
            .iter()
            .zip(&delivered.payload)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 1, "exactly one byte must differ");
        assert_eq!(delivered.seq, original.seq, "metadata survives");
    }

    #[test]
    fn duplicates_deliver_two_copies() {
        let cfg = LinkFaultConfig {
            duplicate_rate: 1.0,
            ..LinkFaultConfig::default()
        };
        let plan = Arc::new(LinkFaultPlan::generate(5, 1, 10, &cfg));
        let mut link = Link::new(
            HostId(0),
            LinkConfig {
                latency_ticks: 1,
                jitter_ticks: 0,
                queue_cap: 8,
                sender_backlog: 8,
            },
            plan,
        );
        assert_eq!(
            link.send(env(0, 3), 0, 1),
            SendOutcome::Queued { duplicated: true }
        );
        let mut out = Vec::new();
        link.take_due(10, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| e.seq == 3));
    }
}
