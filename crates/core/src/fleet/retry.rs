//! Sender-side reliability: per-frame retransmission with exponential
//! backoff + deterministic jitter and a bounded retransmit budget, plus
//! credit-based flow control toward the estimator shards.
//!
//! Credits are implicit: a sender may hold at most `credits` (the
//! allowance [`SenderState::new`] is given) unacknowledged frames. Every
//! fresh transmission consumes one slot; an ack (or an exhausted budget)
//! releases it. Because the slot count *is* the credit count, the
//! classic double-release bugs (ack racing a timeout) cannot occur —
//! there is no separate counter to corrupt.

use super::envelope::{FrameEnvelope, HostId};
use super::fault::LinkFaultPlan;
use std::collections::{BTreeMap, VecDeque};

const SALT_BACKOFF: u64 = 6;

/// Retransmission knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Ticks to wait for an ack before the first retransmit.
    pub timeout_ticks: u64,
    /// Retransmissions allowed per frame before it is abandoned (the
    /// retransmit budget; 3 means up to 4 transmissions total).
    pub max_retries: u32,
    /// Ceiling on the exponentially growing backoff, in ticks.
    pub max_backoff_ticks: u64,
    /// Maximum deterministic jitter added to each deadline, in ticks
    /// (decorrelates retry storms across hosts).
    pub jitter_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            timeout_ticks: 4,
            max_retries: 3,
            max_backoff_ticks: 32,
            jitter_ticks: 1,
        }
    }
}

impl RetryPolicy {
    /// The ack deadline for transmission `attempt` of a frame sent at
    /// fleet tick `now`: `timeout · 2^attempt` (capped) plus hash jitter.
    pub fn deadline(
        &self,
        now: u64,
        attempt: u32,
        plan: &LinkFaultPlan,
        host: HostId,
        seq: u64,
    ) -> u64 {
        let backoff = self
            .timeout_ticks
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_backoff_ticks.max(self.timeout_ticks));
        let jitter = if self.jitter_ticks == 0 {
            0
        } else {
            plan.hash(host, seq, attempt, SALT_BACKOFF) % (self.jitter_ticks + 1)
        };
        now + backoff.max(1) + jitter
    }
}

/// A transmitted frame awaiting its ack. The envelope kept here is the
/// *clean* canonical copy — link corruption mangles clones in flight,
/// so a retransmission always starts from good bytes.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The canonical envelope (original `sent_at` preserved).
    pub env: FrameEnvelope,
    /// Transmissions so far minus one (0 = first try outstanding).
    pub attempt: u32,
    /// Fleet tick at which the current transmission times out.
    pub deadline: u64,
}

/// One host's sender: sequence allocation, bounded local backlog, and
/// the unacked-frame window that doubles as the credit balance.
#[derive(Debug)]
pub struct SenderState {
    host: HostId,
    /// Maximum unacknowledged frames in flight (the credit allowance
    /// granted by the host's shard).
    credits: u32,
    next_seq: u64,
    /// Frames produced but not yet transmitted (waiting for credits).
    pub backlog: VecDeque<FrameEnvelope>,
    /// Unacked transmissions by sequence number.
    pub pending: BTreeMap<u64, Pending>,
}

impl SenderState {
    /// A sender for `host` with a credit allowance.
    pub fn new(host: HostId, credits: u32) -> SenderState {
        SenderState {
            host,
            credits: credits.max(1),
            next_seq: 0,
            backlog: VecDeque::new(),
            pending: BTreeMap::new(),
        }
    }

    /// The host this sender belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Allocates the next sequence number.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Sequence numbers allocated so far.
    pub fn produced(&self) -> u64 {
        self.next_seq
    }

    /// Whether a fresh transmission may start (credits available).
    pub fn may_send(&self) -> bool {
        self.pending.len() < self.credits as usize
    }

    /// Handles an ack; returns the released pending entry when one was
    /// outstanding (a late ack for an abandoned frame is a no-op). The
    /// entry carries the transmission count, so the caller can feed the
    /// retransmit-distribution histogram.
    pub fn ack(&mut self, seq: u64) -> Option<Pending> {
        self.pending.remove(&seq)
    }

    /// Sequence numbers whose current transmission has timed out.
    pub fn expired(&self, now: u64) -> Vec<u64> {
        self.pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&s, _)| s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::units::Nanos;

    fn env(seq: u64) -> FrameEnvelope {
        FrameEnvelope {
            host: HostId(0),
            seq,
            sent_at: Nanos(seq),
            trace: crate::telemetry::TraceId::NONE,
            attempt: 0,
            payload: vec![0; 4],
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            timeout_ticks: 4,
            max_retries: 5,
            max_backoff_ticks: 16,
            jitter_ticks: 0,
        };
        let plan = LinkFaultPlan::none();
        let d0 = p.deadline(100, 0, &plan, HostId(0), 0);
        let d1 = p.deadline(100, 1, &plan, HostId(0), 0);
        let d2 = p.deadline(100, 2, &plan, HostId(0), 0);
        let d3 = p.deadline(100, 3, &plan, HostId(0), 0);
        assert_eq!(d0, 104);
        assert_eq!(d1, 108);
        assert_eq!(d2, 116);
        assert_eq!(d3, 116, "backoff must cap at max_backoff_ticks");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            jitter_ticks: 3,
            ..RetryPolicy::default()
        };
        let plan = LinkFaultPlan::none();
        for seq in 0..32 {
            let a = p.deadline(10, 0, &plan, HostId(1), seq);
            let b = p.deadline(10, 0, &plan, HostId(1), seq);
            assert_eq!(a, b);
            assert!((14..=17).contains(&a), "deadline {a} outside jitter band");
        }
    }

    #[test]
    fn credits_equal_unacked_window() {
        let mut s = SenderState::new(HostId(2), 2);
        assert!(s.may_send());
        for seq in 0..2u64 {
            assert_eq!(s.alloc_seq(), seq);
            s.pending.insert(
                seq,
                Pending {
                    env: env(seq),
                    attempt: 0,
                    deadline: 5,
                },
            );
        }
        assert!(!s.may_send(), "window full consumes all credits");
        let released = s.ack(0).expect("ack releases a credit");
        assert_eq!(released.attempt, 0, "released entry reports attempts");
        assert!(s.may_send());
        assert!(s.ack(0).is_none(), "late duplicate ack is a no-op");
        assert_eq!(s.expired(5), vec![1]);
        assert_eq!(s.produced(), 2);
    }
}
