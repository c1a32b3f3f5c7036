//! Sender-side reliability: per-frame retransmission with exponential
//! backoff + deterministic jitter and a bounded retransmit budget, plus
//! credit-based flow control toward the estimator shards. The schedule
//! is fixed — the constants below (DESIGN.md "Fixed constants").
//!
//! Credits are implicit: a sender may hold at most [`CREDITS_PER_HOST`]
//! unacknowledged frames. Every fresh transmission consumes one slot; an
//! ack (or an exhausted budget) releases it. Because the slot count *is*
//! the credit count, the classic double-release bugs (ack racing a
//! timeout) cannot occur — there is no separate counter to corrupt.

use super::envelope::{FrameEnvelope, HostId};
use super::fault::LinkFaultPlan;
use std::collections::{BTreeMap, VecDeque};

const SALT_BACKOFF: u64 = 6;

/// Ticks to wait for an ack before the first retransmit.
pub const TIMEOUT_TICKS: u64 = 4;

/// Retransmissions allowed per frame before it is abandoned (the
/// retransmit budget: up to `MAX_RETRIES + 1` transmissions in all).
pub const MAX_RETRIES: u32 = 3;

/// Ceiling on the exponentially growing backoff, in ticks.
pub const MAX_BACKOFF_TICKS: u64 = 32;

/// Maximum deterministic jitter added to each deadline, in ticks
/// (decorrelates retry storms across hosts).
pub const JITTER_TICKS: u64 = 1;

/// Unacknowledged frames one sender may have in flight (the credit
/// allowance its shard grants).
pub const CREDITS_PER_HOST: u32 = 4;

/// The ack deadline for transmission `attempt` of `host`'s frame `seq`,
/// sent at fleet tick `now`: `TIMEOUT_TICKS · 2^attempt` (capped at
/// [`MAX_BACKOFF_TICKS`]) plus a hash jitter of up to [`JITTER_TICKS`].
pub fn deadline(now: u64, attempt: u32, plan: &LinkFaultPlan, host: HostId, seq: u64) -> u64 {
    let backoff = TIMEOUT_TICKS
        .saturating_mul(1u64 << attempt.min(16))
        .min(MAX_BACKOFF_TICKS);
    let jitter = plan.hash(host, seq, attempt, SALT_BACKOFF) % (JITTER_TICKS + 1);
    now + backoff + jitter
}

/// A transmitted frame awaiting its ack. The envelope kept here is the
/// *clean* canonical copy — link corruption mangles clones in flight,
/// so a retransmission always starts from good bytes.
#[derive(Debug, Clone)]
pub struct Pending {
    /// The canonical envelope (original `sent_at` preserved). Its
    /// `attempt` counts the transmissions so far minus one (0 = first
    /// try outstanding).
    pub env: FrameEnvelope,
    /// Fleet tick at which the current transmission times out.
    pub deadline: u64,
}

/// One host's sender: sequence allocation, bounded local backlog, and
/// the unacked-frame window that doubles as the credit balance.
#[derive(Debug)]
pub struct SenderState {
    host: HostId,
    next_seq: u64,
    /// Frames produced but not yet transmitted (waiting for credits).
    pub backlog: VecDeque<FrameEnvelope>,
    /// Unacked transmissions by sequence number.
    pub pending: BTreeMap<u64, Pending>,
}

impl SenderState {
    /// A sender for `host` with [`CREDITS_PER_HOST`] credits.
    pub fn new(host: HostId) -> SenderState {
        SenderState {
            host,
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
        self.pending.len() < CREDITS_PER_HOST as usize
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
        let plan = LinkFaultPlan::none();
        // 4 · 2^attempt, capped at 32 ticks; the jitter rides on top.
        for (attempt, backoff) in [4, 8, 16, 32, 32, 32].into_iter().enumerate() {
            for seq in 0..8 {
                let wait = deadline(100, attempt as u32, &plan, HostId(0), seq) - 100;
                assert!(
                    (backoff..=backoff + JITTER_TICKS).contains(&wait),
                    "attempt {attempt}: waits {wait} ticks, backoff {backoff}"
                );
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let plan = LinkFaultPlan::none();
        let mut seen = [false; JITTER_TICKS as usize + 1];
        for seq in 0..32 {
            let a = deadline(10, 0, &plan, HostId(1), seq);
            let b = deadline(10, 0, &plan, HostId(1), seq);
            assert_eq!(a, b);
            let jitter = a - 10 - TIMEOUT_TICKS;
            assert!(jitter <= JITTER_TICKS, "deadline {a} outside jitter band");
            seen[jitter as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every jitter value occurs");
    }

    #[test]
    fn credits_equal_unacked_window() {
        let mut s = SenderState::new(HostId(2));
        assert!(s.may_send());
        for seq in 0..u64::from(CREDITS_PER_HOST) {
            assert_eq!(s.alloc_seq(), seq);
            s.pending.insert(
                seq,
                Pending {
                    env: env(seq),
                    deadline: 5,
                },
            );
        }
        assert!(!s.may_send(), "window full consumes all credits");
        let released = s.ack(0).expect("ack releases a credit");
        assert_eq!(released.env.attempt, 0, "released entry reports attempts");
        assert!(s.may_send());
        assert!(s.ack(0).is_none(), "late duplicate ack is a no-op");
        assert_eq!(
            s.expired(5),
            (1..u64::from(CREDITS_PER_HOST)).collect::<Vec<_>>()
        );
        assert_eq!(s.produced(), u64::from(CREDITS_PER_HOST));
    }
}
