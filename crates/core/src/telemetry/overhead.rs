//! Self-overhead profiling: how much CPU the middleware itself burns —
//! the paper's own-consumption question ("the overhead of PowerAPI …
//! less than 3 W"). The handler side needs no profiler of its own: it is
//! the sum of the per-actor handle-latency series the actor loop records
//! anyway ([`Telemetry::overhead_summary`]). This profiler times the
//! other side, host-simulation stepping and snapshot harvest, and the
//! ratio splits the process's wall time into "application" and
//! "monitoring middleware".
//!
//! When [`profile_self`] is enabled, the runtime turns the per-interval
//! middleware utilisation into a synthetic per-process power report under
//! [`SELF_PID`], so "powerapi" shows up in the per-process estimates like
//! any monitored workload.
//!
//! [`profile_self`]: crate::runtime::PowerApiBuilder::profile_self
//! [`Telemetry::overhead_summary`]: super::Telemetry::overhead_summary

use os_sim::process::Pid;
use std::sync::atomic::{AtomicU64, Ordering};

/// The synthetic pid the middleware's own consumption is attributed to.
/// Real simulated pids start at 100, so 0 is never a workload.
pub const SELF_PID: Pid = Pid(0);

/// The formula name stamped on self-attribution reports.
pub const SELF_FORMULA: &str = "powerapi-self";

/// Accumulates the host side's wall-clock busy time.
#[derive(Debug, Default)]
pub struct OverheadProfiler {
    /// Wall ns spent advancing the simulated host between ticks.
    host_ns: AtomicU64,
    /// Wall ns spent harvesting snapshots.
    snapshot_ns: AtomicU64,
}

impl OverheadProfiler {
    /// Adds host-simulation time.
    pub fn record_host(&self, ns: u64) {
        self.host_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds snapshot-harvest time.
    pub fn record_snapshot(&self, ns: u64) {
        self.snapshot_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total wall ns spent harvesting snapshots so far (the self-cost
    /// summary's telemetry column).
    pub fn snapshot_ns(&self) -> u64 {
        self.snapshot_ns.load(Ordering::Relaxed)
    }

    /// The split against `messages` handled in `middleware_busy_ns` of
    /// handler time.
    pub fn summary(&self, messages: u64, middleware_busy_ns: u64) -> OverheadSummary {
        // Snapshot harvest feeds the sensors, so it counts as host-side
        // measurement cost, not actor cost.
        let host_busy_ns =
            self.host_ns.load(Ordering::Relaxed) + self.snapshot_ns.load(Ordering::Relaxed);
        let total = middleware_busy_ns + host_busy_ns;
        OverheadSummary {
            middleware_busy_ns,
            host_busy_ns,
            messages,
            middleware_share: if total == 0 {
                0.0
            } else {
                middleware_busy_ns as f64 / total as f64
            },
        }
    }
}

/// Where the wall time went, middleware vs simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OverheadSummary {
    /// Wall ns spent inside actor `handle` calls.
    pub middleware_busy_ns: u64,
    /// Wall ns spent stepping the simulation and harvesting snapshots.
    pub host_busy_ns: u64,
    /// Messages handled by the pipeline.
    pub messages: u64,
    /// middleware / (middleware + host) busy time, in `[0, 1]`.
    pub middleware_share: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_split_middleware_vs_host() {
        let p = OverheadProfiler::default();
        assert_eq!(p.summary(0, 0), OverheadSummary::default());
        p.record_host(500);
        p.record_snapshot(100);
        let s = p.summary(2, 400);
        assert_eq!(s.middleware_busy_ns, 400);
        assert_eq!(s.host_busy_ns, 600);
        assert_eq!(s.messages, 2);
        assert!((s.middleware_share - 0.4).abs() < 1e-12);
        assert_eq!(p.snapshot_ns(), 100);
    }

    #[test]
    fn self_pid_is_below_every_kernel_pid() {
        assert_eq!(SELF_PID, Pid(0));
        assert_eq!(SELF_FORMULA, "powerapi-self");
    }
}
