//! Self-overhead profiling: how much CPU the middleware itself burns —
//! the paper's own-consumption question ("the overhead of PowerAPI …
//! less than 3 W"). The handler side needs no profiler of its own: it is
//! the sum of the per-actor handle-latency series the actor loop records
//! anyway ([`Telemetry::handle_totals`]). This profiler times the other
//! side, host-simulation stepping and snapshot harvest, so the two split
//! the process's wall time into "application" and "monitoring
//! middleware".
//!
//! When [`profile_self`] is enabled, the runtime turns the per-interval
//! middleware utilisation into a synthetic per-process power report under
//! [`SELF_PID`], so "powerapi" shows up in the per-process estimates like
//! any monitored workload.
//!
//! [`profile_self`]: crate::runtime::PowerApiBuilder::profile_self
//! [`Telemetry::handle_totals`]: super::Telemetry::handle_totals

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

    /// Total wall ns spent stepping the simulated host so far.
    pub fn host_ns(&self) -> u64 {
        self.host_ns.load(Ordering::Relaxed)
    }

    /// Total wall ns spent harvesting snapshots so far (the self-cost
    /// summary's telemetry column).
    pub fn snapshot_ns(&self) -> u64 {
        self.snapshot_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_and_snapshot_time_accumulate_apart() {
        let p = OverheadProfiler::default();
        assert_eq!((p.host_ns(), p.snapshot_ns()), (0, 0));
        p.record_host(500);
        p.record_host(20);
        p.record_snapshot(100);
        assert_eq!((p.host_ns(), p.snapshot_ns()), (520, 100));
    }

    #[test]
    fn self_pid_is_below_every_kernel_pid() {
        assert_eq!(SELF_PID, Pid(0));
        assert_eq!(SELF_FORMULA, "powerapi-self");
    }
}
