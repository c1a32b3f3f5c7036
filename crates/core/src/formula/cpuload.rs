//! The CPU-load baseline (Versick et al.): active power proportional to
//! the CPU time a process consumes, blind to *what* it executes. The
//! paper argues this is the weaker metric — "the CPU load mostly
//! indicates whether the processor executes a job" — and experiment E5
//! quantifies the gap.

use crate::formula::PowerFormula;
use crate::msg::SensorReport;
use simcpu::units::Watts;

/// `P_active = slope · cpu_load`, where `cpu_load` is CPU-seconds per
/// wall-second (can exceed 1 for multi-threaded processes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuLoadFormula {
    idle_w: f64,
    slope_w_per_cpu: f64,
}

impl CpuLoadFormula {
    /// Builds the formula from calibrated constants: the machine idle
    /// floor and the extra watts one fully-busy CPU adds.
    pub fn new(idle_w: f64, slope_w_per_cpu: f64) -> CpuLoadFormula {
        CpuLoadFormula {
            idle_w,
            slope_w_per_cpu: slope_w_per_cpu.max(0.0),
        }
    }

    /// The per-CPU slope in watts.
    pub fn slope_w_per_cpu(&self) -> f64 {
        self.slope_w_per_cpu
    }
}

impl PowerFormula for CpuLoadFormula {
    fn boxed_clone(&self) -> Box<dyn PowerFormula> {
        Box::new(*self)
    }

    fn name(&self) -> &'static str {
        "cpu-load"
    }

    fn source(&self) -> &'static str {
        crate::sensor::procfs::SOURCE
    }

    fn idle_w(&self) -> f64 {
        self.idle_w
    }

    fn estimate(&mut self, report: &SensorReport) -> Option<Watts> {
        let interval_s = report.interval.as_secs_f64();
        if interval_s <= 0.0 {
            return None;
        }
        let load = report.time.busy.as_secs_f64() / interval_s;
        Some(Watts(self.slope_w_per_cpu * load))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CorunSplit, ProcTimeDelta};
    use os_sim::process::Pid;
    use simcpu::units::Nanos;

    fn report(busy_ms: u64, interval_ms: u64) -> SensorReport {
        SensorReport {
            timestamp: Nanos::from_secs(1),
            interval: Nanos::from_millis(interval_ms),
            pid: Pid(1),
            counters: Vec::new(),
            time: ProcTimeDelta {
                busy: Nanos::from_millis(busy_ms),
                by_freq: Vec::new(),
            },
            corun: CorunSplit::default(),
        }
    }

    #[test]
    fn power_scales_with_load() {
        let mut f = CpuLoadFormula::new(31.5, 12.0);
        assert_eq!(f.idle_w(), 31.5);
        assert_eq!(f.name(), "cpu-load");
        assert_eq!(f.source(), "procfs");
        let idle = f.estimate(&report(0, 1000)).unwrap();
        assert_eq!(idle, Watts::ZERO);
        let half = f.estimate(&report(500, 1000)).unwrap();
        assert!((half.as_f64() - 6.0).abs() < 1e-12);
        let full = f.estimate(&report(1000, 1000)).unwrap();
        assert!((full.as_f64() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn multithreaded_load_exceeds_one_cpu() {
        let mut f = CpuLoadFormula::new(31.5, 12.0);
        // 4 CPU-seconds in 1 wall second.
        let p = f.estimate(&report(4000, 1000)).unwrap();
        assert!((p.as_f64() - 48.0).abs() < 1e-12);
    }

    #[test]
    fn negative_slope_clamped() {
        let f = CpuLoadFormula::new(30.0, -5.0);
        assert_eq!(f.slope_w_per_cpu(), 0.0);
    }

    #[test]
    fn zero_interval_rejected() {
        let mut f = CpuLoadFormula::new(30.0, 10.0);
        let mut r = report(1, 1);
        r.interval = Nanos::ZERO;
        assert!(f.estimate(&r).is_none());
    }
}
