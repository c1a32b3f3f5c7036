//! Timestamped power traces: what Figure 3 plots (the PowerSpy series and
//! the estimation series), with the alignment/resampling needed to compare
//! them sample-for-sample.

use crate::powerspy::PowerSample;
use simcpu::units::{Nanos, Watts};

/// An append-only, time-ordered power series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTrace {
    samples: Vec<PowerSample>,
}

impl PowerTrace {
    /// An empty trace.
    pub fn new() -> PowerTrace {
        PowerTrace::default()
    }

    /// Appends a sample. Out-of-order samples are rejected silently-ish:
    ///
    /// # Panics
    ///
    /// Panics when `sample.at` precedes the last sample (traces are
    /// produced by monotone clocks; going backwards is a logic error).
    pub fn push(&mut self, sample: PowerSample) {
        if let Some(last) = self.samples.last() {
            assert!(
                sample.at >= last.at,
                "trace timestamps must be monotone: {} after {}",
                sample.at,
                last.at
            );
        }
        self.samples.push(sample);
    }

    /// Appends a (time, power) pair.
    pub fn push_at(&mut self, at: Nanos, power: Watts) {
        self.push(PowerSample { at, power });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrowed view of the samples.
    pub fn samples(&self) -> &[PowerSample] {
        &self.samples
    }

    /// Power values only.
    pub fn powers(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.power.as_f64()).collect()
    }

    /// Iterates over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, PowerSample> {
        self.samples.iter()
    }

    /// Mean power (`None` for an empty trace).
    pub fn mean(&self) -> Option<Watts> {
        if self.samples.is_empty() {
            return None;
        }
        Some(Watts(
            self.samples.iter().map(|s| s.power.as_f64()).sum::<f64>() / self.samples.len() as f64,
        ))
    }

    /// Total energy by trapezoidal integration between sample timestamps
    /// (zero for traces with fewer than two samples).
    pub fn energy_joules(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| {
                let dt = (w[1].at - w[0].at).as_secs_f64();
                0.5 * (w[0].power.as_f64() + w[1].power.as_f64()) * dt
            })
            .sum()
    }

    /// Value at a time by zero-order hold (last sample at or before `t`;
    /// `None` before the first sample or on an empty trace).
    pub fn at(&self, t: Nanos) -> Option<Watts> {
        match self.samples.binary_search_by(|s| s.at.cmp(&t)) {
            Ok(i) => Some(self.samples[i].power),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].power),
        }
    }

    /// Pairs this trace with another at this trace's timestamps (zero-order
    /// hold on `other`), returning `(actual, other)` vectors ready for
    /// error metrics. Timestamps `other` cannot cover are skipped.
    pub fn align(&self, other: &PowerTrace) -> (Vec<f64>, Vec<f64>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for s in &self.samples {
            if let Some(p) = other.at(s.at) {
                a.push(s.power.as_f64());
                b.push(p.as_f64());
            }
        }
        (a, b)
    }
}

impl Extend<PowerSample> for PowerTrace {
    fn extend<T: IntoIterator<Item = PowerSample>>(&mut self, iter: T) {
        for s in iter {
            self.push(s);
        }
    }
}

impl FromIterator<PowerSample> for PowerTrace {
    fn from_iter<T: IntoIterator<Item = PowerSample>>(iter: T) -> PowerTrace {
        let mut t = PowerTrace::new();
        t.extend(iter);
        t
    }
}

impl<'a> IntoIterator for &'a PowerTrace {
    type Item = &'a PowerSample;
    type IntoIter = std::slice::Iter<'a, PowerSample>;

    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64, w: f64) -> PowerSample {
        PowerSample {
            at: Nanos::from_millis(ms),
            power: Watts(w),
        }
    }

    #[test]
    fn push_and_basic_stats() {
        let trace: PowerTrace = [t(0, 10.0), t(1000, 20.0), t(2000, 30.0)]
            .into_iter()
            .collect();
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.mean().unwrap().as_f64(), 20.0);
        assert_eq!(trace.powers(), vec![10.0, 20.0, 30.0]);
        assert!(PowerTrace::new().mean().is_none());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn out_of_order_push_panics() {
        let mut trace = PowerTrace::new();
        trace.push(t(1000, 1.0));
        trace.push(t(500, 1.0));
    }

    #[test]
    fn energy_trapezoid() {
        let trace: PowerTrace = [t(0, 10.0), t(1000, 30.0)].into_iter().collect();
        // (10+30)/2 · 1 s = 20 J.
        assert!((trace.energy_joules() - 20.0).abs() < 1e-12);
        assert_eq!(PowerTrace::new().energy_joules(), 0.0);
    }

    #[test]
    fn zero_order_hold_lookup() {
        let trace: PowerTrace = [t(1000, 10.0), t(2000, 20.0)].into_iter().collect();
        assert_eq!(trace.at(Nanos::from_millis(500)), None);
        assert_eq!(trace.at(Nanos::from_millis(1000)).unwrap().as_f64(), 10.0);
        assert_eq!(trace.at(Nanos::from_millis(1500)).unwrap().as_f64(), 10.0);
        assert_eq!(trace.at(Nanos::from_millis(2000)).unwrap().as_f64(), 20.0);
        assert_eq!(trace.at(Nanos::from_millis(9000)).unwrap().as_f64(), 20.0);
    }

    #[test]
    fn align_skips_uncovered_times() {
        let meter: PowerTrace = [t(1000, 10.0), t(2000, 20.0), t(3000, 30.0)]
            .into_iter()
            .collect();
        let est: PowerTrace = [t(1500, 11.0), t(2500, 21.0)].into_iter().collect();
        let (a, b) = meter.align(&est);
        // meter@1000 has no estimate yet; 2000→11 (hold), 3000→21.
        assert_eq!(a, vec![20.0, 30.0]);
        assert_eq!(b, vec![11.0, 21.0]);
    }

    #[test]
    fn iteration() {
        let trace: PowerTrace = [t(0, 1.0), t(10, 2.0)].into_iter().collect();
        assert_eq!(trace.iter().count(), 2);
        assert_eq!((&trace).into_iter().count(), 2);
        assert_eq!(trace.samples().len(), 2);
    }
}
