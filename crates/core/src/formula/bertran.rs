//! The Bertran et al. baseline: a *decomposable* power model with one
//! term per microarchitectural component (issue engine, L1, LLC, memory,
//! branch unit), each tracked by its own counter. On simple architectures
//! (their Core 2 Duo testbed — no SMT, no turbo) this linear form fits
//! extremely well (the 4.63 % average error the paper quotes);
//! experiment E4 reproduces that shape.
//!
//! Structurally it is a per-frequency linear model like the paper's, just
//! over a component-proxy event set — so it reuses
//! [`PerFrequencyPowerModel`] with [`bertran_events`] and differs only in
//! name and training set.

use crate::formula::per_freq::PerFrequencyFormula;
use crate::formula::PowerFormula;
use crate::frame::{PowerBatch, SensorBatch};
use crate::model::power_model::PerFrequencyPowerModel;
use crate::msg::{Quality, SensorReport};
use perf_sim::events::Event;
use simcpu::counters::HwCounter;
use simcpu::units::Watts;

/// The component-proxy counters of the decomposable model: issue engine
/// (`instructions`), L1 (`L1-dcache-loads`), LLC (`cache-references`),
/// memory (`cache-misses`), branch unit (`branch-instructions`).
pub fn bertran_events() -> Vec<Event> {
    vec![
        Event::Hardware(HwCounter::Instructions),
        Event::Hardware(HwCounter::L1dAccesses),
        Event::Hardware(HwCounter::CacheReferences),
        Event::Hardware(HwCounter::CacheMisses),
        Event::Hardware(HwCounter::BranchInstructions),
    ]
}

/// The formula: per-frequency decomposable component model.
#[derive(Debug, Clone, PartialEq)]
pub struct BertranFormula {
    inner: PerFrequencyFormula,
}

impl BertranFormula {
    /// Wraps a model trained over [`bertran_events`].
    pub fn new(model: PerFrequencyPowerModel) -> BertranFormula {
        BertranFormula {
            inner: PerFrequencyFormula::new(model),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &PerFrequencyPowerModel {
        self.inner.model()
    }
}

impl PowerFormula for BertranFormula {
    fn boxed_clone(&self) -> Box<dyn PowerFormula> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "bertran-decomposable"
    }

    fn idle_w(&self) -> f64 {
        self.inner.idle_w()
    }

    fn estimate(&mut self, report: &SensorReport) -> Option<Watts> {
        self.inner.estimate(report)
    }

    fn estimate_batch(&mut self, batch: &SensorBatch, quality: Quality, out: &mut PowerBatch) {
        // Same column math as the per-frequency formula, but no claimed
        // prediction band (this wrapper does not override `interval_w`).
        self.inner.estimate_batch_cols(batch, quality, out, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CorunSplit, ProcTimeDelta};
    use os_sim::process::Pid;
    use simcpu::units::{MegaHertz, Nanos};

    #[test]
    fn event_set_has_five_components() {
        let e = bertran_events();
        assert_eq!(e.len(), 5);
        assert!(e.iter().any(|x| x.to_string() == "L1-dcache-loads"));
    }

    #[test]
    fn delegates_estimation_with_its_own_name() {
        let model = PerFrequencyPowerModel::from_parts(
            40.0,
            bertran_events().iter().map(|e| e.to_string()).collect(),
            vec![(MegaHertz(2400), vec![1e-9, 1e-9, 1e-8, 1e-7, 1e-9])],
        )
        .unwrap();
        let mut f = BertranFormula::new(model);
        assert_eq!(f.name(), "bertran-decomposable");
        assert_eq!(f.idle_w(), 40.0);
        let report = SensorReport {
            timestamp: Nanos::from_secs(1),
            interval: Nanos::from_secs(1),
            pid: Pid(1),
            counters: bertran_events()
                .into_iter()
                .map(|e| (e, 1_000_000_000u64))
                .collect(),
            time: ProcTimeDelta {
                busy: Nanos::from_secs(1),
                by_freq: vec![(MegaHertz(2400), Nanos::from_secs(1))],
            },
            corun: CorunSplit::default(),
        };
        let p = f.estimate(&report).unwrap().as_f64();
        // 1 + 1 + 10 + 100 + 1 W.
        assert!((p - 113.0).abs() < 1e-6, "{p}");
    }
}
