//! The HaPPy baseline (Zhai et al.): a **hyperthread-aware** model. Power
//! per event differs between a thread running *alone* on a physical core
//! and one *sharing* it — the shared pipeline is already powered, so
//! co-run events are cheaper. The model therefore keeps two coefficient
//! vectors per frequency and the sensor supplies counter deltas split by
//! sibling state ([`CorunSplit`]).
//!
//! [`CorunSplit`]: crate::msg::CorunSplit

use crate::formula::PowerFormula;
use crate::frame::{PowerBatch, SensorBatch, NO_ROW};
use crate::model::power_model::nearest_index;
use crate::msg::{CorunSplit, Quality, SensorReport};
use crate::{Error, Result};
use simcpu::counters::HwCounter;
use simcpu::units::{MegaHertz, Watts};
use std::collections::BTreeMap;

/// The hyperthread-aware model: per frequency, one coefficient per event
/// for solo execution and one for co-run execution.
#[derive(Debug, Clone, PartialEq)]
pub struct HappyModel {
    idle_w: f64,
    events: Vec<HwCounter>,
    /// The modelled frequencies, ascending and distinct.
    freqs: Vec<MegaHertz>,
    /// `(solo, corun)` coefficients per entry of `freqs`.
    coefs: Vec<(Vec<f64>, Vec<f64>)>,
}

impl HappyModel {
    /// Assembles a model.
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] for empty parts or arity mismatches.
    pub fn from_parts(
        idle_w: f64,
        events: Vec<HwCounter>,
        per_freq: Vec<(MegaHertz, Vec<f64>, Vec<f64>)>,
    ) -> Result<HappyModel> {
        if events.is_empty() {
            return Err(Error::Middleware("happy model needs events".into()));
        }
        if per_freq.is_empty() {
            return Err(Error::Middleware("happy model needs frequencies".into()));
        }
        let mut map = BTreeMap::new();
        for (f, solo, corun) in per_freq {
            if solo.len() != events.len() || corun.len() != events.len() {
                return Err(Error::Middleware(format!(
                    "happy coefficient arity mismatch at {f}"
                )));
            }
            map.insert(f, (solo, corun));
        }
        Ok(HappyModel {
            idle_w,
            events,
            freqs: map.keys().copied().collect(),
            coefs: map.into_values().collect(),
        })
    }

    /// The machine idle floor.
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// The model's events.
    pub fn events(&self) -> &[HwCounter] {
        &self.events
    }

    /// Solo/corun coefficients at the nearest modeled frequency (ties to
    /// the lower one, like the per-frequency model's lookup).
    pub fn nearest(&self, f: MegaHertz) -> (&[f64], &[f64]) {
        let (solo, corun) = &self.coefs[nearest_index(&self.freqs, f)];
        (solo, corun)
    }

    /// Active power from solo and co-run event rates (events/second).
    pub fn predict_active(&self, f: MegaHertz, solo: &[f64], corun: &[f64]) -> Result<f64> {
        if solo.len() != self.events.len() || corun.len() != self.events.len() {
            return Err(Error::Middleware("happy rate arity mismatch".into()));
        }
        let (cs, cc) = self.nearest(f);
        let p: f64 = cs.iter().zip(solo).map(|(c, r)| c * r).sum::<f64>()
            + cc.iter().zip(corun).map(|(c, r)| c * r).sum::<f64>();
        Ok(p.max(0.0))
    }
}

/// The formula wrapper.
#[derive(Debug, Clone)]
pub struct HappyFormula {
    model: HappyModel,
    /// Scratch solo rates, reused across rows.
    solo: Vec<f64>,
    /// Scratch co-run rates, reused across rows.
    corun: Vec<f64>,
}

impl PartialEq for HappyFormula {
    fn eq(&self, other: &HappyFormula) -> bool {
        // Scratch is plumbing, not state.
        self.model == other.model
    }
}

impl HappyFormula {
    /// Wraps a model.
    pub fn new(model: HappyModel) -> HappyFormula {
        HappyFormula {
            model,
            solo: Vec::new(),
            corun: Vec::new(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &HappyModel {
        &self.model
    }
}

impl PowerFormula for HappyFormula {
    fn boxed_clone(&self) -> Box<dyn PowerFormula> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "happy-ht-aware"
    }

    fn idle_w(&self) -> f64 {
        self.model.idle_w()
    }

    fn estimate(&mut self, report: &SensorReport) -> Option<Watts> {
        let interval_s = report.interval.as_secs_f64();
        if interval_s <= 0.0 {
            return None;
        }
        // Dominant frequency over the interval (HaPPy assumes a fixed
        // operating point; we take the residency-weighted mode).
        let freq = report
            .time
            .by_freq
            .iter()
            .max_by_key(|(_, t)| t.as_u64())
            .map(|(f, _)| *f)
            .unwrap_or(self.model.freqs[0]);
        self.estimate_split(&report.corun, interval_s, freq)
    }

    fn estimate_batch(&mut self, batch: &SensorBatch, quality: Quality, out: &mut PowerBatch) {
        let frame = &*batch.frame;
        let interval_s = frame.interval.as_secs_f64();
        if interval_s <= 0.0 {
            return;
        }
        for row in &batch.rows {
            let split = if row.corun != NO_ROW {
                frame.corun_split(row.corun as usize)
            } else {
                CorunSplit::default()
            };
            let freq = if row.time != NO_ROW {
                frame
                    .freq_slice(row.time as usize)
                    .iter()
                    .max_by_key(|(_, t)| t.as_u64())
                    .map(|(f, _)| *f)
            } else {
                None
            };
            let freq = freq.unwrap_or(self.model.freqs[0]);
            if let Some(watts) = self.estimate_split(&split, interval_s, freq) {
                out.push(row.pid, watts, Watts(0.0), quality);
            }
        }
    }
}

impl HappyFormula {
    /// One estimate from a co-run split at a fixed operating point —
    /// shared by the row-by-row and column paths, rates built in the
    /// reusable scratch columns.
    fn estimate_split(
        &mut self,
        split: &CorunSplit,
        interval_s: f64,
        freq: MegaHertz,
    ) -> Option<Watts> {
        self.solo.clear();
        self.solo.extend(
            self.model
                .events
                .iter()
                .map(|&c| split.solo.get(c) as f64 / interval_s),
        );
        self.corun.clear();
        self.corun.extend(
            self.model
                .events
                .iter()
                .map(|&c| split.corun.get(c) as f64 / interval_s),
        );
        Some(Watts(
            self.model
                .predict_active(freq, &self.solo, &self.corun)
                .ok()?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CorunSplit, ProcTimeDelta};
    use os_sim::process::Pid;
    use simcpu::counters::ExecDelta;
    use simcpu::units::Nanos;

    fn model() -> HappyModel {
        HappyModel::from_parts(
            30.0,
            vec![HwCounter::Instructions],
            vec![(MegaHertz(2600), vec![2.0e-9], vec![1.0e-9])],
        )
        .unwrap()
    }

    fn report(solo_inst: u64, corun_inst: u64) -> SensorReport {
        SensorReport {
            timestamp: Nanos::from_secs(1),
            interval: Nanos::from_secs(1),
            pid: Pid(1),
            counters: Vec::new(),
            time: ProcTimeDelta {
                busy: Nanos::from_secs(1),
                by_freq: vec![(MegaHertz(2600), Nanos::from_secs(1))],
            },
            corun: CorunSplit {
                solo: ExecDelta {
                    instructions: solo_inst,
                    ..ExecDelta::zero()
                },
                corun: ExecDelta {
                    instructions: corun_inst,
                    ..ExecDelta::zero()
                },
                solo_time: Nanos::from_millis(500),
                corun_time: Nanos::from_millis(500),
            },
        }
    }

    #[test]
    fn validation() {
        assert!(HappyModel::from_parts(1.0, vec![], vec![]).is_err());
        assert!(HappyModel::from_parts(1.0, vec![HwCounter::Cycles], vec![]).is_err());
        assert!(HappyModel::from_parts(
            1.0,
            vec![HwCounter::Cycles],
            vec![(MegaHertz(1000), vec![1.0, 2.0], vec![1.0])]
        )
        .is_err());
    }

    #[test]
    fn corun_instructions_are_cheaper() {
        let mut f = HappyFormula::new(model());
        assert_eq!(f.name(), "happy-ht-aware");
        assert_eq!(f.idle_w(), 30.0);
        let solo_only = f.estimate(&report(1_000_000_000, 0)).unwrap().as_f64();
        let corun_only = f.estimate(&report(0, 1_000_000_000)).unwrap().as_f64();
        assert!((solo_only - 2.0).abs() < 1e-9);
        assert!((corun_only - 1.0).abs() < 1e-9);
        let mixed = f
            .estimate(&report(500_000_000, 500_000_000))
            .unwrap()
            .as_f64();
        assert!((mixed - 1.5).abs() < 1e-9);
    }

    #[test]
    fn predict_validates_arity() {
        let m = model();
        assert!(m
            .predict_active(MegaHertz(2600), &[1.0, 2.0], &[1.0])
            .is_err());
        assert!(m.predict_active(MegaHertz(2600), &[1.0], &[1.0]).is_ok());
    }

    #[test]
    fn missing_freq_split_falls_back() {
        let mut f = HappyFormula::new(model());
        let mut r = report(1_000_000_000, 0);
        r.time.by_freq.clear();
        let p = f.estimate(&r).unwrap().as_f64();
        assert!((p - 2.0).abs() < 1e-9, "uses the model's own frequency");
    }
}
