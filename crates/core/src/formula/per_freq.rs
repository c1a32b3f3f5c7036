//! The paper's formula: the learned per-frequency linear model. Counter
//! deltas are attributed to the frequencies the process actually ran at
//! (proportionally to its `time_in_state` split) and each frequency's
//! model is applied to its share — `Power = idle + Σ_f Power_f` with the
//! idle added later, once per machine, by the aggregator.

use crate::formula::PowerFormula;
use crate::frame::{PowerBatch, SensorBatch, NO_ROW};
use crate::health::PREDICTION_Z;
use crate::model::power_model::PerFrequencyPowerModel;
use crate::msg::{Quality, SensorReport};
use perf_sim::events::Event;
use simcpu::units::{MegaHertz, Nanos, Watts};
use std::sync::Arc;

/// The model's event slots resolved against one frame layout: index `i`
/// holds where model event `i` lives in the frame's counter row. Resolved
/// once per layout (the host reuses one `Arc<[Event]>` for the whole
/// run) instead of string-comparing event names on every row.
#[derive(Debug, Clone, Default)]
struct SlotCache {
    /// The layout the slots were resolved against.
    layout: Option<Arc<[Event]>>,
    /// Model-event → frame-column indices (`None` when any model event is
    /// missing from the layout — every row is then inestimable, exactly
    /// like [`PowerFormula::estimate`] returning `None`).
    slots: Option<Vec<usize>>,
}

/// The formula actor state.
#[derive(Debug, Clone)]
pub struct PerFrequencyFormula {
    model: PerFrequencyPowerModel,
    slots: SlotCache,
    /// Scratch counter deltas in model-event order, reused across rows.
    deltas: Vec<f64>,
    /// Scratch event rates, reused across rows and frequencies.
    rates: Vec<f64>,
}

impl PartialEq for PerFrequencyFormula {
    fn eq(&self, other: &PerFrequencyFormula) -> bool {
        // Caches and scratch are plumbing, not state.
        self.model == other.model
    }
}

impl PerFrequencyFormula {
    /// Wraps a learned model.
    pub fn new(model: PerFrequencyPowerModel) -> PerFrequencyFormula {
        PerFrequencyFormula {
            model,
            slots: SlotCache::default(),
            deltas: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &PerFrequencyPowerModel {
        &self.model
    }

    /// Re-resolves the slot cache when the frame layout changed. Layouts
    /// are compared by pointer first — the runtime shares one
    /// `Arc<[Event]>` across every frame — with a content fallback for
    /// hand-built frames.
    fn refresh_slots(&mut self, events: &Arc<[Event]>) {
        let fresh = match &self.slots.layout {
            Some(l) => Arc::ptr_eq(l, events) || **l == **events,
            None => false,
        };
        if fresh {
            return;
        }
        self.slots.slots = self
            .model
            .event_names()
            .iter()
            .map(|name| events.iter().position(|e| e.to_string() == *name))
            .collect();
        self.slots.layout = Some(events.clone());
    }

    /// The batched estimator shared with [`BertranFormula`]: identical
    /// arithmetic to the row-by-row [`PowerFormula::estimate`] reference,
    /// reading frame columns through the resolved slots. `with_band`
    /// gates the prediction-band column (the Bertran wrapper claims no
    /// band).
    ///
    /// [`BertranFormula`]: crate::formula::bertran::BertranFormula
    pub(crate) fn estimate_batch_cols(
        &mut self,
        batch: &SensorBatch,
        quality: Quality,
        out: &mut PowerBatch,
        with_band: bool,
    ) {
        let frame = &*batch.frame;
        let interval_s = frame.interval.as_secs_f64();
        if interval_s <= 0.0 {
            return;
        }
        self.refresh_slots(&frame.events);
        let Some(slots) = self.slots.slots.take() else {
            return;
        };
        // Sized once per call and overwritten per row and frequency.
        let mut deltas = std::mem::take(&mut self.deltas);
        let mut rates = std::mem::take(&mut self.rates);
        deltas.resize(slots.len(), 0.0);
        rates.resize(slots.len(), 0.0);
        // Rows without a residency split all take the first model
        // frequency's band: looked up when the first of them asks.
        let mut unsplit_band = None;
        for row in &batch.rows {
            if row.hpc == NO_ROW {
                continue;
            }
            let (busy, freqs) = if row.time != NO_ROW {
                let t = row.time as usize;
                (frame.busy(t).as_u64(), frame.freq_slice(t))
            } else {
                (0, &[] as &[(MegaHertz, Nanos)])
            };
            // A row that did not run is 0 W whatever it counted, so its
            // counters are read only if it ran — on a wide host, few do.
            let watts = if busy == 0 {
                Watts::ZERO
            } else {
                let counters = frame.hpc_row(row.hpc as usize);
                for (d, &s) in deltas.iter_mut().zip(&slots) {
                    *d = counters[s] as f64;
                }
                self.active_watts(busy, freqs, interval_s, &deltas, &mut rates)
            };
            let band = if !with_band {
                0.0
            } else if let Some(&(f, _)) = freqs.iter().max_by_key(|(_, t)| t.as_u64()) {
                self.model.prediction_band_w(f, PREDICTION_Z)
            } else {
                *unsplit_band.get_or_insert_with(|| {
                    let f = self.model.first_frequency();
                    self.model.prediction_band_w(f, PREDICTION_Z)
                })
            };
            out.push(row.pid, watts, Watts(band), quality);
        }
        self.deltas = deltas;
        self.rates = rates;
        self.slots.slots = Some(slots);
    }

    /// The active power of a row that ran `busy` ns split as `freqs`,
    /// from its counter `deltas` in model-event order: counters are
    /// attributed to frequencies by residency share and each frequency's
    /// model applied to its share — [`PowerFormula::estimate`]'s
    /// arithmetic, step for step. `rates` is scratch as long as
    /// `deltas` (both sized to the model's events), overwritten in place
    /// for each frequency.
    fn active_watts(
        &self,
        busy: u64,
        freqs: &[(MegaHertz, Nanos)],
        interval_s: f64,
        deltas: &[f64],
        rates: &mut [f64],
    ) -> Watts {
        if deltas.iter().all(|d| *d == 0.0) {
            return Watts::ZERO;
        }
        let mut total = 0.0;
        let mut attributed = 0u64;
        for &(f, t) in freqs {
            let share = t.as_u64() as f64 / busy as f64;
            attributed += t.as_u64();
            for (r, d) in rates.iter_mut().zip(deltas) {
                *r = d * share / interval_s;
            }
            total += self.model.active_at(f, rates);
        }
        if attributed == 0 {
            for (r, d) in rates.iter_mut().zip(deltas) {
                *r = d / interval_s;
            }
            let f = self.model.first_frequency();
            total += self.model.active_at(f, rates);
        }
        Watts(total)
    }

    /// The frequency the process spent most of its busy time at this
    /// interval (falls back to the model's first frequency when the
    /// report carries no residency split).
    fn dominant_freq(&self, report: &SensorReport) -> MegaHertz {
        report
            .time
            .by_freq
            .iter()
            .max_by_key(|(_, t)| t.as_u64())
            .map(|&(f, _)| f)
            .unwrap_or_else(|| self.model.first_frequency())
    }

    /// Extracts the report's counter deltas in model-event order
    /// (`None` when any model event is missing from the report).
    fn deltas_in_model_order(&self, report: &SensorReport) -> Option<Vec<f64>> {
        self.model
            .event_names()
            .iter()
            .map(|name| {
                report
                    .counters
                    .iter()
                    .find(|(e, _)| e.to_string() == *name)
                    .map(|(_, v)| *v as f64)
            })
            .collect()
    }
}

impl PowerFormula for PerFrequencyFormula {
    fn boxed_clone(&self) -> Box<dyn PowerFormula> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "per-frequency-hpc"
    }

    fn idle_w(&self) -> f64 {
        self.model.idle_w()
    }

    fn estimate(&mut self, report: &SensorReport) -> Option<Watts> {
        let interval_s = report.interval.as_secs_f64();
        if interval_s <= 0.0 {
            return None;
        }
        let deltas = self.deltas_in_model_order(report)?;
        let busy = report.time.busy.as_u64();
        if busy == 0 || deltas.iter().all(|d| *d == 0.0) {
            return Some(Watts::ZERO);
        }

        // Attribute counters to frequencies by residency share, then sum
        // each frequency's model contribution: Σ_f model_f(rates · share_f).
        let mut total = 0.0;
        let mut attributed = 0u64;
        for &(f, t) in &report.time.by_freq {
            let share = t.as_u64() as f64 / busy as f64;
            attributed += t.as_u64();
            let rates: Vec<f64> = deltas.iter().map(|d| d * share / interval_s).collect();
            total += self.model.predict_active(f, &rates).ok()?;
        }
        // Any residue not covered by the per-frequency split (first-tick
        // truncation) falls to the nearest model of the first frequency.
        if attributed == 0 {
            let rates: Vec<f64> = deltas.iter().map(|d| d / interval_s).collect();
            let f = self.model.first_frequency();
            total += self.model.predict_active(f, &rates).ok()?;
        }
        Some(Watts(total))
    }

    /// The calibration prediction interval at the report's dominant
    /// frequency: ±[`PREDICTION_Z`] residual standard deviations (0 for
    /// models learned before residual statistics existed).
    fn interval_w(&self, report: &SensorReport) -> f64 {
        self.model
            .prediction_band_w(self.dominant_freq(report), PREDICTION_Z)
    }

    fn estimate_batch(&mut self, batch: &SensorBatch, quality: Quality, out: &mut PowerBatch) {
        self.estimate_batch_cols(batch, quality, out, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CorunSplit, ProcTimeDelta};
    use os_sim::process::Pid;
    use perf_sim::events::PAPER_EVENTS;
    use simcpu::units::{MegaHertz, Nanos};

    fn model_two_freqs() -> PerFrequencyPowerModel {
        PerFrequencyPowerModel::from_parts(
            31.48,
            vec![
                "instructions".to_string(),
                "cache-references".to_string(),
                "cache-misses".to_string(),
            ],
            vec![
                (MegaHertz(1600), vec![1.0e-9, 1.0e-8, 1.0e-7]),
                (MegaHertz(3300), vec![2.22e-9, 2.48e-8, 1.87e-7]),
            ],
        )
        .unwrap()
    }

    fn report(counters: &[u64; 3], by_freq: Vec<(MegaHertz, Nanos)>, busy: Nanos) -> SensorReport {
        SensorReport {
            timestamp: Nanos::from_secs(1),
            interval: Nanos::from_secs(1),
            pid: Pid(1),
            counters: PAPER_EVENTS
                .iter()
                .zip(counters)
                .map(|(e, v)| (*e, *v))
                .collect(),
            time: ProcTimeDelta { busy, by_freq },
            corun: CorunSplit::default(),
        }
    }

    #[test]
    fn single_frequency_matches_paper_equation() {
        let mut f = PerFrequencyFormula::new(model_two_freqs());
        assert!((f.idle_w() - 31.48).abs() < 1e-12);
        let r = report(
            &[1_000_000_000, 100_000_000, 10_000_000],
            vec![(MegaHertz(3300), Nanos::from_secs(1))],
            Nanos::from_secs(1),
        );
        let p = f.estimate(&r).unwrap();
        // 2.22 + 2.48 + 1.87 = 6.57 W active.
        assert!((p.as_f64() - 6.57).abs() < 1e-9, "{p}");
    }

    #[test]
    fn split_residency_blends_models() {
        let mut f = PerFrequencyFormula::new(model_two_freqs());
        // Half the busy time at each frequency.
        let r = report(
            &[1_000_000_000, 0, 0],
            vec![
                (MegaHertz(1600), Nanos::from_millis(500)),
                (MegaHertz(3300), Nanos::from_millis(500)),
            ],
            Nanos::from_secs(1),
        );
        let p = f.estimate(&r).unwrap().as_f64();
        // 0.5·1e9·1e-9 + 0.5·1e9·2.22e-9 = 0.5 + 1.11.
        assert!((p - 1.61).abs() < 1e-9, "{p}");
    }

    #[test]
    fn idle_report_is_zero_watts() {
        let mut f = PerFrequencyFormula::new(model_two_freqs());
        let r = report(&[0, 0, 0], Vec::new(), Nanos::ZERO);
        assert_eq!(f.estimate(&r).unwrap(), Watts::ZERO);
    }

    #[test]
    fn missing_model_event_yields_none() {
        let mut f = PerFrequencyFormula::new(model_two_freqs());
        let mut r = report(
            &[1, 1, 1],
            vec![(MegaHertz(3300), Nanos::from_secs(1))],
            Nanos::from_secs(1),
        );
        r.counters.remove(2);
        assert!(f.estimate(&r).is_none());
    }

    #[test]
    fn turbo_frequency_uses_nearest_model() {
        let mut f = PerFrequencyFormula::new(model_two_freqs());
        let r = report(
            &[1_000_000_000, 0, 0],
            vec![(MegaHertz(3700), Nanos::from_secs(1))],
            Nanos::from_secs(1),
        );
        let p = f.estimate(&r).unwrap().as_f64();
        assert!((p - 2.22).abs() < 1e-9, "nearest is the 3.3 GHz model");
    }

    #[test]
    fn interval_tracks_dominant_frequency_sigma() {
        let mut model = model_two_freqs();
        model.set_residual_sigma(MegaHertz(1600), 0.2);
        model.set_residual_sigma(MegaHertz(3300), 0.5);
        let f = PerFrequencyFormula::new(model);
        // Mostly at 3.3 GHz: band = 2 · 0.5.
        let r = report(
            &[1, 0, 0],
            vec![
                (MegaHertz(1600), Nanos::from_millis(100)),
                (MegaHertz(3300), Nanos::from_millis(900)),
            ],
            Nanos::from_secs(1),
        );
        assert!((f.interval_w(&r) - 1.0).abs() < 1e-12);
        // Mostly at 1.6 GHz: band = 2 · 0.2.
        let r = report(
            &[1, 0, 0],
            vec![
                (MegaHertz(1600), Nanos::from_millis(900)),
                (MegaHertz(3300), Nanos::from_millis(100)),
            ],
            Nanos::from_secs(1),
        );
        assert!((f.interval_w(&r) - 0.4).abs() < 1e-12);
        // No residency split: first model frequency.
        let r = report(&[1, 0, 0], Vec::new(), Nanos::from_secs(1));
        assert!((f.interval_w(&r) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn model_without_residuals_claims_no_band() {
        let f = PerFrequencyFormula::new(model_two_freqs());
        let r = report(
            &[1, 0, 0],
            vec![(MegaHertz(3300), Nanos::from_secs(1))],
            Nanos::from_secs(1),
        );
        assert_eq!(f.interval_w(&r), 0.0);
    }

    #[test]
    fn counters_without_residency_split_still_estimate() {
        let mut f = PerFrequencyFormula::new(model_two_freqs());
        let r = report(&[1_000_000_000, 0, 0], Vec::new(), Nanos::from_secs(1));
        let p = f.estimate(&r).unwrap().as_f64();
        assert!(p > 0.0, "fallback path produces an estimate");
    }
}
