//! The one linear formula: a learned [`PerFrequencyPowerModel`] fed by a
//! fixed [`Kind`] of features. The paper's kind attributes counter deltas
//! to the frequencies the process actually ran at (proportionally to its
//! `time_in_state` split) and applies each frequency's model to its share
//! — `Power = idle + Σ_f Power_f` with the idle added later, once per
//! machine, by the aggregator. The baselines the paper compares against
//! differ from it only in their inputs:
//!
//! | kind | features | frequency |
//! |---|---|---|
//! | [`Kind::Paper`] | the hpc row's counter deltas | split by residency |
//! | [`Kind::Bertran`] | the same, over [`bertran_events`] | split by residency |
//! | [`Kind::Happy`] | solo deltas, then co-run deltas ([`CorunSplit`]) | the dominant one |
//! | [`Kind::CpuLoad`] | busy CPU-seconds | the dominant one (of one) |

use crate::formula::PowerFormula;
use crate::frame::{PowerBatch, SensorBatch, SensorRow, TickFrame, NO_ROW};
use crate::health::PREDICTION_Z;
use crate::model::power_model::PerFrequencyPowerModel;
use crate::msg::{CorunSplit, Quality, SensorReport};
use perf_sim::events::Event;
use simcpu::counters::HwCounter;
use simcpu::units::{MegaHertz, Nanos, Watts};
use std::sync::Arc;

/// The prefix naming a HaPPy model's co-run features (`corun:instructions`
/// beside the solo `instructions`) in its event list and text format.
pub(crate) const CORUN_PREFIX: &str = "corun:";

/// The one feature of a CPU-load model: busy CPU-seconds (per second once
/// divided by the interval).
pub(crate) const CPU_LOAD_FEATURE: &str = "cpu-load";

/// The component-proxy counters of Bertran et al.'s decomposable model:
/// issue engine (`instructions`), L1 (`L1-dcache-loads`), LLC
/// (`cache-references`), memory (`cache-misses`), branch unit
/// (`branch-instructions`).
pub fn bertran_events() -> Vec<Event> {
    vec![
        Event::Hardware(HwCounter::Instructions),
        Event::Hardware(HwCounter::L1dAccesses),
        Event::Hardware(HwCounter::CacheReferences),
        Event::Hardware(HwCounter::CacheMisses),
        Event::Hardware(HwCounter::BranchInstructions),
    ]
}

/// What a formula feeds its model, how it picks a row's frequency, and
/// its name and sensor source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's: the hpc row's counter deltas, split by residency.
    /// The one kind that claims a prediction band.
    Paper,
    /// Bertran et al.: the paper's arithmetic over one counter per
    /// microarchitectural component ([`bertran_events`]). On simple
    /// architectures (their Core 2 Duo — no SMT, no turbo) this linear
    /// form fits very well, the 4.63 % the paper quotes; E4 reproduces it.
    Bertran,
    /// HaPPy (Zhai et al.): hyperthread-aware. Events retired beside a
    /// busy sibling are cheaper — the shared pipeline is already powered —
    /// so each counter `e` is two features, `e` from the split's solo
    /// half and `corun:e` from its co-run half, at the dominant frequency.
    Happy,
    /// CPU load (Versick et al.): busy CPU-seconds per second, blind to
    /// what runs — "the CPU load mostly indicates whether the processor
    /// executes a job". Read from the procfs source.
    CpuLoad,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Paper => "per-frequency-hpc",
            Kind::Bertran => "bertran-decomposable",
            Kind::Happy => "happy-ht-aware",
            Kind::CpuLoad => "cpu-load",
        }
    }

    fn source(self) -> &'static str {
        match self {
            Kind::CpuLoad => crate::sensor::procfs::SOURCE,
            _ => crate::sensor::hpc::SOURCE,
        }
    }

    /// Where model feature `name` is read: its column in the hpc
    /// `layout` (paper, Bertran); its counter's index in
    /// [`HwCounter::ALL`], past `ALL.len()` for the co-run half (HaPPy);
    /// 0 for the load (CPU-load). `None` when this kind cannot supply it.
    fn slot(self, name: &str, layout: &[Event]) -> Option<usize> {
        match self {
            Kind::Paper | Kind::Bertran => layout.iter().position(|e| e.to_string() == name),
            Kind::Happy => {
                let (offset, counter) = match name.strip_prefix(CORUN_PREFIX) {
                    Some(counter) => (HwCounter::ALL.len(), counter),
                    None => (0, name),
                };
                let i = HwCounter::ALL.iter().position(|c| c.name() == counter)?;
                Some(offset + i)
            }
            Kind::CpuLoad => (name == CPU_LOAD_FEATURE).then_some(0),
        }
    }
}

/// HaPPy feature `slot` (see [`Kind::slot`]) of a co-run split.
fn corun_delta(split: &CorunSplit, slot: usize) -> u64 {
    let n = HwCounter::ALL.len();
    let half = if slot < n { &split.solo } else { &split.corun };
    half.get(HwCounter::ALL[slot % n])
}

/// The frequency a row spent most of its busy time at (`None` without a
/// residency split).
fn dominant(freqs: &[(MegaHertz, Nanos)]) -> Option<MegaHertz> {
    freqs
        .iter()
        .max_by_key(|(_, t)| t.as_u64())
        .map(|&(f, _)| f)
}

/// The model's feature slots resolved against one frame layout. Resolved
/// once per layout (the host reuses one `Arc<[Event]>` for the whole run)
/// instead of string-comparing event names on every row.
#[derive(Debug, Clone, Default)]
struct SlotCache {
    /// The layout the slots were resolved against.
    layout: Option<Arc<[Event]>>,
    /// Model feature → [`Kind::slot`] (`None` when any feature cannot be
    /// supplied — every row is then inestimable, exactly like
    /// [`PowerFormula::estimate`] returning `None`).
    slots: Option<Vec<usize>>,
}

/// The formula actor state.
#[derive(Debug, Clone)]
pub struct PerFrequencyFormula {
    kind: Kind,
    model: PerFrequencyPowerModel,
    slots: SlotCache,
    /// Scratch feature deltas in model order, reused across rows.
    deltas: Vec<f64>,
    /// Scratch feature rates, reused across rows and frequencies.
    rates: Vec<f64>,
}

impl PartialEq for PerFrequencyFormula {
    fn eq(&self, other: &PerFrequencyFormula) -> bool {
        // Caches and scratch are plumbing, not state.
        self.kind == other.kind && self.model == other.model
    }
}

impl PerFrequencyFormula {
    /// The paper's formula over a learned model.
    pub fn new(model: PerFrequencyPowerModel) -> PerFrequencyFormula {
        PerFrequencyFormula::of_kind(Kind::Paper, model)
    }

    /// A formula of any kind over a model whose event names that kind
    /// supplies (see [`Kind`]).
    pub fn of_kind(kind: Kind, model: PerFrequencyPowerModel) -> PerFrequencyFormula {
        PerFrequencyFormula {
            kind,
            model,
            slots: SlotCache::default(),
            deltas: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Bertran's decomposable formula over a model trained on
    /// [`bertran_events`].
    pub fn bertran(model: PerFrequencyPowerModel) -> PerFrequencyFormula {
        PerFrequencyFormula::of_kind(Kind::Bertran, model)
    }

    /// HaPPy's formula over a `[solo ‖ corun]` model
    /// ([`crate::model::learn::learn_happy`]).
    pub fn happy(model: PerFrequencyPowerModel) -> PerFrequencyFormula {
        PerFrequencyFormula::of_kind(Kind::Happy, model)
    }

    /// The CPU-load formula from calibrated constants: the machine idle
    /// floor and the extra watts one fully busy CPU adds (a negative slope
    /// clamps to 0). Load is frequency-blind, so the model has one row,
    /// keyed 0 MHz.
    pub fn cpu_load(idle_w: f64, slope_w_per_cpu: f64) -> PerFrequencyFormula {
        let model = PerFrequencyPowerModel::from_parts(
            idle_w,
            vec![CPU_LOAD_FEATURE.to_string()],
            vec![(MegaHertz(0), vec![slope_w_per_cpu.max(0.0)])],
        )
        .expect("one feature at one frequency");
        PerFrequencyFormula::of_kind(Kind::CpuLoad, model)
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
            .map(|name| self.kind.slot(name, events))
            .collect();
        self.slots.layout = Some(events.clone());
    }

    /// The paper and Bertran kinds' column pass: rows without an hpc row
    /// are skipped, the rest split by residency ([`Self::active_watts`]).
    /// `WITH_BAND` (the paper kind) fills the prediction-band column.
    fn split_rows<const WITH_BAND: bool>(
        &self,
        batch: &SensorBatch,
        quality: Quality,
        out: &mut PowerBatch,
        slots: &[usize],
        (deltas, rates): (&mut [f64], &mut [f64]),
    ) {
        let frame = &*batch.frame;
        let interval_s = frame.interval.as_secs_f64();
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
                for (d, &s) in deltas.iter_mut().zip(slots) {
                    *d = counters[s] as f64;
                }
                self.active_watts(busy, freqs, interval_s, deltas, rates)
            };
            let band = if !WITH_BAND {
                0.0
            } else if let Some(f) = dominant(freqs) {
                self.model.prediction_band_w(f, PREDICTION_Z)
            } else {
                *unsplit_band.get_or_insert_with(|| {
                    let f = self.model.first_frequency();
                    self.model.prediction_band_w(f, PREDICTION_Z)
                })
            };
            out.push(row.pid, watts, Watts(band), quality);
        }
    }

    /// The HaPPy and CPU-load kinds' column pass: every row, its features
    /// written by `fill`, evaluated once at its dominant frequency (the
    /// model's first without a residency split), with no band.
    fn dominant_rows(
        &self,
        batch: &SensorBatch,
        quality: Quality,
        out: &mut PowerBatch,
        (deltas, rates): (&mut [f64], &mut [f64]),
        fill: impl Fn(&TickFrame, &SensorRow, &mut [f64]),
    ) {
        let frame = &*batch.frame;
        let interval_s = frame.interval.as_secs_f64();
        for row in &batch.rows {
            fill(frame, row, deltas);
            for (r, d) in rates.iter_mut().zip(&*deltas) {
                *r = d / interval_s;
            }
            let time = (row.time != NO_ROW).then_some(row.time as usize);
            let freq = time.and_then(|t| dominant(frame.freq_slice(t)));
            let f = freq.unwrap_or_else(|| self.model.first_frequency());
            let watts = Watts(self.model.active_at(f, rates));
            out.push(row.pid, watts, Watts::ZERO, quality);
        }
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

    /// The frequency the report spent most of its busy time at (the
    /// model's first without a residency split).
    fn dominant_freq(&self, report: &SensorReport) -> MegaHertz {
        dominant(&report.time.by_freq).unwrap_or_else(|| self.model.first_frequency())
    }

    /// The report's feature deltas in model order (`None` when this kind
    /// cannot supply some model feature from it).
    fn report_deltas(&self, report: &SensorReport) -> Option<Vec<f64>> {
        let layout: Vec<Event> = report.counters.iter().map(|&(e, _)| e).collect();
        self.model
            .event_names()
            .iter()
            .map(|name| {
                let slot = self.kind.slot(name, &layout)?;
                Some(match self.kind {
                    Kind::Paper | Kind::Bertran => report.counters[slot].1 as f64,
                    Kind::Happy => corun_delta(&report.corun, slot) as f64,
                    Kind::CpuLoad => report.time.busy.as_secs_f64(),
                })
            })
            .collect()
    }
}

impl PowerFormula for PerFrequencyFormula {
    fn boxed_clone(&self) -> Box<dyn PowerFormula> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn source(&self) -> &'static str {
        self.kind.source()
    }

    fn idle_w(&self) -> f64 {
        self.model.idle_w()
    }

    fn estimate(&mut self, report: &SensorReport) -> Option<Watts> {
        let interval_s = report.interval.as_secs_f64();
        if interval_s <= 0.0 {
            return None;
        }
        let deltas = self.report_deltas(report)?;
        // HaPPy and CPU load: every feature, once, at the dominant frequency.
        if matches!(self.kind, Kind::Happy | Kind::CpuLoad) {
            let rates: Vec<f64> = deltas.iter().map(|d| d / interval_s).collect();
            let f = self.dominant_freq(report);
            return Some(Watts(self.model.predict_active(f, &rates).ok()?));
        }
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

    /// The paper kind's calibration prediction interval at the report's
    /// dominant frequency: ±[`PREDICTION_Z`] residual standard deviations
    /// (0 for models learned before residual statistics existed). The
    /// other kinds claim no band, whatever σ their model records.
    fn interval_w(&self, report: &SensorReport) -> f64 {
        if self.kind != Kind::Paper {
            return 0.0;
        }
        self.model
            .prediction_band_w(self.dominant_freq(report), PREDICTION_Z)
    }

    /// Reads the frame columns through the resolved slots, bit for bit
    /// the row-by-row [`PowerFormula::estimate`]. The kind is dispatched
    /// once per batch, not per row.
    fn estimate_batch(&mut self, batch: &SensorBatch, quality: Quality, out: &mut PowerBatch) {
        let frame = &*batch.frame;
        if frame.interval.as_secs_f64() <= 0.0 {
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
        let scratch = (&mut deltas[..], &mut rates[..]);
        match self.kind {
            Kind::Paper => self.split_rows::<true>(batch, quality, out, &slots, scratch),
            Kind::Bertran => self.split_rows::<false>(batch, quality, out, &slots, scratch),
            Kind::Happy => {
                self.dominant_rows(batch, quality, out, scratch, |frame, row, deltas| {
                    let split =
                        (row.corun != NO_ROW).then(|| frame.corun_split(row.corun as usize));
                    let split = split.unwrap_or_default();
                    for (d, &s) in deltas.iter_mut().zip(&slots) {
                        *d = corun_delta(&split, s) as f64;
                    }
                })
            }
            Kind::CpuLoad => {
                self.dominant_rows(batch, quality, out, scratch, |frame, row, deltas| {
                    let busy = (row.time != NO_ROW).then(|| frame.busy(row.time as usize));
                    deltas.fill(busy.unwrap_or(Nanos::ZERO).as_secs_f64());
                })
            }
        }
        self.deltas = deltas;
        self.rates = rates;
        self.slots.slots = Some(slots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ProcTimeDelta;
    use os_sim::process::Pid;
    use perf_sim::events::PAPER_EVENTS;
    use simcpu::counters::ExecDelta;

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

    // -- Bertran ------------------------------------------------------

    #[test]
    fn event_set_has_five_components() {
        let e = bertran_events();
        assert_eq!(e.len(), 5);
        assert!(e.iter().any(|x| x.to_string() == "L1-dcache-loads"));
    }

    #[test]
    fn bertran_estimates_like_the_paper_with_its_own_name() {
        let model = PerFrequencyPowerModel::from_parts(
            40.0,
            bertran_events().iter().map(|e| e.to_string()).collect(),
            vec![(MegaHertz(2400), vec![1e-9, 1e-9, 1e-8, 1e-7, 1e-9])],
        )
        .unwrap();
        let mut f = PerFrequencyFormula::bertran(model);
        assert_eq!(f.name(), "bertran-decomposable");
        assert_eq!(f.source(), "hpc");
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

    // -- HaPPy --------------------------------------------------------

    fn happy_model() -> PerFrequencyPowerModel {
        PerFrequencyPowerModel::from_parts(
            30.0,
            vec!["instructions".into(), "corun:instructions".into()],
            vec![(MegaHertz(2600), vec![2.0e-9, 1.0e-9])],
        )
        .unwrap()
    }

    fn corun_report(solo_inst: u64, corun_inst: u64) -> SensorReport {
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
    fn happy_model_validation() {
        let solo_corun = || vec!["cycles".to_string(), "corun:cycles".to_string()];
        assert!(PerFrequencyPowerModel::from_parts(1.0, vec![], vec![]).is_err());
        assert!(PerFrequencyPowerModel::from_parts(1.0, solo_corun(), vec![]).is_err());
        assert!(PerFrequencyPowerModel::from_parts(
            1.0,
            solo_corun(),
            vec![(MegaHertz(1000), vec![1.0, 2.0, 3.0])]
        )
        .is_err());
    }

    #[test]
    fn corun_instructions_are_cheaper() {
        let mut f = PerFrequencyFormula::happy(happy_model());
        assert_eq!(f.name(), "happy-ht-aware");
        assert_eq!(f.source(), "hpc");
        assert_eq!(f.idle_w(), 30.0);
        let solo_only = f
            .estimate(&corun_report(1_000_000_000, 0))
            .unwrap()
            .as_f64();
        let corun_only = f
            .estimate(&corun_report(0, 1_000_000_000))
            .unwrap()
            .as_f64();
        assert!((solo_only - 2.0).abs() < 1e-9);
        assert!((corun_only - 1.0).abs() < 1e-9);
        let mixed = f
            .estimate(&corun_report(500_000_000, 500_000_000))
            .unwrap()
            .as_f64();
        assert!((mixed - 1.5).abs() < 1e-9);
    }

    #[test]
    fn happy_predict_validates_arity() {
        let m = happy_model();
        assert!(m.predict_active(MegaHertz(2600), &[1.0, 2.0, 1.0]).is_err());
        assert!(m.predict_active(MegaHertz(2600), &[1.0, 1.0]).is_ok());
    }

    #[test]
    fn missing_freq_split_falls_back() {
        let mut f = PerFrequencyFormula::happy(happy_model());
        let mut r = corun_report(1_000_000_000, 0);
        r.time.by_freq.clear();
        let p = f.estimate(&r).unwrap().as_f64();
        assert!((p - 2.0).abs() < 1e-9, "uses the model's own frequency");
    }

    /// A feature name a kind cannot supply makes every row inestimable:
    /// an unknown counter behind the co-run prefix, an hpc event name for
    /// the CPU-load kind, the load for the paper kind.
    #[test]
    fn a_feature_the_kind_cannot_supply_yields_none() {
        let model = |name: &str| {
            PerFrequencyPowerModel::from_parts(
                30.0,
                vec![name.to_string()],
                vec![(MegaHertz(2600), vec![1.0])],
            )
            .unwrap()
        };
        let r = corun_report(1, 1);
        assert!(PerFrequencyFormula::happy(model("corun:bogus"))
            .estimate(&r)
            .is_none());
        assert!(
            PerFrequencyFormula::of_kind(Kind::CpuLoad, model("instructions"))
                .estimate(&r)
                .is_none()
        );
        assert!(PerFrequencyFormula::new(model(CPU_LOAD_FEATURE))
            .estimate(&r)
            .is_none());
    }

    /// Only the paper kind claims a band; the others record σ but report
    /// 0, as before they shared the model.
    #[test]
    fn only_the_paper_kind_claims_a_band() {
        let mut model = model_two_freqs();
        model.set_residual_sigma(MegaHertz(3300), 0.5);
        let r = report(
            &[1, 0, 0],
            vec![(MegaHertz(3300), Nanos::from_secs(1))],
            Nanos::from_secs(1),
        );
        assert_eq!(PerFrequencyFormula::new(model.clone()).interval_w(&r), 1.0);
        assert_eq!(PerFrequencyFormula::bertran(model).interval_w(&r), 0.0);
        let mut happy = happy_model();
        happy.set_residual_sigma(MegaHertz(2600), 0.5);
        assert_eq!(PerFrequencyFormula::happy(happy).interval_w(&r), 0.0);
        let mut load = PerFrequencyFormula::cpu_load(30.0, 10.0).model().clone();
        load.set_residual_sigma(MegaHertz(0), 0.5);
        let load = PerFrequencyFormula::of_kind(Kind::CpuLoad, load);
        assert_eq!(load.interval_w(&r), 0.0);
    }

    // -- CPU load -----------------------------------------------------

    fn load_report(busy_ms: u64, interval_ms: u64) -> SensorReport {
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
        let mut f = PerFrequencyFormula::cpu_load(31.5, 12.0);
        assert_eq!(f.idle_w(), 31.5);
        assert_eq!(f.name(), "cpu-load");
        assert_eq!(f.source(), "procfs");
        let idle = f.estimate(&load_report(0, 1000)).unwrap();
        assert_eq!(idle, Watts::ZERO);
        let half = f.estimate(&load_report(500, 1000)).unwrap();
        assert!((half.as_f64() - 6.0).abs() < 1e-12);
        let full = f.estimate(&load_report(1000, 1000)).unwrap();
        assert!((full.as_f64() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn multithreaded_load_exceeds_one_cpu() {
        let mut f = PerFrequencyFormula::cpu_load(31.5, 12.0);
        // 4 CPU-seconds in 1 wall second.
        let p = f.estimate(&load_report(4000, 1000)).unwrap();
        assert!((p.as_f64() - 48.0).abs() < 1e-12);
    }

    #[test]
    fn negative_slope_clamped() {
        let f = PerFrequencyFormula::cpu_load(30.0, -5.0);
        assert_eq!(f.model().event_names(), [CPU_LOAD_FEATURE]);
        assert_eq!(f.model().coefficients(MegaHertz(0)), Some(&[0.0][..]));
    }

    #[test]
    fn zero_interval_rejected() {
        let mut f = PerFrequencyFormula::cpu_load(30.0, 10.0);
        let mut r = load_report(1, 1);
        r.interval = Nanos::ZERO;
        assert!(f.estimate(&r).is_none());
    }
}
