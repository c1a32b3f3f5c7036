//! The learned power model: `Power = idle + Σ_f Power_f`, with
//! `Power_f = Σ_e coef_{f,e} · rate_e` — the paper's §4 equations. One
//! coefficient vector per nominal DVFS frequency, over a fixed list of
//! features: counter events for the paper's formula, and whatever
//! [`Kind`](crate::formula::per_freq::Kind) the baselines read.

use crate::{Error, Result};
use simcpu::units::MegaHertz;
use std::collections::BTreeMap;
use std::fmt;

/// The index of the key in `keys` (ascending, non-empty) nearest to `f`.
/// Ties go to the **lower** frequency: a query exactly between two keys
/// takes the one below it, as the first minimum of a distance scan over
/// the ascending keys would. Below the range the first key answers, above
/// it the last. The one nearest-frequency lookup of the crate: the
/// model's coefficient rows and residual sigmas both go through it.
pub(crate) fn nearest_index(keys: &[MegaHertz], f: MegaHertz) -> usize {
    // The first key at or above `f`; the one before it is below.
    let above = keys.partition_point(|&k| k < f);
    if above == 0 {
        return 0;
    }
    if above == keys.len() {
        return above - 1;
    }
    let below = above - 1;
    if f.0 - keys[below].0 <= keys[above].0 - f.0 {
        below
    } else {
        above
    }
}

/// A per-frequency linear power model over hardware-counter rates.
///
/// Rates are in events **per second**; coefficients are in watts per
/// (event/second) — i.e. joules per event, like the paper's
/// `2.22 / 10⁹ · i` term (2.22 nJ per instruction).
///
/// Frequencies are kept as sorted key columns so the formula's per-row
/// lookup is a binary search (`nearest_index`).
#[derive(Debug, Clone, PartialEq)]
pub struct PerFrequencyPowerModel {
    idle_w: f64,
    events: Vec<String>,
    /// The modelled frequencies, ascending and distinct.
    freqs: Vec<MegaHertz>,
    /// One row of `events.len()` coefficients per entry of `freqs`,
    /// row-major.
    coefs: Vec<f64>,
    /// The frequencies with a recorded calibration residual, ascending
    /// and distinct — not necessarily `freqs`: models learned before
    /// residual statistics existed carry none.
    sigma_freqs: Vec<MegaHertz>,
    /// Residual standard deviation of the calibration fit per entry of
    /// `sigma_freqs`, in watts — the basis for prediction intervals.
    sigmas: Vec<f64>,
}

impl PerFrequencyPowerModel {
    /// Assembles a model from its parts (a frequency listed twice keeps
    /// its last coefficients).
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] when the parts are inconsistent (no events,
    /// no frequencies, or a coefficient vector of the wrong arity).
    pub fn from_parts(
        idle_w: f64,
        events: Vec<String>,
        per_freq: Vec<(MegaHertz, Vec<f64>)>,
    ) -> Result<PerFrequencyPowerModel> {
        if events.is_empty() {
            return Err(Error::Middleware(
                "power model needs at least one event".into(),
            ));
        }
        if per_freq.is_empty() {
            return Err(Error::Middleware(
                "power model needs at least one frequency".into(),
            ));
        }
        let mut map = BTreeMap::new();
        for (f, coefs) in per_freq {
            if coefs.len() != events.len() {
                return Err(Error::Middleware(format!(
                    "coefficient arity {} does not match {} events at {f}",
                    coefs.len(),
                    events.len()
                )));
            }
            map.insert(f, coefs);
        }
        Ok(PerFrequencyPowerModel {
            idle_w,
            events,
            freqs: map.keys().copied().collect(),
            coefs: map.into_values().flatten().collect(),
            sigma_freqs: Vec::new(),
            sigmas: Vec::new(),
        })
    }

    /// The paper's published i3-2120 example: idle 31.48 W and, at
    /// 3.30 GHz, `2.22e-9·i + 2.48e-8·r + 1.87e-7·m`.
    pub fn paper_i3_example() -> PerFrequencyPowerModel {
        PerFrequencyPowerModel::from_parts(
            31.48,
            vec![
                "instructions".to_string(),
                "cache-references".to_string(),
                "cache-misses".to_string(),
            ],
            vec![(MegaHertz(3300), vec![2.22e-9, 2.48e-8, 1.87e-7])],
        )
        .expect("published constants are consistent")
    }

    /// The machine idle floor in watts (the paper's 31.48 constant).
    pub fn idle_w(&self) -> f64 {
        self.idle_w
    }

    /// The event names, in coefficient order.
    pub fn event_names(&self) -> &[String] {
        &self.events
    }

    /// The modeled frequencies, ascending.
    pub fn frequencies(&self) -> Vec<MegaHertz> {
        self.freqs.clone()
    }

    /// The lowest modeled frequency — where the formula places a row that
    /// carries no residency split. Unlike `frequencies()[0]` it does not
    /// allocate: the formula asks once per idle row.
    pub fn first_frequency(&self) -> MegaHertz {
        self.freqs[0]
    }

    /// Coefficient row `i` (of `freqs`).
    fn row(&self, i: usize) -> &[f64] {
        let n = self.events.len();
        &self.coefs[i * n..(i + 1) * n]
    }

    /// Coefficients for an exact frequency.
    pub fn coefficients(&self, f: MegaHertz) -> Option<&[f64]> {
        self.freqs.binary_search(&f).ok().map(|i| self.row(i))
    }

    /// Coefficients for the nearest modeled frequency — how the formula
    /// copes with operating points it never sampled (e.g. opportunistic
    /// turbo bins). A query equidistant from two modeled frequencies
    /// takes the **lower** one's coefficients (the 1.6/3.3 GHz model
    /// answers 2.45 GHz with its 1.6 GHz row); below or above the
    /// modeled range the nearest end answers.
    pub fn nearest_coefficients(&self, f: MegaHertz) -> (&[f64], MegaHertz) {
        let i = nearest_index(&self.freqs, f);
        (self.row(i), self.freqs[i])
    }

    /// Active power (above idle) for event rates observed at a frequency,
    /// using the nearest modeled frequency.
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] when `rates` has the wrong arity.
    pub fn predict_active(&self, f: MegaHertz, rates_per_sec: &[f64]) -> Result<f64> {
        if rates_per_sec.len() != self.events.len() {
            return Err(Error::Middleware(format!(
                "rate arity {} does not match {} events",
                rates_per_sec.len(),
                self.events.len()
            )));
        }
        Ok(self.active_at(f, rates_per_sec))
    }

    /// [`Self::predict_active`] for rates the caller has already sized to
    /// the model's events — the batch kernel's per-frequency step.
    #[inline]
    pub(crate) fn active_at(&self, f: MegaHertz, rates_per_sec: &[f64]) -> f64 {
        debug_assert_eq!(rates_per_sec.len(), self.events.len());
        let (coefs, _) = self.nearest_coefficients(f);
        coefs
            .iter()
            .zip(rates_per_sec)
            .map(|(c, r)| c * r)
            .sum::<f64>()
            .max(0.0)
    }

    /// Records the calibration residual standard deviation for one
    /// frequency (negative values clamp to zero; NaN is ignored).
    pub fn set_residual_sigma(&mut self, f: MegaHertz, sigma_w: f64) {
        if !sigma_w.is_finite() {
            return;
        }
        match self.sigma_freqs.binary_search(&f) {
            Ok(i) => self.sigmas[i] = sigma_w.max(0.0),
            Err(i) => {
                self.sigma_freqs.insert(i, f);
                self.sigmas.insert(i, sigma_w.max(0.0));
            }
        }
    }

    /// Calibration residual sigma for an exact frequency, if recorded.
    pub fn residual_sigma(&self, f: MegaHertz) -> Option<f64> {
        let i = self.sigma_freqs.binary_search(&f).ok()?;
        Some(self.sigmas[i])
    }

    /// Residual sigma at the nearest recorded frequency, ties to the
    /// lower one as in [`Self::nearest_coefficients`] (`None` when the
    /// model carries no residual statistics at all).
    pub fn nearest_residual_sigma(&self, f: MegaHertz) -> Option<f64> {
        if self.sigma_freqs.is_empty() {
            return None;
        }
        Some(self.sigmas[nearest_index(&self.sigma_freqs, f)])
    }

    /// Prediction-interval half-width at `z` standard deviations for the
    /// nearest recorded frequency (0 without residual statistics).
    pub fn prediction_band_w(&self, f: MegaHertz, z: f64) -> f64 {
        self.nearest_residual_sigma(f).map_or(0.0, |s| z * s)
    }

    /// Serializes to the on-disk text format (see [`Self::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("idle {}\n", self.idle_w));
        out.push_str(&format!("events {}\n", self.events.join(" ")));
        for (i, f) in self.freqs.iter().enumerate() {
            out.push_str(&format!("freq {}", f.0));
            for c in self.row(i) {
                out.push_str(&format!(" {c:e}"));
            }
            out.push('\n');
        }
        for (f, sigma) in self.sigma_freqs.iter().zip(&self.sigmas) {
            out.push_str(&format!("resid {} {sigma:e}\n", f.0));
        }
        out
    }

    /// Parses the text format produced by [`Self::to_text`]:
    ///
    /// ```text
    /// idle 31.48
    /// events instructions cache-references cache-misses
    /// freq 3300 2.22e-9 2.48e-8 1.87e-7
    /// resid 3300 4.2e-1
    /// ```
    ///
    /// `resid` lines are optional (older model files omit them).
    ///
    /// # Errors
    ///
    /// [`Error::Middleware`] on any malformed line.
    pub fn from_text(text: &str) -> Result<PerFrequencyPowerModel> {
        let bad = |what: &str| Error::Middleware(format!("bad power model text: {what}"));
        let mut idle = None;
        let mut events: Vec<String> = Vec::new();
        let mut per_freq = Vec::new();
        let mut resid = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("idle") => {
                    idle = Some(
                        parts
                            .next()
                            .ok_or_else(|| bad("idle needs a value"))?
                            .parse::<f64>()
                            .map_err(|_| bad("idle value"))?,
                    );
                }
                Some("events") => {
                    events = parts.map(str::to_string).collect();
                }
                Some("freq") => {
                    let f: u32 = parts
                        .next()
                        .ok_or_else(|| bad("freq needs a value"))?
                        .parse()
                        .map_err(|_| bad("freq value"))?;
                    let coefs: std::result::Result<Vec<f64>, _> =
                        parts.map(str::parse::<f64>).collect();
                    per_freq.push((MegaHertz(f), coefs.map_err(|_| bad("coefficient"))?));
                }
                Some("resid") => {
                    let f: u32 = parts
                        .next()
                        .ok_or_else(|| bad("resid needs a frequency"))?
                        .parse()
                        .map_err(|_| bad("resid frequency"))?;
                    let sigma: f64 = parts
                        .next()
                        .ok_or_else(|| bad("resid needs a sigma"))?
                        .parse()
                        .map_err(|_| bad("resid sigma"))?;
                    resid.push((MegaHertz(f), sigma));
                }
                Some(other) => return Err(bad(other)),
                None => {}
            }
        }
        let mut model = PerFrequencyPowerModel::from_parts(
            idle.ok_or_else(|| bad("missing idle line"))?,
            events,
            per_freq,
        )?;
        for (f, sigma) in resid {
            model.set_residual_sigma(f, sigma);
        }
        Ok(model)
    }
}

impl fmt::Display for PerFrequencyPowerModel {
    /// Renders the model in the paper's equation style.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Power = {:.2} + sum over frequencies of:", self.idle_w)?;
        for (r, freq) in self.freqs.iter().enumerate() {
            write!(f, "  P_{:.2}GHz =", freq.as_ghz())?;
            for (i, (c, e)) in self.row(r).iter().zip(&self.events).enumerate() {
                if i > 0 {
                    write!(f, " +")?;
                }
                write!(f, " {c:.3e}*{e}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_reproduces_published_equation() {
        let m = PerFrequencyPowerModel::paper_i3_example();
        assert!((m.idle_w() - 31.48).abs() < 1e-12);
        let coefs = m.coefficients(MegaHertz(3300)).unwrap();
        assert_eq!(coefs, &[2.22e-9, 2.48e-8, 1.87e-7]);
        // 1e9 inst/s, 1e8 refs/s, 1e7 misses/s → 2.22+2.48+1.87 W active.
        let p = m.predict_active(MegaHertz(3300), &[1e9, 1e8, 1e7]).unwrap();
        assert!((p - 6.57).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        assert!(PerFrequencyPowerModel::from_parts(1.0, vec![], vec![]).is_err());
        assert!(
            PerFrequencyPowerModel::from_parts(1.0, vec!["instructions".into()], vec![]).is_err()
        );
        assert!(PerFrequencyPowerModel::from_parts(
            1.0,
            vec!["instructions".into()],
            vec![(MegaHertz(1000), vec![1.0, 2.0])]
        )
        .is_err());
    }

    #[test]
    fn nearest_coefficients_handles_turbo_bins() {
        let m = PerFrequencyPowerModel::from_parts(
            10.0,
            vec!["instructions".into()],
            vec![(MegaHertz(1600), vec![1.0]), (MegaHertz(3300), vec![3.0])],
        )
        .unwrap();
        let (c, f) = m.nearest_coefficients(MegaHertz(3700));
        assert_eq!(f, MegaHertz(3300));
        assert_eq!(c, &[3.0]);
        let (c, f) = m.nearest_coefficients(MegaHertz(1700));
        assert_eq!(f, MegaHertz(1600));
        assert_eq!(c, &[1.0]);
    }

    /// The tie rule, the range ends and exact hits, for the coefficient
    /// rows and the residual sigmas alike.
    #[test]
    fn nearest_lookup_ties_to_the_lower_frequency() {
        let mut m = PerFrequencyPowerModel::from_parts(
            10.0,
            vec!["instructions".into()],
            vec![
                (MegaHertz(3300), vec![3.0]),
                (MegaHertz(1600), vec![1.0]),
                (MegaHertz(2400), vec![2.0]),
            ],
        )
        .unwrap();
        m.set_residual_sigma(MegaHertz(3300), 0.5);
        m.set_residual_sigma(MegaHertz(1600), 0.2);
        let sigma_at = |m: &PerFrequencyPowerModel, f| m.nearest_residual_sigma(MegaHertz(f));
        // Midpoints: 2000 between 1600 and 2400, 2850 between 2400 and
        // 3300; 2450 between the two sigma frequencies.
        assert_eq!(
            m.nearest_coefficients(MegaHertz(2000)),
            (&[1.0][..], MegaHertz(1600))
        );
        assert_eq!(
            m.nearest_coefficients(MegaHertz(2850)),
            (&[2.0][..], MegaHertz(2400))
        );
        assert_eq!(sigma_at(&m, 2450), Some(0.2));
        // One MHz either side of a midpoint goes to the nearer key.
        assert_eq!(m.nearest_coefficients(MegaHertz(2001)).1, MegaHertz(2400));
        assert_eq!(m.nearest_coefficients(MegaHertz(2849)).1, MegaHertz(2400));
        assert_eq!(sigma_at(&m, 2451), Some(0.5));
        // Outside the range: the end keys.
        for (f, want, sigma) in [(0, 1600, 0.2), (900, 1600, 0.2), (4200, 3300, 0.5)] {
            assert_eq!(
                m.nearest_coefficients(MegaHertz(f)).1,
                MegaHertz(want),
                "{f}"
            );
            assert_eq!(sigma_at(&m, f), Some(sigma), "{f}");
        }
        assert_eq!(
            m.nearest_coefficients(MegaHertz(u32::MAX)).1,
            MegaHertz(3300)
        );
        // Exact hits.
        for (f, c) in [(1600, 1.0), (2400, 2.0), (3300, 3.0)] {
            assert_eq!(
                m.nearest_coefficients(MegaHertz(f)),
                (&[c][..], MegaHertz(f))
            );
        }
        assert_eq!(sigma_at(&m, 3300), Some(0.5));
        // The first minimum of a distance scan over the ascending keys
        // agrees everywhere in and around the range.
        for f in (0..4000).step_by(25) {
            let scan = m
                .frequencies()
                .into_iter()
                .min_by_key(|k| k.0.abs_diff(f))
                .unwrap();
            assert_eq!(m.nearest_coefficients(MegaHertz(f)).1, scan, "{f}");
        }
    }

    #[test]
    fn predict_validates_arity() {
        let m = PerFrequencyPowerModel::paper_i3_example();
        assert!(m.predict_active(MegaHertz(3300), &[1.0]).is_err());
    }

    #[test]
    fn negative_predictions_clamp_to_zero() {
        let m = PerFrequencyPowerModel::from_parts(
            5.0,
            vec!["instructions".into()],
            vec![(MegaHertz(1000), vec![-1.0])],
        )
        .unwrap();
        assert_eq!(m.predict_active(MegaHertz(1000), &[10.0]).unwrap(), 0.0);
    }

    #[test]
    fn text_roundtrip() {
        let m = PerFrequencyPowerModel::paper_i3_example();
        let text = m.to_text();
        let back = PerFrequencyPowerModel::from_text(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn text_parser_rejects_garbage() {
        assert!(PerFrequencyPowerModel::from_text("nonsense 1 2 3").is_err());
        assert!(PerFrequencyPowerModel::from_text("idle abc").is_err());
        assert!(PerFrequencyPowerModel::from_text("idle 1\nevents e\nfreq x 1").is_err());
        assert!(
            PerFrequencyPowerModel::from_text("events e\nfreq 1000 1").is_err(),
            "missing idle"
        );
        // Comments and blank lines are fine.
        let ok = "# comment\n\nidle 2.0\nevents instructions\nfreq 1000 1e-9\n";
        assert!(PerFrequencyPowerModel::from_text(ok).is_ok());
    }

    #[test]
    fn residual_sigma_roundtrips_and_is_optional() {
        let mut m = PerFrequencyPowerModel::paper_i3_example();
        assert_eq!(m.residual_sigma(MegaHertz(3300)), None);
        assert_eq!(m.prediction_band_w(MegaHertz(3300), 2.0), 0.0);
        m.set_residual_sigma(MegaHertz(3300), 0.42);
        assert_eq!(m.residual_sigma(MegaHertz(3300)), Some(0.42));
        assert_eq!(m.nearest_residual_sigma(MegaHertz(3700)), Some(0.42));
        assert!((m.prediction_band_w(MegaHertz(3300), 2.0) - 0.84).abs() < 1e-12);
        // Text round trip carries the sigma.
        let text = m.to_text();
        assert!(text.contains("resid 3300"), "{text}");
        let back = PerFrequencyPowerModel::from_text(&text).unwrap();
        assert_eq!(back, m);
        // Old files without resid lines still parse (sigma absent).
        let old = "idle 2.0\nevents instructions\nfreq 1000 1e-9\n";
        let parsed = PerFrequencyPowerModel::from_text(old).unwrap();
        assert_eq!(parsed.residual_sigma(MegaHertz(1000)), None);
        // Malformed resid lines are rejected.
        assert!(PerFrequencyPowerModel::from_text(
            "idle 2.0\nevents e\nfreq 1000 1e-9\nresid 1000"
        )
        .is_err());
        assert!(PerFrequencyPowerModel::from_text(
            "idle 2.0\nevents e\nfreq 1000 1e-9\nresid abc 0.1"
        )
        .is_err());
        // NaN sigma is ignored; negative clamps to zero.
        m.set_residual_sigma(MegaHertz(3300), f64::NAN);
        assert_eq!(m.residual_sigma(MegaHertz(3300)), Some(0.42));
        m.set_residual_sigma(MegaHertz(3300), -1.0);
        assert_eq!(m.residual_sigma(MegaHertz(3300)), Some(0.0));
    }

    #[test]
    fn display_is_paper_shaped() {
        let s = PerFrequencyPowerModel::paper_i3_example().to_string();
        assert!(s.contains("Power = 31.48"));
        assert!(s.contains("P_3.30GHz"));
        assert!(s.contains("instructions"));
    }

    #[test]
    fn accessors() {
        let m = PerFrequencyPowerModel::paper_i3_example();
        assert_eq!(m.event_names().len(), 3);
        assert_eq!(m.frequencies(), vec![MegaHertz(3300)]);
        assert_eq!(m.first_frequency(), MegaHertz(3300));
        assert!(m.coefficients(MegaHertz(1600)).is_none());
    }
}
