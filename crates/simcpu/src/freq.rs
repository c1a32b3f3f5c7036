//! DVFS: P-state tables (frequency + core voltage pairs) and TurboBoost
//! bins. The paper's power model is *per frequency* precisely because the
//! voltage that comes with each P-state makes energy-per-event
//! frequency-dependent (`E ∝ V²`).

use crate::units::MegaHertz;
use crate::{Error, Result};

/// One DVFS operating point: a frequency and the core voltage the VRM
/// supplies at that frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    frequency: MegaHertz,
    voltage: f64,
}

impl PState {
    /// Creates a P-state.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for zero frequency or non-positive voltage.
    pub fn new(frequency: MegaHertz, voltage: f64) -> Result<PState> {
        if frequency.as_u32() == 0 {
            return Err(Error::InvalidConfig("p-state frequency must be non-zero"));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be rejected too
        if !(voltage > 0.0) || !voltage.is_finite() {
            return Err(Error::InvalidConfig("p-state voltage must be positive"));
        }
        Ok(PState { frequency, voltage })
    }

    /// Operating frequency.
    pub fn frequency(&self) -> MegaHertz {
        self.frequency
    }

    /// Core voltage in volts.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Every field's bit pattern. The destructuring keeps it complete
    /// when a field is added.
    #[inline]
    pub(crate) fn to_bits(self) -> [u64; 2] {
        let PState { frequency, voltage } = self;
        [u64::from(frequency.0), voltage.to_bits()]
    }
}

/// An ordered table of supported P-states plus optional turbo bins.
///
/// Turbo bins map *number of active cores* → maximum opportunistic
/// frequency; fewer active cores allow higher turbo, which is what makes
/// turbo power nonlinear in counter space.
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
    turbo: Vec<PState>,
}

impl PStateTable {
    /// Builds a table from nominal states (ascending frequency) and turbo
    /// bins (`turbo[k]` = bin with `k+1` active cores... stored most
    /// aggressive first; see [`PStateTable::turbo_for_active_cores`]).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `states` is empty or not strictly
    /// ascending in frequency.
    pub fn new(states: Vec<PState>, turbo: Vec<PState>) -> Result<PStateTable> {
        if states.is_empty() {
            return Err(Error::InvalidConfig("p-state table must not be empty"));
        }
        for w in states.windows(2) {
            if w[1].frequency() <= w[0].frequency() {
                return Err(Error::InvalidConfig(
                    "p-state table must be strictly ascending in frequency",
                ));
            }
        }
        Ok(PStateTable { states, turbo })
    }

    /// Builds a table with no turbo support.
    ///
    /// # Errors
    ///
    /// Same as [`PStateTable::new`].
    pub fn without_turbo(states: Vec<PState>) -> Result<PStateTable> {
        PStateTable::new(states, Vec::new())
    }

    /// All nominal states, ascending.
    pub fn states(&self) -> &[PState] {
        &self.states
    }

    /// All nominal frequencies, ascending.
    pub fn frequencies(&self) -> Vec<MegaHertz> {
        self.states.iter().map(|s| s.frequency()).collect()
    }

    /// Lowest nominal state.
    pub fn min(&self) -> PState {
        self.states[0]
    }

    /// Highest nominal (non-turbo) state.
    pub fn max(&self) -> PState {
        *self.states.last().expect("non-empty by construction")
    }

    /// Whether any turbo bins exist.
    pub fn has_turbo(&self) -> bool {
        !self.turbo.is_empty()
    }

    /// Looks up the P-state for an exact frequency (nominal or turbo).
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedFrequency`] when the frequency is not in the
    /// table.
    pub fn state_for(&self, f: MegaHertz) -> Result<PState> {
        self.states
            .iter()
            .chain(self.turbo.iter())
            .find(|s| s.frequency() == f)
            .copied()
            .ok_or(Error::UnsupportedFrequency { requested: f })
    }

    /// The turbo bin available when `active_cores` cores are busy, or
    /// `None` when turbo is absent / exhausted. Bin 0 (1 active core) is
    /// the most aggressive.
    pub fn turbo_for_active_cores(&self, active_cores: usize) -> Option<PState> {
        if active_cores == 0 {
            return None;
        }
        self.turbo.get(active_cores - 1).copied()
    }

    /// The effective operating point for a core asked to run at `request`
    /// with `active_cores` currently active: turbo-capable tables running
    /// at max nominal frequency opportunistically upgrade to their bin.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedFrequency`] when `request` is not a nominal
    /// frequency.
    pub fn effective(&self, request: MegaHertz, active_cores: usize) -> Result<PState> {
        let nominal = self
            .states
            .iter()
            .find(|s| s.frequency() == request)
            .copied()
            .ok_or(Error::UnsupportedFrequency { requested: request })?;
        if nominal.frequency() == self.max().frequency() {
            if let Some(t) = self.turbo_for_active_cores(active_cores) {
                if t.frequency() > nominal.frequency() {
                    return Ok(t);
                }
            }
        }
        Ok(nominal)
    }
}

/// Builds a realistic-looking voltage curve for a frequency ladder:
/// voltage rises roughly linearly from `v_min` at the lowest frequency to
/// `v_max` at the highest.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for empty ladders or non-positive voltages.
pub fn ladder(freqs_mhz: &[u32], v_min: f64, v_max: f64) -> Result<Vec<PState>> {
    if freqs_mhz.is_empty() {
        return Err(Error::InvalidConfig("frequency ladder must not be empty"));
    }
    let lo = *freqs_mhz.first().expect("non-empty") as f64;
    let hi = *freqs_mhz.last().expect("non-empty") as f64;
    freqs_mhz
        .iter()
        .map(|&f| {
            let t = if hi > lo {
                (f as f64 - lo) / (hi - lo)
            } else {
                0.0
            };
            PState::new(MegaHertz(f), v_min + t * (v_max - v_min))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PStateTable {
        PStateTable::new(
            ladder(&[1600, 2400, 3300], 0.85, 1.05).unwrap(),
            vec![
                PState::new(MegaHertz(3700), 1.15).unwrap(),
                PState::new(MegaHertz(3500), 1.10).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn pstate_validation() {
        assert!(PState::new(MegaHertz(0), 1.0).is_err());
        assert!(PState::new(MegaHertz(1000), 0.0).is_err());
        assert!(PState::new(MegaHertz(1000), f64::NAN).is_err());
    }

    #[test]
    fn table_must_ascend() {
        let bad = vec![
            PState::new(MegaHertz(2000), 0.9).unwrap(),
            PState::new(MegaHertz(1600), 0.85).unwrap(),
        ];
        assert!(PStateTable::without_turbo(bad).is_err());
        assert!(PStateTable::without_turbo(Vec::new()).is_err());
    }

    #[test]
    fn ladder_voltage_interpolates() {
        let l = ladder(&[1600, 2450, 3300], 0.8, 1.0).unwrap();
        assert!((l[0].voltage() - 0.8).abs() < 1e-12);
        assert!((l[2].voltage() - 1.0).abs() < 1e-12);
        assert!(l[1].voltage() > 0.8 && l[1].voltage() < 1.0);
    }

    #[test]
    fn state_lookup() {
        let t = table();
        assert_eq!(t.min().frequency(), MegaHertz(1600));
        assert_eq!(t.max().frequency(), MegaHertz(3300));
        assert!(t.state_for(MegaHertz(2400)).is_ok());
        assert!(
            t.state_for(MegaHertz(3700)).is_ok(),
            "turbo freq resolvable"
        );
        assert!(matches!(
            t.state_for(MegaHertz(9999)),
            Err(Error::UnsupportedFrequency { .. })
        ));
    }

    #[test]
    fn turbo_bins_depend_on_active_cores() {
        let t = table();
        assert!(t.has_turbo());
        assert_eq!(
            t.turbo_for_active_cores(1).unwrap().frequency(),
            MegaHertz(3700)
        );
        assert_eq!(
            t.turbo_for_active_cores(2).unwrap().frequency(),
            MegaHertz(3500)
        );
        assert_eq!(t.turbo_for_active_cores(3), None, "bins exhausted");
        assert_eq!(t.turbo_for_active_cores(0), None);
    }

    #[test]
    fn effective_upgrades_only_at_max_nominal() {
        let t = table();
        // At max nominal with 1 active core: turbo kicks in.
        let e = t.effective(MegaHertz(3300), 1).unwrap();
        assert_eq!(e.frequency(), MegaHertz(3700));
        // At a lower nominal state turbo must not engage.
        let e = t.effective(MegaHertz(2400), 1).unwrap();
        assert_eq!(e.frequency(), MegaHertz(2400));
        // Without turbo bins the max nominal stays put.
        let nt = PStateTable::without_turbo(ladder(&[1600, 3300], 0.85, 1.05).unwrap()).unwrap();
        let e = nt.effective(MegaHertz(3300), 1).unwrap();
        assert_eq!(e.frequency(), MegaHertz(3300));
    }

    #[test]
    fn effective_rejects_turbo_frequency_as_request() {
        let t = table();
        assert!(t.effective(MegaHertz(3700), 1).is_err());
    }
}
