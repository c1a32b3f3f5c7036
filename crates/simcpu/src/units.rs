//! Unit newtypes. Watts, joules, megahertz, nanoseconds and CPU indices are
//! all easy to confuse as bare numbers; newtypes keep them straight at
//! compile time (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Instantaneous power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

impl Watts {
    /// The zero power value.
    pub const ZERO: Watts = Watts(0.0);

    /// Raw value in watts.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Energy accumulated over a duration.
    pub fn over(self, dt: Nanos) -> Joules {
        Joules(self.0 * dt.as_secs_f64())
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Joules {
    /// The zero energy value.
    pub const ZERO: Joules = Joules(0.0);

    /// Raw value in joules.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Average power over a duration.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn per(self, dt: Nanos) -> Watts {
        assert!(dt.0 > 0, "cannot average energy over a zero duration");
        Watts(self.0 / dt.as_secs_f64())
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J", self.0)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

/// Clock frequency in megahertz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MegaHertz(pub u32);

impl MegaHertz {
    /// Value in MHz.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Value in GHz.
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Cycles elapsed over a duration at this frequency.
    pub fn cycles_over(self, dt: Nanos) -> u64 {
        // MHz · ns = 10⁶/s · 10⁻⁹ s = 10⁻³ cycles.
        (self.0 as u128 * dt.0 as u128 / 1000) as u64
    }
}

impl fmt::Display for MegaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{:.1} GHz", self.as_ghz())
        } else {
            write!(f, "{:.2} GHz", self.as_ghz())
        }
    }
}

/// Simulated time / durations in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Builds from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Builds from whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in nanoseconds.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} s", self.as_secs_f64())
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Div<Nanos> for Nanos {
    type Output = u64;
    fn div(self, rhs: Nanos) -> u64 {
        self.0 / rhs.0
    }
}

/// Index of a logical CPU (a hardware thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CpuId(pub usize);

impl CpuId {
    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_energy_roundtrip() {
        let p = Watts(10.0);
        let e = p.over(Nanos::from_secs(2));
        assert!((e.as_f64() - 20.0).abs() < 1e-12);
        let back = e.per(Nanos::from_secs(2));
        assert!((back.as_f64() - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn joules_per_zero_panics() {
        let _ = Joules(1.0).per(Nanos::ZERO);
    }

    #[test]
    fn megahertz_cycles() {
        // 1 GHz for 1 µs = 1000 cycles.
        assert_eq!(MegaHertz(1000).cycles_over(Nanos(1_000)), 1_000);
        // 3.3 GHz for 1 s = 3.3e9 cycles.
        assert_eq!(
            MegaHertz(3300).cycles_over(Nanos::from_secs(1)),
            3_300_000_000
        );
        // No overflow for long durations.
        assert_eq!(
            MegaHertz(3300).cycles_over(Nanos::from_secs(10_000)),
            33_000_000_000_000
        );
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_millis(3);
        let b = Nanos::from_millis(1);
        assert_eq!(a + b, Nanos::from_millis(4));
        assert_eq!(a - b, Nanos::from_millis(2));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a / b, 3);
        assert!((Nanos::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sums() {
        let total: Watts = [Watts(1.0), Watts(2.5)].into_iter().sum();
        assert!((total.as_f64() - 3.5).abs() < 1e-12);
        let e: Joules = [Joules(1.0), Joules(2.0)].into_iter().sum();
        assert!((e.as_f64() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn displays() {
        assert_eq!(Watts(12.345).to_string(), "12.35 W");
        assert_eq!(MegaHertz(3300).to_string(), "3.30 GHz");
        assert_eq!(MegaHertz(2000).to_string(), "2.0 GHz");
        assert_eq!(CpuId(3).to_string(), "cpu3");
        assert_eq!(Joules(1.5).to_string(), "1.500 J");
    }
}
