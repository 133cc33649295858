//! Scalar unit newtypes: simulated cycles, energy, data volume.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Bytes carried per network flit (Table 4 of the paper: 8 bytes/flit).
pub const FLIT_BYTES: u64 = 8;

/// A simulated clock cycle count (2 GHz tile clock in the paper).
///
/// `Cycle` is used both as a point in time and as a duration; the arithmetic
/// provided covers both uses, saturating is never needed because simulations
/// stay far below `u64::MAX`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Cycle zero — the start of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Wraps a raw cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the later of two time points.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two time points.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Duration from `earlier` to `self`, zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cycle({})", self.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// Dynamic energy in picojoules.
///
/// Stored as `f64`; the model only ever *accumulates* per-event energies, so
/// floating-point error is negligible relative to model error.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PicoJoules(pub f64);

impl PicoJoules {
    /// Zero energy.
    pub const ZERO: PicoJoules = PicoJoules(0.0);

    /// Wraps a raw picojoule value.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `raw` is negative or non-finite: energy
    /// accumulators must stay physical.
    #[inline]
    pub fn new(raw: f64) -> Self {
        debug_assert!(raw.is_finite() && raw >= 0.0, "non-physical energy {raw}");
        PicoJoules(raw)
    }

    /// Returns the raw picojoule value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Add for PicoJoules {
    type Output = PicoJoules;
    #[inline]
    fn add(self, rhs: PicoJoules) -> PicoJoules {
        PicoJoules(self.0 + rhs.0)
    }
}

impl AddAssign for PicoJoules {
    #[inline]
    fn add_assign(&mut self, rhs: PicoJoules) {
        self.0 += rhs.0;
    }
}

impl Sub for PicoJoules {
    type Output = PicoJoules;
    #[inline]
    fn sub(self, rhs: PicoJoules) -> PicoJoules {
        PicoJoules(self.0 - rhs.0)
    }
}

impl SubAssign for PicoJoules {
    #[inline]
    fn sub_assign(&mut self, rhs: PicoJoules) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for PicoJoules {
    type Output = PicoJoules;
    #[inline]
    fn mul(self, rhs: f64) -> PicoJoules {
        PicoJoules(self.0 * rhs)
    }
}

impl Mul<u64> for PicoJoules {
    type Output = PicoJoules;
    #[inline]
    fn mul(self, rhs: u64) -> PicoJoules {
        PicoJoules(self.0 * rhs as f64)
    }
}

impl Div<PicoJoules> for PicoJoules {
    type Output = f64;
    #[inline]
    fn div(self, rhs: PicoJoules) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for PicoJoules {
    fn sum<I: Iterator<Item = PicoJoules>>(iter: I) -> PicoJoules {
        iter.fold(PicoJoules::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for PicoJoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PicoJoules({})", self.0)
    }
}

impl fmt::Display for PicoJoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3}uJ", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}nJ", self.0 / 1e3)
        } else {
            write!(f, "{:.3}pJ", self.0)
        }
    }
}

/// A byte count (data volumes, working sets, DMA traffic).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Wraps a raw byte count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Bytes(raw)
    }

    /// Returns the raw byte count.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Converts to kibibytes.
    #[inline]
    pub fn kib(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Number of flits (8-byte units, rounded up) needed to carry this volume.
    #[inline]
    pub fn to_flits(self) -> Flits {
        Flits(self.0.div_ceil(FLIT_BYTES))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({})", self.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.1}MiB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.1}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A flit count (Table 4 reports bandwidth in 8-byte flits).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Flits(pub u64);

impl Flits {
    /// Zero flits.
    pub const ZERO: Flits = Flits(0);

    /// Returns the raw flit count.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Converts back to a byte volume.
    #[inline]
    pub const fn to_bytes(self) -> Bytes {
        Bytes(self.0 * FLIT_BYTES)
    }
}

impl Add for Flits {
    type Output = Flits;
    #[inline]
    fn add(self, rhs: Flits) -> Flits {
        Flits(self.0 + rhs.0)
    }
}

impl AddAssign for Flits {
    #[inline]
    fn add_assign(&mut self, rhs: Flits) {
        self.0 += rhs.0;
    }
}

impl Sum for Flits {
    fn sum<I: Iterator<Item = Flits>>(iter: I) -> Flits {
        iter.fold(Flits::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Flits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Flits({})", self.0)
    }
}

impl fmt::Display for Flits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}flits", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle::new(10);
        assert_eq!((t + 5).value(), 15);
        assert_eq!(t.max(Cycle::new(12)), Cycle::new(12));
        assert_eq!(t.min(Cycle::new(12)), t);
        assert_eq!(Cycle::new(12) - t, 2);
        assert_eq!(t.saturating_since(Cycle::new(30)), 0);
        assert_eq!(Cycle::new(30).saturating_since(t), 20);
    }

    #[test]
    fn energy_arithmetic_and_display() {
        let e = PicoJoules::new(1.5) + PicoJoules::new(2.5);
        assert_eq!(e.value(), 4.0);
        assert_eq!((e * 2.0).value(), 8.0);
        assert_eq!((e * 3u64).value(), 12.0);
        assert!((e / PicoJoules::new(2.0) - 2.0).abs() < 1e-12);
        assert_eq!(PicoJoules::new(2500.0).to_string(), "2.500nJ");
        assert_eq!(PicoJoules::new(2.5e6).to_string(), "2.500uJ");
        assert_eq!(PicoJoules::new(0.4).to_string(), "0.400pJ");
    }

    #[test]
    fn energy_sums() {
        let total: PicoJoules = (0..4).map(|i| PicoJoules::new(i as f64)).sum();
        assert_eq!(total.value(), 6.0);
    }

    #[test]
    fn bytes_to_flits_rounds_up() {
        assert_eq!(Bytes::new(0).to_flits().value(), 0);
        assert_eq!(Bytes::new(1).to_flits().value(), 1);
        assert_eq!(Bytes::new(8).to_flits().value(), 1);
        assert_eq!(Bytes::new(9).to_flits().value(), 2);
        assert_eq!(Bytes::new(64).to_flits().value(), 8);
        assert_eq!(Flits(8).to_bytes(), Bytes::new(64));
    }

    #[test]
    fn byte_display_scales() {
        assert_eq!(Bytes::new(512).to_string(), "512B");
        assert_eq!(Bytes::new(2048).to_string(), "2.0KiB");
        assert_eq!(Bytes::new(3 * 1024 * 1024).to_string(), "3.0MiB");
    }
}
