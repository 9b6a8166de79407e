//! Cycle-count time base and clock-frequency conversions.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or instant measured in CPU clock cycles.
///
/// `Cycles` is the single time base of the whole simulator: the scheduler,
/// the DMA model, and the trace all speak cycles. Wall-clock durations
/// (task periods in microseconds, memory bandwidth in MB/s) are converted
/// once at configuration time via [`Frequency`].
///
/// Arithmetic is checked in debug builds (overflow panics) and the type
/// offers explicit `saturating_sub`/`checked_add` helpers for the places
/// where wrap-around would be a logic error.
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::Cycles;
///
/// let a = Cycles::new(1_000);
/// let b = a + Cycles::new(500);
/// assert_eq!(b.get(), 1_500);
/// assert_eq!(b.saturating_sub(Cycles::new(9_999)), Cycles::ZERO);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles — the simulation epoch and the additive identity.
    pub const ZERO: Cycles = Cycles(0);
    /// The largest representable cycle count (used as "never" sentinel).
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a cycle count from a raw `u64`.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns `true` if this is exactly zero cycles.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    #[inline]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition, clamping at [`Cycles::MAX`].
    #[inline]
    pub const fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_add(rhs.0).map(Cycles)
    }

    /// Checked multiplication by a scalar, `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<Cycles> {
        self.0.checked_mul(rhs).map(Cycles)
    }

    /// Ceiling division by a scalar.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div_ceil(self, rhs: u64) -> Cycles {
        Cycles(self.0.div_ceil(rhs))
    }

    /// Multiplies by the rational `num/den`, rounding **up** (conservative
    /// for worst-case timing). Intermediate math is 128-bit so the full
    /// `u64` range is safe for any `num, den ≤ u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or the result exceeds `u64::MAX`. Library
    /// paths reachable from untrusted inputs (admission-service queries,
    /// sensitivity scaling) must use [`Cycles::checked_mul_ratio_ceil`]
    /// or [`Cycles::saturating_mul_ratio_ceil`] instead.
    #[inline]
    pub fn mul_ratio_ceil(self, num: u64, den: u64) -> Cycles {
        assert!(den != 0, "mul_ratio_ceil: zero denominator");
        let wide = u128::from(self.0) * u128::from(num);
        let out = wide.div_ceil(u128::from(den));
        Cycles(u64::try_from(out).expect("mul_ratio_ceil overflow"))
    }

    /// [`Cycles::mul_ratio_ceil`] that reports overflow instead of
    /// panicking: `None` when the rounded-up product exceeds `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero (a structural bug, never data-dependent).
    #[inline]
    pub fn checked_mul_ratio_ceil(self, num: u64, den: u64) -> Option<Cycles> {
        assert!(den != 0, "mul_ratio_ceil: zero denominator");
        let wide = u128::from(self.0) * u128::from(num);
        u64::try_from(wide.div_ceil(u128::from(den)))
            .ok()
            .map(Cycles)
    }

    /// [`Cycles::mul_ratio_ceil`] that clamps at [`Cycles::MAX`] instead
    /// of panicking. Saturation keeps scaling **monotone** in `num`
    /// (a larger numerator never yields a smaller result) and is
    /// conservative for worst-case timing: an unrepresentable WCET is
    /// over-reported as "never finishes", which can only turn an admit
    /// into a reject.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero (a structural bug, never data-dependent).
    #[inline]
    pub fn saturating_mul_ratio_ceil(self, num: u64, den: u64) -> Cycles {
        self.checked_mul_ratio_ceil(num, den).unwrap_or(Cycles::MAX)
    }

    /// Returns the larger of two cycle counts.
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two cycle counts.
    #[inline]
    pub fn min(self, other: Cycles) -> Cycles {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> Self {
        c.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Rem<Cycles> for Cycles {
    type Output = Cycles;
    #[inline]
    fn rem(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 % rhs.0)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

/// A clock frequency in hertz, used to convert wall-clock quantities into
/// [`Cycles`].
///
/// # Examples
///
/// ```rust
/// use rtmdm_mcusim::Frequency;
///
/// let f = Frequency::mhz(200);
/// // A 100 µs period at 200 MHz is 20 000 cycles.
/// assert_eq!(f.cycles_from_micros(100).get(), 20_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero — a zero-frequency clock cannot make
    /// progress and every conversion would divide by zero.
    pub fn hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be positive");
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn mhz(mhz: u64) -> Self {
        Frequency::hz(mhz * 1_000_000)
    }

    /// Returns the frequency in hertz.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Converts a duration in microseconds to cycles, rounding up.
    ///
    /// Durations too long to represent saturate at [`Cycles::MAX`] (the
    /// "never" sentinel) instead of panicking — conservative for timing
    /// (time is over-, never under-reported) and total, so a malformed
    /// admission-service query with an absurd period cannot kill the
    /// process.
    pub fn cycles_from_micros(self, micros: u64) -> Cycles {
        let wide = u128::from(micros) * u128::from(self.0);
        u64::try_from(wide.div_ceil(1_000_000)).map_or(Cycles::MAX, Cycles::new)
    }

    /// Converts a cycle count back to microseconds, rounding up.
    /// Saturates at `u64::MAX` for cycle counts too large to express in
    /// microseconds at this frequency (only reachable below ~18.4 GHz
    /// when `cycles` is already near the [`Cycles::MAX`] sentinel).
    pub fn micros_from_cycles(self, cycles: Cycles) -> u64 {
        let wide = u128::from(cycles.get()) * 1_000_000u128;
        u64::try_from(wide.div_ceil(u128::from(self.0))).unwrap_or(u64::MAX)
    }

    /// Cycles consumed per byte at a given sustained bandwidth, expressed
    /// as the exact rational `(num, den) = (hz, bytes_per_second)`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_second` is zero.
    pub fn cycles_per_byte_ratio(self, bytes_per_second: u64) -> (u64, u64) {
        assert!(bytes_per_second > 0, "bandwidth must be positive");
        (self.0, bytes_per_second)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_basic_arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(3);
        assert_eq!((a + b).get(), 13);
        assert_eq!((a - b).get(), 7);
        assert_eq!((a * 4).get(), 40);
        assert_eq!((a / 3).get(), 3);
        assert_eq!(a.div_ceil(3).get(), 4);
    }

    #[test]
    fn cycles_saturating_sub_floors_at_zero() {
        assert_eq!(Cycles::new(5).saturating_sub(Cycles::new(9)), Cycles::ZERO);
        assert_eq!(
            Cycles::new(9).saturating_sub(Cycles::new(5)),
            Cycles::new(4)
        );
    }

    #[test]
    fn cycles_mul_ratio_ceil_rounds_up() {
        // 10 * 1/3 = 3.33… → 4
        assert_eq!(Cycles::new(10).mul_ratio_ceil(1, 3), Cycles::new(4));
        // exact division stays exact
        assert_eq!(Cycles::new(9).mul_ratio_ceil(1, 3), Cycles::new(3));
        // large operands do not overflow
        let big = Cycles::new(u64::MAX / 2);
        assert_eq!(big.mul_ratio_ceil(2, 2), big);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn mul_ratio_ceil_rejects_zero_denominator() {
        let _ = Cycles::new(1).mul_ratio_ceil(1, 0);
    }

    #[test]
    fn checked_mul_ratio_ceil_reports_overflow() {
        assert_eq!(
            Cycles::new(10).checked_mul_ratio_ceil(1, 3),
            Some(Cycles::new(4))
        );
        assert_eq!(Cycles::MAX.checked_mul_ratio_ceil(2, 1), None);
        // The exact boundary: u64::MAX * 1 / 1 still fits.
        assert_eq!(Cycles::MAX.checked_mul_ratio_ceil(1, 1), Some(Cycles::MAX));
    }

    #[test]
    fn saturating_mul_ratio_ceil_clamps_and_stays_monotone() {
        assert_eq!(Cycles::MAX.saturating_mul_ratio_ceil(2, 1), Cycles::MAX);
        // Monotone in the numerator across the saturation boundary:
        // once the product clamps, larger numerators keep it clamped.
        let near = Cycles::new(u64::MAX / 2 + 1);
        let mut prev = Cycles::ZERO;
        for num in [1u64, 2, 3, 4, u64::MAX] {
            let scaled = near.saturating_mul_ratio_ceil(num, 2);
            assert!(scaled >= prev, "num={num} shrank the result");
            prev = scaled;
        }
        assert_eq!(prev, Cycles::MAX);
    }

    #[test]
    fn cycles_sum_and_ordering() {
        let total: Cycles = [1u64, 2, 3].iter().map(|&c| Cycles::new(c)).sum();
        assert_eq!(total, Cycles::new(6));
        assert!(Cycles::new(2) < Cycles::new(3));
        assert_eq!(Cycles::new(2).max(Cycles::new(3)), Cycles::new(3));
        assert_eq!(Cycles::new(2).min(Cycles::new(3)), Cycles::new(2));
    }

    #[test]
    fn frequency_conversions_round_trip_conservatively() {
        let f = Frequency::mhz(200);
        assert_eq!(f.cycles_from_micros(1).get(), 200);
        assert_eq!(f.micros_from_cycles(Cycles::new(200)), 1);
        // Rounding is up: 201 cycles is "2 µs" (never under-reports time).
        assert_eq!(f.micros_from_cycles(Cycles::new(201)), 2);
    }

    #[test]
    fn duration_conversions_saturate_instead_of_panicking() {
        let f = Frequency::mhz(200);
        // 200 MHz · u64::MAX µs overflows u64 cycles → "never".
        assert_eq!(f.cycles_from_micros(u64::MAX), Cycles::MAX);
        // Below 1 MHz the reverse direction can overflow too.
        let slow = Frequency::hz(1);
        assert_eq!(slow.micros_from_cycles(Cycles::MAX), u64::MAX);
    }

    #[test]
    fn frequency_cycles_per_byte_ratio() {
        let f = Frequency::mhz(200);
        // 50 MB/s at 200 MHz = 4 cycles per byte.
        let (num, den) = f.cycles_per_byte_ratio(50_000_000);
        assert_eq!(num / den, 4);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::hz(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycles::new(12).to_string(), "12cy");
        assert_eq!(Frequency::mhz(80).to_string(), "80 MHz");
        assert_eq!(Frequency::hz(1_500).to_string(), "1500 Hz");
    }
}
