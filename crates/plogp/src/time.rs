//! A totally-ordered, non-NaN time quantity.
//!
//! All performance-model arithmetic in the workspace is carried out in seconds
//! using `f64`. Raw `f64` is error-prone for this purpose: it is not `Ord`, and
//! mixing units (the paper quotes microseconds in Table 3 and milliseconds in
//! Table 2) invites silent mistakes. [`Time`] wraps the value, provides explicit
//! unit constructors/accessors and a total order, and panics on NaN construction
//! so that invalid arithmetic is caught at the point it happens.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A time duration (or instant on a simulation clock), stored as seconds.
///
/// `Time` is `Copy`, totally ordered (NaN is rejected at construction) and
/// supports the arithmetic needed by the cost models: addition, subtraction,
/// scaling by a dimensionless factor, and division producing a ratio.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[serde(transparent)]
pub struct Time(f64);

impl Time {
    /// The zero duration.
    pub const ZERO: Time = Time(0.0);

    /// A time larger than any realistic schedule; used as an "infinity" sentinel
    /// when searching for minima.
    pub const INFINITY: Time = Time(f64::INFINITY);

    /// Creates a time from seconds. Panics if `secs` is NaN.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        assert!(!secs.is_nan(), "Time cannot be NaN");
        Time(secs)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// The value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns whether this time is finite (not the `INFINITY` sentinel).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamps negative values to zero. Useful when subtracting measured
    /// overheads that may slightly exceed the total due to noise.
    #[inline]
    pub fn clamp_non_negative(self) -> Time {
        if self.0 < 0.0 {
            Time::ZERO
        } else {
            self
        }
    }

    /// Absolute difference between two times.
    #[inline]
    pub fn abs_diff(self, other: Time) -> Time {
        Time((self.0 - other.0).abs())
    }

    /// Returns `true` if `self` is within `tolerance` of `other`.
    #[inline]
    pub fn approx_eq(self, other: Time, tolerance: Time) -> bool {
        self.abs_diff(other) <= tolerance
    }
}

impl Eq for Time {}

/// The order is [`f64::total_cmp`] on the stored seconds, for every bit
/// pattern, decided float-first: one IEEE `<` or `>` answers whenever the two
/// values differ as floats, and `total_cmp` runs only when neither holds —
/// equal floats, `+0` against `-0` (which `total_cmp` orders `-0 < +0`), or a
/// NaN. Construction forbids NaN, but `INFINITY - INFINITY` and `0 × INFINITY`
/// can still make one, and the fallback keeps every answer exactly
/// `total_cmp`'s there too. `lt`, `le`, `gt` and `ge` go through the same
/// three-way test rather than the shortcut `a < b || (a == b && …)`, which
/// answers differently on NaN.
impl PartialOrd for Time {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }

    #[inline]
    fn lt(&self, other: &Self) -> bool {
        self.cmp(other).is_lt()
    }

    #[inline]
    fn le(&self, other: &Self) -> bool {
        self.cmp(other).is_le()
    }

    #[inline]
    fn gt(&self, other: &Self) -> bool {
        self.cmp(other).is_gt()
    }

    #[inline]
    fn ge(&self, other: &Self) -> bool {
        self.cmp(other).is_ge()
    }
}

impl Ord for Time {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 < other.0 {
            Ordering::Less
        } else if self.0 > other.0 {
            Ordering::Greater
        } else {
            self.0.total_cmp(&other.0)
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Neg for Time {
    type Output = Time;
    #[inline]
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: f64) -> Time {
        Time::from_secs(self.0 * rhs)
    }
}

impl Mul<Time> for f64 {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Time) -> Time {
        rhs * self
    }
}

impl Mul<u32> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u32) -> Time {
        Time(self.0 * f64::from(rhs))
    }
}

impl Div<Time> for Time {
    /// Dividing two times yields a dimensionless ratio.
    type Output = f64;
    #[inline]
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl Div<f64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: f64) -> Time {
        Time::from_secs(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if !s.is_finite() {
            write!(f, "inf")
        } else if s == 0.0 {
            write!(f, "0s")
        } else if s.abs() >= 1.0 {
            write!(f, "{:.4}s", s)
        } else if s.abs() >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.2}us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let t = Time::from_millis(12.5);
        assert!((t.as_secs() - 0.0125).abs() < 1e-12);
        assert!((t.as_millis() - 12.5).abs() < 1e-9);
        assert!((t.as_micros() - 12500.0).abs() < 1e-6);

        let u = Time::from_micros(47.56);
        assert!((u.as_micros() - 47.56).abs() < 1e-9);
    }

    #[test]
    fn ordering_is_total_and_sane() {
        let a = Time::from_millis(1.0);
        let b = Time::from_millis(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(Time::ZERO < Time::INFINITY);
        assert!(a < Time::INFINITY);
    }

    /// Every ordering entry point against `f64::total_cmp` for one pair,
    /// results compared bit for bit where they are times.
    fn assert_orders_like_total_cmp(a: Time, b: Time) {
        use std::cmp::Ordering;
        let (x, y) = (a.as_secs(), b.as_secs());
        let want = x.total_cmp(&y);
        let what = format!("{x:e} ({:#x}) vs {y:e} ({:#x})", x.to_bits(), y.to_bits());
        assert_eq!(a.cmp(&b), want, "cmp: {what}");
        assert_eq!(a.partial_cmp(&b), Some(want), "partial_cmp: {what}");
        assert_eq!(a < b, want == Ordering::Less, "lt: {what}");
        assert_eq!(a <= b, want != Ordering::Greater, "le: {what}");
        assert_eq!(a > b, want == Ordering::Greater, "gt: {what}");
        assert_eq!(a >= b, want != Ordering::Less, "ge: {what}");
        let (hi, lo) = if want.is_ge() { (x, y) } else { (y, x) };
        assert_eq!(a.max(b).as_secs().to_bits(), hi.to_bits(), "max: {what}");
        assert_eq!(a.min(b).as_secs().to_bits(), lo.to_bits(), "min: {what}");
        assert_eq!(
            Ord::max(a, b).as_secs().to_bits(),
            hi.to_bits(),
            "Ord::max: {what}"
        );
        assert_eq!(
            Ord::min(a, b).as_secs().to_bits(),
            lo.to_bits(),
            "Ord::min: {what}"
        );
        // `a` clamped to the range spanned by `b` and the extreme ends of
        // the total order.
        for (low, high) in [(lo, hi), (f64::NEG_INFINITY, y), (y, f64::NAN)] {
            if low.total_cmp(&high).is_gt() {
                continue;
            }
            let want = if x.total_cmp(&low).is_lt() {
                low
            } else if x.total_cmp(&high).is_gt() {
                high
            } else {
                x
            };
            let got = a.clamp(Time(low), Time(high)).as_secs();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "clamp to [{low:e}, {high:e}]: {what}"
            );
        }
    }

    #[test]
    fn ordering_is_exactly_total_cmp_on_special_values() {
        let nan = Time::INFINITY - Time::INFINITY;
        assert!(nan.as_secs().is_nan());
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1.0,
            -1.0,
            nan.as_secs(),
            -nan.as_secs(),
            f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0001),
        ];
        for &x in &specials {
            for &y in &specials {
                assert_orders_like_total_cmp(Time(x), Time(y));
            }
        }
    }

    #[test]
    fn ordering_is_exactly_total_cmp_on_random_bit_patterns() {
        // SplitMix64: a fixed, dependency-free stream of 64-bit patterns.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_b133_111b);
            z ^ (z >> 31)
        };
        let mut nans = 0;
        for i in 0..20_000 {
            let mut x = next();
            let y = next();
            // Every fourth pair shares its exponent (and every eighth its
            // whole pattern), so equal floats, ±0 and NaN pairs come up as
            // often as plain differing values.
            if i % 4 == 0 {
                x = (x & 0x000f_ffff_ffff_ffff) | (y & 0xfff0_0000_0000_0000);
            }
            if i % 8 == 0 {
                x = y ^ (u64::from(i % 16 == 0) << 63);
            }
            let (x, y) = (f64::from_bits(x), f64::from_bits(y));
            nans += usize::from(x.is_nan() || y.is_nan());
            assert_orders_like_total_cmp(Time(x), Time(y));
        }
        assert!(nans > 0, "the sweep must include NaN patterns");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_construction_panics() {
        let _ = Time::from_secs(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_millis(3.0);
        let b = Time::from_millis(1.5);
        assert_eq!(a + b, Time::from_millis(4.5));
        assert_eq!(a - b, Time::from_millis(1.5));
        assert_eq!(a * 2.0, Time::from_millis(6.0));
        assert_eq!(a / 2.0, Time::from_millis(1.5));
        assert!(((a / b) - 2.0).abs() < 1e-12);
        let sum: Time = vec![a, b, b].into_iter().sum();
        assert_eq!(sum, Time::from_millis(6.0));
    }

    #[test]
    fn clamp_and_diff() {
        let a = Time::from_millis(1.0);
        let b = Time::from_millis(4.0);
        assert_eq!((a - b).clamp_non_negative(), Time::ZERO);
        assert_eq!(a.abs_diff(b), Time::from_millis(3.0));
        assert!(a.approx_eq(Time::from_millis(1.0001), Time::from_micros(200.0)));
        assert!(!a.approx_eq(b, Time::from_micros(200.0)));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_secs(2.5)), "2.5000s");
        assert_eq!(format!("{}", Time::from_millis(2.5)), "2.500ms");
        assert_eq!(format!("{}", Time::from_micros(42.0)), "42.00us");
        assert_eq!(format!("{}", Time::ZERO), "0s");
    }

    #[test]
    fn sentinel_is_not_finite() {
        assert!(!Time::INFINITY.is_finite());
        assert!(Time::from_millis(3000.0).is_finite());
    }
}
