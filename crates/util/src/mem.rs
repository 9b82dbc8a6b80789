//! Strongly-typed memory quantities.
//!
//! Keep-alive is memory-constrained (paper §4.1: "the number of containers
//! that can run is limited by the physical memory availability"), so memory
//! amounts flow through every interface in the workspace. [`MemMb`] is a
//! newtype over whole megabytes that prevents mixing memory up with times,
//! counts, or priorities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A quantity of memory in whole megabytes.
///
/// # Examples
///
/// ```
/// use faascache_util::MemMb;
/// let server = MemMb::from_gb(48);
/// let container = MemMb::new(512);
/// assert_eq!((server - container).as_mb(), 48 * 1024 - 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemMb(u64);

impl MemMb {
    /// Zero memory.
    pub const ZERO: MemMb = MemMb(0);

    /// Creates a quantity from megabytes.
    pub const fn new(mb: u64) -> Self {
        MemMb(mb)
    }

    /// Creates a quantity from gibibyte-style "GB" (1 GB = 1024 MB), as the
    /// paper's cache-size axes use.
    pub const fn from_gb(gb: u64) -> Self {
        MemMb(gb * 1024)
    }

    /// The raw megabyte count.
    pub const fn as_mb(self) -> u64 {
        self.0
    }

    /// The quantity in fractional GB.
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: MemMb) -> MemMb {
        MemMb(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction: `None` if `other` exceeds `self`.
    pub fn checked_sub(self, other: MemMb) -> Option<MemMb> {
        self.0.checked_sub(other.0).map(MemMb)
    }

    /// Whether this is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales by a non-negative factor, rounding to the nearest MB.
    pub fn mul_f64(self, factor: f64) -> MemMb {
        MemMb((self.0 as f64 * factor.max(0.0)).round() as u64)
    }

    /// Returns the smaller of two quantities.
    pub fn min(self, other: MemMb) -> MemMb {
        MemMb(self.0.min(other.0))
    }

    /// Returns the larger of two quantities.
    pub fn max(self, other: MemMb) -> MemMb {
        MemMb(self.0.max(other.0))
    }
}

impl Add for MemMb {
    type Output = MemMb;
    fn add(self, rhs: MemMb) -> MemMb {
        MemMb(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for MemMb {
    fn add_assign(&mut self, rhs: MemMb) {
        *self = *self + rhs;
    }
}

impl Sub for MemMb {
    type Output = MemMb;
    /// Saturating subtraction; use [`MemMb::checked_sub`] to detect underflow.
    fn sub(self, rhs: MemMb) -> MemMb {
        MemMb(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for MemMb {
    fn sub_assign(&mut self, rhs: MemMb) {
        *self = *self - rhs;
    }
}

impl Sum for MemMb {
    fn sum<I: Iterator<Item = MemMb>>(iter: I) -> MemMb {
        iter.fold(MemMb::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for MemMb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}GB", self.0 / 1024)
        } else {
            write!(f, "{}MB", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(MemMb::from_gb(2).as_mb(), 2048);
        assert!((MemMb::new(512).as_gb_f64() - 0.5).abs() < 1e-12);
        assert!(MemMb::ZERO.is_zero());
        assert!(!MemMb::new(1).is_zero());
    }

    #[test]
    fn arithmetic_saturates() {
        let a = MemMb::new(100);
        let b = MemMb::new(300);
        assert_eq!(a - b, MemMb::ZERO);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(MemMb::new(200)));
        assert_eq!(a + b, MemMb::new(400));
    }

    #[test]
    fn sum_min_max_scale() {
        let total: MemMb = [1, 2, 3].iter().map(|&m| MemMb::new(m)).sum();
        assert_eq!(total, MemMb::new(6));
        assert_eq!(MemMb::new(5).min(MemMb::new(3)), MemMb::new(3));
        assert_eq!(MemMb::new(5).max(MemMb::new(3)), MemMb::new(5));
        assert_eq!(MemMb::new(1000).mul_f64(0.5), MemMb::new(500));
        assert_eq!(MemMb::new(1000).mul_f64(-1.0), MemMb::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MemMb::new(512).to_string(), "512MB");
        assert_eq!(MemMb::from_gb(48).to_string(), "48GB");
        assert_eq!(MemMb::new(1536).to_string(), "1536MB");
    }
}
