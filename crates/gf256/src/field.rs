//! The `Gf256` field element type and its operator implementations.

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables::{EXP_TABLE, LOG_TABLE};

/// An element of GF(2^8).
///
/// A transparent newtype over `u8`: construction and deconstruction are
/// free, and a `&[Gf256]` can be reinterpreted as `&[u8]` by callers that
/// own both sides of the conversion.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Wraps a raw byte as a field element.
    #[inline]
    pub const fn new(value: u8) -> Self {
        Gf256(value)
    }

    /// Returns the raw byte value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Returns `g^power` for the field generator `g`.
    ///
    /// The exponent is reduced modulo 255 (the multiplicative group order).
    #[inline]
    pub fn exp(power: usize) -> Self {
        Gf256(EXP_TABLE[power % 255])
    }

    /// Returns the discrete logarithm of `self`, or `None` for zero.
    #[inline]
    pub fn log(self) -> Option<u8> {
        if self.0 == 0 {
            None
        } else {
            Some(LOG_TABLE[self.0 as usize])
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    #[inline]
    pub fn inv(self) -> Self {
        assert!(self.0 != 0, "attempt to invert zero in GF(2^8)");
        let log = LOG_TABLE[self.0 as usize] as usize;
        Gf256(EXP_TABLE[255 - log])
    }

    /// Raises `self` to an arbitrary power.
    ///
    /// `0^0` is defined as `1`, matching the empty-product convention used
    /// by Vandermonde-matrix construction.
    pub fn pow(self, mut exponent: u64) -> Self {
        if exponent == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        exponent %= 255;
        if exponent == 0 {
            return Gf256::ONE;
        }
        let log = LOG_TABLE[self.0 as usize] as u64;
        Gf256(EXP_TABLE[((log * exponent) % 255) as usize])
    }

    /// True if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256({:#04x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

impl From<u8> for Gf256 {
    #[inline]
    fn from(value: u8) -> Self {
        Gf256(value)
    }
}

impl From<Gf256> for u8 {
    #[inline]
    fn from(value: Gf256) -> Self {
        value.0
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    // In GF(2^8) addition *is* XOR; the lint heuristic does not apply.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn sub(self, rhs: Gf256) -> Gf256 {
        // Characteristic 2: subtraction coincides with addition.
        Gf256(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf256 {
    #[allow(clippy::suspicious_op_assign_impl)]
    #[inline]
    fn sub_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    #[inline]
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    #[inline]
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let log_sum = LOG_TABLE[self.0 as usize] as usize + LOG_TABLE[rhs.0 as usize] as usize;
        Gf256(EXP_TABLE[log_sum])
    }
}

impl MulAssign for Gf256 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    #[inline]
    fn div(self, rhs: Gf256) -> Gf256 {
        assert!(rhs.0 != 0, "attempt to divide by zero in GF(2^8)");
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let log_diff =
            255 + LOG_TABLE[self.0 as usize] as usize - LOG_TABLE[rhs.0 as usize] as usize;
        Gf256(EXP_TABLE[log_diff % 255])
    }
}

impl DivAssign for Gf256 {
    #[inline]
    fn div_assign(&mut self, rhs: Gf256) {
        *self = *self / rhs;
    }
}

impl Sum for Gf256 {
    fn sum<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ZERO, |acc, x| acc + x)
    }
}

impl Product for Gf256 {
    fn product<I: Iterator<Item = Gf256>>(iter: I) -> Gf256 {
        iter.fold(Gf256::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_elements() -> impl Iterator<Item = Gf256> {
        (0u16..=255).map(|v| Gf256(v as u8))
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in all_elements() {
            assert_eq!(a + a, Gf256::ZERO);
            assert_eq!(a + Gf256::ZERO, a);
            assert_eq!(a - a, Gf256::ZERO);
            assert_eq!(-a, a);
        }
    }

    #[test]
    fn multiplication_identity_and_zero() {
        for a in all_elements() {
            assert_eq!(a * Gf256::ONE, a);
            assert_eq!(a * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in all_elements().skip(1) {
            let inv = a.inv();
            assert_eq!(a * inv, Gf256::ONE, "a={a}");
        }
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn inverting_zero_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn dividing_by_zero_panics() {
        let _ = Gf256::ONE / Gf256::ZERO;
    }

    #[test]
    fn division_inverts_multiplication_exhaustively() {
        for a in all_elements() {
            for b in all_elements().skip(1) {
                assert_eq!((a * b) / b, a);
            }
        }
    }

    #[test]
    fn multiplication_matches_carryless_reference() {
        // Slow reference multiplication: carry-less (polynomial) product
        // reduced by the primitive polynomial.
        fn reference_mul(a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            let mut a16 = a as u16;
            let mut b16 = b as u16;
            while b16 != 0 {
                if b16 & 1 != 0 {
                    acc ^= a16;
                }
                b16 >>= 1;
                a16 <<= 1;
                if a16 & 0x100 != 0 {
                    a16 ^= crate::PRIMITIVE_POLY;
                }
            }
            acc as u8
        }
        for a in 0u16..=255 {
            for b in 0u16..=255 {
                assert_eq!(
                    (Gf256(a as u8) * Gf256(b as u8)).value(),
                    reference_mul(a as u8, b as u8),
                    "a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in all_elements() {
            let mut acc = Gf256::ONE;
            for e in 0..520u64 {
                assert_eq!(a.pow(e), acc, "a={a} e={e}");
                acc *= a;
            }
        }
    }

    #[test]
    fn pow_zero_conventions() {
        assert_eq!(Gf256::ZERO.pow(0), Gf256::ONE);
        assert_eq!(Gf256::ZERO.pow(5), Gf256::ZERO);
        // 255 is the group order: a^255 == 1 for nonzero a, but 0^255 == 0.
        assert_eq!(Gf256::ZERO.pow(255), Gf256::ZERO);
        for a in all_elements().skip(1) {
            assert_eq!(a.pow(255), Gf256::ONE);
        }
    }

    #[test]
    fn log_exp_round_trip() {
        for a in all_elements().skip(1) {
            let log = a.log().unwrap();
            assert_eq!(Gf256::exp(log as usize), a);
        }
        assert_eq!(Gf256::ZERO.log(), None);
    }

    #[test]
    fn sum_and_product_iterators() {
        let elems = [Gf256(3), Gf256(7), Gf256(9)];
        let sum: Gf256 = elems.iter().copied().sum();
        assert_eq!(sum, Gf256(3 ^ 7 ^ 9));
        let product: Gf256 = elems.iter().copied().product();
        assert_eq!(product, Gf256(3) * Gf256(7) * Gf256(9));
    }

    #[test]
    fn generator_generates_whole_group() {
        let mut current = Gf256::ONE;
        let mut count = 0;
        loop {
            current *= Gf256(2);
            count += 1;
            if current == Gf256::ONE {
                break;
            }
        }
        assert_eq!(count, 255);
    }
}
