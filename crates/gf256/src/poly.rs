//! Dense polynomials over GF(2^8), compiled only into this crate's
//! tests: nothing in the system evaluates or interpolates a polynomial
//! (the codec works with matrices).

use core::fmt;

use crate::Gf256;

/// A polynomial with coefficients in GF(2^8), stored little-endian
/// (`coeffs[i]` is the coefficient of `x^i`). The zero polynomial is the
/// empty coefficient vector; all other representations are normalised so
/// the leading coefficient is nonzero.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Poly {
    coeffs: Vec<Gf256>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly {
            coeffs: vec![Gf256::ONE],
        }
    }

    /// Builds a polynomial from little-endian coefficients, trimming
    /// leading zeros.
    pub fn from_coeffs(coeffs: Vec<Gf256>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// The monic polynomial `prod (x - r)` over the given roots.
    pub fn from_roots(roots: &[Gf256]) -> Self {
        let mut p = Poly::one();
        for &r in roots {
            // (x - r) == (x + r) in characteristic 2.
            p = p.mul(&Poly::from_coeffs(vec![r, Gf256::ONE]));
        }
        p
    }

    fn normalize(&mut self) {
        while self.coeffs.last().is_some_and(|c| c.is_zero()) {
            self.coeffs.pop();
        }
    }

    /// Little-endian coefficient view.
    pub fn coeffs(&self) -> &[Gf256] {
        &self.coeffs
    }

    /// Degree of the polynomial; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// True if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    pub fn eval(&self, x: Gf256) -> Gf256 {
        let mut acc = Gf256::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Polynomial addition (== subtraction in characteristic 2).
    pub fn add(&self, other: &Poly) -> Poly {
        let (longer, shorter) = if self.coeffs.len() >= other.coeffs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut coeffs = longer.coeffs.clone();
        for (c, &s) in coeffs.iter_mut().zip(&shorter.coeffs) {
            *c += s;
        }
        Poly::from_coeffs(coeffs)
    }

    /// Polynomial multiplication (schoolbook; degrees here are tiny).
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut coeffs = vec![Gf256::ZERO; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a.is_zero() {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Poly::from_coeffs(coeffs)
    }

    /// Multiplies every coefficient by a scalar.
    pub fn scale(&self, c: Gf256) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&a| a * c).collect())
    }

    /// Euclidean division: returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        if self.coeffs.len() < divisor.coeffs.len() {
            return (Poly::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let out_len = rem.len() - divisor.coeffs.len() + 1;
        let mut quot = vec![Gf256::ZERO; out_len];
        let lead_inv = divisor.coeffs.last().unwrap().inv();
        for i in (0..out_len).rev() {
            let factor = rem[i + divisor.coeffs.len() - 1] * lead_inv;
            quot[i] = factor;
            if factor.is_zero() {
                continue;
            }
            for (j, &d) in divisor.coeffs.iter().enumerate() {
                rem[i + j] -= factor * d;
            }
        }
        (Poly::from_coeffs(quot), Poly::from_coeffs(rem))
    }

    /// Lagrange interpolation through `(x, y)` points with distinct `x`.
    ///
    /// This is the mathematical core of Reed–Solomon decoding and serves as
    /// the oracle the codec tests check against.
    ///
    /// # Panics
    ///
    /// Panics if two points share an `x` coordinate.
    pub fn interpolate(points: &[(Gf256, Gf256)]) -> Poly {
        let mut acc = Poly::zero();
        for (i, &(xi, yi)) in points.iter().enumerate() {
            let mut basis = Poly::one();
            let mut denom = Gf256::ONE;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if i == j {
                    continue;
                }
                assert!(xi != xj, "interpolation points must have distinct x");
                basis = basis.mul(&Poly::from_coeffs(vec![xj, Gf256::ONE]));
                denom *= xi - xj;
            }
            acc = acc.add(&basis.scale(yi / denom));
        }
        acc
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "Poly(0)");
        }
        write!(f, "Poly(")?;
        for (i, c) in self.coeffs.iter().enumerate().rev() {
            if c.is_zero() {
                continue;
            }
            write!(f, "{c}·x^{i} ")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(coeffs: &[u8]) -> Poly {
        Poly::from_coeffs(coeffs.iter().map(|&c| Gf256(c)).collect())
    }

    #[test]
    fn normalisation_trims_leading_zeros() {
        let q = p(&[1, 2, 0, 0]);
        assert_eq!(q.degree(), Some(1));
        assert_eq!(q.coeffs().len(), 2);
        assert!(p(&[0, 0]).is_zero());
    }

    #[test]
    fn eval_horner_matches_naive() {
        let q = p(&[7, 3, 1, 9]);
        for x in 0u16..=255 {
            let x = Gf256(x as u8);
            let naive = Gf256(7) + Gf256(3) * x + Gf256(1) * x.pow(2) + Gf256(9) * x.pow(3);
            assert_eq!(q.eval(x), naive);
        }
    }

    #[test]
    fn addition_is_self_inverse() {
        let q = p(&[1, 2, 3]);
        assert!(q.add(&q).is_zero());
        assert_eq!(q.add(&Poly::zero()), q);
    }

    #[test]
    fn multiplication_distributes_over_addition() {
        let a = p(&[1, 5]);
        let b = p(&[3, 0, 2]);
        let c = p(&[9, 9, 1, 4]);
        let left = a.mul(&b.add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert_eq!(left, right);
    }

    #[test]
    fn division_round_trips() {
        let a = p(&[1, 5, 0, 3, 8]);
        let b = p(&[3, 1, 7]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.degree() < b.degree());
    }

    #[test]
    fn division_by_larger_degree_gives_zero_quotient() {
        let a = p(&[1, 2]);
        let b = p(&[1, 2, 3]);
        let (q, r) = a.div_rem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = p(&[1, 2]).div_rem(&Poly::zero());
    }

    #[test]
    fn from_roots_vanishes_exactly_on_roots() {
        let roots = [Gf256(3), Gf256(17), Gf256(200)];
        let q = Poly::from_roots(&roots);
        assert_eq!(q.degree(), Some(3));
        for x in 0u16..=255 {
            let x = Gf256(x as u8);
            let vanishes = q.eval(x).is_zero();
            assert_eq!(vanishes, roots.contains(&x), "x={x}");
        }
    }

    #[test]
    fn interpolation_recovers_polynomial() {
        let q = p(&[12, 0, 5, 9]);
        let points: Vec<(Gf256, Gf256)> = (1u8..=4).map(|x| (Gf256(x), q.eval(Gf256(x)))).collect();
        assert_eq!(Poly::interpolate(&points), q);
    }

    #[test]
    #[should_panic(expected = "distinct x")]
    fn interpolation_rejects_duplicate_x() {
        let _ = Poly::interpolate(&[(Gf256(1), Gf256(2)), (Gf256(1), Gf256(3))]);
    }
}
