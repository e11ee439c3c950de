//! The simulation clock.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A round number (the simulation's discrete clock).
///
/// In the paper's configuration one round is one hour, chosen so that a
/// worst-case repair (~77 minutes on 2009 DSL) fits roughly in a round;
/// the engine itself attaches no unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Round(pub u64);

impl Round {
    /// Round zero.
    pub const ZERO: Round = Round(0);
    /// A round that never arrives (used for "never departs").
    pub const NEVER: Round = Round(u64::MAX);

    /// The raw round index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Rounds elapsed since `earlier` (saturating at zero).
    #[inline]
    pub fn since(self, earlier: Round) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The next round.
    #[inline]
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl Add<u64> for Round {
    type Output = Round;
    #[inline]
    fn add(self, rhs: u64) -> Round {
        Round(self.0.saturating_add(rhs))
    }
}

impl AddAssign<u64> for Round {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl Sub<Round> for Round {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Round) -> u64 {
        self.since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Round::NEVER + 5, Round::NEVER);
        assert_eq!(Round(3).since(Round(10)), 0);
        assert_eq!(Round(10) - Round(3), 7);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Round(1) < Round(2));
        assert_eq!(Round(5).to_string(), "r5");
        assert_eq!(Round(7).next(), Round(8));
    }
}
