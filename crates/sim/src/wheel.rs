//! A two-level hashed timing wheel for future-event scheduling.
//!
//! Departures and availability transitions are known in advance, so the
//! simulator schedules them instead of polling every peer every round.
//! The wheel gives O(1) insert and amortised O(1) pop; only events
//! beyond its direct horizon recirculate, at one touch per revolution.

use crate::clock::Round;

/// A two-level hashed timing wheel: an **inner** wheel with one bucket
/// per round for near events, and an **outer** wheel whose buckets each
/// span a whole inner lap for far events.
///
/// A single-level wheel touches every out-of-horizon event once per lap
/// (every `horizon` rounds): a peer lifetime of several simulated years
/// recirculates dozens of times before it fires. Here a far event sits
/// untouched in its outer bucket until the lap containing its due round
/// begins, is **cascaded** into the inner wheel once, and then fires
/// normally — so events within `inner × outer` rounds are touched at
/// most twice, and only events beyond that (≈30 simulated years at the
/// default geometry) ever recirculate, at one touch per `inner × outer`
/// rounds instead of one per `horizon`.
///
/// [`HierarchicalWheel::touches`] counts every time an event is
/// examined (fired, cascaded, or recirculated).
#[derive(Debug, Clone)]
pub struct HierarchicalWheel<T> {
    /// `inner[round % inner_len]` holds `(due, item)` with `due` inside
    /// the current inner lap.
    inner: Vec<Vec<(u64, T)>>,
    /// `outer[(due / inner_len) % outer_len]` holds far events.
    outer: Vec<Vec<(u64, T)>>,
    len: usize,
    now: u64,
    touches: u64,
}

impl<T> HierarchicalWheel<T> {
    /// Creates a wheel with `inner` one-round buckets and `outer`
    /// lap-spanning buckets (direct horizon `inner × outer` rounds).
    ///
    /// # Panics
    ///
    /// Panics if either level has zero buckets.
    pub fn new(inner: usize, outer: usize) -> Self {
        assert!(inner > 0 && outer > 0, "wheel levels must be positive");
        HierarchicalWheel {
            inner: (0..inner).map(|_| Vec::new()).collect(),
            outer: (0..outer).map(|_| Vec::new()).collect(),
            len: 0,
            now: 0,
            touches: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative count of event examinations (fires, cascades and
    /// recirculations) — the cost metric the hierarchy minimises, which
    /// the touch-count tests bound and the benchmark's
    /// `sim.wheel.touches_per_entry` row reports.
    pub fn touches(&self) -> u64 {
        self.touches
    }

    /// Schedules `item` at `due`; [`Round::NEVER`] is silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if `due` is before the wheel's current round.
    pub fn schedule(&mut self, due: Round, item: T) {
        if due == Round::NEVER {
            return;
        }
        let due = due.index();
        assert!(
            due >= self.now,
            "cannot schedule into the past (due r{due}, now r{})",
            self.now
        );
        let h1 = self.inner.len() as u64;
        self.len += 1;
        if due - self.now < h1 {
            let idx = (due % h1) as usize;
            self.inner[idx].push((due, item));
        } else {
            let idx = ((due / h1) % self.outer.len() as u64) as usize;
            self.outer[idx].push((due, item));
        }
    }

    /// Advances to `now`, firing every event due at or before it. Must
    /// be called with non-decreasing rounds; advancing by a gap of `g`
    /// rounds costs O(g) bucket visits.
    pub fn advance(&mut self, now: Round, mut fire: impl FnMut(T)) {
        debug_assert!(now.index() >= self.now, "wheel moved backwards");
        let h1 = self.inner.len() as u64;
        let from = self.now;
        for round in from..=now.index() {
            // Entering a new inner lap: cascade the outer bucket whose
            // window starts here.
            if round % h1 == 0 && (round > from || round == 0) {
                self.cascade(round);
            }
            self.fire_inner(round, &mut fire);
            self.now = round;
        }
    }

    /// Moves the events of the outer bucket for the lap starting at
    /// `round` into the inner wheel; events for a later revolution of
    /// the outer wheel recirculate in place.
    fn cascade(&mut self, round: u64) {
        let h1 = self.inner.len() as u64;
        let idx = ((round / h1) % self.outer.len() as u64) as usize;
        let bucket = &mut self.outer[idx];
        let mut i = 0;
        while i < bucket.len() {
            self.touches += 1;
            if bucket[i].0 < round + h1 {
                let (due, item) = bucket.swap_remove(i);
                debug_assert!(due >= round, "outer event cascaded late");
                self.inner[(due % h1) as usize].push((due, item));
            } else {
                i += 1; // a later revolution: one touch per outer lap
            }
        }
    }

    fn fire_inner(&mut self, round: u64, fire: &mut impl FnMut(T)) {
        let h1 = self.inner.len() as u64;
        let bucket = &mut self.inner[(round % h1) as usize];
        let mut i = 0;
        while i < bucket.len() {
            self.touches += 1;
            if bucket[i].0 <= round {
                let (_, item) = bucket.swap_remove(i);
                self.len -= 1;
                fire(item);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_fires_events_at_their_round() {
        let mut wheel: HierarchicalWheel<u64> = HierarchicalWheel::new(8, 8);
        let dues = [0u64, 1, 3, 7, 8, 9, 15, 40, 63, 64, 200];
        for &d in &dues {
            wheel.schedule(Round(d), d);
        }
        assert_eq!(wheel.len(), dues.len());
        let mut fired = Vec::new();
        for r in 0..=200 {
            wheel.advance(Round(r), |item| {
                assert_eq!(item, r, "event fired at wrong round");
                fired.push(item);
            });
        }
        fired.sort_unstable();
        let mut expected = dues.to_vec();
        expected.sort_unstable();
        assert_eq!(fired, expected);
        assert!(wheel.is_empty());
    }

    #[test]
    fn hierarchical_never_is_dropped_and_past_panics() {
        let mut wheel: HierarchicalWheel<u32> = HierarchicalWheel::new(4, 4);
        wheel.schedule(Round::NEVER, 1);
        assert!(wheel.is_empty());
        wheel.advance(Round(5), |_| {});
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wheel.schedule(Round(3), 1)));
        assert!(r.is_err(), "scheduling into the past must panic");
    }

    #[test]
    fn hierarchical_schedule_at_current_round_fires_on_readvance() {
        let mut wheel: HierarchicalWheel<u32> = HierarchicalWheel::new(4, 4);
        wheel.advance(Round(2), |_| {});
        wheel.schedule(Round(2), 7);
        let mut fired = Vec::new();
        wheel.advance(Round(2), |item| fired.push(item));
        assert_eq!(fired, vec![7]);
    }

    #[test]
    fn advancing_with_gaps_fires_skipped_events() {
        // The direct horizon is 16 rounds, so the second gap crosses
        // inner laps and a whole outer revolution with events pending.
        let mut wheel: HierarchicalWheel<u32> = HierarchicalWheel::new(4, 4);
        for r in 1..=40 {
            wheel.schedule(Round(r), r as u32);
        }
        let mut fired = Vec::new();
        wheel.advance(Round(10), |item| fired.push(item));
        assert_eq!(fired, (1..=10).collect::<Vec<u32>>());
        let mut rest = Vec::new();
        wheel.advance(Round(40), |item| rest.push(item));
        assert_eq!(rest, (11..=40).collect::<Vec<u32>>());
        assert!(wheel.is_empty());
    }

    #[test]
    fn hierarchical_cuts_touches_for_far_events() {
        // A multi-year lifetime (50k rounds out) recirculates ~24 times
        // through a flat 2048-bucket wheel but is touched at most twice
        // by the hierarchy (one cascade + one fire).
        const DUE: u64 = 50_000;
        let flat_touches = DUE / 2048 + 1;

        let mut hier: HierarchicalWheel<u32> = HierarchicalWheel::new(512, 512);
        hier.schedule(Round(DUE), 1);
        let mut fired = 0;
        for r in 0..=DUE {
            hier.advance(Round(r), |_| fired += 1);
        }
        assert_eq!(fired, 1);
        assert!(
            hier.touches() <= 2,
            "hierarchical wheel touched a far event {} times (flat: {flat_touches})",
            hier.touches()
        );
        assert!(hier.touches() < flat_touches);
    }

    #[test]
    fn hierarchical_stress_random_order_matches_flat() {
        use rand::Rng;
        let mut rng = crate::rng::sim_rng(99);
        let mut wheel: HierarchicalWheel<u64> = HierarchicalWheel::new(32, 16);
        let mut expected = vec![0u32; 3000];
        for _ in 0..10_000 {
            let due = rng.gen_range(0..3000u64);
            wheel.schedule(Round(due), due);
            expected[due as usize] += 1;
        }
        let mut got = vec![0u32; 3000];
        for r in 0..3000 {
            wheel.advance(Round(r), |item| {
                assert_eq!(item, r, "event fired at wrong round");
                got[item as usize] += 1;
            });
        }
        assert_eq!(got, expected);
        assert!(wheel.is_empty());
    }

    #[test]
    fn hierarchical_beyond_direct_horizon_recirculates_correctly() {
        let mut wheel: HierarchicalWheel<u64> = HierarchicalWheel::new(4, 4);
        // Direct horizon is 16 rounds; 35 needs one outer revolution.
        wheel.schedule(Round(35), 35);
        wheel.schedule(Round(2), 2);
        let mut fired = Vec::new();
        for r in 0..=40 {
            wheel.advance(Round(r), |item| fired.push((r, item)));
        }
        assert_eq!(fired, vec![(2, 2), (35, 35)]);
    }
}
