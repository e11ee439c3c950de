//! The replay profile: where the fabric's share of a round goes.
//!
//! Each lane reads the clock at its stage boundaries and adds the lap
//! to its own accumulator; the driver does the same around the event
//! partition, the lane dispatch and the merge. A clock read costs tens
//! of nanoseconds against stages of microseconds to milliseconds, so
//! the profile is always on. Wall times vary from run to run, so it is
//! execution telemetry beside [`ReplayWork`](crate::ReplayWork), never
//! part of [`FabricStats`](crate::FabricStats) or
//! [`FabricReport`](crate::FabricReport).

use std::time::{Duration, Instant};

/// Accumulated wall time of the lane replay, read through
/// [`Fabric::replay_profile`](crate::Fabric::replay_profile).
///
/// The lane rows are summed over lanes in lane order, so on a wide
/// round they add up to more than the dispatch's wall time.
/// `drain_ship` is part of `drain`; `decode` is part of whichever stage
/// ran the restore (events, drain or audit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayProfile {
    /// `round_end` calls profiled.
    pub rounds: u64,
    /// Lanes: due retries re-shipped or queued.
    pub retries: Duration,
    /// Lanes: the round's events replayed (and a flash-restore wave
    /// queued).
    pub events: Duration,
    /// Lanes: the transfer scheduler's drain.
    pub drain: Duration,
    /// Lanes: the shipments the drain completed.
    pub drain_ship: Duration,
    /// Lanes: scrubbing sweeps.
    pub scrub: Duration,
    /// Lanes: challenge sweeps.
    pub challenge: Duration,
    /// Lanes: audit passes.
    pub audit: Duration,
    /// Lanes: every survivor gather and restore decode — audits,
    /// episode starts, loss verifications, flash restores.
    pub decode: Duration,
    /// Driver: the round's events partitioned into the lane inboxes.
    pub partition: Duration,
    /// Driver: wall time of the lane dispatch, inline or wide.
    pub dispatch: Duration,
    /// Driver: the lanes' output merged and their integrity suspects
    /// handed to the world.
    pub merge: Duration,
}

impl ReplayProfile {
    /// `(name, seconds)` for every row: the lane stages in replay
    /// order (`drain.ship` breaking down `drain`), `decode`, then the
    /// driver's rows.
    pub fn rows(&self) -> [(&'static str, f64); 11] {
        [
            ("retries", self.retries),
            ("events", self.events),
            ("drain", self.drain),
            ("drain.ship", self.drain_ship),
            ("scrub", self.scrub),
            ("challenge", self.challenge),
            ("audit", self.audit),
            ("decode", self.decode),
            ("partition", self.partition),
            ("dispatch", self.dispatch),
            ("merge", self.merge),
        ]
        .map(|(name, d)| (name, d.as_secs_f64()))
    }

    /// Adds every row (and the round count) of `other` to this profile.
    pub fn accumulate(&mut self, other: &ReplayProfile) {
        self.rounds += other.rounds;
        self.retries += other.retries;
        self.events += other.events;
        self.drain += other.drain;
        self.drain_ship += other.drain_ship;
        self.scrub += other.scrub;
        self.challenge += other.challenge;
        self.audit += other.audit;
        self.decode += other.decode;
        self.partition += other.partition;
        self.dispatch += other.dispatch;
        self.merge += other.merge;
    }
}

/// The time since `*clock`, restarting the clock at now.
pub(crate) fn lap(clock: &mut Instant) -> Duration {
    let now = Instant::now();
    let elapsed = now - *clock;
    *clock = now;
    elapsed
}
