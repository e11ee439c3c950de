//! The round profile: where a round's wall time goes, stage by stage.
//!
//! Every `round_start` reads the clock once per stage boundary and adds
//! the lap to the stage's accumulator; the two-phase commit does the
//! same for its sub-stages. A clock read costs tens of nanoseconds
//! against stages of microseconds to milliseconds, so the profile is
//! always on. It is execution telemetry — wall times vary from run to
//! run — so it lives beside [`PlacementWork`](super::PlacementWork),
//! never in [`Metrics`](crate::metrics::Metrics) or a stable report.

use std::time::{Duration, Instant};

/// Accumulated wall time of each stage of the staged round (see
/// ARCHITECTURE.md "The round"), read through
/// [`BackupWorld::round_profile`](super::BackupWorld::round_profile).
///
/// The fields from `ramp` to `commit` partition `round_start`; the
/// `commit_*` fields break `commit` down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// `round_start` calls profiled.
    pub rounds: u64,
    /// Failure-domain schedule and population ramp.
    pub ramp: Duration,
    /// Shard-local events and teardown hop 1.
    pub local_events: Duration,
    /// Teardown hop 2: routing and applying the release/drop waves.
    pub deliver: Duration,
    /// The round's `PeerDeparted` announcements.
    pub flush_departed: Duration,
    /// Adaptive-redundancy scoring and its decisions.
    pub redundancy: Duration,
    /// Pending queues drained into sorted actor lists.
    pub drain_actors: Duration,
    /// The learned survival model's refresh.
    pub estimator_refresh: Duration,
    /// Candidate-pool proposals, each shard's wave-A claims staged in
    /// the same task.
    pub proposals: Duration,
    /// The whole two-phase commit.
    pub commit: Duration,
    /// The wave-A grant stage.
    pub commit_grant: Duration,
    /// Wave B: fallback claims staged and granted (nothing when wave A
    /// denied nothing).
    pub commit_wave_b: Duration,
    /// The owner-side protocol step.
    pub commit_owner: Duration,
    /// Routing and applying the owner step's releases.
    pub commit_apply: Duration,
}

impl RoundProfile {
    /// `(name, seconds)` for every stage, in pipeline order; the
    /// `commit.*` rows break down `commit`.
    pub fn rows(&self) -> [(&'static str, f64); 13] {
        [
            ("ramp", self.ramp),
            ("local_events", self.local_events),
            ("deliver", self.deliver),
            ("flush_departed", self.flush_departed),
            ("redundancy", self.redundancy),
            ("drain_actors", self.drain_actors),
            ("estimator_refresh", self.estimator_refresh),
            ("proposals", self.proposals),
            ("commit", self.commit),
            ("commit.grant", self.commit_grant),
            ("commit.wave_b", self.commit_wave_b),
            ("commit.owner", self.commit_owner),
            ("commit.apply", self.commit_apply),
        ]
        .map(|(name, d)| (name, d.as_secs_f64()))
    }
}

/// The time since `*clock`, restarting the clock at now.
pub(in crate::world) fn lap(clock: &mut Instant) -> Duration {
    let now = Instant::now();
    let elapsed = now - *clock;
    *clock = now;
    elapsed
}
