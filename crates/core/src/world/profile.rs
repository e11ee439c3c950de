//! The round profile: where a round's wall time goes, stage by stage.
//!
//! Every `round_start` reads the clock once per stage boundary and adds
//! the lap to the stage's accumulator; the two-phase commit does the
//! same for its sub-stages. A clock read costs tens of nanoseconds
//! against stages of microseconds to milliseconds, so the profile is
//! always on. It is execution telemetry — wall times vary from run to
//! run — so it lives beside [`PlacementWork`](super::PlacementWork),
//! never in [`Metrics`](crate::metrics::Metrics) or a stable report.
//!
//! Beside the wall times, every dispatched stage records a
//! [`StageWork`]: the items its width rule was given, its workers'
//! summed busy time and how often it ran inline or woke the pool.
//! Busy time over items is the stage's measured cost per item — the
//! figure the width rule's constants were read from.

use std::time::Duration;

use peerback_sim::StageWork;

/// Accumulated wall time of each stage of the staged round (see
/// ARCHITECTURE.md "The round"), read through
/// [`BackupWorld::round_profile`](super::BackupWorld::round_profile).
///
/// The fields from `ramp` to `commit` partition `round_start`; the
/// `commit_*` fields break `commit` down. The `*_work` fields count the
/// dispatched stages inside those rows.
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
    /// Population ramp; items are the peers initialised.
    pub ramp_work: StageWork,
    /// Shard-local events; always as wide as the pool, so it is given
    /// no items (its events are only known once the wheels fire).
    pub local_events_work: StageWork,
    /// The deliver waves; items are the messages applied.
    pub deliver_work: StageWork,
    /// The fill and gather stages of redundancy scoring; items are the
    /// peer slots each one scans.
    pub redundancy_work: StageWork,
    /// Proposals; items are the actors.
    pub proposals_work: StageWork,
    /// The wave-A grant stage; items are the claims.
    pub grant_work: StageWork,
    /// Wave B's claim staging (items: the wave-A denials, which bound
    /// its claims) and grant stage (items: the claims).
    pub wave_b_work: StageWork,
    /// The owner stage; items are the proposals.
    pub owner_work: StageWork,
    /// The apply stage; items are the messages applied.
    pub apply_work: StageWork,
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

    /// `(name, work)` for every dispatched stage, named after the row
    /// of [`RoundProfile::rows`] whose wall time it falls in.
    pub fn work_rows(&self) -> [(&'static str, StageWork); 9] {
        [
            ("ramp", self.ramp_work),
            ("local_events", self.local_events_work),
            ("deliver", self.deliver_work),
            ("redundancy", self.redundancy_work),
            ("proposals", self.proposals_work),
            ("commit.grant", self.grant_work),
            ("commit.wave_b", self.wave_b_work),
            ("commit.owner", self.owner_work),
            ("commit.apply", self.apply_work),
        ]
    }
}
