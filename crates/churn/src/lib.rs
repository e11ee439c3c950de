//! Peer lifetime and availability modelling.
//!
//! Peer-to-peer measurement studies cited by Bernard & Le Fessant (2009)
//! — Bustamante & Qiao \[5\], Maymounkov & Mazières \[16\], Tian & Dai \[23\] —
//! established two facts this crate encodes:
//!
//! 1. **Lifetimes are heavy-tailed** (Pareto-like): most peers leave
//!    quickly, a few stay for years.
//! 2. **Fidelity**: expected *remaining* lifetime grows with the time a
//!    peer has already spent in the system, which makes *age* a usable
//!    stability estimator.
//!
//! The crate provides:
//!
//! * [`dist`] — the lifetime laws [`LifetimeSpec`] samples (Pareto,
//!   exponential, uniform) with inverse-CDF sampling, moments and
//!   quantiles, implemented from first principles (no external stats
//!   dependency).
//! * [`profile`] — the paper's §4.1.1 peer-profile table
//!   (Durable/Stable/Unstable/Erratic) and weighted profile mixes.
//! * [`session`] — the on/off availability renewal process realising a
//!   profile's long-run availability.
//!
//! Estimating a peer's remaining lifetime from these observations is the
//! simulator's job: `peerback-core` ranks candidates through its
//! `SelectionStrategy` (the paper's age rule and its variants), backed by
//! the online survival model in `peerback-estimate`.

pub mod dist;
pub mod profile;
pub mod session;

pub use dist::{Exponential, LifetimeDist, Pareto, UniformRange};
pub use profile::{paper_profiles, LifetimeSpec, Profile, ProfileId, ProfileMix};
pub use session::SessionSampler;
