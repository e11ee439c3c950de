//! Deterministic round-based simulation engine.
//!
//! The paper evaluates its protocol on PeerSim, a round-based peer-to-peer
//! simulator: "in a round, each peer is given the opportunity to execute
//! some code …; execution is sequential … but the order of peers is chosen
//! randomly at each round" (§3.1). This crate is that execution model in
//! Rust:
//!
//! * [`Engine`] drives a [`World`] one round at a time, shuffling the
//!   activation order each round with a seeded RNG, so whole simulations
//!   are reproducible from a single `u64` seed.
//! * [`Round`] is the simulation clock (1 round = 1 hour in the paper's
//!   configuration; the engine itself is unit-agnostic).
//! * [`HierarchicalWheel`] is an O(1) future-event scheduler used for
//!   departures and availability transitions.
//! * [`rng`] has seed-derivation helpers so that sub-streams (per peer,
//!   per experiment arm) are independent but reproducible.
//! * [`WorkerPool`] runs a round's stages on parked threads, as wide as
//!   [`ExecPolicy`]'s width rule allows.
//! * [`prefetch()`] hints bytes about to be read into the cache.

pub mod arena;
pub mod clock;
pub mod engine;
pub mod exec;
mod place;
mod prefetch;
pub mod rng;
pub mod wheel;

pub use arena::BufPool;
pub use clock::Round;
pub use engine::{Engine, RoundReport, World};
pub use exec::{ExecPolicy, StageWork, WorkerPool};
pub use prefetch::prefetch;
pub use rng::{derive_seed, sim_rng, unit_draw, SimRng};
pub use wheel::HierarchicalWheel;
