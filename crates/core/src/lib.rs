#![deny(missing_docs)]

//! Lifetime-aware peer-to-peer backup: the core protocol crate.
//!
//! This crate implements the system of *"Optimizing peer-to-peer backup
//! using lifetime estimations"* (Bernard & Le Fessant, 2009): a
//! decentralised backup network in which peers exchange free disk space,
//! store erasure-coded archives on `n` partners each, and — the paper's
//! contribution — select those partners by **age**, because measured
//! peer lifetimes are heavy-tailed and age predicts remaining lifetime.
//!
//! The crate has two halves:
//!
//! * **The simulator** ([`world`], [`runner`], [`config`], [`metrics`])
//!   reproduces the paper's evaluation: a round-based network of peers
//!   with hidden behaviour profiles, the acceptance function, threshold
//!   repair, observers, and the per-age-category metrics behind Figures
//!   1–4.
//! * **The data plane** ([`archive`], [`backup`], [`restore`],
//!   [`master`], [`crypt`], [`wire`]) is the byte-level backup pipeline
//!   a real deployment would run: archive building, Reed–Solomon
//!   encoding via `peerback-erasure`, optional encryption, master-block
//!   serialisation, and restore-from-any-k.
//!
//! # Quickstart: simulate the paper's focus configuration (scaled down)
//!
//! ```
//! use peerback_core::{run_simulation, AgeCategory, SimConfig};
//!
//! let mut cfg = SimConfig::paper(300, 500, 42); // 300 peers, 500 rounds
//! cfg.k = 16;
//! cfg.m = 16;
//! cfg.quota = 96;
//! cfg = cfg.with_threshold(20);
//! let metrics = run_simulation(cfg);
//! assert!(metrics.diag.joins_completed > 0);
//! let _ = metrics.repair_rate_per_1000(AgeCategory::Newcomer);
//! ```

pub mod accept;
pub mod age;
pub mod archive;
pub mod backup;
pub mod config;
pub mod crypt;
pub mod master;
pub mod metrics;
pub mod observer;
pub mod restore;
pub mod runner;
pub mod select;
pub mod wire;
pub mod world;

pub use accept::{acceptance_probability, accepts, PAPER_CLAMP_ROUNDS};
pub use age::AgeCategory;
pub use archive::{Archive, ArchiveBuilder, ArchiveId};
pub use backup::{BackupPipeline, PlacedBlock, PlacementPlan};
pub use config::{AdaptiveRedundancy, FailureDomainConfig, MaintenancePolicy, SimConfig};
pub use crypt::{Cipher, NoCipher, XorKeystream};
pub use master::{ArchiveDescriptor, MasterBlock};
pub use metrics::{CategorySample, Diagnostics, Metrics, ObserverSeries};
pub use observer::ObserverSpec;
pub use peerback_estimate::EstimatorReport;
pub use restore::{RestoreError, RestorePipeline};
pub use runner::{run_simulation, run_sweep, run_sweep_with_threads};
pub use select::{Candidate, SelectionStrategy};
pub use world::{
    BackupWorld, MemoryBreakdown, PeerId, PlacementWork, RedundancyWork, RoundProfile, StageWork,
    WheelWork, WorldEvent,
};
