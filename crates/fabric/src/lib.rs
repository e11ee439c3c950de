#![deny(missing_docs)]

//! # peerback-fabric — the simulated world bound to a real data plane
//!
//! The paper's §3.2 simulator decides *placements* (which peer hosts
//! which erasure-coded block); the byte-level pipeline (archive →
//! encrypt → Reed–Solomon → wire) moves *real bytes*. This crate
//! closes the loop: every simulated peer gets a real block store, and
//! every placement, drop, repair and loss the simulator decides is
//! replayed against actual shard bytes.
//!
//! Three pieces compose the subsystem:
//!
//! * **The transfer path** ([`frame`], [`store`]): shards travel as
//!   [`BlockFrame`]s over the strict wire codec, sealed with their
//!   payload's [`block_sum`] and header, and land in per-host
//!   [`BlockStore`]s, which keep that sum as the block's at-rest
//!   checksum; damage of any kind surfaces as a typed error, never a
//!   panic or a silent success.
//! * **The fault plane** ([`faults`]): seeded, per-transfer corruption,
//!   truncation, link flaps (scaled by the host's churn-profile
//!   availability) and duplicate delivery, plus at-rest bitrot.
//! * **The auditor** ([`audit`]): each round it derives restorability
//!   twice — once from the simulator's bookkeeping, once from `k`
//!   intact stored shards, each checked against its slot's sum in the
//!   owner's code word — and the two halves must agree exactly whenever
//!   faults are off. Loss verifications and flash restores run the full
//!   [`RestorePipeline`](peerback_core::RestorePipeline).
//!
//! ```
//! use peerback_core::{MaintenancePolicy, SimConfig};
//! use peerback_fabric::{run_fabric, FabricConfig, FaultProfile};
//!
//! let mut cfg = SimConfig::paper(48, 120, 7);
//! cfg.k = 4;
//! cfg.m = 4;
//! cfg.quota = 24;
//! cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
//!
//! // Faults off: byte-level restorability must equal the simulator's
//! // prediction for every archive, every round.
//! let report = run_fabric(cfg, FabricConfig::default()).unwrap();
//! assert_eq!(report.audit.mismatches, 0);
//! assert!(report.stats.transfers_delivered > 0);
//!
//! // Faults on: divergence is the measurement, not an error.
//! let mut cfg = SimConfig::paper(48, 120, 7);
//! cfg.k = 4;
//! cfg.m = 4;
//! cfg.quota = 24;
//! cfg.maintenance = MaintenancePolicy::Reactive { threshold: 5 };
//! let faulty = FabricConfig {
//!     faults: FaultProfile::uniform(0.05),
//!     ..FabricConfig::default()
//! };
//! let report = run_fabric(cfg, faulty).unwrap();
//! assert_eq!(report.audit.mismatches, 0);
//! assert!(report.losses.iter().all(|l| l.intact_shards < l.k));
//! ```

pub mod audit;
mod fabric;
pub mod faults;
pub mod frame;
mod profile;
pub mod store;

pub use audit::{AuditReport, LossRecord};
pub use fabric::{
    restore_percentiles, run_fabric, AdversaryConfig, AdversaryRole, BlockSums, Fabric,
    FabricConfig, FabricReport, FabricStats, ReplayWork, ScheduleConfig,
};
pub use faults::{FaultKind, FaultPlane, FaultProfile, Transit};
pub use frame::{block_sum, checksum, BlockFrame, FrameError, FrameRef};
pub use profile::ReplayProfile;
pub use store::{BlockStore, IngestError, StoredBlock};
