//! # peerback — lifetime-aware peer-to-peer backup
//!
//! A Rust reproduction of *"Optimizing peer-to-peer backup using lifetime
//! estimations"* (Samuel Bernard & Fabrice Le Fessant, Damap/EDBT
//! workshops 2009): a decentralised backup system in which peers trade
//! free disk space, archives are Reed–Solomon-coded across `n = k + m`
//! partners, and partners are chosen by **age** — because peer lifetimes
//! are heavy-tailed, so the longer a peer has been around, the longer it
//! will stay.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`gf256`] | `peerback-gf256` | GF(2^8) field arithmetic |
//! | [`erasure`] | `peerback-erasure` | systematic Reed–Solomon codec |
//! | [`churn`] | `peerback-churn` | lifetime distributions, profiles, availability sessions |
//! | [`sim`] | `peerback-sim` | deterministic round-based engine |
//! | [`net`] | `peerback-net` | §2.2.4 bandwidth/repair-cost model |
//! | [`core`] | `peerback-core` | the backup protocol + simulator + data plane |
//! | [`fabric`] | `peerback-fabric` | simulator bound to the real data plane, fault injection, restorability audits |
//! | [`analysis`] | `peerback-analysis` | stats, tables, terminal plots |
//!
//! The most common entry points are re-exported at the top level.
//!
//! ## Simulate the paper's system
//!
//! ```
//! use peerback::{run_simulation, AgeCategory, SimConfig};
//!
//! // A scaled-down §4.1 configuration (papers' full scale: 25k x 50k).
//! let mut cfg = SimConfig::paper(400, 600, 7);
//! cfg.k = 16;
//! cfg.m = 16;
//! cfg.quota = 96;
//! cfg = cfg.with_threshold(20);
//!
//! let metrics = run_simulation(cfg);
//! assert!(metrics.diag.joins_completed > 0);
//! println!(
//!     "newcomer repair rate: {:?} per 1000 peers per round",
//!     metrics.repair_rate_per_1000(AgeCategory::Newcomer)
//! );
//! ```
//!
//! ## Back up and restore real bytes
//!
//! ```
//! use peerback::core::{Archive, BackupPipeline, RestorePipeline, XorKeystream};
//! use peerback::erasure::ReedSolomon;
//! use peerback::core::archive::Entry;
//! use bytes::Bytes;
//!
//! let archive = Archive::from_entries(0, false, vec![Entry {
//!     name: "notes.txt".into(),
//!     data: Bytes::from_static(b"don't lose this"),
//! }]);
//!
//! let rs = ReedSolomon::new(4, 2).unwrap();
//! let pipeline = BackupPipeline::new(rs, XorKeystream::new(42), 42);
//! let partners: Vec<u64> = (100..106).collect();
//! let plan = pipeline.backup(&archive, &partners).unwrap();
//!
//! // Any k = 4 of the 6 blocks restore the archive.
//! let blocks: Vec<(usize, Vec<u8>)> = plan.blocks[1..5]
//!     .iter()
//!     .map(|b| (b.shard_index as usize, b.bytes.clone()))
//!     .collect();
//! let restored = RestorePipeline::new(XorKeystream::new(42))
//!     .restore(&plan.descriptor, &blocks)
//!     .unwrap();
//! assert_eq!(restored, archive);
//! ```

pub use peerback_analysis as analysis;
pub use peerback_churn as churn;
pub use peerback_core as core;
pub use peerback_erasure as erasure;
pub use peerback_fabric as fabric;
pub use peerback_gf256 as gf256;
pub use peerback_net as net;
pub use peerback_sim as sim;

pub use peerback_core::{
    run_simulation, run_sweep, run_sweep_with_threads, AgeCategory, BackupWorld, MaintenancePolicy,
    Metrics, ObserverSpec, SelectionStrategy, SimConfig,
};
pub use peerback_erasure::ReedSolomon;
pub use peerback_fabric::{run_fabric, FabricConfig, FabricReport, FaultProfile};
pub use peerback_net::{ArchiveGeometry, LinkModel, RepairCostModel};
