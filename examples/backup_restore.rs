//! The full data plane, end to end: collect files into archives,
//! encrypt, erasure-code, record a master block, lose more than half the
//! blocks, repair, and restore every byte.
//!
//! ```text
//! cargo run --release --example backup_restore
//! ```

use peerback::core::archive::ArchiveBuilder;
use peerback::core::{Archive, BackupPipeline, MasterBlock, RestorePipeline, XorKeystream};
use peerback::ReedSolomon;

fn main() {
    // 1. Collect "files" into size-capped archives (paper §2.2.1 uses
    //    128 MB archives; we use 4 KB ones so the demo is instant).
    let mut builder = ArchiveBuilder::new(4 * 1024);
    let mut archives = Vec::new();
    for i in 0..8 {
        let name = format!("photos/trip/{i:03}.jpg");
        let data: Vec<u8> = (0..1500).map(|j| ((i * 131 + j * 7) % 251) as u8).collect();
        archives.extend(builder.push(name, data));
    }
    archives.extend(builder.finish());
    println!("built {} archives from 8 files", archives.len());

    // 2. Encode each archive into k + m blocks and assign partners.
    //    (The paper's geometry is k = m = 128; we scale down to 8 + 8.)
    let rs = ReedSolomon::new(8, 8).unwrap();
    let session_key = 0x5eed_2009;
    let pipeline = BackupPipeline::new(rs, XorKeystream::new(session_key), session_key);

    let mut master = MasterBlock {
        owner: 1,
        created_at: 0,
        version: 1,
        archives: Vec::new(),
    };
    let mut network: Vec<Vec<(usize, Vec<u8>)>> = Vec::new(); // per-archive surviving blocks
    for archive in &archives {
        let partners: Vec<u64> = (100..116).collect(); // 16 distinct partners
        let plan = pipeline.backup(archive, &partners).unwrap();
        println!(
            "archive {}: {} blocks of {} bytes -> partners {:?}..",
            archive.id,
            plan.blocks.len(),
            plan.blocks[0].bytes.len(),
            &partners[..3]
        );
        master.archives.push(plan.descriptor.clone());
        network.push(
            plan.blocks
                .iter()
                .map(|b| (b.shard_index as usize, b.bytes.clone()))
                .collect(),
        );
    }

    // 3. The master block travels through the network as bytes.
    let wire = master.to_bytes();
    println!("master block serialised: {} bytes", wire.len());
    let recovered_master = MasterBlock::from_bytes(&wire).unwrap();
    assert_eq!(recovered_master, master);

    // 4. Disaster strikes: every archive loses half its blocks
    //    (m = 8 of 16 — the worst survivable case).
    for blocks in &mut network {
        blocks.retain(|(index, _)| index % 2 == 0);
        assert_eq!(blocks.len(), 8);
    }
    println!("dropped every odd-indexed block (8 of 16 per archive)");

    // 5. Repair: regenerate the missing blocks from the survivors
    //    (paper §2.2.3: download k, decode, re-encode the d missing).
    let missing: Vec<usize> = (0..16).filter(|i| i % 2 == 1).collect();
    let new_partners: Vec<u64> = (200..208).collect();
    for (archive, blocks) in archives.iter().zip(&mut network) {
        let regenerated = pipeline
            .regenerate(blocks, &missing, &new_partners)
            .unwrap();
        blocks.extend(
            regenerated
                .iter()
                .map(|b| (b.shard_index as usize, b.bytes.clone())),
        );
        println!(
            "archive {}: repaired {} blocks onto new partners",
            archive.id,
            regenerated.len()
        );
    }

    // 6. Restore from the master block and verify bit-exactness.
    let restore = RestorePipeline::new(XorKeystream::new(session_key));
    for (descriptor, blocks) in recovered_master.restore_order().iter().zip(&network) {
        let restored: Archive = restore.restore(descriptor, blocks).unwrap();
        let original = archives
            .iter()
            .find(|a| a.id == descriptor.archive_id)
            .unwrap();
        assert_eq!(&restored, original);
        println!(
            "archive {} restored: {} entries, {} payload bytes — verified",
            restored.id,
            restored.entries().len(),
            restored.payload_len()
        );
    }
    println!("\nall archives survived the loss of 50% of their blocks.");
}
