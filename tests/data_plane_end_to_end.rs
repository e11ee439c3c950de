//! Data-plane integration: archives survive encryption, coding, block
//! loss, repair and the master-block round trip — across geometries and
//! ciphers.

use peerback::core::archive::{ArchiveBuilder, Entry};
use peerback::core::{
    Archive, BackupPipeline, MasterBlock, NoCipher, RestorePipeline, XorKeystream,
};
use peerback::erasure::ErasureError;
use peerback::ReedSolomon;

fn sample_archive(id: u64, payload: usize) -> Archive {
    Archive::from_entries(
        id,
        false,
        vec![
            Entry {
                name: "a/b/c.dat".into(),
                data: (0..payload).map(|i| (i % 251) as u8).collect(),
            },
            Entry {
                name: "empty".into(),
                data: Vec::new().into(),
            },
        ],
    )
}

#[test]
fn backup_survives_maximum_tolerable_loss_for_many_geometries() {
    for (k, m) in [(2usize, 2usize), (4, 4), (8, 8), (16, 4), (3, 7)] {
        let rs = ReedSolomon::new(k, m).unwrap();
        let pipeline = BackupPipeline::new(rs, XorKeystream::new(1), 1);
        let archive = sample_archive(9, 1000);
        let partners: Vec<u64> = (0..(k + m) as u64).collect();
        let plan = pipeline.backup(&archive, &partners).unwrap();

        // Keep only k blocks — the worst survivable case — taking the
        // *last* k so parity shards are exercised.
        let survivors: Vec<(usize, Vec<u8>)> = plan
            .blocks
            .iter()
            .rev()
            .take(k)
            .map(|b| (b.shard_index as usize, b.bytes.clone()))
            .collect();

        let restored = RestorePipeline::new(XorKeystream::new(1))
            .restore(&plan.descriptor, &survivors)
            .unwrap();
        assert_eq!(restored, archive, "geometry k={k} m={m}");

        // One fewer shard must fail.
        let too_few = &survivors[..k - 1];
        assert!(matches!(
            RestorePipeline::new(XorKeystream::new(1)).restore(&plan.descriptor, too_few),
            Err(peerback::core::RestoreError::Erasure(
                ErasureError::NotEnoughShards { .. }
            ))
        ));
    }
}

#[test]
fn repair_then_restore_after_repeated_damage() {
    // Lose blocks, repair, lose different blocks, repair again, restore.
    let rs = ReedSolomon::new(6, 6).unwrap();
    let pipeline = BackupPipeline::new(rs, NoCipher, 0);
    let archive = sample_archive(3, 5000);
    let partners: Vec<u64> = (0..12).collect();
    let plan = pipeline.backup(&archive, &partners).unwrap();

    let mut blocks: Vec<(usize, Vec<u8>)> = plan
        .blocks
        .iter()
        .map(|b| (b.shard_index as usize, b.bytes.clone()))
        .collect();

    for wave in 0..3 {
        // Drop 6 pseudo-random blocks.
        let missing: Vec<usize> = (0..12).filter(|i| (i + wave) % 2 == 0).collect();
        blocks.retain(|(i, _)| !missing.contains(i));
        assert_eq!(blocks.len(), 6);

        let new_partners: Vec<u64> = (100 + wave as u64 * 10..106 + wave as u64 * 10).collect();
        let regenerated = pipeline
            .regenerate(&blocks, &missing, &new_partners)
            .unwrap();
        blocks.extend(
            regenerated
                .into_iter()
                .map(|b| (b.shard_index as usize, b.bytes)),
        );
        assert_eq!(blocks.len(), 12);
    }

    let restored = RestorePipeline::new(NoCipher)
        .restore(&plan.descriptor, &blocks)
        .unwrap();
    assert_eq!(restored, archive);
}

#[test]
fn master_block_round_trips_through_bytes_with_many_archives() {
    let rs = ReedSolomon::new(4, 2).unwrap();
    let pipeline = BackupPipeline::new(rs, XorKeystream::new(5), 5);
    let mut master = MasterBlock {
        owner: 77,
        created_at: 123,
        version: 9,
        archives: Vec::new(),
    };
    for id in 0..20 {
        let archive = sample_archive(id, 64 + id as usize * 17);
        let partners: Vec<u64> = (id * 10..id * 10 + 6).collect();
        let plan = pipeline.backup(&archive, &partners).unwrap();
        master.archives.push(plan.descriptor);
    }
    let bytes = master.to_bytes();
    let back = MasterBlock::from_bytes(&bytes).unwrap();
    assert_eq!(back, master);
    assert_eq!(back.restore_order().len(), 20);
}

#[test]
fn archive_builder_pipeline_round_trips_every_entry() {
    let mut builder = ArchiveBuilder::new(512);
    let mut archives = Vec::new();
    let mut originals = Vec::new();
    for i in 0..30usize {
        let name = format!("file-{i}");
        let data: Vec<u8> = (0..(i * 37) % 300).map(|j| (i + j) as u8).collect();
        originals.push((name.clone(), data.clone()));
        archives.extend(builder.push(name, data));
    }
    archives.extend(builder.finish());
    assert!(archives.len() > 1, "capacity should have split the stream");

    // Round-trip every archive through bytes; collect entries back.
    let mut recovered = Vec::new();
    for archive in &archives {
        let back = Archive::from_bytes(&archive.to_bytes()).unwrap();
        for e in back.entries() {
            recovered.push((e.name.clone(), e.data.to_vec()));
        }
    }
    assert_eq!(recovered, originals, "no entry lost or reordered");
}

#[test]
fn wrong_cipher_key_never_yields_wrong_data_silently() {
    let rs = ReedSolomon::new(4, 2).unwrap();
    let pipeline = BackupPipeline::new(rs, XorKeystream::new(1000), 1000);
    let archive = sample_archive(1, 2000);
    let partners: Vec<u64> = (0..6).collect();
    let plan = pipeline.backup(&archive, &partners).unwrap();
    let blocks: Vec<(usize, Vec<u8>)> = plan
        .blocks
        .iter()
        .take(4)
        .map(|b| (b.shard_index as usize, b.bytes.clone()))
        .collect();

    for wrong_key in [0u64, 999, 1001, u64::MAX] {
        match RestorePipeline::new(XorKeystream::new(wrong_key)).restore(&plan.descriptor, &blocks)
        {
            Err(_) => {}
            Ok(a) => assert_ne!(a, archive, "wrong key must not reproduce the archive"),
        }
    }
}
