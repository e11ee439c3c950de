//! `byte_plane`: backup → lose half the blocks → repair → restore at
//! the paper's RS(128,128) geometry, single-threaded, no simulator.

use peerback_core::archive::Entry;
use peerback_core::{Archive, BackupPipeline, RestorePipeline, XorKeystream};
use peerback_erasure::ReedSolomon;
use peerback_fabric::checksum;

use super::{maybe_span, timed, Outcome, SplitMix, MIB};
use crate::span::Tracer;

/// Archives per repeat.
const ARCHIVES: usize = 12;
/// Payload bytes per archive: 128 data shards of 64 KiB.
const ARCHIVE_BYTES: usize = 8 << 20;

/// Runs one repeat: set-up builds the codec and generates the
/// archives; the window is three accumulated sub-windows (backup,
/// repair, restore) over every archive.
pub fn repeat(seed: u64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let key = seed ^ 0x5eed_2009;
    let mut gen = SplitMix(seed);
    let ((rs, backup, restore, archives), setup) = timed(|| {
        let rs = ReedSolomon::paper_default();
        let backup = BackupPipeline::new(rs.clone(), XorKeystream::new(key), key);
        let restore = RestorePipeline::new(XorKeystream::new(key));
        let archives: Vec<Archive> = (0..ARCHIVES)
            .map(|i| {
                let entry = Entry {
                    name: format!("bench/archive-{i:03}.bin"),
                    data: gen.bytes(ARCHIVE_BYTES).into(),
                };
                Archive::from_entries(i as u64, false, vec![entry])
            })
            .collect();
        (rs, backup, restore, archives)
    });

    let (k, n) = (rs.data_shards(), rs.total_shards());
    let partners: Vec<u64> = (0..n as u64).collect();
    let new_partners: Vec<u64> = (1000..1000 + (k / 2) as u64).collect();
    let mut out = Outcome {
        setup_s: setup.wall,
        ..Outcome::default()
    };
    let (mut backup_s, mut repair_s, mut restore_s) = (0.0, 0.0, 0.0);
    let mut scratch = Vec::new();
    let mut digest = Vec::new();
    let mut shard_len = 0;
    for archive in &archives {
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("archive", None);
        }
        let (plan, backed_up) = timed(|| {
            maybe_span(&mut tracer, "core.backup.backup", || {
                backup
                    .backup(archive, &partners)
                    .expect("n partners supplied")
            })
        });

        shard_len = plan.blocks[0].bytes.len();

        // Disaster: half the data-side and half the parity-side blocks
        // are gone — exactly k survive, the worst survivable case.
        let mut kept = gen.choose(0..k, k / 2);
        kept.extend(gen.choose(k..n, k / 2));
        let (mut survivors, mut lost) = (Vec::new(), Vec::new());
        for block in plan.blocks {
            let index = block.shard_index as usize;
            if kept.binary_search(&index).is_ok() {
                survivors.push((index, block.bytes));
            } else if index < k {
                lost.push((index, block.bytes));
            }
        }
        let missing: Vec<usize> = lost.iter().map(|(i, _)| *i).collect();

        let (regenerated, repaired) = timed(|| {
            maybe_span(&mut tracer, "core.backup.regenerate", || {
                backup
                    .regenerate(&survivors, &missing, &new_partners)
                    .expect("k survivors suffice")
            })
        });

        let (restored, restored_in) = timed(|| {
            maybe_span(&mut tracer, "core.restore.restore_with", || {
                restore.restore_with(&rs, &plan.descriptor, &survivors, &mut scratch)
            })
        });
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
        }
        backup_s += backed_up.wall;
        repair_s += repaired.wall;
        restore_s += restored_in.wall;
        out.window.cpu += backed_up.cpu + repaired.cpu + restored_in.cpu;

        let repaired_ok = regenerated.len() == lost.len()
            && regenerated
                .iter()
                .zip(&lost)
                .all(|(new, (index, old))| new.shard_index as usize == *index && new.bytes == *old);
        let restored_ok = restored.as_ref().is_ok_and(|r| r == archive);
        out.checks.add(
            repaired_ok && restored_ok,
            &format!(
                "archive {}: repaired blocks match: {repaired_ok}, restored bytes match: {restored_ok}",
                archive.id
            ),
        );
        if let Ok(restored) = &restored {
            digest.extend(checksum(&restored.to_bytes()).to_le_bytes());
        }
    }

    let payload_mib = (ARCHIVES * ARCHIVE_BYTES) as f64 / MIB;
    out.window.wall = backup_s + repair_s + restore_s;
    out.work = payload_mib;
    out.digest = checksum(&digest);
    out.values = vec![
        ("backup_mib_per_s", payload_mib / backup_s),
        ("repair_mib_per_s", payload_mib / repair_s),
        ("restore_mib_per_s", payload_mib / restore_s),
    ];
    if tracer.is_some() {
        out.layers = vec![
            ("core.backup.backup.total_s", backup_s),
            ("core.backup.regenerate.total_s", repair_s),
            ("core.restore.restore_with.total_s", restore_s),
            // Computed, not measured: encoding folds each of k data
            // shards into each of m parity shards, once per archive.
            (
                "gf256.mul_add.computed_bytes",
                (k * (n - k) * shard_len * ARCHIVES) as f64,
            ),
        ];
    }
    out
}
