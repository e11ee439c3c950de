//! Property-based tests: the "any k of n" guarantee and repair identities.

use proptest::prelude::*;

use peerback_erasure::ReedSolomon;

/// Strategy producing a geometry, payload length and a survivor subset.
fn geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    // (k, m, shard_len) — kept small so exhaustive-ish exploration is fast.
    (1usize..=10, 0usize..=10, 0usize..=64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_k_survivors_recover_the_data(
        (k, m, len) in geometry(),
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| (seed as usize + i * 31 + j * 7) as u8)
                    .collect()
            })
            .collect();
        let mut all = data.clone();
        all.extend(rs.encode(&data).unwrap());

        // Deterministically pick k survivor indices from the seed.
        let n = k + m;
        let mut indices: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            indices.swap(i, j);
        }
        let survivors: Vec<(usize, Vec<u8>)> =
            indices[..k].iter().map(|&i| (i, all[i].clone())).collect();

        let mut recovered = Vec::new();
        rs.reconstruct_data_into(&survivors, len, &mut recovered).unwrap();
        prop_assert_eq!(recovered, data);
    }

    #[test]
    fn repaired_shards_equal_originals(
        (k, m, len) in geometry(),
        seed in any::<u64>(),
    ) {
        prop_assume!(m > 0);
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| (seed as usize ^ (i * 13 + j)) as u8).collect())
            .collect();
        let mut all = data.clone();
        all.extend(rs.encode(&data).unwrap());

        // Remove up to m shards, spread by the seed.
        let n = k + m;
        let mut present = vec![true; n];
        let mut removed = 0usize;
        let mut state = seed | 1;
        while removed < m {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (state >> 33) as usize % n;
            if present[idx] {
                present[idx] = false;
                removed += 1;
            }
        }
        let survivors: Vec<(usize, &[u8])> =
            (0..n).filter(|&i| present[i]).map(|i| (i, all[i].as_slice())).collect();
        let wanted: Vec<usize> = (0..n).filter(|&i| !present[i]).collect();

        let regenerated = rs.reconstruct_shards(&survivors, len, &wanted).unwrap();
        let mut repaired = all.clone();
        for (&index, bytes) in wanted.iter().zip(regenerated) {
            prop_assert_eq!(&bytes, &all[index], "shard {}", index);
            repaired[index] = bytes;
        }
        // Re-encoding the repaired data shards gives the repaired parity.
        prop_assert_eq!(rs.encode(&repaired[..k]).unwrap(), &repaired[k..]);
    }

    #[test]
    fn shard_at_is_consistent_with_full_encode(
        (k, m, len) in geometry(),
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| (seed as usize + i + j * 3) as u8).collect())
            .collect();
        let parity = rs.encode(&data).unwrap();
        for i in 0..k {
            prop_assert_eq!(&rs.shard_at(&data, i).unwrap(), &data[i]);
        }
        for (p, expect) in parity.iter().enumerate() {
            prop_assert_eq!(&rs.shard_at(&data, k + p).unwrap(), expect);
        }
    }
}
