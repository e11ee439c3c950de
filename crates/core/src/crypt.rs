//! Confidentiality hooks.
//!
//! The paper deliberately keeps cryptography out of scope: "standard
//! cryptography can be used to ensure data confidentiality, for example
//! by encrypting data before it is used by the backup system" (§2.1).
//! This module marks that integration point with a [`Cipher`] trait and
//! two reference implementations:
//!
//! * [`NoCipher`] — identity transform, for trusted deployments and
//!   tests.
//! * [`XorKeystream`] — a keystream XOR **stand-in that is NOT
//!   cryptographically secure**. It exists so the pipeline exercises a
//!   real transform (output differs from input, wrong key fails to
//!   decrypt) without pulling a cryptography dependency. A production
//!   deployment must plug in an AEAD cipher here.

/// A symmetric transform applied to archives before encoding.
pub trait Cipher {
    /// Encrypts `plaintext`.
    fn encrypt(&self, plaintext: &[u8]) -> Vec<u8>;

    /// Decrypts `ciphertext`. For keystream ciphers this cannot fail;
    /// implementations with authentication should return garbage-free
    /// errors out-of-band (future work).
    fn decrypt(&self, ciphertext: &[u8]) -> Vec<u8>;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Identity "cipher".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoCipher;

impl Cipher for NoCipher {
    fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        plaintext.to_vec()
    }

    fn decrypt(&self, ciphertext: &[u8]) -> Vec<u8> {
        ciphertext.to_vec()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// XOR with a xoshiro-style keystream. **Not secure** — see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorKeystream {
    key: [u64; 4],
}

impl XorKeystream {
    /// Derives a keystream state from a session key.
    pub fn new(session_key: u64) -> Self {
        // SplitMix64 expansion of the session key into four lanes.
        let mut state = session_key;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        XorKeystream {
            key: [next(), next(), next(), next()],
        }
    }

    /// The transform, a keystream word at a time: xoshiro256** steps
    /// once per 8 input bytes and xors little-endian, so byte `i` meets
    /// keystream byte `i` on any host.
    ///
    /// The input is copied once into a buffer allocated at the capacity
    /// the byte iterator this replaced grew to by doubling from 8 —
    /// `max(8, len.next_power_of_two())`, none for empty input — and
    /// xored there in place. `byte_plane/setup_s` depends on the sizes
    /// this path frees staying the same (ROADMAP 1B; an exact-length
    /// buffer doubles that set-up time).
    fn apply(&self, data: &[u8]) -> Vec<u8> {
        let mut s = self.key;
        let capacity = if data.is_empty() {
            0
        } else {
            data.len().next_power_of_two().max(8)
        };
        let mut out = Vec::with_capacity(capacity);
        out.extend_from_slice(data);
        let mut words = out.chunks_exact_mut(8);
        for chunk in &mut words {
            let word = u64::from_le_bytes((&*chunk).try_into().expect("chunks_exact_mut(8)"));
            chunk.copy_from_slice(&(word ^ next_word(&mut s)).to_le_bytes());
        }
        // The tail meets the leading bytes of one more keystream word.
        let last = next_word(&mut s).to_le_bytes();
        for (b, k) in words.into_remainder().iter_mut().zip(last) {
            *b ^= k;
        }
        out
    }

    /// The byte-at-a-time transform [`XorKeystream::apply`] replaced,
    /// kept as the oracle its tests compare against.
    #[cfg(test)]
    fn apply_reference(&self, data: &[u8]) -> Vec<u8> {
        let mut s = self.key;
        let keystream = core::iter::from_fn(move || Some(next_word(&mut s).to_le_bytes()))
            .flatten()
            .take(data.len());
        data.iter().zip(keystream).map(|(&b, k)| b ^ k).collect()
    }
}

/// One xoshiro256** step over the derived lanes.
#[inline]
fn next_word(s: &mut [u64; 4]) -> u64 {
    let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    result
}

impl Cipher for XorKeystream {
    fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        self.apply(plaintext)
    }

    fn decrypt(&self, ciphertext: &[u8]) -> Vec<u8> {
        self.apply(ciphertext)
    }

    fn name(&self) -> &'static str {
        "xor-keystream (NOT SECURE)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cipher_is_identity() {
        let data = b"backup me".to_vec();
        let c = NoCipher;
        assert_eq!(c.encrypt(&data), data);
        assert_eq!(c.decrypt(&data), data);
    }

    #[test]
    fn xor_round_trips() {
        let c = XorKeystream::new(0xdead_beef);
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let ct = c.encrypt(&data);
        assert_ne!(ct, data, "ciphertext must differ from plaintext");
        assert_eq!(c.decrypt(&ct), data);
    }

    #[test]
    fn wrong_key_does_not_decrypt() {
        let enc = XorKeystream::new(1);
        let dec = XorKeystream::new(2);
        let data = b"secret archive contents".to_vec();
        let garbled = dec.decrypt(&enc.encrypt(&data));
        assert_ne!(garbled, data);
    }

    #[test]
    fn same_key_same_stream() {
        let a = XorKeystream::new(99);
        let b = XorKeystream::new(99);
        let data = vec![0u8; 64];
        assert_eq!(a.encrypt(&data), b.encrypt(&data));
    }

    #[test]
    fn keystream_is_not_trivially_zero() {
        let c = XorKeystream::new(0);
        let zeros = vec![0u8; 256];
        let ct = c.encrypt(&zeros);
        // The stream must have high byte diversity even for key 0.
        let distinct: std::collections::HashSet<u8> = ct.iter().copied().collect();
        assert!(distinct.len() > 64, "keystream too regular: {distinct:?}");
    }

    #[test]
    fn word_wise_apply_matches_the_byte_iterator_in_bytes_and_capacity() {
        let lengths = (0..=4104).chain([(1 << 20) + 3]);
        let data: Vec<u8> = (0..(1 << 20) + 3).map(|i| (i * 31 % 251) as u8).collect();
        for len in lengths {
            for key in [0, 1, 0xdead_beef, u64::MAX] {
                let c = XorKeystream::new(key);
                let (new, old) = (c.apply(&data[..len]), c.apply_reference(&data[..len]));
                assert_eq!(new, old, "key {key:#x}, len {len}");
                // Allocation parity, relative to the old path: the
                // benchmark's `byte_plane/setup_s` doubles when the
                // ciphertext buffer changes size class (ROADMAP 1B), so
                // pre-sizing `apply` must fail here first.
                assert_eq!(new.capacity(), old.capacity(), "key {key:#x}, len {len}");
            }
        }
    }

    #[test]
    fn known_answer_pins_endianness_and_the_tail_rule() {
        // 19 zero bytes: two whole little-endian keystream words, then
        // the three leading bytes of the third.
        let ct = XorKeystream::new(0xdead_beef).encrypt(&[0u8; 19]);
        assert_eq!(
            ct,
            [
                0x83, 0x7e, 0x4d, 0xa7, 0x44, 0x54, 0x55, 0xc5, 0x38, 0x6e, 0xb1, 0xb4, 0x37, 0x0d,
                0xc3, 0x65, 0x23, 0xfa, 0x4e
            ]
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let c = XorKeystream::new(5);
        assert!(c.encrypt(&[]).is_empty());
        assert!(NoCipher.encrypt(&[]).is_empty());
    }
}
