//! The simulated-result digest: FNV-1a 64 (the fabric's own frame
//! checksum) over a canonical rendering.
//!
//! The rendering is the value's `Debug` form, which covers every field
//! of `Metrics` (and of `FabricStats` / `AuditReport`) bit for bit —
//! floats print in shortest round-trip form. Digests are compared only
//! between runs of one build (repeat vs repeat, traced vs untraced,
//! one worker vs two); none is committed, because a later change may
//! alter simulated results on purpose.

use std::fmt::Debug;

use peerback_fabric::checksum;

/// Digest of any value with a field-complete `Debug` rendering.
pub fn digest_of(value: &impl Debug) -> u64 {
    checksum(format!("{value:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerback_core::Metrics;

    #[test]
    fn digest_is_stable_and_sees_every_field() {
        let base = Metrics::new();
        assert_eq!(digest_of(&base), digest_of(&base.clone()));
        let mut counter = base.clone();
        counter.diag.blocks_uploaded += 1;
        assert_ne!(digest_of(&base), digest_of(&counter));
        let mut series = base.clone();
        series.restorability.push((24, 0.5));
        assert_ne!(digest_of(&base), digest_of(&series));
        let mut float_bit = series.clone();
        float_bit.restorability[0].1 = f64::from_bits(0.5f64.to_bits() + 1);
        assert_ne!(digest_of(&series), digest_of(&float_bit));
    }
}
