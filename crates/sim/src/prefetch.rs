//! A software prefetch hint for bytes about to be read.
//!
//! Scrubs, challenges and restore gathers read blocks scattered over
//! many megabytes, so each one stalls on memory it could have asked
//! for earlier. [`prefetch`] asks: it hints every cache line of a slice
//! into the cache and returns at once, while the caller works on
//! something else. A hint never changes what any code computes.

/// Bytes per cache line on every x86_64 part this runs on.
#[cfg(target_arch = "x86_64")]
const LINE: usize = 64;

/// Hints every cache line `bytes` touches into all cache levels
/// (`_mm_prefetch` with `_MM_HINT_T0`, one per line); a no-op on other
/// architectures.
#[inline]
pub fn prefetch(bytes: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = bytes.as_ptr();
        // From the line holding the first byte to the one holding the
        // last: a slice need not start on a line boundary.
        let first = start.wrapping_sub(start as usize % LINE);
        let lines = (start as usize % LINE + bytes.len()).div_ceil(LINE);
        for line in 0..lines {
            let at = first.wrapping_add(line * LINE).cast::<i8>();
            // SAFETY: a prefetch is a hint, not an access: it never
            // faults, writes nothing and reads nothing the program can
            // observe, whatever the address (here every line overlaps
            // `bytes`). SSE, which the instruction needs, is part of
            // the x86_64 baseline.
            #[allow(unsafe_code)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(at);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = bytes;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_accepts_any_slice_and_changes_nothing() {
        let bytes: Vec<u8> = (0..=255).cycle().take(4099).collect();
        let copy = bytes.clone();
        for start in [0, 1, 63, 64, 65, 2051] {
            for len in [0, 1, 63, 64, 65, 2048] {
                let end = (start + len).min(bytes.len());
                prefetch(&bytes[start..end]);
            }
        }
        prefetch(&[]);
        assert_eq!(bytes, copy);
    }
}
