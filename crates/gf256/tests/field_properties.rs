//! Property-based tests of the GF(2^8) field axioms and slice kernels.

use peerback_gf256::{add_assign_slice, mul_add_slice, mul_slice, Gf256};
use proptest::prelude::*;

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

proptest! {
    #[test]
    fn addition_commutes(a in gf(), b in gf()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_associates(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_commutes(a in gf(), b in gf()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn multiplication_associates(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn multiplication_distributes(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn division_is_multiplication_by_inverse(a in gf(), b in gf()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(a / b, a * b.inv());
    }

    #[test]
    fn pow_adds_exponents(a in gf(), e1 in 0u64..600, e2 in 0u64..600) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn slice_kernels_match_scalar_ops(
        data in proptest::collection::vec(any::<u8>(), 0..128),
        base in proptest::collection::vec(any::<u8>(), 0..128),
        c in any::<u8>(),
    ) {
        let n = data.len().min(base.len());
        let src = &data[..n];

        let mut added = base[..n].to_vec();
        add_assign_slice(&mut added, src);
        for i in 0..n {
            prop_assert_eq!(Gf256::new(added[i]), Gf256::new(base[i]) + Gf256::new(src[i]));
        }

        let mut scaled = vec![0u8; n];
        mul_slice(&mut scaled, src, c);
        for i in 0..n {
            prop_assert_eq!(Gf256::new(scaled[i]), Gf256::new(src[i]) * Gf256::new(c));
        }

        let mut fused = base[..n].to_vec();
        mul_add_slice(&mut fused, src, c);
        for i in 0..n {
            prop_assert_eq!(
                Gf256::new(fused[i]),
                Gf256::new(base[i]) + Gf256::new(src[i]) * Gf256::new(c)
            );
        }
    }
}
