//! Property tests for the decomposition crate: structural contracts and
//! error monotonicity over random kernel shapes.

use proptest::prelude::*;
use temco_decomp::{cp_decompose, relative_error, tt_decompose, tucker2, tucker_ranks};
use temco_tensor::Tensor;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn tucker_shapes_and_error_bounds(
        c_out in 2usize..20,
        c_in in 2usize..20,
        k in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        seed in 0u64..500,
    ) {
        let w = Tensor::randn(&[c_out, c_in, k, k], seed);
        let (ro, ri) = tucker_ranks(c_out, c_in, 0.5);
        let t = tucker2(&w, ro, ri, 1);
        // Structural contract: fconv reduces, lconv restores.
        let shapes: Vec<&[usize]> = t.factors.iter().map(|f| f.weight.shape()).collect();
        prop_assert_eq!(shapes, [&[ri, c_in, 1, 1][..], &[ro, ri, k, k], &[c_out, ro, 1, 1]]);
        // The reconstruction is a projection: error within [0, ~1] for
        // random kernels (cannot exceed the original's norm).
        let err = relative_error(&w, &t.reconstruct());
        prop_assert!((0.0..=1.0 + 1e-6).contains(&err), "err {}", err);
    }

    #[test]
    fn tucker_error_monotone_in_rank(
        c in 4usize..16,
        seed in 0u64..500,
    ) {
        let w = Tensor::randn(&[c, c, 3, 3], seed);
        let mut last = f64::INFINITY;
        for r in [1usize, c / 2, c] {
            let r = r.max(1);
            let t = tucker2(&w, r, r, 1);
            let err = relative_error(&w, &t.reconstruct());
            prop_assert!(err <= last + 1e-6, "rank {} err {} > prev {}", r, err, last);
            last = err;
        }
        // Full rank is (numerically) exact.
        prop_assert!(last < 1e-3, "full-rank error {}", last);
    }

    #[test]
    fn tt_ranks_are_feasible_for_any_request(
        c_out in 2usize..16,
        c_in in 2usize..16,
        r1 in 1usize..40,
        r2 in 1usize..40,
        r3 in 1usize..40,
        seed in 0u64..300,
    ) {
        let w = Tensor::randn(&[c_out, c_in, 3, 3], seed);
        let tt = tt_decompose(&w, (r1, r2, r3));
        let [a, b, c] = tt.ranks()[..] else { panic!("TT has three bonds") };
        prop_assert!(a <= c_in.min(9 * c_out));
        prop_assert!(b <= (a * 3).min(3 * c_out));
        prop_assert!(c <= (b * 3).min(c_out));
        let rec = tt.reconstruct();
        prop_assert_eq!(rec.shape(), w.shape());
    }

    #[test]
    fn cp_parameters_scale_linearly_with_rank(
        c in 3usize..10,
        r in 1usize..6,
        seed in 0u64..200,
    ) {
        let w = Tensor::randn(&[c, c, 3, 3], seed);
        let cp = cp_decompose(&w, r, 2);
        prop_assert_eq!(cp.factors[0].weight.dim(0), r);
        prop_assert_eq!(cp.param_count(), r * (c + 3 + 3 + c));
    }
}
