//! Tucker-2 decomposition of convolution kernels (the paper's baseline).

use temco_linalg::{leading_evecs_sym, Mat};
use temco_tensor::Tensor;

use crate::unfold::{ttm, unfold, Tensor4};
use crate::{Factor, FactorChain, Spatial};

/// Tucker-2 decomposition with HOSVD initialization and `hooi_iters` rounds
/// of HOOI refinement on the two channel modes.
///
/// `weight` is `[c_out, c_in, kh, kw]`; the spatial modes are kept intact
/// (that is what makes the core a `kh×kw` convolution). The chain is the
/// decomposed sequence of the paper's Figure 2b: `fconv [r_in, c_in, 1, 1]
/// → core [r_out, r_in, kh, kw] → lconv [c_out, r_out, 1, 1]`.
///
/// # Panics
/// Panics if ranks exceed the channel dims or the weight is not 4-D.
pub fn tucker2(weight: &Tensor, r_out: usize, r_in: usize, hooi_iters: usize) -> FactorChain {
    assert_eq!(weight.shape().len(), 4, "tucker2 expects a 4-D conv weight");
    let (c_out, c_in) = (weight.dim(0), weight.dim(1));
    assert!(r_out >= 1 && r_out <= c_out, "r_out {r_out} out of range (c_out {c_out})");
    assert!(r_in >= 1 && r_in <= c_in, "r_in {r_in} out of range (c_in {c_in})");

    let w = Tensor4::from_tensor(weight);

    // HOSVD init: leading eigenvectors of the mode Gram matrices.
    let mut u0 = leading_evecs(&unfold(&w, 0), r_out); // c_out × r_out
    let mut u1 = leading_evecs(&unfold(&w, 1), r_in); // c_in × r_in

    // HOOI: alternately re-fit each factor against the other's projection.
    for _ in 0..hooi_iters {
        let proj1 = ttm(&w, &u1.transpose(), 1); // contract c_in → r_in
        u0 = leading_evecs(&unfold(&proj1, 0), r_out);
        let proj0 = ttm(&w, &u0.transpose(), 0); // contract c_out → r_out
        u1 = leading_evecs(&unfold(&proj0, 1), r_in);
    }

    // Core: G = W ×0 U0ᵀ ×1 U1ᵀ  →  [r_out, r_in, kh, kw].
    let core4 = ttm(&ttm(&w, &u0.transpose(), 0), &u1.transpose(), 1);

    let core = Factor { weight: core4.to_tensor(), groups: 1, spatial: Spatial::Both };
    FactorChain {
        factors: vec![
            Factor::pointwise(mat_to_conv1x1(&u1.transpose())),
            core,
            Factor::pointwise(mat_to_conv1x1(&u0)),
        ],
    }
}

/// Leading `k` eigenvectors (as columns) of `m mᵀ`.
fn leading_evecs(m: &Mat, k: usize) -> Mat {
    leading_evecs_sym(&m.gram(), k, 8)
}

/// `[r, c]` matrix → `[r, c, 1, 1]` conv weight.
fn mat_to_conv1x1(m: &Mat) -> Tensor {
    Tensor::from_vec(&[m.rows(), m.cols(), 1, 1], m.as_slice().iter().map(|&x| x as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relative_error;

    /// Build an exactly Tucker-2-rank-(ro, ri) kernel.
    fn low_rank_kernel(c_out: usize, c_in: usize, k: usize, ro: usize, ri: usize) -> Tensor {
        let g = Tensor4::from_tensor(&Tensor::randn(&[ro, ri, k, k], 11));
        let u0 = Mat::from_fn(c_out, ro, |r, c| (((r * 13 + c * 7) % 9) as f64 - 4.0) / 4.0);
        let u1 = Mat::from_fn(c_in, ri, |r, c| (((r * 5 + c * 11) % 7) as f64 - 3.0) / 3.0);
        ttm(&ttm(&g, &u0, 0), &u1, 1).to_tensor()
    }

    #[test]
    fn shapes_follow_figure_2b() {
        let w = Tensor::randn(&[16, 8, 3, 3], 1);
        let t = tucker2(&w, 4, 2, 2);
        assert_eq!(t.shapes(), [&[2, 8, 1, 1][..], &[4, 2, 3, 3], &[16, 4, 1, 1]]);
        assert_eq!(t.factors[1].spatial, Spatial::Both);
    }

    #[test]
    fn exact_recovery_of_low_rank_kernel() {
        let w = low_rank_kernel(12, 10, 3, 3, 2);
        let t = tucker2(&w, 3, 2, 2);
        let rec = t.reconstruct();
        assert!(relative_error(&w, &rec) < 1e-4, "err {}", relative_error(&w, &rec));
    }

    #[test]
    fn error_decreases_with_rank() {
        let w = Tensor::randn(&[16, 16, 3, 3], 5);
        let errs: Vec<f64> = [2usize, 4, 8, 16]
            .iter()
            .map(|&r| relative_error(&w, &tucker2(&w, r, r, 2).reconstruct()))
            .collect();
        for pair in errs.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9, "{errs:?}");
        }
        // Full rank must be (numerically) exact.
        assert!(errs[3] < 1e-4, "{errs:?}");
    }

    #[test]
    fn hooi_does_not_hurt_fit() {
        let w = Tensor::randn(&[20, 12, 3, 3], 9);
        let e0 = relative_error(&w, &tucker2(&w, 5, 3, 0).reconstruct());
        let e3 = relative_error(&w, &tucker2(&w, 5, 3, 3).reconstruct());
        assert!(e3 <= e0 + 1e-6, "HOSVD {e0} vs HOOI {e3}");
    }

    #[test]
    fn works_on_1x1_kernels() {
        // DenseNet bottlenecks are 1×1; Tucker-2 degrades to a two-sided SVD.
        let w = Tensor::randn(&[32, 16, 1, 1], 31);
        let t = tucker2(&w, 8, 4, 1);
        assert_eq!(t.factors[1].weight.shape(), &[8, 4, 1, 1]);
        let rec = t.reconstruct();
        assert_eq!(rec.shape(), w.shape());
    }

    #[test]
    fn param_count_shrinks_at_low_rank() {
        let w = Tensor::randn(&[64, 64, 3, 3], 41);
        let t = tucker2(&w, 7, 7, 1);
        assert!(t.param_count() < w.numel() / 10);
    }
}
