//! Canonical Polyadic decomposition via ALS (Lebedev-style conv splitting).

use temco_linalg::{solve_ridge, Mat};
use temco_tensor::Tensor;

use crate::unfold::Tensor4;
use crate::{Factor, FactorChain, Spatial};

/// Rank-`rank` CP decomposition of `weight [c_out, c_in, kh, kw]` by
/// alternating least squares with `iters` full rounds.
///
/// Factor columns are normalized each round with the scale absorbed into the
/// output-channel factor, the standard ALS conditioning trick. The chain is
/// the separable sequence `fconv [r, c_in, 1, 1] → depthwise [r, 1, kh, 1]
/// → depthwise [r, 1, 1, kw] → lconv [c_out, r, 1, 1]`, whose kernel is
/// `Ŵ[o,i,h,w] = Σ_r A[o,r] B[i,r] C[h,r] D[w,r]`.
pub fn cp_decompose(weight: &Tensor, rank: usize, iters: usize) -> FactorChain {
    assert_eq!(weight.shape().len(), 4, "cp expects a 4-D conv weight");
    assert!(rank >= 1, "rank must be positive");
    let w = Tensor4::from_tensor(weight);
    let dims = w.dims;

    // Deterministic random init, scaled small.
    let mut factors: Vec<Mat> = (0..4)
        .map(|m| {
            let t = Tensor::rand_uniform(&[dims[m], rank], 1000 + m as u64, -1.0, 1.0);
            Mat::from_vec(dims[m], rank, t.data().iter().map(|&x| x as f64).collect())
        })
        .collect();

    for _ in 0..iters {
        for mode in 0..4 {
            let g = mttkrp(&w, &factors, mode, rank);
            // H = Hadamard product of the other factors' Grams.
            let mut h = Mat::from_fn(rank, rank, |_, _| 1.0);
            for (m, f) in factors.iter().enumerate() {
                if m == mode {
                    continue;
                }
                let gram = f.transpose().matmul(f);
                for r in 0..rank {
                    for c in 0..rank {
                        h[(r, c)] *= gram[(r, c)];
                    }
                }
            }
            // Solve H Xᵀ = Gᵀ  →  X = G H⁻¹ (ridge keeps H invertible).
            let xt = solve_ridge(&h, &g.transpose(), 1e-10);
            factors[mode] = xt.transpose();
            if mode != 0 {
                normalize_into_mode0(&mut factors, mode, rank);
            }
        }
    }

    let (a, b, c, d) = (&factors[0], &factors[1], &factors[2], &factors[3]);
    let to_f32 = |m: &Mat| -> Vec<f32> { m.as_slice().iter().map(|&x| x as f32).collect() };

    // fconv = Bᵀ as [r, c_in, 1, 1]
    let fconv = Tensor::from_vec(&[rank, dims[1], 1, 1], to_f32(&b.transpose()));
    // conv_h from C [kh, r] → [r, 1, kh, 1]
    let mut conv_h = Tensor::zeros(&[rank, 1, dims[2], 1]);
    for r in 0..rank {
        for h in 0..dims[2] {
            *conv_h.at4_mut(r, 0, h, 0) = c[(h, r)] as f32;
        }
    }
    // conv_w from D [kw, r] → [r, 1, 1, kw]
    let mut conv_w = Tensor::zeros(&[rank, 1, 1, dims[3]]);
    for r in 0..rank {
        for w_i in 0..dims[3] {
            *conv_w.at4_mut(r, 0, 0, w_i) = d[(w_i, r)] as f32;
        }
    }
    // lconv = A as [c_out, r, 1, 1]
    let lconv = Tensor::from_vec(&[dims[0], rank, 1, 1], to_f32(a));
    FactorChain {
        factors: vec![
            Factor::pointwise(fconv),
            Factor { weight: conv_h, groups: rank, spatial: Spatial::H },
            Factor { weight: conv_w, groups: rank, spatial: Spatial::W },
            Factor::pointwise(lconv),
        ],
    }
}

/// Fold the two depthwise factors of a CP chain over a `[f_out, f_in, 1, 1]`
/// kernel — per-rank scales there — into the restoring factor's columns as
/// their product, leaving `fconv → lconv`.
pub(crate) fn fold_scales(chain: FactorChain) -> FactorChain {
    let [fconv, h, w, mut lconv]: [Factor; 4] =
        chain.factors.try_into().expect("a CP chain has four factors");
    let (hs, ws) = (h.weight.data(), w.weight.data());
    assert!(hs.len() == h.weight.dim(0) && ws.len() == hs.len(), "scales must be 1×1");
    for row in lconv.weight.data_mut().chunks_mut(hs.len()) {
        for (x, (a, b)) in row.iter_mut().zip(hs.iter().zip(ws)) {
            *x *= a * b;
        }
    }
    FactorChain { factors: vec![fconv, lconv] }
}

/// Matricized tensor times Khatri–Rao product, computed by direct iteration
/// (clarity over speed; kernels are at most a few MiB).
fn mttkrp(w: &Tensor4, factors: &[Mat], mode: usize, rank: usize) -> Mat {
    let d = w.dims;
    let mut g = Mat::zeros(d[mode], rank);
    let mut idx = [0usize; 4];
    for i0 in 0..d[0] {
        idx[0] = i0;
        for i1 in 0..d[1] {
            idx[1] = i1;
            for i2 in 0..d[2] {
                idx[2] = i2;
                for i3 in 0..d[3] {
                    idx[3] = i3;
                    let x = w.data[w.idx(i0, i1, i2, i3)];
                    if x == 0.0 {
                        continue;
                    }
                    let row = idx[mode];
                    for r in 0..rank {
                        let mut prod = x;
                        for (m, f) in factors.iter().enumerate() {
                            if m != mode {
                                prod *= f[(idx[m], r)];
                            }
                        }
                        g[(row, r)] += prod;
                    }
                }
            }
        }
    }
    g
}

/// Normalize the columns of `factors[mode]` to unit norm, pushing the scale
/// into the mode-0 (output-channel) factor.
fn normalize_into_mode0(factors: &mut [Mat], mode: usize, rank: usize) {
    for r in 0..rank {
        let norm: f64 =
            (0..factors[mode].rows()).map(|i| factors[mode][(i, r)].powi(2)).sum::<f64>().sqrt();
        if norm < 1e-30 {
            continue;
        }
        for i in 0..factors[mode].rows() {
            factors[mode][(i, r)] /= norm;
        }
        for i in 0..factors[0].rows() {
            factors[0][(i, r)] *= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relative_error;

    fn rank_k_kernel(c_out: usize, c_in: usize, kh: usize, kw: usize, k: usize) -> Tensor {
        let a = Tensor::rand_uniform(&[c_out, k], 1, -1.0, 1.0);
        let b = Tensor::rand_uniform(&[c_in, k], 2, -1.0, 1.0);
        let c = Tensor::rand_uniform(&[kh, k], 3, -1.0, 1.0);
        let d = Tensor::rand_uniform(&[kw, k], 4, -1.0, 1.0);
        let mut out = Tensor::zeros(&[c_out, c_in, kh, kw]);
        for o in 0..c_out {
            for i in 0..c_in {
                for h in 0..kh {
                    for w in 0..kw {
                        let mut s = 0.0;
                        for r in 0..k {
                            s += a.data()[o * k + r]
                                * b.data()[i * k + r]
                                * c.data()[h * k + r]
                                * d.data()[w * k + r];
                        }
                        *out.at4_mut(o, i, h, w) = s;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn shapes_follow_separable_layout() {
        let w = Tensor::randn(&[8, 6, 3, 5], 1);
        let cp = cp_decompose(&w, 4, 3);
        assert_eq!(cp.shapes(), [&[4, 6, 1, 1][..], &[4, 1, 3, 1], &[4, 1, 1, 5], &[8, 4, 1, 1]]);
        let layout: Vec<_> = cp.factors.iter().map(|f| (f.groups, f.spatial)).collect();
        assert_eq!(
            layout,
            [(1, Spatial::None), (4, Spatial::H), (4, Spatial::W), (1, Spatial::None)]
        );
    }

    #[test]
    fn recovers_rank_one_kernel_exactly() {
        let w = rank_k_kernel(6, 5, 3, 3, 1);
        let cp = cp_decompose(&w, 1, 30);
        assert!(relative_error(&w, &cp.reconstruct()) < 1e-3);
    }

    #[test]
    fn recovers_low_rank_kernel_well() {
        let w = rank_k_kernel(8, 8, 3, 3, 2);
        let cp = cp_decompose(&w, 3, 60);
        assert!(
            relative_error(&w, &cp.reconstruct()) < 0.05,
            "err {}",
            relative_error(&w, &cp.reconstruct())
        );
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let w = Tensor::randn(&[6, 6, 3, 3], 7);
        let e5 = relative_error(&w, &cp_decompose(&w, 4, 5).reconstruct());
        let e40 = relative_error(&w, &cp_decompose(&w, 4, 40).reconstruct());
        assert!(e40 <= e5 + 1e-6, "{e5} vs {e40}");
    }

    #[test]
    fn folding_the_scales_keeps_the_kernel() {
        let w = Tensor::randn(&[7, 5, 1, 1], 17);
        let cp = cp_decompose(&w, 3, 10);
        let folded = fold_scales(cp.clone());
        assert_eq!(folded.shapes(), [&[3, 5, 1, 1][..], &[7, 3, 1, 1]]);
        let (a, b) = (cp.reconstruct(), folded.reconstruct());
        assert!(a.all_close(&b, 1e-5), "diff {}", a.max_abs_diff(&b));
    }
}
