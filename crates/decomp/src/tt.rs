//! Tensor-Train decomposition via TT-SVD.

use temco_linalg::{truncated_svd, Mat};
use temco_tensor::Tensor;

use crate::{Factor, FactorChain, Spatial};

/// TT-SVD over the `(c_in, kh, kw, c_out)` axis ordering with target ranks
/// `(r1, r2, r3)` (each clamped to its feasible maximum). The chain is
/// `fconv [r1, c_in, 1, 1] → core [r2, r1, kh, 1] → core [r3, r2, 1, kw] →
/// lconv [c_out, r3, 1, 1]`, whose kernel is
/// `Ŵ[o,i,h,w] = Σ U1[i,r1] G2[r1,h,r2] G3[r2,w,r3] G4[r3,o]`.
pub fn tt_decompose(weight: &Tensor, ranks: (usize, usize, usize)) -> FactorChain {
    assert_eq!(weight.shape().len(), 4, "tt expects a 4-D conv weight");
    let (c_out, c_in, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));

    // Permute to (c_in, kh, kw, c_out), row-major.
    let mut perm = vec![0.0f64; weight.numel()];
    for o in 0..c_out {
        for i in 0..c_in {
            for h in 0..kh {
                for w in 0..kw {
                    perm[((i * kh + h) * kw + w) * c_out + o] = weight.at4(o, i, h, w) as f64;
                }
            }
        }
    }

    let r1 = ranks.0.clamp(1, c_in.min(kh * kw * c_out));
    // Step 1: (c_in) × (kh·kw·c_out)
    let m1 = Mat::from_vec(c_in, kh * kw * c_out, perm);
    let s1 = truncated_svd(&m1, r1);
    let r1 = s1.s.len(); // may shrink if numerically rank-deficient
    let u1 = s1.u.clone(); // c_in × r1
    let rest1 = scale_rows(&s1.vt, &s1.s); // r1 × (kh·kw·c_out)

    // Step 2: (r1·kh) × (kw·c_out) — row-major reshape is free.
    let r2 = ranks.1.clamp(1, (r1 * kh).min(kw * c_out));
    let m2 = Mat::from_vec(r1 * kh, kw * c_out, rest1.into_vec());
    let s2 = truncated_svd(&m2, r2);
    let r2 = s2.s.len();
    let u2 = s2.u.clone(); // (r1·kh) × r2
    let rest2 = scale_rows(&s2.vt, &s2.s); // r2 × (kw·c_out)

    // Step 3: (r2·kw) × c_out
    let r3 = ranks.2.clamp(1, (r2 * kw).min(c_out));
    let m3 = Mat::from_vec(r2 * kw, c_out, rest2.into_vec());
    let s3 = truncated_svd(&m3, r3);
    let r3 = s3.s.len();
    let u3 = s3.u.clone(); // (r2·kw) × r3
    let g4 = scale_rows(&s3.vt, &s3.s); // r3 × c_out

    // Lay the cores out as conv weights.
    let mut fconv = Tensor::zeros(&[r1, c_in, 1, 1]);
    for a in 0..r1 {
        for i in 0..c_in {
            *fconv.at4_mut(a, i, 0, 0) = u1[(i, a)] as f32;
        }
    }
    let mut core_h = Tensor::zeros(&[r2, r1, kh, 1]);
    for b in 0..r2 {
        for a in 0..r1 {
            for h in 0..kh {
                *core_h.at4_mut(b, a, h, 0) = u2[(a * kh + h, b)] as f32;
            }
        }
    }
    let mut core_w = Tensor::zeros(&[r3, r2, 1, kw]);
    for c in 0..r3 {
        for b in 0..r2 {
            for w in 0..kw {
                *core_w.at4_mut(c, b, 0, w) = u3[(b * kw + w, c)] as f32;
            }
        }
    }
    let mut lconv = Tensor::zeros(&[c_out, r3, 1, 1]);
    for o in 0..c_out {
        for c in 0..r3 {
            *lconv.at4_mut(o, c, 0, 0) = g4[(c, o)] as f32;
        }
    }
    FactorChain {
        factors: vec![
            Factor::pointwise(fconv),
            Factor { weight: core_h, groups: 1, spatial: Spatial::H },
            Factor { weight: core_w, groups: 1, spatial: Spatial::W },
            Factor::pointwise(lconv),
        ],
    }
}

/// Multiply row `r` of `m` by `s[r]`.
fn scale_rows(m: &Mat, s: &[f64]) -> Mat {
    let mut out = m.clone();
    for (r, &sv) in s.iter().enumerate() {
        for x in out.row_mut(r) {
            *x *= sv;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relative_error;

    #[test]
    fn shapes_follow_tt_layout() {
        let w = Tensor::randn(&[8, 6, 3, 3], 1);
        let tt = tt_decompose(&w, (4, 5, 6));
        let [r1, r2, r3] = tt.ranks()[..] else { panic!("TT has three bonds") };
        assert_eq!(
            tt.shapes(),
            [&[r1, 6, 1, 1][..], &[r2, r1, 3, 1], &[r3, r2, 1, 3], &[8, r3, 1, 1]]
        );
        assert_eq!(r1, 4);
    }

    #[test]
    fn full_rank_tt_is_exact() {
        let w = Tensor::randn(&[5, 4, 3, 3], 3);
        // Generous ranks: TT-SVD with untruncated ranks is exact.
        let tt = tt_decompose(&w, (4, 12, 5));
        let err = relative_error(&w, &tt.reconstruct());
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn error_decreases_with_rank() {
        let w = Tensor::randn(&[12, 12, 3, 3], 5);
        let errs: Vec<f64> = [2usize, 4, 8, 12]
            .iter()
            .map(|&r| {
                let tt = tt_decompose(&w, (r, 2 * r, r));
                relative_error(&w, &tt.reconstruct())
            })
            .collect();
        for pair in errs.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-9, "{errs:?}");
        }
    }

    #[test]
    fn ranks_are_clamped_to_feasible_values() {
        let w = Tensor::randn(&[4, 3, 3, 3], 19);
        let tt = tt_decompose(&w, (100, 100, 100));
        let [r1, r2, r3] = tt.ranks()[..] else { panic!("TT has three bonds") };
        assert!(r1 <= 3);
        assert!(r2 <= r1 * 3);
        assert!(r3 <= 4);
    }
}
