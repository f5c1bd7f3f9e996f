//! Property tests for the planned entry points under arbitrary schedules:
//! `conv2d_into`, `conv_transpose2d_into`, `linear_into` and `matmul_into`
//! must agree with their naive oracles on ragged shapes for *any*
//! normalized [`GemmSchedule`], drawing from exactly the scratch their
//! `*_scratch_floats` formula advertises for that schedule. Scratch and
//! output start as NaN, so a kernel that reads working memory it never
//! wrote, or leaves part of its output unwritten, fails here.

use proptest::prelude::*;
use temco_tensor::{
    conv2d_direct, conv2d_into, conv2d_scratch_floats, conv_transpose2d_into,
    conv_transpose2d_scratch_floats, gemm_scratch_floats, linear_into, linear_scratch_floats,
    matmul_into, matmul_reference, Conv2dParams, GemmSchedule, Tensor,
};

/// Sizes straddling the 4×8 microkernel and the small-problem cutoff.
const DIMS: &[usize] = &[1, 3, 7, 9, 33, 65];

fn schedule(kc: usize, mc: usize, nc: usize) -> GemmSchedule {
    GemmSchedule { kc, mc, nc }.normalized()
}

/// Element-wise agreement, tolerance scaled with the reduction depth.
fn close(got: &[f32], want: &[f32], depth: usize) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} vs {}", got.len(), want.len()));
    }
    let tol = 1e-5 * (depth as f32).sqrt().max(1.0) * 8.0;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        // Written so that a NaN (unwritten output) fails the comparison.
        let within = (g - w).abs() <= tol * w.abs().max(1.0);
        if !within {
            return Err(format!("element {i}: got {g}, want {w} (tol {tol})"));
        }
    }
    Ok(())
}

fn bias(len: usize) -> Vec<f32> {
    (0..len).map(|i| i as f32 * 0.25 - 0.5).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    #[test]
    fn conv2d_into_matches_direct_under_any_schedule(
        n in 1usize..3,
        groups in 1usize..3,
        cg in 1usize..5,
        og in 1usize..7,
        h in 3usize..14,
        w in 3usize..14,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        with_bias in any::<bool>(),
        kc in 1usize..300,
        mc in 1usize..150,
        nc in 1usize..300,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * padding >= kh && w + 2 * padding >= kw);
        let (c_in, c_out) = (groups * cg, groups * og);
        let p = Conv2dParams { stride: (stride, stride), padding: (padding, padding), groups };
        let s = schedule(kc, mc, nc);
        let x = Tensor::randn(&[n, c_in, h, w], seed);
        let wt = Tensor::randn(&[c_out, cg, kh, kw], seed ^ 0xC0);
        let b = with_bias.then(|| bias(c_out));
        let want = conv2d_direct(&x, &wt, b.as_deref(), &p);

        let mut scratch = vec![f32::NAN; conv2d_scratch_floats(c_in, h, w, c_out, kh, kw, &p, s)];
        let mut got = vec![f32::NAN; want.numel()];
        conv2d_into(x.view(), &wt, b.as_deref(), &p, &mut got, &mut scratch, s);
        if let Err(e) = close(&got, want.data(), cg * kh * kw) {
            return Err(TestCaseError::Fail(format!("{x:?} {p:?} {s:?}: {e}", x = x.shape())));
        }
    }

    #[test]
    fn conv_transpose2d_into_matches_scatter_under_any_schedule(
        n in 1usize..3,
        c_in in 1usize..9,
        c_out in 1usize..9,
        h in 1usize..10,
        w in 1usize..10,
        kh in 1usize..4,
        kw in 1usize..4,
        sh in 1usize..4,
        sw in 1usize..4,
        with_bias in any::<bool>(),
        kc in 1usize..300,
        mc in 1usize..150,
        nc in 1usize..300,
        seed in 0u64..1000,
    ) {
        let s = schedule(kc, mc, nc);
        let x = Tensor::randn(&[n, c_in, h, w], seed);
        let wt = Tensor::randn(&[c_in, c_out, kh, kw], seed ^ 0x7C);
        let b = with_bias.then(|| bias(c_out));
        // Oracle: the direct scatter, written out longhand.
        let (oh, ow) = ((h - 1) * sh + kh, (w - 1) * sw + kw);
        let mut want = Tensor::zeros(&[n, c_out, oh, ow]);
        for bi in 0..n {
            for co in 0..c_out {
                let bv = b.as_ref().map_or(0.0, |b| b[co]);
                for y in 0..oh {
                    for xo in 0..ow {
                        *want.at4_mut(bi, co, y, xo) = bv;
                    }
                }
            }
            for ci in 0..c_in {
                for hi in 0..h {
                    for wi in 0..w {
                        let v = x.at4(bi, ci, hi, wi);
                        for co in 0..c_out {
                            for khi in 0..kh {
                                for kwi in 0..kw {
                                    *want.at4_mut(bi, co, hi * sh + khi, wi * sw + kwi) +=
                                        v * wt.at4(ci, co, khi, kwi);
                                }
                            }
                        }
                    }
                }
            }
        }

        let floats = conv_transpose2d_scratch_floats(c_in, c_out, kh, kw, h, w, s);
        let mut scratch = vec![f32::NAN; floats];
        let mut got = vec![f32::NAN; want.numel()];
        conv_transpose2d_into(x.view(), &wt, b.as_deref(), (sh, sw), &mut got, &mut scratch, s);
        if let Err(e) = close(&got, want.data(), c_in * kh * kw) {
            return Err(TestCaseError::Fail(format!("{:?} stride ({sh},{sw}) {s:?}: {e}", x.shape())));
        }
    }

    #[test]
    fn linear_into_matches_naive_under_any_schedule(
        ri in 0usize..6,
        fi in 0usize..6,
        oi in 0usize..6,
        rank3 in any::<bool>(),
        with_bias in any::<bool>(),
        kc in 1usize..300,
        mc in 1usize..150,
        nc in 1usize..300,
        seed in 0u64..1000,
    ) {
        let (rows, f, out_f) = (DIMS[ri] * 2, DIMS[fi], DIMS[oi]);
        let s = schedule(kc, mc, nc);
        let shape = if rank3 { vec![2, rows / 2, f] } else { vec![rows, f] };
        let x = Tensor::randn(&shape, seed);
        let wt = Tensor::randn(&[out_f, f], seed ^ 0x11);
        let b = with_bias.then(|| bias(out_f));
        let (xd, wd) = (x.data(), wt.data());
        let mut want = vec![0.0f32; rows * out_f];
        for r in 0..rows {
            for o in 0..out_f {
                let dot: f32 = (0..f).map(|i| xd[r * f + i] * wd[o * f + i]).sum();
                want[r * out_f + o] = dot + b.as_ref().map_or(0.0, |b| b[o]);
            }
        }

        let mut scratch = vec![f32::NAN; linear_scratch_floats(rows, f, out_f, s)];
        let mut got = vec![f32::NAN; rows * out_f];
        linear_into(x.view(), &wt, b.as_deref(), &mut got, &mut scratch, s);
        if let Err(e) = close(&got, &want, f) {
            return Err(TestCaseError::Fail(format!("{shape:?} → {out_f} {s:?}: {e}")));
        }
    }

    #[test]
    fn matmul_into_matches_reference_under_any_schedule(
        bt in 1usize..4,
        mi in 0usize..6,
        ki in 0usize..6,
        ni in 0usize..6,
        variant in 0usize..3,
        kc in 1usize..300,
        mc in 1usize..150,
        nc in 1usize..300,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let (ta, tb) = [(false, false), (false, true), (true, false)][variant];
        let s = schedule(kc, mc, nc);
        let a = Tensor::randn(&if ta { [bt, k, m] } else { [bt, m, k] }, seed);
        let b = Tensor::randn(&if tb { [bt, n, k] } else { [bt, k, n] }, seed ^ 0xA77E);
        let want = matmul_reference(&a, &b, ta, tb);

        let mut scratch = vec![f32::NAN; gemm_scratch_floats(m, k, n, s)];
        let mut got = vec![f32::NAN; want.numel()];
        matmul_into(a.view(), b.view(), ta, tb, &mut got, &mut scratch, s);
        if let Err(e) = close(&got, want.data(), k) {
            return Err(TestCaseError::Fail(format!(
                "batch {bt} m {m} k {k} n {n} ta {ta} tb {tb} {s:?}: {e}"
            )));
        }
    }
}
