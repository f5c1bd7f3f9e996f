//! Convolution kernels: im2col + SGEMM, pointwise fast path, transposed
//! convolution, and a naive reference implementation.
//!
//! Every kernel has one entry point, `conv2d_into`, that takes its output
//! buffer, its working memory — im2col columns plus GEMM pack buffers —
//! and its [`GemmSchedule`] from the caller. The matching
//! `*_scratch_floats` function computes, for the same schedule, exactly
//! how much working memory a given shape needs; the allocation planner
//! calls it to reserve slab scratch, so steady-state inference never
//! allocates. The allocating convenience form (`conv2d`) runs the default
//! schedule on a reusable thread-local buffer.

use rayon::prelude::*;

use crate::conv_out_dim;
use crate::matmul::{gemm, gemm_scratch_floats, with_tl_scratch, SyncPtr};
use crate::schedule::GemmSchedule;
use crate::tensor::{Tensor, TensorView};

/// Hyper-parameters of a 2-D convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Zero padding `(ph, pw)`.
    pub padding: (usize, usize),
    /// Channel groups (`1` = dense, `c_in` = depthwise).
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams { stride: (1, 1), padding: (0, 0), groups: 1 }
    }
}

impl Conv2dParams {
    /// Dense convolution with symmetric stride/padding.
    pub fn new(stride: usize, padding: usize) -> Self {
        Conv2dParams { stride: (stride, stride), padding: (padding, padding), groups: 1 }
    }

    /// Output spatial dims for an input of `(h, w)` and kernel `(kh, kw)`.
    pub fn out_hw(&self, h: usize, w: usize, kh: usize, kw: usize) -> (usize, usize) {
        (
            conv_out_dim(h, kh, self.stride.0, self.padding.0),
            conv_out_dim(w, kw, self.stride.1, self.padding.1),
        )
    }

    fn is_pointwise(&self, kh: usize, kw: usize) -> bool {
        kh == 1 && kw == 1 && self.stride == (1, 1) && self.padding == (0, 0) && self.groups == 1
    }
}

/// Working-memory floats a `conv2d` of these dimensions needs under
/// `schedule`: the im2col column matrix (shared across batch elements and
/// groups) plus the schedule-sized GEMM pack buffers; the pointwise fast
/// path needs only the latter. Mirrors the dispatch in [`conv2d_into`]
/// exactly — the planner and the kernel must agree byte-for-byte.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_scratch_floats(
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
    schedule: GemmSchedule,
) -> usize {
    if p.is_pointwise(kh, kw) {
        return gemm_scratch_floats(c_out, c_in, h * w, schedule);
    }
    let (oh, ow) = p.out_hw(h, w, kh, kw);
    let c_in_g = c_in / p.groups;
    let c_out_g = c_out / p.groups;
    let col_rows = c_in_g * kh * kw;
    col_rows * oh * ow + gemm_scratch_floats(c_out_g, col_rows, oh * ow, schedule)
}

/// 2-D convolution. `input` is `[n, c_in, h, w]`, `weight` is
/// `[c_out, c_in/groups, kh, kw]`, `bias` is `[c_out]` if present.
///
/// Dispatches to a pointwise SGEMM for 1×1/stride-1/dense kernels — the
/// layout every decomposed sequence's `fconv`/`lconv` has — and to
/// im2col + SGEMM otherwise.
///
/// # Panics
/// Panics on shape inconsistencies.
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: Option<&[f32]>, p: &Conv2dParams) -> Tensor {
    let (n, c_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (c_out, kh, kw) = (weight.dim(0), weight.dim(2), weight.dim(3));
    let (oh, ow) = p.out_hw(h, w, kh, kw);
    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let s = GemmSchedule::DEFAULT;
    with_tl_scratch(conv2d_scratch_floats(c_in, h, w, c_out, kh, kw, p, s), |scratch| {
        conv2d_into(input.view(), weight, bias, p, out.data_mut(), scratch, s);
    });
    out
}

/// [`conv2d`] writing into a preallocated output buffer of exactly
/// `n × c_out × oh × ow` elements, with explicit working memory of at
/// least [`conv2d_scratch_floats`] floats for the *same* `schedule` — the
/// slab executor's entry point.
///
/// # Panics
/// Panics on shape inconsistencies, wrong `out` length, or undersized
/// scratch.
pub fn conv2d_into(
    input: TensorView<'_>,
    weight: &Tensor,
    bias: Option<&[f32]>,
    p: &Conv2dParams,
    out: &mut [f32],
    scratch: &mut [f32],
    schedule: GemmSchedule,
) {
    assert_eq!(input.shape().len(), 4, "conv2d input must be 4-D");
    assert_eq!(weight.shape().len(), 4, "conv2d weight must be 4-D");
    let (n, c_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (c_out, c_in_g, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    assert_eq!(c_in_g * p.groups, c_in, "groups/channel mismatch");
    assert_eq!(c_out % p.groups, 0, "c_out must divide by groups");
    if let Some(b) = bias {
        assert_eq!(b.len(), c_out, "bias length mismatch");
    }
    let (oh, ow) = p.out_hw(h, w, kh, kw);
    assert_eq!(out.len(), n * c_out * oh * ow, "conv2d output buffer length");
    assert!(
        scratch.len() >= conv2d_scratch_floats(c_in, h, w, c_out, kh, kw, p, schedule),
        "conv2d scratch undersized"
    );

    if p.is_pointwise(kh, kw) {
        return pointwise_into(input, weight, bias, out, scratch, schedule);
    }

    let c_out_g = c_out / p.groups;
    let col_rows = c_in_g * kh * kw;
    let (col, gemm_scratch) = scratch.split_at_mut(col_rows * oh * ow);
    let in_plane = h * w;
    let out_plane = oh * ow;
    for b_i in 0..n {
        for g in 0..p.groups {
            im2col(
                &input.data()[(b_i * c_in + g * c_in_g) * in_plane..],
                col,
                c_in_g,
                h,
                w,
                kh,
                kw,
                p.stride,
                p.padding,
                oh,
                ow,
            );
            let w_slice = &weight.data()[g * c_out_g * col_rows..(g + 1) * c_out_g * col_rows];
            let out_off = (b_i * c_out + g * c_out_g) * out_plane;
            let out_slice = &mut out[out_off..out_off + c_out_g * out_plane];
            if let Some(b) = bias {
                for (co, chunk) in out_slice.chunks_mut(out_plane).enumerate() {
                    chunk.fill(b[g * c_out_g + co]);
                }
            } else {
                out_slice.fill(0.0);
            }
            gemm(
                w_slice,
                false,
                col,
                false,
                out_slice,
                c_out_g,
                col_rows,
                out_plane,
                gemm_scratch,
                schedule,
            );
        }
    }
}

/// Fast path: 1×1 dense convolution is one SGEMM per batch element.
fn pointwise_into(
    input: TensorView<'_>,
    weight: &Tensor,
    bias: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
    schedule: GemmSchedule,
) {
    let (n, c_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let c_out = weight.dim(0);
    let plane = h * w;
    for b_i in 0..n {
        let in_slice = &input.data()[b_i * c_in * plane..(b_i + 1) * c_in * plane];
        let out_slice = &mut out[b_i * c_out * plane..(b_i + 1) * c_out * plane];
        if let Some(b) = bias {
            for (co, chunk) in out_slice.chunks_mut(plane).enumerate() {
                chunk.fill(b[co]);
            }
        } else {
            out_slice.fill(0.0);
        }
        gemm(
            weight.data(),
            false,
            in_slice,
            false,
            out_slice,
            c_out,
            c_in,
            plane,
            scratch,
            schedule,
        );
    }
}

/// Unpack convolution windows into a `[c_in_g*kh*kw, oh*ow]` column
/// matrix, parallel over output rows: each worker fills the disjoint
/// `ohi`-th `ow`-segment of every column row. The caller reuses `col`
/// across batch elements and groups.
#[allow(clippy::too_many_arguments)]
fn im2col(
    input: &[f32],
    col: &mut [f32],
    c_in_g: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: (usize, usize),
    padding: (usize, usize),
    oh: usize,
    ow: usize,
) {
    let (sh, sw) = stride;
    let (ph, pw) = padding;
    let out_plane = oh * ow;
    let col_ptr = SyncPtr(col.as_mut_ptr());
    let fill_row = |ohi: usize| {
        for ci in 0..c_in_g {
            let plane = &input[ci * h * w..(ci + 1) * h * w];
            for khi in 0..kh {
                let ih = (ohi * sh + khi) as isize - ph as isize;
                for kwi in 0..kw {
                    let row = ((ci * kh + khi) * kw + kwi) * out_plane;
                    // SAFETY: segment `[row + ohi*ow, row + (ohi+1)*ow)` is
                    // owned exclusively by this `ohi` job.
                    let dst =
                        unsafe { std::slice::from_raw_parts_mut(col_ptr.add(row + ohi * ow), ow) };
                    if ih < 0 || ih as usize >= h {
                        dst.fill(0.0);
                        continue;
                    }
                    let src_row = &plane[ih as usize * w..(ih as usize + 1) * w];
                    for (owi, d) in dst.iter_mut().enumerate() {
                        let iw = (owi * sw + kwi) as isize - pw as isize;
                        *d = if iw < 0 || iw as usize >= w { 0.0 } else { src_row[iw as usize] };
                    }
                }
            }
        }
    };
    // Below ~64 KiB of column data the parallel dispatch isn't worth it.
    if c_in_g * kh * kw * out_plane < 16 * 1024 {
        for ohi in 0..oh {
            fill_row(ohi);
        }
    } else {
        (0..oh).into_par_iter().for_each(fill_row);
    }
}

/// Naive direct convolution used as the correctness oracle in tests.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    p: &Conv2dParams,
) -> Tensor {
    let (n, c_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (c_out, c_in_g, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    let (oh, ow) = p.out_hw(h, w, kh, kw);
    let c_out_g = c_out / p.groups;
    assert_eq!(c_in_g * p.groups, c_in);
    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    for b_i in 0..n {
        for co in 0..c_out {
            let g = co / c_out_g;
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b[co]);
                    for ci in 0..c_in_g {
                        for khi in 0..kh {
                            for kwi in 0..kw {
                                let ih = (ohi * p.stride.0 + khi) as isize - p.padding.0 as isize;
                                let iw = (owi * p.stride.1 + kwi) as isize - p.padding.1 as isize;
                                if ih < 0 || iw < 0 || ih as usize >= h || iw as usize >= w {
                                    continue;
                                }
                                acc += input.at4(b_i, g * c_in_g + ci, ih as usize, iw as usize)
                                    * weight.at4(co, ci, khi, kwi);
                            }
                        }
                    }
                    *out.at4_mut(b_i, co, ohi, owi) = acc;
                }
            }
        }
    }
    out
}

/// Working-memory floats a `conv_transpose2d` of these dimensions needs
/// under `schedule`: the `[c_out·kh·kw, h·w]` column matrix produced by
/// the GEMM plus the schedule-sized GEMM pack buffers.
pub fn conv_transpose2d_scratch_floats(
    c_in: usize,
    c_out: usize,
    kh: usize,
    kw: usize,
    h: usize,
    w: usize,
    schedule: GemmSchedule,
) -> usize {
    let col_rows = c_out * kh * kw;
    col_rows * h * w + gemm_scratch_floats(col_rows, c_in, h * w, schedule)
}

/// Transposed (up-)convolution, `weight` is `[c_in, c_out, kh, kw]`.
///
/// Only the UNet-style configuration (no padding) is needed. Computed as
/// one GEMM per batch element — `col[c_out·kh·kw, h·w] = Wᵀ · X` with the
/// stored weight read as `[c_in, c_out·kh·kw]` — followed by a col2im
/// scatter-add, which replaces the old direct scatter and its
/// data-dependent zero-skip branch.
pub fn conv_transpose2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
) -> Tensor {
    let (n, c_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (c_out, kh, kw) = (weight.dim(1), weight.dim(2), weight.dim(3));
    let oh = (h - 1) * stride.0 + kh;
    let ow = (w - 1) * stride.1 + kw;
    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let s = GemmSchedule::DEFAULT;
    with_tl_scratch(conv_transpose2d_scratch_floats(c_in, c_out, kh, kw, h, w, s), |scratch| {
        conv_transpose2d_into(input.view(), weight, bias, stride, out.data_mut(), scratch, s);
    });
    out
}

/// [`conv_transpose2d`] writing into a preallocated output buffer, with
/// explicit working memory of at least [`conv_transpose2d_scratch_floats`]
/// floats for the *same* `schedule`.
///
/// # Panics
/// Panics on channel mismatches, wrong `out` length, or undersized
/// scratch.
pub fn conv_transpose2d_into(
    input: TensorView<'_>,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: (usize, usize),
    out: &mut [f32],
    scratch: &mut [f32],
    schedule: GemmSchedule,
) {
    let (n, c_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let (w_cin, c_out, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
    assert_eq!(c_in, w_cin, "conv_transpose2d channel mismatch");
    let (sh, sw) = stride;
    let oh = (h - 1) * sh + kh;
    let ow = (w - 1) * sw + kw;
    let plane = oh * ow;
    assert_eq!(out.len(), n * c_out * plane, "conv_transpose2d output buffer length");
    assert!(
        scratch.len() >= conv_transpose2d_scratch_floats(c_in, c_out, kh, kw, h, w, schedule),
        "conv_transpose2d scratch undersized"
    );
    match bias {
        Some(b) => {
            for b_i in 0..n {
                for (co, &bv) in b.iter().enumerate() {
                    let off = (b_i * c_out + co) * plane;
                    out[off..off + plane].fill(bv);
                }
            }
        }
        None => out.fill(0.0),
    }

    let col_rows = c_out * kh * kw;
    let in_plane = h * w;
    let (col, gemm_scratch) = scratch.split_at_mut(col_rows * in_plane);
    let out_ptr = SyncPtr(out.as_mut_ptr());
    for b_i in 0..n {
        // col = Wᵀ · X: the stored `[c_in, c_out, kh, kw]` weight is
        // exactly the `[k × m]` transposed-A operand with k = c_in.
        col.fill(0.0);
        let x = &input.data()[b_i * c_in * in_plane..(b_i + 1) * c_in * in_plane];
        gemm(weight.data(), true, x, false, col, col_rows, c_in, in_plane, gemm_scratch, schedule);
        // col2im scatter-add, parallel over output channels: each worker
        // owns one `[oh, ow]` output plane.
        (0..c_out).into_par_iter().for_each(|co| {
            let dst_base = (b_i * c_out + co) * plane;
            for khi in 0..kh {
                for kwi in 0..kw {
                    let crow = &col[((co * kh + khi) * kw + kwi) * in_plane..][..in_plane];
                    for hi in 0..h {
                        let oy = hi * sh + khi;
                        let src = &crow[hi * w..(hi + 1) * w];
                        for (wi, &v) in src.iter().enumerate() {
                            // SAFETY: plane `co` is owned by this worker;
                            // `oy < oh`, `wi*sw + kwi < ow` by construction.
                            unsafe {
                                *out_ptr.add(dst_base + oy * ow + wi * sw + kwi) += v;
                            }
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(shape: &[usize], seed: u64) -> Tensor {
        Tensor::randn(shape, seed)
    }

    #[test]
    fn im2col_matches_direct_dense() {
        let input = rt(&[2, 3, 8, 8], 1);
        let weight = rt(&[5, 3, 3, 3], 2);
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let p = Conv2dParams::new(1, 1);
        let a = conv2d(&input, &weight, Some(&bias), &p);
        let b = conv2d_direct(&input, &weight, Some(&bias), &p);
        assert!(a.all_close(&b, 1e-4), "diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn im2col_matches_direct_strided_padded() {
        let input = rt(&[1, 4, 11, 9], 3);
        let weight = rt(&[6, 4, 5, 3], 4);
        let p = Conv2dParams { stride: (2, 3), padding: (2, 1), groups: 1 };
        let a = conv2d(&input, &weight, None, &p);
        let b = conv2d_direct(&input, &weight, None, &p);
        assert!(a.all_close(&b, 1e-4));
    }

    #[test]
    fn grouped_conv_matches_direct() {
        let input = rt(&[2, 6, 7, 7], 5);
        let weight = rt(&[8, 3, 3, 3], 6); // groups=2: each group 3 in → 4 out
        let p = Conv2dParams { stride: (1, 1), padding: (1, 1), groups: 2 };
        let a = conv2d(&input, &weight, None, &p);
        let b = conv2d_direct(&input, &weight, None, &p);
        assert!(a.all_close(&b, 1e-4));
    }

    #[test]
    fn depthwise_conv_matches_direct() {
        let input = rt(&[1, 4, 6, 6], 7);
        let weight = rt(&[4, 1, 3, 1], 8); // depthwise, asymmetric kernel
        let p = Conv2dParams { stride: (1, 1), padding: (1, 0), groups: 4 };
        let a = conv2d(&input, &weight, None, &p);
        let b = conv2d_direct(&input, &weight, None, &p);
        assert!(a.all_close(&b, 1e-4));
    }

    #[test]
    fn pointwise_fast_path_matches_direct() {
        let input = rt(&[2, 16, 5, 5], 9);
        let weight = rt(&[4, 16, 1, 1], 10);
        let bias: Vec<f32> = (0..4).map(|i| i as f32).collect();
        let p = Conv2dParams::default();
        let a = conv2d(&input, &weight, Some(&bias), &p);
        let b = conv2d_direct(&input, &weight, Some(&bias), &p);
        assert!(a.all_close(&b, 1e-4));
        assert_eq!(a.shape(), &[2, 4, 5, 5]);
    }

    #[test]
    fn identity_pointwise_is_noop() {
        let input = rt(&[1, 3, 4, 4], 11);
        let mut weight = Tensor::zeros(&[3, 3, 1, 1]);
        for c in 0..3 {
            *weight.at4_mut(c, c, 0, 0) = 1.0;
        }
        let out = conv2d(&input, &weight, None, &Conv2dParams::default());
        assert!(out.all_close(&input, 1e-6));
    }

    #[test]
    fn explicit_scratch_matches_thread_local_path() {
        let input = rt(&[2, 5, 13, 11], 21);
        let weight = rt(&[7, 5, 3, 3], 22);
        let p = Conv2dParams::new(1, 1);
        let a = conv2d(&input, &weight, None, &p);
        let s = GemmSchedule::DEFAULT;
        let mut scratch = vec![0.0f32; conv2d_scratch_floats(5, 13, 11, 7, 3, 3, &p, s)];
        let mut out = Tensor::zeros(a.shape());
        conv2d_into(input.view(), &weight, None, &p, out.data_mut(), &mut scratch, s);
        assert!(a.all_close(&out, 1e-6), "diff {}", a.max_abs_diff(&out));
    }

    #[test]
    fn conv_transpose_upsamples_2x() {
        let input = rt(&[1, 3, 5, 5], 12);
        let weight = rt(&[3, 2, 2, 2], 13);
        let out = conv_transpose2d(&input, &weight, None, (2, 2));
        assert_eq!(out.shape(), &[1, 2, 10, 10]);
    }

    #[test]
    fn conv_transpose_matches_direct_scatter() {
        // Oracle: the pre-GEMM direct scatter, written out longhand.
        let input = rt(&[2, 3, 6, 5], 31);
        let weight = rt(&[3, 4, 3, 2], 32);
        let bias: Vec<f32> = (0..4).map(|i| i as f32 * 0.25 - 0.5).collect();
        let (sh, sw) = (2, 3);
        let got = conv_transpose2d(&input, &weight, Some(&bias), (sh, sw));
        let (n, c_in, h, w) = (2, 3, 6, 5);
        let (c_out, kh, kw) = (4, 3, 2);
        let (oh, ow) = ((h - 1) * sh + kh, (w - 1) * sw + kw);
        let mut want = Tensor::zeros(&[n, c_out, oh, ow]);
        for b_i in 0..n {
            for (co, &bv) in bias.iter().enumerate() {
                for y in 0..oh {
                    for x in 0..ow {
                        *want.at4_mut(b_i, co, y, x) = bv;
                    }
                }
            }
            for ci in 0..c_in {
                for hi in 0..h {
                    for wi in 0..w {
                        let v = input.at4(b_i, ci, hi, wi);
                        for co in 0..c_out {
                            for khi in 0..kh {
                                for kwi in 0..kw {
                                    *want.at4_mut(b_i, co, hi * sh + khi, wi * sw + kwi) +=
                                        v * weight.at4(ci, co, khi, kwi);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(got.all_close(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn conv_transpose_is_adjoint_of_conv() {
        // <conv(x), y> == <x, conv_transpose(y)> for zero-pad, matching strides.
        let x = rt(&[1, 2, 6, 6], 14);
        let wt = rt(&[3, 2, 2, 2], 15); // conv weight [c_out=3, c_in=2, 2, 2]
        let p = Conv2dParams { stride: (2, 2), padding: (0, 0), groups: 1 };
        let cx = conv2d(&x, &wt, None, &p); // [1,3,3,3]
        let y = rt(cx.shape(), 16);
        // transpose weight layout for conv_transpose: [c_in=3, c_out=2, 2, 2]
        let mut wtt = Tensor::zeros(&[3, 2, 2, 2]);
        for a in 0..3 {
            for b in 0..2 {
                for i in 0..2 {
                    for j in 0..2 {
                        *wtt.at4_mut(a, b, i, j) = wt.at4(a, b, i, j);
                    }
                }
            }
        }
        let cty = conv_transpose2d(&y, &wtt, None, (2, 2));
        let lhs: f32 = cx.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(cty.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn alexnet_conv1_shape() {
        let input = Tensor::zeros(&[4, 3, 224, 224]);
        let weight = Tensor::zeros(&[64, 3, 11, 11]);
        let p = Conv2dParams::new(4, 2);
        let out = conv2d(&input, &weight, None, &p);
        assert_eq!(out.shape(), &[4, 64, 55, 55]);
    }
}
