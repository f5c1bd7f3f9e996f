//! Transformer kernels: batched matmul, layer normalization, head
//! split/merge permutations.
//!
//! Batched matmul routes every batch element through the packed [`gemm`]
//! (sharing its [`GemmSchedule`] blocking and [`gemm_scratch_floats`]
//! formula), so attention scores and context projections run on the same
//! cache-blocked microkernel as convolutions and linears. Batches execute
//! sequentially over one scratch reservation — the planner reserves the
//! single-GEMM pack-buffer size, not `batch ×` it.
//!
//! Layer normalization is a per-row op over the last dimension (rows =
//! volume / last-dim), which makes it legal to run in place: each row's
//! statistics are reduced before any element of that row is overwritten.
//!
//! `split_heads`/`merge_heads` are the pure permutation copies multi-head
//! attention needs: `[n, t, d]` ⇄ `[n·h, t, d/h]`. Folding the head count
//! into the batch dimension keeps every downstream op (batched matmul,
//! softmax) rank-3 and keeps graph rebatching trivial — the leading
//! dimension stays a multiple of the logical batch.

use crate::matmul::{gemm, gemm_scratch_floats, with_tl_scratch};
use crate::schedule::GemmSchedule;
use crate::tensor::{Tensor, TensorView};

/// The `(batch, m, k, n)` problem of one batched matmul, derived from the
/// operand shapes and transpose flags. Shared by the kernel, the scratch
/// formula, and the shape checks so they cannot disagree.
///
/// # Panics
/// Panics unless both operands have equal rank ≥ 2, identical leading
/// (batch) dimensions, and an agreeing contraction dimension. Both flags
/// set at once is rejected — no op in the workload needs `AᵀBᵀ`.
pub fn matmul_dims(
    a_shape: &[usize],
    b_shape: &[usize],
    transpose_a: bool,
    transpose_b: bool,
) -> (usize, usize, usize, usize) {
    assert!(!(transpose_a && transpose_b), "matmul supports at most one transposed operand");
    let r = a_shape.len();
    assert!(r >= 2, "matmul operands must have rank >= 2");
    assert_eq!(r, b_shape.len(), "matmul operand rank mismatch");
    assert_eq!(a_shape[..r - 2], b_shape[..r - 2], "matmul batch dims mismatch");
    let batch: usize = a_shape[..r - 2].iter().product();
    let (m, ka) = if transpose_a {
        (a_shape[r - 1], a_shape[r - 2])
    } else {
        (a_shape[r - 2], a_shape[r - 1])
    };
    let (kb, n) = if transpose_b {
        (b_shape[r - 1], b_shape[r - 2])
    } else {
        (b_shape[r - 2], b_shape[r - 1])
    };
    assert_eq!(ka, kb, "matmul contraction dim mismatch");
    (batch, m, ka, n)
}

/// Batched matmul into a preallocated buffer with explicit scratch of at
/// least [`gemm_scratch_floats`]`(m, k, n, schedule)` floats — one GEMM's
/// pack buffers, reused by every batch element in turn. The slab
/// executor's entry point.
///
/// `out[b] = A[b] (ᵀ) · B[b] (ᵀ)` for every leading-dim batch element;
/// `out` is overwritten, not accumulated into.
///
/// # Panics
/// Panics on shape mismatches (see [`matmul_dims`]), wrong `out` length,
/// or undersized scratch.
pub fn matmul_into(
    a: TensorView<'_>,
    b: TensorView<'_>,
    transpose_a: bool,
    transpose_b: bool,
    out: &mut [f32],
    scratch: &mut [f32],
    schedule: GemmSchedule,
) {
    let (batch, m, k, n) = matmul_dims(a.shape(), b.shape(), transpose_a, transpose_b);
    assert_eq!(out.len(), batch * m * n, "matmul output buffer length");
    // The underlying GEMMs accumulate (`out += A·B`); start from zeros.
    out.fill(0.0);
    let (ad, bd) = (a.data(), b.data());
    for (bi, o) in out.chunks_mut(m * n).enumerate() {
        let av = &ad[bi * m * k..(bi + 1) * m * k];
        let bv = &bd[bi * k * n..(bi + 1) * k * n];
        gemm(av, transpose_a, bv, transpose_b, o, m, k, n, scratch, schedule);
    }
}

/// Batched matmul returning a fresh tensor.
pub fn matmul(a: &Tensor, b: &Tensor, transpose_a: bool, transpose_b: bool) -> Tensor {
    let (_, m, k, n) = matmul_dims(a.shape(), b.shape(), transpose_a, transpose_b);
    let r = a.shape().len();
    let mut shape = a.shape()[..r - 2].to_vec();
    shape.push(m);
    shape.push(n);
    let mut out = Tensor::zeros(&shape);
    let s = GemmSchedule::DEFAULT;
    with_tl_scratch(gemm_scratch_floats(m, k, n, s), |scratch| {
        matmul_into(a.view(), b.view(), transpose_a, transpose_b, out.data_mut(), scratch, s);
    });
    out
}

/// Slow, obviously-correct batched matmul — the cross-validation oracle
/// for the packed path: a plain triple loop with explicit index math.
pub fn matmul_reference(a: &Tensor, b: &Tensor, transpose_a: bool, transpose_b: bool) -> Tensor {
    let (batch, m, k, n) = matmul_dims(a.shape(), b.shape(), transpose_a, transpose_b);
    let r = a.shape().len();
    let mut shape = a.shape()[..r - 2].to_vec();
    shape.push(m);
    shape.push(n);
    let mut out = Tensor::zeros(&shape);
    let (ad, bd, od) = (a.data(), b.data(), out.data_mut());
    for bi in 0..batch {
        let ao = bi * m * k;
        let bo = bi * k * n;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    let av = if transpose_a { ad[ao + kk * m + i] } else { ad[ao + i * k + kk] };
                    let bv = if transpose_b { bd[bo + j * k + kk] } else { bd[bo + kk * n + j] };
                    acc += av * bv;
                }
                od[(bi * m + i) * n + j] = acc;
            }
        }
    }
    out
}

/// Layer normalization over rows of `features` elements, in place — the
/// alias-aware executor's entry point when the input dies at this node.
/// Each row's mean/variance are fully reduced before the row is written,
/// so reusing the input's bytes is exact, not approximate.
///
/// # Panics
/// Panics unless `buf` divides evenly into rows of `scale.len()` and
/// `scale`/`bias` lengths agree.
pub fn layer_norm_inplace(buf: &mut [f32], scale: &[f32], bias: &[f32], eps: f32) {
    let f = scale.len();
    assert_eq!(f, bias.len(), "layernorm scale/bias length mismatch");
    assert!(f > 0 && buf.len().is_multiple_of(f), "layernorm row length mismatch");
    for row in buf.chunks_mut(f) {
        let mean = row.iter().sum::<f32>() / f as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / f as f32;
        let inv = (var + eps).sqrt().recip();
        for (x, (&s, &b)) in row.iter_mut().zip(scale.iter().zip(bias)) {
            *x = (*x - mean) * inv * s + b;
        }
    }
}

/// Layer normalization into a preallocated buffer. Rows are the last
/// dimension; any rank ≥ 2 input is accepted.
///
/// # Panics
/// Panics unless the last dimension equals `scale.len()` and `out`
/// matches the input volume.
pub fn layer_norm_into(
    input: TensorView<'_>,
    scale: &[f32],
    bias: &[f32],
    eps: f32,
    out: &mut [f32],
) {
    let shape = input.shape();
    assert!(shape.len() >= 2, "layernorm input must have rank >= 2");
    let f = *shape.last().expect("rank checked above");
    assert_eq!(f, scale.len(), "layernorm feature/scale mismatch");
    assert_eq!(out.len(), input.numel(), "layernorm output buffer length");
    out.copy_from_slice(input.data());
    layer_norm_inplace(out, scale, bias, eps);
}

/// [`layer_norm_into`] returning a fresh tensor.
pub fn layer_norm(input: &Tensor, scale: &[f32], bias: &[f32], eps: f32) -> Tensor {
    let mut out = Tensor::zeros(input.shape());
    layer_norm_into(input.view(), scale, bias, eps, out.data_mut());
    out
}

/// `[n, t, d]` → `[n·heads, t, d/heads]`: slice the model dimension into
/// heads and fold them into the batch dimension.
///
/// # Panics
/// Panics unless the input is 3-D, `d` divides by `heads`, and `out`
/// matches the volume.
pub fn split_heads_into(input: TensorView<'_>, heads: usize, out: &mut [f32]) {
    assert_eq!(input.shape().len(), 3, "split_heads expects a 3-D [n, t, d] input");
    let (n, t, d) = (input.dim(0), input.dim(1), input.dim(2));
    assert!(heads > 0 && d.is_multiple_of(heads), "model dim must divide by head count");
    assert_eq!(out.len(), n * t * d, "split_heads output buffer length");
    let dh = d / heads;
    let data = input.data();
    for bi in 0..n {
        for h in 0..heads {
            for ti in 0..t {
                let src = (bi * t + ti) * d + h * dh;
                let dst = ((bi * heads + h) * t + ti) * dh;
                out[dst..dst + dh].copy_from_slice(&data[src..src + dh]);
            }
        }
    }
}

/// Inverse of [`split_heads_into`]: `[n·heads, t, dh]` → `[n, t, heads·dh]`.
///
/// # Panics
/// Panics unless the input is 3-D, the leading dim divides by `heads`,
/// and `out` matches the volume.
pub fn merge_heads_into(input: TensorView<'_>, heads: usize, out: &mut [f32]) {
    assert_eq!(input.shape().len(), 3, "merge_heads expects a 3-D [n*h, t, dh] input");
    let (nh, t, dh) = (input.dim(0), input.dim(1), input.dim(2));
    assert!(heads > 0 && nh.is_multiple_of(heads), "leading dim must divide by head count");
    assert_eq!(out.len(), nh * t * dh, "merge_heads output buffer length");
    let n = nh / heads;
    let d = heads * dh;
    let data = input.data();
    for bi in 0..n {
        for h in 0..heads {
            for ti in 0..t {
                let src = ((bi * heads + h) * t + ti) * dh;
                let dst = (bi * t + ti) * d + h * dh;
                out[dst..dst + dh].copy_from_slice(&data[src..src + dh]);
            }
        }
    }
}

/// [`split_heads_into`] returning a fresh tensor.
pub fn split_heads(input: &Tensor, heads: usize) -> Tensor {
    let (n, t, d) = (input.dim(0), input.dim(1), input.dim(2));
    let mut out = Tensor::zeros(&[n * heads, t, d / heads]);
    split_heads_into(input.view(), heads, out.data_mut());
    out
}

/// [`merge_heads_into`] returning a fresh tensor.
pub fn merge_heads(input: &Tensor, heads: usize) -> Tensor {
    let (nh, t, dh) = (input.dim(0), input.dim(1), input.dim(2));
    let mut out = Tensor::zeros(&[nh / heads, t, heads * dh]);
    merge_heads_into(input.view(), heads, out.data_mut());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_matmul_matches_reference_all_variants() {
        let a = Tensor::randn(&[3, 5, 7], 11);
        // ta reinterprets `a` as [k=5, m=7]; tb stores b as [n, k].
        for (ta, tb, bshape) in
            [(false, false, [3, 7, 4]), (false, true, [3, 4, 7]), (true, false, [3, 5, 4])]
        {
            let b = Tensor::randn(&bshape, 13);
            let fast = matmul(&a, &b, ta, tb);
            let slow = matmul_reference(&a, &b, ta, tb);
            assert_eq!(fast.shape(), slow.shape(), "ta={ta} tb={tb}");
            assert!(fast.all_close(&slow, 1e-4), "ta={ta} tb={tb}");
        }
    }

    #[test]
    fn matmul_2d_degenerates_to_gemm() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b, false, false);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batches_are_independent() {
        let a = Tensor::randn(&[2, 3, 4], 1);
        let b = Tensor::randn(&[2, 4, 5], 2);
        let full = matmul(&a, &b, false, false);
        for bi in 0..2 {
            let a1 = Tensor::from_vec(&[1, 3, 4], a.data()[bi * 12..(bi + 1) * 12].to_vec());
            let b1 = Tensor::from_vec(&[1, 4, 5], b.data()[bi * 20..(bi + 1) * 20].to_vec());
            let c1 = matmul(&a1, &b1, false, false);
            assert_eq!(&full.data()[bi * 15..(bi + 1) * 15], c1.data());
        }
    }

    #[test]
    #[should_panic(expected = "at most one transposed operand")]
    fn double_transpose_is_rejected() {
        matmul_dims(&[2, 2], &[2, 2], true, true);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let x = Tensor::from_vec(&[2, 4], vec![1.0, 2.0, 3.0, 4.0, -10.0, 0.0, 10.0, 20.0]);
        let scale = [1.0f32; 4];
        let bias = [0.0f32; 4];
        let y = layer_norm(&x, &scale, &bias, 1e-5);
        for r in 0..2 {
            let row = &y.data()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_applies_scale_and_bias() {
        let x = Tensor::from_vec(&[1, 2], vec![0.0, 2.0]);
        // mean 1, var 1 → normalized = [-1, 1]
        let y = layer_norm(&x, &[3.0, 3.0], &[10.0, 10.0], 0.0);
        assert!((y.data()[0] - 7.0).abs() < 1e-4);
        assert!((y.data()[1] - 13.0).abs() < 1e-4);
    }

    #[test]
    fn layernorm_inplace_matches_into() {
        let x = Tensor::randn(&[3, 2, 5], 3);
        let scale: Vec<f32> = (0..5).map(|i| 0.5 + i as f32 * 0.1).collect();
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * -0.2).collect();
        let mut via_into = vec![0.0; x.numel()];
        layer_norm_into(x.view(), &scale, &bias, 1e-5, &mut via_into);
        let mut buf = x.data().to_vec();
        layer_norm_inplace(&mut buf, &scale, &bias, 1e-5);
        assert_eq!(buf, via_into);
    }

    #[test]
    fn split_then_merge_roundtrips() {
        let x = Tensor::randn(&[2, 3, 8], 5);
        let split = split_heads(&x, 4);
        assert_eq!(split.shape(), &[8, 3, 2]);
        let merged = merge_heads(&split, 4);
        assert_eq!(merged.shape(), x.shape());
        assert_eq!(merged.data(), x.data());
    }

    #[test]
    fn split_heads_places_head_slices() {
        // [1, 2, 4] with values 0..8; 2 heads of width 2.
        let x = Tensor::from_fn(&[1, 2, 4], |i| i as f32);
        let s = split_heads(&x, 2);
        assert_eq!(s.shape(), &[2, 2, 2]);
        // head 0: channels 0..2 of each timestep; head 1: channels 2..4.
        assert_eq!(s.data(), &[0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
    }
}
