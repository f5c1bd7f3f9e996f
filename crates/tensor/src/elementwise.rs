//! Elementwise ops, activations, per-channel affine, concat/add, linear,
//! softmax.

use crate::matmul::{gemm, gemm_scratch_floats, with_tl_scratch};
use crate::schedule::GemmSchedule;
use crate::tensor::{Tensor, TensorView};

/// The activation functions appearing between decomposed convolutions.
///
/// All of them are elementwise, which is exactly the property Section 3.2 of
/// the paper relies on: `lconv → activation → fconv` cannot be reordered, but
/// it *can* be computed tile-by-tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// Sigmoid-weighted linear unit (`x * sigmoid(x)`).
    Silu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActKind {
    /// Apply the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActKind::Relu => x.max(0.0),
            ActKind::Silu => x / (1.0 + (-x).exp()),
            ActKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActKind::Tanh => x.tanh(),
        }
    }

    /// Apply the activation to a whole tensor, returning a new one.
    pub fn forward(self, t: &Tensor) -> Tensor {
        t.map(|x| self.apply(x))
    }

    /// Apply the activation elementwise into a preallocated buffer.
    ///
    /// # Panics
    /// Panics if `out` and `input` lengths differ.
    pub fn forward_into(self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), out.len(), "activation buffer length mismatch");
        for (o, &x) in out.iter_mut().zip(input) {
            *o = self.apply(x);
        }
    }

    /// Apply the activation to a buffer in place — the alias-aware
    /// executor's entry point when the input's liveness ends at this node
    /// and the output reuses its bytes.
    pub fn forward_inplace(self, buf: &mut [f32]) {
        for x in buf.iter_mut() {
            *x = self.apply(*x);
        }
    }
}

/// Per-channel affine map `y = x · scale[c] + bias[c]` over an NCHW tensor
/// (an inference-mode batch norm), returning a new tensor.
pub fn affine(input: &Tensor, scale: &[f32], bias: &[f32]) -> Tensor {
    let mut out = Tensor::zeros(input.shape());
    affine_into(input.view(), scale, bias, out.data_mut());
    out
}

/// [`affine`] writing into a preallocated output buffer.
///
/// # Panics
/// Panics unless the input is 4-D with `scale.len()` channels, `bias`
/// matches `scale`, and `out` matches the input volume.
pub fn affine_into(input: TensorView<'_>, scale: &[f32], bias: &[f32], out: &mut [f32]) {
    assert_eq!(input.shape().len(), 4, "affine expects a 4-D NCHW tensor");
    assert_eq!(input.dim(1), scale.len(), "affine channel/scale mismatch");
    assert_eq!(out.len(), input.numel(), "affine output buffer length");
    out.copy_from_slice(input.data());
    affine_inplace(out, scale, bias, input.dim(2) * input.dim(3));
}

/// [`affine`] over an NCHW buffer in place, `plane` = H·W elements per
/// channel — the alias-aware executor's entry point when the input dies at
/// this node and the output reuses its bytes.
///
/// # Panics
/// Panics unless `scale`/`bias` lengths agree and `buf` divides evenly into
/// `plane`-sized channel planes, a whole number of batches of `scale.len()`.
pub fn affine_inplace(buf: &mut [f32], scale: &[f32], bias: &[f32], plane: usize) {
    assert_eq!(scale.len(), bias.len(), "affine scale/bias length mismatch");
    let channel_block = scale.len() * plane;
    assert!(
        channel_block > 0 && buf.len().is_multiple_of(channel_block),
        "affine buffer is not a whole number of [C, H·W] batches"
    );
    for (chan, (&s, &b)) in buf.chunks_mut(plane).zip(scale.iter().zip(bias).cycle()) {
        for x in chan {
            *x = *x * s + b;
        }
    }
}

/// Elementwise sum of two same-shaped tensors.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add shape mismatch");
    let data = a.data().iter().zip(b.data()).map(|(x, y)| x + y).collect();
    Tensor::from_vec(a.shape(), data)
}

/// Elementwise sum of `n ≥ 1` same-length operands into a preallocated
/// buffer. Unlike folding binary [`add`]s, no intermediate sums exist —
/// exactly what the slab executor wants for n-ary `Add` nodes.
///
/// # Panics
/// Panics if the list is empty or any length disagrees with `out`.
pub fn add_n_into(inputs: &[&[f32]], out: &mut [f32]) {
    add_n_into_iter(inputs.iter().copied(), out);
}

/// [`add_n_into`] over any re-iterable source of operand slices, so
/// dispatchers can feed graph inputs straight through without collecting
/// them into a temporary `Vec` first.
///
/// # Panics
/// Panics if the iterator is empty or any length disagrees with `out`.
pub fn add_n_into_iter<'a, I>(inputs: I, out: &mut [f32])
where
    I: Iterator<Item = &'a [f32]> + Clone,
{
    let mut first = true;
    for x in inputs {
        assert_eq!(x.len(), out.len(), "add operand length mismatch");
        if first {
            out.copy_from_slice(x);
            first = false;
        } else {
            for (o, &v) in out.iter_mut().zip(x) {
                *o += v;
            }
        }
    }
    assert!(!first, "add of empty list");
}

/// Accumulate operand slices into `out` with `+=` — no initial copy. The
/// alias-aware executor calls this when an n-ary `Add` runs in place over
/// one dying operand: `out` already holds that operand's values and the
/// *remaining* operands are summed on top.
///
/// # Panics
/// Panics if any operand length disagrees with `out`. An empty iterator is
/// fine (an add in place over its only operand is the identity).
pub fn add_n_assign_iter<'a, I>(inputs: I, out: &mut [f32])
where
    I: Iterator<Item = &'a [f32]>,
{
    for x in inputs {
        assert_eq!(x.len(), out.len(), "add operand length mismatch");
        for (o, &v) in out.iter_mut().zip(x) {
            *o += v;
        }
    }
}

/// Concatenate 4-D tensors along the channel axis.
///
/// # Panics
/// Panics if batch/spatial dims disagree or the list is empty.
pub fn concat_channels(tensors: &[&Tensor]) -> Tensor {
    assert!(!tensors.is_empty(), "concat of empty list");
    let views: Vec<TensorView<'_>> = tensors.iter().map(|t| t.view()).collect();
    let (n, h, w) = (views[0].dim(0), views[0].dim(2), views[0].dim(3));
    let c_total: usize = views.iter().map(|v| v.dim(1)).sum();
    let mut out = Tensor::zeros(&[n, c_total, h, w]);
    concat_channels_into(&views, out.data_mut());
    out
}

/// [`concat_channels`] writing into a preallocated output buffer.
///
/// # Panics
/// Panics if batch/spatial dims disagree, the list is empty, or `out` has
/// the wrong length.
pub fn concat_channels_into(views: &[TensorView<'_>], out: &mut [f32]) {
    concat_channels_into_iter(views.iter().copied(), out);
}

/// [`concat_channels_into`] over any re-iterable source of views — the
/// iterator is walked once to validate shapes and once per batch element
/// to copy, so dispatchers need no temporary `Vec` of views.
///
/// # Panics
/// Panics if batch/spatial dims disagree, the iterator is empty, or `out`
/// has the wrong length.
pub fn concat_channels_into_iter<'a, I>(views: I, out: &mut [f32])
where
    I: Iterator<Item = TensorView<'a>> + Clone,
{
    let mut it = views.clone();
    let first = it.next().expect("concat of empty list");
    assert_eq!(first.shape().len(), 4, "concat expects 4-D tensors");
    let (n, h, w) = (first.dim(0), first.dim(2), first.dim(3));
    let mut c_total = first.dim(1);
    for t in it {
        assert_eq!(t.dim(0), n, "concat batch mismatch");
        assert_eq!(t.dim(2), h, "concat height mismatch");
        assert_eq!(t.dim(3), w, "concat width mismatch");
        c_total += t.dim(1);
    }
    let plane = h * w;
    assert_eq!(out.len(), n * c_total * plane, "concat output buffer length");
    for b in 0..n {
        let mut c_off = 0;
        for t in views.clone() {
            let c = t.dim(1);
            let src = &t.data()[b * c * plane..(b + 1) * c * plane];
            let dst_off = (b * c_total + c_off) * plane;
            out[dst_off..dst_off + c * plane].copy_from_slice(src);
            c_off += c;
        }
    }
}

/// Fully connected layer: `input [..., f] × weightᵀ [f, out] + bias`.
///
/// `weight` is `[out_features, in_features]` (PyTorch convention). The
/// contraction runs over the last dimension; any leading dimensions are
/// treated as rows (`[n, t, f] → [n, t, out]` for transformer blocks).
pub fn linear(input: &Tensor, weight: &Tensor, bias: Option<&[f32]>) -> Tensor {
    let mut shape = input.shape().to_vec();
    let f = *shape.last().expect("linear input must have rank >= 1");
    let n = input.numel() / f.max(1);
    let out_f = weight.dim(0);
    *shape.last_mut().expect("rank checked above") = out_f;
    let mut out = Tensor::zeros(&shape);
    let s = GemmSchedule::DEFAULT;
    with_tl_scratch(linear_scratch_floats(n, f, out_f, s), |scratch| {
        linear_into(input.view(), weight, bias, out.data_mut(), scratch, s);
    });
    out
}

/// Working-memory floats a `linear` of these dimensions needs under
/// `schedule` (the GEMM pack buffers; the stored weight multiplies in
/// place as the transposed GEMM operand, so no transpose copy exists).
pub fn linear_scratch_floats(n: usize, in_f: usize, out_f: usize, schedule: GemmSchedule) -> usize {
    gemm_scratch_floats(n, in_f, out_f, schedule)
}

/// [`linear`] writing into a preallocated output buffer, with explicit
/// working memory of at least [`linear_scratch_floats`] floats for the
/// *same* `schedule` — the slab executor's entry point. The
/// `[out_features, in_features]` weight is consumed directly as the
/// transposed GEMM operand; no transpose copy is materialized.
///
/// # Panics
/// Panics on shape mismatches, wrong `out` length, or undersized scratch.
pub fn linear_into(
    input: TensorView<'_>,
    weight: &Tensor,
    bias: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
    schedule: GemmSchedule,
) {
    assert!(input.shape().len() >= 2, "linear input must have rank >= 2");
    assert_eq!(weight.shape().len(), 2, "linear weight must be 2-D");
    // Leading dims collapse into GEMM rows: the contraction is over the
    // last dimension regardless of rank.
    let f = *input.shape().last().expect("rank checked above");
    let n = input.numel() / f;
    let (out_f, w_f) = (weight.dim(0), weight.dim(1));
    assert_eq!(f, w_f, "linear feature mismatch");
    assert_eq!(out.len(), n * out_f, "linear output buffer length");
    match bias {
        Some(b) => {
            assert_eq!(b.len(), out_f, "linear bias mismatch");
            for row in out.chunks_mut(out_f) {
                row.copy_from_slice(b);
            }
        }
        None => out.fill(0.0),
    }
    // out[n, out_f] += input[n, f] · weight[out_f, f]ᵀ
    gemm(input.data(), false, weight.data(), true, out, n, f, out_f, scratch, schedule);
}

/// Softmax over the last dimension of a rank-≥-2 tensor: every other
/// dimension indexes an independent row (rows = volume / last-dim).
pub fn softmax_lastdim(input: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(input.shape());
    softmax_lastdim_into(input.view(), out.data_mut());
    out
}

/// [`softmax_lastdim`] writing into a preallocated output buffer.
///
/// # Panics
/// Panics unless the input has rank ≥ 2 and `out` matches its volume.
pub fn softmax_lastdim_into(input: TensorView<'_>, out: &mut [f32]) {
    assert!(input.shape().len() >= 2, "softmax input must have rank >= 2");
    let f = *input.shape().last().expect("rank checked above");
    assert_eq!(out.len(), input.numel(), "softmax output buffer length");
    out.copy_from_slice(input.data());
    softmax_lastdim_inplace(out, f);
}

/// Softmax over rows of `features` elements, normalizing `buf` in place —
/// the alias-aware executor's entry point when the logits die at the
/// softmax and the probabilities reuse their bytes.
///
/// # Panics
/// Panics unless `buf` divides evenly into rows of `features`.
pub fn softmax_lastdim_inplace(buf: &mut [f32], features: usize) {
    assert!(features > 0 && buf.len().is_multiple_of(features), "softmax row length mismatch");
    for row in buf.chunks_mut(features) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives() {
        let t = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(ActKind::Relu.forward(&t).data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn silu_matches_definition() {
        let x = 1.3f32;
        let got = ActKind::Silu.apply(x);
        assert!((got - x / (1.0 + (-x).exp())).abs() < 1e-7);
        assert_eq!(ActKind::Silu.apply(0.0), 0.0);
    }

    #[test]
    fn sigmoid_bounds() {
        assert!((ActKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
        assert!(ActKind::Sigmoid.apply(20.0) > 0.999);
        assert!(ActKind::Sigmoid.apply(-20.0) < 0.001);
    }

    #[test]
    fn affine_forms_agree_with_the_per_channel_definition() {
        let x = Tensor::randn(&[2, 3, 2, 5], 7);
        let (scale, bias) = ([2.0f32, -0.5, 3.0], [1.0f32, 0.25, -2.0]);
        let want = Tensor::from_fn(&[2, 3, 2, 5], |i| {
            let c = (i / 10) % 3;
            x.data()[i] * scale[c] + bias[c]
        });
        let mut via_into = vec![0.0; x.numel()];
        affine_into(x.view(), &scale, &bias, &mut via_into);
        let mut via_inplace = x.data().to_vec();
        affine_inplace(&mut via_inplace, &scale, &bias, 10);
        assert_eq!(affine(&x, &scale, &bias).data(), want.data());
        assert_eq!(via_into, want.data());
        assert_eq!(via_inplace, want.data());
    }

    #[test]
    fn add_elementwise() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(add(&a, &b).data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn concat_stacks_channels_per_batch() {
        let a = Tensor::from_fn(&[2, 1, 2, 2], |i| i as f32);
        let b = Tensor::from_fn(&[2, 2, 2, 2], |i| 100.0 + i as f32);
        let c = concat_channels(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 3, 2, 2]);
        // batch 0: a channels then b channels
        assert_eq!(c.at4(0, 0, 0, 0), 0.0);
        assert_eq!(c.at4(0, 1, 0, 0), 100.0);
        assert_eq!(c.at4(0, 2, 0, 0), 104.0);
        // batch 1
        assert_eq!(c.at4(1, 0, 0, 0), 4.0);
        assert_eq!(c.at4(1, 1, 0, 0), 108.0);
    }

    #[test]
    fn linear_matches_manual() {
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let w = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let b = [0.5f32, -0.5];
        let y = linear(&x, &w, Some(&b));
        assert_eq!(y.data(), &[1.5, 4.5]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_lastdim(&x);
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // monotone in logits
        assert!(s.data()[2] > s.data()[1]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        // Without the max-subtraction trick these would overflow to NaN.
        let x = Tensor::from_vec(&[1, 3], vec![1000.0, 999.0, 998.0]);
        let s = softmax_lastdim(&x);
        assert!(s.data().iter().all(|v| v.is_finite()));
        let sum: f32 = s.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s.data()[0] > s.data()[1]);
    }

    #[test]
    fn tanh_saturates_symmetrically() {
        assert!((ActKind::Tanh.apply(10.0) - 1.0).abs() < 1e-4);
        assert!((ActKind::Tanh.apply(-10.0) + 1.0).abs() < 1e-4);
        assert_eq!(ActKind::Tanh.apply(0.0), 0.0);
    }

    #[test]
    fn concat_of_three_tensors() {
        let a = Tensor::zeros(&[1, 1, 2, 2]);
        let b = Tensor::from_fn(&[1, 2, 2, 2], |_| 1.0);
        let c = Tensor::from_fn(&[1, 1, 2, 2], |_| 2.0);
        let out = concat_channels(&[&a, &b, &c]);
        assert_eq!(out.shape(), &[1, 4, 2, 2]);
        assert_eq!(out.at4(0, 0, 0, 0), 0.0);
        assert_eq!(out.at4(0, 1, 0, 0), 1.0);
        assert_eq!(out.at4(0, 3, 0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "add shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        let _ = add(&a, &b);
    }

    #[test]
    fn forward_inplace_matches_forward_into() {
        let input: Vec<f32> = (-4..4).map(|i| i as f32 * 0.7).collect();
        for kind in [ActKind::Relu, ActKind::Silu, ActKind::Sigmoid, ActKind::Tanh] {
            let mut via_into = vec![0.0; input.len()];
            kind.forward_into(&input, &mut via_into);
            let mut buf = input.clone();
            kind.forward_inplace(&mut buf);
            assert_eq!(buf, via_into, "{kind:?}");
        }
    }

    #[test]
    fn add_assign_accumulates_without_initial_copy() {
        // Simulates the in-place add: `out` starts as the dying operand.
        let mut out = vec![1.0f32, 2.0, 3.0];
        add_n_assign_iter([[10.0f32, 20.0, 30.0].as_slice()].into_iter(), &mut out);
        assert_eq!(out, &[11.0, 22.0, 33.0]);
        // Empty operand list: the add over its only (in-place) operand.
        add_n_assign_iter(std::iter::empty(), &mut out);
        assert_eq!(out, &[11.0, 22.0, 33.0]);
    }

    /// Per-row naive softmax oracle: independent exp-normalize per
    /// last-dim row, no shared state with the production kernel.
    fn naive_softmax_rows(data: &[f32], f: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len());
        for row in data.chunks(f) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            out.extend(exps.iter().map(|&e| e / sum));
        }
        out
    }

    #[test]
    fn softmax_is_lastdim_on_higher_ranks() {
        // Regression for the softmax-axis bug: the in-place executor path
        // used to normalize over `shape[1]`-sized chunks, which is only
        // the last dim for rank 2. Pin 3-D and 4-D against the per-row
        // oracle, in-place and out-of-place.
        for shape in [vec![2usize, 3, 5], vec![2, 3, 2, 4]] {
            let x = Tensor::randn(&shape, 17);
            let f = *shape.last().unwrap();
            let want = naive_softmax_rows(x.data(), f);
            let via_fn = softmax_lastdim(&x);
            assert_eq!(via_fn.shape(), shape.as_slice());
            let mut via_into = vec![0.0; x.numel()];
            softmax_lastdim_into(x.view(), &mut via_into);
            let mut via_inplace = x.data().to_vec();
            softmax_lastdim_inplace(&mut via_inplace, f);
            for (got, &w) in
                [via_fn.data(), &via_into, &via_inplace].iter().flat_map(|g| g.iter().zip(&want))
            {
                assert!((got - w).abs() < 1e-6, "shape {shape:?}");
            }
            // The wrong axis would leave some row sums != 1.
            let wrong_axis = shape[1];
            if wrong_axis != f {
                let wrong: f32 = via_into[..wrong_axis].iter().sum();
                let right: f32 = via_into[..f].iter().sum();
                assert!((right - 1.0).abs() < 1e-5);
                assert!((wrong - 1.0).abs() > 1e-3 || wrong_axis % f == 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank >= 2")]
    fn softmax_rejects_rank_1() {
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let _ = softmax_lastdim(&x);
    }

    #[test]
    fn linear_rank3_matches_flattened_rows() {
        // [2, 3, 4] input behaves as 6 rows of 4 features.
        let x = Tensor::randn(&[2, 3, 4], 21);
        let w = Tensor::randn(&[5, 4], 22);
        let b: Vec<f32> = (0..5).map(|i| i as f32 * 0.3).collect();
        let y3 = linear(&x, &w, Some(&b));
        assert_eq!(y3.shape(), &[2, 3, 5]);
        let x2 = x.reshape(&[6, 4]);
        let y2 = linear(&x2, &w, Some(&b));
        assert_eq!(y3.data(), y2.data());
    }

    #[test]
    fn softmax_inplace_matches_into() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let mut via_into = vec![0.0; 6];
        softmax_lastdim_into(x.view(), &mut via_into);
        let mut buf = x.data().to_vec();
        softmax_lastdim_inplace(&mut buf, 3);
        assert_eq!(buf, via_into);
    }
}
