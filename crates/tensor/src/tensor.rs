//! The dense contiguous tensor type.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Convolutional tensors use NCHW order; matrices use `[rows, cols]`. The
/// representation is always owned and contiguous — passes in the compiler
/// clone/slice weights rarely, and the runtime's whole point is to *measure*
/// allocation behaviour, so implicit views would only obscure it.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Allocate a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; n] }
    }

    /// Build a tensor from an existing buffer.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "buffer length {} must match shape volume {n}", data.len());
        Tensor { shape: shape.to_vec(), data }
    }

    /// Build a tensor by evaluating `f` at every linear index.
    pub fn from_fn(shape: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: (0..n).map(f).collect() }
    }

    /// Deterministic standard-normal tensor (Box–Muller over a seeded RNG).
    pub fn randn(shape: &[usize], seed: u64) -> Self {
        let n: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push((r * theta.cos()) as f32);
            if data.len() < n {
                data.push((r * theta.sin()) as f32);
            }
        }
        Tensor { shape: shape.to_vec(), data }
    }

    /// Deterministic uniform tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Self {
        let n: usize = shape.iter().product();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n).map(|_| lo + (hi - lo) * rng.random::<f32>()).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// He-normal initialized convolution weight `[c_out, c_in, kh, kw]`.
    ///
    /// Realistic weight magnitudes keep activations in a sane range so that
    /// decomposition-error and output-agreement experiments are meaningful.
    pub fn he_conv_weight(c_out: usize, c_in: usize, kh: usize, kw: usize, seed: u64) -> Self {
        let fan_in = (c_in * kh * kw) as f32;
        let std = (2.0 / fan_in).sqrt();
        let mut t = Tensor::randn(&[c_out, c_in, kh, kw], seed);
        for x in &mut t.data {
            *x *= std;
        }
        t
    }

    /// The shape as a slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size in bytes (4 bytes per `f32`).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Borrow the flat data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Dimension `i` of the shape.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.shape[i]
    }

    /// Set the outermost extent in place, keeping the rest of the shape:
    /// trailing rows are dropped, or appended zero-filled. The buffer keeps
    /// its capacity, so growing back to any extent the tensor has had
    /// before does not allocate.
    ///
    /// # Panics
    /// Panics on a rank-0 tensor.
    pub fn resize_outer(&mut self, outer: usize) {
        let row: usize = self.shape[1..].iter().product();
        self.shape[0] = outer;
        self.data.resize(outer * row, 0.0);
    }

    /// Reinterpret with a new shape of the same volume.
    ///
    /// # Panics
    /// Panics if the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape must preserve volume");
        Tensor { shape: shape.to_vec(), data: self.data.clone() }
    }

    /// Value at 4-D index (NCHW).
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Mutable value at 4-D index (NCHW).
    #[inline]
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        &mut self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Apply `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Largest absolute difference to another tensor of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Whether every element is within `tol` of `other`.
    pub fn all_close(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    /// Frobenius norm of the flattened tensor.
    pub fn fro_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Borrow as a [`TensorView`].
    #[inline]
    pub fn view(&self) -> TensorView<'_> {
        TensorView { shape: &self.shape, data: &self.data }
    }
}

/// A borrowed, contiguous, row-major tensor: shape + flat data, owned
/// elsewhere (a [`Tensor`] or a region of the runtime's slab).
///
/// The `_into` kernel variants take views so that a static-allocation
/// executor can run them directly on slab memory without materializing
/// per-node `Tensor`s.
#[derive(Clone, Copy, Debug)]
pub struct TensorView<'a> {
    shape: &'a [usize],
    data: &'a [f32],
}

impl<'a> TensorView<'a> {
    /// Wrap `data` with `shape`.
    ///
    /// # Panics
    /// Panics if the buffer length does not match the shape volume.
    #[inline]
    pub fn new(shape: &'a [usize], data: &'a [f32]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "view length {} must match shape volume {n}", data.len());
        TensorView { shape, data }
    }

    /// The shape as a slice.
    #[inline]
    pub fn shape(&self) -> &'a [usize] {
        self.shape
    }

    /// Dimension `i` of the shape.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        self.shape[i]
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrow the flat data.
    #[inline]
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Value at 4-D index (NCHW).
    #[inline]
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Copy into an owned [`Tensor`].
    pub fn to_tensor(&self) -> Tensor {
        Tensor { shape: self.shape.to_vec(), data: self.data.to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_volume() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        assert_eq!(t.numel(), 120);
        assert_eq!(t.bytes(), 480);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&[32], 7);
        let b = Tensor::randn(&[32], 7);
        let c = Tensor::randn(&[32], 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_has_roughly_unit_variance() {
        let t = Tensor::randn(&[10_000], 42);
        let mean: f32 = t.data().iter().sum::<f32>() / 10_000.0;
        let var: f32 = t.data().iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn at4_matches_flat_layout() {
        let t = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 0, 0, 1), 1.0);
        assert_eq!(t.at4(0, 0, 1, 0), 5.0);
        assert_eq!(t.at4(0, 1, 0, 0), 20.0);
        assert_eq!(t.at4(1, 0, 0, 0), 60.0);
        assert_eq!(t.at4(1, 2, 3, 4), 119.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "reshape must preserve volume")]
    fn reshape_wrong_volume_panics() {
        Tensor::zeros(&[2, 2]).reshape(&[5]);
    }

    #[test]
    fn max_abs_diff_and_all_close() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(&[3], vec![1.0, 2.5, 3.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-7);
        assert!(a.all_close(&b, 0.5));
        assert!(!a.all_close(&b, 0.4));
    }

    #[test]
    fn he_weight_scale_shrinks_with_fan_in() {
        let small = Tensor::he_conv_weight(8, 4, 3, 3, 1);
        let big = Tensor::he_conv_weight(8, 256, 3, 3, 1);
        assert!(
            big.fro_norm() / (big.numel() as f32).sqrt()
                < small.fro_norm() / (small.numel() as f32).sqrt()
        );
    }
}
