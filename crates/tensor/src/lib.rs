//! Dense NCHW `f32` tensor library for the TeMCO reproduction.
//!
//! This crate is the numeric substrate the paper gets from PyTorch: a dense
//! contiguous tensor type plus the CNN operator set the 10 benchmark models
//! need (convolution variants, pooling, activations, concat/add, linear,
//! softmax). Kernels are written for clarity first, with a small number of
//! deliberate fast paths:
//!
//! * 1×1 convolutions (the `fconv`/`lconv` layers every decomposed sequence
//!   introduces) lower to a single SGEMM per batch element;
//! * general convolutions use im2col + SGEMM, transposed convolutions a
//!   GEMM + col2im scatter;
//! * the GEMM itself is a cache-blocked, packed, register-tiled kernel
//!   (see the [`mod@matmul`] module) parallelized over output tiles.
//!
//! Every compute kernel has one entry point, `K_into`, that takes its
//! output buffer, its working memory and its [`GemmSchedule`] from the
//! caller; the matching `K_scratch_floats` function sizes that working
//! memory for the same schedule. The runtime's allocation planner reserves
//! the scratch inside the inference slab, so steady-state execution never
//! heap-allocates. Beside it sits one allocating convenience form, `K`,
//! which runs the default schedule on a reusable thread-local buffer
//! ([`with_tl_scratch`]).
//!
//! A slow, obviously-correct direct convolution is kept for cross-validation
//! in tests.

pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod pool;
pub mod schedule;
pub mod tensor;
pub mod transformer;

pub use conv::{
    conv2d, conv2d_direct, conv2d_into, conv2d_scratch_floats, conv_transpose2d,
    conv_transpose2d_into, conv_transpose2d_scratch_floats, Conv2dParams,
};
pub use elementwise::{
    add, add_n_assign_iter, add_n_into, add_n_into_iter, affine, affine_inplace, affine_into,
    concat_channels, concat_channels_into, concat_channels_into_iter, linear, linear_into,
    linear_scratch_floats, softmax_lastdim, softmax_lastdim_inplace, softmax_lastdim_into, ActKind,
};
pub use matmul::{gemm, gemm_scratch_floats, isa_level, sgemm, sgemm_reference, with_tl_scratch};
pub use pool::{
    avg_pool2d, avg_pool2d_inplace, avg_pool2d_into, global_avg_pool, global_avg_pool_inplace,
    global_avg_pool_into, max_pool2d, max_pool2d_inplace, max_pool2d_into,
};
pub use schedule::GemmSchedule;
pub use tensor::{Tensor, TensorView};
pub use transformer::{
    layer_norm, layer_norm_inplace, layer_norm_into, matmul, matmul_dims, matmul_into,
    matmul_reference, merge_heads, merge_heads_into, split_heads, split_heads_into,
};

/// Compute the spatial output size of a convolution/pooling window.
#[inline]
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let effective = input + 2 * padding;
    if effective < kernel {
        return 0;
    }
    (effective - kernel) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::conv_out_dim;

    #[test]
    fn out_dim_matches_torch_formula() {
        assert_eq!(conv_out_dim(224, 3, 1, 1), 224);
        assert_eq!(conv_out_dim(224, 11, 4, 2), 55); // AlexNet conv1
        assert_eq!(conv_out_dim(224, 2, 2, 0), 112); // 2x2 pool
        assert_eq!(conv_out_dim(5, 7, 1, 0), 0); // window larger than input
    }
}
