//! FLOPs cost model.
//!
//! The skip-connection optimization's `Overhead` check (Algorithm 1, lines
//! 1–9) compares the FLOPs of copied restore layers against a computation
//! threshold derived from the original model. This module provides the FLOP
//! counts for every operator; multiply-accumulate counts as 2 FLOPs.

use crate::graph::Graph;
use crate::op::Op;

/// FLOPs executed by node `i` under the graph's inferred shapes.
///
/// # Panics
/// Panics if shape inference has not run.
pub fn node_flops(g: &Graph, i: usize) -> u64 {
    let node = &g.nodes[i];
    let out_shape = g.shape(node.output).to_vec();
    let out_numel: u64 = out_shape.iter().product::<usize>() as u64;
    match &node.op {
        Op::Input | Op::Flatten | Op::Concat => 0,
        // Pure permutation copies: no arithmetic.
        Op::SplitHeads { .. } | Op::MergeHeads { .. } => 0,
        Op::Conv2d(spec) => {
            let w = g.weight(spec.weight);
            let k_work = (w.dim(1) * w.dim(2) * w.dim(3)) as u64;
            let bias = if spec.bias.is_some() { out_numel } else { 0 };
            2 * out_numel * k_work + bias
        }
        Op::ConvTranspose2d { weight, bias, .. } => {
            let w = g.weight(*weight);
            let in_shape = g.shape(node.inputs[0]);
            let in_numel: u64 = in_shape.iter().product::<usize>() as u64;
            let k_work = (w.dim(1) * w.dim(2) * w.dim(3)) as u64;
            let b = if bias.is_some() { out_numel } else { 0 };
            2 * in_numel * k_work + b
        }
        Op::Activation(_) => out_numel,
        Op::Pool { kernel, .. } => out_numel * (*kernel as u64) * (*kernel as u64),
        Op::GlobalAvgPool => g.shape(node.inputs[0]).iter().product::<usize>() as u64,
        Op::Affine { .. } => 2 * out_numel,
        Op::Add => out_numel * (node.inputs.len() as u64 - 1),
        Op::Linear { weight, bias } => {
            let w = g.weight(*weight);
            // Rows = every leading dim (rank ≥ 2 inputs contract last-dim).
            let rows = out_numel / w.dim(0) as u64;
            let b = if bias.is_some() { out_numel } else { 0 };
            2 * rows * (w.dim(0) * w.dim(1)) as u64 + b
        }
        Op::Softmax => 4 * out_numel,
        Op::MatMul { transpose_a, .. } => {
            // 2·batch·m·k·n: out is [batch.., m, n]; k comes from operand 0.
            let a = g.shape(node.inputs[0]);
            let r = a.len();
            let k = if *transpose_a { a[r - 2] } else { a[r - 1] };
            2 * out_numel * k as u64
        }
        // Mean, variance, normalize, scale+bias ≈ 8 flops per element.
        Op::LayerNorm { .. } => 8 * out_numel,
        Op::Fused(spec) => {
            // lconv at pre-pool resolution, activation, optional pool, fconv
            // at post-pool resolution — matching the work in Listing 1.
            let geo = spec.geometry(g, g.shape(node.inputs[0]));
            let [n, c_in, c_full, c_out, h, w, oh, ow, pk] =
                [geo.n, geo.c_in, geo.c_full, geo.c_out, geo.h, geo.w, geo.oh, geo.ow, geo.pk]
                    .map(|d| d as u64);
            let lconv = 2 * n * c_full * h * w * c_in;
            let act = n * c_full * h * w;
            let pool = if spec.pool.is_some() { n * c_full * oh * ow * pk * pk } else { 0 };
            let fconv = if geo.fconv { 2 * n * c_out * oh * ow * c_full } else { 0 };
            lconv + act + pool + fconv
        }
    }
}

/// Total FLOPs of one inference of the whole graph.
pub fn graph_flops(g: &Graph) -> u64 {
    (0..g.nodes.len()).map(|i| node_flops(g, i)).sum()
}

#[cfg(test)]
mod tests {
    use crate::graph::Graph;
    use temco_tensor::Tensor;

    use super::*;

    #[test]
    fn conv_flops_match_formula() {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8], "x");
        let c = g.conv2d(x, Tensor::zeros(&[4, 3, 3, 3]), None, 1, 1, "c");
        g.mark_output(c);
        g.infer_shapes();
        // 2 * (1*4*8*8) * (3*3*3)
        assert_eq!(node_flops(&g, 1), 2 * 256 * 27);
    }

    #[test]
    fn pointwise_conv_flops() {
        let mut g = Graph::new();
        let x = g.input(&[2, 16, 4, 4], "x");
        let c = g.conv2d(x, Tensor::zeros(&[8, 16, 1, 1]), None, 1, 0, "c");
        g.mark_output(c);
        g.infer_shapes();
        assert_eq!(node_flops(&g, 1), 2 * (2 * 8 * 4 * 4) * 16);
    }

    #[test]
    fn decomposition_reduces_flops() {
        // Original 64→64 3×3 conv vs Tucker-style fconv/core/lconv with rank 8.
        let mut orig = Graph::new();
        let x = orig.input(&[1, 64, 16, 16], "x");
        let c = orig.conv2d(x, Tensor::zeros(&[64, 64, 3, 3]), None, 1, 1, "c");
        orig.mark_output(c);
        orig.infer_shapes();

        let mut dec = Graph::new();
        let x = dec.input(&[1, 64, 16, 16], "x");
        let f = dec.conv2d(x, Tensor::zeros(&[8, 64, 1, 1]), None, 1, 0, "f");
        let k = dec.conv2d(f, Tensor::zeros(&[8, 8, 3, 3]), None, 1, 1, "k");
        let l = dec.conv2d(k, Tensor::zeros(&[64, 8, 1, 1]), None, 1, 0, "l");
        dec.mark_output(l);
        dec.infer_shapes();

        assert!(graph_flops(&dec) < graph_flops(&orig) / 4);
    }

    #[test]
    fn conv_transpose_flops_scale_with_input() {
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 7, 7], "x");
        let u = g.conv_transpose2d(x, Tensor::zeros(&[8, 4, 2, 2]), None, 2, "up");
        g.mark_output(u);
        g.infer_shapes();
        // 2 · in_numel · (c_out · kh · kw) = 2 · (8·49) · (4·4)
        assert_eq!(node_flops(&g, 1), 2 * 8 * 49 * 16);
    }

    #[test]
    fn linear_and_softmax_flops() {
        let mut g = Graph::new();
        let x = g.input(&[2, 10], "x");
        let l = g.linear(x, Tensor::zeros(&[5, 10]), Some(Tensor::zeros(&[5])), "fc");
        let s = g.softmax(l, "sm");
        g.mark_output(s);
        g.infer_shapes();
        assert_eq!(node_flops(&g, 1), 2 * 2 * 50 + 10); // matmul + bias
        assert_eq!(node_flops(&g, 2), 4 * 10); // softmax ~4 flops/elem
    }

    #[test]
    fn matmul_and_layernorm_flops() {
        let mut g = Graph::new();
        let a = g.input(&[3, 4, 6], "a");
        let b = g.input(&[3, 6, 5], "b");
        let m = g.matmul(a, b, false, false, "mm");
        let ln = g.layer_norm(m, Tensor::zeros(&[5]), Tensor::zeros(&[5]), 1e-5, "ln");
        g.mark_output(ln);
        g.infer_shapes();
        // 2 · batch(3) · m(4) · k(6) · n(5)
        assert_eq!(node_flops(&g, 2), 2 * 3 * 4 * 6 * 5);
        assert_eq!(node_flops(&g, 3), 8 * 3 * 4 * 5);
    }

    #[test]
    fn rank3_linear_flops_count_all_rows() {
        let mut g = Graph::new();
        let x = g.input(&[2, 3, 10], "x");
        let l = g.linear(x, Tensor::zeros(&[5, 10]), None, "fc");
        g.mark_output(l);
        g.infer_shapes();
        // rows = 2·3, weight 5×10
        assert_eq!(node_flops(&g, 1), 2 * 6 * 50);
    }

    #[test]
    fn restore_kernel_flops_omit_fconv() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let lw = g.add_weight(Tensor::zeros(&[16, 4, 1, 1]));
        let spec = crate::op::FusedSpec {
            lconv_w: lw,
            lconv_b: None,
            act: crate::op::ActKind::Relu,
            pool: None,
            fconv: None,
        };
        let f = g.fused(x, spec, "restore");
        g.mark_output(f);
        g.infer_shapes();
        // lconv (2·16·64·4) + act (16·64), no fconv term.
        assert_eq!(node_flops(&g, 1), 2 * 16 * 64 * 4 + 16 * 64);
    }

    #[test]
    fn fused_flops_close_to_unfused_sequence() {
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 16, 16], "x");
        let lw = g.add_weight(Tensor::zeros(&[64, 8, 1, 1]));
        let fw = g.add_weight(Tensor::zeros(&[8, 64, 1, 1]));
        let spec = crate::op::FusedSpec {
            lconv_w: lw,
            lconv_b: None,
            act: crate::op::ActKind::Relu,
            pool: None,
            fconv: Some(crate::op::FconvSpec { weight: fw, bias: None }),
        };
        let f = g.fused(x, spec, "fused");
        g.mark_output(f);
        g.infer_shapes();
        let fused = node_flops(&g, 1);
        // lconv 2*64*256*8 + act 64*256 + fconv 2*8*256*64
        let expect = 2 * 64 * 256 * 8 + 64 * 256 + 2 * 8 * 256 * 64;
        assert_eq!(fused, expect as u64);
    }
}
