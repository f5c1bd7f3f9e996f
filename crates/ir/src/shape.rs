//! Shape inference.

use std::fmt;

use temco_tensor::conv_out_dim;

use crate::graph::Graph;
use crate::op::Op;

/// A typed shape-inference failure.
///
/// Every inconsistency [`try_infer`] can hit is reported as a value instead
/// of a panic, so callers holding untrusted or machine-generated graphs (the
/// serving layer's [`Graph::try_rebatch`](crate::Graph::try_rebatch), the
/// `temco-check` harness) can reject them without aborting the process. The
/// panicking [`infer`] wrapper keeps the builder-path ergonomics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// An `Input` node carries no shape.
    MissingInputShape {
        /// The input node's name.
        node: String,
    },
    /// A node consumes a value no earlier node defined.
    UseBeforeDef {
        /// The offending node's name.
        node: String,
    },
    /// Operand/weight shapes are inconsistent at a node. The message keeps
    /// the exact wording the old assertion-based inference used.
    Mismatch {
        /// Human-readable description naming the node.
        msg: String,
    },
    /// `rebatch` was asked for a zero batch size.
    ZeroBatch,
    /// `rebatch` found a graph input with no leading (batch) dimension.
    ScalarInput {
        /// The input value's name.
        input: String,
    },
    /// A node's output collapsed to zero elements (a convolution or pooling
    /// window larger than its padded input). Such a graph can never execute;
    /// [`Graph::try_rebatch`](crate::Graph::try_rebatch) reports it up front.
    Degenerate {
        /// The node whose output is empty.
        node: String,
        /// The degenerate output shape.
        shape: Vec<usize>,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::MissingInputShape { node } => {
                write!(f, "input '{node}' must carry a shape")
            }
            ShapeError::UseBeforeDef { node } => {
                write!(f, "node '{node}' uses value before definition")
            }
            ShapeError::Mismatch { msg } => write!(f, "{msg}"),
            ShapeError::ZeroBatch => write!(f, "rebatch: batch must be positive"),
            ShapeError::ScalarInput { input } => {
                write!(f, "rebatch: input '{input}' has no batch dimension")
            }
            ShapeError::Degenerate { node, shape } => {
                write!(
                    f,
                    "node '{node}' produces a zero-sized tensor {shape:?} \
                     (kernel or pooling window larger than its padded input)"
                )
            }
        }
    }
}

impl std::error::Error for ShapeError {}

/// Build a [`ShapeError::Mismatch`] from format arguments.
macro_rules! mismatch {
    ($($arg:tt)*) => {
        return Err(ShapeError::Mismatch { msg: format!($($arg)*) })
    };
}

/// Require `cond`, reporting a [`ShapeError::Mismatch`] otherwise.
macro_rules! require {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            mismatch!($($arg)*);
        }
    };
}

/// Infer the shape of every value in schedule order.
///
/// # Panics
/// Panics on inconsistent graphs (mismatched operand shapes, use before
/// definition) with a message naming the offending node. Fallible callers
/// should use [`try_infer`].
pub fn infer(g: &mut Graph) {
    if let Err(e) = try_infer(g) {
        panic!("{e}");
    }
}

/// Infer the shape of every value in schedule order, reporting
/// inconsistencies as a typed [`ShapeError`] instead of panicking.
///
/// On error the graph's value shapes are left partially inferred; callers
/// that keep the graph should re-run inference after repairing it.
pub fn try_infer(g: &mut Graph) -> Result<(), ShapeError> {
    for i in 0..g.nodes.len() {
        let node = g.nodes[i].clone();
        if matches!(node.op, Op::Input) {
            if g.values[node.output.0 as usize].shape.is_none() {
                return Err(ShapeError::MissingInputShape { node: node.name });
            }
            continue;
        }
        let mut in_shapes = Vec::with_capacity(node.inputs.len());
        for &v in &node.inputs {
            match g.values[v.0 as usize].shape.clone() {
                Some(s) => in_shapes.push(s),
                None => return Err(ShapeError::UseBeforeDef { node: node.name }),
            }
        }
        let out = out_shape(g, &node.op, &in_shapes, &node.name)?;
        g.values[node.output.0 as usize].shape = Some(out);
    }
    Ok(())
}

fn out_shape(g: &Graph, op: &Op, ins: &[Vec<usize>], name: &str) -> Result<Vec<usize>, ShapeError> {
    Ok(match op {
        Op::Input => unreachable!("input nodes are handled by the caller"),
        Op::Conv2d(spec) => {
            let x = &ins[0];
            require!(x.len() == 4, "conv input must be 4-D at '{name}'");
            let w = g.weight(spec.weight);
            require!(w.shape().len() == 4, "conv '{name}': weight must be 4-D");
            let (c_out, c_in_g, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
            require!(
                c_in_g * spec.groups == x[1],
                "conv '{name}': weight expects {} input channels, got {}",
                c_in_g * spec.groups,
                x[1]
            );
            require!(
                spec.groups > 0 && c_out.is_multiple_of(spec.groups),
                "conv '{name}': {} output channels not divisible by {} groups",
                c_out,
                spec.groups
            );
            require!(
                spec.stride.0 > 0 && spec.stride.1 > 0,
                "conv '{name}': stride must be positive"
            );
            let oh = conv_out_dim(x[2], kh, spec.stride.0, spec.padding.0);
            let ow = conv_out_dim(x[3], kw, spec.stride.1, spec.padding.1);
            vec![x[0], c_out, oh, ow]
        }
        Op::ConvTranspose2d { weight, stride, .. } => {
            let x = &ins[0];
            require!(x.len() == 4, "upconv input must be 4-D at '{name}'");
            let w = g.weight(*weight);
            require!(w.shape().len() == 4, "upconv '{name}': weight must be 4-D");
            require!(w.dim(0) == x[1], "upconv '{name}' channel mismatch");
            require!(
                x[2] > 0 && x[3] > 0,
                "upconv '{name}': input has a zero-sized spatial dimension"
            );
            let oh = (x[2] - 1) * stride.0 + w.dim(2);
            let ow = (x[3] - 1) * stride.1 + w.dim(3);
            vec![x[0], w.dim(1), oh, ow]
        }
        Op::Activation(_) => ins[0].clone(),
        Op::Pool { kernel, stride, .. } => {
            let x = &ins[0];
            require!(x.len() == 4, "pool input must be 4-D at '{name}'");
            require!(*stride > 0, "pool '{name}': stride must be positive");
            vec![
                x[0],
                x[1],
                conv_out_dim(x[2], *kernel, *stride, 0),
                conv_out_dim(x[3], *kernel, *stride, 0),
            ]
        }
        Op::GlobalAvgPool => {
            let x = &ins[0];
            require!(x.len() == 4, "global pool input must be 4-D at '{name}'");
            vec![x[0], x[1], 1, 1]
        }
        Op::Affine { scale, .. } => {
            let x = &ins[0];
            require!(x.len() >= 2, "affine input must have channels at '{name}'");
            require!(g.weight(*scale).numel() == x[1], "affine '{name}' channel mismatch");
            x.clone()
        }
        Op::Add => {
            for s in &ins[1..] {
                require!(s == &ins[0], "add '{name}' operand shape mismatch");
            }
            ins[0].clone()
        }
        Op::Concat => {
            let first = &ins[0];
            require!(first.len() == 4, "concat expects 4-D at '{name}'");
            let mut c = 0;
            for s in ins {
                require!(s.len() == 4, "concat expects 4-D at '{name}'");
                require!(s[0] == first[0], "concat '{name}' batch mismatch");
                require!(s[2] == first[2], "concat '{name}' height mismatch");
                require!(s[3] == first[3], "concat '{name}' width mismatch");
                c += s[1];
            }
            vec![first[0], c, first[2], first[3]]
        }
        Op::Linear { weight, .. } => {
            let x = &ins[0];
            require!(x.len() >= 2, "linear input must have features at '{name}'");
            let w = g.weight(*weight);
            require!(w.shape().len() == 2, "linear '{name}': weight must be 2-D");
            // Contraction over the last dimension; leading dims carry over
            // (`[n, f] → [n, out]`, `[n, t, f] → [n, t, out]`).
            require!(
                *x.last().expect("rank checked above") == w.dim(1),
                "linear '{name}' feature mismatch"
            );
            let mut out = x.clone();
            *out.last_mut().expect("rank checked above") = w.dim(0);
            out
        }
        Op::Flatten => {
            let x = &ins[0];
            require!(!x.is_empty(), "flatten input must have a batch dim at '{name}'");
            vec![x[0], x[1..].iter().product()]
        }
        Op::Softmax => {
            require!(ins[0].len() >= 2, "softmax input must have rank >= 2 at '{name}'");
            ins[0].clone()
        }
        Op::MatMul { transpose_a, transpose_b } => {
            let (a, b) = (&ins[0], &ins[1]);
            require!(!(*transpose_a && *transpose_b), "matmul '{name}': both transpose flags set");
            let r = a.len();
            require!(r >= 2, "matmul '{name}': operands must have rank >= 2");
            require!(b.len() == r, "matmul '{name}': operand rank mismatch");
            require!(a[..r - 2] == b[..r - 2], "matmul '{name}': batch dims mismatch");
            let (m, ka) = if *transpose_a { (a[r - 1], a[r - 2]) } else { (a[r - 2], a[r - 1]) };
            let (kb, n) = if *transpose_b { (b[r - 1], b[r - 2]) } else { (b[r - 2], b[r - 1]) };
            require!(ka == kb, "matmul '{name}': contraction dim mismatch ({ka} vs {kb})");
            let mut out = a[..r - 2].to_vec();
            out.push(m);
            out.push(n);
            out
        }
        Op::LayerNorm { scale, bias, .. } => {
            let x = &ins[0];
            require!(x.len() >= 2, "layernorm input must have rank >= 2 at '{name}'");
            let f = *x.last().expect("rank checked above");
            require!(
                g.weight(*scale).numel() == f && g.weight(*bias).numel() == f,
                "layernorm '{name}': scale/bias length must equal last dim {f}"
            );
            x.clone()
        }
        Op::SplitHeads { heads } => {
            let x = &ins[0];
            require!(x.len() == 3, "split_heads expects a 3-D [n, t, d] input at '{name}'");
            require!(
                *heads > 0 && x[2].is_multiple_of(*heads),
                "split_heads '{name}': model dim {} not divisible by {heads} heads",
                x[2]
            );
            vec![x[0] * heads, x[1], x[2] / heads]
        }
        Op::MergeHeads { heads } => {
            let x = &ins[0];
            require!(x.len() == 3, "merge_heads expects a 3-D [n*h, t, dh] input at '{name}'");
            require!(
                *heads > 0 && x[0].is_multiple_of(*heads),
                "merge_heads '{name}': leading dim {} not divisible by {heads} heads",
                x[0]
            );
            vec![x[0] / heads, x[1], x[2] * heads]
        }
        Op::Fused(spec) => {
            let x = &ins[0];
            require!(x.len() == 4, "fused input must be 4-D at '{name}'");
            let lw = g.weight(spec.lconv_w);
            let fw = spec.fconv.map(|fc| g.weight(fc.weight));
            require!(
                lw.shape().len() == 4 && fw.is_none_or(|fw| fw.shape().len() == 4),
                "fused '{name}': factor weights must be 4-D"
            );
            require!(lw.dim(1) == x[1], "fused '{name}': lconv input channel mismatch");
            if let Some((_, _, s)) = spec.pool {
                require!(s > 0, "fused '{name}': pool stride must be positive");
            }
            if let Some(fw) = fw {
                require!(fw.dim(1) == lw.dim(0), "fused '{name}': fconv/lconv channel mismatch");
            }
            spec.geometry(g, x).out_shape().to_vec()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::ShapeError;
    use crate::graph::Graph;
    use crate::op::ActKind;
    use temco_tensor::Tensor;

    #[test]
    fn infers_conv_chain() {
        let mut g = Graph::new();
        let x = g.input(&[2, 3, 32, 32], "x");
        let c1 = g.conv2d(x, Tensor::zeros(&[8, 3, 3, 3]), None, 1, 1, "c1");
        let r1 = g.relu(c1, "r1");
        let p1 = g.max_pool(r1, 2, 2, "p1");
        let f = g.flatten(p1, "f");
        let l = g.linear(f, Tensor::zeros(&[10, 8 * 16 * 16]), None, "fc");
        let s = g.softmax(l, "sm");
        g.mark_output(s);
        g.infer_shapes();
        assert_eq!(g.shape(c1), &[2, 8, 32, 32]);
        assert_eq!(g.shape(p1), &[2, 8, 16, 16]);
        assert_eq!(g.shape(f), &[2, 2048]);
        assert_eq!(g.shape(s), &[2, 10]);
    }

    #[test]
    fn infers_concat_and_add() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let a = g.relu(x, "a");
        let b = g.activation(x, ActKind::Silu, "b");
        let cat = g.concat(&[a, b], "cat");
        let sum = g.add(&[a, b], "sum");
        g.mark_output(cat);
        g.mark_output(sum);
        g.infer_shapes();
        assert_eq!(g.shape(cat), &[1, 8, 8, 8]);
        assert_eq!(g.shape(sum), &[1, 4, 8, 8]);
    }

    #[test]
    fn infers_upconv() {
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 14, 14], "x");
        let u = g.conv_transpose2d(x, Tensor::zeros(&[8, 4, 2, 2]), None, 2, "up");
        g.mark_output(u);
        g.infer_shapes();
        assert_eq!(g.shape(u), &[1, 4, 28, 28]);
    }

    #[test]
    fn infers_fused_shapes_with_and_without_fconv() {
        use crate::op::{FconvSpec, FusedSpec, PoolKind};
        let mut g = Graph::new();
        let x = g.input(&[2, 4, 8, 8], "x");
        let lw = g.add_weight(Tensor::zeros(&[32, 4, 1, 1]));
        let fw = g.add_weight(Tensor::zeros(&[6, 32, 1, 1]));
        let full = g.fused(
            x,
            FusedSpec {
                lconv_w: lw,
                lconv_b: None,
                act: ActKind::Relu,
                pool: Some((PoolKind::Max, 2, 2)),
                fconv: Some(FconvSpec { weight: fw, bias: None }),
            },
            "full",
        );
        let restore = g.fused(
            x,
            FusedSpec { lconv_w: lw, lconv_b: None, act: ActKind::Relu, pool: None, fconv: None },
            "restore",
        );
        g.mark_output(full);
        g.mark_output(restore);
        g.infer_shapes();
        assert_eq!(g.shape(full), &[2, 6, 4, 4]); // reduced + pooled
        assert_eq!(g.shape(restore), &[2, 32, 8, 8]); // full width, unpooled
    }

    #[test]
    fn infers_attention_chain() {
        // One attention head-space round trip: the shapes every MHA block
        // produces, including the 3-D softmax the axis fix legalizes.
        let mut g = Graph::new();
        let x = g.input(&[2, 5, 8], "x"); // [n, t, d]
        let q = g.linear(x, Tensor::zeros(&[8, 8]), None, "wq");
        let k = g.linear(x, Tensor::zeros(&[8, 8]), None, "wk");
        let v = g.linear(x, Tensor::zeros(&[8, 8]), None, "wv");
        let qh = g.split_heads(q, 2, "qh");
        let kh = g.split_heads(k, 2, "kh");
        let vh = g.split_heads(v, 2, "vh");
        let scores = g.matmul(qh, kh, false, true, "scores");
        let attn = g.softmax(scores, "attn");
        let ctx = g.matmul(attn, vh, false, false, "ctx");
        let merged = g.merge_heads(ctx, 2, "merged");
        let ln = g.layer_norm(merged, Tensor::zeros(&[8]), Tensor::zeros(&[8]), 1e-5, "ln");
        g.mark_output(ln);
        g.infer_shapes();
        assert_eq!(g.shape(q), &[2, 5, 8]); // rank-3 linear
        assert_eq!(g.shape(qh), &[4, 5, 4]); // heads folded into batch
        assert_eq!(g.shape(scores), &[4, 5, 5]); // QKᵀ
        assert_eq!(g.shape(attn), &[4, 5, 5]);
        assert_eq!(g.shape(ctx), &[4, 5, 4]);
        assert_eq!(g.shape(merged), &[2, 5, 8]);
        assert_eq!(g.shape(ln), &[2, 5, 8]);
    }

    #[test]
    fn matmul_mismatches_are_typed_errors() {
        // Contraction mismatch.
        let mut g = Graph::new();
        let a = g.input(&[2, 3, 4], "a");
        let b = g.input(&[2, 5, 6], "b");
        let m = g.matmul(a, b, false, false, "mm");
        g.mark_output(m);
        let err = g.try_infer_shapes().unwrap_err();
        assert!(err.to_string().contains("contraction dim mismatch"), "{err}");
        // Batch mismatch.
        let mut g = Graph::new();
        let a = g.input(&[2, 3, 4], "a");
        let b = g.input(&[3, 4, 6], "b");
        let m = g.matmul(a, b, false, false, "mm");
        g.mark_output(m);
        let err = g.try_infer_shapes().unwrap_err();
        assert!(err.to_string().contains("batch dims mismatch"), "{err}");
    }

    #[test]
    fn rank_deficient_softmax_is_a_typed_error() {
        let mut g = Graph::new();
        let x = g.input(&[8], "x");
        let s = g.softmax(x, "sm");
        g.mark_output(s);
        let err = g.try_infer_shapes().unwrap_err();
        assert!(err.to_string().contains("rank >= 2"), "{err}");
    }

    #[test]
    fn split_heads_rejects_indivisible_model_dim() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 6], "x");
        let s = g.split_heads(x, 4, "sh");
        g.mark_output(s);
        let err = g.try_infer_shapes().unwrap_err();
        assert!(err.to_string().contains("not divisible"), "{err}");
    }

    #[test]
    #[should_panic(expected = "channel")]
    fn conv_channel_mismatch_panics() {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8], "x");
        let c = g.conv2d(x, Tensor::zeros(&[4, 5, 3, 3]), None, 1, 1, "bad");
        g.mark_output(c);
        g.infer_shapes();
    }

    #[test]
    fn try_infer_reports_mismatch_as_value() {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8], "x");
        let c = g.conv2d(x, Tensor::zeros(&[4, 5, 3, 3]), None, 1, 1, "bad");
        g.mark_output(c);
        let err = g.try_infer_shapes().unwrap_err();
        assert!(matches!(err, ShapeError::Mismatch { .. }));
        assert!(err.to_string().contains("channel"), "{err}");
    }

    #[test]
    fn try_infer_reports_upconv_on_collapsed_input_as_value() {
        // A pooling window larger than the image collapses the spatial dims
        // to zero; the downstream transposed convolution used to underflow
        // (`0 - 1`) and abort. It must now be a typed error.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 3, 3], "x");
        let p = g.max_pool(x, 7, 2, "bigpool");
        let u = g.conv_transpose2d(p, Tensor::zeros(&[4, 2, 2, 2]), None, 2, "up");
        g.mark_output(u);
        let err = g.try_infer_shapes().unwrap_err();
        assert!(err.to_string().contains("zero-sized"), "{err}");
    }
}
