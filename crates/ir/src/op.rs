//! The operator set.

use temco_tensor::conv_out_dim;

use crate::graph::{Graph, WeightId};

pub use temco_tensor::ActKind;

/// Pooling flavor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Provenance of a convolution node with respect to tensor decomposition.
///
/// The *structural* test the paper's Algorithm 2 uses (`IsLConv`: 1×1 kernel,
/// stride 1, `out_channels > in_channels`) stays the source of truth in the
/// passes; the role is carried as metadata so tests can assert that the
/// structural test and the decomposition pass agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConvRole {
    /// An ordinary, non-decomposed convolution.
    Standard,
    /// The first 1×1 factor convolution of a decomposed sequence
    /// (channel-*reducing*).
    FConv,
    /// A core convolution of a decomposed sequence.
    Core,
    /// The last 1×1 factor convolution of a decomposed sequence
    /// (channel-*restoring*).
    LConv,
}

/// Full description of a convolution node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Kernel weight `[c_out, c_in/groups, kh, kw]`.
    pub weight: WeightId,
    /// Optional bias `[c_out]`.
    pub bias: Option<WeightId>,
    /// Stride `(sh, sw)`.
    pub stride: (usize, usize),
    /// Zero padding `(ph, pw)`.
    pub padding: (usize, usize),
    /// Channel groups.
    pub groups: usize,
    /// Decomposition provenance.
    pub role: ConvRole,
}

/// The trailing reducing convolution of a fused chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FconvSpec {
    /// Reducing 1×1 weight `[c_red_out, c_full]`.
    pub weight: WeightId,
    /// Optional bias.
    pub bias: Option<WeightId>,
}

/// The fused `lconv → activation (→ pool) (→ fconv)` operator TeMCO's
/// activation-layer fusion emits (paper Section 3.2, Listing 1).
///
/// With `fconv` present the node consumes a *reduced* tensor and produces a
/// *reduced* tensor; the full-channel intermediate exists only as
/// per-worker strip scratch inside the kernel, never as an allocated
/// internal tensor. With `fconv` absent it is a *restore kernel*: the
/// strip-wise form of the copied restore chains the skip-connection
/// optimization inserts ("restorations … hidden in the fused layers",
/// Section 3.3) — it still avoids materializing the intermediate
/// full-width activation tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FusedSpec {
    /// Restoring 1×1 weight `[c_full, c_red_in]`.
    pub lconv_w: WeightId,
    /// Optional lconv bias.
    pub lconv_b: Option<WeightId>,
    /// The elementwise activation between the factor convolutions.
    pub act: ActKind,
    /// Optional pooling folded into the kernel: `(kind, kernel, stride)`.
    pub pool: Option<(PoolKind, usize, usize)>,
    /// Optional trailing reducing convolution.
    pub fconv: Option<FconvSpec>,
}

impl FusedSpec {
    /// This node's geometry over an input of shape `input` (`[n, c, h, w]`),
    /// reading the factor widths from `g`'s weights.
    pub fn geometry(&self, g: &Graph, input: &[usize]) -> FusedGeometry {
        FusedGeometry::new(
            input,
            g.weight(self.lconv_w).dim(0),
            self.fconv.map(|fc| g.weight(fc.weight).dim(0)),
            self.pool.map(|(_, k, s)| (k, s)),
        )
    }
}

/// The extents of one fused node, derived once: shape inference, the FLOP
/// model, the tuning signature, the scratch formula and the kernel all
/// read them from here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FusedGeometry {
    /// Batch.
    pub n: usize,
    /// Reduced input channels (the lconv's input width).
    pub c_in: usize,
    /// Full channel width between lconv and fconv.
    pub c_full: usize,
    /// Output channels: the fconv's width, or `c_full` for a restore kernel.
    pub c_out: usize,
    /// Whether a reducing fconv follows.
    pub fconv: bool,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Output (post-pool) height.
    pub oh: usize,
    /// Output (post-pool) width.
    pub ow: usize,
    /// Pool window (`1` without a pool).
    pub pk: usize,
    /// Pool stride (`1` without a pool; must be positive).
    pub ps: usize,
}

impl FusedGeometry {
    /// Geometry for an input `[n, c_in, h, w]`, `c_full` restored channels,
    /// an optional fconv with `fconv_out` output channels and an optional
    /// `(kernel, stride)` pool.
    pub fn new(
        input: &[usize],
        c_full: usize,
        fconv_out: Option<usize>,
        pool: Option<(usize, usize)>,
    ) -> FusedGeometry {
        let (pk, ps) = pool.unwrap_or((1, 1));
        let (h, w) = (input[2], input[3]);
        FusedGeometry {
            n: input[0],
            c_in: input[1],
            c_full,
            c_out: fconv_out.unwrap_or(c_full),
            fconv: fconv_out.is_some(),
            h,
            w,
            oh: conv_out_dim(h, pk, ps, 0),
            ow: conv_out_dim(w, pk, ps, 0),
            pk,
            ps,
        }
    }

    /// The node's output shape `[n, c_out, oh, ow]`.
    pub fn out_shape(&self) -> [usize; 4] {
        [self.n, self.c_out, self.oh, self.ow]
    }
}

/// One IR operator.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A graph input; its shape is fixed at graph construction.
    Input,
    /// 2-D convolution.
    Conv2d(ConvSpec),
    /// Transposed convolution, `weight [c_in, c_out, kh, kw]` (UNet up-conv).
    ConvTranspose2d {
        /// Kernel weight.
        weight: WeightId,
        /// Optional bias.
        bias: Option<WeightId>,
        /// Stride.
        stride: (usize, usize),
    },
    /// Elementwise activation.
    Activation(ActKind),
    /// Spatial pooling with square window, no padding.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling to `[n, c, 1, 1]`.
    GlobalAvgPool,
    /// Per-channel affine `y = x * scale + bias` (inference-folded
    /// batch normalization).
    Affine {
        /// Per-channel scale `[c]`.
        scale: WeightId,
        /// Per-channel bias `[c]`.
        bias: WeightId,
    },
    /// Elementwise sum of all inputs (≥ 2).
    Add,
    /// Channel-axis concatenation of all inputs.
    Concat,
    /// Fully connected layer: contraction over the *last* dimension of a
    /// rank-≥-2 input (`[..., in_f] → [..., out_f]`).
    Linear {
        /// Weight `[out_f, in_f]`.
        weight: WeightId,
        /// Optional bias `[out_f]`.
        bias: Option<WeightId>,
    },
    /// Collapse `[n, ...]` to `[n, rest]`.
    Flatten,
    /// Softmax over the last dim of a rank-≥-2 tensor (rows = volume /
    /// last-dim) — the axis attention scores normalize over.
    Softmax,
    /// Batched matrix multiply over the trailing two dims; leading dims
    /// are the (equal) batch. At most one operand may be transposed —
    /// that covers `QKᵀ` and `A·V` without a TT GEMM variant.
    MatMul {
        /// Treat the first operand as stored `[..., k, m]`.
        transpose_a: bool,
        /// Treat the second operand as stored `[..., n, k]` (weight-style).
        transpose_b: bool,
    },
    /// Layer normalization over the last dimension with learned per-feature
    /// scale and bias.
    LayerNorm {
        /// Per-feature scale `[f]`.
        scale: WeightId,
        /// Per-feature bias `[f]`.
        bias: WeightId,
        /// Variance stabilizer.
        eps: f32,
    },
    /// `[n, t, d]` → `[n·heads, t, d/heads]`: fold attention heads into the
    /// batch dim so downstream matmul/softmax stay rank-3.
    SplitHeads {
        /// Head count; must divide the model dimension.
        heads: usize,
    },
    /// Inverse of [`Op::SplitHeads`]: `[n·heads, t, dh]` → `[n, t, heads·dh]`.
    MergeHeads {
        /// Head count; must divide the leading dimension.
        heads: usize,
    },
    /// TeMCO's fused decomposed-sequence operator.
    Fused(FusedSpec),
}

impl Op {
    /// All weight ids this operator references.
    pub fn weight_ids(&self) -> Vec<WeightId> {
        self.collect_weights(|w| *w)
    }

    /// Mutable references to every weight id (for store compaction).
    pub fn weight_ids_mut(&mut self) -> Vec<&mut WeightId> {
        match self {
            Op::Conv2d(s) => {
                let mut v = vec![&mut s.weight];
                v.extend(s.bias.as_mut());
                v
            }
            Op::ConvTranspose2d { weight, bias, .. } => {
                let mut v = vec![weight];
                v.extend(bias.as_mut());
                v
            }
            Op::Affine { scale, bias } => vec![scale, bias],
            Op::Linear { weight, bias } => {
                let mut v = vec![weight];
                v.extend(bias.as_mut());
                v
            }
            Op::LayerNorm { scale, bias, .. } => vec![scale, bias],
            Op::Fused(s) => {
                let mut v = vec![&mut s.lconv_w];
                v.extend(s.lconv_b.as_mut());
                if let Some(f) = s.fconv.as_mut() {
                    v.push(&mut f.weight);
                    v.extend(f.bias.as_mut());
                }
                v
            }
            _ => Vec::new(),
        }
    }

    fn collect_weights(&self, f: impl Fn(&WeightId) -> WeightId) -> Vec<WeightId> {
        match self {
            Op::Conv2d(s) => {
                let mut v = vec![f(&s.weight)];
                v.extend(s.bias.as_ref().map(&f));
                v
            }
            Op::ConvTranspose2d { weight, bias, .. } => {
                let mut v = vec![f(weight)];
                v.extend(bias.as_ref().map(&f));
                v
            }
            Op::Affine { scale, bias } => vec![f(scale), f(bias)],
            Op::Linear { weight, bias } => {
                let mut v = vec![f(weight)];
                v.extend(bias.as_ref().map(&f));
                v
            }
            Op::LayerNorm { scale, bias, .. } => vec![f(scale), f(bias)],
            Op::Fused(s) => {
                let mut v = vec![f(&s.lconv_w)];
                v.extend(s.lconv_b.as_ref().map(&f));
                if let Some(fc) = &s.fconv {
                    v.push(f(&fc.weight));
                    v.extend(fc.bias.as_ref().map(&f));
                }
                v
            }
            _ => Vec::new(),
        }
    }

    /// Short mnemonic used in names, DOT output, and reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv2d(spec) => match spec.role {
                ConvRole::Standard => "conv",
                ConvRole::FConv => "fconv",
                ConvRole::Core => "core",
                ConvRole::LConv => "lconv",
            },
            Op::ConvTranspose2d { .. } => "upconv",
            Op::Activation(ActKind::Relu) => "relu",
            Op::Activation(ActKind::Silu) => "silu",
            Op::Activation(ActKind::Sigmoid) => "sigmoid",
            Op::Activation(ActKind::Tanh) => "tanh",
            Op::Pool { kind: PoolKind::Max, .. } => "maxpool",
            Op::Pool { kind: PoolKind::Avg, .. } => "avgpool",
            Op::GlobalAvgPool => "gap",
            Op::Affine { .. } => "bn",
            Op::Add => "add",
            Op::Concat => "concat",
            Op::Linear { .. } => "linear",
            Op::Flatten => "flatten",
            Op::Softmax => "softmax",
            Op::MatMul { .. } => "matmul",
            Op::LayerNorm { .. } => "layernorm",
            Op::SplitHeads { .. } => "split_heads",
            Op::MergeHeads { .. } => "merge_heads",
            Op::Fused(_) => "fused",
        }
    }

    /// Whether this op is an elementwise activation layer (the
    /// "non-decomposed activation layers" of Section 3.2).
    pub fn is_activation(&self) -> bool {
        matches!(self, Op::Activation(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_reflect_conv_roles() {
        let mk = |role| {
            Op::Conv2d(ConvSpec {
                weight: WeightId(0),
                bias: None,
                stride: (1, 1),
                padding: (0, 0),
                groups: 1,
                role,
            })
        };
        assert_eq!(mk(ConvRole::Standard).mnemonic(), "conv");
        assert_eq!(mk(ConvRole::FConv).mnemonic(), "fconv");
        assert_eq!(mk(ConvRole::Core).mnemonic(), "core");
        assert_eq!(mk(ConvRole::LConv).mnemonic(), "lconv");
    }

    #[test]
    fn activation_predicate() {
        assert!(Op::Activation(ActKind::Relu).is_activation());
        assert!(!Op::Add.is_activation());
        assert!(!Op::Input.is_activation());
    }
}
