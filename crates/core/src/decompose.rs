//! The decomposition pass: replace convolutions with decomposed sequences.
//!
//! This reproduces what existing tensor-decomposition work does to a model
//! (Section 2.1 / Figure 2): each eligible convolution becomes
//! `fconv (1×1, reducing) → core convolution(s) → lconv (1×1, restoring)`,
//! with the original bias attached to the `lconv`. Two steps per node: a
//! pure factorize step ([`temco_decomp::factorize`], the only place a family
//! is chosen) and one lowering loop that splices the returned
//! [`FactorChain`] into the graph whatever the family. The pass records, per
//! `lconv`, the FLOPs of the *original* (non-decomposed) convolution — the
//! quantity the paper uses as `COMPUTE_THRESHOLD` in the skip-connection
//! optimization's overhead check.

use std::collections::HashMap;

use temco_decomp::{factorize, FactorChain, Method, Spatial};
use temco_ir::{ConvRole, ConvSpec, Graph, Node, Op, ValueId};
use temco_tensor::Tensor;

/// Decomposition pass options.
#[derive(Clone, Debug)]
pub struct DecomposeOptions {
    /// Decomposition family.
    pub method: Method,
    /// The paper's decomposition ratio (0.1 in the evaluation).
    pub ratio: f64,
    /// Skip convolutions whose input or output channels are below this.
    /// The paper decomposes every convolution (that is what lets fusion
    /// reach the stem layers whose activations dominate VGG's peak), so the
    /// default is 0; deployments worried about stem accuracy can raise it.
    pub min_channels: usize,
    /// Skip kernels whose decomposition would not shrink parameters (tiny
    /// heads). Disable to force decomposition regardless (used by the
    /// full-rank losslessness tests).
    pub only_if_smaller: bool,
    /// HOOI refinement rounds for Tucker.
    pub hooi_iters: usize,
    /// ALS rounds for CP.
    pub cp_iters: usize,
    /// Compress `Linear` weight *matrices* through the per-layer selector
    /// ([`temco_decomp::select_matrix`]): each eligible layer is measured
    /// under Tucker/CP/TT at the ratio-derived ranks and replaced by the
    /// cheapest chain within `matrix_error_budget` — or kept dense. Off by
    /// default: the paper's CNN evaluation never touches linear layers and
    /// the CNN baselines must stay byte-identical.
    pub compress_matrices: bool,
    /// Relative reconstruction error the matrix selector may accept.
    pub matrix_error_budget: f64,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions {
            method: Method::Tucker,
            ratio: 0.1,
            min_channels: 0,
            only_if_smaller: true,
            hooi_iters: 1,
            cp_iters: 20,
            compress_matrices: false,
            matrix_error_budget: 0.35,
        }
    }
}

/// What the matrix selector decided for one `Linear` layer.
#[derive(Clone, Debug)]
pub struct MatrixLayerChoice {
    /// Node name of the original layer.
    pub layer: String,
    /// Winning family name (`"tucker"`, `"cp"`, `"tt"`), or `"dense"`.
    pub method: &'static str,
    /// Dense parameter count.
    pub params_before: usize,
    /// Parameters after compression (unchanged when dense).
    pub params_after: usize,
    /// Per-row FLOPs before and after.
    pub flops_before: u64,
    /// See `flops_before`.
    pub flops_after: u64,
    /// Relative Frobenius reconstruction error of the accepted chain.
    pub rel_error: f64,
}

/// Result of the decomposition pass.
#[derive(Clone, Debug, Default)]
pub struct DecomposeStats {
    /// Convolutions replaced by decomposed sequences.
    pub convs_decomposed: usize,
    /// Convolutions left intact (stem convs, grouped convs, heads).
    pub convs_skipped: usize,
    /// Weight bytes before the pass.
    pub weight_bytes_before: usize,
    /// Weight bytes referenced after the pass (decomposed factors replace
    /// the originals; originals stay in the store but unreferenced).
    pub weight_bytes_after: usize,
    /// Per-`lconv`-output FLOPs of the original convolution it restores —
    /// consumed by the skip-connection optimization's `Overhead` check.
    pub original_conv_flops: HashMap<ValueId, u64>,
    /// Linear layers replaced by low-rank chains (matrix gate only).
    pub linears_compressed: usize,
    /// Linear layers measured by the selector but kept dense.
    pub linears_kept_dense: usize,
    /// Per-layer selector decisions, in graph order (matrix gate only).
    pub matrix_choices: Vec<MatrixLayerChoice>,
}

/// Weight matrices with a dimension above this are never offered to the
/// selector: the factorizations form Gram matrices of the larger dimension,
/// which is quadratic space/time (a 4k-wide flattened classifier head would
/// build a 4k×4k Gram and grow anyway at realistic ratios). Such layers —
/// in practice the flatten→head classifiers — stay dense, mirroring the
/// paper's CNN evaluation, which never touches linear layers at all.
const MAX_MATRIX_DIM: usize = 2048;

/// Live weight bytes: bytes of weights actually referenced by nodes.
fn referenced_weight_bytes(g: &Graph) -> usize {
    use std::collections::HashSet;
    let mut seen: HashSet<u32> = HashSet::new();
    let mut total = 0usize;
    for node in &g.nodes {
        for w in node.op.weight_ids() {
            if seen.insert(w.0) {
                total += g.weight(w).bytes();
            }
        }
    }
    total
}

/// Run the decomposition pass in place. Shapes must be inferred beforehand;
/// they are re-inferred afterwards.
///
/// Each node is factorized (a pure function of its weight and `opts`), then
/// its [`FactorChain`] is spliced into the graph by one lowering loop: the
/// first factor becomes the `fconv`, the last the `lconv` (taking the bias
/// and the original output value), every factor in between a `core`. An
/// up-conv's spatial factor becomes a transposed convolution; a matrix
/// chain becomes `Linear` nodes.
pub fn decompose(g: &mut Graph, opts: &DecomposeOptions) -> DecomposeStats {
    let mut stats =
        DecomposeStats { weight_bytes_before: referenced_weight_bytes(g), ..Default::default() };
    let old_nodes = std::mem::take(&mut g.nodes);
    let mut new_nodes: Vec<Node> = Vec::with_capacity(old_nodes.len() * 2);

    for node in old_nodes {
        let chain = match &node.op {
            Op::Linear { weight, .. } if opts.compress_matrices => {
                select_linear(g.weight(*weight), &node.name, opts, &mut stats)
            }
            Op::Conv2d(spec) if spec.role == ConvRole::Standard && spec.groups == 1 => {
                let w = g.weight(spec.weight);
                let iters = if opts.method == Method::Cp { opts.cp_iters } else { opts.hooi_iters };
                eligible(opts, opts.method, [w.dim(0), w.dim(1), w.dim(2), w.dim(3)])
                    .then(|| factorize(w, opts.method, opts.ratio, iters))
            }
            // CP/TT requests fall back to Tucker on up-convs: the separable
            // spatial split does not commute with the scatter semantics of
            // transposed convolution. The weight is `[c_in, c_out, kh, kw]`.
            Op::ConvTranspose2d { weight, .. } => {
                let w = g.weight(*weight);
                eligible(opts, Method::Tucker, [w.dim(1), w.dim(0), w.dim(2), w.dim(3)])
                    .then(|| factorize(&swap_io(w), Method::Tucker, opts.ratio, opts.hooi_iters))
            }
            _ => None,
        };
        let Some(chain) = chain else {
            if matches!(node.op, Op::Conv2d(_)) {
                stats.convs_skipped += 1;
            }
            new_nodes.push(node);
            continue;
        };
        match original_conv_flops(g, &node) {
            Some(flops) => {
                stats.original_conv_flops.insert(node.output, flops);
                stats.convs_decomposed += 1;
            }
            None => stats.linears_compressed += 1,
        }

        // What the factors inherit from the node they replace.
        let (bias, stride, padding) = match &node.op {
            Op::Conv2d(spec) => (spec.bias, spec.stride, spec.padding),
            Op::ConvTranspose2d { bias, stride, .. } => (*bias, *stride, (0, 0)),
            Op::Linear { bias, .. } => (*bias, (1, 1), (0, 0)),
            _ => unreachable!("only convolutions and linears are factorized"),
        };
        let linear = matches!(node.op, Op::Linear { .. });
        let upconv = matches!(node.op, Op::ConvTranspose2d { .. });
        let last = chain.factors.len() - 1;
        let mut cur = node.inputs[0];
        for (i, f) in chain.factors.into_iter().enumerate() {
            let (role, suffix) = match (i, f.spatial) {
                (0, _) => (ConvRole::FConv, "fconv"),
                (i, _) if i == last => (ConvRole::LConv, "lconv"),
                (_, Spatial::H) => (ConvRole::Core, "core_h"),
                (_, Spatial::W) => (ConvRole::Core, "core_w"),
                _ => (ConvRole::Core, "core"),
            };
            let name = if linear {
                format!("{}.f{i}", node.name)
            } else {
                format!("{}.{suffix}", node.name)
            };
            let bias = if i == last { bias } else { None };
            let op = if linear {
                let shape = [f.weight.dim(0), f.weight.dim(1)];
                let weight = g.add_weight(Tensor::from_vec(&shape, f.weight.into_vec()));
                Op::Linear { weight, bias }
            } else if upconv && f.spatial != Spatial::None {
                Op::ConvTranspose2d { weight: g.add_weight(swap_io(&f.weight)), bias, stride }
            } else {
                let p = f.conv_params(stride, padding);
                let weight = g.add_weight(f.weight);
                let (stride, padding, groups) = (p.stride, p.padding, p.groups);
                Op::Conv2d(ConvSpec { weight, bias, stride, padding, groups, role })
            };
            let output = if i == last { node.output } else { g.fresh_value(format!("{name}.out")) };
            new_nodes.push(Node { op, inputs: vec![cur], output, name });
            cur = output;
        }
    }

    g.nodes = new_nodes;
    g.infer_shapes();
    stats.weight_bytes_after = referenced_weight_bytes(g);
    stats
}

/// Should a `[c_out, c_in, kh, kw]` kernel be factorized with `method`? Its
/// channels must reach `min_channels`, and under `only_if_smaller` the
/// planned chain must have fewer parameters than the kernel: tiny heads
/// (e.g. UNet's 1-channel 1×1 output conv) would *grow*, so they stay.
fn eligible(opts: &DecomposeOptions, method: Method, shape: [usize; 4]) -> bool {
    shape[0] >= opts.min_channels
        && shape[1] >= opts.min_channels
        && (!opts.only_if_smaller
            || FactorChain::planned_param_count(method, shape, opts.ratio)
                < shape.iter().product::<usize>())
}

/// FLOPs of the original convolution (bias excluded): `2 · out_numel ·
/// c_in·kh·kw` for a conv, `2 · in_numel · c_out·kh·kw` for an up-conv;
/// `None` for a `Linear`.
fn original_conv_flops(g: &Graph, node: &Node) -> Option<u64> {
    let (weight, pixels_of) = match &node.op {
        Op::Conv2d(spec) => (spec.weight, node.output),
        Op::ConvTranspose2d { weight, .. } => (*weight, node.inputs[0]),
        _ => return None,
    };
    let w = g.weight(weight);
    let numel: usize = g.values[pixels_of.0 as usize]
        .shape
        .as_ref()
        .expect("run shape inference before decompose")
        .iter()
        .product();
    Some(2 * numel as u64 * (w.dim(1) * w.dim(2) * w.dim(3)) as u64)
}

/// Swap the first two axes of a 4-D weight: `[a, b, kh, kw] → [b, a, kh, kw]`
/// (a transposed convolution's `[c_in, c_out, ..]` ⇄ a conv's `[c_out, c_in, ..]`).
fn swap_io(w: &Tensor) -> Tensor {
    let (a, b, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
    let mut out = Tensor::zeros(&[b, a, kh, kw]);
    for i in 0..a {
        for j in 0..b {
            for h in 0..kh {
                for x in 0..kw {
                    *out.at4_mut(j, i, h, x) = w.at4(i, j, h, x);
                }
            }
        }
    }
    out
}

/// Run the per-layer matrix selector on one `Linear` weight: `Some(chain)`
/// to replace the layer, `None` to keep it dense. The selector measures
/// Tucker/CP/TT at the ratio-derived ranks and keeps the layer dense when
/// no chain both shrinks it and fits the error budget.
fn select_linear(
    w: &Tensor,
    layer: &str,
    opts: &DecomposeOptions,
    stats: &mut DecomposeStats,
) -> Option<FactorChain> {
    let (f_out, f_in) = (w.dim(0), w.dim(1));
    if f_out.max(f_in) > MAX_MATRIX_DIM || f_out.min(f_in) < 8 {
        stats.linears_kept_dense += 1;
        return None;
    }
    // Tucker on a matrix is a two-sided truncated SVD, for which HOOI
    // converges in a round or two; CP's ALS shares the same small budget
    // and simply loses the selection when it has not converged.
    let iters = opts.hooi_iters.max(2);
    let choice = temco_decomp::select_matrix(w, opts.ratio, opts.matrix_error_budget, iters);
    stats.matrix_choices.push(MatrixLayerChoice {
        layer: layer.to_string(),
        method: choice.method.map_or("dense", |m| m.name()),
        params_before: choice.params_before,
        params_after: choice.params_after,
        flops_before: choice.flops_before,
        flops_after: choice.flops_after,
        rel_error: choice.rel_error,
    });
    if choice.chain.is_none() {
        stats.linears_kept_dense += 1;
    }
    choice.chain
}

/// The paper's structural `IsLConv` test (Algorithm 2, lines 1–7): a 1×1,
/// stride-1, ungrouped convolution that *increases* the channel count.
pub fn is_lconv(g: &Graph, node_idx: usize) -> bool {
    let node = &g.nodes[node_idx];
    let Op::Conv2d(spec) = &node.op else { return false };
    if spec.stride != (1, 1) || spec.groups != 1 {
        return false;
    }
    let w = g.weight(spec.weight);
    w.dim(2) == 1 && w.dim(3) == 1 && w.dim(0) > w.dim(1)
}

/// Structural `IsFConv`: a 1×1, stride-1, ungrouped convolution that
/// *decreases* the channel count.
pub fn is_fconv(g: &Graph, node_idx: usize) -> bool {
    let node = &g.nodes[node_idx];
    let Op::Conv2d(spec) = &node.op else { return false };
    if spec.stride != (1, 1) || spec.padding != (0, 0) || spec.groups != 1 {
        return false;
    }
    let w = g.weight(spec.weight);
    w.dim(2) == 1 && w.dim(3) == 1 && w.dim(0) < w.dim(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use temco_runtime::{execute, ExecOptions};

    fn chain_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 32, 12, 12], "x");
        let c1 = g.conv2d(
            x,
            Tensor::he_conv_weight(48, 32, 3, 3, 1),
            Some(Tensor::rand_uniform(&[48], 2, -0.1, 0.1)),
            1,
            1,
            "conv1",
        );
        let r1 = g.relu(c1, "relu1");
        let c2 = g.conv2d(r1, Tensor::he_conv_weight(32, 48, 3, 3, 3), None, 2, 1, "conv2");
        g.mark_output(c2);
        g.infer_shapes();
        g
    }

    #[test]
    fn tucker_replaces_each_conv_with_three_nodes() {
        let mut g = chain_graph();
        let stats = decompose(&mut g, &DecomposeOptions::default());
        assert_eq!(stats.convs_decomposed, 2);
        let convs: Vec<ConvRole> = g
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Conv2d(s) => Some(s.role),
                _ => None,
            })
            .collect();
        assert_eq!(
            convs,
            vec![
                ConvRole::FConv,
                ConvRole::Core,
                ConvRole::LConv,
                ConvRole::FConv,
                ConvRole::Core,
                ConvRole::LConv,
            ]
        );
        assert!(temco_ir::verify(&g).is_empty());
    }

    #[test]
    fn full_rank_tucker_preserves_outputs() {
        let g0 = chain_graph();
        let mut g = g0.clone();
        // Tucker at ratio 1.0 is a full-rank factorization: outputs match.
        let opts = DecomposeOptions {
            method: Method::Tucker,
            ratio: 1.0,
            only_if_smaller: false,
            ..Default::default()
        };
        let stats = decompose(&mut g, &opts);
        assert_eq!(stats.convs_decomposed, 2, "full-rank test must actually decompose");
        let x = Tensor::randn(&[1, 32, 12, 12], 9);
        let a = execute(&g0, std::slice::from_ref(&x), ExecOptions::default())
            .expect("execution failed");
        let b = execute(&g, &[x], ExecOptions::default()).expect("execution failed");
        assert_eq!(a.outputs[0].shape(), b.outputs[0].shape());
        let diff = a.outputs[0].max_abs_diff(&b.outputs[0]);
        let scale = a.outputs[0].fro_norm() / (a.outputs[0].numel() as f32).sqrt();
        assert!(diff < 1e-2 * scale.max(1.0), "diff {diff} (scale {scale})");
    }

    #[test]
    fn tt_recovers_low_tt_rank_kernels_exactly() {
        // TT at ratio 1.0 still bounds the middle bond by max(c_in, c_out),
        // which truncates random kernels — so exactness is tested on kernels
        // that genuinely have low TT rank.
        use temco_decomp::tt_decompose;
        let low_tt = |c_out: usize, c_in: usize, seed: u64| {
            let probe = Tensor::randn(&[c_out, c_in, 3, 3], seed);
            let tt = tt_decompose(&probe, (3, 4, 3));
            tt.reconstruct()
        };
        let mut g = Graph::new();
        let x = g.input(&[1, 32, 10, 10], "x");
        let c1 = g.conv2d(x, low_tt(48, 32, 31), None, 1, 1, "conv1");
        let r1 = g.relu(c1, "relu1");
        let c2 = g.conv2d(r1, low_tt(32, 48, 32), None, 1, 1, "conv2");
        g.mark_output(c2);
        g.infer_shapes();
        let g0 = g.clone();
        let opts =
            DecomposeOptions { method: Method::TensorTrain, ratio: 0.5, ..Default::default() };
        decompose(&mut g, &opts);
        let x = Tensor::randn(&[1, 32, 10, 10], 33);
        let a = execute(&g0, std::slice::from_ref(&x), ExecOptions::default())
            .expect("execution failed");
        let b = execute(&g, &[x], ExecOptions::default()).expect("execution failed");
        let diff = a.outputs[0].max_abs_diff(&b.outputs[0]);
        assert!(diff < 1e-2, "diff {diff}");
    }

    #[test]
    fn cp_decomposition_runs_and_keeps_shapes() {
        // A random 4-D kernel has CP rank far above max(c_out, c_in), so
        // full-rank value recovery is not expected — only the structural
        // contract (shape preservation, fconv/core/core/lconv layout).
        let g0 = chain_graph();
        let mut g = g0.clone();
        let opts = DecomposeOptions {
            method: Method::Cp,
            ratio: 0.25,
            cp_iters: 10,
            ..Default::default()
        };
        let stats = decompose(&mut g, &opts);
        assert_eq!(stats.convs_decomposed, 2);
        let x = Tensor::randn(&[1, 32, 12, 12], 9);
        let a = execute(&g0, std::slice::from_ref(&x), ExecOptions::default())
            .expect("execution failed");
        let b = execute(&g, &[x], ExecOptions::default()).expect("execution failed");
        assert_eq!(a.outputs[0].shape(), b.outputs[0].shape());
        // Four conv nodes per decomposed sequence for CP.
        let roles: Vec<ConvRole> = g
            .nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Conv2d(s) => Some(s.role),
                _ => None,
            })
            .collect();
        assert_eq!(roles.len(), 8);
        assert!(temco_ir::verify(&g).is_empty());
    }

    #[test]
    fn low_ratio_shrinks_weights_and_flops() {
        let mut g = chain_graph();
        let flops_before = temco_ir::graph_flops(&g);
        let stats = decompose(&mut g, &DecomposeOptions::default());
        assert!(stats.weight_bytes_after < stats.weight_bytes_before / 2);
        assert!(temco_ir::graph_flops(&g) < flops_before / 2);
    }

    #[test]
    fn stem_is_decomposed_by_default_but_protectable() {
        let mk = || {
            let mut g = Graph::new();
            let x = g.input(&[1, 3, 8, 8], "x");
            let c = g.conv2d(x, Tensor::he_conv_weight(64, 3, 3, 3, 1), None, 1, 1, "stem");
            g.mark_output(c);
            g.infer_shapes();
            g
        };
        // Default (paper configuration): every conv is decomposed.
        let mut g = mk();
        let stats = decompose(&mut g, &DecomposeOptions::default());
        assert_eq!(stats.convs_decomposed, 1);
        // min_channels opts the stem out.
        let mut g = mk();
        let opts = DecomposeOptions { min_channels: 16, ..Default::default() };
        let stats = decompose(&mut g, &opts);
        assert_eq!(stats.convs_decomposed, 0);
        assert_eq!(stats.convs_skipped, 1);
    }

    #[test]
    fn decomposition_that_would_grow_weights_is_skipped() {
        // A 1-channel 1×1 head: factors would have more parameters than the
        // kernel itself.
        let mut g = Graph::new();
        let x = g.input(&[1, 64, 8, 8], "x");
        let c = g.conv2d(x, Tensor::he_conv_weight(1, 64, 1, 1, 1), None, 1, 0, "head");
        g.mark_output(c);
        g.infer_shapes();
        let stats = decompose(&mut g, &DecomposeOptions::default());
        assert_eq!(stats.convs_decomposed, 0);
        assert_eq!(stats.convs_skipped, 1);
    }

    #[test]
    fn lconv_structural_test_matches_roles() {
        let mut g = chain_graph();
        decompose(&mut g, &DecomposeOptions::default());
        for (i, n) in g.nodes.iter().enumerate() {
            if let Op::Conv2d(s) = &n.op {
                assert_eq!(s.role == ConvRole::LConv, is_lconv(&g, i), "node {}", n.name);
                assert_eq!(s.role == ConvRole::FConv, is_fconv(&g, i), "node {}", n.name);
            }
        }
    }

    #[test]
    fn upconv_is_decomposed_and_preserved_at_full_rank() {
        let mut g = Graph::new();
        let x = g.input(&[1, 32, 7, 7], "x");
        let w = Tensor::he_conv_weight(32, 16, 2, 2, 5).reshape(&[32, 16, 2, 2]);
        let up = g.conv_transpose2d(x, w, Some(Tensor::randn(&[16], 6)), 2, "up");
        g.mark_output(up);
        g.infer_shapes();
        let g0 = g.clone();
        // Full-rank Tucker: lossless.
        let opts = DecomposeOptions { ratio: 1.0, only_if_smaller: false, ..Default::default() };
        let stats = decompose(&mut g, &opts);
        assert_eq!(stats.convs_decomposed, 1);
        assert!(temco_ir::verify(&g).is_empty());
        // fconv → small upconv → lconv structure.
        assert!(matches!(g.nodes[1].op, Op::Conv2d(ConvSpec { role: ConvRole::FConv, .. })));
        assert!(matches!(g.nodes[2].op, Op::ConvTranspose2d { .. }));
        assert!(matches!(g.nodes[3].op, Op::Conv2d(ConvSpec { role: ConvRole::LConv, .. })));

        let x_t = Tensor::randn(&[1, 32, 7, 7], 7);
        let a = execute(&g0, std::slice::from_ref(&x_t), ExecOptions::default())
            .expect("execution failed");
        let b = execute(&g, &[x_t], ExecOptions::default()).expect("execution failed");
        assert_eq!(a.outputs[0].shape(), b.outputs[0].shape());
        let diff = a.outputs[0].max_abs_diff(&b.outputs[0]);
        assert!(diff < 1e-3, "diff {diff}");
    }

    #[test]
    fn upconv_low_rank_shrinks_params() {
        let mut g = Graph::new();
        let x = g.input(&[1, 64, 8, 8], "x");
        let w = Tensor::he_conv_weight(64, 32, 2, 2, 9).reshape(&[64, 32, 2, 2]);
        let up = g.conv_transpose2d(x, w, None, 2, "up");
        g.mark_output(up);
        g.infer_shapes();
        let stats = decompose(&mut g, &DecomposeOptions::default());
        assert_eq!(stats.convs_decomposed, 1);
        assert!(stats.weight_bytes_after < stats.weight_bytes_before / 2);
    }

    /// A genuinely low-rank `[m, n]` matrix (product of thin factors).
    fn low_rank_matrix(m: usize, n: usize, r: usize, seed: u64) -> Tensor {
        let a = Tensor::randn(&[m, r], seed);
        let b = Tensor::randn(&[r, n], seed ^ 0xBEEF);
        temco_tensor::matmul(&a, &b, false, false)
    }

    fn linear_graph(w: Tensor) -> Graph {
        let mut g = Graph::new();
        let f_in = w.dim(1);
        let x = g.input(&[2, f_in], "x");
        let b = Tensor::rand_uniform(&[w.dim(0)], 5, -0.1, 0.1);
        let y = g.linear(x, w, Some(b), "fc");
        g.mark_output(y);
        g.infer_shapes();
        g
    }

    #[test]
    fn matrix_gate_off_leaves_linears_untouched() {
        let mut g = linear_graph(low_rank_matrix(64, 48, 4, 21));
        let before = g.nodes.len();
        let stats = decompose(&mut g, &DecomposeOptions::default());
        assert_eq!(g.nodes.len(), before);
        assert_eq!(stats.linears_compressed, 0);
        assert_eq!(stats.linears_kept_dense, 0);
        assert!(stats.matrix_choices.is_empty());
        assert!(matches!(g.nodes[1].op, Op::Linear { .. }));
    }

    #[test]
    fn low_rank_linear_compresses_and_preserves_outputs() {
        let g0 = linear_graph(low_rank_matrix(64, 48, 4, 23));
        let mut g = g0.clone();
        let opts = DecomposeOptions {
            compress_matrices: true,
            ratio: 0.25,
            matrix_error_budget: 0.05,
            ..Default::default()
        };
        let stats = decompose(&mut g, &opts);
        assert_eq!(stats.linears_compressed, 1);
        assert_eq!(stats.matrix_choices.len(), 1);
        let c = &stats.matrix_choices[0];
        assert_ne!(c.method, "dense");
        assert!(c.params_after < c.params_before);
        assert!(c.flops_after < c.flops_before);
        assert!(stats.weight_bytes_after < stats.weight_bytes_before);
        assert!(temco_ir::verify(&g).is_empty());
        // The chain is all Linear nodes, bias only on the last.
        for (i, n) in g.nodes.iter().enumerate().skip(1) {
            let Op::Linear { bias, .. } = &n.op else { panic!("non-linear node {}", n.name) };
            assert_eq!(bias.is_some(), i == g.nodes.len() - 1, "bias placement at {}", n.name);
        }
        let x = Tensor::randn(&[2, 48], 29);
        let a = execute(&g0, std::slice::from_ref(&x), ExecOptions::default())
            .expect("execution failed");
        let b = execute(&g, &[x], ExecOptions::default()).expect("execution failed");
        assert_eq!(a.outputs[0].shape(), b.outputs[0].shape());
        let diff = a.outputs[0].max_abs_diff(&b.outputs[0]);
        let scale = a.outputs[0].fro_norm() / (a.outputs[0].numel() as f32).sqrt();
        assert!(diff < 0.05 * scale.max(1.0), "diff {diff} (scale {scale})");
    }

    #[test]
    fn incompressible_and_tiny_linears_stay_dense() {
        // Full-rank at a tight budget: measured, then kept dense.
        let mut g = linear_graph(Tensor::randn(&[32, 32], 31));
        let opts = DecomposeOptions {
            compress_matrices: true,
            ratio: 0.1,
            matrix_error_budget: 0.02,
            ..Default::default()
        };
        let stats = decompose(&mut g, &opts);
        assert_eq!(stats.linears_compressed, 0);
        assert_eq!(stats.linears_kept_dense, 1);
        assert_eq!(stats.matrix_choices.len(), 1);
        assert_eq!(stats.matrix_choices[0].method, "dense");

        // Below the minimum width: never even measured.
        let mut g = linear_graph(Tensor::randn(&[4, 4], 37));
        let stats = decompose(&mut g, &opts);
        assert_eq!(stats.linears_kept_dense, 1);
        assert!(stats.matrix_choices.is_empty());
    }

    #[test]
    fn original_flops_recorded_per_lconv_output() {
        let mut g = chain_graph();
        let stats = decompose(&mut g, &DecomposeOptions::default());
        assert_eq!(stats.original_conv_flops.len(), 2);
        for &f in stats.original_conv_flops.values() {
            assert!(f > 0);
        }
    }

    /// Run a decomposed graph and its reference on `x`: (decomposed output,
    /// reference output).
    fn outputs(g: &Graph, reference: &Graph, x: &Tensor) -> (Tensor, Tensor) {
        let run = |g: &Graph| {
            let r = execute(g, std::slice::from_ref(x), ExecOptions::default());
            r.expect("execution failed").outputs.remove(0)
        };
        (run(g), run(reference))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

        /// The one lowering is exact with respect to the factorization: a
        /// decomposed conv computes the original conv with its kernel
        /// replaced by the chain's reconstruction, for every family, stride,
        /// kernel shape and padding — and a Tucker up-conv likewise.
        #[test]
        fn lowering_is_exact_with_respect_to_the_factorization(
            c_out in 2usize..10,
            c_in in 2usize..10,
            h in 6usize..10,
            w in 6usize..10,
            seed in 0u64..1000,
        ) {
            let x = Tensor::randn(&[1, c_in, h, w], seed ^ 0x5EED);
            let bias = Tensor::randn(&[c_out], seed ^ 0xB1A5);
            for method in Method::ALL {
                let opts = DecomposeOptions {
                    method,
                    ratio: 0.5,
                    only_if_smaller: false,
                    cp_iters: 8,
                    ..Default::default()
                };
                let iters = if method == Method::Cp { opts.cp_iters } else { opts.hooi_iters };
                for (kh, kw) in [(1, 1), (3, 3), (3, 5)] {
                    let kernel = Tensor::randn(&[c_out, c_in, kh, kw], seed + kh as u64 + kw as u64);
                    let rec = factorize(&kernel, method, opts.ratio, iters).reconstruct();
                    for stride in [1, 2] {
                        for pad in [0, 1] {
                            let conv = |weight: Tensor| {
                                let mut g = Graph::new();
                                let v = g.input(&[1, c_in, h, w], "x");
                                let y = g.conv2d(v, weight, Some(bias.clone()), stride, pad, "conv");
                                g.mark_output(y);
                                g.infer_shapes();
                                g
                            };
                            let mut g = conv(kernel.clone());
                            let stats = decompose(&mut g, &opts);
                            prop_assert_eq!(stats.convs_decomposed, 1);
                            let names: Vec<&str> = g.nodes[1..].iter().map(|n| n.name.as_str()).collect();
                            let expected: &[&str] = if method == Method::Tucker {
                                &["conv.fconv", "conv.core", "conv.lconv"]
                            } else {
                                &["conv.fconv", "conv.core_h", "conv.core_w", "conv.lconv"]
                            };
                            prop_assert_eq!(names, expected);
                            let (a, b) = outputs(&g, &conv(rec.clone()), &x);
                            let scale = b.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
                            let diff = a.max_abs_diff(&b);
                            prop_assert!(diff <= 1e-4 * scale, "{} k{kh}x{kw} s{stride} p{pad}: diff {diff}", method.name());
                        }
                    }
                }
            }

            // Up-conv: Tucker on the `[c_out, c_in, kh, kw]` view, the core
            // lowered as a transposed convolution.
            let kernel = Tensor::randn(&[c_in, c_out, 2, 2], seed ^ 0x0C0);
            let opts = DecomposeOptions { ratio: 0.5, only_if_smaller: false, ..Default::default() };
            let rec = swap_io(&factorize(&swap_io(&kernel), Method::Tucker, 0.5, 1).reconstruct());
            let up = |weight: Tensor| {
                let mut g = Graph::new();
                let v = g.input(&[1, c_in, h, w], "x");
                let y = g.conv_transpose2d(v, weight, Some(bias.clone()), 2, "up");
                g.mark_output(y);
                g.infer_shapes();
                g
            };
            let mut g = up(kernel);
            decompose(&mut g, &opts);
            prop_assert!(matches!(g.nodes[2].op, Op::ConvTranspose2d { .. }));
            let (a, b) = outputs(&g, &up(rec), &x);
            let scale = b.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            prop_assert!(a.max_abs_diff(&b) <= 1e-4 * scale, "up-conv diff {}", a.max_abs_diff(&b));
        }
    }

    #[test]
    fn planned_param_counts_match_the_hand_worked_table() {
        // Ratio 0.1, worked by hand from each family's factor shapes:
        // [64,64,3,3] → Tucker (6,6): 64·6 + 6·6·9 + 6·64; CP 6: 6·(64+3+3+64);
        //   TT (6,6,6): 6·64 + 6·6·3 + 6·6·3 + 6·64.
        // [32,16,1,1] → Tucker (3,2): 16·2 + 2·3 + 3·32; CP 3: 3·(16+1+1+32);
        //   TT (2,3,3): 2·16 + 2·3 + 3·3 + 3·32.
        // [1,64,1,1] → Tucker (1,6): 64·6 + 6·1 + 1·1; CP 6: 6·(64+1+1+1);
        //   TT (6,6,1) unclamped: 6·64 + 6·6 + 6·1 + 1·1 — all above 64.
        let table: [([usize; 4], [usize; 3], bool); 3] = [
            ([64, 64, 3, 3], [1092, 804, 984], true),
            ([32, 16, 1, 1], [134, 150, 143], true),
            ([1, 64, 1, 1], [391, 402, 427], false),
        ];
        let opts = DecomposeOptions::default();
        for (shape, params, shrinks) in table {
            for (method, want) in Method::ALL.into_iter().zip(params) {
                let got = FactorChain::planned_param_count(method, shape, 0.1);
                assert_eq!(got, want, "{} on {shape:?}", method.name());
                assert_eq!(
                    eligible(&opts, method, shape),
                    shrinks,
                    "{} on {shape:?}",
                    method.name()
                );
            }
        }
    }
}
