//! Seeded random-graph generation.
//!
//! The generator builds *valid* CNN graphs by construction: it tracks every
//! value's `[c, h, w]` shape itself and only emits an op whose output stays
//! non-degenerate (every dimension ≥ 1), so any graph it returns passes
//! `verify` + `infer_shapes` and executes at any positive batch size (spatial
//! dims never depend on batch). The op mix deliberately covers what the
//! compiler passes rewrite — plain and grouped convolutions, pools,
//! activations, shape-preserving skip chains (`conv → act → conv → add`),
//! concats — including fan-ins whose every branch dies at the concat (the
//! alias analysis's embedding target) — in-place-eligible activation
//! chains, and an optional classifier head — so a differential run over the
//! generated corpus exercises decomposition, skip-opt, the layer
//! transformations, fusion, and alias-aware allocation, not just
//! straight-line conv stacks.
//!
//! [`random_transformer`] builds the rank-3 counterpart corpus — MHA and
//! MLP blocks, gram-matrix attention, residual+layernorm chains — and
//! [`random_graph`] routes each seed to one family so a single sweep
//! covers both workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temco_ir::{ActKind, Graph, ValueId};
use temco_tensor::Tensor;

/// Knobs for [`random_cnn`]. The defaults keep graphs small enough that a
/// full differential check (all opt levels × all served batch sizes) runs in
/// tens of milliseconds, while still being deep enough to trigger every
/// compiler pass.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Operator nodes to emit (excluding the input and the optional head).
    pub ops: usize,
    /// Channel cap for conv/concat outputs.
    pub max_channels: usize,
    /// Input spatial size is drawn from `[min_image, max_image]`.
    pub min_image: usize,
    /// See `min_image`.
    pub max_image: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { ops: 10, max_channels: 32, min_image: 8, max_image: 16 }
    }
}

/// A frontier entry: a usable value and its `[c, h, w]` shape.
#[derive(Clone, Copy)]
struct Val {
    id: ValueId,
    c: usize,
    h: usize,
    w: usize,
}

/// Uniform draw from `[lo, hi]` (inclusive).
fn draw(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    lo + (rng.random::<u64>() as usize) % (hi - lo + 1)
}

fn pick<'a>(rng: &mut StdRng, xs: &'a [Val]) -> &'a Val {
    &xs[draw(rng, 0, xs.len() - 1)]
}

/// Largest output-dims-preserving convolution window: `(h+2p-k)/s + 1 ≥ 1`.
fn conv_out(i: usize, k: usize, s: usize, p: usize) -> usize {
    let eff = i + 2 * p;
    if eff < k {
        0
    } else {
        (eff - k) / s + 1
    }
}

/// Build one random valid CNN from `seed`. Deterministic: same seed + config
/// ⇒ byte-identical graph (weights included). The graph has exactly one
/// input (batch 1); every dead-end value is marked as an output, so the
/// whole graph is live and every branch is differentially observable.
pub fn random_cnn(seed: u64, cfg: &GenConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    // Weight seeds derive from the graph seed but use a disjoint stream so
    // reordering op choices never perturbs unrelated weights.
    let mut wseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next_wseed = || {
        wseed = wseed.wrapping_add(0x9E37_79B9);
        wseed
    };

    let c0 = [3usize, 4, 8][draw(&mut rng, 0, 2)];
    let s0 = draw(&mut rng, cfg.min_image, cfg.max_image);
    let x = g.input(&[1, c0, s0, s0], "x");
    let mut frontier = vec![Val { id: x, c: c0, h: s0, w: s0 }];
    let mut last = frontier[0];

    for i in 0..cfg.ops {
        let roll = draw(&mut rng, 0, 11);
        let emitted = match roll {
            // Convolution (dense or grouped) — the most common op, and the
            // one every compiler pass cares about.
            0..=3 => {
                let src = *pick(&mut rng, &frontier);
                let k = [1usize, 3, 5][draw(&mut rng, 0, 2)];
                if k > src.h.min(src.w) {
                    None
                } else {
                    let stride = if draw(&mut rng, 0, 3) == 0 { 2 } else { 1 };
                    let pad = if k > 1 && draw(&mut rng, 0, 1) == 1 { k / 2 } else { 0 };
                    let oh = conv_out(src.h, k, stride, pad);
                    let ow = conv_out(src.w, k, stride, pad);
                    if oh == 0 || ow == 0 {
                        None
                    } else {
                        // Groups must divide both channel counts; depthwise
                        // (groups == c_in) shows up when c_in is drawn.
                        let groups = if draw(&mut rng, 0, 3) == 0 {
                            let divisors: Vec<usize> =
                                (2..=src.c).filter(|d| src.c.is_multiple_of(*d)).collect();
                            if divisors.is_empty() {
                                1
                            } else {
                                divisors[draw(&mut rng, 0, divisors.len() - 1)]
                            }
                        } else {
                            1
                        };
                        let c_out = (groups * draw(&mut rng, 1, 4)).min(cfg.max_channels);
                        let c_out = c_out - (c_out % groups);
                        let weight =
                            Tensor::he_conv_weight(c_out, src.c / groups, k, k, next_wseed());
                        let bias = (draw(&mut rng, 0, 1) == 1)
                            .then(|| Tensor::rand_uniform(&[c_out], next_wseed(), -0.1, 0.1));
                        let spec = temco_ir::ConvSpec {
                            weight: g.add_weight(weight),
                            bias: bias.map(|b| g.add_weight(b)),
                            stride: (stride, stride),
                            padding: (pad, pad),
                            groups,
                            role: temco_ir::ConvRole::Standard,
                        };
                        let v = g.conv2d_spec(src.id, spec, format!("conv{i}"));
                        Some(Val { id: v, c: c_out, h: oh, w: ow })
                    }
                }
            }
            // Pooling.
            4 => {
                let src = *pick(&mut rng, &frontier);
                let k = draw(&mut rng, 2, 3);
                let stride = draw(&mut rng, 1, 2);
                let oh = conv_out(src.h, k, stride, 0);
                let ow = conv_out(src.w, k, stride, 0);
                if oh == 0 || ow == 0 {
                    None
                } else {
                    let v = if draw(&mut rng, 0, 1) == 0 {
                        g.max_pool(src.id, k, stride, format!("maxpool{i}"))
                    } else {
                        g.avg_pool(src.id, k, stride, format!("avgpool{i}"))
                    };
                    Some(Val { id: v, c: src.c, h: oh, w: ow })
                }
            }
            // Activation.
            5 => {
                let src = *pick(&mut rng, &frontier);
                let kind = [ActKind::Relu, ActKind::Silu, ActKind::Sigmoid, ActKind::Tanh]
                    [draw(&mut rng, 0, 3)];
                let v = g.activation(src.id, kind, format!("act{i}"));
                Some(Val { id: v, ..src })
            }
            // Residual add over two same-shape frontier values.
            6 => {
                let a = *pick(&mut rng, &frontier);
                frontier
                    .iter()
                    .find(|b| b.id != a.id && (b.c, b.h, b.w) == (a.c, a.h, a.w))
                    .copied()
                    .map(|b| {
                        let v = g.add(&[a.id, b.id], format!("add{i}"));
                        Val { id: v, ..a }
                    })
            }
            // Channel concat over two spatially-equal frontier values.
            7 => {
                let a = *pick(&mut rng, &frontier);
                frontier
                    .iter()
                    .find(|b| {
                        b.id != a.id && (b.h, b.w) == (a.h, a.w) && a.c + b.c <= cfg.max_channels
                    })
                    .copied()
                    .map(|b| {
                        let v = g.concat(&[a.id, b.id], format!("concat{i}"));
                        Val { id: v, c: a.c + b.c, ..a }
                    })
            }
            // Concat of 2–3 fresh single-consumer branches off one source —
            // every branch dies at the concat, which is exactly the shape
            // the alias analysis embeds copy-free at batch 1 (and must
            // still copy correctly at rebatched sizes).
            10 => {
                let src = *pick(&mut rng, &frontier);
                let branches = draw(&mut rng, 2, 3);
                let mut parts = Vec::new();
                let mut c_total = 0usize;
                for bi in 0..branches {
                    let c_out = draw(&mut rng, 1, 4);
                    if c_total + c_out > cfg.max_channels {
                        break;
                    }
                    let w = Tensor::he_conv_weight(c_out, src.c, 1, 1, next_wseed());
                    let v = g.conv2d(src.id, w, None, 1, 0, format!("cat{i}_b{bi}"));
                    parts.push(v);
                    c_total += c_out;
                }
                (parts.len() >= 2).then(|| {
                    let v = g.concat(&parts, format!("cat{i}"));
                    Val { id: v, c: c_total, ..src }
                })
            }
            // A chain of 2–3 activations, each consuming the previous value
            // exactly once: every link is in-place eligible, so the whole
            // chain should collapse into a single buffer.
            11 => {
                let src = *pick(&mut rng, &frontier);
                let len = draw(&mut rng, 2, 3);
                let mut v = src.id;
                for (step, kind) in
                    [ActKind::Relu, ActKind::Tanh, ActKind::Sigmoid][..len].iter().enumerate()
                {
                    v = g.activation(v, *kind, format!("chain{i}_{step}"));
                }
                Some(Val { id: v, ..src })
            }
            // A whole shape-preserving skip chain: conv → act → conv → add.
            // This is the exact pattern skip-opt and fusion hunt for.
            _ => {
                let src = *pick(&mut rng, &frontier);
                if src.h < 3 || src.w < 3 {
                    None
                } else {
                    let w1 = Tensor::he_conv_weight(src.c, src.c, 3, 3, next_wseed());
                    let c1 = g.conv2d(src.id, w1, None, 1, 1, format!("skip{i}_c1"));
                    let r1 = g.relu(c1, format!("skip{i}_r"));
                    let w2 = Tensor::he_conv_weight(src.c, src.c, 3, 3, next_wseed());
                    let c2 = g.conv2d(r1, w2, None, 1, 1, format!("skip{i}_c2"));
                    let v = g.add(&[src.id, c2], format!("skip{i}_add"));
                    Some(Val { id: v, ..src })
                }
            }
        };
        if let Some(v) = emitted {
            frontier.push(v);
            last = v;
        }
    }

    // Optional classifier head — exercises GlobalAvgPool/Flatten/Linear/
    // Softmax and gives rebatch a non-4-D tail to re-infer.
    let head = (draw(&mut rng, 0, 1) == 1).then(|| {
        let p = g.global_avg_pool(last.id, "head_gap");
        let f = g.flatten(p, "head_flat");
        let classes = draw(&mut rng, 2, 10);
        let w = Tensor::randn(&[classes, last.c], next_wseed());
        let l = g.linear(f, w, None, "head_fc");
        g.softmax(l, "head_softmax")
    });

    // Every dead-end value becomes a graph output, so *no generated op is
    // dead code*: the compiler can't silently drop a branch, the executor
    // materializes everything, and the differential oracle compares every
    // branch's tensor at full resolution (not some pooled summary).
    for val in &frontier {
        let from_input =
            g.producer(val.id).is_none_or(|i| matches!(g.nodes[i].op, temco_ir::Op::Input));
        if g.users(val.id).is_empty() && !from_input {
            g.mark_output(val.id);
        }
    }
    if let Some(s) = head {
        g.mark_output(s);
    }
    if g.outputs.is_empty() {
        g.mark_output(last.id);
    }
    g.infer_shapes();
    g
}

/// Build one random valid transformer subgraph from `seed`: a rank-3
/// `[1, t, d]` token stream through a random mix of multi-head-attention
/// blocks, MLP blocks, gram-matrix attention (exercising the `transpose_a`
/// GEMM path), and residual+layernorm chains. Deterministic like
/// [`random_cnn`], and batch-independent by construction (every op is
/// head-folded rank-3, so rebatch just scales the leading dim).
///
/// `cfg.ops` is interpreted as a *block* budget (each block emits several
/// nodes); spatial knobs are ignored.
pub fn random_transformer(seed: u64, cfg: &GenConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E5F_0A11);
    let mut g = Graph::new();
    let mut wseed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(2);
    let mut next_wseed = || {
        wseed = wseed.wrapping_add(0x9E37_79B9);
        wseed
    };

    // Model dims stay small: the differential oracle runs every block at
    // every opt level and served batch size. d = heads · head_dim keeps
    // SplitHeads legal by construction.
    let heads = [1usize, 2, 4][draw(&mut rng, 0, 2)];
    let dh = draw(&mut rng, 2, 5);
    let d = heads * dh;
    let t = draw(&mut rng, 3, 7);
    let x = g.input(&[1, t, d], "x");
    let mut cur = x;

    let lim = 1.0 / (d as f32).sqrt();
    let blocks = (cfg.ops / 3).max(2);
    for i in 0..blocks {
        match draw(&mut rng, 0, 4) {
            // Multi-head self-attention block: q/k/v projections,
            // head-folded QKᵀ softmax attention, output projection,
            // residual, layernorm.
            0..=1 => {
                // Attention scale 1/√dh is absorbed into Wq — same
                // convention as the model family, no IR-level scale op.
                let qlim = lim / (dh as f32).sqrt();
                let wq = Tensor::rand_uniform(&[d, d], next_wseed(), -qlim, qlim);
                let wk = Tensor::rand_uniform(&[d, d], next_wseed(), -lim, lim);
                let wv = Tensor::rand_uniform(&[d, d], next_wseed(), -lim, lim);
                let wo = Tensor::rand_uniform(&[d, d], next_wseed(), -lim, lim);
                let q = g.linear(cur, wq, None, format!("blk{i}_q"));
                let k = g.linear(cur, wk, None, format!("blk{i}_k"));
                let v = g.linear(cur, wv, None, format!("blk{i}_v"));
                let qh = g.split_heads(q, heads, format!("blk{i}_qh"));
                let kh = g.split_heads(k, heads, format!("blk{i}_kh"));
                let vh = g.split_heads(v, heads, format!("blk{i}_vh"));
                let scores = g.matmul(qh, kh, false, true, format!("blk{i}_scores"));
                let attn = g.softmax(scores, format!("blk{i}_attn"));
                let ctx = g.matmul(attn, vh, false, false, format!("blk{i}_ctx"));
                let merged = g.merge_heads(ctx, heads, format!("blk{i}_merge"));
                let proj = g.linear(merged, wo, None, format!("blk{i}_proj"));
                let res = g.add(&[cur, proj], format!("blk{i}_res"));
                let scale = Tensor::rand_uniform(&[d], next_wseed(), 0.5, 1.5);
                let bias = Tensor::rand_uniform(&[d], next_wseed(), -0.1, 0.1);
                cur = g.layer_norm(res, scale, bias, 1e-5, format!("blk{i}_ln"));
            }
            // MLP block: expand, activate, contract, residual, layernorm.
            2 => {
                let m = d * draw(&mut rng, 2, 4);
                let w_up = Tensor::rand_uniform(&[m, d], next_wseed(), -lim, lim);
                let w_down = Tensor::rand_uniform(&[d, m], next_wseed(), -lim / 2.0, lim / 2.0);
                let up = g.linear(cur, w_up, None, format!("blk{i}_up"));
                let kind = [ActKind::Silu, ActKind::Relu, ActKind::Tanh][draw(&mut rng, 0, 2)];
                let act = g.activation(up, kind, format!("blk{i}_act"));
                let down = g.linear(act, w_down, None, format!("blk{i}_down"));
                let res = g.add(&[cur, down], format!("blk{i}_res"));
                let scale = Tensor::rand_uniform(&[d], next_wseed(), 0.5, 1.5);
                let bias = Tensor::rand_uniform(&[d], next_wseed(), -0.1, 0.1);
                cur = g.layer_norm(res, scale, bias, 1e-5, format!("blk{i}_ln"));
            }
            // Gram-matrix attention: XᵀX mixes *features* instead of
            // tokens — the one natural consumer of `transpose_a`, and a
            // matmul whose two operands are the same value.
            3 => {
                let gram = g.matmul(cur, cur, true, false, format!("blk{i}_gram"));
                let sm = g.softmax(gram, format!("blk{i}_gram_sm"));
                let mixed = g.matmul(cur, sm, false, false, format!("blk{i}_mix"));
                let res = g.add(&[cur, mixed], format!("blk{i}_res"));
                let scale = Tensor::rand_uniform(&[d], next_wseed(), 0.5, 1.5);
                let bias = Tensor::rand_uniform(&[d], next_wseed(), -0.1, 0.1);
                cur = g.layer_norm(res, scale, bias, 1e-5, format!("blk{i}_ln"));
            }
            // Residual activation + layernorm chain: in-place-eligible
            // links (activation, add, layernorm) back to back, the dense
            // aliasing case.
            _ => {
                let kind = [ActKind::Relu, ActKind::Sigmoid, ActKind::Tanh][draw(&mut rng, 0, 2)];
                let a = g.activation(cur, kind, format!("blk{i}_a"));
                let res = g.add(&[cur, a], format!("blk{i}_res"));
                let scale = Tensor::rand_uniform(&[d], next_wseed(), 0.5, 1.5);
                let bias = Tensor::rand_uniform(&[d], next_wseed(), -0.1, 0.1);
                cur = g.layer_norm(res, scale, bias, 1e-5, format!("blk{i}_ln"));
            }
        }
    }

    // Optional pooled classifier tail over the last-dim features —
    // a rank-3 softmax head when skipped, a rank-2 one when taken.
    if draw(&mut rng, 0, 1) == 1 {
        let classes = draw(&mut rng, 2, 8);
        let w = Tensor::rand_uniform(&[classes, d], next_wseed(), -lim, lim);
        let l = g.linear(cur, w, None, "head_fc");
        cur = g.softmax(l, "head_softmax");
    }
    g.mark_output(cur);
    g.infer_shapes();
    g
}

/// Route a seed to its corpus family: every fourth seed generates a
/// transformer subgraph, the rest CNNs. The differential driver uses this
/// so one seed sweep exercises both workloads.
pub fn random_graph(seed: u64, cfg: &GenConfig) -> Graph {
    if seed % 4 == 3 {
        random_transformer(seed, cfg)
    } else {
        random_cnn(seed, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graphs_are_valid_and_deterministic() {
        for seed in 0..40 {
            let g = random_cnn(seed, &GenConfig::default());
            let errs = temco_ir::verify(&g);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
            assert_eq!(g.inputs.len(), 1);
            assert!(!g.outputs.is_empty());
            for node in &g.nodes {
                assert!(g.value_numel(node.output) > 0, "seed {seed}: degenerate {}", node.name);
                // No dead code: every non-output value feeds something.
                assert!(
                    !g.users(node.output).is_empty() || g.outputs.contains(&node.output),
                    "seed {seed}: '{}' is dead code",
                    node.name
                );
            }
            let h = random_cnn(seed, &GenConfig::default());
            assert_eq!(g.nodes.len(), h.nodes.len(), "seed {seed} not deterministic");
        }
    }

    #[test]
    fn corpus_covers_the_interesting_ops() {
        let (mut convs, mut adds, mut concats, mut grouped) = (0, 0, 0, 0);
        for seed in 0..60 {
            let g = random_cnn(seed, &GenConfig::default());
            for node in &g.nodes {
                match &node.op {
                    temco_ir::Op::Conv2d(spec) => {
                        convs += 1;
                        if spec.groups > 1 {
                            grouped += 1;
                        }
                    }
                    temco_ir::Op::Add => adds += 1,
                    temco_ir::Op::Concat => concats += 1,
                    _ => {}
                }
            }
        }
        assert!(convs > 50, "conv-starved corpus ({convs})");
        assert!(adds > 5, "no residual structure ({adds})");
        assert!(concats > 2, "no concat structure ({concats})");
        assert!(grouped > 2, "no grouped convs ({grouped})");
    }

    #[test]
    fn transformer_graphs_are_valid_and_deterministic() {
        for seed in 0..40 {
            let g = random_transformer(seed, &GenConfig::default());
            let errs = temco_ir::verify(&g);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
            assert_eq!(g.inputs.len(), 1);
            assert_eq!(g.shape(g.inputs[0]).len(), 3, "seed {seed}: input not rank 3");
            assert!(!g.outputs.is_empty());
            for node in &g.nodes {
                assert!(g.value_numel(node.output) > 0, "seed {seed}: degenerate {}", node.name);
            }
            let h = random_transformer(seed, &GenConfig::default());
            assert_eq!(g.nodes.len(), h.nodes.len(), "seed {seed} not deterministic");
        }
    }

    #[test]
    fn transformer_corpus_covers_the_attention_ops() {
        let (mut mm, mut mm_ta, mut mm_tb, mut ln, mut split, mut sm3) = (0, 0, 0, 0, 0, 0);
        for seed in 0..60 {
            let g = random_transformer(seed, &GenConfig::default());
            for node in &g.nodes {
                match &node.op {
                    temco_ir::Op::MatMul { transpose_a, transpose_b } => {
                        mm += 1;
                        if *transpose_a {
                            mm_ta += 1;
                        }
                        if *transpose_b {
                            mm_tb += 1;
                        }
                    }
                    temco_ir::Op::LayerNorm { .. } => ln += 1,
                    temco_ir::Op::SplitHeads { .. } => split += 1,
                    temco_ir::Op::Softmax if g.shape(node.output).len() >= 3 => sm3 += 1,
                    _ => {}
                }
            }
        }
        assert!(mm > 30, "matmul-starved corpus ({mm})");
        assert!(mm_ta > 3, "no transpose_a coverage ({mm_ta})");
        assert!(mm_tb > 5, "no transpose_b coverage ({mm_tb})");
        assert!(ln > 30, "no layernorm coverage ({ln})");
        assert!(split > 5, "no head splitting ({split})");
        assert!(sm3 > 10, "no rank-3 softmax — the regression this corpus exists for ({sm3})");
    }

    #[test]
    fn seed_routing_mixes_both_families() {
        let cfg = GenConfig::default();
        // seed % 4 == 3 → transformer (rank-3 input), else CNN (rank-4).
        assert_eq!(random_graph(3, &cfg).shape(temco_ir::ValueId(0)).len(), 3);
        assert_eq!(random_graph(4, &cfg).shape(temco_ir::ValueId(0)).len(), 4);
    }
}
