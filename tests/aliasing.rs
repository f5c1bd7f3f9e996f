//! Liveness edge cases that gate in-place execution and concat embedding.
//!
//! The alias analysis gives a value's bytes away only when the value
//! provably dies at the consuming node; these tests pin the cases where
//! that proof must fail — multi-consumer operands, graph outputs, residual
//! operands that outlive their add — and the cases where it must hold
//! across graph transforms (the rebatch ladder, real zoo models). Every
//! aliased execution is checked against the per-node reference path, which
//! performs no aliasing at all.

use temco::{Compiler, OptLevel};
use temco_ir::{liveness, Graph};
use temco_models::{ModelConfig, ModelId};
use temco_runtime::{
    execute, plan_allocation_with_mode, AliasMode, ExecMode, ExecOptions, NodeExec,
};
use temco_tensor::Tensor;

const TOL: f32 = 1e-4;

fn run(g: &Graph, input: &Tensor, mode: ExecMode, alias: AliasMode) -> Vec<Tensor> {
    let opts = ExecOptions { mode, alias };
    execute(g, std::slice::from_ref(input), opts).expect("execution failed").outputs
}

/// Max absolute difference across all outputs of the three execution paths
/// (slab+Full, slab+Off, per-node reference) must stay within `TOL`.
fn assert_paths_agree(g: &Graph, input: &Tensor) {
    let full = run(g, input, ExecMode::Slab, AliasMode::Full);
    let off = run(g, input, ExecMode::Slab, AliasMode::Off);
    let reference = run(g, input, ExecMode::PerNode, AliasMode::Off);
    for (i, r) in reference.iter().enumerate() {
        for (label, got) in [("full", &full[i]), ("off", &off[i])] {
            assert_eq!(got.shape(), r.shape(), "output {i} shape under {label}");
            let max =
                got.data().iter().zip(r.data()).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
            assert!(max <= TOL, "output {i} under {label} diverges by {max}");
        }
    }
}

fn ramp(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|i| (i as f32 * 0.37).sin()).collect())
}

#[test]
fn multi_consumer_operand_is_not_overwritten() {
    // `a1` feeds both the relu and the add two steps later; the relu must
    // not run in place over it, and the final numbers must prove it.
    let mut g = Graph::new();
    let x = g.input(&[1, 4, 8, 8], "x");
    let a1 = g.relu(x, "a1");
    let b = g.relu(a1, "b");
    let s = g.add(&[a1, b], "s");
    g.mark_output(s);
    g.infer_shapes();
    let lv = liveness(&g);
    let plan = plan_allocation_with_mode(&g, &lv, AliasMode::Full);
    assert_eq!(plan.node_exec[2], NodeExec::Standard, "relu over a live value");
    assert!(matches!(plan.node_exec[3], NodeExec::InPlace { .. }), "add may reuse a1");
    assert_paths_agree(&g, &ramp(&[1, 4, 8, 8]));
}

#[test]
fn graph_output_operands_are_never_aliased_away() {
    // `a1` is a graph output: even though it dies (as an operand) at the
    // relu, its bytes must survive to the end of the run.
    let mut g = Graph::new();
    let x = g.input(&[1, 4, 8, 8], "x");
    let a1 = g.relu(x, "a1");
    let b = g.relu(a1, "b");
    g.mark_output(a1);
    g.mark_output(b);
    g.infer_shapes();
    let lv = liveness(&g);
    let plan = plan_allocation_with_mode(&g, &lv, AliasMode::Full);
    assert_eq!(plan.node_exec[2], NodeExec::Standard);
    // a1 may itself reuse the *input's* dying bytes (in-place relu), but
    // nothing may take over a1: b owns storage disjoint from it.
    assert_eq!(plan.alias(b), Some((b, 0)), "b must own its storage, not reuse the output a1");
    assert_ne!(plan.offset(a1), plan.offset(b));
    assert_paths_agree(&g, &ramp(&[1, 4, 8, 8]));
}

#[test]
fn residual_operand_outliving_the_add_is_preserved() {
    // Classic residual shape: the trunk value joins an add, then feeds a
    // *later* node too. The add must not take its bytes.
    let mut g = Graph::new();
    let x = g.input(&[1, 4, 8, 8], "x");
    let trunk = g.conv2d(x, Tensor::he_conv_weight(4, 4, 3, 3, 7), None, 1, 1, "trunk");
    let branch = g.conv2d(trunk, Tensor::he_conv_weight(4, 4, 3, 3, 8), None, 1, 1, "branch");
    let sum = g.add(&[trunk, branch], "sum");
    let post = g.add(&[trunk, sum], "post"); // trunk outlives the first add
    g.mark_output(post);
    g.infer_shapes();
    let lv = liveness(&g);
    let plan = plan_allocation_with_mode(&g, &lv, AliasMode::Full);
    // First add: trunk is still needed, branch dies there — the add may
    // reuse *branch*, never trunk.
    match plan.node_exec[3] {
        NodeExec::InPlace { operand } => assert_eq!(operand, 1, "must reuse branch, not trunk"),
        NodeExec::Standard => {}
        ref other => panic!("unexpected exec mode {other:?}"),
    }
    assert_paths_agree(&g, &ramp(&[1, 4, 8, 8]));
}

#[test]
fn rebatch_ladder_preserves_alias_legality_per_bucket() {
    // Concat embedding is batch-1-only; every bucket of the serving ladder
    // must get its own legal plan and identical numbers.
    let mut g = Graph::new();
    let x = g.input(&[1, 3, 8, 8], "x");
    let p = g.conv2d(x, Tensor::he_conv_weight(2, 3, 3, 3, 9), None, 1, 1, "p");
    let q = g.conv2d(x, Tensor::he_conv_weight(3, 3, 3, 3, 10), None, 1, 1, "q");
    let cat = g.concat(&[p, q], "cat");
    let r = g.relu(cat, "r");
    g.mark_output(r);
    g.infer_shapes();
    for batch in [1usize, 2, 4] {
        let gb = g.rebatch(batch);
        let lv = liveness(&gb);
        let plan = plan_allocation_with_mode(&gb, &lv, AliasMode::Full);
        let errors = plan.validate();
        assert!(errors.is_empty(), "batch {batch}: {errors:?}");
        let embedded = plan.alias_stats().aliased_concat_operands;
        if batch == 1 {
            assert_eq!(embedded, 2, "both conv outputs embed at batch 1");
        } else {
            assert_eq!(embedded, 0, "no embedding above batch 1");
        }
        assert_paths_agree(&gb, &ramp(&[batch, 3, 8, 8]));
    }
}

#[test]
fn concat_embedding_moves_no_bytes_at_batch_1() {
    let mut g = Graph::new();
    let x = g.input(&[1, 3, 8, 8], "x");
    let p = g.conv2d(x, Tensor::he_conv_weight(2, 3, 3, 3, 11), None, 1, 1, "p");
    let q = g.conv2d(x, Tensor::he_conv_weight(3, 3, 3, 3, 12), None, 1, 1, "q");
    let cat = g.concat(&[p, q], "cat");
    g.mark_output(cat);
    g.infer_shapes();
    let lv = liveness(&g);
    let full = plan_allocation_with_mode(&g, &lv, AliasMode::Full);
    let off = plan_allocation_with_mode(&g, &lv, AliasMode::Off);
    // Node 3 is the concat: fully embedded ⇒ zero copies; the alias-free
    // plan pays for both operands.
    assert_eq!(full.bytes_moved_per_node[3], 0);
    assert_eq!(off.bytes_moved_per_node[3], (2 + 3) * 8 * 8 * 4);
    assert!(full.value_bytes <= off.value_bytes);
}

#[test]
fn dense_block_embedding_never_beats_the_alias_free_peak() {
    // The regression behind the planner's fallback cascade: on dense
    // blocks, embedding every concat stretches the block-wide hull across
    // the expensive intermediates and packs *worse* than copying. The
    // planner must notice and never return a plan that loses to Off.
    let cfg = ModelConfig { batch: 1, image: 32, num_classes: 10, classifier_width: 32, seed: 5 };
    let compiler = Compiler::default();
    for id in [ModelId::Densenet121, ModelId::Unet] {
        let g = id.build(&cfg);
        let levels = [OptLevel::Decomposed, OptLevel::SkipOptFusion];
        for (level, (opt, _)) in levels.into_iter().zip(compiler.compile_levels(&g, &levels)) {
            let lv = liveness(&opt);
            let full = plan_allocation_with_mode(&opt, &lv, AliasMode::Full);
            let off = plan_allocation_with_mode(&opt, &lv, AliasMode::Off);
            assert!(
                full.value_bytes <= off.value_bytes,
                "{} @ {}: slab {} > alias-free {}",
                id.name(),
                level.label(),
                full.value_bytes,
                off.value_bytes
            );
            assert!(
                full.bytes_moved <= off.bytes_moved,
                "{} @ {}: moved {} > alias-free {}",
                id.name(),
                level.label(),
                full.bytes_moved,
                off.bytes_moved
            );
        }
    }
}

#[test]
fn zoo_models_agree_across_alias_modes() {
    let cfg = ModelConfig { batch: 1, image: 64, num_classes: 10, classifier_width: 64, seed: 3 };
    let compiler = Compiler::default();
    for id in [ModelId::Vgg11, ModelId::Resnet18, ModelId::UnetSmall] {
        let g = id.build(&cfg);
        let (opt, _) = compiler.compile(&g, OptLevel::SkipOptFusion);
        let input = ramp(opt.shape(opt.inputs[0]));
        assert_paths_agree(&opt, &input);
    }
}
