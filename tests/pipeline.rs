//! End-to-end integration tests: the full TeMCO pipeline on the model zoo.
//!
//! These exercise the claims the paper's evaluation rests on, at reduced
//! (64×64) resolution so they execute quickly. One test per model so cargo
//! parallelizes the compilations; each test compiles its model once per
//! level and asserts every property on the same artifacts:
//!
//! 1. every pass composition produces a well-formed graph;
//! 2. TeMCO reduces the planned peak internal-tensor memory below the
//!    `Decomposed` baseline (the Figure 10 property);
//! 3. optimized graphs are semantically equivalent to `Decomposed`
//!    (the Figure 12 property);
//! 4. the per-node reference executor's memory tracker agrees with the
//!    static planner byte-for-byte on compiled graphs (fused ops included).

use temco::{compare_outputs, Compiler, OptLevel};
use temco_models::{ModelConfig, ModelId};
use temco_runtime::{execute, plan_memory, ExecMode, ExecOptions};
use temco_tensor::Tensor;

fn small_cfg() -> ModelConfig {
    ModelConfig { batch: 1, image: 64, num_classes: 10, classifier_width: 64, seed: 7 }
}

/// Compile at `Decomposed` and the model's best TeMCO level, then assert
/// well-formedness, the memory claim, and (optionally) semantic equivalence
/// plus planner/executor agreement.
fn check_model(id: ModelId, exec: bool) {
    let cfg = small_cfg();
    let compiler = Compiler::default();
    let g = id.build(&cfg);
    let best = if id.has_skip_connections() { OptLevel::SkipOptFusion } else { OptLevel::Fusion };

    let [(dec, dstats), (opt, ostats)]: [_; 2] = compiler
        .compile_levels(&g, &[OptLevel::Decomposed, best])
        .try_into()
        .expect("one result per level");
    assert!(temco_ir::verify(&dec).is_empty(), "{}: decomposed malformed", id.name());
    assert!(temco_ir::verify(&opt).is_empty(), "{}: optimized malformed", id.name());
    assert!(dstats.decompose.convs_decomposed > 0, "{}: nothing decomposed", id.name());
    assert!(ostats.fusion.total() > 0, "{}: nothing fused ({ostats:?})", id.name());
    if id.has_skip_connections() {
        assert!(
            ostats.skip_opt.skips_optimized > 0,
            "{}: no skips optimized ({:?})",
            id.name(),
            ostats.skip_opt
        );
    }

    let peak_dec = plan_memory(&dec).peak_internal_bytes;
    let peak_opt = plan_memory(&opt).peak_internal_bytes;
    assert!(peak_opt < peak_dec, "{}: peak {peak_dec} → {peak_opt} ({ostats:?})", id.name());

    if !exec {
        return;
    }
    let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 99);
    let base =
        execute(&dec, std::slice::from_ref(&x), ExecOptions::default()).expect("execution failed");
    // The optimized graph runs on the per-node reference, whose tracker is
    // checked against the planner below; the baseline runs on the slab.
    let per_node = ExecOptions { mode: ExecMode::PerNode, ..Default::default() };
    let out = execute(&opt, std::slice::from_ref(&x), per_node).expect("execution failed");
    let agreement = compare_outputs(&base.outputs[0], &out.outputs[0], 5);
    assert!(agreement.task_agreement > 0.999, "{}: agreement {agreement:?}", id.name());
    let scale = base.outputs[0].fro_norm() / (base.outputs[0].numel() as f32).sqrt();
    assert!(
        agreement.max_abs_diff < 1e-2 * scale.max(1.0),
        "{}: {agreement:?} (scale {scale})",
        id.name()
    );
    // Executed tracker ≡ static planner on the optimized graph.
    let plan = plan_memory(&opt);
    assert_eq!(
        out.memory.expect("the per-node executor tracks memory").peak_bytes(),
        plan.peak_internal_bytes,
        "{}: dynamic vs static peak",
        id.name()
    );
}

#[test]
fn alexnet_end_to_end() {
    check_model(ModelId::Alexnet, true);
}

#[test]
fn vgg11_end_to_end() {
    check_model(ModelId::Vgg11, true);
}

#[test]
fn vgg16_end_to_end() {
    check_model(ModelId::Vgg16, true);
}

#[test]
fn vgg19_compiles_and_reduces_memory() {
    check_model(ModelId::Vgg19, false);
}

#[test]
fn resnet18_end_to_end() {
    check_model(ModelId::Resnet18, true);
}

#[test]
fn resnet34_compiles_and_reduces_memory() {
    check_model(ModelId::Resnet34, false);
}

#[test]
fn densenet121_end_to_end() {
    check_model(ModelId::Densenet121, true);
}

#[test]
fn densenet169_compiles_and_reduces_memory() {
    check_model(ModelId::Densenet169, false);
}

#[test]
fn unet_compiles_and_reduces_memory() {
    check_model(ModelId::Unet, false);
}

#[test]
fn unet_small_end_to_end() {
    check_model(ModelId::UnetSmall, true);
}

#[test]
fn all_four_levels_compose_on_unet_small() {
    let cfg = small_cfg();
    let compiler = Compiler::default();
    let g = ModelId::UnetSmall.build(&cfg);
    let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 3);
    let levels =
        [OptLevel::Decomposed, OptLevel::Fusion, OptLevel::SkipOpt, OptLevel::SkipOptFusion];
    let mut compiled = levels.into_iter().zip(compiler.compile_levels(&g, &levels));
    let (_, (dec, _)) = compiled.next().expect("the decomposed level");
    let base =
        execute(&dec, std::slice::from_ref(&x), ExecOptions::default()).expect("execution failed");
    let mut peaks = vec![plan_memory(&dec).peak_internal_bytes];
    for (level, (opt, _)) in compiled {
        assert!(temco_ir::verify(&opt).is_empty(), "{}", level.label());
        let out = execute(&opt, std::slice::from_ref(&x), ExecOptions::default())
            .expect("execution failed");
        let a = compare_outputs(&base.outputs[0], &out.outputs[0], 5);
        assert!(a.task_agreement > 0.999, "{}: {a:?}", level.label());
        peaks.push(plan_memory(&opt).peak_internal_bytes);
    }
    // Full TeMCO must beat every partial configuration on UNet.
    let full = *peaks.last().unwrap();
    assert!(peaks[..peaks.len() - 1].iter().all(|&p| full <= p), "{peaks:?}");
}

#[test]
fn vgg_has_no_skip_connections_to_optimize() {
    let cfg = small_cfg();
    let compiler = Compiler::default();
    let g = ModelId::Vgg11.build(&cfg);
    let (_, stats) = compiler.compile(&g, OptLevel::SkipOpt);
    assert_eq!(stats.skip_opt.skips_optimized, 0);
}
