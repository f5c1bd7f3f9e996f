//! Quickstart: build a model, compile it with TeMCO, measure the memory win.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use temco::{compare_outputs, Compiler, OptLevel};
use temco_models::{ModelConfig, ModelId};
use temco_runtime::{execute, plan_memory, ExecMode, ExecOptions};
use temco_tensor::Tensor;

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    // 1. Build a model as a TeMCO IR graph. The zoo covers the paper's 10
    //    models; UNet-small keeps the quickstart fast.
    let cfg = ModelConfig { batch: 4, image: 64, num_classes: 10, classifier_width: 128, seed: 42 };
    let model = ModelId::UnetSmall;
    let graph = model.build(&cfg);
    println!("model: {} ({} nodes)", model.name(), graph.nodes.len());

    // 2. Compile. `Decomposed` is the paper's baseline (Tucker, ratio 0.1);
    //    `SkipOptFusion` is full TeMCO.
    let compiler = Compiler::default();
    let (decomposed, _) = compiler.compile(&graph, OptLevel::Decomposed);
    let (optimized, stats) = compiler.compile(&graph, OptLevel::SkipOptFusion);
    println!(
        "passes: {} convs decomposed, {} skips optimized, {} fused kernels",
        stats.decompose.convs_decomposed,
        stats.skip_opt.skips_optimized,
        stats.fusion.total(),
    );

    // 3. Compare peak internal-tensor memory (static planner — no FLOPs).
    let p0 = plan_memory(&graph);
    let p1 = plan_memory(&decomposed);
    let p2 = plan_memory(&optimized);
    println!("peak internal-tensor memory:");
    println!("  original    {:8.2} MiB", mib(p0.peak_internal_bytes));
    println!("  decomposed  {:8.2} MiB", mib(p1.peak_internal_bytes));
    println!(
        "  TeMCO       {:8.2} MiB  ({:.1}% below decomposed)",
        mib(p2.peak_internal_bytes),
        100.0 * (1.0 - p2.peak_internal_bytes as f64 / p1.peak_internal_bytes as f64)
    );

    // 4. Verify the optimization preserved semantics (the Figure 12 claim).
    let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 1);
    let a = execute(&decomposed, std::slice::from_ref(&x), ExecOptions::default())
        .expect("execution failed");
    // The optimized model runs on the per-node reference executor, which
    // tracks every allocation and free as it goes.
    let per_node = ExecOptions { mode: ExecMode::PerNode, ..Default::default() };
    let b = execute(&optimized, &[x], per_node).expect("execution failed");
    let agreement = compare_outputs(&a.outputs[0], &b.outputs[0], 5);
    println!(
        "equivalence vs decomposed: max|Δ| = {:.2e}, task agreement = {:.4}",
        agreement.max_abs_diff, agreement.task_agreement
    );
    assert!(agreement.task_agreement > 0.999);

    // 5. The executed tracker agrees with the planner byte-for-byte.
    assert_eq!(b.memory.expect("per-node runs track memory").peak_bytes(), p2.peak_internal_bytes);
    println!("executed per-node peak matches the static plan ✓");
}
