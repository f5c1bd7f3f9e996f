//! Ablation A3: execution scheduling (the extension the paper defers to
//! operator-scheduling work [19, 31, 50]).
//!
//! Compares three schedules of the fully-optimized graphs — program order,
//! demand-driven DFS, and the Compare-ranked DFS that generalizes
//! Algorithm 2's `Compare` — by planned peak internal memory and by the
//! value region the alias-free static allocator reserves (the arena a
//! deployment allocator would hold for internal tensors).

use temco::{Compiler, CompilerOptions, OptLevel};
use temco_bench::{harness_config, mib};
use temco_ir::{apply_order, liveness, memory_aware_order, memory_aware_order_ranked};
use temco_models::ModelId;
use temco_runtime::{plan_allocation_with_mode, plan_memory, AliasMode};

fn main() {
    let cfg = harness_config(64, 4);
    let compiler = Compiler::new(CompilerOptions { merge_lconvs: true, ..Default::default() });
    println!("Ablation — execution scheduling of TeMCO-optimized graphs\n");
    println!("{:<14} {:<14} {:>12} {:>12} {:>8}", "model", "schedule", "peak", "arena", "frag");
    for model in [ModelId::Vgg16, ModelId::Resnet18, ModelId::Densenet121, ModelId::UnetSmall] {
        let graph = model.build(&cfg);
        let (opt, _) = compiler.compile(&graph, OptLevel::SkipOptFusion);
        let schedules: [(&str, Option<Vec<usize>>); 3] = [
            ("program", None),
            ("dfs", Some(memory_aware_order(&opt))),
            ("compare-dfs", Some(memory_aware_order_ranked(&opt))),
        ];
        for (label, order) in schedules {
            let mut g = opt.clone();
            if let Some(order) = order {
                apply_order(&mut g, &order);
            }
            assert!(temco_ir::verify(&g).is_empty(), "{label} schedule broke the graph");
            let plan = plan_memory(&g);
            let arena = plan_allocation_with_mode(&g, &liveness(&g), AliasMode::Off);
            assert!(arena.validate().is_empty(), "invalid arena plan");
            println!(
                "{:<14} {:<14} {:>9.2} MiB {:>9.2} MiB {:>8.3}",
                model.name(),
                label,
                mib(plan.peak_internal_bytes),
                mib(arena.value_bytes),
                arena.fragmentation().ratio
            );
        }
    }
    println!("\n(arena = alias-free best-fit static buffer plan à la Pisarchyk & Lee [31];");
    println!(" frag = arena / peak-live — 1.0 means the allocator hits the lower bound)");
}
