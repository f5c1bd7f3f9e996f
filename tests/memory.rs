//! Memory-behaviour integration tests: static slab allocation, alias-free
//! arena planning, rescheduling, and timeline shape on real models.

use proptest::prelude::*;
use temco::{compare_outputs, CompileStats, Compiler, CompilerOptions, OptLevel};
use temco_ir::{liveness, Graph};
use temco_models::{ModelConfig, ModelId};
use temco_runtime::{
    execute, plan_allocation, plan_allocation_with_mode, plan_memory, AliasMode, AllocationPlan,
    ExecMode, ExecOptions,
};
use temco_tensor::Tensor;

fn cfg() -> ModelConfig {
    ModelConfig { batch: 1, image: 64, num_classes: 10, classifier_width: 64, seed: 3 }
}

/// The alias-free static plan: one disjoint interval per tensor
/// (Pisarchyk & Lee's arena model). Its value region is the arena.
fn arena_plan(g: &Graph) -> AllocationPlan {
    plan_allocation_with_mode(g, &liveness(g), AliasMode::Off)
}

/// `g` compiled at `Decomposed` and at `SkipOptFusion`, decomposed once.
fn decomposed_and_optimized(compiler: &Compiler, g: &Graph) -> [(Graph, CompileStats); 2] {
    let levels = [OptLevel::Decomposed, OptLevel::SkipOptFusion];
    compiler.compile_levels(g, &levels).try_into().expect("one result per level")
}

#[test]
fn arena_plans_are_valid_on_compiled_models() {
    let compiler = Compiler::default();
    for id in [ModelId::Vgg11, ModelId::Resnet18, ModelId::UnetSmall] {
        let g = id.build(&cfg());
        let levels = [OptLevel::Decomposed, OptLevel::SkipOptFusion];
        for (level, (opt, _)) in levels.into_iter().zip(compiler.compile_levels(&g, &levels)) {
            let arena = arena_plan(&opt);
            assert!(arena.validate().is_empty(), "{} @ {}", id.name(), level.label());
            let peak = plan_memory(&opt).peak_internal_bytes;
            assert!(arena.value_bytes >= peak);
            // Best-fit should stay within 2× of the live lower bound on
            // these graphs (it is exactly 1.0× on most).
            let frag = arena.fragmentation().ratio;
            assert!(frag < 2.0, "{} @ {}: fragmentation {frag}", id.name(), level.label());
        }
    }
}

#[test]
fn temco_reduces_arena_size_not_just_live_peak() {
    // The deployable metric: the allocator's arena, not only the abstract
    // live-byte peak, must shrink under TeMCO.
    let compiler = Compiler::default();
    let g = ModelId::UnetSmall.build(&cfg());
    let [(dec, _), (opt, _)] = decomposed_and_optimized(&compiler, &g);
    let a_dec = arena_plan(&dec).value_bytes;
    let a_opt = arena_plan(&opt).value_bytes;
    assert!(a_opt < a_dec, "arena {a_dec} → {a_opt}");
}

/// Rescheduling (with merged lconvs) keeps the outputs and does not raise
/// the planned internal peak — checked only on resnet18 and unet_small at
/// 64², batch 1. It is not a claim for every model: at paper scale the
/// scheduler raises densenet121/169's peak by 0.8 %.
#[test]
fn rescheduling_keeps_outputs_and_peak_on_resnet18_and_unet_small_at_64px() {
    let base = Compiler::default();
    let resched = Compiler::new(CompilerOptions {
        merge_lconvs: true,
        reschedule: true,
        ..Default::default()
    });
    for id in [ModelId::Resnet18, ModelId::UnetSmall] {
        let g = id.build(&cfg());
        let (a, _) = base.compile(&g, OptLevel::SkipOptFusion);
        let (b, _) = resched.compile(&g, OptLevel::SkipOptFusion);
        assert!(temco_ir::verify(&b).is_empty(), "{}", id.name());
        let pa = plan_memory(&a).peak_internal_bytes;
        let pb = plan_memory(&b).peak_internal_bytes;
        assert!(pb <= pa, "{}: reschedule raised peak {pa} → {pb}", id.name());

        let x = Tensor::randn(&[1, 3, 64, 64], 9);
        let ra = execute(&a, std::slice::from_ref(&x), ExecOptions::default())
            .expect("execution failed");
        let rb = execute(&b, &[x], ExecOptions::default()).expect("execution failed");
        let agree = compare_outputs(&ra.outputs[0], &rb.outputs[0], 5);
        assert!(agree.task_agreement > 0.999, "{}: {agree:?}", id.name());
    }
}

/// Build a random DAG from an opcode/operand tape. All values keep an
/// `[1, c, 8, 8]` shape (with varying `c`) so every op kind stays
/// shape-compatible; skip-like edges arise whenever an old value is picked
/// as an operand, which is exactly what stresses interval packing.
fn random_graph(tape: &[(u8, usize, usize)]) -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 4, 8, 8], "x");
    let mut vals = vec![x];
    let mut chans = vec![4usize];
    for (i, &(kind, s1, s2)) in tape.iter().enumerate() {
        let a = s1 % vals.len();
        let (v, c) = match kind % 4 {
            0 => (g.relu(vals[a], format!("relu{i}")), chans[a]),
            1 => {
                let co = [2, 4, 8][s2 % 3];
                let w = Tensor::randn(&[co, chans[a], 3, 3], (i as u64) << 8 | 1);
                (g.conv2d(vals[a], w, None, 1, 1, format!("conv{i}")), co)
            }
            2 => {
                // Add needs matching channel counts; fall back to relu when
                // no partner exists.
                match (0..vals.len()).find(|&b| b != a && chans[b] == chans[a]) {
                    Some(b) => (g.add(&[vals[a], vals[b]], format!("add{i}")), chans[a]),
                    None => (g.relu(vals[a], format!("relu{i}")), chans[a]),
                }
            }
            _ => {
                let b = s2 % vals.len();
                (g.concat(&[vals[a], vals[b]], format!("cat{i}")), chans[a] + chans[b])
            }
        };
        vals.push(v);
        chans.push(c);
    }
    g.mark_output(*vals.last().unwrap());
    g.infer_shapes();
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The core allocator invariant on random DAGs: any two values whose
    /// liveness intervals overlap in time must receive disjoint byte
    /// ranges — unless the alias analysis put them in one class on purpose
    /// (in-place reuse, embedded concat operands) — and the slab must
    /// cover the union-of-live peak.
    #[test]
    fn allocator_never_overlaps_live_intervals(
        tape in proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 1..40)
    ) {
        let g = random_graph(&tape);
        let plan = plan_allocation(&g);
        prop_assert!(plan.validate().is_empty(), "{:?}", plan.validate());
        // The kernel-scratch arena sits wholly past the value region, so no
        // buffer can alias a kernel's working memory.
        if plan.scratch_bytes > 0 {
            prop_assert!(plan.scratch_offset >= plan.value_bytes);
            prop_assert_eq!(plan.scratch_offset + plan.scratch_bytes, plan.slab_bytes);
        }
        for (i, a) in plan.buffers.iter().enumerate() {
            prop_assert!(a.offset + a.bytes <= plan.value_bytes);
            prop_assert!(a.offset + a.bytes <= plan.slab_bytes);
            let root_a = plan.alias(a.value).expect("planned buffers resolve").0;
            for b in &plan.buffers[i + 1..] {
                let root_b = plan.alias(b.value).expect("planned buffers resolve").0;
                if root_a != root_b && a.time_overlap(b) {
                    prop_assert!(
                        !a.space_overlap(b),
                        "{:?} and {:?} overlap in time and space across alias classes",
                        a,
                        b
                    );
                }
            }
        }
        prop_assert!(plan.slab_bytes >= plan.peak_live_bytes);
        // An undercut slab must be flagged by the validator.
        let mut bad = plan.clone();
        bad.slab_bytes = bad.peak_live_bytes.saturating_sub(4);
        prop_assert!(!bad.validate().is_empty());
    }

    /// Executing a random DAG on the slab gives the same numbers as the
    /// per-node baseline.
    #[test]
    fn slab_execution_matches_per_node_on_random_dags(
        tape in proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 1..12)
    ) {
        let g = random_graph(&tape);
        let x = Tensor::randn(&[1, 4, 8, 8], 11);
        let slab = execute(&g, std::slice::from_ref(&x), ExecOptions::default())
            .expect("slab execution failed");
        let per_node = execute(&g, &[x], ExecOptions { mode: ExecMode::PerNode, ..Default::default() })
            .expect("per-node execution failed");
        prop_assert!(slab.outputs[0].all_close(&per_node.outputs[0], 1e-4));
    }
}

/// For every zoo model at every opt level, a slab run allocates exactly the
/// statically planned slab — the plan is the allocation — and the plan
/// packs within 1.15× of the live-bytes peak.
#[test]
fn slab_execution_allocates_the_static_plan_on_all_models() {
    let compiler = Compiler::default();
    let cfg = ModelConfig::small();
    let levels =
        [OptLevel::Decomposed, OptLevel::Fusion, OptLevel::SkipOpt, OptLevel::SkipOptFusion];
    for id in ModelId::all() {
        let g = id.build(&cfg);
        let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 5);
        for (level, (opt, _)) in levels.into_iter().zip(compiler.compile_levels(&g, &levels)) {
            let res = execute(&opt, std::slice::from_ref(&x), ExecOptions::default())
                .unwrap_or_else(|e| panic!("{} @ {}: {e}", id.name(), level.label()));
            let plan = plan_memory(&opt);
            assert_eq!(res.slab_bytes, plan.slab_total_bytes, "{} @ {}", id.name(), level.label());
            assert_eq!(res.scratch_bytes, plan.scratch_bytes, "{} @ {}", id.name(), level.label());
            assert!(
                plan.fragmentation() <= 1.15,
                "{} @ {}: slab {} is {:.3}× the live peak {}",
                id.name(),
                level.label(),
                plan.slab_bytes,
                plan.fragmentation(),
                plan.peak_internal_bytes
            );
        }
    }
}

#[test]
fn unet_timeline_floor_drops_under_temco() {
    // Figure 4a's qualitative claim: in the decomposed model the *floor* of
    // the memory curve stays high through the middle of the schedule (idle
    // skip tensors); TeMCO collapses it. Compare the median live bytes of
    // the middle half of each timeline.
    let compiler = Compiler::default();
    let g = ModelId::UnetSmall.build(&ModelConfig { batch: 4, ..cfg() });
    let [(dec, _), (opt, _)] = decomposed_and_optimized(&compiler, &g);
    let median_mid = |g: &temco_ir::Graph| {
        let t = plan_memory(g).timeline;
        let n = t.len();
        let mut mid: Vec<usize> = t[n / 4..3 * n / 4].iter().map(|s| s.live_bytes).collect();
        mid.sort_unstable();
        mid[mid.len() / 2]
    };
    let floor_dec = median_mid(&dec);
    let floor_opt = median_mid(&opt);
    assert!(
        (floor_opt as f64) < 0.5 * floor_dec as f64,
        "mid-schedule floor {floor_dec} → {floor_opt}"
    );
}
