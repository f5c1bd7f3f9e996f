//! Property-based tests over randomly generated model graphs.
//!
//! A generator produces random-but-valid CNN graphs (conv chains with
//! random channel widths, activations, pooling, and random skip edges via
//! add/concat). Three invariants must hold for *every* such graph:
//!
//! 1. the executor's dynamic memory accounting equals the static planner's,
//!    step by step;
//! 2. the full TeMCO pipeline produces a well-formed graph whose outputs
//!    match the decomposed baseline;
//! 3. optimization never *increases* the planned peak internal memory.

use proptest::prelude::*;
use temco::{Compiler, OptLevel};
use temco_ir::{ActKind, Graph};
use temco_runtime::{execute, plan_memory, ExecMode, ExecOptions};
use temco_tensor::Tensor;

/// Plan for one randomly generated layer.
#[derive(Clone, Debug)]
enum LayerPlan {
    Conv { c_out_sel: usize, stride1: bool },
    Act(u8),
    Pool,
    SkipAdd { back: usize },
    SkipConcat { back: usize },
}

fn layer_strategy() -> impl Strategy<Value = LayerPlan> {
    prop_oneof![
        3 => (0usize..4, any::<bool>()).prop_map(|(c, s)| LayerPlan::Conv { c_out_sel: c, stride1: s }),
        2 => (0u8..3).prop_map(LayerPlan::Act),
        1 => Just(LayerPlan::Pool),
        1 => (1usize..6).prop_map(|back| LayerPlan::SkipAdd { back }),
        1 => (1usize..6).prop_map(|back| LayerPlan::SkipConcat { back }),
    ]
}

const WIDTHS: [usize; 4] = [8, 16, 24, 32];

/// Materialize a plan into a valid graph; invalid skip edges (shape
/// mismatch) degrade to no-ops, so every plan yields a runnable graph.
fn build_graph(plans: &[LayerPlan], seed: u64) -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 8, 16, 16], "x");
    // Track (value, channels, spatial) of every produced tensor.
    let mut produced = vec![(x, 8usize, 16usize)];
    let mut cur = (x, 8usize, 16usize);
    let mut seed = seed;
    for (i, plan) in plans.iter().enumerate() {
        seed = seed.wrapping_add(0x9E3779B97F4A7C15);
        match plan {
            LayerPlan::Conv { c_out_sel, stride1 } => {
                let c_out = WIDTHS[*c_out_sel % WIDTHS.len()];
                let stride = if *stride1 || cur.2 < 8 { 1 } else { 2 };
                let w = Tensor::he_conv_weight(c_out, cur.1, 3, 3, seed);
                let v = g.conv2d(cur.0, w, None, stride, 1, format!("conv{i}"));
                let sp =
                    if stride == 1 { cur.2 } else { temco_tensor::conv_out_dim(cur.2, 3, 2, 1) };
                cur = (v, c_out, sp);
            }
            LayerPlan::Act(k) => {
                let kind = [ActKind::Relu, ActKind::Silu, ActKind::Sigmoid][*k as usize % 3];
                let v = g.activation(cur.0, kind, format!("act{i}"));
                cur = (v, cur.1, cur.2);
            }
            LayerPlan::Pool => {
                if cur.2 >= 4 {
                    let v = g.max_pool(cur.0, 2, 2, format!("pool{i}"));
                    cur = (v, cur.1, cur.2 / 2);
                }
            }
            LayerPlan::SkipAdd { back } => {
                if let Some(&(v, c, s)) = produced.iter().rev().nth(*back) {
                    if c == cur.1 && s == cur.2 && v != cur.0 {
                        let sum = g.add(&[v, cur.0], format!("skip_add{i}"));
                        cur = (sum, c, s);
                    }
                }
            }
            LayerPlan::SkipConcat { back } => {
                if let Some(&(v, c, s)) = produced.iter().rev().nth(*back) {
                    if s == cur.2 && v != cur.0 {
                        let cat = g.concat(&[v, cur.0], format!("skip_cat{i}"));
                        cur = (cat, c + cur.1, s);
                    }
                }
            }
        }
        produced.push(cur);
    }
    // A 1×1 head keeps outputs small and gives the pipeline an fconv to
    // chew on.
    let head =
        g.conv2d(cur.0, Tensor::he_conv_weight(4, cur.1, 1, 1, seed ^ 1), None, 1, 0, "head");
    g.mark_output(head);
    g.infer_shapes();
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn planner_matches_executor_on_random_graphs(
        plans in proptest::collection::vec(layer_strategy(), 3..14),
        seed in 0u64..1000,
    ) {
        let g = build_graph(&plans, seed);
        prop_assert!(temco_ir::verify(&g).is_empty());
        let x = Tensor::randn(&[1, 8, 16, 16], seed);
        let opts = ExecOptions { mode: ExecMode::PerNode, ..Default::default() };
        let res = execute(&g, &[x], opts).expect("execution failed");
        let mem = res.memory.expect("the per-node executor tracks memory");
        let plan = plan_memory(&g);
        prop_assert_eq!(mem.peak_bytes(), plan.peak_internal_bytes);
        for (ev, st) in mem.timeline().iter().zip(&plan.timeline) {
            prop_assert_eq!(ev.live_bytes, st.live_bytes, "step {}", st.step);
        }
    }

    #[test]
    fn temco_preserves_semantics_on_random_graphs(
        plans in proptest::collection::vec(layer_strategy(), 3..12),
        seed in 0u64..1000,
    ) {
        let g = build_graph(&plans, seed);
        let compiler = Compiler::default();
        let (dec, _) = compiler.compile(&g, OptLevel::Decomposed);
        let (opt, _) = compiler.compile(&g, OptLevel::SkipOptFusion);
        prop_assert!(temco_ir::verify(&opt).is_empty());

        let x = Tensor::randn(&[1, 8, 16, 16], seed ^ 0xABCD);
        let a = execute(&dec, std::slice::from_ref(&x), ExecOptions::default()).expect("execution failed");
        let b = execute(&opt, &[x], ExecOptions::default()).expect("execution failed");
        let diff = a.outputs[0].max_abs_diff(&b.outputs[0]);
        let scale = a.outputs[0].fro_norm().max(1.0);
        prop_assert!(diff <= 1e-3 * scale, "diff {} scale {}", diff, scale);
    }

    #[test]
    fn optimization_never_increases_planned_peak(
        plans in proptest::collection::vec(layer_strategy(), 3..12),
        seed in 0u64..1000,
    ) {
        let g = build_graph(&plans, seed);
        let compiler = Compiler::default();
        let (dec, _) = compiler.compile(&g, OptLevel::Decomposed);
        let (opt, _) = compiler.compile(&g, OptLevel::SkipOptFusion);
        let peak_dec = plan_memory(&dec).peak_internal_bytes;
        let peak_opt = plan_memory(&opt).peak_internal_bytes;
        prop_assert!(peak_opt <= peak_dec, "{} -> {}", peak_dec, peak_opt);
    }
}
