//! Turning recorded spans into reports: the cold half of profiling.
//!
//! [`crate::engine::Engine::run_recorded`] fills a preallocated
//! [`Recorder`] — the stack's one span ring — with `RUN`/`NODE` spans;
//! this module joins those spans with the graph and allocation plan to
//! produce a [`temco_obs::EngineReport`] (per-node kernel time, slab
//! attribution) or a chrome://tracing document through the one writer,
//! [`temco_obs::chrome_trace`]. Everything here allocates freely — it
//! runs after the measured inferences, never during them.
//!
//! Memory attribution is *static*: a node's slab high-water is the
//! furthest slab byte its kernel touches (output end, operand ends,
//! scratch end), read off the plan — kernels write only where the plan
//! says, so there is nothing further to sample at run time. The max over
//! nodes is exactly the plan's slab size, and the plan itself is what the
//! independent invariant checker in `temco-check` verifies.

use temco_ir::{Graph, Node, Op};
use temco_obs::{chrome_trace, default_name, kind, EngineReport, NodeStat, Recorder};

use crate::alloc::AllocationPlan;
use crate::engine::CompiledGraph;
use crate::fused::{fused_scratch_breakdown, ScratchBreakdown};
use crate::schedule::NodeSchedule;

/// Short label for a node's op kind, used in report rollups and trace
/// categories.
pub fn op_label(op: &Op) -> &'static str {
    match op {
        Op::Input => "input",
        Op::Conv2d(_) => "conv2d",
        Op::ConvTranspose2d { .. } => "conv_transpose2d",
        Op::Activation(_) => "activation",
        Op::Pool { .. } => "pool",
        Op::GlobalAvgPool => "global_avg_pool",
        Op::Affine { .. } => "affine",
        Op::Add => "add",
        Op::Concat => "concat",
        Op::Linear { .. } => "linear",
        Op::Flatten => "flatten",
        Op::Softmax => "softmax",
        Op::MatMul { .. } => "matmul",
        Op::LayerNorm { .. } => "layernorm",
        Op::SplitHeads { .. } => "split_heads",
        Op::MergeHeads { .. } => "merge_heads",
        Op::Fused(spec) if spec.fconv.is_some() => "fused",
        Op::Fused(_) => "fused_restore",
    }
}

/// Furthest slab byte node `i`'s kernel touches under `plan`: the end of
/// its output region, of every operand region, and of its scratch prefix.
/// The max over all nodes equals `plan.slab_bytes`.
pub fn node_slab_extent_bytes(g: &Graph, plan: &AllocationPlan, i: usize) -> usize {
    let node = &g.nodes[i];
    let mut hw = plan.offset(node.output).map_or(0, |off| off + g.value_bytes(node.output));
    for v in &node.inputs {
        if let Some(off) = plan.offset(*v) {
            hw = hw.max(off + g.value_bytes(*v));
        }
    }
    if plan.node_scratch[i] > 0 {
        hw = hw.max(plan.scratch_offset + plan.node_scratch[i]);
    }
    hw
}

/// How a fused node's kernel partitions its scratch under `sched` (worker
/// slots × per-tile floats), or `None` for non-fused nodes. Pass the
/// plan's `node_schedule` entry: the total then equals the plan's
/// `node_scratch` entry for the node, because the planner sizes fused
/// scratch with this very function.
pub fn node_scratch_breakdown(
    g: &Graph,
    node: &Node,
    sched: NodeSchedule,
) -> Option<ScratchBreakdown> {
    match &node.op {
        Op::Fused(spec) => {
            Some(fused_scratch_breakdown(&spec.geometry(g, g.shape(node.inputs[0])), sched.fused()))
        }
        _ => None,
    }
}

/// Join a recorder's spans with the compiled graph into an
/// [`EngineReport`]: per-node kernel time from the `NODE` spans, wall
/// time from the `RUN` spans, memory attribution from the plan.
pub fn engine_report(compiled: &CompiledGraph, rec: &Recorder) -> EngineReport {
    let g = compiled.graph();
    let plan = compiled.plan();
    let mut nodes: Vec<NodeStat> = g
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| NodeStat {
            index: i,
            name: node.name.clone(),
            op: op_label(&node.op).to_string(),
            calls: 0,
            total_ns: 0,
            out_bytes: g.value_bytes(node.output),
            high_water_bytes: node_slab_extent_bytes(g, plan, i),
            scratch_bytes: plan.node_scratch[i],
            moved_bytes: plan.bytes_moved_per_node[i],
            schedule: plan.node_schedule[i].label(),
        })
        .collect();
    let mut runs = 0u64;
    let mut total_run_ns = 0u64;
    for e in rec.iter() {
        match e.kind {
            kind::NODE => {
                if let Some(ns) = nodes.get_mut(e.node as usize) {
                    ns.calls += 1;
                    ns.total_ns += e.dur_ns;
                }
            }
            kind::RUN => {
                runs += 1;
                total_run_ns += e.dur_ns;
            }
            _ => {}
        }
    }
    EngineReport {
        nodes,
        runs,
        total_run_ns,
        slab_bytes: plan.slab_bytes,
        scratch_arena_bytes: plan.scratch_bytes,
        dropped_events: rec.dropped(),
    }
}

/// Render a recorder's spans as chrome://tracing JSON, naming `NODE`
/// spans after their graph node.
pub fn engine_trace_json(compiled: &CompiledGraph, rec: &Recorder) -> String {
    let g = compiled.graph();
    chrome_trace(rec.iter(), |e| match e.kind {
        kind::NODE => {
            g.nodes.get(e.node as usize).map_or_else(|| default_name(e), |n| n.name.clone())
        }
        _ => default_name(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use temco_tensor::Tensor;

    fn small_cnn() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[2, 3, 8, 8], "x");
        let c1 = g.conv2d(x, Tensor::randn(&[6, 3, 3, 3], 1), None, 1, 1, "c1");
        let r1 = g.relu(c1, "r1");
        let p1 = g.max_pool(r1, 2, 2, "p1");
        let f = g.flatten(p1, "flat");
        let l = g.linear(f, Tensor::randn(&[5, 6 * 4 * 4], 2), None, "fc");
        let s = g.softmax(l, "sm");
        g.mark_output(s);
        g.infer_shapes();
        g
    }

    #[test]
    fn report_joins_spans_with_the_plan() {
        let mut engine = Engine::new(small_cnn()).unwrap();
        let x = Tensor::randn(&[2, 3, 8, 8], 3);
        let mut rec = Recorder::with_capacity(4096);
        for _ in 0..3 {
            engine.run_recorded(std::slice::from_ref(&x), &mut rec).unwrap();
        }
        let report = engine_report(engine.compiled(), &rec);
        assert_eq!(report.runs, 3);
        assert_eq!(report.nodes.len(), engine.graph().nodes.len());
        assert_eq!(report.dropped_events, 0);
        for n in &report.nodes {
            assert_eq!(n.calls, 3, "node {} recorded once per run", n.name);
        }
        // Node spans nest inside the run span: summed kernel time cannot
        // exceed wall time, and dominates it (output staging is tiny).
        assert!(report.kernel_ns() <= report.total_run_ns);
        assert!(report.coverage() > 0.5, "coverage {}", report.coverage());
        // Plan-level facts survive the join.
        assert_eq!(report.slab_bytes, engine.slab_bytes());
        assert_eq!(report.bytes_moved(), engine.compiled().plan().bytes_moved);
        // The input node stages bytes; in-place/aliased nodes move none.
        assert!(report.nodes[0].moved_bytes > 0);
        assert_eq!(report.peak_node().unwrap().high_water_bytes, engine.slab_bytes());
        let rollup = report.rollup_by_op();
        assert!(rollup.iter().any(|r| r.op == "conv2d"));
        // Rendering does not panic and names the slowest node.
        let table = report.render_table(10);
        assert!(table.contains(&report.top_k(1)[0].name));
    }

    #[test]
    fn trace_json_names_nodes_after_the_graph() {
        let mut engine = Engine::new(small_cnn()).unwrap();
        let x = Tensor::randn(&[2, 3, 8, 8], 4);
        let mut rec = Recorder::with_capacity(64);
        engine.run_recorded(std::slice::from_ref(&x), &mut rec).unwrap();
        let json = engine_trace_json(engine.compiled(), &rec);
        let events = temco_obs::parse_chrome_trace(&json).unwrap();
        let spans: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), engine.graph().nodes.len() + 1);
        assert!(spans.iter().any(|e| e.cat == "node" && e.name == "c1"));
        assert!(spans.iter().any(|e| e.cat == "run" && e.name == "run"));
        assert!(events.iter().any(|e| e.ph == "M" && e.name == "process_name"));
    }

    #[test]
    fn recorded_and_plain_runs_agree() {
        let mut a = Engine::new(small_cnn()).unwrap();
        let mut b = Engine::new(small_cnn()).unwrap();
        let x = Tensor::randn(&[2, 3, 8, 8], 5);
        let mut rec = Recorder::with_capacity(64);
        let ya = a.run(std::slice::from_ref(&x)).unwrap()[0].clone();
        let yb = b.run_recorded(std::slice::from_ref(&x), &mut rec).unwrap();
        assert!(ya.all_close(&yb[0], 0.0));
        assert!(!rec.is_empty());
    }

    #[test]
    fn fused_breakdown_totals_match_the_planner() {
        use crate::schedule::FusedSchedule;
        use temco_ir::{ActKind, FconvSpec, FusedSpec, PoolKind};
        let g = small_cnn();
        assert!(g
            .nodes
            .iter()
            .all(|n| node_scratch_breakdown(&g, n, NodeSchedule::Default).is_none()));

        let mut g = Graph::new();
        let x = g.input(&[2, 4, 8, 8], "x");
        let lw = g.add_weight(Tensor::randn(&[32, 4, 1, 1], 1));
        let fw = g.add_weight(Tensor::randn(&[6, 32, 1, 1], 2));
        let f = g.fused(
            x,
            FusedSpec {
                lconv_w: lw,
                lconv_b: None,
                act: ActKind::Relu,
                pool: Some((PoolKind::Max, 2, 2)),
                fconv: Some(FconvSpec { weight: fw, bias: None }),
            },
            "f",
        );
        g.mark_output(f);
        g.infer_shapes();
        let (i, node) =
            g.nodes.iter().enumerate().find(|(_, n)| matches!(n.op, Op::Fused(_))).unwrap();
        let lv = temco_ir::liveness(&g);
        // The default row strip, a tuned 3×3×3 tile, and a row strip with
        // a non-default oversubscription: in every case the breakdown is
        // exactly the planner's reservation, decomposed.
        for sched in [
            NodeSchedule::Default,
            NodeSchedule::Fused(FusedSchedule { tile: 3, slots_per_thread: 1 }),
            NodeSchedule::Fused(FusedSchedule { tile: 0, slots_per_thread: 9 }),
        ] {
            let mut scheds = vec![NodeSchedule::Default; g.nodes.len()];
            scheds[i] = sched;
            let plan = crate::alloc::plan_allocation_with_schedules(
                &g,
                &lv,
                crate::alias::AliasMode::Full,
                &scheds,
            );
            let bd = node_scratch_breakdown(&g, node, plan.node_schedule[i]).unwrap();
            assert!(bd.slots > 0 && bd.per_slot_floats > 0);
            assert_eq!(
                bd.total_floats() * std::mem::size_of::<f32>(),
                plan.node_scratch[i],
                "{}",
                sched.label()
            );
        }
    }
}
