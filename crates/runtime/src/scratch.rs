//! Per-node kernel scratch requirements.
//!
//! Every compute kernel that needs working memory (im2col columns, GEMM
//! pack panels, fused-tile strips) exposes one deterministic,
//! schedule-taking scratch formula beside its one entry point
//! (`*_scratch_floats` in `temco_tensor`,
//! [`crate::fused::fused_scratch_breakdown`] for the fused kernel).
//! [`node_scratch_bytes`] evaluates those formulas from a node's *shapes
//! and schedule alone*, so the allocation planner can reserve kernel
//! scratch inside the inference slab before any kernel runs — the same
//! formula the kernel asserts against at execution time.
//!
//! Ops whose kernels are pure streaming loops (activations, pooling, add,
//! concat, flatten, softmax, layernorm, head split/merge, affine) need no
//! scratch and report zero.

use temco_ir::{Graph, Node, Op};
use temco_tensor::{
    conv2d_scratch_floats, conv_transpose2d_scratch_floats, gemm_scratch_floats,
    linear_scratch_floats, Conv2dParams,
};

use crate::profile::node_scratch_breakdown;
use crate::schedule::NodeSchedule;

/// Scratch bytes the kernel for `node` requires under `sched`, computed
/// from the graph's inferred shapes. Shapes must be inferred
/// (`Graph::infer_shapes`) before calling.
///
/// This is the *same* formula the kernels assert against at execution
/// time, so a plan built from it can never under-reserve scratch for the
/// schedule it carries.
pub fn node_scratch_bytes(g: &Graph, node: &Node, sched: NodeSchedule) -> usize {
    let floats = match &node.op {
        Op::Conv2d(spec) => {
            let s = g.shape(node.inputs[0]);
            let w = g.weight(spec.weight);
            let p =
                Conv2dParams { stride: spec.stride, padding: spec.padding, groups: spec.groups };
            conv2d_scratch_floats(s[1], s[2], s[3], w.dim(0), w.dim(2), w.dim(3), &p, sched.gemm())
        }
        Op::ConvTranspose2d { weight, .. } => {
            let s = g.shape(node.inputs[0]);
            let w = g.weight(*weight);
            conv_transpose2d_scratch_floats(
                s[1],
                w.dim(1),
                w.dim(2),
                w.dim(3),
                s[2],
                s[3],
                sched.gemm(),
            )
        }
        Op::Linear { weight, .. } => {
            let s = g.shape(node.inputs[0]);
            // Rows = every leading dim (rank-≥-2 inputs contract last-dim).
            let f = *s.last().expect("linear input has rank >= 2");
            let rows = s.iter().product::<usize>() / f;
            linear_scratch_floats(rows, f, g.weight(*weight).dim(0), sched.gemm())
        }
        Op::MatMul { transpose_a, transpose_b } => {
            // One GEMM's pack buffers; batch elements run sequentially
            // reusing them (see `matmul_into`).
            let (_, m, k, n) = temco_tensor::matmul_dims(
                g.shape(node.inputs[0]),
                g.shape(node.inputs[1]),
                *transpose_a,
                *transpose_b,
            );
            gemm_scratch_floats(m, k, n, sched.gemm())
        }
        Op::Fused(_) => node_scratch_breakdown(g, node, sched).map_or(0, |b| b.total_floats()),
        _ => 0,
    };
    floats * std::mem::size_of::<f32>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_tensor::{GemmSchedule, Tensor};

    const F32: usize = std::mem::size_of::<f32>();

    #[test]
    fn streaming_ops_need_no_scratch() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let r = g.relu(x, "r");
        let p = g.max_pool(r, 2, 2, "p");
        let s = g.add(&[p, p], "s");
        g.mark_output(s);
        g.infer_shapes();
        for node in &g.nodes {
            assert_eq!(
                node_scratch_bytes(&g, node, NodeSchedule::Default),
                0,
                "node {}",
                node.name
            );
        }
    }

    #[test]
    fn conv_scratch_matches_kernel_formula() {
        let mut g = Graph::new();
        let x = g.input(&[2, 3, 16, 16], "x");
        let c = g.conv2d(x, Tensor::randn(&[8, 3, 3, 3], 1), None, 1, 1, "c");
        g.mark_output(c);
        g.infer_shapes();
        let node = g.nodes.iter().find(|n| matches!(n.op, Op::Conv2d(_))).unwrap();
        let p = Conv2dParams { stride: (1, 1), padding: (1, 1), groups: 1 };
        let bytes = node_scratch_bytes(&g, node, NodeSchedule::Default);
        assert_eq!(
            bytes,
            F32 * conv2d_scratch_floats(3, 16, 16, 8, 3, 3, &p, GemmSchedule::DEFAULT)
        );
        assert!(bytes > 0);
    }

    #[test]
    fn schedule_changes_resize_the_reservation_consistently() {
        use crate::schedule::FusedSchedule;
        let mut g = Graph::new();
        let x = g.input(&[2, 3, 16, 16], "x");
        let c = g.conv2d(x, Tensor::randn(&[8, 3, 3, 3], 1), None, 1, 1, "c");
        g.mark_output(c);
        g.infer_shapes();
        let node = g.nodes.iter().find(|n| matches!(n.op, Op::Conv2d(_))).unwrap();
        let small = NodeSchedule::Gemm(GemmSchedule { kc: 8, mc: 4, nc: 8 });
        let def = node_scratch_bytes(&g, node, NodeSchedule::Default);
        let tuned = node_scratch_bytes(&g, node, small);
        assert!(tuned > 0 && tuned <= def, "{tuned} vs {def}");
        // A fused schedule on a conv node is ignored (falls back to the
        // default GEMM blocking).
        let cross = NodeSchedule::Fused(FusedSchedule { slots_per_thread: 9, tile: 3 });
        assert_eq!(node_scratch_bytes(&g, node, cross), def);
    }
}
