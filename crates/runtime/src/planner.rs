//! Static memory planner: the internal-tensor timeline from liveness alone.
//!
//! The peak memory of an inference is a function of shapes and the schedule,
//! not of the values flowing through it. Computing it statically lets the
//! paper's memory experiments run at full ImageNet resolution without paying
//! any convolution FLOPs. The per-node reference executor
//! ([`crate::ExecMode::PerNode`]) is its one executed cross-check: its
//! [`crate::MemoryTracker`] must reproduce this timeline step by step, which
//! `tests/properties.rs` asserts on random graphs and `tests/pipeline.rs` on
//! the model zoo.

use temco_ir::{liveness, Graph};

use crate::alias::AliasStats;
use crate::alloc::plan_allocation_with;

/// Live bytes after one schedule step.
#[derive(Clone, Debug)]
pub struct StepMem {
    /// Node index.
    pub step: usize,
    /// Node name.
    pub label: String,
    /// Internal-tensor bytes live while/after this node executes.
    pub live_bytes: usize,
}

/// The planner's report for one graph.
#[derive(Clone, Debug)]
pub struct MemoryPlan {
    /// Peak bytes of live internal tensors across the schedule.
    pub peak_internal_bytes: usize,
    /// Step index at which the peak occurs.
    pub peak_step: usize,
    /// Total bytes of weight tensors (loaded for the whole inference).
    pub weight_bytes: usize,
    /// Per-step live bytes.
    pub timeline: Vec<StepMem>,
    /// Bytes of the *value region* of the static slab the offset allocator
    /// packs the same liveness intervals into. Packing fragmentation pushes
    /// it above `peak_internal_bytes`; alias-driven storage sharing
    /// (in-place chains, embedded concats) can pull it *below* the logical
    /// sum-of-live peak, which counts every value separately.
    pub slab_bytes: usize,
    /// Bytes of the kernel-scratch arena the allocator appends after the
    /// value region (0 when no kernel needs working memory). The slab
    /// executor allocates `slab_total_bytes`, not `slab_bytes`.
    pub scratch_bytes: usize,
    /// Total bytes the slab executor allocates: value region + alignment
    /// padding + scratch arena.
    pub slab_total_bytes: usize,
    /// Planned data movement per inference: input staging plus every concat
    /// or flatten copy the alias analysis could not eliminate.
    pub bytes_moved: usize,
    /// How much the alias analysis rewired: in-place nodes, overlap nodes,
    /// embedded concat operands, view-bound values.
    pub alias_stats: AliasStats,
}

impl MemoryPlan {
    /// Peak of internal plus weight memory — the paper's Figure 10 stacks
    /// both pools.
    pub fn peak_total_bytes(&self) -> usize {
        self.peak_internal_bytes + self.weight_bytes
    }

    /// Slab size over the logical sum-of-live peak: 1.0 means the packing
    /// is perfect, above it is bytes lost to interval-packing
    /// fragmentation, and *below* 1.0 means alias-driven sharing packed
    /// simultaneously-live values into fewer bytes than the logical model
    /// charges for them.
    pub fn fragmentation(&self) -> f64 {
        if self.peak_internal_bytes == 0 {
            return 1.0;
        }
        self.slab_bytes as f64 / self.peak_internal_bytes as f64
    }
}

/// Fraction of the bytes live at the peak step that belong to *skip
/// connections* — values whose lifespan exceeds `distance_threshold`.
///
/// This is the paper's Figure 4a metric ("the memory usage of skip
/// connections takes 76.2% of the peak memory usage by internal tensors in
/// the UNet-decomposed model").
pub fn skip_share_at_peak(g: &Graph, distance_threshold: usize) -> f64 {
    let lv = liveness(g);
    let plan = plan_memory(g);
    let step = plan.peak_step;
    let mut total = 0usize;
    let mut skip = 0usize;
    for vi in 0..g.values.len() {
        let v = temco_ir::ValueId(vi as u32);
        if !lv.live_at(v, step) {
            continue;
        }
        let bytes = g.value_bytes(v);
        total += bytes;
        if lv.lifespan(v) > distance_threshold {
            skip += bytes;
        }
    }
    if total == 0 {
        return 0.0;
    }
    skip as f64 / total as f64
}

/// Compute the memory plan of a graph under its current schedule.
///
/// At step `i` the live set is every value `v` with
/// `begin(v) ≤ i ≤ end(v)`: the node's inputs are still allocated while it
/// runs, its output is allocated before it finishes, and anything whose last
/// use has passed has been freed — the dynamic-allocation model of
/// Section 2.2.
///
/// # Panics
/// Panics if shape inference has not run.
pub fn plan_memory(g: &Graph) -> MemoryPlan {
    let lv = liveness(g);
    let n_steps = g.nodes.len();
    // Sweep: +bytes at begin, -bytes after end.
    let mut delta = vec![0isize; n_steps + 1];
    for v in 0..g.values.len() {
        let b = lv.begin[v];
        if b == usize::MAX {
            continue;
        }
        let e = lv.end[v];
        let bytes = g.value_bytes(temco_ir::ValueId(v as u32)) as isize;
        delta[b] += bytes;
        delta[e + 1] -= bytes;
    }
    let mut live = 0isize;
    let mut peak = 0usize;
    let mut peak_step = 0usize;
    let mut timeline = Vec::with_capacity(n_steps);
    for (i, node) in g.nodes.iter().enumerate() {
        live += delta[i];
        debug_assert!(live >= 0, "negative live bytes at step {i}");
        let lb = live as usize;
        if lb > peak {
            peak = lb;
            peak_step = i;
        }
        timeline.push(StepMem { step: i, label: node.name.clone(), live_bytes: lb });
    }
    let alloc = plan_allocation_with(g, &lv);
    MemoryPlan {
        peak_internal_bytes: peak,
        peak_step,
        weight_bytes: g.weight_bytes(),
        timeline,
        slab_bytes: alloc.value_bytes,
        scratch_bytes: alloc.scratch_bytes,
        slab_total_bytes: alloc.slab_bytes,
        bytes_moved: alloc.bytes_moved,
        alias_stats: alloc.alias_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_ir::Graph;
    use temco_tensor::Tensor;

    /// Two convs with an activation in between — the Figure 3a microbench.
    fn two_conv_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x"); // 1024 B
        let c1 = g.conv2d(x, Tensor::zeros(&[8, 4, 3, 3]), None, 1, 1, "c1"); // 2048 B
        let r = g.relu(c1, "relu"); // 2048 B
        let c2 = g.conv2d(r, Tensor::zeros(&[4, 8, 3, 3]), None, 1, 1, "c2"); // 1024 B
        g.mark_output(c2);
        g.infer_shapes();
        g
    }

    #[test]
    fn peak_matches_equation_3() {
        // Eq. (3): MAX(in+out of each layer) = MAX(1024+2048, 2048+2048,
        // 2048+1024) = 4096.
        let plan = plan_memory(&two_conv_graph());
        assert_eq!(plan.peak_internal_bytes, 4096);
    }

    #[test]
    fn timeline_ends_with_only_outputs_live() {
        let g = two_conv_graph();
        let plan = plan_memory(&g);
        let last = plan.timeline.last().unwrap();
        assert_eq!(last.live_bytes, g.value_bytes(g.outputs[0]) + g.value_bytes(g.nodes[2].output));
        // (c2's input `relu` is freed only after c2 runs; at the sample taken
        // *during* step 3 both are live.)
    }

    #[test]
    fn skip_connection_extends_liveness() {
        // x is also consumed by a final add → x stays live throughout.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let c1 = g.conv2d(x, Tensor::zeros(&[4, 4, 3, 3]), None, 1, 1, "c1");
        let r = g.relu(c1, "r");
        let c2 = g.conv2d(r, Tensor::zeros(&[4, 4, 3, 3]), None, 1, 1, "c2");
        let s = g.add(&[x, c2], "skip_add");
        g.mark_output(s);
        g.infer_shapes();
        let plan = plan_memory(&g);

        // Without the skip the peak would be 2 tensors; with it, x rides
        // along: at step 3 (c2) live = x + r + c2 = 3 × 1024.
        assert_eq!(plan.peak_internal_bytes, 3 * 1024);
    }

    #[test]
    fn skip_share_identifies_long_lived_tensors() {
        // The UNet situation in miniature: the skip tensor dominates the
        // peak while the middle runs.
        let mut g = Graph::new();
        let x = g.input(&[1, 16, 8, 8], "x");
        let skip = g.relu(x, "skip");
        let mut t = skip;
        for i in 0..6 {
            t = g.conv2d(t, Tensor::zeros(&[16, 16, 3, 3]), None, 1, 1, format!("mid{i}"));
        }
        let s = g.add(&[skip, t], "join");
        g.mark_output(s);
        g.infer_shapes();
        let share = super::skip_share_at_peak(&g, 4);
        // skip is 1 of the ~3 live tensors at the peak.
        assert!(share > 0.2 && share < 0.6, "share {share}");

        // A pure chain has no skip connections at all.
        let mut chain = Graph::new();
        let x = chain.input(&[1, 4, 4, 4], "x");
        let a = chain.relu(x, "a");
        let b = chain.relu(a, "b");
        chain.mark_output(b);
        chain.infer_shapes();
        assert_eq!(super::skip_share_at_peak(&chain, 4), 0.0);
    }

    #[test]
    fn slab_undercuts_logical_peak_via_aliasing() {
        // The logical model charges c1 and relu separately at step 2
        // (peak 4096), but relu runs in place over c1's bytes, so the real
        // slab packs {x}, {c1, relu}, {c2} into 3072 — fragmentation
        // reads *below* 1.0.
        let plan = plan_memory(&two_conv_graph());
        assert_eq!(plan.peak_internal_bytes, 4096);
        assert_eq!(plan.slab_bytes, 3072);
        assert!((plan.fragmentation() - 0.75).abs() < 1e-12);
        assert_eq!(plan.alias_stats.inplace_nodes, 1);
        // Only the input staging moves bytes; nothing else copies.
        assert_eq!(plan.bytes_moved, 1024);
        // The convs need GEMM/im2col scratch, reserved beyond the values.
        assert!(plan.scratch_bytes > 0);
        assert!(plan.slab_total_bytes >= plan.slab_bytes + plan.scratch_bytes);
    }

    #[test]
    fn weight_bytes_are_separate_pool() {
        let g = two_conv_graph();
        let plan = plan_memory(&g);
        assert_eq!(plan.weight_bytes, (8 * 4 * 9 + 4 * 8 * 9) * 4);
        assert_eq!(plan.peak_total_bytes(), plan.peak_internal_bytes + plan.weight_bytes);
    }
}
