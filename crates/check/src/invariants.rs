//! Independent allocation-plan invariant checking.
//!
//! `AllocationPlan::validate` is the allocator checking its own work; a bug
//! in the shared assumptions (liveness, sizes, alias analysis) passes both.
//! This module re-derives every invariant from the graph alone — its own
//! liveness walk, its own byte accounting, its own reading of which ops may
//! legally share storage — and compares the plan against that, so a
//! planner/liveness/aliasing bug has to fool two independent
//! implementations to slip through. The invariants:
//!
//! 1. **Write simulation** — walk the schedule and compute, per node, the
//!    byte regions its kernel writes (the whole output extent; for a
//!    batch-1 concat, only the slots of operands that were *not* produced
//!    in place). Any simultaneously-live value intersecting a written
//!    region is an aliasing violation **unless** the graph itself
//!    sanctions the reuse: an elementwise/activation op overwriting its
//!    sole dying same-size operand, or a monotone pool overwriting the
//!    prefix of its sole dying input. Crucially the sanction is re-derived
//!    from the graph and the buffer offsets — never read from the plan's
//!    own `node_exec` table, which a buggy planner could make agree with a
//!    buggy layout.
//! 2. **Exact coverage** — every materialized value has exactly one buffer
//!    of exactly its byte size, with the plan's `[begin, end]` matching the
//!    re-derived interval.
//! 3. **Scratch disjointness** — the kernel-scratch arena lies wholly past
//!    the value region, aligned, inside the slab; per-node scratch never
//!    exceeds the arena.
//! 4. **Peak accounting** — the plan's `peak_live_bytes` equals the
//!    re-computed max over schedule steps of the *union measure* of live
//!    buffer extents (an alias class counts once), and the value region is
//!    at least that big.
//! 5. **Movement accounting** — the plan's `bytes_moved` equals the
//!    re-derived copy volume: input staging, concat slots not eliminated
//!    by embedding, flattens not running in place.

use temco_ir::{liveness, Graph, Liveness, Op, ValueId};
use temco_runtime::{plan_allocation_with, AllocationPlan, SCRATCH_ALIGN};

const F32: usize = std::mem::size_of::<f32>();

/// Plan the graph (full alias mode, the executor's default) and check the
/// result. Empty ⇔ all invariants hold.
pub fn check_plan(g: &Graph) -> Vec<String> {
    let lv = liveness(g);
    let plan = plan_allocation_with(g, &lv);
    check_plan_against(g, &plan)
}

/// Check an explicit plan against `g` (used both on real planner output and
/// on deliberately-sabotaged plans in the harness's self-tests). Works on
/// plans from any [`temco_runtime::AliasMode`]: which storage sharing is
/// legal is re-derived from the graph and the buffer offsets alone.
pub fn check_plan_against(g: &Graph, plan: &AllocationPlan) -> Vec<String> {
    let mut errs = Vec::new();
    let lv = liveness(g);
    let name = |v: ValueId| g.values[v.0 as usize].name.clone();

    // Offsets come from the buffer list, NOT from `plan.offset()` — the
    // self-sabotage injections mutate buffers, and a checker reading a
    // separate lookup table would be blind to exactly the drift it exists
    // to catch.
    let mut off = vec![usize::MAX; g.values.len()];
    for b in &plan.buffers {
        off[b.value.0 as usize] = b.offset;
    }

    // 2. Exact coverage: one buffer per materialized value, right size,
    //    right interval.
    for iv in lv.intervals() {
        let matching: Vec<_> = plan.buffers.iter().filter(|b| b.value == iv.value).collect();
        match matching.as_slice() {
            [] => errs.push(format!("value '{}' is live but has no buffer", name(iv.value))),
            [b] => {
                let want = g.value_bytes(iv.value);
                if b.bytes != want {
                    errs.push(format!(
                        "buffer for '{}' holds {} bytes, value needs {}",
                        name(iv.value),
                        b.bytes,
                        want
                    ));
                }
                if (b.begin, b.end) != (iv.begin, iv.end) {
                    errs.push(format!(
                        "buffer for '{}' spans [{}, {}], liveness says [{}, {}]",
                        name(iv.value),
                        b.begin,
                        b.end,
                        iv.begin,
                        iv.end
                    ));
                }
            }
            many => errs.push(format!(
                "value '{}' has {} buffers (must be exactly one)",
                name(iv.value),
                many.len()
            )),
        }
    }

    // 1. Write simulation over the re-derived liveness. Time overlap comes
    //    from our own walk, not the plan's begin/end (a plan lying about
    //    lifetimes must not excuse aliasing).
    for (i, node) in g.nodes.iter().enumerate() {
        let out = node.output;
        let out_off = off[out.0 as usize];
        if out_off == usize::MAX {
            continue; // coverage already flagged it
        }
        let out_bytes = g.value_bytes(out);

        // Byte regions this node's kernel writes.
        let written = written_regions(g, node, out_off, out_bytes, &off);

        for iv in lv.intervals() {
            let w = iv.value;
            if w == out || iv.begin > i || i > iv.end {
                continue;
            }
            let w_off = off[w.0 as usize];
            if w_off == usize::MAX {
                continue;
            }
            let w_bytes = g.value_bytes(w);
            let hit = written.iter().any(|&(s, e)| w_off < e && s < w_off + w_bytes);
            if hit && !reuse_sanctioned(g, &lv, node, i, w, w_off, w_bytes, out_off, out_bytes) {
                errs.push(format!(
                    "node '{}' (step {i}) writes over live value '{}' [{}, {}) — \
                     values alias in the slab without a sanctioned reuse",
                    node.name,
                    name(w),
                    w_off,
                    w_off + w_bytes
                ));
            }
        }
    }

    // 3. Scratch arena: past every value buffer, aligned, inside the slab,
    //    and covering every node's requirement.
    let value_end = plan.buffers.iter().map(|b| b.offset + b.bytes).max().unwrap_or(0);
    if plan.value_bytes != value_end {
        errs.push(format!(
            "value region reported as {} bytes, buffers end at {}",
            plan.value_bytes, value_end
        ));
    }
    if plan.node_scratch.len() != g.nodes.len() {
        errs.push(format!(
            "node_scratch has {} entries for {} nodes",
            plan.node_scratch.len(),
            g.nodes.len()
        ));
    }
    let max_scratch = plan.node_scratch.iter().copied().max().unwrap_or(0);
    if plan.scratch_bytes != max_scratch {
        errs.push(format!(
            "scratch arena is {} bytes but the hungriest node needs {}",
            plan.scratch_bytes, max_scratch
        ));
    }
    // 3b. Schedule-consistent reservations: every node's scratch entry is
    //     re-derived from the kernel formula for the *schedule the plan
    //     dispatches that node with* — a kernel can never touch past its
    //     reservation, for any schedule the autotuner may have chosen.
    if plan.node_schedule.len() != g.nodes.len() {
        errs.push(format!(
            "node_schedule has {} entries for {} nodes",
            plan.node_schedule.len(),
            g.nodes.len()
        ));
    }
    for (i, node) in g.nodes.iter().enumerate() {
        let (Some(&reserved), Some(&sched)) = (plan.node_scratch.get(i), plan.node_schedule.get(i))
        else {
            break; // length mismatch already flagged
        };
        let need = temco_runtime::node_scratch_bytes(g, node, sched);
        if reserved != need {
            errs.push(format!(
                "node '{}' reserves {} scratch bytes but its schedule ({}) needs {}",
                node.name,
                reserved,
                sched.label(),
                need
            ));
        }
    }
    if plan.scratch_bytes > 0 {
        if plan.scratch_offset < value_end {
            errs.push(format!(
                "scratch arena at {} overlaps the value region ending at {}",
                plan.scratch_offset, value_end
            ));
        }
        if !plan.scratch_offset.is_multiple_of(SCRATCH_ALIGN) {
            errs.push(format!(
                "scratch offset {} is not {SCRATCH_ALIGN}-aligned",
                plan.scratch_offset
            ));
        }
        if plan.scratch_offset + plan.scratch_bytes != plan.slab_bytes {
            errs.push(format!(
                "slab is {} bytes, scratch ends at {}",
                plan.slab_bytes,
                plan.scratch_offset + plan.scratch_bytes
            ));
        }
    } else if plan.slab_bytes != value_end {
        errs.push(format!(
            "no scratch, but slab ({}) exceeds the value region ({})",
            plan.slab_bytes, value_end
        ));
    }

    // 4. Peak accounting from first principles: the union measure of live
    //    buffer extents per step (values sharing bytes count once).
    let mut peak = 0usize;
    for step in 0..g.nodes.len() {
        let mut spans: Vec<(usize, usize)> = lv
            .intervals()
            .filter(|iv| iv.begin <= step && step <= iv.end)
            .filter_map(|iv| {
                let o = off[iv.value.0 as usize];
                (o != usize::MAX).then(|| (o, o + g.value_bytes(iv.value)))
            })
            .collect();
        spans.sort_unstable();
        let mut covered = 0usize;
        let mut cursor = 0usize;
        for (s, e) in spans {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        peak = peak.max(covered);
    }
    if plan.peak_live_bytes != peak {
        errs.push(format!(
            "plan claims {} peak live bytes, schedule walk finds {}",
            plan.peak_live_bytes, peak
        ));
    }
    if plan.value_bytes < peak {
        errs.push(format!(
            "value region ({}) smaller than peak live bytes ({})",
            plan.value_bytes, peak
        ));
    }

    // 5. Movement accounting: re-derive every copy the plan's layout still
    //    requires and compare totals.
    let mut moved = 0usize;
    for node in &g.nodes {
        let out_off = off[node.output.0 as usize];
        if out_off == usize::MAX {
            continue;
        }
        moved += match &node.op {
            Op::Input => g.value_bytes(node.output),
            Op::Concat => {
                let mut regions = Vec::new();
                concat_slots(g, node, out_off, &off, |v, embedded, _slot| {
                    if !embedded {
                        regions.push(g.value_bytes(v));
                    }
                });
                regions.iter().sum()
            }
            Op::Flatten => {
                if off[node.inputs[0].0 as usize] == out_off {
                    0
                } else {
                    g.value_bytes(node.output)
                }
            }
            _ => 0,
        };
    }
    if plan.bytes_moved != moved {
        errs.push(format!(
            "plan claims {} bytes moved, layout walk finds {}",
            plan.bytes_moved, moved
        ));
    }

    errs
}

/// Walk a concat's operand slots in channel order, reporting for each
/// operand whether its buffer already *is* its slot (embedded — produced in
/// place, no copy) and the slot's byte range. Embedding is only possible at
/// batch 1, where each operand's slot is one contiguous channel slice of
/// the output; at batch > 1 the slices interleave and every operand copies.
fn concat_slots(
    g: &Graph,
    node: &temco_ir::Node,
    out_off: usize,
    off: &[usize],
    mut f: impl FnMut(ValueId, bool, (usize, usize)),
) {
    let oshape = g.shape(node.output);
    let batch1 = oshape[0] == 1;
    let plane_bytes: usize = oshape[2..].iter().product::<usize>() * F32;
    let mut c_off = 0usize;
    for (j, &v) in node.inputs.iter().enumerate() {
        let c = g.shape(v)[1];
        let slot = (out_off + c_off * plane_bytes, out_off + (c_off + c) * plane_bytes);
        let embedded = batch1
            && off[v.0 as usize] == slot.0
            && node.inputs.iter().filter(|&&u| u == v).count() == 1
            && !g.outputs.contains(&v)
            && node.inputs[..j].iter().all(|&u| u != v);
        f(v, embedded, slot);
        c_off += c;
    }
}

/// The byte regions node `node`'s kernel writes. For most ops this is the
/// whole output extent; a batch-1 concat skips the slots of embedded
/// operands (their producers wrote them already — the concat itself touches
/// nothing there).
fn written_regions(
    g: &Graph,
    node: &temco_ir::Node,
    out_off: usize,
    out_bytes: usize,
    off: &[usize],
) -> Vec<(usize, usize)> {
    if matches!(node.op, Op::Concat) {
        let mut regions = Vec::new();
        concat_slots(g, node, out_off, off, |_v, embedded, slot| {
            if !embedded {
                regions.push(slot);
            }
        });
        regions
    } else {
        vec![(out_off, out_off + out_bytes)]
    }
}

/// Whether the graph sanctions node `node` (at step `i`) overwriting live
/// value `w`'s bytes — re-derived from op semantics, liveness, and offsets:
///
/// * elementwise/activation ops may overwrite their **sole** occurrence of
///   a dying (`end == i`), non-output operand occupying exactly the output
///   extent (in-place execution);
/// * monotone pools (max/avg/global-avg) may overwrite the **prefix** of
///   their sole dying, non-output input — the traversal never reads a
///   position it has already written (the DMO argument).
#[allow(clippy::too_many_arguments)]
fn reuse_sanctioned(
    g: &Graph,
    lv: &Liveness,
    node: &temco_ir::Node,
    i: usize,
    w: ValueId,
    w_off: usize,
    w_bytes: usize,
    out_off: usize,
    out_bytes: usize,
) -> bool {
    let dies_here = lv.end[w.0 as usize] == i && !g.outputs.contains(&w);
    let sole_operand = node.inputs.iter().filter(|&&u| u == w).count() == 1;
    match &node.op {
        Op::Activation(_)
        | Op::Affine { .. }
        | Op::Add
        | Op::Flatten
        | Op::Softmax
        | Op::LayerNorm { .. } => {
            // Softmax and layernorm qualify because each row's statistics
            // (max/sum, mean/var) are fully reduced before any element of
            // that row is written — mirrored in the planner's
            // `inplace_safe`; the two lists must change in lockstep.
            dies_here && sole_operand && w_off == out_off && w_bytes == out_bytes
        }
        Op::Pool { .. } | Op::GlobalAvgPool => {
            dies_here
                && node.inputs.first() == Some(&w)
                && sole_operand
                && w_off == out_off
                && out_bytes <= w_bytes
        }
        _ => false,
    }
}

/// Sabotage a valid plan for the harness's self-test: force two
/// time-overlapping buffers to the same offset (a classic allocator bug),
/// picking the largest candidate pair the checker actually flags.
/// Returns `None` when the graph admits no detectable injection (no two
/// simultaneously-live values at distinct offsets).
pub fn inject_aliasing(g: &Graph, plan: &mut AllocationPlan) -> Option<(ValueId, ValueId)> {
    let lv = liveness(g);
    let mut cands: Vec<(usize, usize, usize)> = Vec::new();
    for i in 0..plan.buffers.len() {
        for j in i + 1..plan.buffers.len() {
            let (a, b) = (&plan.buffers[i], &plan.buffers[j]);
            if lv.overlap(a.value, b.value) && a.offset != b.offset {
                cands.push((i, j, a.bytes + b.bytes));
            }
        }
    }
    cands.sort_by_key(|c| std::cmp::Reverse(c.2));
    for (i, j, _) in cands {
        let mut trial = plan.clone();
        trial.buffers[j].offset = trial.buffers[i].offset;
        if check_plan_against(g, &trial).iter().any(|e| e.contains("alias")) {
            let victims = (plan.buffers[i].value, plan.buffers[j].value);
            plan.buffers[j].offset = plan.buffers[i].offset;
            return Some(victims);
        }
    }
    None
}

/// Sabotage a valid plan with the *specific* bug the in-place gate exists
/// to prevent: move a node's output buffer onto an operand that **outlives**
/// the node, so running it would clobber bytes a later consumer still
/// needs. Returns the `(output, clobbered operand)` pair, or `None` if the
/// graph has no operand outliving its consumer.
pub fn inject_unsafe_inplace(g: &Graph, plan: &mut AllocationPlan) -> Option<(ValueId, ValueId)> {
    let lv = liveness(g);
    let idx_of = |v: ValueId| plan.buffers.iter().position(|b| b.value == v);
    for (i, node) in g.nodes.iter().enumerate() {
        for &v in &node.inputs {
            if lv.end[v.0 as usize] <= i {
                continue; // dies here or earlier — reusing it could be legal
            }
            let (Some(oi), Some(vi)) = (idx_of(node.output), idx_of(v)) else { continue };
            if plan.buffers[oi].offset == plan.buffers[vi].offset {
                continue;
            }
            let mut trial = plan.clone();
            trial.buffers[oi].offset = trial.buffers[vi].offset;
            if check_plan_against(g, &trial).iter().any(|e| e.contains("alias")) {
                plan.buffers[oi].offset = plan.buffers[vi].offset;
                return Some((node.output, v));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_cnn, GenConfig};
    use temco_ir::liveness;
    use temco_runtime::{plan_allocation_with_mode, AliasMode};

    #[test]
    fn real_plans_pass_on_the_generated_corpus() {
        for seed in 0..20 {
            let g = random_cnn(seed, &GenConfig::default());
            let errs = check_plan(&g);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
        }
    }

    #[test]
    fn transformer_plans_pass_and_layernorm_runs_in_place() {
        // The rank-3 corpus must satisfy the same re-derived invariants,
        // and at least some generated block must actually exercise the
        // layernorm in-place sanction (an `add → layernorm` link where the
        // add's buffer dies at the layernorm).
        use crate::gen::random_transformer;
        let mut inplace_ln = 0;
        for seed in 0..20 {
            let g = random_transformer(seed, &GenConfig::default());
            let lv = liveness(&g);
            let plan = plan_allocation_with(&g, &lv);
            let errs = check_plan_against(&g, &plan);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
            for node in &g.nodes {
                if matches!(node.op, Op::LayerNorm { .. })
                    && plan.offset(node.output) == plan.offset(node.inputs[0])
                {
                    inplace_ln += 1;
                }
            }
        }
        assert!(inplace_ln > 5, "layernorm never aliased its operand ({inplace_ln})");
    }

    #[test]
    fn alias_free_plans_pass_too() {
        // The checker must accept both ends of the A/B pair — it re-derives
        // what sharing is legal, not what sharing is mandatory.
        for seed in 0..10 {
            let g = random_cnn(seed, &GenConfig::default());
            let lv = liveness(&g);
            let plan = plan_allocation_with_mode(&g, &lv, AliasMode::Off);
            let errs = check_plan_against(&g, &plan);
            assert!(errs.is_empty(), "seed {seed} (alias off): {errs:?}");
        }
    }

    #[test]
    fn tuned_plans_pass_and_schedule_drift_is_caught() {
        use temco_runtime::{plan_allocation_with_schedules, GemmSchedule, NodeSchedule};
        for seed in 0..5 {
            let g = random_cnn(seed, &GenConfig::default());
            let lv = liveness(&g);
            // Give every node a deliberately odd (but legal-after-
            // normalization) GEMM schedule; the plan must still check out.
            let scheds: Vec<NodeSchedule> = (0..g.nodes.len())
                .map(|i| NodeSchedule::Gemm(GemmSchedule { kc: 7 + i, mc: 8, nc: 16 }))
                .collect();
            let mut plan = plan_allocation_with_schedules(&g, &lv, AliasMode::Full, &scheds);
            let errs = check_plan_against(&g, &plan);
            assert!(errs.is_empty(), "seed {seed} (tuned): {errs:?}");

            // Sabotage: claim a node runs with a bigger schedule than its
            // reservation was sized for. The checker must notice the
            // under-reservation from first principles.
            if let Some(i) = plan.node_scratch.iter().position(|&s| s > 0) {
                let big = NodeSchedule::Gemm(GemmSchedule { kc: 4096, mc: 4096, nc: 4096 });
                if temco_runtime::node_scratch_bytes(&g, &g.nodes[i], big) != plan.node_scratch[i] {
                    plan.node_schedule[i] = big;
                    let errs = check_plan_against(&g, &plan);
                    assert!(
                        errs.iter().any(|e| e.contains("schedule")),
                        "seed {seed}: schedule drift on node {i} not caught: {errs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn injected_aliasing_is_caught() {
        let g = random_cnn(3, &GenConfig::default());
        let lv = liveness(&g);
        let mut plan = plan_allocation_with(&g, &lv);
        let victims = inject_aliasing(&g, &mut plan).expect("corpus graphs have live overlap");
        let errs = check_plan_against(&g, &plan);
        assert!(
            errs.iter().any(|e| e.contains("alias")),
            "sabotaged plan for {victims:?} not caught: {errs:?}"
        );
    }

    #[test]
    fn injected_unsafe_inplace_is_caught() {
        // An in-place reuse whose operand outlives the node is exactly what
        // `dies_exclusively_here` forbids; a plan doing it anyway must be
        // rejected by the independent rules.
        let mut caught = 0;
        for seed in 0..10 {
            let g = random_cnn(seed, &GenConfig::default());
            let lv = liveness(&g);
            let mut plan = plan_allocation_with(&g, &lv);
            if let Some((out, victim)) = inject_unsafe_inplace(&g, &mut plan) {
                let errs = check_plan_against(&g, &plan);
                assert!(
                    errs.iter().any(|e| e.contains("alias")),
                    "seed {seed}: unsafe in-place of {out:?} over {victim:?} not caught: {errs:?}"
                );
                caught += 1;
            }
        }
        assert!(caught >= 3, "corpus admitted only {caught} unsafe-inplace injections");
    }
}
