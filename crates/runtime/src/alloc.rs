//! Static offset allocation: the Plan stage of Plan → Allocate → Execute.
//!
//! Every materialized internal tensor of a scheduled graph gets a fixed
//! `(offset, size)` inside one contiguous slab such that values whose
//! liveness intervals overlap in time never overlap in space — unless the
//! alias analysis ([`crate::alias`]) proves they may *share* storage: a
//! concat operand embedded in its consumer's region, an elementwise output
//! reusing its dying input's bytes, or a monotone pool overlapping its
//! input's prefix. The slab is allocated once per inference; the executor
//! then runs entirely on views into it (see [`crate::executor`]), so the
//! process high-water mark *is* the slab size.
//!
//! The packer works on **alias classes**, not raw values: each class root
//! owns one region sized for the furthest member byte and one hull interval
//! covering every member's lifetime. Roots are placed greedy best-fit,
//! largest-first (ties broken by earlier hull `begin`, then lower root
//! `ValueId`), and each takes the tightest gap — among the offsets left
//! free by already-placed, time-overlapping roots — that fits it. Members
//! resolve to `root_offset + delta`. The whole procedure is deterministic:
//! same graph + schedule ⇒ byte-identical plan.
//!
//! `slab ≥ peak_live` always, where the peak is now the **union measure**
//! of live buffer extents per step (an alias class counts once, however
//! many members inhabit it); the gap is fragmentation, which
//! [`AllocationPlan::fragmentation`] reports and the Figure-10 harness
//! tracks against a 1.15× budget.
//!
//! # Kernel scratch as a planned resource
//!
//! Kernels also need working memory (im2col columns, GEMM pack panels,
//! fused-kernel strips). Since exactly one node runs at a time, one shared
//! **scratch arena** sized for the hungriest node suffices; it is appended
//! after the value region at a 64-byte-aligned offset, so the slab layout
//! is `[values][pad][scratch]` and `slab_bytes` covers both. Per-node
//! requirements come from [`crate::scratch::node_scratch_bytes`] — the same
//! deterministic formulas the kernels assert against at execution time.
//! Fragmentation is judged on the value region only; scratch is a fixed
//! cost of the kernel set, not a packing artifact.

use temco_ir::{liveness, Graph, Liveness, Op, ValueId};

use crate::alias::{analyze, AliasAnalysis, AliasMode, AliasStats, NodeExec};
use crate::schedule::NodeSchedule;

/// Alignment of the scratch arena inside the slab (one cache line, and the
/// GEMM pack-panel alignment the microkernel prefers).
pub const SCRATCH_ALIGN: usize = 64;

/// One value's reserved slab region and lifetime.
#[derive(Clone, Debug)]
pub struct PlannedBuffer {
    /// The value.
    pub value: ValueId,
    /// Byte offset inside the slab.
    pub offset: usize,
    /// Byte size.
    pub bytes: usize,
    /// First schedule step at which the buffer is occupied.
    pub begin: usize,
    /// Last schedule step at which the buffer is occupied (inclusive).
    pub end: usize,
}

impl PlannedBuffer {
    /// Whether the two buffers are ever live at the same step.
    pub fn time_overlap(&self, other: &PlannedBuffer) -> bool {
        self.begin <= other.end && other.begin <= self.end
    }

    /// Whether the two byte ranges `[offset, offset+bytes)` intersect.
    pub fn space_overlap(&self, other: &PlannedBuffer) -> bool {
        self.offset < other.offset + other.bytes && other.offset < self.offset + self.bytes
    }
}

/// How far the packed slab sits above the union-of-live lower bound.
#[derive(Clone, Copy, Debug)]
pub struct FragmentationReport {
    /// Total slab bytes.
    pub slab_bytes: usize,
    /// Peak of simultaneously-live bytes (union measure — an alias class
    /// counts once; the unreachable-by-packing floor).
    pub peak_live_bytes: usize,
    /// `slab_bytes - peak_live_bytes`.
    pub wasted_bytes: usize,
    /// `slab_bytes / peak_live_bytes` (1.0 for empty plans).
    pub ratio: f64,
}

/// The complete static allocation for one graph under one schedule.
#[derive(Clone, Debug)]
pub struct AllocationPlan {
    /// Reserved regions for every materialized value, in `ValueId` order.
    /// Aliased values carry their *resolved* absolute offset (root offset
    /// plus view delta) and their own `[begin, end]` interval.
    pub buffers: Vec<PlannedBuffer>,
    /// Total slab bytes: the value region plus (when any kernel needs
    /// working memory) alignment padding and the shared scratch arena.
    pub slab_bytes: usize,
    /// Bytes of the packed value region alone (max over alias-class
    /// regions of `offset + region_bytes`).
    pub value_bytes: usize,
    /// Byte offset of the scratch arena ([`SCRATCH_ALIGN`]-aligned; equals
    /// `value_bytes` rounded up). Meaningful only when `scratch_bytes > 0`.
    pub scratch_offset: usize,
    /// Scratch arena bytes: the max over nodes of their kernel scratch
    /// requirement (0 when every kernel is allocation-free by itself).
    pub scratch_bytes: usize,
    /// Kernel scratch bytes per schedule step, `node_scratch[i]` for
    /// `g.nodes[i]` — the executor hands each kernel exactly this prefix of
    /// the arena.
    pub node_scratch: Vec<usize>,
    /// Kernel schedule per node, parallel to `g.nodes`. `node_scratch[i]`
    /// is sized for exactly `node_schedule[i]`, and the executor dispatches
    /// each kernel with the same schedule — the two can never disagree.
    pub node_schedule: Vec<NodeSchedule>,
    /// Peak of simultaneously-live bytes (union measure per step — an
    /// alias class is counted once, not once per member).
    pub peak_live_bytes: usize,
    /// Per-node execution mode from the alias analysis, parallel to
    /// `g.nodes` — the executor's dispatch contract.
    pub node_exec: Vec<NodeExec>,
    /// Data-movement bytes per node: input staging, concat copies not
    /// eliminated by embedding, flatten copies not eliminated in place.
    /// Kernels that *compute* their output are not "movement".
    pub bytes_moved_per_node: Vec<usize>,
    /// Total planned data movement per inference (sum of the per-node
    /// column).
    pub bytes_moved: usize,
    /// `offset_of[value] = byte offset`, `usize::MAX` for unmaterialized
    /// values — O(1) lookup for the executor's hot loop.
    offset_of: Vec<usize>,
    /// `root_of[value] = alias-class root`, `u32::MAX` for unmaterialized.
    root_of: Vec<u32>,
    /// Byte delta of each value inside its class region.
    delta_of: Vec<usize>,
}

impl AllocationPlan {
    /// Slab byte offset of `v`, or `None` if `v` is never materialized.
    pub fn offset(&self, v: ValueId) -> Option<usize> {
        match self.offset_of.get(v.0 as usize) {
            Some(&o) if o != usize::MAX => Some(o),
            _ => None,
        }
    }

    /// Alias-class root and byte delta of `v` inside that class's region,
    /// or `None` if `v` is never materialized. Root values report
    /// themselves at delta 0; `alias(a).0 == alias(b).0` means the two
    /// values intentionally share storage.
    pub fn alias(&self, v: ValueId) -> Option<(ValueId, usize)> {
        match self.root_of.get(v.0 as usize) {
            Some(&r) if r != u32::MAX => Some((ValueId(r), self.delta_of[v.0 as usize])),
            _ => None,
        }
    }

    /// Aggregate alias counts: in-place nodes, overlap nodes, embedded
    /// concat operands, and view-bound values.
    pub fn alias_stats(&self) -> AliasStats {
        let mut s = AliasStats::default();
        for (vi, &r) in self.root_of.iter().enumerate() {
            if r != u32::MAX && r as usize != vi {
                s.aliased_values += 1;
            }
        }
        for ne in &self.node_exec {
            match ne {
                NodeExec::InPlace { .. } => s.inplace_nodes += 1,
                NodeExec::Overlap => s.overlap_nodes += 1,
                NodeExec::ConcatAliased { copy } => {
                    s.aliased_concat_operands += copy.iter().filter(|c| !**c).count()
                }
                NodeExec::Standard => {}
            }
        }
        s
    }

    /// The fragmentation report for this plan. Judged on the value region
    /// only — the scratch arena is a fixed cost of the kernel set, not a
    /// packing artifact.
    pub fn fragmentation(&self) -> FragmentationReport {
        let ratio = if self.peak_live_bytes == 0 {
            1.0
        } else {
            self.value_bytes as f64 / self.peak_live_bytes as f64
        };
        FragmentationReport {
            slab_bytes: self.value_bytes,
            peak_live_bytes: self.peak_live_bytes,
            wasted_bytes: self.value_bytes - self.peak_live_bytes,
            ratio,
        }
    }

    /// Check plan soundness. Returns human-readable violations (empty ⇔
    /// valid):
    ///
    /// * every buffer's offset must equal its alias-class root's offset
    ///   plus its view delta (a mutated buffer cannot drift from the alias
    ///   table unnoticed);
    /// * no two time-overlapping buffers of **different** alias classes may
    ///   intersect in space (same-class sharing is the alias analysis's
    ///   sanctioned business, re-checked independently by `temco-check`);
    /// * every buffer must lie inside the value region (never inside the
    ///   scratch arena);
    /// * the scratch arena must sit aligned past the value region and be
    ///   covered by the slab;
    /// * the slab must not undercut the union-of-live peak (a packing
    ///   cannot beat physics — such a plan is corrupt, not clever).
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let value_region = self.value_bytes.min(self.slab_bytes);
        for (i, a) in self.buffers.iter().enumerate() {
            if a.offset + a.bytes > value_region {
                errors.push(format!(
                    "buffer {:?} [{}, {}) exceeds value region {}",
                    a.value,
                    a.offset,
                    a.offset + a.bytes,
                    value_region
                ));
            }
            let vi = a.value.0 as usize;
            let root = self.root_of[vi];
            if root != u32::MAX {
                let root_off = self.offset_of[root as usize];
                if root_off == usize::MAX || a.offset != root_off + self.delta_of[vi] {
                    errors.push(format!(
                        "buffer {:?} at offset {} disagrees with its alias class \
                         (root {:?} + delta {})",
                        a.value,
                        a.offset,
                        ValueId(root),
                        self.delta_of[vi]
                    ));
                }
            }
            for b in self.buffers.iter().skip(i + 1) {
                let same_class = root != u32::MAX && self.root_of[b.value.0 as usize] == root;
                if !same_class && a.time_overlap(b) && a.space_overlap(b) {
                    errors.push(format!(
                        "values {:?} and {:?} overlap in time [{},{}]∩[{},{}] and in space \
                         [{},{})∩[{},{})",
                        a.value,
                        b.value,
                        a.begin,
                        a.end,
                        b.begin,
                        b.end,
                        a.offset,
                        a.offset + a.bytes,
                        b.offset,
                        b.offset + b.bytes
                    ));
                }
            }
        }
        if self.slab_bytes < self.peak_live_bytes {
            errors.push(format!(
                "slab {} undercuts the sum-of-live peak {} — impossible packing",
                self.slab_bytes, self.peak_live_bytes
            ));
        }
        if self.scratch_bytes > 0 {
            if self.scratch_offset < self.value_bytes
                || !self.scratch_offset.is_multiple_of(SCRATCH_ALIGN)
            {
                errors.push(format!(
                    "scratch arena offset {} is not an aligned offset past the value region {}",
                    self.scratch_offset, self.value_bytes
                ));
            }
            if self.scratch_offset + self.scratch_bytes != self.slab_bytes {
                errors.push(format!(
                    "scratch arena [{}, {}) does not end at the slab boundary {}",
                    self.scratch_offset,
                    self.scratch_offset + self.scratch_bytes,
                    self.slab_bytes
                ));
            }
        }
        if self.node_scratch.iter().copied().max().unwrap_or(0) > self.scratch_bytes {
            errors.push(format!(
                "a node needs more scratch than the arena holds ({} > {})",
                self.node_scratch.iter().copied().max().unwrap_or(0),
                self.scratch_bytes
            ));
        }
        errors
    }
}

/// Plan slab offsets for all internal tensors of `g` under its current
/// schedule (alias-aware greedy best-fit; see the module docs).
///
/// # Panics
/// Panics if shape inference has not run.
pub fn plan_allocation(g: &Graph) -> AllocationPlan {
    let lv = liveness(g);
    plan_allocation_with(g, &lv)
}

/// [`plan_allocation`] with a precomputed liveness (the executor computes
/// liveness anyway and shares it). Full alias mode.
pub fn plan_allocation_with(g: &Graph, lv: &Liveness) -> AllocationPlan {
    plan_allocation_with_mode(g, lv, AliasMode::Full)
}

/// [`plan_allocation_with`] with an explicit [`AliasMode`]. `Off`
/// reproduces the classic one-interval-per-value plan (every concat
/// copies, nothing runs in place) — the A/B baseline for fig10's
/// `bytes_moved` column and the differential oracle.
///
/// `Full` is guaranteed pointwise no worse than `Off` on both
/// `value_bytes` and `bytes_moved`: the alias analysis keeps the
/// union-measure peak monotone, but best-fit packing of the merged hull
/// intervals can still fragment worse than the alias-free layout
/// (concat-heavy graphs), so the planner packs both, retries without
/// concat embedding if the full plan lost, and falls back to the
/// alias-free plan as a last resort.
pub fn plan_allocation_with_mode(g: &Graph, lv: &Liveness, mode: AliasMode) -> AllocationPlan {
    plan_allocation_with_schedules(g, lv, mode, &[])
}

/// [`plan_allocation_with_mode`] with explicit per-node kernel schedules.
///
/// `schedules` is indexed by node position; an empty slice (or any missing
/// tail) means [`NodeSchedule::Default`] for every node, which reproduces
/// the hand-tuned constants bit for bit. The resulting plan carries the
/// schedules in `node_schedule` and sizes `node_scratch` / the scratch
/// arena for them, so the executor can dispatch each kernel with its
/// planned schedule without any run-time sizing.
///
/// # Panics
/// Panics if `schedules` is longer than the node list.
pub fn plan_allocation_with_schedules(
    g: &Graph,
    lv: &Liveness,
    mode: AliasMode,
    schedules: &[NodeSchedule],
) -> AllocationPlan {
    assert!(
        schedules.len() <= g.nodes.len(),
        "{} schedules for {} nodes",
        schedules.len(),
        g.nodes.len()
    );
    let mut scheds = vec![NodeSchedule::Default; g.nodes.len()];
    scheds[..schedules.len()].copy_from_slice(schedules);
    if mode == AliasMode::Off {
        return pack(g, lv, analyze(g, lv, AliasMode::Off), scheds);
    }
    let full = pack(g, lv, analyze(g, lv, AliasMode::Full), scheds.clone());
    let off = pack(g, lv, analyze(g, lv, AliasMode::Off), scheds.clone());
    let no_worse =
        |p: &AllocationPlan| p.value_bytes <= off.value_bytes && p.bytes_moved <= off.bytes_moved;
    if no_worse(&full) {
        return full;
    }
    let trimmed = pack(g, lv, crate::alias::analyze_opts(g, lv, AliasMode::Full, false), scheds);
    if no_worse(&trimmed) {
        trimmed
    } else {
        off
    }
}

/// Pack one alias analysis into a concrete plan (greedy best-fit over the
/// class-hull intervals; see the module docs).
fn pack(g: &Graph, lv: &Liveness, a: AliasAnalysis, scheds: Vec<NodeSchedule>) -> AllocationPlan {
    let n_values = g.values.len();

    // Resolve every materialized value to (root, delta) once.
    let mut root_of = vec![u32::MAX; n_values];
    let mut delta_of = vec![0usize; n_values];
    for vi in 0..n_values {
        let v = ValueId(vi as u32);
        if !lv.is_materialized(v) {
            continue;
        }
        let (r, d) = a.resolve(v);
        root_of[vi] = r.0;
        delta_of[vi] = d;
    }

    // Group members under their roots: region size is the furthest member
    // byte, the hull interval covers every member's lifetime. Roots are
    // visited in ValueId order so the packing order below is deterministic
    // (a root can carry a *higher* id than its members — a concat output
    // roots its embedded operands).
    struct ClassRegion {
        root: ValueId,
        bytes: usize,
        begin: usize,
        end: usize,
    }
    let mut region_of = vec![usize::MAX; n_values]; // root value → index into regions
    let mut regions: Vec<ClassRegion> = Vec::new();
    for vi in 0..n_values {
        if root_of[vi] == u32::MAX {
            continue;
        }
        let r = root_of[vi] as usize;
        if region_of[r] == usize::MAX {
            region_of[r] = regions.len();
            regions.push(ClassRegion {
                root: ValueId(r as u32),
                bytes: 0,
                begin: usize::MAX,
                end: 0,
            });
        }
        let reg = &mut regions[region_of[r]];
        reg.bytes = reg.bytes.max(delta_of[vi] + g.value_bytes(ValueId(vi as u32)));
        reg.begin = reg.begin.min(lv.begin[vi]);
        reg.end = reg.end.max(lv.end[vi]);
    }
    regions.sort_by_key(|c| c.root);
    for (ri, c) in regions.iter().enumerate() {
        region_of[c.root.0 as usize] = ri;
    }

    // Largest first; ties by earlier hull begin, then lower root id, so the
    // order — and with it the whole plan — is a pure function of the graph.
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_by(|&x, &y| {
        regions[y]
            .bytes
            .cmp(&regions[x].bytes)
            .then(regions[x].begin.cmp(&regions[y].begin))
            .then(regions[x].root.cmp(&regions[y].root))
    });

    let mut region_offset = vec![0usize; regions.len()];
    let mut placed: Vec<usize> = Vec::with_capacity(regions.len());
    for &i in &order {
        let need = regions[i].bytes;
        // Occupied byte ranges of already-placed regions alive at the same
        // time as region `i`.
        let mut occupied: Vec<(usize, usize)> = placed
            .iter()
            .filter(|&&j| regions[i].begin <= regions[j].end && regions[j].begin <= regions[i].end)
            .map(|&j| (region_offset[j], region_offset[j] + regions[j].bytes))
            .collect();
        occupied.sort_unstable();

        // Walk the gaps between occupied ranges; take the tightest that
        // fits, falling back to first-free-past-the-top. Gaps are visited in
        // ascending offset order, so ties resolve to the lowest offset.
        let mut best: Option<(usize, usize)> = None; // (slack, offset)
        let mut cursor = 0usize;
        for (start, end) in occupied {
            if start > cursor {
                let gap = start - cursor;
                if gap >= need {
                    let slack = gap - need;
                    if best.is_none_or(|(s, _)| slack < s) {
                        best = Some((slack, cursor));
                    }
                }
            }
            cursor = cursor.max(end);
        }
        region_offset[i] = best.map_or(cursor, |(_, off)| off);
        placed.push(i);
    }

    // Per-value buffers: resolved absolute offset, own interval.
    let mut buffers: Vec<PlannedBuffer> = Vec::new();
    let mut offset_of = vec![usize::MAX; n_values];
    for vi in 0..n_values {
        if root_of[vi] == u32::MAX {
            continue;
        }
        let ri = region_of[root_of[vi] as usize];
        let off = region_offset[ri] + delta_of[vi];
        offset_of[vi] = off;
        buffers.push(PlannedBuffer {
            value: ValueId(vi as u32),
            offset: off,
            bytes: g.value_bytes(ValueId(vi as u32)),
            begin: lv.begin[vi],
            end: lv.end[vi],
        });
    }

    let value_bytes =
        regions.iter().enumerate().map(|(ri, c)| region_offset[ri] + c.bytes).max().unwrap_or(0);
    let peak_live_bytes = peak_live_union(g.nodes.len(), &buffers);

    // Static data-movement accounting per node.
    let mut bytes_moved_per_node = vec![0usize; g.nodes.len()];
    for (i, node) in g.nodes.iter().enumerate() {
        bytes_moved_per_node[i] = match (&node.op, &a.node_exec[i]) {
            (Op::Input, _) => g.value_bytes(node.output),
            (Op::Concat, NodeExec::ConcatAliased { copy }) => node
                .inputs
                .iter()
                .zip(copy)
                .filter(|(_, c)| **c)
                .map(|(v, _)| g.value_bytes(*v))
                .sum(),
            (Op::Concat, _) => node.inputs.iter().map(|v| g.value_bytes(*v)).sum(),
            (Op::Flatten, NodeExec::InPlace { .. }) => 0,
            (Op::Flatten, _) => g.value_bytes(node.output),
            _ => 0,
        };
    }
    let bytes_moved = bytes_moved_per_node.iter().sum();

    // Reserve the shared kernel-scratch arena past the value region. One
    // node runs at a time, so max-over-nodes is exact, not conservative.
    // Each node's requirement is evaluated for the *schedule it will run
    // with*, via the same formula the kernel asserts against.
    let node_scratch: Vec<usize> = g
        .nodes
        .iter()
        .zip(&scheds)
        .map(|(n, s)| crate::scratch::node_scratch_bytes(g, n, *s))
        .collect();
    let scratch_bytes = node_scratch.iter().copied().max().unwrap_or(0);
    let scratch_offset = value_bytes.div_ceil(SCRATCH_ALIGN) * SCRATCH_ALIGN;
    let slab_bytes = if scratch_bytes == 0 { value_bytes } else { scratch_offset + scratch_bytes };

    AllocationPlan {
        buffers,
        slab_bytes,
        value_bytes,
        scratch_offset,
        scratch_bytes,
        node_scratch,
        node_schedule: scheds,
        peak_live_bytes,
        node_exec: a.node_exec,
        bytes_moved_per_node,
        bytes_moved,
        offset_of,
        root_of,
        delta_of,
    }
}

/// Peak of simultaneously-live bytes as the per-step **union measure** of
/// placed buffer extents: aliased values sharing bytes are counted once.
/// With aliasing off the spans are pairwise disjoint and this equals the
/// classic sum-of-live sweep.
fn peak_live_union(n_steps: usize, buffers: &[PlannedBuffer]) -> usize {
    let mut peak = 0usize;
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(buffers.len());
    for step in 0..n_steps {
        spans.clear();
        for p in buffers {
            if p.begin <= step && step <= p.end {
                spans.push((p.offset, p.offset + p.bytes));
            }
        }
        spans.sort_unstable();
        let mut covered = 0usize;
        let mut cursor = 0usize;
        for &(s, e) in &spans {
            let s = s.max(cursor);
            if e > s {
                covered += e - s;
                cursor = e;
            }
        }
        peak = peak.max(covered);
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_ir::Graph;
    use temco_tensor::Tensor;

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut x = g.input(&[1, 4, 8, 8], "x");
        for i in 0..n {
            x = g.relu(x, format!("r{i}"));
        }
        g.mark_output(x);
        g.infer_shapes();
        g
    }

    #[test]
    fn chain_packs_into_one_slot_in_place() {
        // Every relu's input dies at the relu, so the whole chain runs in
        // place over the graph input's buffer: one slot, not two.
        let g = chain(8);
        let plan = plan_allocation(&g);
        assert!(plan.validate().is_empty());
        assert_eq!(plan.slab_bytes, 4 * 64 * 4);
        assert_eq!(plan.slab_bytes, plan.peak_live_bytes);
        assert!((plan.fragmentation().ratio - 1.0).abs() < 1e-12);
        assert_eq!(plan.alias_stats().inplace_nodes, 8);
    }

    #[test]
    fn chain_packs_into_two_slots_with_aliasing_off() {
        // The classic plan: each relu needs a second slot to write into
        // while its input is still live.
        let g = chain(8);
        let lv = temco_ir::liveness(&g);
        let plan = plan_allocation_with_mode(&g, &lv, AliasMode::Off);
        assert!(plan.validate().is_empty());
        assert_eq!(plan.slab_bytes, 2 * 4 * 64 * 4);
        assert_eq!(plan.slab_bytes, plan.peak_live_bytes);
        assert!((plan.fragmentation().ratio - 1.0).abs() < 1e-12);
        assert_eq!(plan.alias_stats(), crate::alias::AliasStats::default());
    }

    #[test]
    fn offsets_are_queryable_per_value() {
        let g = chain(3);
        let plan = plan_allocation(&g);
        for p in &plan.buffers {
            assert_eq!(plan.offset(p.value), Some(p.offset));
        }
        // A value id past the table is not materialized.
        assert_eq!(plan.offset(ValueId(9999)), None);
        assert_eq!(plan.alias(ValueId(9999)), None);
    }

    #[test]
    fn skip_connection_packs_into_two_slots() {
        // x→a (in place), b, c (in place over b), s = add(a, c) in place
        // over a: two alias classes {x, a, s} and {b, c} — two slots where
        // the alias-free plan needed three.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let a = g.relu(x, "a");
        let b = g.relu(a, "b");
        let c = g.relu(b, "c");
        let s = g.add(&[a, c], "skip");
        g.mark_output(s);
        g.infer_shapes();
        let plan = plan_allocation(&g);
        assert!(plan.validate().is_empty());
        assert_eq!(plan.slab_bytes, 2 * 4 * 64 * 4);
        let (root_s, _) = plan.alias(s).unwrap();
        let (root_a, _) = plan.alias(a).unwrap();
        assert_eq!(root_s, root_a);

        let lv = temco_ir::liveness(&g);
        let off = plan_allocation_with_mode(&g, &lv, AliasMode::Off);
        assert_eq!(off.slab_bytes, 3 * 4 * 64 * 4);
    }

    #[test]
    fn best_fit_prefers_the_tightest_gap() {
        // Mixed sizes: a 4-channel and an 8-channel tensor alive together,
        // then later tensors that must reuse freed gaps rather than grow
        // the slab past the union-of-live peak.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x"); // 1 KiB
        let wide = g.conv2d(x, Tensor::zeros(&[8, 4, 3, 3]), None, 1, 1, "wide"); // 2 KiB
        let narrow = g.conv2d(wide, Tensor::zeros(&[4, 8, 3, 3]), None, 1, 1, "narrow"); // 1 KiB
        let out = g.relu(narrow, "out"); // 1 KiB
        g.mark_output(out);
        g.infer_shapes();
        let plan = plan_allocation(&g);
        assert!(plan.validate().is_empty());
        // Whatever the exact layout, best-fit must not exceed the
        // union-of-live peak here because every later tensor fits a freed
        // gap exactly. (The value region, that is — the convs also reserve
        // kernel scratch.)
        assert_eq!(plan.value_bytes, plan.peak_live_bytes);
        assert!(plan.scratch_bytes > 0);
        assert_eq!(plan.slab_bytes, plan.scratch_offset + plan.scratch_bytes);
    }

    #[test]
    fn plan_is_deterministic() {
        let mut g = Graph::new();
        let x = g.input(&[1, 8, 8, 8], "x");
        let c1 = g.conv2d(x, Tensor::zeros(&[16, 8, 3, 3]), None, 1, 1, "c1");
        let r = g.relu(c1, "r");
        let c2 = g.conv2d(r, Tensor::zeros(&[4, 16, 3, 3]), None, 2, 1, "c2");
        let s = g.add(&[x, x], "dbl");
        let cat = g.concat(&[s, s], "cat");
        g.mark_output(c2);
        g.mark_output(cat);
        g.infer_shapes();
        let a = plan_allocation(&g);
        let b = plan_allocation(&g);
        assert_eq!(a.slab_bytes, b.slab_bytes);
        assert_eq!(a.bytes_moved, b.bytes_moved);
        for (pa, pb) in a.buffers.iter().zip(&b.buffers) {
            assert_eq!((pa.value, pa.offset, pa.bytes), (pb.value, pb.offset, pb.bytes));
        }
        // The alias-free value region sits between the live peak (packing
        // cannot beat physics) and the sum of every tensor (no reuse at all).
        let off = plan_allocation_with_mode(&g, &temco_ir::liveness(&g), AliasMode::Off);
        assert!(off.validate().is_empty());
        let sum: usize = off.buffers.iter().map(|p| p.bytes).sum();
        assert!(off.value_bytes >= off.peak_live_bytes);
        assert!(off.value_bytes <= sum);
    }

    #[test]
    fn concat_embedding_eliminates_copies_and_bytes() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let p = g.conv2d(x, Tensor::zeros(&[4, 4, 3, 3]), None, 1, 1, "p");
        let q = g.conv2d(x, Tensor::zeros(&[4, 4, 3, 3]), None, 1, 1, "q");
        let cat = g.concat(&[p, q], "cat");
        g.mark_output(cat);
        g.infer_shapes();
        let lv = temco_ir::liveness(&g);
        let full = plan_allocation_with_mode(&g, &lv, AliasMode::Full);
        let off = plan_allocation_with_mode(&g, &lv, AliasMode::Off);
        assert!(full.validate().is_empty());
        assert!(off.validate().is_empty());
        // Both producers write straight into the concat region: the concat
        // moves nothing, and the region is counted once (not once per
        // producer plus once for the output).
        let slice = 4 * 64 * 4;
        assert_eq!(full.alias_stats().aliased_concat_operands, 2);
        assert_eq!(full.bytes_moved, off.bytes_moved - 2 * slice);
        assert!(full.slab_bytes < off.slab_bytes, "{} vs {}", full.slab_bytes, off.slab_bytes);
        // p and q resolve inside cat's region.
        let cat_off = full.offset(cat).unwrap();
        assert_eq!(full.offset(p), Some(cat_off));
        assert_eq!(full.offset(q), Some(cat_off + slice));
    }

    #[test]
    fn validate_flags_impossible_slabs() {
        let g = chain(3);
        let mut plan = plan_allocation(&g);
        plan.slab_bytes = plan.peak_live_bytes - 1;
        assert!(plan.validate().iter().any(|e| e.contains("undercuts")));
    }

    #[test]
    fn validate_flags_space_collisions() {
        // Two parallel branches of x live at the same time; forcing both
        // (different alias classes) onto offset 0 must be flagged.
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let a = g.relu(x, "a");
        let b = g.relu(x, "b");
        let s = g.add(&[a, b], "s");
        g.mark_output(s);
        g.infer_shapes();
        let mut plan = plan_allocation(&g);
        for p in &mut plan.buffers {
            p.offset = 0;
        }
        for o in &mut plan.offset_of {
            if *o != usize::MAX {
                *o = 0;
            }
        }
        for d in &mut plan.delta_of {
            *d = 0;
        }
        assert!(plan.validate().iter().any(|e| e.contains("overlap in time")));
    }

    #[test]
    fn validate_flags_buffers_that_leave_their_class() {
        let g = chain(3);
        let mut plan = plan_allocation(&g);
        // Nudge one buffer away from its alias-resolved offset.
        plan.buffers[1].offset += 4;
        assert!(plan.validate().iter().any(|e| e.contains("alias class")));
    }
}
