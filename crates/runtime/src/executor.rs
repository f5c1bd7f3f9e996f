//! Graph execution: Plan → Allocate → Execute.
//!
//! The default path runs an inference in three stages:
//!
//! 1. **Plan** — [`crate::alloc::plan_allocation`] assigns every internal
//!    tensor a fixed `(offset, size)` inside one contiguous slab from its
//!    liveness interval (greedy best-fit packing).
//! 2. **Allocate** — the executor makes exactly one allocation, the slab.
//! 3. **Execute** — every kernel runs through its `_into` entry point on views
//!    into the slab; no per-node `Tensor` is ever allocated, so the
//!    process's internal-tensor high-water mark *is* the slab size.
//!
//! [`ExecMode::PerNode`] keeps the framework baseline the paper's Section
//! 2.2 describes — allocate each output when its layer runs, free inputs
//! after their last consumer — for comparison benches and cross-checks. Both
//! modes record the identical alloc/free timeline in [`MemoryTracker`]; the
//! slab mode additionally reports the slab size and the dynamic high-water
//! mark of bytes actually touched, which must agree exactly (the
//! integration tests assert this for every model at every opt level).

use std::fmt;
use std::time::Instant;

use temco_ir::{liveness, Graph, Liveness, Op, PoolKind, ValueId};
use temco_tensor::{
    add, add_n_assign_iter, add_n_into_iter, avg_pool2d, avg_pool2d_inplace, avg_pool2d_into,
    concat_channels, concat_channels_into_iter, conv2d, conv2d_into, conv_transpose2d,
    conv_transpose2d_into, global_avg_pool, global_avg_pool_inplace, global_avg_pool_into,
    layer_norm, layer_norm_inplace, layer_norm_into, linear, linear_into, matmul, matmul_into,
    max_pool2d, max_pool2d_inplace, max_pool2d_into, merge_heads, merge_heads_into,
    softmax_lastdim, softmax_lastdim_inplace, softmax_lastdim_into, split_heads, split_heads_into,
    Conv2dParams, Tensor, TensorView,
};

use crate::alias::{AliasMode, NodeExec};
use crate::alloc::{plan_allocation_with_mode, AllocationPlan};
use crate::fused::{fused_forward, fused_forward_into};
use crate::memory::MemoryTracker;
use crate::schedule::{FusedSchedule, NodeSchedule};

/// How the executor obtains memory for internal tensors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One preallocated slab laid out by the static allocator; kernels
    /// write into planned offsets (the TeMCO deployment model).
    #[default]
    Slab,
    /// A fresh `Tensor` per node output, freed after its last consumer —
    /// the dynamic-framework baseline of Section 2.2.
    PerNode,
}

/// Execution options.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecOptions {
    /// Record per-node wall-clock times.
    pub time_nodes: bool,
    /// Memory strategy (defaults to [`ExecMode::Slab`]).
    pub mode: ExecMode,
    /// Alias analysis for the slab plan (defaults to [`AliasMode::Full`]);
    /// `Off` reproduces the classic one-interval-per-value plan.
    pub alias: AliasMode,
}

/// A typed execution failure. The execute path validates graph, inputs and
/// allocation plan up front and reports problems as values instead of
/// panicking mid-inference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Caller passed the wrong number of input tensors.
    InputCountMismatch {
        /// `Graph::inputs` arity.
        expected: usize,
        /// What the caller passed.
        got: usize,
    },
    /// An input tensor's shape disagrees with the graph's declared shape.
    InputShapeMismatch {
        /// Position in `Graph::inputs`.
        index: usize,
        /// Name of the graph input, so batch callers see *which* of their
        /// tensors is wrong, not just an index.
        name: String,
        /// Declared shape.
        expected: Vec<usize>,
        /// Shape of the tensor the caller passed.
        got: Vec<usize>,
    },
    /// An `Input` node's output value is not registered in `Graph::inputs`.
    UnregisteredInput {
        /// Name of the offending node.
        node: String,
    },
    /// A value's shape is unknown — `Graph::infer_shapes` has not run (or
    /// did not reach it).
    ShapesNotInferred {
        /// Name of the value without a shape.
        value: String,
    },
    /// A value has zero elements — a pooling/conv window collapsed some
    /// dimension to nothing (input resolution too small for the graph).
    ZeroSizedValue {
        /// Name of the empty value.
        value: String,
        /// Its inferred shape.
        shape: Vec<usize>,
    },
    /// The graph failed structural verification (`temco_ir::verify`).
    InvalidGraph {
        /// The violations, human-readable.
        violations: Vec<String>,
    },
    /// The static allocation plan failed its own validation — a bug in the
    /// allocator, surfaced rather than executed on.
    InvalidPlan {
        /// The violations, human-readable.
        violations: Vec<String>,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InputCountMismatch { expected, got } => {
                write!(f, "expected {expected} input tensors, got {got}")
            }
            ExecError::InputShapeMismatch { index, name, expected, got } => {
                write!(f, "input {index} ('{name}') has shape {got:?}, expected {expected:?}")
            }
            ExecError::UnregisteredInput { node } => {
                write!(f, "input node '{node}' is not registered in Graph::inputs")
            }
            ExecError::ShapesNotInferred { value } => {
                write!(f, "value '{value}' has no shape — run Graph::infer_shapes first")
            }
            ExecError::ZeroSizedValue { value, shape } => {
                write!(
                    f,
                    "value '{value}' has shape {shape:?} with zero elements — \
                     input resolution too small for this graph's windows"
                )
            }
            ExecError::InvalidGraph { violations } => {
                write!(f, "graph verification failed: {}", violations.join("; "))
            }
            ExecError::InvalidPlan { violations } => {
                write!(f, "allocation plan invalid: {}", violations.join("; "))
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The result of one inference.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Output tensors, in `Graph::outputs` order.
    pub outputs: Vec<Tensor>,
    /// The dynamic memory tracker (timeline, peak).
    pub memory: MemoryTracker,
    /// Per-node wall time in seconds (empty unless requested).
    pub node_times: Vec<f64>,
    /// Total wall time of the inference in seconds.
    pub total_time: f64,
    /// Planned slab bytes — value region plus the kernel-scratch arena
    /// (0 in [`ExecMode::PerNode`]).
    pub slab_bytes: usize,
    /// Bytes of the slab's kernel-scratch arena (0 in
    /// [`ExecMode::PerNode`], where kernels use thread-local scratch).
    pub scratch_bytes: usize,
    /// Dynamic high-water mark: the furthest slab byte any materialized
    /// tensor or kernel scratch reached (0 in [`ExecMode::PerNode`]).
    /// Equals `slab_bytes` iff the executor stayed inside the plan.
    pub slab_high_water: usize,
    /// Per-node slab touch: for schedule step `i`, the furthest slab byte
    /// node `i`'s kernel reached (output end, operand ends, scratch end).
    /// `slab_high_water` is the running max of this sequence; the profiler
    /// cross-checks its static attribution against it. Empty in
    /// [`ExecMode::PerNode`].
    pub node_high_water: Vec<usize>,
}

/// Run the graph on `inputs` (one tensor per `Graph::inputs` entry).
///
/// Validates graph structure, shapes, and inputs up front and returns a
/// typed [`ExecError`] instead of panicking. See the module docs for the
/// two [`ExecMode`]s; both record the identical liveness-driven memory
/// timeline, which the static planner reproduces exactly.
pub fn execute(g: &Graph, inputs: &[Tensor], opts: ExecOptions) -> Result<ExecResult, ExecError> {
    validate(g, inputs)?;
    let lv = liveness(g);
    match opts.mode {
        ExecMode::Slab => execute_slab(g, inputs, opts, &lv),
        ExecMode::PerNode => Ok(execute_per_node(g, inputs, opts, &lv)),
    }
}

fn validate(g: &Graph, inputs: &[Tensor]) -> Result<(), ExecError> {
    let violations = temco_ir::verify(g);
    if !violations.is_empty() {
        return Err(ExecError::InvalidGraph { violations });
    }
    for node in &g.nodes {
        if g.values[node.output.0 as usize].shape.is_none() {
            return Err(ExecError::ShapesNotInferred {
                value: g.values[node.output.0 as usize].name.clone(),
            });
        }
        if g.value_numel(node.output) == 0 {
            return Err(ExecError::ZeroSizedValue {
                value: g.values[node.output.0 as usize].name.clone(),
                shape: g.shape(node.output).to_vec(),
            });
        }
        if matches!(node.op, Op::Input) && !g.inputs.contains(&node.output) {
            return Err(ExecError::UnregisteredInput { node: node.name.clone() });
        }
    }
    if inputs.len() != g.inputs.len() {
        return Err(ExecError::InputCountMismatch { expected: g.inputs.len(), got: inputs.len() });
    }
    for (i, (v, t)) in g.inputs.iter().zip(inputs).enumerate() {
        if g.shape(*v) != t.shape() {
            return Err(ExecError::InputShapeMismatch {
                index: i,
                name: g.values[v.0 as usize].name.clone(),
                expected: g.shape(*v).to_vec(),
                got: t.shape().to_vec(),
            });
        }
    }
    Ok(())
}

const F32: usize = std::mem::size_of::<f32>();

/// Slab-mode execution: one allocation, kernels write into planned offsets.
fn execute_slab(
    g: &Graph,
    inputs: &[Tensor],
    opts: ExecOptions,
    lv: &Liveness,
) -> Result<ExecResult, ExecError> {
    let plan = plan_allocation_with_mode(g, lv, opts.alias);
    let violations = plan.validate();
    if !violations.is_empty() {
        return Err(ExecError::InvalidPlan { violations });
    }

    let mut slab = vec![0.0f32; plan.slab_bytes / F32];
    let slab_ptr = slab.as_mut_ptr();
    let mut mem = MemoryTracker::new();
    let mut high_water = 0usize;
    let mut node_high_water = Vec::with_capacity(g.nodes.len());
    let mut node_times = Vec::new();
    let start = Instant::now();

    for (i, node) in g.nodes.iter().enumerate() {
        let t0 = opts.time_nodes.then(Instant::now);
        let out_off =
            plan.offset(node.output).expect("every node output is materialized — liveness bug")
                / F32;
        let out_len = g.value_numel(node.output);

        // SAFETY: the slab outlives the loop, the plan was validated above,
        // and the dispatch honors the plan's aliasing discipline.
        unsafe { run_node_on_slab(g, &plan, i, slab_ptr, inputs) };

        let out_bytes = out_len * F32;
        mem.alloc(out_bytes, i);
        // Furthest slab byte this node's kernel touches: output end,
        // operand ends, scratch end. Operand regions were already counted
        // when their producers ran, so folding them in here leaves the
        // running max — and therefore `slab_high_water` — unchanged.
        let mut node_hw = out_off * F32 + out_bytes;
        for v in &node.inputs {
            if let Some(off) = plan.offset(*v) {
                node_hw = node_hw.max(off + g.value_bytes(*v));
            }
        }
        if plan.node_scratch[i] > 0 {
            node_hw = node_hw.max(plan.scratch_offset + plan.node_scratch[i]);
        }
        node_high_water.push(node_hw);
        high_water = high_water.max(node_hw);
        // Sample while the node's operands are still allocated — this is the
        // instant the planner's live-set model describes (inputs + output of
        // the running layer are simultaneously resident).
        mem.sample(i, node.name.clone());
        // Every operand whose last use this node was is freed (its slab
        // region becomes reusable; the tracker mirrors the framework model).
        // A value may appear several times in one operand list (e.g.
        // `concat(a, a)`) — free it once.
        for (j, v) in node.inputs.iter().enumerate() {
            if node.inputs[..j].contains(v) {
                continue;
            }
            if lv.end[v.0 as usize] == i && !g.outputs.contains(v) {
                mem.free(g.value_bytes(*v));
            }
        }
        // A value never used at all (and not an output) dies immediately.
        if lv.end[node.output.0 as usize] == i && !g.outputs.contains(&node.output) {
            mem.free(out_bytes);
        }
        if let Some(t0) = t0 {
            node_times.push(t0.elapsed().as_secs_f64());
        }
    }

    let outputs = g
        .outputs
        .iter()
        .map(|v| {
            let off = plan.offset(*v).expect("graph output was not computed") / F32;
            let len = g.value_numel(*v);
            Tensor::from_vec(g.shape(*v), slab[off..off + len].to_vec())
        })
        .collect();
    Ok(ExecResult {
        outputs,
        memory: mem,
        node_times,
        total_time: start.elapsed().as_secs_f64(),
        slab_bytes: plan.slab_bytes,
        scratch_bytes: plan.scratch_bytes,
        slab_high_water: high_water,
        node_high_water,
    })
}

/// Run one scheduled node's kernel on the slab, honoring the plan's
/// alias-resolved execution mode. This is the single dispatch both the
/// one-shot executor and the reusable [`crate::engine::Engine`] use, so
/// the aliasing discipline cannot drift between them:
///
/// * [`NodeExec::InPlace`] — the output reuses one dying operand's bytes.
///   Exactly **one** `&mut` is carved over the shared region (never a
///   `&` view of the aliased operand alongside it), and the kernel runs
///   through its `_inplace` entry point.
/// * [`NodeExec::Overlap`] — a monotone pool reads and writes the *same*
///   buffer (the DMO mode); the buffer spans the input's extent and the
///   output lands in its prefix.
/// * [`NodeExec::ConcatAliased`] — embedded operands were produced in
///   place inside the concat region and need no work at all; the rare
///   non-embedded operand is copied with `ptr::copy` (memmove semantics —
///   a nested embedding can legally place the source *inside* the output
///   extent).
/// * [`NodeExec::Standard`] — the classic disjoint-region dispatch through
///   [`eval_into`].
///
/// # Safety
/// `slab_ptr` must point at a live allocation of at least
/// `plan.slab_bytes` bytes that nothing else aliases for the duration of
/// the call, and `plan` must be a validated plan for `g` (its `validate()`
/// returned no violations).
pub(crate) unsafe fn run_node_on_slab(
    g: &Graph,
    plan: &AllocationPlan,
    i: usize,
    slab_ptr: *mut f32,
    inputs: &[Tensor],
) {
    let node = &g.nodes[i];
    let out_off =
        plan.offset(node.output).expect("every node output is materialized — liveness bug") / F32;
    let out_len = g.value_numel(node.output);

    match &plan.node_exec[i] {
        NodeExec::InPlace { operand } => {
            // One mutable slice over the shared bytes; the aliased operand
            // is never viewed separately.
            let buf: &mut [f32] =
                unsafe { std::slice::from_raw_parts_mut(slab_ptr.add(out_off), out_len) };
            match &node.op {
                Op::Activation(kind) => kind.forward_inplace(buf),
                Op::Affine { scale, bias } => {
                    let s = g.weight(*scale).data();
                    let b = g.weight(*bias).data();
                    let sh = g.shape(node.output);
                    let (n, c) = (sh[0], sh[1]);
                    let plane = sh[2] * sh[3];
                    for bi in 0..n {
                        for ci in 0..c {
                            let off = (bi * c + ci) * plane;
                            for x in &mut buf[off..off + plane] {
                                *x = *x * s[ci] + b[ci];
                            }
                        }
                    }
                }
                // `buf` already holds the in-place operand; accumulate the
                // rest on top.
                Op::Add => add_n_assign_iter(
                    node.inputs.iter().enumerate().filter(|&(k, _)| k != *operand).map(
                        |(_, &v)| {
                            let off = plan.offset(v).expect("operand not materialized") / F32;
                            unsafe {
                                std::slice::from_raw_parts(slab_ptr.add(off), g.value_numel(v))
                            }
                        },
                    ),
                    buf,
                ),
                // A flatten over its own bytes is the pure reinterpretation
                // it always was mathematically: zero work, zero movement.
                Op::Flatten => {}
                // Rows are the *last* dimension — `shape[1]` here was the
                // softmax-axis bug: correct for rank 2, silently wrong for
                // the rank-3/4 values attention produces.
                Op::Softmax => softmax_lastdim_inplace(
                    buf,
                    *g.shape(node.output).last().expect("softmax output has rank >= 2"),
                ),
                Op::LayerNorm { scale, bias, eps } => {
                    layer_norm_inplace(buf, g.weight(*scale).data(), g.weight(*bias).data(), *eps)
                }
                other => unreachable!("op {other:?} has no in-place mode"),
            }
        }
        NodeExec::Overlap => {
            let v = node.inputs[0];
            let in_off = plan.offset(v).expect("operand not materialized") / F32;
            debug_assert_eq!(in_off, out_off, "overlap mode writes its input's prefix");
            let sh = g.shape(v);
            let buf: &mut [f32] =
                unsafe { std::slice::from_raw_parts_mut(slab_ptr.add(in_off), g.value_numel(v)) };
            match &node.op {
                Op::Pool { kind: PoolKind::Max, kernel, stride } => {
                    max_pool2d_inplace(buf, sh[0], sh[1], sh[2], sh[3], *kernel, *stride)
                }
                Op::Pool { kind: PoolKind::Avg, kernel, stride } => {
                    avg_pool2d_inplace(buf, sh[0], sh[1], sh[2], sh[3], *kernel, *stride)
                }
                Op::GlobalAvgPool => global_avg_pool_inplace(buf, sh[0], sh[1], sh[2], sh[3]),
                other => unreachable!("op {other:?} has no overlap mode"),
            }
        }
        NodeExec::ConcatAliased { copy } => {
            // Embedded operands already live at their slots; copy the rest.
            // Aliased concats only exist at batch 1, so each operand's slot
            // is one contiguous channel slice of the output.
            let oshape = g.shape(node.output);
            debug_assert_eq!(oshape[0], 1, "aliased concat implies batch 1");
            let plane: usize = oshape[2..].iter().product();
            let mut c_off = 0usize;
            for (j, &v) in node.inputs.iter().enumerate() {
                let c = g.shape(v)[1];
                if copy[j] {
                    let src = plan.offset(v).expect("operand not materialized") / F32;
                    unsafe {
                        std::ptr::copy(
                            slab_ptr.add(src),
                            slab_ptr.add(out_off + c_off * plane),
                            c * plane,
                        )
                    };
                }
                c_off += c;
            }
        }
        NodeExec::Standard => {
            // The plan guarantees the output region is disjoint from every
            // operand region (they are simultaneously live at step `i` in
            // different alias classes, or in disjoint slices of one), so
            // carving one `&mut` and several `&` views out of the slab is
            // sound; `plan.validate()` checked it for this very plan.
            let out: &mut [f32] =
                unsafe { std::slice::from_raw_parts_mut(slab_ptr.add(out_off), out_len) };
            match &node.op {
                // Inputs are matched by their position in `Graph::inputs`,
                // not by schedule order — rescheduling passes may move
                // input nodes.
                Op::Input => {
                    let pos = g
                        .inputs
                        .iter()
                        .position(|v| *v == node.output)
                        .expect("checked by validate()");
                    out.copy_from_slice(inputs[pos].data());
                }
                other => {
                    let view = |v: ValueId| -> TensorView<'_> {
                        let off =
                            plan.offset(v).expect("operand not materialized — liveness bug") / F32;
                        let len = g.value_numel(v);
                        debug_assert!(
                            out_off + out_len <= off || off + len <= out_off,
                            "plan aliased node '{}' output with an operand",
                            node.name
                        );
                        unsafe {
                            TensorView::new(
                                g.shape(v),
                                std::slice::from_raw_parts(slab_ptr.add(off), len),
                            )
                        }
                    };
                    // The node's kernel scratch is the planner-reserved
                    // arena past the value region — disjoint from every
                    // value view by construction. The reservation was sized
                    // for exactly the schedule this node dispatches with.
                    debug_assert_eq!(
                        plan.node_scratch[i],
                        crate::scratch::node_scratch_bytes(g, node, plan.node_schedule[i]),
                        "node '{}' scratch reservation disagrees with its schedule",
                        node.name
                    );
                    let scratch_f = plan.node_scratch[i] / F32;
                    let scratch: &mut [f32] = if scratch_f == 0 {
                        &mut []
                    } else {
                        unsafe {
                            std::slice::from_raw_parts_mut(
                                slab_ptr.add(plan.scratch_offset / F32),
                                scratch_f,
                            )
                        }
                    };
                    eval_into(g, other, &node.inputs, &view, out, scratch, plan.node_schedule[i]);
                }
            }
        }
    }
}

/// Dispatch one node's kernel through its `_into` entry point. Kernels that
/// need working memory receive `scratch` — the planner-reserved arena —
/// so the hot path performs no allocation at all (the `Vec`s that used to
/// gather `Add`/`Concat` operands are gone too: those kernels take
/// cloneable iterators over the slab views). `sched` is the plan's kernel
/// schedule for this node; `scratch` must have been sized for it.
pub(crate) fn eval_into<'a>(
    g: &Graph,
    op: &Op,
    inputs: &[ValueId],
    view: &dyn Fn(ValueId) -> TensorView<'a>,
    out: &mut [f32],
    scratch: &mut [f32],
    sched: NodeSchedule,
) {
    let arg = |i: usize| view(inputs[i]);
    match op {
        Op::Input => unreachable!("handled by caller"),
        Op::Conv2d(spec) => {
            let p =
                Conv2dParams { stride: spec.stride, padding: spec.padding, groups: spec.groups };
            let bias = spec.bias.map(|b| g.weight(b).data());
            conv2d_into(arg(0), g.weight(spec.weight), bias, &p, out, scratch, sched.gemm());
        }
        Op::ConvTranspose2d { weight, bias, stride } => {
            let bias = bias.map(|b| g.weight(b).data());
            conv_transpose2d_into(
                arg(0),
                g.weight(*weight),
                bias,
                *stride,
                out,
                scratch,
                sched.gemm(),
            );
        }
        Op::Activation(kind) => kind.forward_into(arg(0).data(), out),
        Op::Pool { kind: PoolKind::Max, kernel, stride } => {
            max_pool2d_into(arg(0), *kernel, *stride, out)
        }
        Op::Pool { kind: PoolKind::Avg, kernel, stride } => {
            avg_pool2d_into(arg(0), *kernel, *stride, out)
        }
        Op::GlobalAvgPool => global_avg_pool_into(arg(0), out),
        Op::Affine { scale, bias } => {
            let s = g.weight(*scale).data();
            let b = g.weight(*bias).data();
            let x = arg(0);
            let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
            let plane = h * w;
            let data = x.data();
            for bi in 0..n {
                for ci in 0..c {
                    let off = (bi * c + ci) * plane;
                    for (o, &v) in out[off..off + plane].iter_mut().zip(&data[off..off + plane]) {
                        *o = v * s[ci] + b[ci];
                    }
                }
            }
        }
        // n-ary Add sums every operand directly into the output slot — the
        // chained binary adds of the per-node path (and their hidden
        // intermediates) do not exist here.
        Op::Add => add_n_into_iter(inputs.iter().map(|&v| view(v).data()), out),
        Op::Concat => concat_channels_into_iter(inputs.iter().map(|&v| view(v)), out),
        Op::Linear { weight, bias } => {
            let bias = bias.map(|b| g.weight(b).data());
            linear_into(arg(0), g.weight(*weight), bias, out, scratch, sched.gemm());
        }
        // A flatten is a pure reinterpretation; in slab mode it degenerates
        // to one copy between the operand's region and the output's.
        Op::Flatten => out.copy_from_slice(arg(0).data()),
        Op::Softmax => softmax_lastdim_into(arg(0), out),
        Op::MatMul { transpose_a, transpose_b } => {
            matmul_into(arg(0), arg(1), *transpose_a, *transpose_b, out, scratch, sched.gemm())
        }
        Op::LayerNorm { scale, bias, eps } => {
            layer_norm_into(arg(0), g.weight(*scale).data(), g.weight(*bias).data(), *eps, out)
        }
        Op::SplitHeads { heads } => split_heads_into(arg(0), *heads, out),
        Op::MergeHeads { heads } => merge_heads_into(arg(0), *heads, out),
        Op::Fused(spec) => fused_forward_into(
            arg(0),
            g.weight(spec.lconv_w),
            spec.lconv_b.map(|b| g.weight(b).data()),
            spec.act,
            spec.pool,
            spec.fconv.as_ref().map(|fc| g.weight(fc.weight)),
            spec.fconv.as_ref().and_then(|fc| fc.bias).map(|b| g.weight(b).data()),
            out,
            scratch,
            sched.fused(),
        ),
    }
}

/// Per-node (framework baseline) execution: allocate each output when its
/// layer runs, free inputs after their last consumer (Section 2.2).
fn execute_per_node(g: &Graph, inputs: &[Tensor], opts: ExecOptions, lv: &Liveness) -> ExecResult {
    let n_values = g.values.len();
    let mut slots: Vec<Option<Tensor>> = vec![None; n_values];
    let mut mem = MemoryTracker::new();
    let mut node_times = Vec::new();
    let start = Instant::now();

    for (i, node) in g.nodes.iter().enumerate() {
        let t0 = opts.time_nodes.then(Instant::now);
        let out = match &node.op {
            Op::Input => {
                let pos =
                    g.inputs.iter().position(|v| *v == node.output).expect("checked by validate()");
                inputs[pos].clone()
            }
            other => eval(g, other, &node.inputs, &slots),
        };
        mem.alloc(out.bytes(), i);
        slots[node.output.0 as usize] = Some(out);
        mem.sample(i, node.name.clone());
        for v in &node.inputs {
            if lv.end[v.0 as usize] == i && !g.outputs.contains(v) {
                if let Some(t) = slots[v.0 as usize].take() {
                    mem.free(t.bytes());
                }
            }
        }
        if lv.end[node.output.0 as usize] == i && !g.outputs.contains(&node.output) {
            if let Some(t) = slots[node.output.0 as usize].take() {
                mem.free(t.bytes());
            }
        }
        if let Some(t0) = t0 {
            node_times.push(t0.elapsed().as_secs_f64());
        }
    }

    let outputs = g
        .outputs
        .iter()
        .map(|v| slots[v.0 as usize].clone().expect("graph output was not computed"))
        .collect();
    ExecResult {
        outputs,
        memory: mem,
        node_times,
        total_time: start.elapsed().as_secs_f64(),
        slab_bytes: 0,
        scratch_bytes: 0,
        slab_high_water: 0,
        node_high_water: Vec::new(),
    }
}

fn eval(g: &Graph, op: &Op, inputs: &[ValueId], slots: &[Option<Tensor>]) -> Tensor {
    let arg = |i: usize| -> &Tensor {
        slots[inputs[i].0 as usize].as_ref().expect("operand freed before use — liveness bug")
    };
    match op {
        Op::Input => unreachable!("handled by caller"),
        Op::Conv2d(spec) => {
            let p =
                Conv2dParams { stride: spec.stride, padding: spec.padding, groups: spec.groups };
            let bias = spec.bias.map(|b| g.weight(b).data());
            conv2d(arg(0), g.weight(spec.weight), bias, &p)
        }
        Op::ConvTranspose2d { weight, bias, stride } => {
            let bias = bias.map(|b| g.weight(b).data());
            conv_transpose2d(arg(0), g.weight(*weight), bias, *stride)
        }
        Op::Activation(kind) => kind.forward(arg(0)),
        Op::Pool { kind: PoolKind::Max, kernel, stride } => max_pool2d(arg(0), *kernel, *stride),
        Op::Pool { kind: PoolKind::Avg, kernel, stride } => avg_pool2d(arg(0), *kernel, *stride),
        Op::GlobalAvgPool => global_avg_pool(arg(0)),
        Op::Affine { scale, bias } => {
            let s = g.weight(*scale).data();
            let b = g.weight(*bias).data();
            let x = arg(0);
            let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
            let mut out = x.clone();
            let plane = h * w;
            for bi in 0..n {
                for ci in 0..c {
                    let off = (bi * c + ci) * plane;
                    for v in &mut out.data_mut()[off..off + plane] {
                        *v = *v * s[ci] + b[ci];
                    }
                }
            }
            out
        }
        Op::Add => {
            let mut acc = add(arg(0), arg(1));
            for i in 2..inputs.len() {
                acc = add(&acc, arg(i));
            }
            acc
        }
        Op::Concat => {
            let refs: Vec<&Tensor> = (0..inputs.len()).map(arg).collect();
            concat_channels(&refs)
        }
        Op::Linear { weight, bias } => {
            let bias = bias.map(|b| g.weight(b).data());
            linear(arg(0), g.weight(*weight), bias)
        }
        Op::Flatten => {
            let x = arg(0);
            let n = x.dim(0);
            let rest: usize = x.shape()[1..].iter().product();
            x.reshape(&[n, rest])
        }
        Op::Softmax => softmax_lastdim(arg(0)),
        Op::MatMul { transpose_a, transpose_b } => {
            matmul(arg(0), arg(1), *transpose_a, *transpose_b)
        }
        Op::LayerNorm { scale, bias, eps } => {
            layer_norm(arg(0), g.weight(*scale).data(), g.weight(*bias).data(), *eps)
        }
        Op::SplitHeads { heads } => split_heads(arg(0), *heads),
        Op::MergeHeads { heads } => merge_heads(arg(0), *heads),
        Op::Fused(spec) => fused_forward(
            arg(0),
            g.weight(spec.lconv_w),
            spec.lconv_b.map(|b| g.weight(b).data()),
            spec.act,
            spec.pool,
            spec.fconv.as_ref().map(|fc| g.weight(fc.weight)),
            spec.fconv.as_ref().and_then(|fc| fc.bias).map(|b| g.weight(b).data()),
            FusedSchedule::DEFAULT,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_ir::Graph;
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

    fn run(g: &Graph, inputs: &[Tensor], opts: ExecOptions) -> ExecResult {
        execute(g, inputs, opts).expect("execution failed")
    }

    #[test]
    fn executes_end_to_end_with_correct_shapes() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 3);
        let res = run(&g, &[x], ExecOptions::default());
        assert_eq!(res.outputs.len(), 1);
        assert_eq!(res.outputs[0].shape(), &[2, 5]);
        // softmax rows sum to 1
        for r in 0..2 {
            let sum: f32 = res.outputs[0].data()[r * 5..(r + 1) * 5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn slab_and_per_node_modes_agree_numerically() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 9);
        let slab = run(&g, std::slice::from_ref(&x), ExecOptions::default());
        let per_node = run(&g, &[x], ExecOptions { mode: ExecMode::PerNode, ..Default::default() });
        assert!(slab.outputs[0].all_close(&per_node.outputs[0], 1e-5));
        // Identical liveness timeline in both modes.
        assert_eq!(slab.memory.timeline(), per_node.memory.timeline());
    }

    #[test]
    fn slab_high_water_equals_planned_slab() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 3);
        let res = run(&g, &[x], ExecOptions::default());
        assert!(res.slab_bytes > 0);
        assert_eq!(res.slab_high_water, res.slab_bytes);
        let plan = crate::alloc::plan_allocation(&g);
        assert_eq!(res.slab_bytes, plan.slab_bytes);
        // Per-node touch: one entry per node, running max reaches the
        // plan's peak, and at least one node individually hits it.
        assert_eq!(res.node_high_water.len(), g.nodes.len());
        assert_eq!(res.node_high_water.iter().copied().max(), Some(res.slab_high_water));
    }

    #[test]
    fn dynamic_peak_matches_static_plan() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 3);
        let res = run(&g, &[x], ExecOptions::default());
        let plan = crate::planner::plan_memory(&g);
        assert_eq!(res.memory.peak_bytes(), plan.peak_internal_bytes);
        // Full timeline agreement, step by step.
        for (ev, st) in res.memory.timeline().iter().zip(&plan.timeline) {
            assert_eq!(ev.live_bytes, st.live_bytes, "step {} ({})", st.step, st.label);
        }
    }

    #[test]
    fn skip_connection_values_stay_alive() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4], "x");
        let c1 = g.conv2d(x, Tensor::randn(&[2, 2, 3, 3], 4), None, 1, 1, "c1");
        let r = g.relu(c1, "r");
        let c2 = g.conv2d(r, Tensor::randn(&[2, 2, 3, 3], 5), None, 1, 1, "c2");
        let s = g.add(&[x, c2], "skip");
        g.mark_output(s);
        g.infer_shapes();
        let res = run(&g, &[Tensor::randn(&[1, 2, 4, 4], 6)], ExecOptions::default());
        let plan = crate::planner::plan_memory(&g);
        assert_eq!(res.memory.peak_bytes(), plan.peak_internal_bytes);
        assert_eq!(res.outputs[0].shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn all_memory_is_freed_except_outputs() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 7);
        let res = run(&g, &[x], ExecOptions::default());
        let out_bytes: usize = res.outputs.iter().map(Tensor::bytes).sum();
        // After the last node, only values still live (outputs + anything
        // consumed by the last node) remain; the softmax input dies at the
        // last step, so live == outputs.
        assert_eq!(res.memory.live_bytes(), out_bytes);
    }

    #[test]
    fn node_timing_is_recorded_when_requested() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 8);
        let res = run(&g, &[x], ExecOptions { time_nodes: true, ..Default::default() });
        assert_eq!(res.node_times.len(), g.nodes.len());
        assert!(res.total_time > 0.0);
    }

    #[test]
    fn multi_input_multi_output_graphs_execute() {
        let mut g = Graph::new();
        let a = g.input(&[1, 2, 4, 4], "a");
        let b = g.input(&[1, 2, 4, 4], "b");
        let s = g.add(&[a, b], "sum");
        let cat = g.concat(&[a, b], "cat");
        g.mark_output(s);
        g.mark_output(cat);
        g.infer_shapes();
        let ta = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32);
        let tb = Tensor::from_fn(&[1, 2, 4, 4], |_| 1.0);
        let res = run(&g, &[ta, tb], ExecOptions::default());
        assert_eq!(res.outputs.len(), 2);
        assert_eq!(res.outputs[0].at4(0, 0, 0, 1), 2.0); // 1 + 1
        assert_eq!(res.outputs[1].shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn inputs_are_matched_by_registration_not_schedule_order() {
        // Build, then reschedule so the input nodes may swap positions: the
        // executor must still bind the first caller tensor to the first
        // registered graph input.
        let mut g = Graph::new();
        let a = g.input(&[1, 1, 2, 2], "a");
        let b = g.input(&[1, 1, 2, 2], "b");
        let r = g.relu(b, "rb");
        let cat = g.concat(&[r, a], "cat");
        g.mark_output(cat);
        g.infer_shapes();
        let order = temco_ir::memory_aware_order_ranked(&g);
        temco_ir::apply_order(&mut g, &order);
        let ta = Tensor::from_fn(&[1, 1, 2, 2], |_| 10.0);
        let tb = Tensor::from_fn(&[1, 1, 2, 2], |_| -5.0);
        let res = run(&g, &[ta, tb], ExecOptions::default());
        // channel 0 = relu(b) = 0.0, channel 1 = a = 10.0
        assert_eq!(res.outputs[0].at4(0, 0, 0, 0), 0.0);
        assert_eq!(res.outputs[0].at4(0, 1, 0, 0), 10.0);
    }

    #[test]
    fn affine_applies_scale_and_bias_per_channel() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 2, 2], "x");
        let a = g.affine(
            x,
            Tensor::from_vec(&[2], vec![2.0, 3.0]),
            Tensor::from_vec(&[2], vec![1.0, -1.0]),
            "bn",
        );
        g.mark_output(a);
        g.infer_shapes();
        let input = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let res = run(&g, &[input], ExecOptions::default());
        let out = &res.outputs[0];
        assert_eq!(out.at4(0, 0, 0, 0), 1.0); // 0*2+1
        assert_eq!(out.at4(0, 1, 0, 0), 11.0); // 4*3-1
    }

    #[test]
    fn wrong_input_count_is_a_typed_error() {
        let g = small_cnn();
        let err = execute(&g, &[], ExecOptions::default()).unwrap_err();
        assert_eq!(err, ExecError::InputCountMismatch { expected: 1, got: 0 });
    }

    #[test]
    fn wrong_input_shape_is_a_typed_error() {
        let g = small_cnn();
        let x = Tensor::zeros(&[2, 3, 9, 9]);
        match execute(&g, &[x], ExecOptions::default()).unwrap_err() {
            ExecError::InputShapeMismatch { index: 0, name, expected, got } => {
                assert_eq!(name, "x");
                assert_eq!(expected, vec![2, 3, 8, 8]);
                assert_eq!(got, vec![2, 3, 9, 9]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn uninferred_shapes_are_a_typed_error() {
        let mut g = Graph::new();
        let x = g.input(&[1, 1, 2, 2], "x");
        let r = g.relu(x, "r");
        g.mark_output(r);
        // No infer_shapes(): the input node carries a declared shape but the
        // relu output does not.
        let err = execute(&g, &[Tensor::zeros(&[1, 1, 2, 2])], ExecOptions::default()).unwrap_err();
        assert!(matches!(err, ExecError::ShapesNotInferred { .. }));
    }

    #[test]
    fn zero_sized_values_are_a_typed_error() {
        // A 2×2 unpadded pool on a 1×1 input collapses the spatial dims to
        // zero — the executor must refuse up front, not panic in a kernel.
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 1, 1], "x");
        let p = g.max_pool(x, 2, 2, "p");
        g.mark_output(p);
        g.infer_shapes();
        let err = execute(&g, &[Tensor::zeros(&[1, 2, 1, 1])], ExecOptions::default()).unwrap_err();
        match err {
            ExecError::ZeroSizedValue { value, shape } => {
                assert_eq!(value, "p.out");
                assert_eq!(shape, vec![1, 2, 0, 0]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn malformed_graphs_are_a_typed_error() {
        let mut g = Graph::new();
        let x = g.input(&[1, 1, 2, 2], "x");
        let r = g.relu(x, "r");
        g.mark_output(r);
        g.infer_shapes();
        // Corrupt the schedule: relu now precedes its operand's definition.
        g.nodes.swap(0, 1);
        let err = execute(&g, &[Tensor::zeros(&[1, 1, 2, 2])], ExecOptions::default()).unwrap_err();
        assert!(matches!(err, ExecError::InvalidGraph { .. }));
    }

    #[test]
    fn error_messages_are_human_readable() {
        let e = ExecError::InputCountMismatch { expected: 2, got: 1 };
        assert_eq!(e.to_string(), "expected 2 input tensors, got 1");
        let e = ExecError::ShapesNotInferred { value: "r1".into() };
        assert!(e.to_string().contains("infer_shapes"));
    }
}
