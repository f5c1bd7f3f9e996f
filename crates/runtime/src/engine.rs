//! Plan once, run many: the one code path that executes a plan on a slab.
//!
//! [`crate::executor::execute`] in [`ExecMode::Slab`](crate::ExecMode::Slab)
//! is a single [`Engine::run`] on a freshly compiled graph; the server and
//! the benchmark keep the engine and run it again and again. The deployment
//! path is split along the mutability boundary:
//!
//! * [`CompiledGraph`] — everything immutable and shareable: the verified
//!   graph (weights included) and its allocation plan (values **and**
//!   kernel scratch). Wrapped in an `Arc`, one `CompiledGraph` backs any
//!   number of concurrent workers; combined with the IR's copy-on-write
//!   weight store, N workers hold **one** copy of the model's constants.
//! * [`Engine`] — the per-worker mutable state: a private slab and output
//!   tensors over a shared `CompiledGraph`. A steady-state [`Engine::run`]
//!   performs **zero** heap allocations: every kernel writes into planned
//!   slab offsets and draws working memory from the planner-reserved
//!   scratch arena. The integration tests assert this with a counting
//!   global allocator across the whole model zoo, and again with several
//!   engines running concurrently over one `CompiledGraph`.
//!
//! An engine runs one of two ways: [`Engine::run`], or
//! [`Engine::run_recorded`], which also writes a `RUN` span and one `NODE`
//! span per kernel into a caller-owned [`Recorder`]. Profiling reads that
//! ring through [`crate::profile`]; a serving worker runs every batch this
//! way into its own ring and publishes the ring to the server's flight
//! recorder.

use std::sync::Arc;

use temco_ir::{liveness, Graph, Op, PoolKind, ValueId};
use temco_obs::{kind, Recorder, NO_NODE, NO_TRACE};
use temco_tensor::{
    add_n_assign_iter, add_n_into_iter, affine_inplace, affine_into, avg_pool2d_inplace,
    avg_pool2d_into, concat_channels_into_iter, conv2d_into, conv_transpose2d_into,
    global_avg_pool_inplace, global_avg_pool_into, layer_norm_inplace, layer_norm_into,
    linear_into, matmul_into, max_pool2d_inplace, max_pool2d_into, merge_heads_into,
    softmax_lastdim_inplace, softmax_lastdim_into, split_heads_into, Conv2dParams, Tensor,
    TensorView,
};

use crate::alias::{AliasMode, NodeExec};
use crate::alloc::{plan_allocation_with_schedules, AllocationPlan};
use crate::executor::{check_graph, check_inputs, ExecError};
use crate::fused::fused_forward_into;
use crate::schedule::NodeSchedule;

const F32: usize = std::mem::size_of::<f32>();

/// The immutable half of a prepared inference: verified graph + memory
/// plan. Shareable across threads behind an `Arc`; each worker adds only
/// its private [`Engine`] slab.
pub struct CompiledGraph {
    g: Graph,
    plan: AllocationPlan,
}

impl CompiledGraph {
    /// Verify the graph and plan its memory (values + kernel scratch). All
    /// graph-level failure modes surface here, before the first inference.
    pub fn new(g: Graph) -> Result<Self, ExecError> {
        CompiledGraph::with_alias(g, AliasMode::Full, &[])
    }

    /// [`CompiledGraph::new`] with explicit per-node kernel schedules
    /// (indexed by node position; an empty slice or missing tail means the
    /// hand-tuned defaults). This is the dispatch point the autotuner uses:
    /// schedules resolve here, at compile time, so the warm `run` path
    /// stays zero-alloc and schedule-lookup-free.
    pub fn new_with_schedules(g: Graph, schedules: &[NodeSchedule]) -> Result<Self, ExecError> {
        CompiledGraph::with_alias(g, AliasMode::Full, schedules)
    }

    /// The constructor behind both public ones, plus the alias mode that
    /// `execute`'s `ExecOptions::alias` selects (the alias-free A/B plan).
    pub(crate) fn with_alias(
        g: Graph,
        alias: AliasMode,
        schedules: &[NodeSchedule],
    ) -> Result<Self, ExecError> {
        check_graph(&g)?;
        let lv = liveness(&g);
        let plan = plan_allocation_with_schedules(&g, &lv, alias, schedules);
        let violations = plan.validate();
        if !violations.is_empty() {
            return Err(ExecError::InvalidPlan { violations });
        }
        Ok(CompiledGraph { g, plan })
    }

    /// The verified graph this compilation runs.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The allocation plan.
    pub fn plan(&self) -> &AllocationPlan {
        &self.plan
    }

    /// Total slab bytes each worker allocates (value region + scratch).
    pub fn slab_bytes(&self) -> usize {
        self.plan.slab_bytes
    }

    /// Bytes of the slab's kernel-scratch arena.
    pub fn scratch_bytes(&self) -> usize {
        self.plan.scratch_bytes
    }
}

/// A graph compiled down to a reusable slab and plan: the per-worker half.
/// Construct with [`Engine::new`] (sole owner) or [`Engine::from_compiled`]
/// (N workers over one shared [`CompiledGraph`]).
pub struct Engine {
    shared: Arc<CompiledGraph>,
    slab: Vec<f32>,
    outputs: Vec<Tensor>,
}

impl Engine {
    /// Verify the graph, plan its memory, and allocate the slab and output
    /// tensors.
    pub fn new(g: Graph) -> Result<Self, ExecError> {
        Ok(Engine::from_compiled(Arc::new(CompiledGraph::new(g)?)))
    }

    /// A fresh engine (private slab + outputs) over an already-compiled
    /// graph. This is the cheap per-worker constructor: no verification,
    /// no planning, no weight copy — just the slab allocation.
    pub fn from_compiled(shared: Arc<CompiledGraph>) -> Self {
        let slab = vec![0.0f32; shared.plan.slab_bytes / F32];
        let outputs = shared.g.outputs.iter().map(|v| Tensor::zeros(shared.g.shape(*v))).collect();
        Engine { shared, slab, outputs }
    }

    /// The shared compilation this engine runs on (clone the `Arc` to
    /// spin up sibling workers).
    pub fn compiled(&self) -> &Arc<CompiledGraph> {
        &self.shared
    }

    /// The graph this engine runs.
    pub fn graph(&self) -> &Graph {
        &self.shared.g
    }

    /// Total slab bytes (value region + kernel-scratch arena) — the only
    /// inference-time memory beyond weights, inputs, and outputs.
    pub fn slab_bytes(&self) -> usize {
        self.shared.plan.slab_bytes
    }

    /// Bytes of the slab's kernel-scratch arena.
    pub fn scratch_bytes(&self) -> usize {
        self.shared.plan.scratch_bytes
    }

    /// The allocation plan the engine runs on.
    pub fn plan(&self) -> &AllocationPlan {
        &self.shared.plan
    }

    /// Run one inference. Returns the output tensors (owned by the engine,
    /// overwritten by the next `run`) in `Graph::outputs` order.
    ///
    /// Heap-allocation-free on success: input validation compares counts
    /// and shapes without building anything (mismatch reports allocate, but
    /// only on the error path), and every kernel runs on slab views with
    /// planner-reserved scratch.
    pub fn run(&mut self, inputs: &[Tensor]) -> Result<&[Tensor], ExecError> {
        self.run_impl(inputs, None)
    }

    /// [`Engine::run`] with span recording: one `RUN` span for the whole
    /// inference plus one `NODE` span per scheduled kernel, untraced,
    /// written into the caller's preallocated [`Recorder`]. Still
    /// allocation-free on success — recording is two `Instant` reads and
    /// four word writes per node into the ring (the zero-alloc integration
    /// tests cover this path, and the serving worker runs every batch
    /// through it into the ring it publishes to the flight recorder). Feed
    /// the recorder to [`crate::profile::engine_report`] or
    /// [`crate::profile::engine_trace_json`] afterwards.
    pub fn run_recorded(
        &mut self,
        inputs: &[Tensor],
        rec: &mut Recorder,
    ) -> Result<&[Tensor], ExecError> {
        self.run_impl(inputs, Some(rec))
    }

    fn run_impl(
        &mut self,
        inputs: &[Tensor],
        mut rec: Option<&mut Recorder>,
    ) -> Result<&[Tensor], ExecError> {
        let g = &self.shared.g;
        check_inputs(g, inputs)?;

        let plan = &self.shared.plan;
        let slab_ptr = self.slab.as_mut_ptr();
        let run_start = rec.as_ref().map_or(0, |r| r.now_ns());
        for i in 0..g.nodes.len() {
            let node_start = rec.as_ref().map_or(0, |r| r.now_ns());
            // SAFETY: the slab outlives the loop and nothing else views it;
            // the plan was validated in `CompiledGraph::with_alias`, and the
            // dispatch honors its aliasing discipline (single `&mut` per
            // in-place region, memmove for aliased concat copies).
            unsafe { run_node_on_slab(g, plan, i, slab_ptr, inputs) };
            if let Some(r) = rec.as_deref_mut() {
                r.span(kind::NODE, i as u32, NO_TRACE, node_start, r.now_ns());
            }
        }

        for (slot, v) in self.outputs.iter_mut().zip(&g.outputs) {
            let off = plan.offset(*v).expect("graph output was not computed") / F32;
            let len = g.value_numel(*v);
            slot.data_mut().copy_from_slice(&self.slab[off..off + len]);
        }
        if let Some(r) = rec {
            r.span(kind::RUN, NO_NODE, NO_TRACE, run_start, r.now_ns());
        }
        Ok(&self.outputs)
    }
}

/// Run one scheduled node's kernel on the slab, honoring the plan's
/// alias-resolved execution mode:
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
unsafe fn run_node_on_slab(
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
                    let sh = g.shape(node.output);
                    affine_inplace(
                        buf,
                        g.weight(*scale).data(),
                        g.weight(*bias).data(),
                        sh[2] * sh[3],
                    )
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
                        .expect("checked by check_graph()");
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
fn eval_into<'a>(
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
            affine_into(arg(0), g.weight(*scale).data(), g.weight(*bias).data(), out)
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn engine_is_reusable_across_inputs() {
        let mut engine = Engine::new(small_cnn()).unwrap();
        let a = Tensor::randn(&[2, 3, 8, 8], 5);
        let b = Tensor::randn(&[2, 3, 8, 8], 6);
        let out_a = engine.run(std::slice::from_ref(&a)).unwrap()[0].clone();
        let out_b = engine.run(std::slice::from_ref(&b)).unwrap()[0].clone();
        let out_a2 = engine.run(std::slice::from_ref(&a)).unwrap();
        assert!(out_a.all_close(&out_a2[0], 0.0));
        assert!(!out_a.all_close(&out_b, 1e-3));
    }

    #[test]
    fn sibling_engines_share_one_compiled_graph() {
        let compiled = Arc::new(CompiledGraph::new(small_cnn()).unwrap());
        let mut a = Engine::from_compiled(compiled.clone());
        let mut b = Engine::from_compiled(compiled.clone());
        let x = Tensor::randn(&[2, 3, 8, 8], 11);
        let ya = a.run(std::slice::from_ref(&x)).unwrap()[0].clone();
        let yb = b.run(std::slice::from_ref(&x)).unwrap();
        assert!(ya.all_close(&yb[0], 0.0));
        assert!(Arc::ptr_eq(a.compiled(), b.compiled()));
        // Weights live once, in the shared graph; the per-worker state is
        // only the slab.
        assert!(a.graph().weights.shares_storage_with(&compiled.graph().weights));
    }
}
