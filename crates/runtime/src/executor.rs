//! The front door for one-shot inference, and the per-node reference
//! executor.
//!
//! [`execute`] runs a graph once in one of two [`ExecMode`]s:
//!
//! * [`ExecMode::Slab`] (default) — the TeMCO deployment model: the graph
//!   is compiled into a [`CompiledGraph`] (verified, and planned into one
//!   slab under `ExecOptions::alias`) and run once on an [`Engine`] — the
//!   same code the server runs.
//! * [`ExecMode::PerNode`] — the framework baseline of the paper's Section
//!   2.2: allocate each output when its layer runs, free operands after
//!   their last consumer. It shares no memory code with the slab path,
//!   which makes it the reference the differential checker and the
//!   benchmark compare against, and its [`MemoryTracker`] is the one
//!   *executed* cross-check of the static planner's live-bytes sweep
//!   ([`crate::planner::plan_memory`]): the tests assert the two timelines
//!   agree step by step on random graphs and on the model zoo.
//!
//! Graph and input validation is written once, here (`check_graph`,
//! `check_inputs`); [`CompiledGraph::new`], `execute` and the per-node
//! path all call it, so every entry point reports the same typed
//! [`ExecError`] for the same malformed case. [`Engine::run`] reports the
//! same errors, and also accepts inputs with fewer samples than the plan's
//! batch.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use temco_ir::{liveness, Graph, Op, PoolKind, ValueId};
use temco_tensor::{
    add, affine, avg_pool2d, concat_channels, conv2d, conv_transpose2d, global_avg_pool,
    layer_norm, linear, matmul, max_pool2d, merge_heads, softmax_lastdim, split_heads,
    Conv2dParams, Tensor,
};

use crate::alias::AliasMode;
use crate::engine::{CompiledGraph, Engine};
use crate::fused::fused_forward;
use crate::memory::MemoryTracker;
use crate::schedule::FusedSchedule;

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
    /// Memory strategy (defaults to [`ExecMode::Slab`]).
    pub mode: ExecMode,
    /// Alias analysis for the slab plan (defaults to [`AliasMode::Full`]);
    /// `Off` reproduces the classic one-interval-per-value plan. The
    /// per-node path does no aliasing and ignores it.
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
    /// The per-node executor's live-bytes timeline and peak. `None` in
    /// [`ExecMode::Slab`], where the plan *is* the allocation: read
    /// [`crate::planner::plan_memory`] or the [`crate::AllocationPlan`].
    pub memory: Option<MemoryTracker>,
    /// Wall time of the inference in seconds (planning excluded).
    pub total_time: f64,
    /// Planned slab bytes — value region plus the kernel-scratch arena
    /// (0 in [`ExecMode::PerNode`]).
    pub slab_bytes: usize,
    /// Bytes of the slab's kernel-scratch arena (0 in
    /// [`ExecMode::PerNode`], where kernels use thread-local scratch).
    pub scratch_bytes: usize,
}

/// Run the graph on `inputs` (one tensor per `Graph::inputs` entry).
///
/// Validates graph structure, shapes, and inputs up front and returns a
/// typed [`ExecError`] instead of panicking. See the module docs for the
/// two [`ExecMode`]s.
pub fn execute(g: &Graph, inputs: &[Tensor], opts: ExecOptions) -> Result<ExecResult, ExecError> {
    match opts.mode {
        ExecMode::Slab => {
            let compiled = CompiledGraph::with_alias(g.clone(), opts.alias, &[])?;
            // One-shot runs take exactly the graph's shapes, as the
            // per-node path does; only a kept engine runs fewer samples.
            check_inputs(g, inputs)?;
            let (slab_bytes, scratch_bytes) = (compiled.slab_bytes(), compiled.scratch_bytes());
            let mut engine = Engine::from_compiled(Arc::new(compiled));
            let start = Instant::now();
            let outputs = engine.run(inputs)?;
            let total_time = start.elapsed().as_secs_f64();
            Ok(ExecResult {
                outputs: outputs.to_vec(),
                memory: None,
                total_time,
                slab_bytes,
                scratch_bytes,
            })
        }
        ExecMode::PerNode => {
            check_graph(g)?;
            check_inputs(g, inputs)?;
            Ok(execute_per_node(g, inputs))
        }
    }
}

/// The graph-level checks every execution path runs before any kernel:
/// the graph verifies, every node output has an inferred, non-empty shape,
/// and every `Input` node is registered in `Graph::inputs`.
pub(crate) fn check_graph(g: &Graph) -> Result<(), ExecError> {
    let violations = temco_ir::verify(g);
    if !violations.is_empty() {
        return Err(ExecError::InvalidGraph { violations });
    }
    for node in &g.nodes {
        let value = &g.values[node.output.0 as usize];
        let Some(shape) = &value.shape else {
            return Err(ExecError::ShapesNotInferred { value: value.name.clone() });
        };
        if shape.iter().product::<usize>() == 0 {
            return Err(ExecError::ZeroSizedValue {
                value: value.name.clone(),
                shape: shape.clone(),
            });
        }
        if matches!(node.op, Op::Input) && !g.inputs.contains(&node.output) {
            return Err(ExecError::UnregisteredInput { node: node.name.clone() });
        }
    }
    Ok(())
}

/// The caller's tensors match `Graph::inputs` in count and shape. Builds
/// nothing on success; only a mismatch report allocates.
pub(crate) fn check_inputs(g: &Graph, inputs: &[Tensor]) -> Result<(), ExecError> {
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

/// Per-node (framework baseline) execution: allocate each output when its
/// layer runs, free inputs after their last consumer (Section 2.2).
fn execute_per_node(g: &Graph, inputs: &[Tensor]) -> ExecResult {
    let lv = liveness(g);
    let mut slots: Vec<Option<Tensor>> = vec![None; g.values.len()];
    let mut mem = MemoryTracker::new();
    let start = Instant::now();

    for (i, node) in g.nodes.iter().enumerate() {
        let out = match &node.op {
            Op::Input => {
                let pos = g
                    .inputs
                    .iter()
                    .position(|v| *v == node.output)
                    .expect("checked by check_graph()");
                inputs[pos].clone()
            }
            other => eval(g, other, &node.inputs, &slots),
        };
        mem.alloc(out.bytes(), i);
        slots[node.output.0 as usize] = Some(out);
        // Sample while the node's operands are still allocated — the
        // instant the planner's live-set model describes (inputs + output
        // of the running layer are simultaneously resident).
        mem.sample(i, node.name.clone());
        for v in &node.inputs {
            if lv.end[v.0 as usize] == i && !g.outputs.contains(v) {
                if let Some(t) = slots[v.0 as usize].take() {
                    mem.free(t.bytes());
                }
            }
        }
        // A value never used at all (and not an output) dies immediately.
        if lv.end[node.output.0 as usize] == i && !g.outputs.contains(&node.output) {
            if let Some(t) = slots[node.output.0 as usize].take() {
                mem.free(t.bytes());
            }
        }
    }

    let outputs = g
        .outputs
        .iter()
        .map(|v| slots[v.0 as usize].clone().expect("graph output was not computed"))
        .collect();
    ExecResult {
        outputs,
        memory: Some(mem),
        total_time: start.elapsed().as_secs_f64(),
        slab_bytes: 0,
        scratch_bytes: 0,
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
            affine(arg(0), g.weight(*scale).data(), g.weight(*bias).data())
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

    const PER_NODE: ExecOptions = ExecOptions { mode: ExecMode::PerNode, alias: AliasMode::Full };

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
        assert!(res.total_time > 0.0);
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
        let per_node = run(&g, &[x], PER_NODE);
        assert!(slab.outputs[0].all_close(&per_node.outputs[0], 1e-5));
        // The slab run reports its plan; only the per-node run tracks.
        assert_eq!(slab.slab_bytes, crate::alloc::plan_allocation(&g).slab_bytes);
        assert!(slab.scratch_bytes > 0);
        assert!(slab.memory.is_none());
        assert_eq!(per_node.slab_bytes, 0);
    }

    #[test]
    fn per_node_tracker_matches_static_plan() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 3);
        let mem = run(&g, &[x], PER_NODE).memory.unwrap();
        let plan = crate::planner::plan_memory(&g);
        assert_eq!(mem.peak_bytes(), plan.peak_internal_bytes);
        // Full timeline agreement, step by step.
        for (ev, st) in mem.timeline().iter().zip(&plan.timeline) {
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
        let res = run(&g, &[Tensor::randn(&[1, 2, 4, 4], 6)], PER_NODE);
        let plan = crate::planner::plan_memory(&g);
        assert_eq!(res.memory.unwrap().peak_bytes(), plan.peak_internal_bytes);
        assert_eq!(res.outputs[0].shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn all_memory_is_freed_except_outputs() {
        let g = small_cnn();
        let x = Tensor::randn(&[2, 3, 8, 8], 7);
        let res = run(&g, &[x], PER_NODE);
        let out_bytes: usize = res.outputs.iter().map(Tensor::bytes).sum();
        // After the last node, only values still live (outputs + anything
        // consumed by the last node) remain; the softmax input dies at the
        // last step, so live == outputs.
        assert_eq!(res.memory.unwrap().live_bytes(), out_bytes);
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
        for opts in [ExecOptions::default(), PER_NODE] {
            let res = run(&g, &[ta.clone(), tb.clone()], opts);
            // channel 0 = relu(b) = 0.0, channel 1 = a = 10.0
            assert_eq!(res.outputs[0].at4(0, 0, 0, 0), 0.0);
            assert_eq!(res.outputs[0].at4(0, 1, 0, 0), 10.0);
        }
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
        for opts in [ExecOptions::default(), PER_NODE] {
            let res = run(&g, std::slice::from_ref(&input), opts);
            let out = &res.outputs[0];
            assert_eq!(out.at4(0, 0, 0, 0), 1.0); // 0*2+1
            assert_eq!(out.at4(0, 1, 0, 0), 11.0); // 4*3-1
        }
    }

    /// Every malformed case, with the one typed error all entry points must
    /// report for it: `execute` in both modes, and `CompiledGraph::new`
    /// followed by `Engine::run`.
    #[test]
    fn malformed_cases_fail_identically_on_every_path() {
        let relu = |infer: bool| {
            let mut g = Graph::new();
            let x = g.input(&[1, 1, 2, 2], "x");
            let r = g.relu(x, "r");
            g.mark_output(r);
            if infer {
                g.infer_shapes();
            }
            g
        };
        let x = || vec![Tensor::zeros(&[1, 1, 2, 2])];

        // Corrupt the schedule: relu now precedes its operand's definition.
        let mut swapped = relu(true);
        swapped.nodes.swap(0, 1);
        let violations = temco_ir::verify(&swapped);
        assert!(!violations.is_empty());
        // The input node exists but the caller has no slot to feed it.
        let mut unregistered = relu(true);
        unregistered.inputs.clear();
        // A 2×2 unpadded pool on a 1×1 input collapses the spatial dims.
        let mut pooled = Graph::new();
        let p_in = pooled.input(&[1, 2, 1, 1], "x");
        let p = pooled.max_pool(p_in, 2, 2, "p");
        pooled.mark_output(p);
        pooled.infer_shapes();

        let cases = [
            (swapped, x(), ExecError::InvalidGraph { violations }),
            // No infer_shapes(): the input node carries a declared shape but
            // the relu output does not.
            (relu(false), x(), ExecError::ShapesNotInferred { value: "r.out".into() }),
            (
                pooled,
                vec![Tensor::zeros(&[1, 2, 1, 1])],
                ExecError::ZeroSizedValue { value: "p.out".into(), shape: vec![1, 2, 0, 0] },
            ),
            (unregistered, vec![], ExecError::UnregisteredInput { node: "x".into() }),
            (relu(true), vec![], ExecError::InputCountMismatch { expected: 1, got: 0 }),
            (
                relu(true),
                vec![Tensor::zeros(&[1, 1, 3, 2])],
                ExecError::InputShapeMismatch {
                    index: 0,
                    name: "x".into(),
                    expected: vec![1, 1, 2, 2],
                    got: vec![1, 1, 3, 2],
                },
            ),
        ];
        for (g, inputs, want) in cases {
            for opts in [ExecOptions::default(), PER_NODE] {
                let got = execute(&g, &inputs, opts).unwrap_err();
                assert_eq!(got, want, "execute in {:?}", opts.mode);
            }
            let got = Engine::new(g).and_then(|mut e| e.run(&inputs).map(|_| ()));
            assert_eq!(got.unwrap_err(), want, "CompiledGraph::new / Engine::run");
        }
    }

    #[test]
    fn error_messages_are_human_readable() {
        let e = ExecError::InputCountMismatch { expected: 2, got: 1 };
        assert_eq!(e.to_string(), "expected 2 input tensors, got 1");
        let e = ExecError::ShapesNotInferred { value: "r1".into() };
        assert!(e.to_string().contains("infer_shapes"));
    }
}
