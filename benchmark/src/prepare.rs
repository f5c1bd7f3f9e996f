//! Set-up shared by the workloads: build a model, compile it, plan it, check
//! the plan — every step a span around one public call into a layer.

use std::sync::Arc;
use std::time::Instant;

use temco::{
    compose_pointwise_convs, decompose, fold_affine_into_conv, fuse_activations,
    merge_sibling_lconvs, optimize_skip_connections, sink_concats, split_concat_conv1x1,
    CompileStats, Compiler, OptLevel,
};
use temco_ir::Graph;
use temco_runtime::CompiledGraph;

use crate::span::{Spans, SETUP_OP};
use crate::workload::Model;

/// The counts that must repeat exactly from one compile of a model to the
/// next: the determinism check compares them, and the exact byte metrics
/// are made of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub nodes_out: usize,
    pub slab_bytes: usize,
    pub weight_bytes: usize,
    pub bytes_moved: usize,
}

impl Counts {
    pub fn of(compiled: &CompiledGraph) -> Counts {
        Counts {
            nodes_out: compiled.graph().nodes.len(),
            slab_bytes: compiled.slab_bytes(),
            weight_bytes: compiled.graph().weight_bytes(),
            bytes_moved: compiled.plan().bytes_moved,
        }
    }
}

/// A model taken through every layer below the engine.
pub struct Prepared {
    /// The `Decomposed`-level graph the correctness reference runs on —
    /// only the pass-by-pass compile produces it.
    pub decomposed: Option<Graph>,
    pub compiled: Arc<CompiledGraph>,
    pub stats: CompileStats,
    pub plan_violations: usize,
}

/// `Compiler::compile`, one public pass at a time, so each pass gets its own
/// span and the graph between decomposition and the TeMCO passes can be kept
/// as the reference. The determinism check holds this to the one-call
/// compiler: both must give the same [`Counts`].
fn compile_by_pass(
    spans: &mut Spans,
    model: &Model,
    source: &Graph,
    op: u64,
) -> (Graph, Graph, CompileStats) {
    let opts = model.compiler_options();
    assert!(!opts.reschedule, "compile_by_pass does not mirror the rescheduling step");
    let level = model.level();
    let finish = |g: &mut Graph| {
        g.gc_weights();
        g.infer_shapes();
        let errs = temco_ir::verify(g);
        assert!(errs.is_empty(), "compiler produced a malformed graph: {errs:?}");
    };

    let mut stats = CompileStats::default();
    let mut g = source.clone();
    g.infer_shapes();
    stats.decompose = spans.scope("core.decompose", op, |_| decompose(&mut g, &opts.decompose));
    let mut decomposed = g.clone();
    finish(&mut decomposed);

    if matches!(level, OptLevel::SkipOpt | OptLevel::SkipOptFusion) {
        stats.skip_opt = spans.scope("core.skipopt", op, |_| {
            optimize_skip_connections(&mut g, &opts.skip_opt, &stats.decompose)
        });
    }
    if matches!(level, OptLevel::Fusion | OptLevel::SkipOptFusion) {
        spans.scope("core.transform", op, |_| {
            if opts.merge_lconvs {
                stats.transform.lconvs_merged = merge_sibling_lconvs(&mut g);
            }
            stats.transform.concats_sunk = sink_concats(&mut g);
            stats.transform.concats_split = split_concat_conv1x1(&mut g);
            stats.transform.affines_folded = fold_affine_into_conv(&mut g);
            stats.transform.pointwise_composed = compose_pointwise_convs(&mut g);
        });
        stats.fusion = spans.scope("core.fusion", op, |_| fuse_activations(&mut g));
    }
    spans.scope("core.verify", op, |_| finish(&mut g));
    (decomposed, g, stats)
}

pub fn build(spans: &mut Spans, model: &Model) -> Graph {
    spans.scope("models.build", SETUP_OP, |_| model.build())
}

/// Compile, plan and check `source`. `by_pass` selects the pass-by-pass
/// compile (and keeps the `Decomposed`-level graph); otherwise the whole
/// compile is one `Compiler::compile` call.
pub fn compile(
    spans: &mut Spans,
    model: &Model,
    source: &Graph,
    by_pass: bool,
    op: u64,
) -> Prepared {
    let (decomposed, optimized, stats) = if by_pass {
        let (d, g, s) = compile_by_pass(spans, model, source, op);
        (Some(d), g, s)
    } else {
        let compiler = Compiler::new(model.compiler_options());
        let (g, s) = spans.scope("core.compile", op, |_| compiler.compile(source, model.level()));
        (None, g, s)
    };
    let compiled = spans.scope("runtime.plan", op, |_| {
        CompiledGraph::new(optimized).unwrap_or_else(|e| panic!("{}: {e}", model.name()))
    });
    let plan_violations = check_plan(spans, &compiled, op);
    Prepared { decomposed, compiled: Arc::new(compiled), stats, plan_violations }
}

/// `temco_check`'s independent re-derivation of the plan invariants.
pub fn check_plan(spans: &mut Spans, compiled: &CompiledGraph, op: u64) -> usize {
    let errs = spans.scope("check.plan", op, |_| {
        temco_check::check_plan_against(compiled.graph(), compiled.plan())
    });
    for e in &errs {
        eprintln!("plan violation: {e}");
    }
    errs.len()
}

/// Run a whole set-up three times and keep the first (whose compile ran
/// pass by pass). Returns it with the three durations; fails the run
/// unless all three produced the same counts.
pub fn thrice<T>(
    spans: &mut Spans,
    mut setup: impl FnMut(&mut Spans, bool) -> (T, Vec<Counts>),
) -> (T, Vec<f64>) {
    let mut kept = None;
    let mut seconds = Vec::new();
    for rep in 0..3 {
        let start = Instant::now();
        let (value, counts) = spans.scope("setup", SETUP_OP, |s| setup(s, rep == 0));
        seconds.push(start.elapsed().as_secs_f64());
        match &kept {
            None => kept = Some((value, counts)),
            Some((_, first)) => {
                if *first != counts {
                    crate::die(&format!("compile is not deterministic: {first:?} then {counts:?}"));
                }
            }
        }
    }
    (kept.expect("three set-ups ran").0, seconds)
}
