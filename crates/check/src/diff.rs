//! Differential execution: every execution path, every opt level, every
//! served batch size, one graph at a time.
//!
//! The oracle structure has two tiers because decomposition is *lossy*
//! (ratio < 1 truncates singular values):
//!
//! * **Same graph, different execution paths** — the per-node reference
//!   executor vs the slab `Engine` (alias-aware and alias-free layouts)
//!   must agree to tight tolerance; they run the same kernels, differing
//!   only in where memory comes from. Any drift here is a memory-planning
//!   bug (aliasing, stale slab bytes). The alias A/B pair additionally
//!   asserts sharing never grows the footprint or the copy volume, and
//!   runs the independent plan checker on the alias-free layout.
//! * **Opt levels vs the `Decomposed` baseline** — `Fusion` / `Skip-Opt` /
//!   `Skip-Opt+Fusion` rewrite the *decomposed* graph semantics-preservingly,
//!   so they are compared against the `Decomposed` output (not the original)
//!   with a looser, magnitude-relative tolerance that admits float
//!   reassociation in fused kernels but not real rewrite bugs.
//!
//! A *served-batch* tier checks per-sample consistency the way the server
//! runs: the graph compiled once at `max_batch`, run with every sample
//! count up to it on one engine, must reproduce each sample's batch-1
//! output to tight tolerance (every op in the IR is batch-independent and
//! keeps the batch outermost).
//!
//! Panics anywhere in compile or execute are caught and reported as
//! failures with the panic message — a crash is a finding, not a test
//! abort.

use std::panic::{catch_unwind, AssertUnwindSafe};

use temco::{Compiler, CompilerOptions, DecomposeOptions, Method, OptLevel};
use temco_ir::{liveness, Graph};
use temco_runtime::{execute, plan_allocation_with_mode, AliasMode, Engine, ExecMode, ExecOptions};
use temco_tensor::Tensor;

use crate::gen::{random_graph, GenConfig};
use crate::invariants;

/// Tight tolerance for same-graph cross-path comparison.
const PATH_TOL: f32 = 1e-4;
/// Relative tolerance for opt-level-vs-decomposed comparison (fused kernels
/// reassociate sums; rewrites are otherwise exact).
const LEVEL_RTOL: f32 = 2e-3;

/// What one differential run covers.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Compile and cross-check all four opt levels (decomposition is the
    /// expensive part; disable for pure runtime checks).
    pub opt_levels: bool,
    /// Largest served batch: the graph is compiled once at it and run with
    /// every sample count `1..=max_batch`.
    pub max_batch: usize,
    /// Decomposition ratio handed to the compiler.
    pub ratio: f64,
    /// Random-graph shape knobs.
    pub gen: GenConfig,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { opt_levels: true, max_batch: 4, ratio: 0.5, gen: GenConfig::default() }
    }
}

/// One differential failure: which seed, which oracle stage, and what went
/// wrong — everything needed to reproduce and shrink.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Generator seed of the failing graph.
    pub seed: u64,
    /// Which comparison tripped (e.g. `"slab-vs-pernode"`, `"Fusion"`).
    pub stage: String,
    /// Human-readable detail (max-abs-diff, panic message, …).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {}: [{}] {}", self.seed, self.stage, self.detail)
    }
}

fn fail(seed: u64, stage: &str, detail: impl Into<String>) -> Failure {
    Failure { seed, stage: stage.into(), detail: detail.into() }
}

/// Run `f`, converting a panic into `Err(message)`.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".into())
    })
}

/// `max |a - b|` over two output tensors, `None` on shape mismatch.
fn max_diff(a: &Tensor, b: &Tensor) -> Option<f32> {
    (a.shape() == b.shape()).then(|| a.max_abs_diff(b))
}

/// Compare every graph output pairwise (generated graphs mark each branch
/// tip as an output, so this observes the whole graph, not just one tail).
fn compare(seed: u64, stage: &str, a: &[Tensor], b: &[Tensor], tol: f32) -> Result<(), Failure> {
    if a.len() != b.len() {
        return Err(fail(seed, stage, format!("{} outputs vs {}", a.len(), b.len())));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match max_diff(x, y) {
            None => {
                return Err(fail(
                    seed,
                    stage,
                    format!("output {i} shapes diverge: {:?} vs {:?}", x.shape(), y.shape()),
                ))
            }
            Some(d) if d > tol => {
                return Err(fail(
                    seed,
                    stage,
                    format!("output {i}: max|Δ| {d:.3e} exceeds tolerance {tol:.1e}"),
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Generate the graph for `seed` (CNN or transformer — see
/// [`crate::gen::random_graph`]) and run the full differential check.
pub fn check_seed(seed: u64, cfg: &DiffConfig) -> Result<(), Failure> {
    let g = guarded(|| random_graph(seed, &cfg.gen))
        .map_err(|m| fail(seed, "generate", format!("generator panicked: {m}")))?;
    check_graph(&g, seed, cfg)
}

/// Run the full differential check on an explicit graph (the shrinker calls
/// this on reduced candidates).
pub fn check_graph(g: &Graph, seed: u64, cfg: &DiffConfig) -> Result<(), Failure> {
    let violations = temco_ir::verify(g);
    if !violations.is_empty() {
        return Err(fail(seed, "verify", violations.join("; ")));
    }

    // Independent plan-invariant check before running anything.
    let errs = invariants::check_plan(g);
    if !errs.is_empty() {
        return Err(fail(seed, "plan-invariants", errs.join("; ")));
    }

    let input = Tensor::rand_uniform(g.shape(g.inputs[0]), seed ^ 0x5EED, -1.0, 1.0);

    // Execution-path tier: per-node reference vs the slab Engine.
    let reference = run_mode(g, &input, ExecMode::PerNode, seed, "pernode")?;
    let slab = run_mode(g, &input, ExecMode::Slab, seed, "slab")?;
    compare(seed, "slab-vs-pernode", &slab, &reference, PATH_TOL)?;

    // Alias A/B tier: the alias-free layout must pass the same independent
    // rules (which sanction sharing, never require it), execute to the same
    // numbers, and never beat the alias-aware plan on footprint or copies.
    check_alias_ab(g, &input, &reference, seed)?;

    // Served batches: every sample count on the one max-batch plan
    // reproduces each sample's batch-1 output row for row.
    check_served_batches(g, seed, cfg.max_batch)?;

    // Opt-level tier: everything compares against the Decomposed baseline.
    // The decomposition family cycles with the seed so the corpus exercises
    // Tucker-2, CP, and TT factorization paths — the baseline uses the same
    // family, so the comparison stays method-internal.
    if cfg.opt_levels {
        let method = Method::ALL[(seed % Method::ALL.len() as u64) as usize];
        let compiler = Compiler::new(CompilerOptions {
            decompose: DecomposeOptions { ratio: cfg.ratio, method, ..Default::default() },
            merge_lconvs: true,
            ..Default::default()
        });
        let baseline_graph = guarded(|| compiler.compile(g, OptLevel::Decomposed).0)
            .map_err(|m| fail(seed, "compile-Decomposed", m))?;
        let baseline = run_mode(&baseline_graph, &input, ExecMode::Slab, seed, "Decomposed")?;
        let scale = baseline.iter().flat_map(|t| t.data()).fold(1.0f32, |m, v| m.max(v.abs()));
        for level in [OptLevel::Fusion, OptLevel::SkipOpt, OptLevel::SkipOptFusion] {
            let label = level.label();
            let opt = guarded(|| compiler.compile(g, level).0)
                .map_err(|m| fail(seed, &format!("compile-{label}"), m))?;
            let errs = invariants::check_plan(&opt);
            if !errs.is_empty() {
                return Err(fail(seed, &format!("plan-invariants-{label}"), errs.join("; ")));
            }
            let out = run_mode(&opt, &input, ExecMode::Slab, seed, label)?;
            compare(seed, label, &out, &baseline, LEVEL_RTOL * scale)?;
        }
    }
    Ok(())
}

/// [`run`] in one mode, with the alias-aware slab plan.
fn run_mode(
    g: &Graph,
    input: &Tensor,
    mode: ExecMode,
    seed: u64,
    stage: &str,
) -> Result<Vec<Tensor>, Failure> {
    run(g, input, ExecOptions { mode, ..Default::default() }, seed, stage)
}

/// Execute once; a panic or a typed error becomes a [`Failure`] at `stage`.
fn run(
    g: &Graph,
    input: &Tensor,
    opts: ExecOptions,
    seed: u64,
    stage: &str,
) -> Result<Vec<Tensor>, Failure> {
    guarded(|| execute(g, std::slice::from_ref(input), opts))
        .map_err(|m| fail(seed, stage, format!("executor panicked: {m}")))?
        .map(|res| res.outputs)
        .map_err(|e| fail(seed, stage, format!("executor error: {e}")))
}

/// Alias-analysis A/B check: plan and run the graph with aliasing **off**,
/// verify the independent invariants accept that layout too, compare its
/// outputs against the per-node reference, and assert the alias-aware plan
/// is pointwise no worse (value-region bytes, bytes moved) — storage
/// sharing is an optimization, never a trade.
fn check_alias_ab(
    g: &Graph,
    input: &Tensor,
    reference: &[Tensor],
    seed: u64,
) -> Result<(), Failure> {
    let stage = "slab-noalias";
    let (plan_full, plan_off) = guarded(|| {
        let lv = liveness(g);
        (
            plan_allocation_with_mode(g, &lv, AliasMode::Full),
            plan_allocation_with_mode(g, &lv, AliasMode::Off),
        )
    })
    .map_err(|m| fail(seed, stage, format!("planner panicked: {m}")))?;
    let errs = invariants::check_plan_against(g, &plan_off);
    if !errs.is_empty() {
        return Err(fail(seed, "plan-invariants-noalias", errs.join("; ")));
    }
    if plan_full.value_bytes > plan_off.value_bytes {
        return Err(fail(
            seed,
            "alias-footprint",
            format!(
                "aliasing grew the value region: {} > {}",
                plan_full.value_bytes, plan_off.value_bytes
            ),
        ));
    }
    if plan_full.bytes_moved > plan_off.bytes_moved {
        return Err(fail(
            seed,
            "alias-movement",
            format!(
                "aliasing grew data movement: {} > {}",
                plan_full.bytes_moved, plan_off.bytes_moved
            ),
        ));
    }

    let opts = ExecOptions { alias: AliasMode::Off, ..Default::default() };
    let out = run(g, input, opts, seed, stage)?;
    compare(seed, "noalias-vs-pernode", &out, reference, PATH_TOL)
}

/// Compile the graph once at `max_batch`, as the server does, run it with
/// every sample count `1..=max_batch` on one engine, and compare each
/// output row to the corresponding sample's batch-1 slab run.
fn check_served_batches(g: &Graph, seed: u64, max_batch: usize) -> Result<(), Failure> {
    let max_batch = max_batch.max(1);
    let stage = format!("batch-of-{max_batch}");
    let gb = guarded(|| g.try_rebatch(max_batch))
        .map_err(|m| fail(seed, &stage, format!("rebatch panicked: {m}")))?
        .map_err(|e| fail(seed, &stage, format!("rebatch error: {e}")))?;
    let mut engine = guarded(|| Engine::new(gb))
        .map_err(|m| fail(seed, &stage, format!("compile panicked: {m}")))?
        .map_err(|e| fail(seed, &stage, format!("compile error: {e}")))?;

    let sample_shape = g.shape(g.inputs[0]).to_vec();
    let samples: Vec<Tensor> = (0..max_batch)
        .map(|i| Tensor::rand_uniform(&sample_shape, seed ^ (0xBA7C << 8) ^ i as u64, -1.0, 1.0))
        .collect();
    let singles = samples
        .iter()
        .map(|s| run_mode(g, s, ExecMode::Slab, seed, &stage))
        .collect::<Result<Vec<_>, _>>()?;

    for n in 1..=max_batch {
        let mut batched_shape = sample_shape.clone();
        batched_shape[0] = n;
        let data = samples[..n].iter().flat_map(|s| s.data().iter().copied()).collect();
        let batched_in = Tensor::from_vec(&batched_shape, data);
        let batched = guarded(|| engine.run(std::slice::from_ref(&batched_in)).map(<[_]>::to_vec))
            .map_err(|m| fail(seed, &stage, format!("{n} samples: engine panicked: {m}")))?
            .map_err(|e| fail(seed, &stage, format!("{n} samples: engine error: {e}")))?;
        for (i, single) in singles[..n].iter().enumerate() {
            for (o, single_out) in single.iter().enumerate() {
                let out_numel = single_out.numel();
                if batched[o].numel() != n * out_numel {
                    return Err(fail(
                        seed,
                        &stage,
                        format!("{n} samples, output {o}: shape {:?}", batched[o].shape()),
                    ));
                }
                let row = &batched[o].data()[i * out_numel..(i + 1) * out_numel];
                let diff = row
                    .iter()
                    .zip(single_out.data())
                    .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
                if diff > PATH_TOL {
                    return Err(fail(
                        seed,
                        &stage,
                        format!(
                            "sample {i} of {n}, output {o}: batched row diverges by {diff:.3e}"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}
