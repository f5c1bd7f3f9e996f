//! TeMCO: Tensor Memory Compiler Optimization across tensor decompositions.
//!
//! This crate is the paper's primary contribution: a compiler that takes a
//! (possibly already decomposed) model graph and reduces the peak memory of
//! its *internal tensors* while preserving semantics exactly. The pipeline:
//!
//! 1. [`mod@decompose`] — replace convolutions by decomposed sequences
//!    (`fconv → core(s) → lconv`), the setup step existing tensor
//!    decomposition work performs (Section 2.1).
//! 2. [`skipopt`] — the skip-connection optimization (Algorithms 1 and 2):
//!    find long-lived tensors via liveness, walk the PDG back to the
//!    restoring `lconv`s, and replace the skip with the *reduced* tensor
//!    plus cheap per-use restore copies.
//! 3. [`transform`] — the layer transformations of Section 3.3: sinking
//!    concats through elementwise layers, splitting `concat → fconv` into
//!    per-branch convolutions plus `add` (Figure 9c), merging sibling
//!    `lconv`s into one block-diagonal `lconv` (Figure 9a), and folding
//!    inference batch-norm affines into adjacent convolutions.
//! 4. [`fusion`] — activation-layer fusion (Section 3.2): rewrite
//!    `lconv → activation (→ pool) → fconv` chains into the single fused
//!    operator whose kernel never materializes the full-width tensor.
//!
//! [`Compiler`] wires the passes together behind one call; [`analysis`]
//! implements the paper's closed-form peak-memory model (Equations 1–4) and
//! [`equiv`] the semantic-equivalence checking used by the accuracy
//! experiment.

pub mod analysis;
pub mod decompose;
pub mod equiv;
pub mod fusion;
pub mod skipopt;
pub mod transform;

pub use decompose::{decompose, DecomposeOptions, DecomposeStats, MatrixLayerChoice};
pub use equiv::{compare_outputs, dice_score, OutputAgreement};
pub use fusion::{fuse_activations, FusionStats};
pub use skipopt::{optimize_skip_connections, SkipOptOptions, SkipOptStats};
pub use temco_decomp::Method;
pub use transform::{
    compose_pointwise_convs, fold_affine_into_conv, merge_sibling_lconvs, sink_concats,
    split_concat_conv1x1, TransformStats,
};

use temco_ir::Graph;

/// Which optimization level to apply on top of a decomposed model —
/// mirrors the paper's evaluation legend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptLevel {
    /// Tensor decomposition only (the paper's `Decomposed` baseline).
    Decomposed,
    /// Decomposition + activation-layer fusion (`Fusion`).
    Fusion,
    /// Decomposition + skip-connection optimization (`Skip-Opt`).
    SkipOpt,
    /// All of TeMCO (`Skip-Opt+Fusion`, including layer transformations).
    SkipOptFusion,
}

impl OptLevel {
    /// Evaluation-legend label.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Decomposed => "Decomposed",
            OptLevel::Fusion => "Fusion",
            OptLevel::SkipOpt => "Skip-Opt",
            OptLevel::SkipOptFusion => "Skip-Opt+Fusion",
        }
    }
}

/// End-to-end compiler configuration.
#[derive(Clone, Debug, Default)]
pub struct CompilerOptions {
    /// Decomposition settings (method, ratio, …).
    pub decompose: DecomposeOptions,
    /// Skip-connection optimization settings.
    pub skip_opt: SkipOptOptions,
    /// Merge sibling `lconv`s (Figure 9a) before splitting concats.
    pub merge_lconvs: bool,
    /// Run the memory-aware list scheduler after all rewrites (the
    /// operator-scheduling extension the paper defers to references 19, 31, 50).
    pub reschedule: bool,
}

/// Statistics of one compilation.
#[derive(Clone, Debug, Default)]
pub struct CompileStats {
    /// Decomposition pass statistics.
    pub decompose: DecomposeStats,
    /// Skip-connection optimization statistics.
    pub skip_opt: SkipOptStats,
    /// Layer-transformation statistics.
    pub transform: TransformStats,
    /// Fusion statistics.
    pub fusion: FusionStats,
}

/// The TeMCO compiler.
///
/// ```
/// use temco::{Compiler, OptLevel};
/// use temco_ir::Graph;
/// use temco_tensor::Tensor;
///
/// let mut g = Graph::new();
/// let x = g.input(&[1, 32, 16, 16], "x");
/// let c = g.conv2d(x, Tensor::he_conv_weight(32, 32, 3, 3, 7), None, 1, 1, "conv");
/// let r = g.relu(c, "relu");
/// let c2 = g.conv2d(r, Tensor::he_conv_weight(32, 32, 3, 3, 8), None, 1, 1, "conv2");
/// g.mark_output(c2);
/// g.infer_shapes();
///
/// let (optimized, stats) = Compiler::default().compile(&g, OptLevel::SkipOptFusion);
/// assert!(stats.decompose.convs_decomposed > 0);
/// assert!(temco_ir::verify(&optimized).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Compiler {
    opts: CompilerOptions,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler { opts: CompilerOptions { merge_lconvs: true, ..Default::default() } }
    }
}

impl Compiler {
    /// Compiler with explicit options.
    pub fn new(opts: CompilerOptions) -> Self {
        Compiler { opts }
    }

    /// The active options.
    pub fn options(&self) -> &CompilerOptions {
        &self.opts
    }

    /// Compile `graph` at the requested optimization level. Returns the
    /// optimized graph and per-pass statistics. The input graph is not
    /// modified.
    ///
    /// # Panics
    /// Panics if the input graph fails verification.
    pub fn compile(&self, graph: &Graph, level: OptLevel) -> (Graph, CompileStats) {
        let (g, decomposed) = self.decompose_graph(graph);
        self.optimize(g, decomposed, level)
    }

    /// Compile `graph` at each of `levels`, in order. Equivalent to one
    /// [`Compiler::compile`] per level, but the decomposition — the
    /// expensive, level-independent step — runs once and is shared.
    ///
    /// # Panics
    /// Panics if the input graph fails verification.
    pub fn compile_levels(&self, graph: &Graph, levels: &[OptLevel]) -> Vec<(Graph, CompileStats)> {
        let (g, decomposed) = self.decompose_graph(graph);
        levels.iter().map(|&level| self.optimize(g.clone(), decomposed.clone(), level)).collect()
    }

    /// The level-independent front half: verify, infer shapes, decompose.
    fn decompose_graph(&self, graph: &Graph) -> (Graph, DecomposeStats) {
        let errs = temco_ir::verify(graph);
        assert!(errs.is_empty(), "input graph is malformed: {errs:?}");
        let mut g = graph.clone();
        g.infer_shapes();
        let stats = decompose(&mut g, &self.opts.decompose);
        (g, stats)
    }

    /// The back half: the rewrites `level` enables on a decomposed graph.
    fn optimize(
        &self,
        mut g: Graph,
        decomposed: DecomposeStats,
        level: OptLevel,
    ) -> (Graph, CompileStats) {
        let mut stats = CompileStats { decompose: decomposed, ..Default::default() };

        if matches!(level, OptLevel::SkipOpt | OptLevel::SkipOptFusion) {
            stats.skip_opt =
                optimize_skip_connections(&mut g, &self.opts.skip_opt, &stats.decompose);
        }

        if matches!(level, OptLevel::Fusion | OptLevel::SkipOptFusion) {
            if self.opts.merge_lconvs {
                stats.transform.lconvs_merged = merge_sibling_lconvs(&mut g);
            }
            stats.transform.concats_sunk = sink_concats(&mut g);
            stats.transform.concats_split = split_concat_conv1x1(&mut g);
            stats.transform.affines_folded = fold_affine_into_conv(&mut g);
            stats.transform.pointwise_composed = compose_pointwise_convs(&mut g);
            stats.fusion = fuse_activations(&mut g);
        }

        if self.opts.reschedule {
            let order = temco_ir::memory_aware_order_ranked(&g);
            temco_ir::apply_order(&mut g, &order);
        }

        // Rewrites orphan replaced weights in the store; reclaim them so the
        // result's weight_bytes reflects what an inference actually loads.
        g.gc_weights();
        g.infer_shapes();
        let errs = temco_ir::verify(&g);
        assert!(errs.is_empty(), "compiler produced a malformed graph: {errs:?}");
        (g, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_models::{ModelConfig, ModelId};

    fn bytes(g: &Graph) -> Vec<u8> {
        let mut buf = Vec::new();
        temco_ir::save_graph(g, &mut buf).expect("save");
        buf
    }

    #[test]
    fn compile_levels_matches_one_compile_per_level() {
        let cfg =
            ModelConfig { batch: 1, image: 32, num_classes: 10, classifier_width: 16, seed: 7 };
        let g = ModelId::UnetSmall.build(&cfg);
        let compiler = Compiler::default();
        let levels =
            [OptLevel::Decomposed, OptLevel::Fusion, OptLevel::SkipOpt, OptLevel::SkipOptFusion];
        let shared = compiler.compile_levels(&g, &levels);
        assert_eq!(shared.len(), levels.len());
        for (level, (got, stats)) in levels.into_iter().zip(&shared) {
            let (want, want_stats) = compiler.compile(&g, level);
            assert_eq!(bytes(got), bytes(&want), "{}", level.label());
            let d = (&stats.decompose, &want_stats.decompose);
            assert_eq!(d.0.original_conv_flops, d.1.original_conv_flops, "{}", level.label());
            assert_eq!(d.0.convs_decomposed, d.1.convs_decomposed, "{}", level.label());
            let rewrites =
                |s: &CompileStats| format!("{:?}", (&s.skip_opt, &s.transform, &s.fusion));
            assert_eq!(rewrites(stats), rewrites(&want_stats), "{}", level.label());
        }
    }
}
