//! Per-layer metrics: counts read off each layer's public results, self
//! times read off the spans, and three fixed probes of the layers the
//! workloads reach only indirectly.

use std::hint::black_box;
use std::time::Instant;

use temco::CompileStats;
use temco_ir::{graph_flops, liveness, Graph};
use temco_linalg::Mat;
use temco_runtime::{plan_allocation_with_mode, plan_memory, AliasMode, CompiledGraph};
use temco_tensor::Tensor;
use temco_tune::TuningDb;

use crate::report::Metrics;
use crate::span::{Spans, SETUP_OP};
use crate::stats::median;

/// Counts of one compiled model, accumulated over the workload's models.
#[derive(Default)]
pub struct Static {
    nodes_in: usize,
    stats: Vec<CompileStats>,
    nodes_out: usize,
    flops: u64,
    decomposed_peak: usize,
    value_bytes: usize,
    scratch_bytes: usize,
    slab_bytes: usize,
    peak_live_bytes: usize,
    inplace_nodes: usize,
    concat_embedded: usize,
    slab_alias_off: usize,
    plan_violations: usize,
}

impl Static {
    pub fn add(
        &mut self,
        source: &Graph,
        stats: &CompileStats,
        compiled: &CompiledGraph,
        violations: usize,
    ) {
        let g = compiled.graph();
        let plan = compiled.plan();
        let frag = plan.fragmentation();
        let alias = plan.alias_stats();
        self.nodes_in += source.nodes.len();
        self.stats.push(stats.clone());
        self.nodes_out += g.nodes.len();
        self.flops += graph_flops(g);
        self.value_bytes += plan.value_bytes;
        self.scratch_bytes += plan.scratch_bytes;
        self.slab_bytes += frag.slab_bytes;
        self.peak_live_bytes += frag.peak_live_bytes;
        self.inplace_nodes += alias.inplace_nodes;
        self.concat_embedded += alias.aliased_concat_operands;
        self.slab_alias_off +=
            plan_allocation_with_mode(g, &liveness(g), AliasMode::Off).slab_bytes;
        self.plan_violations += violations;
    }

    /// The `Decomposed`-level base every memory ratio is quoted against.
    pub fn add_decomposed(&mut self, decomposed: &Graph) {
        self.decomposed_peak += plan_memory(decomposed).peak_internal_bytes;
    }

    pub fn flops(&self) -> u64 {
        self.flops
    }

    pub fn report(&self, m: &mut Metrics) {
        let sum =
            |f: &dyn Fn(&CompileStats) -> usize| self.stats.iter().map(f).sum::<usize>() as f64;
        m.set("models.nodes_in", self.nodes_in as f64);
        m.set("core.convs_decomposed", sum(&|s| s.decompose.convs_decomposed));
        m.set("core.matrices_compressed", sum(&|s| s.decompose.linears_compressed));
        m.set("core.skips_optimized", sum(&|s| s.skip_opt.skips_optimized));
        m.set("core.lconvs_merged", sum(&|s| s.transform.lconvs_merged));
        m.set("core.concats_split", sum(&|s| s.transform.concats_split));
        m.set("core.fused_groups", sum(&|s| s.fusion.total()));
        m.set("core.nodes_out", self.nodes_out as f64);
        m.set("ir.flops_per_op", self.flops as f64);
        m.set("ir.internal_peak_decomposed_bytes", self.decomposed_peak as f64);
        m.set("runtime.value_bytes", self.value_bytes as f64);
        m.set("runtime.scratch_bytes", self.scratch_bytes as f64);
        m.set("runtime.fragmentation", self.slab_bytes as f64 / self.peak_live_bytes.max(1) as f64);
        m.set("runtime.alias_inplace_nodes", self.inplace_nodes as f64);
        m.set("runtime.alias_concat_embedded", self.concat_embedded as f64);
        m.set("runtime.slab_bytes_alias_off", self.slab_alias_off as f64);
        m.set("check.plan_violations", self.plan_violations as f64);
    }
}

/// Mean self time of each set-up span, as the layer's `_s` metric. A span
/// that never ran (a pass the level skips) reads 0.
pub fn setup_times(m: &mut Metrics, spans: &Spans) {
    for (metric, span) in [
        ("models.build_s", "models.build"),
        ("core.decompose_s", "core.decompose"),
        ("core.skipopt_s", "core.skipopt"),
        ("core.transform_s", "core.transform"),
        ("core.fusion_s", "core.fusion"),
        ("core.verify_s", "core.verify"),
        ("runtime.plan_s", "runtime.plan"),
        ("runtime.engine_new_s", "runtime.engine_new"),
        ("serve.server_new_s", "serve.server_new"),
    ] {
        m.set(metric, spans.mean_self_seconds(span));
    }
}

/// Which `kernel.*_us` metric an `op_label` rolls up into.
fn kernel_metric(label: &str) -> &'static str {
    match label {
        "conv2d" | "conv_transpose2d" => "kernel.conv2d_us",
        "fused" => "kernel.fused_us",
        "fused_restore" => "kernel.fused_restore_us",
        "linear" => "kernel.linear_us",
        "matmul" => "kernel.matmul_us",
        "layernorm" => "kernel.layernorm_us",
        "softmax" => "kernel.softmax_us",
        "pool" | "global_avg_pool" => "kernel.pool_us",
        "activation" | "affine" | "add" => "kernel.elementwise_us",
        _ => "kernel.copy_us",
    }
}

const KERNEL_METRICS: [&str; 10] = [
    "kernel.conv2d_us",
    "kernel.fused_us",
    "kernel.fused_restore_us",
    "kernel.linear_us",
    "kernel.matmul_us",
    "kernel.layernorm_us",
    "kernel.softmax_us",
    "kernel.pool_us",
    "kernel.elementwise_us",
    "kernel.copy_us",
];

/// Per-run kernel microseconds by op kind, from `(op_label, total ns)`
/// pairs summed over `runs` engine runs, and the rate they amount to.
/// Returns the per-run kernel total in microseconds.
pub fn kernel_rollup<'a>(
    m: &mut Metrics,
    per_label_ns: impl Iterator<Item = (&'a str, u64)>,
    runs: u64,
    flops_per_run: u64,
) -> f64 {
    let mut us = [0.0f64; KERNEL_METRICS.len()];
    for (label, ns) in per_label_ns {
        let slot = KERNEL_METRICS.iter().position(|k| *k == kernel_metric(label)).expect("listed");
        us[slot] += ns as f64 / 1e3 / runs.max(1) as f64;
    }
    for (name, v) in KERNEL_METRICS.iter().zip(us) {
        m.set(name, v);
    }
    let total: f64 = us.iter().sum();
    m.set("kernel.gflops", if total > 0.0 { flops_per_run as f64 / (total * 1e3) } else { 0.0 });
    total
}

fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Fixed-size probes of `decomp`, `linalg`, `tensor` and `tune`: the layers
/// under `core.decompose_s` and the kernels, at one shape each so a change
/// there shows even when no workload's model has that shape.
pub fn probes(m: &mut Metrics, spans: &mut Spans, tuned: &Graph) {
    spans.scope("probes", SETUP_OP, |spans| {
        let weight = Tensor::randn(&[128, 128, 3, 3], 7);
        let (r_out, r_in) = temco_decomp::tucker_ranks(128, 128, 0.1);
        let tucker = spans.scope("decomp.tucker2", SETUP_OP, |_| {
            median_seconds(3, || {
                black_box(temco_decomp::tucker2(black_box(&weight), r_out, r_in, 1));
            })
        });
        m.set("decomp.tucker2_s", tucker);

        let a = Tensor::randn(&[1152, 128], 8);
        let mat = Mat::from_fn(1152, 128, |r, c| a.data()[r * 128 + c] as f64);
        let svd = spans.scope("linalg.svd", SETUP_OP, |_| {
            median_seconds(3, || {
                black_box(temco_linalg::svd(black_box(&mat)));
            })
        });
        m.set("linalg.svd_s", svd);

        let (mm, k, n) = (128usize, 1152usize, 1024usize);
        let (a, b) = (Tensor::randn(&[mm, k], 9), Tensor::randn(&[k, n], 10));
        let mut out = vec![0.0f32; mm * n];
        let sgemm = spans.scope("tensor.sgemm", SETUP_OP, |_| {
            temco_tensor::sgemm(a.data(), b.data(), &mut out, mm, k, n);
            median_seconds(15, || {
                temco_tensor::sgemm(black_box(a.data()), black_box(b.data()), &mut out, mm, k, n);
                black_box(&out);
            })
        });
        m.set("tensor.sgemm_gflops", (2 * mm * k * n) as f64 / sgemm / 1e9);

        let db = TuningDb::new();
        let lookup = spans.scope("tune.schedules_for", SETUP_OP, |_| {
            median_seconds(15, || {
                black_box(temco_tune::schedules_for(black_box(tuned), &db));
            })
        });
        m.set("tune.schedules_for_s", lookup);
    });
}
