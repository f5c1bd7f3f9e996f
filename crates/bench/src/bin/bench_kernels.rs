//! Kernel-level perf tracker: GEMM GFLOP/s and ResNet-18 end-to-end
//! latency, written to `BENCH_kernels.json` so the perf trajectory is
//! visible across PRs.
//!
//! Two kernels are measured at each GEMM size: the cache-blocked packed
//! kernel (`sgemm`) and the pre-blocking baseline kept as
//! `sgemm_reference` — the `speedup` field is the acceptance gate for the
//! blocked kernel (≥ 2× at 512³). End-to-end numbers run ResNet-18 in
//! both executor modes (planned slab and per-node allocation) and record
//! the alias-aware plan's static copy volume per inference (`bytes_moved`).
//!
//! All timings are median-of-N after a warmup run. Environment knobs:
//! `TEMCO_BENCH_OUT` (output path, default `BENCH_kernels.json`),
//! `TEMCO_BENCH_REPS` (default 5), `TEMCO_IMAGE`/`TEMCO_BATCH` for the
//! e2e model config.

use std::io::Write as _;
use std::time::Instant;

use temco::{Compiler, OptLevel};
use temco_bench::harness_config;
use temco_models::ModelId;
use temco_runtime::{execute, ExecMode, ExecOptions};
use temco_tensor::{gemm, gemm_scratch_floats, sgemm, sgemm_reference, GemmSchedule, Tensor};

/// Median wall-clock seconds of `reps` runs of `f` (after one warmup).
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: fills pack caches / thread-local scratch
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

struct GemmRow {
    size: usize,
    blocked_gflops: f64,
    reference_gflops: f64,
}

fn bench_gemm(size: usize, reps: usize) -> GemmRow {
    let (m, k, n) = (size, size, size);
    let a = Tensor::randn(&[m, k], 7).data().to_vec();
    let b = Tensor::randn(&[k, n], 11).data().to_vec();
    let mut out = vec![0.0f32; m * n];
    let flops = (2 * m * k * n) as f64;

    let blocked = median_secs(reps, || {
        out.fill(0.0);
        sgemm(&a, &b, &mut out, m, k, n);
    });
    let reference = median_secs(reps, || {
        out.fill(0.0);
        sgemm_reference(&a, &b, &mut out, m, k, n);
    });
    GemmRow {
        size,
        blocked_gflops: flops / blocked / 1e9,
        reference_gflops: flops / reference / 1e9,
    }
}

/// The zoo's five hottest GEMM shapes (im2col/linear dims at the harness
/// config), by profile time share: mid-depth ResNet 3×3 im2col stages,
/// the single-sample classifier GEMMs, and the VGG head at batch.
const HOT_SHAPES: &[(&str, usize, usize, usize)] = &[
    ("resnet18.conv2_x.3x3", 64, 576, 4096),
    ("resnet18.conv3_x.3x3", 128, 1152, 1024),
    ("resnet34.conv4_x.3x3", 256, 2304, 256),
    ("alexnet.fc2.b1", 1, 1024, 1024),
    ("vgg16.classifier.b16", 16, 4096, 1000),
];

struct TunedRow {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    default_gflops: f64,
    tuned_gflops: f64,
    schedule: String,
}

/// Measure every candidate schedule on one shape; the default is candidate
/// 0, so `tuned_gflops >= default_gflops` holds by argmin construction.
fn bench_tuned_gemm(name: &'static str, m: usize, k: usize, n: usize, reps: usize) -> TunedRow {
    let a = Tensor::randn(&[m, k], 13).data().to_vec();
    let b = Tensor::randn(&[k, n], 19).data().to_vec();
    let mut out = vec![0.0f32; m * n];
    let flops = (2 * m * k * n) as f64;

    let candidates = temco_tune::gemm_candidates(8, 42);
    let mut default_secs = f64::INFINITY;
    let mut best_secs = f64::INFINITY;
    let mut best = GemmSchedule::DEFAULT;
    for (i, &s) in candidates.iter().enumerate() {
        let mut scratch = vec![0.0f32; gemm_scratch_floats(m, k, n, s)];
        let secs = median_secs(reps, || {
            out.fill(0.0);
            gemm(&a, false, &b, false, &mut out, m, k, n, &mut scratch, s);
        });
        if i == 0 {
            default_secs = secs;
        }
        if secs < best_secs {
            best_secs = secs;
            best = s;
        }
    }
    TunedRow {
        name,
        m,
        k,
        n,
        default_gflops: flops / default_secs / 1e9,
        tuned_gflops: flops / best_secs / 1e9,
        schedule: best.label(),
    }
}

fn main() {
    let reps: usize =
        std::env::var("TEMCO_BENCH_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    let out_path = std::env::var("TEMCO_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".into());

    println!("GEMM (median of {reps}):");
    let rows: Vec<GemmRow> = [128usize, 256, 512].iter().map(|&s| bench_gemm(s, reps)).collect();
    for r in &rows {
        println!(
            "  {0}x{0}x{0}: blocked {1:.2} GFLOP/s, reference {2:.2} GFLOP/s, speedup {3:.2}x",
            r.size,
            r.blocked_gflops,
            r.reference_gflops,
            r.blocked_gflops / r.reference_gflops
        );
    }

    println!("tuned GEMM, zoo hot shapes (median of {reps}, 8 candidates, seed 42):");
    let tuned_rows: Vec<TunedRow> =
        HOT_SHAPES.iter().map(|&(name, m, k, n)| bench_tuned_gemm(name, m, k, n, reps)).collect();
    for r in &tuned_rows {
        println!(
            "  {:<24} {}x{}x{}: default {:.2} GFLOP/s, tuned {:.2} GFLOP/s ({:.2}x, {})",
            r.name,
            r.m,
            r.k,
            r.n,
            r.default_gflops,
            r.tuned_gflops,
            r.tuned_gflops / r.default_gflops,
            r.schedule
        );
    }

    // ResNet-18 end-to-end, both executor modes.
    let cfg = harness_config(64, 1);
    let graph = {
        let base = ModelId::Resnet18.build(&cfg);
        let (g, _) = Compiler::default().compile(&base, OptLevel::SkipOptFusion);
        g
    };
    let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 17);
    let e2e_reps = reps.min(3);
    let run = |mode: ExecMode| {
        median_secs(e2e_reps, || {
            execute(&graph, std::slice::from_ref(&x), ExecOptions { mode, ..Default::default() })
                .expect("execution failed");
        })
    };
    let slab = run(ExecMode::Slab);
    let per_node = run(ExecMode::PerNode);
    let bytes_moved = temco_runtime::plan_memory(&graph).bytes_moved;
    println!(
        "ResNet-18 e2e (batch {}, {}x{}, median of {e2e_reps}): slab {:.4}s, per-node {:.4}s, {} bytes moved/run",
        cfg.batch, cfg.image, cfg.image, slab, per_node, bytes_moved
    );

    let mut f = std::fs::File::create(&out_path).expect("create BENCH_kernels.json");
    writeln!(f, "{{").unwrap();
    writeln!(f, "  \"gemm\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"size\": {}, \"blocked_gflops\": {:.3}, \"reference_gflops\": {:.3}, \"speedup\": {:.3}}}{comma}",
            r.size,
            r.blocked_gflops,
            r.reference_gflops,
            r.blocked_gflops / r.reference_gflops
        )
        .unwrap();
    }
    writeln!(f, "  ],").unwrap();
    writeln!(f, "  \"tuned_gemm\": [").unwrap();
    for (i, r) in tuned_rows.iter().enumerate() {
        let comma = if i + 1 < tuned_rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"shape\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"default_gflops\": {:.3}, \"tuned_gflops\": {:.3}, \"tuned_speedup\": {:.3}, \"schedule\": \"{}\"}}{comma}",
            r.name,
            r.m,
            r.k,
            r.n,
            r.default_gflops,
            r.tuned_gflops,
            r.tuned_gflops / r.default_gflops,
            r.schedule
        )
        .unwrap();
    }
    writeln!(f, "  ],").unwrap();
    writeln!(f, "  \"resnet18_e2e\": {{").unwrap();
    writeln!(f, "    \"batch\": {}, \"image\": {},", cfg.batch, cfg.image).unwrap();
    writeln!(f, "    \"slab_seconds\": {slab:.6},").unwrap();
    writeln!(f, "    \"per_node_seconds\": {per_node:.6},").unwrap();
    writeln!(f, "    \"bytes_moved\": {bytes_moved}").unwrap();
    writeln!(f, "  }}").unwrap();
    writeln!(f, "}}").unwrap();
    println!("wrote {out_path}");
}
