//! Criterion microbenchmark: the fused kernel vs the unfused chain
//! (Listing 1's trade-off measured on CPU), across channel widths and with
//! and without a folded pooling layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use temco_ir::{ActKind, PoolKind};
use temco_runtime::{fused_forward, FusedSchedule};
use temco_tensor::{conv2d, max_pool2d, Conv2dParams, Tensor};

/// The default schedule: row-strip job tiles.
const STRIP: FusedSchedule = FusedSchedule::DEFAULT;

fn unfused(x: &Tensor, lw: &Tensor, fw: &Tensor, pool: Option<(PoolKind, usize, usize)>) -> Tensor {
    let p = Conv2dParams::default();
    let full = conv2d(x, lw, None, &p);
    let acted = ActKind::Relu.forward(&full);
    let pooled = match pool {
        Some((_, k, s)) => max_pool2d(&acted, k, s),
        None => acted,
    };
    conv2d(&pooled, fw, None, &p)
}

fn bench_fused(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_vs_unfused");
    for &(c_full, hw) in &[(64usize, 56usize), (128, 28), (256, 14)] {
        let rank = (c_full as f64 * 0.1).round() as usize;
        let x = Tensor::randn(&[4, rank, hw, hw], 1);
        let lw = Tensor::randn(&[c_full, rank, 1, 1], 2);
        let fw = Tensor::randn(&[rank, c_full, 1, 1], 3);
        group.bench_with_input(
            BenchmarkId::new("fused", format!("{c_full}c_{hw}px")),
            &(),
            |b, _| {
                b.iter(|| {
                    fused_forward(&x, &lw, None, ActKind::Relu, None, Some(&fw), None, STRIP)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("unfused", format!("{c_full}c_{hw}px")),
            &(),
            |b, _| b.iter(|| unfused(&x, &lw, &fw, None)),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("fused_with_pool");
    let (c_full, hw, rank) = (128usize, 28usize, 13usize);
    let x = Tensor::randn(&[4, rank, hw, hw], 4);
    let lw = Tensor::randn(&[c_full, rank, 1, 1], 5);
    let fw = Tensor::randn(&[rank, c_full, 1, 1], 6);
    let pool = Some((PoolKind::Max, 2, 2));
    group.bench_function("fused", |b| {
        b.iter(|| fused_forward(&x, &lw, None, ActKind::Relu, pool, Some(&fw), None, STRIP));
    });
    group.bench_function("unfused", |b| b.iter(|| unfused(&x, &lw, &fw, pool)));
    group.finish();

    // Ablation A2: the paper's Listing-1 tile size T. Small tiles repeat
    // the lconv reduction per tile; large tiles amortize it at larger
    // scratch. The row strip (`tile == 0`) is the T→row limit.
    let mut group = c.benchmark_group("tile_size");
    let (c_full, hw, rank) = (128usize, 56usize, 13usize);
    let x = Tensor::randn(&[4, rank, hw, hw], 7);
    let lw = Tensor::randn(&[c_full, rank, 1, 1], 8);
    let fw = Tensor::randn(&[rank, c_full, 1, 1], 9);
    for tile in [4usize, 8, 16, 32] {
        let tiled = FusedSchedule { tile, ..STRIP };
        group.bench_with_input(BenchmarkId::new("tiled", tile), &tiled, |b, &s| {
            b.iter(|| fused_forward(&x, &lw, None, ActKind::Relu, None, Some(&fw), None, s));
        });
    }
    group.bench_function("strip", |b| {
        b.iter(|| fused_forward(&x, &lw, None, ActKind::Relu, None, Some(&fw), None, STRIP));
    });
    group.finish();
}

criterion_group!(benches, bench_fused);
criterion_main!(benches);
