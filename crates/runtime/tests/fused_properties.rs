//! Property tests for the fused kernel: for every channel/shape/activation/
//! pooling combination, with or without biases and a reducing fconv, and
//! every schedule — any tile size and oversubscription — the fused kernel
//! must agree with the unfused three-op reference using exactly the scratch
//! its breakdown advertises, and bit for bit with the row strip
//! (`tile == 0`); and the alias-free allocation plan must be valid and
//! bounded for arbitrary graphs.

use proptest::prelude::*;
use temco_ir::{liveness, ActKind, FusedGeometry, Graph, PoolKind};
use temco_runtime::{
    fused_forward_into, fused_scratch_breakdown, plan_allocation_with_mode, plan_memory, AliasMode,
    FusedSchedule,
};
use temco_tensor::{avg_pool2d, conv2d, max_pool2d, Conv2dParams, Tensor};

/// The unfused `conv → act (→ pool) (→ conv)` chain.
fn reference(
    input: &Tensor,
    (lw, lb): (&Tensor, Option<&[f32]>),
    act: ActKind,
    pool: Option<(PoolKind, usize, usize)>,
    fconv: Option<(&Tensor, Option<&[f32]>)>,
) -> Tensor {
    let p = Conv2dParams::default();
    let full = conv2d(input, lw, lb, &p);
    let acted = act.forward(&full);
    let pooled = match pool {
        Some((PoolKind::Max, k, s)) => max_pool2d(&acted, k, s),
        Some((PoolKind::Avg, k, s)) => avg_pool2d(&acted, k, s),
        None => acted,
    };
    match fconv {
        Some((fw, fb)) => conv2d(&pooled, fw, fb, &p),
        None => pooled,
    }
}

/// One fused run under `sched` on NaN-filled scratch of exactly the
/// advertised size: the kernel must write every scratch float it reads.
fn run_fused(
    x: &Tensor,
    (lw, lb): (&Tensor, Option<&[f32]>),
    act: ActKind,
    pool: Option<(PoolKind, usize, usize)>,
    fconv: Option<(&Tensor, Option<&[f32]>)>,
    sched: FusedSchedule,
) -> Tensor {
    let geo = FusedGeometry::new(
        x.shape(),
        lw.dim(0),
        fconv.map(|(fw, _)| fw.dim(0)),
        pool.map(|(_, k, s)| (k, s)),
    );
    let mut scratch = vec![f32::NAN; fused_scratch_breakdown(&geo, sched).total_floats()];
    let mut got = Tensor::zeros(&geo.out_shape());
    fused_forward_into(
        x.view(),
        lw,
        lb,
        act,
        pool,
        fconv.map(|(fw, _)| fw),
        fconv.and_then(|(_, fb)| fb),
        got.data_mut(),
        &mut scratch,
        sched,
    );
    got
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    #[test]
    fn fused_kernel_matches_reference(
        n in 1usize..3,
        c_red in 1usize..5,
        c_full in 2usize..12,
        c_out in 1usize..5,
        h in 2usize..9,
        w in 2usize..9,
        act_sel in 0usize..4,
        pool_sel in 0usize..5,
        with_fconv in any::<bool>(),
        with_lb in any::<bool>(),
        with_fb in any::<bool>(),
        tile in 0usize..10,
        slots_per_thread in 1usize..9,
        seed in 0u64..500,
    ) {
        let act = [ActKind::Relu, ActKind::Silu, ActKind::Sigmoid, ActKind::Tanh][act_sel];
        let pool = match pool_sel {
            0 | 1 => None,
            2 => Some((PoolKind::Max, 2, 2)),
            3 => Some((PoolKind::Avg, 2, 2)),
            _ => Some((PoolKind::Max, 3, 2)), // AlexNet-style overlapping pool
        };
        if let Some((_, k, _)) = pool {
            prop_assume!(h >= k && w >= k);
        }
        let x = Tensor::randn(&[n, c_red, h, w], seed);
        let lw = Tensor::randn(&[c_full, c_red, 1, 1], seed ^ 0x11);
        let lb = Tensor::randn(&[c_full], seed ^ 0x33);
        let fw = Tensor::randn(&[c_out, c_full, 1, 1], seed ^ 0x22);
        let fb = Tensor::randn(&[c_out], seed ^ 0x44);
        let lconv = (&lw, with_lb.then_some(lb.data()));
        let fconv = with_fconv.then_some((&fw, with_fb.then_some(fb.data())));
        let want = reference(&x, lconv, act, pool, fconv);
        let sched = FusedSchedule { tile, slots_per_thread };
        let got = run_fused(&x, lconv, act, pool, fconv, sched);
        prop_assert!(got.max_abs_diff(&want) <= 2e-3, "{sched:?}: diff {}", got.max_abs_diff(&want));
        // Every tile size accumulates in the strip's order.
        let strip = run_fused(&x, lconv, act, pool, fconv, FusedSchedule::DEFAULT);
        prop_assert_eq!(got.shape(), strip.shape());
        prop_assert!(got.data() == strip.data(), "{sched:?} differs from the strip");
    }

    #[test]
    fn alias_free_plans_are_valid_and_bounded(
        widths in proptest::collection::vec(1usize..6, 2..10),
        skip_every in 2usize..4,
        seed in 0u64..500,
    ) {
        // Random conv chain with periodic skip adds.
        let mut g = Graph::new();
        let mut x = g.input(&[1, 4, 8, 8], "x");
        let mut c_prev = 4usize;
        let mut anchors = vec![(x, 4usize)];
        for (i, wsel) in widths.iter().enumerate() {
            let c = wsel * 4;
            let w = Tensor::randn(&[c, c_prev, 3, 3], seed.wrapping_add(i as u64));
            x = g.conv2d(x, w, None, 1, 1, format!("c{i}"));
            if i % skip_every == 0 {
                if let Some(&(a, ca)) = anchors.last() {
                    if ca == c {
                        x = g.add(&[a, x], format!("s{i}"));
                    }
                }
            }
            anchors.push((x, c));
            c_prev = c;
        }
        g.mark_output(x);
        g.infer_shapes();

        let plan = plan_allocation_with_mode(&g, &liveness(&g), AliasMode::Off);
        prop_assert!(plan.validate().is_empty());
        let peak = plan_memory(&g).peak_internal_bytes;
        let sum: usize = plan.buffers.iter().map(|p| p.bytes).sum();
        prop_assert!(plan.value_bytes >= peak, "value region below live peak");
        prop_assert!(plan.value_bytes <= sum, "value region above sum of tensors");
        prop_assert_eq!(plan.peak_live_bytes, peak);
    }
}
