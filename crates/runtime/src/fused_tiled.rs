//! The Listing-1-faithful 3-D tiled body of the fused kernel.
//!
//! The strip body in [`crate::fused`] parallelizes over `(batch,
//! output-row)` strips, which suits CPUs. The paper's CUDA kernel
//! (Listing 1) instead tiles the `(C', H', W')` iteration space with cubic
//! `T×T×T` tiles and stages operands through shared memory. This body
//! reproduces that exact blocking on the CPU so the tile-size trade-off
//! the paper's kernel embodies can be measured (`cargo bench -p
//! temco-bench --bench fused_kernel`): small tiles bound scratch but repeat
//! the `lconv` reduction more often; large tiles amortize it at larger
//! scratch.
//!
//! Private to the crate: a `FusedSchedule` with a positive `tile` selects it
//! through [`crate::fused::fused_forward_into`], and
//! [`crate::fused::fused_scratch_breakdown`] sizes its scratch. Semantics
//! are identical to the strip body; the tests assert agreement between the
//! two and against the unfused reference.

use rayon::prelude::*;
use temco_ir::{ActKind, PoolKind};
use temco_tensor::{conv_out_dim, Tensor, TensorView};

use crate::fused::{fused_slots, ScratchBreakdown, SyncPtr};

/// Scratch decomposition of [`forward`]: worker slots × the largest
/// tile's staging arena (edge tiles use prefixes).
#[allow(clippy::too_many_arguments)]
pub(crate) fn breakdown(
    n: usize,
    h: usize,
    w: usize,
    c_full: usize,
    c_out: usize,
    pool: Option<(usize, usize)>,
    tile: usize,
    has_fconv: bool,
    slots_per_thread: usize,
) -> ScratchBreakdown {
    let (oh, ow, pk, ps) = match pool {
        Some((k, s)) => (conv_out_dim(h, k, s, 0), conv_out_dim(w, k, s, 0), k, s),
        None => (h, w, 1, 1),
    };
    if n == 0 || c_out == 0 || oh == 0 || ow == 0 {
        return ScratchBreakdown { slots: 0, per_slot_floats: 0 };
    }
    let jobs = n * c_out.div_ceil(tile) * oh.div_ceil(tile) * ow.div_ceil(tile);
    let (th_max, tw_max) = (tile.min(oh), tile.min(ow));
    let (ih_max, iw_max) = ((th_max - 1) * ps + pk, (tw_max - 1) * ps + pk);
    let per_slot = c_full * ih_max * iw_max
        + c_full * th_max * tw_max
        + if has_fconv { tile.min(c_out) * th_max * tw_max } else { 0 };
    ScratchBreakdown { slots: fused_slots(jobs, slots_per_thread), per_slot_floats: per_slot }
}

/// Execute the fused chain with cubic tiling of the output space into a
/// preallocated output buffer.
///
/// Arguments mirror [`crate::fused::fused_forward_into`]; `tile` is the
/// paper's `T` (positive). Output tiles are `tile` output channels ×
/// `tile × tile` output pixels; each worker stages the pre-pool full-width
/// activations for its spatial tile in its slot of `scratch`, exactly like
/// the shared-memory `tile[]` of Listing 1, and scatters the finished
/// block straight into `out`. `scratch` must hold [`breakdown`]'s total.
///
/// # Panics
/// Panics on channel mismatches, wrong `out` length, or short `scratch`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward(
    input: TensorView<'_>,
    lconv_w: &Tensor,
    lconv_b: Option<&[f32]>,
    act: ActKind,
    pool: Option<(PoolKind, usize, usize)>,
    fconv_w: Option<&Tensor>,
    fconv_b: Option<&[f32]>,
    tile: usize,
    out: &mut [f32],
    scratch: &mut [f32],
    slots_per_thread: usize,
) {
    let (n, c_red_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let c_full = lconv_w.dim(0);
    assert_eq!(lconv_w.dim(1), c_red_in, "tiled fused kernel: lconv input channels");
    if let Some(fw) = fconv_w {
        assert_eq!(fw.dim(1), c_full, "tiled fused kernel: fconv input channels");
    }
    let c_out = fconv_w.map_or(c_full, |fw| fw.dim(0));

    let (oh, ow, pk, ps) = match pool {
        Some((_, k, s)) => (conv_out_dim(h, k, s, 0), conv_out_dim(w, k, s, 0), k, s),
        None => (h, w, 1, 1),
    };
    let pool_kind = pool.map(|(kind, _, _)| kind);

    let lw = lconv_w.data();
    let fw = fconv_w.map(Tensor::data);
    let in_data = input.data();
    let in_plane = h * w;

    let out_plane = oh * ow;
    assert_eq!(out.len(), n * c_out * out_plane, "tiled fused output buffer length");

    // Tile grid over (c_out, oh, ow) — bz/by/bx of Listing 1 — times batch.
    let tiles_c = c_out.div_ceil(tile);
    let tiles_h = oh.div_ceil(tile);
    let tiles_w = ow.div_ceil(tile);
    let jobs = n * tiles_c * tiles_h * tiles_w;
    if jobs == 0 {
        return;
    }

    // Per-slot staging arenas at the largest tile's dimensions; edge tiles
    // use prefix slices. Workers claim jobs `slot, slot + slots, …`.
    let (th_max, tw_max) = (tile.min(oh), tile.min(ow));
    let (ih_max, iw_max) = ((th_max - 1) * ps + pk, (tw_max - 1) * ps + pk);
    let staged_max = c_full * ih_max * iw_max;
    let pooled_max = c_full * th_max * tw_max;
    let out_tile_max = if fw.is_some() { tile.min(c_out) * th_max * tw_max } else { 0 };
    let per_slot = staged_max + pooled_max + out_tile_max;
    let slots = fused_slots(jobs, slots_per_thread);
    assert!(
        scratch.len() >= slots * per_slot,
        "tiled fused scratch: need {} floats, got {}",
        slots * per_slot,
        scratch.len()
    );

    let out_ptr = SyncPtr(out.as_mut_ptr());
    scratch[..slots * per_slot].par_chunks_mut(per_slot).enumerate().for_each(|(slot, sc)| {
        let (staged_buf, rest_buf) = sc.split_at_mut(staged_max);
        let (pooled_buf, out_tile_buf) = rest_buf.split_at_mut(pooled_max);
        let mut job = slot;
        while job < jobs {
            let b = job / (tiles_c * tiles_h * tiles_w);
            let rest = job % (tiles_c * tiles_h * tiles_w);
            let tc = rest / (tiles_h * tiles_w);
            let th = (rest / tiles_w) % tiles_h;
            let tw = rest % tiles_w;

            let c0 = tc * tile;
            let c1 = (c0 + tile).min(c_out);
            let oh0 = th * tile;
            let oh1 = (oh0 + tile).min(oh);
            let ow0 = tw * tile;
            let ow1 = (ow0 + tile).min(ow);
            let (th_len, tw_len) = (oh1 - oh0, ow1 - ow0);

            // Pre-pool spatial footprint of this tile.
            let ih_len = (th_len - 1) * ps + pk;
            let iw_len = (tw_len - 1) * ps + pk;
            // Shared-memory analogue: full-width activations for the tile.
            let staged = &mut staged_buf[..c_full * ih_len * iw_len];
            for cf in 0..c_full {
                let wrow = &lw[cf * c_red_in..(cf + 1) * c_red_in];
                let bias = lconv_b.map_or(0.0, |bb| bb[cf]);
                for dy in 0..ih_len {
                    let iy = oh0 * ps + dy;
                    let dst = &mut staged[(cf * ih_len + dy) * iw_len..][..iw_len];
                    dst.fill(bias);
                    if iy >= h {
                        continue;
                    }
                    for (cr, &wv) in wrow.iter().enumerate() {
                        if wv == 0.0 {
                            continue;
                        }
                        let src_row = &in_data[(b * c_red_in + cr) * in_plane + iy * w..][..w];
                        for (dx, d) in dst.iter_mut().enumerate() {
                            let ix = ow0 * ps + dx;
                            if ix < w {
                                *d += wv * src_row[ix];
                            }
                        }
                    }
                    for d in dst.iter_mut() {
                        *d = act.apply(*d);
                    }
                }
            }
            // Pool within the staged tile.
            let pooled = &mut pooled_buf[..c_full * th_len * tw_len];
            match pool_kind {
                None => pooled.copy_from_slice(staged),
                Some(kind) => {
                    for cf in 0..c_full {
                        for y in 0..th_len {
                            for x in 0..tw_len {
                                let mut acc = match kind {
                                    PoolKind::Max => f32::NEG_INFINITY,
                                    PoolKind::Avg => 0.0,
                                };
                                for dy in 0..pk {
                                    for dx in 0..pk {
                                        let v = staged
                                            [(cf * ih_len + y * ps + dy) * iw_len + x * ps + dx];
                                        acc = match kind {
                                            PoolKind::Max => acc.max(v),
                                            PoolKind::Avg => acc + v,
                                        };
                                    }
                                }
                                if kind == PoolKind::Avg {
                                    acc /= (pk * pk) as f32;
                                }
                                pooled[(cf * th_len + y) * tw_len + x] = acc;
                            }
                        }
                    }
                }
            }
            // fconv over the tile's channel block (or pass-through straight
            // from the pooled staging — no copy).
            let plane = th_len * tw_len;
            let out_tile: &[f32] = match fw {
                None => &pooled[c0 * plane..c1 * plane],
                Some(fw) => {
                    let out_tile = &mut out_tile_buf[..(c1 - c0) * plane];
                    for (oi, co) in (c0..c1).enumerate() {
                        let dst = &mut out_tile[oi * plane..(oi + 1) * plane];
                        dst.fill(fconv_b.map_or(0.0, |bb| bb[co]));
                        let wrow = &fw[co * c_full..(co + 1) * c_full];
                        for (cf, &wv) in wrow.iter().enumerate() {
                            if wv == 0.0 {
                                continue;
                            }
                            let src = &pooled[cf * plane..(cf + 1) * plane];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += wv * s;
                            }
                        }
                    }
                    &out_tile_buf[..(c1 - c0) * plane]
                }
            };
            // Scatter this tile's block; tile regions are disjoint by
            // construction, so the shared pointer is sound.
            for (oi, co) in (c0..c1).enumerate() {
                for y in 0..th_len {
                    let src = &out_tile[(oi * th_len + y) * tw_len..][..tw_len];
                    let dst_off = (b * c_out + co) * out_plane + (oh0 + y) * ow + ow0;
                    unsafe {
                        std::ptr::copy_nonoverlapping(src.as_ptr(), out_ptr.add(dst_off), tw_len);
                    }
                }
            }
            job += slots;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{fused_forward, fused_scratch_breakdown};
    use crate::schedule::FusedSchedule;

    fn tiled(tile: usize) -> FusedSchedule {
        FusedSchedule { tile, ..FusedSchedule::DEFAULT }
    }

    fn agree(tile: usize, pool: Option<(PoolKind, usize, usize)>, act: ActKind, seed: u64) {
        let x = Tensor::randn(&[2, 3, 9, 11], seed);
        let lw = Tensor::randn(&[10, 3, 1, 1], seed ^ 1);
        let lb: Vec<f32> = (0..10).map(|i| i as f32 * 0.1).collect();
        let fw = Tensor::randn(&[4, 10, 1, 1], seed ^ 2);
        let fb = [0.5f32, -0.5, 0.25, 0.0];
        let run = |s| fused_forward(&x, &lw, Some(&lb), act, pool, Some(&fw), Some(&fb), s);
        let (a, b) = (run(FusedSchedule::DEFAULT), run(tiled(tile)));
        assert_eq!(a.shape(), b.shape());
        assert!(a.all_close(&b, 1e-4), "tile {tile} pool {pool:?}: diff {}", a.max_abs_diff(&b));
    }

    #[test]
    fn matches_strip_kernel_across_tile_sizes() {
        for tile in [1usize, 2, 3, 4, 8, 64] {
            agree(tile, None, ActKind::Relu, 7);
        }
    }

    #[test]
    fn matches_strip_kernel_with_pooling() {
        for tile in [1usize, 2, 3, 5] {
            agree(tile, Some((PoolKind::Max, 2, 2)), ActKind::Silu, 11);
            agree(tile, Some((PoolKind::Avg, 2, 2)), ActKind::Sigmoid, 13);
        }
    }

    #[test]
    fn matches_with_overlapping_pool() {
        for tile in [2usize, 4] {
            agree(tile, Some((PoolKind::Max, 3, 2)), ActKind::Relu, 17);
        }
    }

    #[test]
    fn restore_form_without_fconv() {
        let x = Tensor::randn(&[1, 2, 6, 6], 3);
        let lw = Tensor::randn(&[8, 2, 1, 1], 4);
        let run = |s| fused_forward(&x, &lw, None, ActKind::Tanh, None, None, None, s);
        let (a, b) = (run(FusedSchedule::DEFAULT), run(tiled(3)));
        assert!(a.all_close(&b, 1e-4));
        assert_eq!(b.shape(), &[1, 8, 6, 6]);
    }

    #[test]
    fn scratch_grows_quadratically_with_tile() {
        let per_slot = |tile| {
            fused_scratch_breakdown(1, 64, 64, 64, 64, Some((2, 2)), false, tiled(tile))
                .per_slot_floats
        };
        assert!(per_slot(8) > 10 * per_slot(2));
    }
}
