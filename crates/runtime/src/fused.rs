//! The fused `lconv → activation (→ pool) → fconv` kernel.
//!
//! CPU analogue of the paper's CUDA kernel (Listing 1). The defining
//! property is *what it does not allocate*: the full-channel tensors
//! `Output1`/`Input2` of Figure 3b never exist. Each rayon worker processes
//! one `(batch, output_row)` strip with a scratch buffer of
//! `c_full × pool_stride × w` floats — the shared-memory tile of the GPU
//! kernel — so peak memory is input (reduced) + output (reduced) + O(strip).
//!
//! Two kernel bodies compute the same function: the row-strip body here
//! and the Listing-1-faithful cubic tiled body (`fused_tiled.rs`). A
//! [`FusedSchedule`] picks one, and that choice is made in this module
//! only: [`fused_forward_into`] runs the body and [`fused_scratch_breakdown`]
//! sizes its scratch from the same schedule, so the planner's reservation
//! and the kernel's partitioning cannot disagree.

use rayon::prelude::*;
use temco_ir::{ActKind, PoolKind};
use temco_tensor::{conv_out_dim, with_tl_scratch, Tensor, TensorView};

use crate::fused_tiled;
use crate::schedule::FusedSchedule;

/// Worker-slot count for a fused kernel with `jobs` independent work
/// items: oversubscription of the thread count by `slots_per_thread` for
/// load balancing, never more slots than jobs. Shared by the scratch-size
/// formulas and the kernels so the planner reserves exactly what the
/// kernel partitions, for *any* slots-per-thread value.
pub(crate) fn fused_slots(jobs: usize, slots_per_thread: usize) -> usize {
    jobs.min(rayon::current_num_threads() * slots_per_thread.max(1)).max(1)
}

/// The strip-vs-tile choice, made here and nowhere else: `Some(tile)`
/// selects the cubic tiled body with that tile width, `None` the row-strip
/// body.
fn tiled_body(schedule: FusedSchedule) -> Option<usize> {
    (schedule.tile > 0).then_some(schedule.tile)
}

/// How a fused kernel partitions its planner-reserved scratch: `slots`
/// disjoint worker arenas of `per_slot_floats` floats each. The profiler
/// reports this decomposition so a node's scratch bytes can be read as
/// "N workers × strip size" rather than one opaque number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScratchBreakdown {
    /// Worker-slot count: the thread count times the schedule's
    /// `slots_per_thread`, capped at the number of jobs.
    pub slots: usize,
    /// Floats in one slot's arena (strip + pooled row + reduced row, or
    /// the tiled body's staged tile + pooled tile + output tile).
    pub per_slot_floats: usize,
}

impl ScratchBreakdown {
    /// Total scratch floats: `slots × per_slot_floats`.
    pub fn total_floats(&self) -> usize {
        self.slots * self.per_slot_floats
    }
}

/// Scratch decomposition of [`fused_forward_into`] under `schedule` for a
/// fused node with the given geometry; its total is the floats the kernel
/// needs. `pool` is `(kernel, stride)`; `has_fconv` mirrors whether the
/// reducing 1×1 follows. The allocation planner calls this with the node's
/// shapes and schedule, so the slab reserves exactly what the kernel
/// partitions into per-slot arenas.
#[allow(clippy::too_many_arguments)]
pub fn fused_scratch_breakdown(
    n: usize,
    h: usize,
    w: usize,
    c_full: usize,
    c_red_out: usize,
    pool: Option<(usize, usize)>,
    has_fconv: bool,
    schedule: FusedSchedule,
) -> ScratchBreakdown {
    let spt = schedule.slots_per_thread;
    if let Some(tile) = tiled_body(schedule) {
        return fused_tiled::breakdown(n, h, w, c_full, c_red_out, pool, tile, has_fconv, spt);
    }
    let (oh, ow, pk) = match pool {
        Some((k, s)) => (conv_out_dim(h, k, s, 0), conv_out_dim(w, k, s, 0), k),
        None => (h, w, 1),
    };
    let per_slot = c_full * pk * w + c_full * ow + if has_fconv { c_red_out * ow } else { 0 };
    ScratchBreakdown { slots: fused_slots(n * oh, spt), per_slot_floats: per_slot }
}

/// Execute the fused kernel under `schedule`, returning a fresh tensor;
/// working memory comes from a reusable thread-local buffer.
///
/// * `input`: reduced tensor `[n, c_red_in, h, w]` (the lconv's input);
/// * `lconv_w`: `[c_full, c_red_in, 1, 1]`, restoring;
/// * `act`: elementwise activation applied at full channel width;
/// * `pool`: optional `(kind, kernel, stride)` pooling between activation
///   and fconv (only `kernel == stride` windows occur in the zoo);
/// * `fconv_w`: `[c_red_out, c_full, 1, 1]`, reducing — or `None` for the
///   restore-kernel form, which emits the pooled full-width activation
///   directly (strip scratch only; the pre-pool full tensor never exists).
///
/// Returns `[n, c_red_out, oh, ow]` (or `[n, c_full, oh, ow]` without
/// fconv).
///
/// # Panics
/// Panics on channel mismatches.
#[allow(clippy::too_many_arguments)]
pub fn fused_forward(
    input: &Tensor,
    lconv_w: &Tensor,
    lconv_b: Option<&[f32]>,
    act: ActKind,
    pool: Option<(PoolKind, usize, usize)>,
    fconv_w: Option<&Tensor>,
    fconv_b: Option<&[f32]>,
    schedule: FusedSchedule,
) -> Tensor {
    let (n, h, w) = (input.dim(0), input.dim(2), input.dim(3));
    let c_full = lconv_w.dim(0);
    let c_red_out = fconv_w.map_or(c_full, |fw| fw.dim(0));
    let (oh, ow) = match pool {
        Some((_, k, s)) => (conv_out_dim(h, k, s, 0), conv_out_dim(w, k, s, 0)),
        None => (h, w),
    };
    let mut out = Tensor::zeros(&[n, c_red_out, oh, ow]);
    let geometry = pool.map(|(_, k, s)| (k, s));
    let floats =
        fused_scratch_breakdown(n, h, w, c_full, c_red_out, geometry, fconv_w.is_some(), schedule)
            .total_floats();
    with_tl_scratch(floats, |scratch| {
        fused_forward_into(
            input.view(),
            lconv_w,
            lconv_b,
            act,
            pool,
            fconv_w,
            fconv_b,
            out.data_mut(),
            scratch,
            schedule,
        );
    });
    out
}

/// [`fused_forward`] writing into a preallocated output buffer with
/// caller-provided working memory — the slab executor's entry point.
///
/// `scratch` must hold at least [`fused_scratch_breakdown`]`(…, schedule)`
/// total floats; it is partitioned into per-worker-slot arenas, so the
/// kernel performs no allocation at all. Each worker scatters its finished
/// strip (or tile) straight into the planned output slot.
///
/// # Panics
/// Panics on channel mismatches, wrong `out` length, or short `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn fused_forward_into(
    input: TensorView<'_>,
    lconv_w: &Tensor,
    lconv_b: Option<&[f32]>,
    act: ActKind,
    pool: Option<(PoolKind, usize, usize)>,
    fconv_w: Option<&Tensor>,
    fconv_b: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
    schedule: FusedSchedule,
) {
    let spt = schedule.slots_per_thread;
    match tiled_body(schedule) {
        Some(tile) => fused_tiled::forward(
            input, lconv_w, lconv_b, act, pool, fconv_w, fconv_b, tile, out, scratch, spt,
        ),
        None => {
            strip_forward(input, lconv_w, lconv_b, act, pool, fconv_w, fconv_b, out, scratch, spt)
        }
    }
}

/// The row-strip body: one work item per `(batch, pooled output row)`.
#[allow(clippy::too_many_arguments)]
fn strip_forward(
    input: TensorView<'_>,
    lconv_w: &Tensor,
    lconv_b: Option<&[f32]>,
    act: ActKind,
    pool: Option<(PoolKind, usize, usize)>,
    fconv_w: Option<&Tensor>,
    fconv_b: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
    slots_per_thread: usize,
) {
    let (n, c_red_in, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
    let c_full = lconv_w.dim(0);
    assert_eq!(lconv_w.dim(1), c_red_in, "fused kernel: lconv input channels");
    if let Some(fw) = fconv_w {
        assert_eq!(fw.dim(1), c_full, "fused kernel: fconv input channels");
    }
    let c_red_out = fconv_w.map_or(c_full, |fw| fw.dim(0));

    let (oh, ow, pk, ps) = match pool {
        Some((_, k, s)) => (conv_out_dim(h, k, s, 0), conv_out_dim(w, k, s, 0), k, s),
        None => (h, w, 1, 1),
    };
    let pool_kind = pool.map(|(kind, _, _)| kind);

    let out_plane = oh * ow;
    assert_eq!(out.len(), n * c_red_out * out_plane, "fused output buffer length");

    let lw = lconv_w.data();
    let fw = fconv_w.map(Tensor::data);
    let in_data = input.data();
    let in_plane = h * w;

    // One work item per (batch, pooled output row): compute the strip of
    // `pk` pre-pool rows at full channel width in scratch, activate, pool,
    // reduce, and scatter the finished row straight into the output slot.
    // Jobs write disjoint `(b, ·, orow, ·)` row sets, so the shared pointer
    // is sound; nothing proportional to the output is ever staged. Workers
    // draw their strip/row buffers from disjoint slots of `scratch`,
    // claiming jobs `slot, slot + slots, …` so every job maps to exactly
    // one slot.
    let jobs = n * oh;
    let strip_f = c_full * pk * w;
    let pooled_f = c_full * ow;
    let row_f = if fw.is_some() { c_red_out * ow } else { 0 };
    let per_slot = strip_f + pooled_f + row_f;
    let slots = fused_slots(jobs, slots_per_thread);
    assert!(
        scratch.len() >= slots * per_slot,
        "fused scratch: need {} floats, got {}",
        slots * per_slot,
        scratch.len()
    );
    let out_ptr = SyncPtr(out.as_mut_ptr());
    scratch[..slots * per_slot].par_chunks_mut(per_slot).enumerate().for_each(|(slot, sc)| {
        let (strip, rest) = sc.split_at_mut(strip_f);
        let (pooled, out_row) = rest.split_at_mut(pooled_f);
        let mut job = slot;
        while job < jobs {
            let b = job / oh;
            let orow = job % oh;
            // Strip: [c_full, pk, w] — the "tile" of Listing 1.
            let base_h = orow * ps;
            for cf in 0..c_full {
                let wrow = &lw[cf * c_red_in..(cf + 1) * c_red_in];
                let bias = lconv_b.map_or(0.0, |bb| bb[cf]);
                for dh in 0..pk {
                    let ih = base_h + dh;
                    let dst = &mut strip[(cf * pk + dh) * w..(cf * pk + dh + 1) * w];
                    dst.fill(bias);
                    if ih >= h {
                        continue;
                    }
                    for (cr, &wv) in wrow.iter().enumerate() {
                        if wv == 0.0 {
                            continue;
                        }
                        let src = &in_data[(b * c_red_in + cr) * in_plane + ih * w..][..w];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += wv * s;
                        }
                    }
                    // Activation at full channel width (cannot be reordered
                    // past fconv — Section 3.2).
                    for d in dst.iter_mut() {
                        *d = act.apply(*d);
                    }
                }
            }
            // Pool the strip down to one row per full channel: [c_full, ow].
            match pool_kind {
                None => {
                    for cf in 0..c_full {
                        pooled[cf * ow..(cf + 1) * ow]
                            .copy_from_slice(&strip[cf * pk * w..cf * pk * w + w]);
                    }
                }
                Some(kind) => {
                    for cf in 0..c_full {
                        for ocol in 0..ow {
                            let mut acc = match kind {
                                PoolKind::Max => f32::NEG_INFINITY,
                                PoolKind::Avg => 0.0,
                            };
                            for dh in 0..pk {
                                for dw in 0..pk {
                                    let v = strip[(cf * pk + dh) * w + ocol * ps + dw];
                                    acc = match kind {
                                        PoolKind::Max => acc.max(v),
                                        PoolKind::Avg => acc + v,
                                    };
                                }
                            }
                            if kind == PoolKind::Avg {
                                acc /= (pk * pk) as f32;
                            }
                            pooled[cf * ow + ocol] = acc;
                        }
                    }
                }
            }
            // fconv: reduce back down (restore kernels skip this and emit
            // the pooled full-width rows directly).
            let finished: &[f32] = match fw {
                None => &pooled[..],
                Some(fw) => {
                    for co in 0..c_red_out {
                        let dst = &mut out_row[co * ow..(co + 1) * ow];
                        dst.fill(fconv_b.map_or(0.0, |bb| bb[co]));
                        let wrow = &fw[co * c_full..(co + 1) * c_full];
                        for (cf, &wv) in wrow.iter().enumerate() {
                            if wv == 0.0 {
                                continue;
                            }
                            let src = &pooled[cf * ow..(cf + 1) * ow];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d += wv * s;
                            }
                        }
                    }
                    &out_row[..]
                }
            };
            // Scatter this job's rows; no other job touches them.
            for co in 0..c_red_out {
                let dst_off = (b * c_red_out + co) * out_plane + orow * ow;
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        finished[co * ow..].as_ptr(),
                        out_ptr.add(dst_off),
                        ow,
                    );
                }
            }
            job += slots;
        }
    });
}

/// Shared mutable output pointer for parallel scatter over disjoint
/// regions (also used by the tiled kernel variant).
pub(crate) struct SyncPtr(pub(crate) *mut f32);
unsafe impl Send for SyncPtr {}
unsafe impl Sync for SyncPtr {}

impl SyncPtr {
    /// Offset the shared pointer. Going through a method (rather than field
    /// access) makes closures capture the whole `Sync` wrapper, not the raw
    /// pointer field.
    ///
    /// # Safety
    /// Same contract as [`pointer::add`]; the caller must also guarantee the
    /// region written through the result is not accessed concurrently.
    pub(crate) unsafe fn add(&self, offset: usize) -> *mut f32 {
        self.0.add(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_tensor::{avg_pool2d, conv2d, max_pool2d, Conv2dParams};

    fn reference(
        input: &Tensor,
        lconv_w: &Tensor,
        lconv_b: Option<&[f32]>,
        act: ActKind,
        pool: Option<(PoolKind, usize, usize)>,
        fconv_w: Option<&Tensor>,
        fconv_b: Option<&[f32]>,
    ) -> Tensor {
        let p = Conv2dParams::default();
        let full = conv2d(input, lconv_w, lconv_b, &p);
        let acted = act.forward(&full);
        let pooled = match pool {
            Some((PoolKind::Max, k, s)) => max_pool2d(&acted, k, s),
            Some((PoolKind::Avg, k, s)) => avg_pool2d(&acted, k, s),
            None => acted,
        };
        match fconv_w {
            Some(fw) => conv2d(&pooled, fw, fconv_b, &p),
            None => pooled,
        }
    }

    #[test]
    fn matches_unfused_no_pool() {
        let x = Tensor::randn(&[2, 3, 6, 7], 1);
        let lw = Tensor::randn(&[10, 3, 1, 1], 2);
        let fw = Tensor::randn(&[4, 10, 1, 1], 3);
        let got = fused_forward(
            &x,
            &lw,
            None,
            ActKind::Relu,
            None,
            Some(&fw),
            None,
            FusedSchedule::DEFAULT,
        );
        let want = reference(&x, &lw, None, ActKind::Relu, None, Some(&fw), None);
        assert!(got.all_close(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn matches_unfused_with_biases() {
        let x = Tensor::randn(&[1, 5, 4, 4], 4);
        let lw = Tensor::randn(&[8, 5, 1, 1], 5);
        let lb: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
        let fw = Tensor::randn(&[3, 8, 1, 1], 6);
        let fb = [0.5f32, -0.25, 1.0];
        let got = fused_forward(
            &x,
            &lw,
            Some(&lb),
            ActKind::Silu,
            None,
            Some(&fw),
            Some(&fb),
            FusedSchedule::DEFAULT,
        );
        let want = reference(&x, &lw, Some(&lb), ActKind::Silu, None, Some(&fw), Some(&fb));
        assert!(got.all_close(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn matches_unfused_with_maxpool() {
        let x = Tensor::randn(&[2, 4, 8, 8], 7);
        let lw = Tensor::randn(&[12, 4, 1, 1], 8);
        let fw = Tensor::randn(&[5, 12, 1, 1], 9);
        let pool = Some((PoolKind::Max, 2, 2));
        let got = fused_forward(
            &x,
            &lw,
            None,
            ActKind::Relu,
            pool,
            Some(&fw),
            None,
            FusedSchedule::DEFAULT,
        );
        let want = reference(&x, &lw, None, ActKind::Relu, pool, Some(&fw), None);
        assert_eq!(got.shape(), &[2, 5, 4, 4]);
        assert!(got.all_close(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn matches_unfused_with_avgpool() {
        let x = Tensor::randn(&[1, 6, 6, 6], 10);
        let lw = Tensor::randn(&[9, 6, 1, 1], 11);
        let fw = Tensor::randn(&[2, 9, 1, 1], 12);
        let pool = Some((PoolKind::Avg, 2, 2));
        let got = fused_forward(
            &x,
            &lw,
            None,
            ActKind::Sigmoid,
            pool,
            Some(&fw),
            None,
            FusedSchedule::DEFAULT,
        );
        let want = reference(&x, &lw, None, ActKind::Sigmoid, pool, Some(&fw), None);
        assert!(got.all_close(&want, 1e-4), "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn odd_height_with_pool_ignores_trailing_row() {
        // 7 rows with 2×2/2 pooling → 3 output rows; row 6 unused.
        let x = Tensor::randn(&[1, 2, 7, 7], 13);
        let lw = Tensor::randn(&[4, 2, 1, 1], 14);
        let fw = Tensor::randn(&[2, 4, 1, 1], 15);
        let pool = Some((PoolKind::Max, 2, 2));
        let got = fused_forward(
            &x,
            &lw,
            None,
            ActKind::Relu,
            pool,
            Some(&fw),
            None,
            FusedSchedule::DEFAULT,
        );
        let want = reference(&x, &lw, None, ActKind::Relu, pool, Some(&fw), None);
        assert_eq!(got.shape(), &[1, 2, 3, 3]);
        assert!(got.all_close(&want, 1e-4));
    }

    #[test]
    fn scratch_is_strip_sized() {
        // 512 full channels, stride-2 pool, width 224: ~1.1 MiB per worker —
        // versus 512·224·224·4 ≈ 98 MiB for the materialized intermediate.
        let bd = fused_scratch_breakdown(
            1,
            224,
            224,
            512,
            512,
            Some((2, 2)),
            false,
            FusedSchedule::DEFAULT,
        );
        assert!(bd.per_slot_floats * std::mem::size_of::<f32>() < 2 * 1024 * 1024);
    }
}
