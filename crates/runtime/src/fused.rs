//! The fused `lconv → activation (→ pool) → fconv` kernel.
//!
//! CPU analogue of the paper's CUDA kernel (Listing 1). The defining
//! property is *what it does not allocate*: the full-channel tensors
//! `Output1`/`Input2` of Figure 3b never exist. The kernel has one body,
//! whose work item is a *job tile* of the output: a batch index × a block
//! of pooled rows × a block of pooled columns × a block of output
//! channels. Each worker stages the tile's pre-pool activations at full
//! channel width in its slot of scratch — the shared-memory `tile[]` of
//! Listing 1 — pools and reduces them, and scatters the finished block
//! straight into the output, so peak memory is input (reduced) + output
//! (reduced) + O(tile) per worker.
//!
//! The tile is data, derived from the node's [`FusedSchedule`]:
//! `tile == 0` is the row strip (one pooled row × every column × every
//! output channel, staging whole input rows), and `tile == T` is
//! Listing 1's `T×T×T` tile. Small tiles bound scratch but repeat the
//! `lconv` reduction more often; large tiles amortize it at larger
//! scratch (`cargo bench -p temco-bench --bench fused_kernel`). Every tile
//! size accumulates each output element in the same order, so outputs
//! are bit-identical across schedules. [`fused_forward_into`] runs the
//! body and [`fused_scratch_breakdown`] sizes its scratch from the same
//! partition of the output, so the planner's reservation and the kernel's
//! partitioning cannot disagree.

use rayon::prelude::*;
use temco_ir::{ActKind, FusedGeometry, PoolKind};
use temco_tensor::{with_tl_scratch, Tensor, TensorView};

use crate::schedule::FusedSchedule;

/// Pre-pool rows (or columns) that `out` consecutive pooled rows (or
/// columns) read.
fn footprint(geo: &FusedGeometry, out: usize) -> usize {
    (out - 1) * geo.ps + geo.pk
}

/// How the body splits a node's output into job tiles, and the worker
/// arena the largest tile needs (edge tiles use prefixes of it).
#[derive(Default)]
struct Partition {
    /// `tile == 0`: stage whole input rows rather than a tile's footprint.
    strip: bool,
    /// Job tile extent: output channels, pooled rows, pooled columns.
    tile: [usize; 3],
    /// Tiles along output channels, pooled rows and pooled columns.
    grid: [usize; 3],
    /// Jobs: batch × every tile of the grid.
    jobs: usize,
    /// Per-slot floats of the staged pre-pool activations `[c_full, rows, width]`.
    staged: usize,
    /// Per-slot floats of the pooled tile `[c_full, rows, cols]` (pool
    /// only: without one, the staged activations are the pooled tile).
    pooled: usize,
    /// Per-slot floats of the reduced tile `[channels, rows, cols]` (fconv only).
    reduced: usize,
}

impl Partition {
    fn new(geo: &FusedGeometry, tile: usize) -> Partition {
        if geo.out_shape().contains(&0) {
            return Partition::default();
        }
        let strip = tile == 0;
        let [tc, th, tw] = if strip { [geo.c_out, 1, geo.ow] } else { [tile; 3] };
        let grid = [geo.c_out.div_ceil(tc), geo.oh.div_ceil(th), geo.ow.div_ceil(tw)];
        let (rows, cols) = (th.min(geo.oh), tw.min(geo.ow));
        let width = if strip { geo.w } else { footprint(geo, cols) };
        Partition {
            strip,
            tile: [tc, th, tw],
            grid,
            jobs: geo.n * grid.iter().product::<usize>(),
            staged: geo.c_full * footprint(geo, rows) * width,
            pooled: if geo.pool { geo.c_full * rows * cols } else { 0 },
            reduced: if geo.fconv { tc.min(geo.c_out) * rows * cols } else { 0 },
        }
    }

    /// Worker slots (the thread count oversubscribed by
    /// `slots_per_thread`, never more than the jobs) and each one's arena.
    fn breakdown(&self, slots_per_thread: usize) -> ScratchBreakdown {
        if self.jobs == 0 {
            return ScratchBreakdown { slots: 0, per_slot_floats: 0 };
        }
        ScratchBreakdown {
            slots: self.jobs.min(rayon::current_num_threads() * slots_per_thread.max(1)),
            per_slot_floats: self.staged + self.pooled + self.reduced,
        }
    }
}

/// How a fused kernel partitions its planner-reserved scratch: `slots`
/// disjoint worker arenas of `per_slot_floats` floats each. The profiler
/// reports this decomposition so a node's scratch bytes can be read as
/// "N workers × tile size" rather than one opaque number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScratchBreakdown {
    /// Worker-slot count: the thread count times the schedule's
    /// `slots_per_thread`, capped at the number of jobs.
    pub slots: usize,
    /// Floats in one slot's arena: staged activations + pooled tile +
    /// reduced tile.
    pub per_slot_floats: usize,
}

impl ScratchBreakdown {
    /// Total scratch floats: `slots × per_slot_floats`.
    pub fn total_floats(&self) -> usize {
        self.slots * self.per_slot_floats
    }
}

/// Scratch decomposition of [`fused_forward_into`] under `schedule` for a
/// fused node of geometry `geo`; its total is the floats the kernel needs.
/// The allocation planner calls this with the node's geometry and
/// schedule, so the slab reserves exactly what the kernel partitions into
/// per-slot arenas. A node with an empty output needs none.
pub fn fused_scratch_breakdown(geo: &FusedGeometry, schedule: FusedSchedule) -> ScratchBreakdown {
    Partition::new(geo, schedule.tile).breakdown(schedule.slots_per_thread)
}

/// The geometry the kernel arguments describe.
fn geometry(
    input: &[usize],
    lconv_w: &Tensor,
    pool: Option<(PoolKind, usize, usize)>,
    fconv_w: Option<&Tensor>,
) -> FusedGeometry {
    FusedGeometry::new(
        input,
        lconv_w.dim(0),
        fconv_w.map(|fw| fw.dim(0)),
        pool.map(|(_, k, s)| (k, s)),
    )
}

/// Execute the fused kernel under `schedule`, returning a fresh tensor;
/// working memory comes from a reusable thread-local buffer.
///
/// * `input`: reduced tensor `[n, c_red_in, h, w]` (the lconv's input);
/// * `lconv_w`: `[c_full, c_red_in, 1, 1]`, restoring;
/// * `act`: elementwise activation applied at full channel width;
/// * `pool`: optional `(kind, kernel, stride)` pooling between activation
///   and fconv;
/// * `fconv_w`: `[c_red_out, c_full, 1, 1]`, reducing — or `None` for the
///   restore-kernel form, which emits the pooled full-width activation
///   directly (tile scratch only; the pre-pool full tensor never exists).
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
    let geo = geometry(input.shape(), lconv_w, pool, fconv_w);
    let mut out = Tensor::zeros(&geo.out_shape());
    let floats = fused_scratch_breakdown(&geo, schedule).total_floats();
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
/// tile straight into the planned output slot.
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
    let geo = geometry(input.shape(), lconv_w, pool, fconv_w);
    let FusedGeometry { c_in, c_full, c_out, h, w, oh, ow, pk, ps, .. } = geo;
    assert_eq!(lconv_w.dim(1), c_in, "fused kernel: lconv input channels");
    if let Some(fw) = fconv_w {
        assert_eq!(fw.dim(1), c_full, "fused kernel: fconv input channels");
    }
    let out_plane = oh * ow;
    assert_eq!(out.len(), geo.n * c_out * out_plane, "fused output buffer length");

    let part = Partition::new(&geo, schedule.tile);
    let Partition { strip, tile: [tc, th, tw], grid: [gc, gh, gw], jobs, .. } = part;
    let ScratchBreakdown { slots, per_slot_floats: per_slot } =
        part.breakdown(schedule.slots_per_thread);
    if jobs == 0 {
        return;
    }
    // `oh` and `ow` come from `conv_out_dim(·, pk, ps, 0)`, so every
    // staged row and column lies inside the input.
    debug_assert!(footprint(&geo, oh) <= h && footprint(&geo, ow) <= w);
    assert!(
        scratch.len() >= slots * per_slot,
        "fused scratch: need {} floats, got {}",
        slots * per_slot,
        scratch.len()
    );

    let pool_kind = pool.map(|(kind, _, _)| kind);
    let lw = lconv_w.data();
    let fw = fconv_w.map(Tensor::data);
    let in_data = input.data();
    let in_plane = h * w;

    // Jobs run batch-major over the tile grid (channel blocks, then row
    // blocks, then column blocks — bz/by/bx of Listing 1). Jobs write
    // disjoint output blocks, so the shared pointer is sound; nothing
    // proportional to the output is ever staged. Worker slots claim jobs
    // `slot, slot + slots, …`, so every job maps to exactly one slot.
    let out_ptr = SyncPtr(out.as_mut_ptr());
    scratch[..slots * per_slot].par_chunks_mut(per_slot).enumerate().for_each(|(slot, sc)| {
        let (staged_buf, rest) = sc.split_at_mut(part.staged);
        let (pooled_buf, reduced_buf) = rest.split_at_mut(part.pooled);
        let mut job = slot;
        while job < jobs {
            let b = job / (gc * gh * gw);
            let rest = job % (gc * gh * gw);
            let c0 = rest / (gh * gw) * tc;
            let oh0 = (rest / gw) % gh * th;
            let ow0 = rest % gw * tw;
            let (c1, rows, cols) = ((c0 + tc).min(c_out), th.min(oh - oh0), tw.min(ow - ow0));

            // Stage the tile's pre-pool activations at full channel width:
            // `[c_full, staged_h, staged_w]`, read from input column
            // `ow0 * ps` on. The strip stages whole input rows.
            let staged_h = footprint(&geo, rows);
            let staged_w = if strip { w } else { footprint(&geo, cols) };
            let staged = &mut staged_buf[..c_full * staged_h * staged_w];
            for cf in 0..c_full {
                let wrow = &lw[cf * c_in..(cf + 1) * c_in];
                let bias = lconv_b.map_or(0.0, |bb| bb[cf]);
                for dy in 0..staged_h {
                    let row = (oh0 * ps + dy) * w + ow0 * ps;
                    let dst = &mut staged[(cf * staged_h + dy) * staged_w..][..staged_w];
                    dst.fill(bias);
                    for (cr, &wv) in wrow.iter().enumerate() {
                        if wv == 0.0 {
                            continue;
                        }
                        let src = &in_data[(b * c_in + cr) * in_plane + row..][..staged_w];
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
            // Pool down to `[c_full, rows, cols]`. Without a pool the staged
            // activations already have that layout.
            let plane = rows * cols;
            let pooled: &[f32] = match pool_kind {
                None => staged,
                Some(kind) => {
                    let pooled = &mut pooled_buf[..c_full * plane];
                    for cf in 0..c_full {
                        for y in 0..rows {
                            for x in 0..cols {
                                let mut acc = match kind {
                                    PoolKind::Max => f32::NEG_INFINITY,
                                    PoolKind::Avg => 0.0,
                                };
                                for dy in 0..pk {
                                    let src = &staged[(cf * staged_h + y * ps + dy) * staged_w..];
                                    for &v in &src[x * ps..x * ps + pk] {
                                        acc = match kind {
                                            PoolKind::Max => acc.max(v),
                                            PoolKind::Avg => acc + v,
                                        };
                                    }
                                }
                                if kind == PoolKind::Avg {
                                    acc /= (pk * pk) as f32;
                                }
                                pooled[(cf * rows + y) * cols + x] = acc;
                            }
                        }
                    }
                    pooled
                }
            };
            // fconv over the tile's channel block (restore kernels emit the
            // pooled full-width block directly).
            let finished: &[f32] = match fw {
                None => &pooled[c0 * plane..c1 * plane],
                Some(fw) => {
                    let reduced = &mut reduced_buf[..(c1 - c0) * plane];
                    for (oi, co) in (c0..c1).enumerate() {
                        let dst = &mut reduced[oi * plane..(oi + 1) * plane];
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
                    reduced
                }
            };
            // Scatter this job's block; no other job touches it.
            for (oi, co) in (c0..c1).enumerate() {
                for y in 0..rows {
                    let src = &finished[(oi * rows + y) * cols..][..cols];
                    let dst_off = (b * c_out + co) * out_plane + (oh0 + y) * ow + ow0;
                    // SAFETY: `co < c_out`, `oh0 + y < oh` and `ow0 + cols <=
                    // ow`, so the row lies inside `out` (its length is
                    // asserted above); the row belongs to this job's block
                    // alone, and each job runs on exactly one slot.
                    unsafe {
                        std::ptr::copy_nonoverlapping(src.as_ptr(), out_ptr.add(dst_off), cols);
                    }
                }
            }
            job += slots;
        }
    });
}

/// Shared mutable output pointer for parallel scatter over disjoint
/// regions.
struct SyncPtr(*mut f32);
// SAFETY: the one field points into the output buffer, which outlives the
// parallel loop; workers write through it only to disjoint job blocks.
unsafe impl Send for SyncPtr {}
// SAFETY: as for `Send`: shared use only writes disjoint regions.
unsafe impl Sync for SyncPtr {}

impl SyncPtr {
    /// Offset the shared pointer. Going through a method (rather than field
    /// access) makes closures capture the whole `Sync` wrapper, not the raw
    /// pointer field.
    ///
    /// # Safety
    /// Same contract as [`pointer::add`]; the caller must also guarantee the
    /// region written through the result is not accessed concurrently.
    unsafe fn add(&self, offset: usize) -> *mut f32 {
        self.0.add(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_tensor::{avg_pool2d, conv2d, max_pool2d, Conv2dParams};

    #[test]
    fn matches_the_unfused_chain() {
        let p = Conv2dParams::default();
        // (input shape, c_full, c_out, act, pool, biased)
        let cases = [
            ([2, 3, 6, 7], 10, 4, ActKind::Relu, None, false),
            ([1, 5, 4, 4], 8, 3, ActKind::Silu, None, true),
            ([2, 4, 8, 8], 12, 5, ActKind::Relu, Some((PoolKind::Max, 2, 2)), false),
            ([1, 6, 6, 6], 9, 2, ActKind::Sigmoid, Some((PoolKind::Avg, 2, 2)), false),
            // 7 rows under 2×2/2 pooling → 3 output rows; row 6 unused.
            ([1, 2, 7, 7], 4, 2, ActKind::Relu, Some((PoolKind::Max, 2, 2)), false),
        ];
        for (seed, (shape, c_full, c_out, act, pool, biased)) in (1u64..).step_by(3).zip(cases) {
            let x = Tensor::randn(&shape, seed);
            let lw = Tensor::randn(&[c_full, shape[1], 1, 1], seed + 1);
            let fw = Tensor::randn(&[c_out, c_full, 1, 1], seed + 2);
            let lb: Vec<f32> = (0..c_full).map(|i| i as f32 * 0.3 - 1.0).collect();
            let fb: Vec<f32> = (0..c_out).map(|i| 0.5 - i as f32 * 0.25).collect();
            let (lb, fb) = if biased { (Some(&lb[..]), Some(&fb[..])) } else { (None, None) };
            let got = fused_forward(&x, &lw, lb, act, pool, Some(&fw), fb, FusedSchedule::DEFAULT);
            let full = act.forward(&conv2d(&x, &lw, lb, &p));
            let pooled = match pool {
                Some((PoolKind::Max, k, s)) => max_pool2d(&full, k, s),
                Some((PoolKind::Avg, k, s)) => avg_pool2d(&full, k, s),
                None => full,
            };
            let want = conv2d(&pooled, &fw, fb, &p);
            assert_eq!(got.shape(), want.shape());
            assert!(got.all_close(&want, 1e-4), "{shape:?}: diff {}", got.max_abs_diff(&want));
        }
    }

    fn tiled(tile: usize) -> FusedSchedule {
        FusedSchedule { tile, ..FusedSchedule::DEFAULT }
    }

    #[test]
    fn every_tile_size_matches_the_strip_bit_for_bit() {
        let x = Tensor::randn(&[2, 3, 9, 11], 7);
        let lw = Tensor::randn(&[10, 3, 1, 1], 8);
        let lb: Vec<f32> = (0..10).map(|i| i as f32 * 0.1).collect();
        let fw = Tensor::randn(&[4, 10, 1, 1], 9);
        let fb = [0.5f32, -0.5, 0.25, 0.0];
        let pools = [
            None,
            Some((PoolKind::Max, 2, 2)),
            Some((PoolKind::Avg, 2, 2)),
            Some((PoolKind::Max, 3, 2)), // overlapping windows
        ];
        for (pool, act) in
            pools.into_iter().zip([ActKind::Relu, ActKind::Silu, ActKind::Sigmoid, ActKind::Tanh])
        {
            for fconv in [Some(&fw), None] {
                let fb = fconv.map(|_| &fb[..]);
                let run = |s| fused_forward(&x, &lw, Some(&lb), act, pool, fconv, fb, s);
                let strip = run(FusedSchedule::DEFAULT);
                for tile in [1usize, 2, 3, 4, 5, 8, 64] {
                    let got = run(tiled(tile));
                    assert_eq!(got.shape(), strip.shape());
                    assert!(
                        got.data() == strip.data(),
                        "tile {tile} pool {pool:?} fconv {}",
                        fconv.is_some()
                    );
                }
            }
        }
    }

    fn geometry_of(
        n: usize,
        h: usize,
        w: usize,
        c_full: usize,
        pool: Option<(usize, usize)>,
    ) -> FusedGeometry {
        FusedGeometry::new(&[n, 3, h, w], c_full, None, pool)
    }

    #[test]
    fn scratch_breakdown_is_pinned() {
        // (n, h, w, c_full, c_out, pool, fconv, tile) → (jobs, per-slot
        // floats), pinned from the separate strip and tiled bodies' formulas
        // that the one body replaced; the rows without a pool reserve no
        // pooled arena (`c_full × rows × cols` less than those formulas).
        // An oversubscription beyond the job count makes `slots` the job
        // count on any machine.
        type Row =
            (usize, usize, usize, usize, usize, Option<(usize, usize)>, bool, usize, usize, usize);
        #[rustfmt::skip]
        let table: &[Row] = &[
            (1, 8, 8, 16, 4, None, true, 0, 8, 160),
            (1, 8, 8, 16, 4, None, true, 1, 256, 17),
            (1, 8, 8, 16, 4, None, true, 3, 18, 171),
            (1, 8, 8, 16, 4, None, true, 8, 1, 1280),
            (2, 8, 8, 16, 4, Some((2, 2)), true, 0, 8, 336),
            (2, 8, 8, 16, 4, Some((2, 2)), true, 1, 128, 81),
            (2, 8, 8, 16, 4, Some((2, 2)), true, 3, 16, 747),
            (2, 8, 8, 16, 4, Some((2, 2)), true, 8, 2, 1344),
            // Odd width under 2×2/2: the strip still stages all 11 columns.
            (1, 9, 11, 10, 4, Some((2, 2)), true, 0, 4, 290),
            (1, 9, 11, 10, 4, Some((2, 2)), true, 1, 80, 51),
            (1, 9, 11, 10, 4, Some((2, 2)), true, 3, 8, 477),
            (1, 9, 11, 10, 4, Some((2, 2)), true, 8, 1, 1080),
            (1, 9, 11, 10, 10, Some((2, 2)), false, 0, 4, 270),
            (1, 9, 11, 10, 10, Some((2, 2)), false, 1, 200, 50),
            (1, 9, 11, 10, 10, Some((2, 2)), false, 3, 16, 450),
            (1, 9, 11, 10, 10, Some((2, 2)), false, 8, 2, 1000),
            (1, 7, 7, 12, 12, None, false, 0, 7, 84),
            (1, 7, 7, 12, 12, None, false, 1, 588, 12),
            (1, 7, 7, 12, 12, None, false, 3, 36, 108),
            (1, 7, 7, 12, 12, None, false, 8, 2, 588),
            (2, 13, 13, 24, 6, Some((3, 2)), true, 0, 12, 1116),
            (2, 13, 13, 24, 6, Some((3, 2)), true, 1, 432, 241),
            (2, 13, 13, 24, 6, Some((3, 2)), true, 3, 16, 1419),
            (2, 13, 13, 24, 6, Some((3, 2)), true, 8, 2, 5136),
            (1, 56, 56, 64, 16, None, true, 0, 56, 4480),
            (1, 56, 56, 64, 16, None, true, 1, 50176, 65),
            (1, 56, 56, 64, 16, None, true, 3, 2166, 603),
            (1, 56, 56, 64, 16, None, true, 8, 98, 4608),
        ];
        for &(n, h, w, c_full, c_out, pool, fconv, tile, jobs, per_slot) in table {
            let geo = FusedGeometry::new(&[n, 3, h, w], c_full, fconv.then_some(c_out), pool);
            let sched = FusedSchedule { slots_per_thread: 1 << 20, tile };
            let bd = fused_scratch_breakdown(&geo, sched);
            assert_eq!((bd.slots, bd.per_slot_floats), (jobs, per_slot), "{geo:?} tile {tile}");
            let one = fused_scratch_breakdown(&geo, FusedSchedule { slots_per_thread: 1, tile });
            assert_eq!(one.slots, jobs.min(rayon::current_num_threads()));
        }
    }

    #[test]
    fn scratch_is_tile_sized() {
        // 512 full channels, stride-2 pool, width 224: ~1.1 MiB per worker
        // strip — versus 512·224·224·4 ≈ 98 MiB for the materialized
        // intermediate.
        let geo = geometry_of(1, 224, 224, 512, Some((2, 2)));
        let bd = fused_scratch_breakdown(&geo, FusedSchedule::DEFAULT);
        assert!(bd.per_slot_floats * std::mem::size_of::<f32>() < 2 * 1024 * 1024);
        // Tiles bound scratch quadratically in the tile width.
        let geo = geometry_of(1, 64, 64, 64, Some((2, 2)));
        let per_slot = |tile| fused_scratch_breakdown(&geo, tiled(tile)).per_slot_floats;
        assert!(per_slot(8) > 10 * per_slot(2));
    }
}
