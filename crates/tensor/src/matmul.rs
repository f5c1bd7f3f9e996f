//! Cache-blocked, packed single-precision matrix multiply.
//!
//! The kernel follows the classic Goto/BLIS decomposition: the iteration
//! space is tiled into `MC×KC` A-panels and `KC×NC` B-panels that are
//! **packed** into contiguous scratch (zero-padded to `MR`/`NR` multiples
//! so the inner loop never sees a tail), and a register-tiled `MR×NR`
//! microkernel runs over the packed panels. Packing turns the strided
//! accesses of row-major (or transposed) operands into unit-stride streams
//! the microkernel consumes at one load per `MR`/`NR` values, which is
//! what lifts arithmetic intensity past the memory wall — the previous
//! unblocked i-k-j loop re-streamed the whole `B` matrix from L2 for every
//! output row.
//!
//! The hot loop is **branch-free**: the old data-dependent
//! `if av == 0.0 { continue }` skip (a mispredict machine on dense data)
//! is gone; zero handling falls out of the arithmetic.
//!
//! Parallelism splits the output into per-worker row×column slots, each
//! with a private pack buffer carved from the caller's scratch — workers
//! never share panels, so no synchronization is needed inside a GEMM.
//!
//! The microkernel is ISA-dispatched once per call: an AVX2+FMA variant
//! (runtime-detected, 8-wide FMA with the k-loop unrolled across eight
//! accumulator chains) with an SSE2-intrinsics fallback that is always
//! available on x86-64, and a portable autovectorized form elsewhere.
//!
//! There is one entry point, [`gemm`]: `out += op(A) · op(B)`, where a
//! flag per operand says whether it is stored row-major or transposed
//! (the storage differs only in packing-time indexing; the microkernel is
//! shared). It takes its pack buffer of [`gemm_scratch_floats`] floats and
//! its [`GemmSchedule`] from the caller — the slab executor hands it
//! planned scratch, so steady-state inference performs **zero heap
//! allocations**. [`sgemm`] is the row-major convenience form under the
//! default schedule, borrowing a thread-local buffer that is grown once
//! and reused.

use crate::schedule::GemmSchedule;
use rayon::prelude::*;
use std::cell::RefCell;

/// Microkernel register-tile rows. With `NR = 8` the accumulator block is
/// eight 4-wide xmm vectors on baseline x86-64, or four ymm vectors (one
/// per row) under AVX2 — both within the 16 vector registers.
pub const MR: usize = 4;
/// Microkernel register-tile columns (one ymm / two xmm vectors wide).
pub const NR: usize = 8;
// The microkernel bodies name their MR accumulators explicitly and the
// AVX2 variant loads exactly one ymm per packed B step.
const _: () = assert!(MR == 4 && NR == 8);
// The cache-blocking panel depths (the former `KC`/`MC`/`NC` constants)
// are now runtime data: [`GemmSchedule`], default
// [`GemmSchedule::DEFAULT`]. The register tile above stays fixed.

/// Below this many multiply-adds the packed pipeline's setup cost beats
/// its cache wins; a straight serial loop runs instead (and needs no
/// scratch — [`gemm_scratch_floats`] returns 0).
const SMALL_FLOPS: usize = 16 * 16 * 16;

/// How `A` is stored: row-major `[m×k]` or transposed `[k×m]`.
#[derive(Clone, Copy)]
enum AStore {
    RowMajor,
    Transposed,
}

/// How `B` is stored: row-major `[k×n]` or transposed `[n×k]`.
#[derive(Clone, Copy)]
enum BStore {
    RowMajor,
    Transposed,
}

/// Shared mutable base pointer for handing disjoint output/scratch regions
/// to parallel workers.
pub(crate) struct SyncPtr(pub *mut f32);
unsafe impl Send for SyncPtr {}
unsafe impl Sync for SyncPtr {}

impl SyncPtr {
    /// # Safety
    /// Same contract as [`pointer::add`]; callers must also guarantee that
    /// memory reached through the result is not accessed concurrently.
    pub(crate) unsafe fn add(&self, offset: usize) -> *mut f32 {
        self.0.add(offset)
    }
}

const fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Blocking geometry for one GEMM call: the worker grid and the pack
/// buffer capacities each worker slot owns. Deterministic in
/// `(m, k, n, threads)` — the planner sizes scratch with the same function
/// the kernel partitions it with.
#[derive(Clone, Copy)]
struct GemmDims {
    row_slots: usize,
    col_slots: usize,
    /// K-panel depth actually used (`min(k, KC)`).
    kc: usize,
    /// A-pack row capacity, a multiple of `MR`.
    mcb: usize,
    /// B-pack column capacity, a multiple of `NR`.
    ncb: usize,
    /// Scratch floats per worker slot: one A pack + one B pack.
    per_slot: usize,
}

fn gemm_dims(m: usize, k: usize, n: usize, threads: usize, s: GemmSchedule) -> GemmDims {
    let s = s.normalized();
    let threads = threads.max(1);
    // Columns first: the big dimension in conv workloads is the output
    // plane (n); rows absorb leftover parallelism for tall problems.
    let col_slots = threads.min(n.div_ceil(NR)).max(1);
    let row_slots = (threads / col_slots).min(m.div_ceil(MR)).max(1);
    let kc = k.clamp(1, s.kc);
    let row_span = m.div_ceil(row_slots);
    let col_span = n.div_ceil(col_slots);
    let mcb = round_up(row_span.clamp(1, s.mc), MR);
    let ncb = round_up(col_span.clamp(1, s.nc), NR);
    GemmDims { row_slots, col_slots, kc, mcb, ncb, per_slot: kc * (mcb + ncb) }
}

/// Pack-buffer floats a `(m, k, n)` [`gemm`] needs on this host under
/// `schedule` — the same function the kernel partitions scratch with, so
/// planner and kernel cannot disagree for *any* schedule value.
/// Deterministic given shapes, schedule and `rayon::current_num_threads()`.
pub fn gemm_scratch_floats(m: usize, k: usize, n: usize, schedule: GemmSchedule) -> usize {
    if m == 0 || n == 0 || k == 0 || m * k * n <= SMALL_FLOPS {
        return 0;
    }
    let d = gemm_dims(m, k, n, rayon::current_num_threads(), schedule);
    d.row_slots * d.col_slots * d.per_slot
}

thread_local! {
    /// Reusable pack buffer for the allocating convenience forms: grown to
    /// the high-water mark once, then borrowed allocation-free.
    static TL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a thread-local buffer of `floats` elements — the working
/// memory behind every allocating convenience form (`conv2d`, `linear`,
/// `matmul`, [`sgemm`], …): grown once to the high-water mark, then
/// borrowed allocation-free.
///
/// Borrowed **non-reentrantly**: only outermost convenience forms may call
/// this, and they must never nest — code that holds the buffer must not
/// call another convenience form on the same thread. The `_into` entry
/// points never touch it.
pub fn with_tl_scratch<R>(floats: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    if floats == 0 {
        return f(&mut []);
    }
    TL_SCRATCH.with(|s| {
        let mut v = s.borrow_mut();
        if v.len() < floats {
            v.resize(floats, 0.0);
        }
        f(&mut v[..floats])
    })
}

/// `out[m×n] += a[m×k] * b[k×n]`, all row-major, under the default
/// schedule with thread-local scratch. `out` must be pre-filled (zeros or
/// bias-broadcast) by the caller.
///
/// # Panics
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn sgemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let s = GemmSchedule::DEFAULT;
    with_tl_scratch(gemm_scratch_floats(m, k, n, s), |scratch| {
        gemm(a, false, b, false, out, m, k, n, scratch, s);
    });
}

/// `out[m×n] += op(A)·op(B)` — the one blocked GEMM entry point behind
/// every matrix kernel in the crate.
///
/// `a` holds `A[m×k]` row-major, or `Aᵀ` as `[k×m]` when `transpose_a`;
/// `b` holds `B[k×n]` row-major, or `Bᵀ` as `[n×k]` when `transpose_b`.
/// The flags change only packing-time indexing, so `linear` multiplies
/// the stored `[out_features, in_features]` weight and transposed
/// convolution its `[k × spatial]` column operand without a copy. `out`
/// must be pre-filled by the caller; `scratch` must hold
/// [`gemm_scratch_floats`]`(m, k, n, schedule)` floats.
///
/// # Panics
/// Panics on length mismatches or undersized scratch.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    a: &[f32],
    transpose_a: bool,
    b: &[f32],
    transpose_b: bool,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut [f32],
    schedule: GemmSchedule,
) {
    assert_eq!(a.len(), m * k, "lhs buffer size mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer size mismatch");
    assert_eq!(out.len(), m * n, "out buffer size mismatch");
    let astore = if transpose_a { AStore::Transposed } else { AStore::RowMajor };
    let bstore = if transpose_b { BStore::Transposed } else { BStore::RowMajor };
    gemm_core(a, astore, b, bstore, out, m, k, n, scratch, schedule);
}

/// The pre-blocking kernel, kept verbatim as the performance baseline for
/// `BENCH_kernels.json` and as a second correctness oracle: an unblocked
/// i-k-j loop (with its data-dependent zero-skip branch) parallelized over
/// output rows. Semantics match [`sgemm`]: `out += a * b` with `out`
/// pre-filled by the caller.
pub fn sgemm_reference(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs buffer size mismatch");
    assert_eq!(b.len(), k * n, "rhs buffer size mismatch");
    assert_eq!(out.len(), m * n, "out buffer size mismatch");
    let serial = m * k * n < 64 * 64 * 64;
    let body = |(i, orow): (usize, &mut [f32])| {
        let arow = &a[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    };
    if serial {
        out.chunks_mut(n).enumerate().for_each(body);
    } else {
        out.par_chunks_mut(n).enumerate().for_each(body);
    }
}

/// Layout-generic blocked GEMM driver: splits the output into per-worker
/// slots, carves each slot's pack buffers out of `scratch`, and runs the
/// packed panel loop in every slot.
#[allow(clippy::too_many_arguments)]
fn gemm_core(
    a: &[f32],
    astore: AStore,
    b: &[f32],
    bstore: BStore,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut [f32],
    schedule: GemmSchedule,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * k * n <= SMALL_FLOPS {
        return gemm_small(a, astore, b, bstore, out, m, k, n);
    }
    let isa = detect_isa();
    let d = gemm_dims(m, k, n, rayon::current_num_threads(), schedule);
    let slots = d.row_slots * d.col_slots;
    assert!(
        scratch.len() >= slots * d.per_slot,
        "gemm scratch undersized: {} < {}",
        scratch.len(),
        slots * d.per_slot
    );
    let row_span = m.div_ceil(d.row_slots);
    let col_span = n.div_ceil(d.col_slots);
    let out_ptr = SyncPtr(out.as_mut_ptr());
    let scratch_ptr = SyncPtr(scratch.as_mut_ptr());
    (0..slots).into_par_iter().for_each(|s| {
        let i0 = (s / d.col_slots) * row_span;
        let i1 = m.min(i0 + row_span);
        let j0 = (s % d.col_slots) * col_span;
        let j1 = n.min(j0 + col_span);
        if i0 >= i1 || j0 >= j1 {
            return;
        }
        // SAFETY: slot windows `[s*per_slot, (s+1)*per_slot)` are disjoint
        // and within the asserted scratch length.
        let slot_scratch =
            unsafe { std::slice::from_raw_parts_mut(scratch_ptr.add(s * d.per_slot), d.per_slot) };
        let (a_pack, b_pack) = slot_scratch.split_at_mut(d.kc * d.mcb);
        gemm_slot(a, astore, b, bstore, &out_ptr, k, n, d, (i0, i1), (j0, j1), a_pack, b_pack, isa);
    });
}

/// One worker slot: the packed `jc → kc → ic → (jr, ir)` panel loop over
/// the slot's `[i0, i1) × [j0, j1)` output window.
#[allow(clippy::too_many_arguments)]
fn gemm_slot(
    a: &[f32],
    astore: AStore,
    b: &[f32],
    bstore: BStore,
    out_ptr: &SyncPtr,
    k: usize,
    n: usize,
    d: GemmDims,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
    a_pack: &mut [f32],
    b_pack: &mut [f32],
    isa: Isa,
) {
    for jc in (j0..j1).step_by(d.ncb) {
        let nc_len = d.ncb.min(j1 - jc);
        let j_panels = nc_len.div_ceil(NR);
        for kc0 in (0..k).step_by(d.kc) {
            let kc_len = d.kc.min(k - kc0);
            pack_b(b, bstore, b_pack, k, n, kc0, kc_len, jc, nc_len);
            for ic in (i0..i1).step_by(d.mcb) {
                let mc_len = d.mcb.min(i1 - ic);
                let i_panels = mc_len.div_ceil(MR);
                pack_a(a, astore, a_pack, k, kc0, kc_len, ic, mc_len);
                for jp in 0..j_panels {
                    let bpan = &b_pack[jp * kc_len * NR..][..kc_len * NR];
                    let col0 = jc + jp * NR;
                    let nr_len = NR.min(j1 - col0);
                    for ip in 0..i_panels {
                        let apan = &a_pack[ip * kc_len * MR..][..kc_len * MR];
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: Avx2Fma is only returned by `detect_isa`
                        // after probing both features.
                        let acc = match isa {
                            Isa::Avx2Fma => unsafe { microkernel_avx2(apan, bpan) },
                            Isa::Baseline => microkernel(apan, bpan),
                        };
                        #[cfg(not(target_arch = "x86_64"))]
                        let acc = {
                            let _ = isa;
                            microkernel(apan, bpan)
                        };
                        let row0 = ic + ip * MR;
                        let mr_len = MR.min(i1 - row0);
                        // SAFETY: `[row0, row0+mr_len) × [col0, col0+nr_len)`
                        // lies inside this slot's exclusive output window.
                        unsafe {
                            if mr_len == MR && nr_len == NR {
                                // Full tile: fixed-bound loops vectorize.
                                for (rr, acc_row) in acc.iter().enumerate() {
                                    let dst = out_ptr.add((row0 + rr) * n + col0);
                                    for (cc, &v) in acc_row.iter().enumerate() {
                                        *dst.add(cc) += v;
                                    }
                                }
                            } else {
                                for (rr, acc_row) in acc.iter().enumerate().take(mr_len) {
                                    let dst = out_ptr.add((row0 + rr) * n + col0);
                                    for (cc, &v) in acc_row.iter().enumerate().take(nr_len) {
                                        *dst.add(cc) += v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Pack an `mc_len × kc_len` block of `A` into `MR`-row micro-panels,
/// zero-padding the ragged last panel: panel `p` holds
/// `pack[p·kc_len·MR + kk·MR + r] = A[ic + p·MR + r][kc0 + kk]`.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    astore: AStore,
    pack: &mut [f32],
    k: usize,
    kc0: usize,
    kc_len: usize,
    ic: usize,
    mc_len: usize,
) {
    let panels = mc_len.div_ceil(MR);
    for p in 0..panels {
        let dst = &mut pack[p * kc_len * MR..][..kc_len * MR];
        let r0 = ic + p * MR;
        let rows = MR.min(ic + mc_len - r0);
        match astore {
            AStore::RowMajor => {
                for r in 0..MR {
                    if r < rows {
                        let src = &a[(r0 + r) * k + kc0..][..kc_len];
                        for (kk, &v) in src.iter().enumerate() {
                            dst[kk * MR + r] = v;
                        }
                    } else {
                        for kk in 0..kc_len {
                            dst[kk * MR + r] = 0.0;
                        }
                    }
                }
            }
            AStore::Transposed => {
                // A stored `k×m`: row `kk` is contiguous over matrix rows.
                let m = a.len() / k;
                for kk in 0..kc_len {
                    let src = &a[(kc0 + kk) * m + r0..];
                    let drow = &mut dst[kk * MR..(kk + 1) * MR];
                    for (r, dv) in drow.iter_mut().enumerate() {
                        *dv = if r < rows { src[r] } else { 0.0 };
                    }
                }
            }
        }
    }
}

/// Pack a `kc_len × nc_len` block of `B` into `NR`-column micro-panels,
/// zero-padding the ragged last panel: panel `p` holds
/// `pack[p·kc_len·NR + kk·NR + c] = B[kc0 + kk][jc + p·NR + c]`.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &[f32],
    bstore: BStore,
    pack: &mut [f32],
    k: usize,
    n: usize,
    kc0: usize,
    kc_len: usize,
    jc: usize,
    nc_len: usize,
) {
    let panels = nc_len.div_ceil(NR);
    for p in 0..panels {
        let dst = &mut pack[p * kc_len * NR..][..kc_len * NR];
        let c0 = jc + p * NR;
        let cols = NR.min(jc + nc_len - c0);
        match bstore {
            BStore::RowMajor => {
                for kk in 0..kc_len {
                    let src = &b[(kc0 + kk) * n + c0..];
                    let drow = &mut dst[kk * NR..(kk + 1) * NR];
                    for (c, dv) in drow.iter_mut().enumerate() {
                        *dv = if c < cols { src[c] } else { 0.0 };
                    }
                }
            }
            BStore::Transposed => {
                // B stored `n×k`: logical column `j` is a contiguous row.
                for c in 0..NR {
                    if c < cols {
                        let src = &b[(c0 + c) * k + kc0..][..kc_len];
                        for (kk, &v) in src.iter().enumerate() {
                            dst[kk * NR + c] = v;
                        }
                    } else {
                        for kk in 0..kc_len {
                            dst[kk * NR + c] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Which microkernel the running CPU supports. Resolved once per GEMM
/// call; the feature probes cache internally so the check is an atomic
/// load.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// 8-wide FMA microkernel (requires AVX2 + FMA, runtime-detected).
    Avx2Fma,
    /// Baseline microkernel: SSE2 intrinsics on x86-64, scalar elsewhere.
    Baseline,
}

fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2Fma;
        }
    }
    Isa::Baseline
}

/// Stable name of the microkernel ISA the running CPU dispatches to —
/// the machine component of the tuning-database key, so schedules tuned
/// under one microkernel are never applied under another.
pub fn isa_level() -> &'static str {
    match detect_isa() {
        Isa::Avx2Fma => "avx2fma",
        Isa::Baseline => "baseline",
    }
}

/// The register-tiled heart: an `MR×NR` rank-`kc` update over packed
/// micro-panels — `acc[r][c] = Σ_k apan[k·MR+r] · bpan[k·NR+c]`.
///
/// The hot-path variants are written with explicit SIMD intrinsics rather
/// than autovectorized scalar code: the scalar form's vectorization proved
/// fragile (losing 4× depending on codegen-unit partitioning and
/// surrounding control flow), while intrinsics pin the codegen. SSE2 is
/// part of the x86-64 baseline ABI, so [`microkernel`] needs no feature
/// probe; the AVX2+FMA variant is gated behind [`detect_isa`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn microkernel(apan: &[f32], bpan: &[f32]) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    debug_assert_eq!(apan.len() / MR, bpan.len() / NR);
    // SAFETY: SSE2 is unconditionally available on x86_64, and the k-loop
    // reads exactly `kc` packed steps of both panels.
    unsafe {
        let kc = bpan.len() / NR;
        let mut ap = apan.as_ptr();
        let mut bp = bpan.as_ptr();
        // Eight accumulators: MR rows × two 4-wide halves of the NR tile.
        let mut a0l = _mm_setzero_ps();
        let mut a0h = _mm_setzero_ps();
        let mut a1l = _mm_setzero_ps();
        let mut a1h = _mm_setzero_ps();
        let mut a2l = _mm_setzero_ps();
        let mut a2h = _mm_setzero_ps();
        let mut a3l = _mm_setzero_ps();
        let mut a3h = _mm_setzero_ps();
        for _ in 0..kc {
            let bl = _mm_loadu_ps(bp);
            let bh = _mm_loadu_ps(bp.add(4));
            let s0 = _mm_set1_ps(*ap);
            a0l = _mm_add_ps(a0l, _mm_mul_ps(s0, bl));
            a0h = _mm_add_ps(a0h, _mm_mul_ps(s0, bh));
            let s1 = _mm_set1_ps(*ap.add(1));
            a1l = _mm_add_ps(a1l, _mm_mul_ps(s1, bl));
            a1h = _mm_add_ps(a1h, _mm_mul_ps(s1, bh));
            let s2 = _mm_set1_ps(*ap.add(2));
            a2l = _mm_add_ps(a2l, _mm_mul_ps(s2, bl));
            a2h = _mm_add_ps(a2h, _mm_mul_ps(s2, bh));
            let s3 = _mm_set1_ps(*ap.add(3));
            a3l = _mm_add_ps(a3l, _mm_mul_ps(s3, bl));
            a3h = _mm_add_ps(a3h, _mm_mul_ps(s3, bh));
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        let mut out = [[0.0f32; NR]; MR];
        _mm_storeu_ps(out[0].as_mut_ptr(), a0l);
        _mm_storeu_ps(out[0].as_mut_ptr().add(4), a0h);
        _mm_storeu_ps(out[1].as_mut_ptr(), a1l);
        _mm_storeu_ps(out[1].as_mut_ptr().add(4), a1h);
        _mm_storeu_ps(out[2].as_mut_ptr(), a2l);
        _mm_storeu_ps(out[2].as_mut_ptr().add(4), a2h);
        _mm_storeu_ps(out[3].as_mut_ptr(), a3l);
        _mm_storeu_ps(out[3].as_mut_ptr().add(4), a3h);
        out
    }
}

/// Portable baseline microkernel for non-x86 targets. Named per-row
/// accumulators (not a 2-D array) so scalar replacement keeps the block in
/// registers across the k-loop; LLVM vectorizes the `NR`-wide statements.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn microkernel(apan: &[f32], bpan: &[f32]) -> [[f32; NR]; MR] {
    let mut acc0 = [0.0f32; NR];
    let mut acc1 = [0.0f32; NR];
    let mut acc2 = [0.0f32; NR];
    let mut acc3 = [0.0f32; NR];
    for (av, bv) in apan.chunks_exact(MR).zip(bpan.chunks_exact(NR)) {
        let b: [f32; NR] = bv.try_into().unwrap();
        let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
        for c in 0..NR {
            acc0[c] += a0 * b[c];
        }
        for c in 0..NR {
            acc1[c] += a1 * b[c];
        }
        for c in 0..NR {
            acc2[c] += a2 * b[c];
        }
        for c in 0..NR {
            acc3[c] += a3 * b[c];
        }
    }
    [acc0, acc1, acc2, acc3]
}

/// AVX2+FMA microkernel: the `NR = 8` tile is one ymm vector per row, and
/// the k-loop is unrolled ×2 into eight independent accumulator chains so
/// FMA latency (4–5 cycles) overlaps across iterations — a single chain
/// per row would cap throughput at 1 FMA/cycle.
///
/// # Safety
/// Caller must have verified AVX2 and FMA support ([`detect_isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(apan: &[f32], bpan: &[f32]) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    debug_assert_eq!(apan.len() / MR, bpan.len() / NR);
    let kc = bpan.len() / NR;
    let mut ap = apan.as_ptr();
    let mut bp = bpan.as_ptr();
    let mut acc0a = _mm256_setzero_ps();
    let mut acc1a = _mm256_setzero_ps();
    let mut acc2a = _mm256_setzero_ps();
    let mut acc3a = _mm256_setzero_ps();
    let mut acc0b = _mm256_setzero_ps();
    let mut acc1b = _mm256_setzero_ps();
    let mut acc2b = _mm256_setzero_ps();
    let mut acc3b = _mm256_setzero_ps();
    for _ in 0..kc / 2 {
        let b0 = _mm256_loadu_ps(bp);
        acc0a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap), b0, acc0a);
        acc1a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(1)), b0, acc1a);
        acc2a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(2)), b0, acc2a);
        acc3a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(3)), b0, acc3a);
        let b1 = _mm256_loadu_ps(bp.add(NR));
        acc0b = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(4)), b1, acc0b);
        acc1b = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(5)), b1, acc1b);
        acc2b = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(6)), b1, acc2b);
        acc3b = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(7)), b1, acc3b);
        ap = ap.add(2 * MR);
        bp = bp.add(2 * NR);
    }
    if kc % 2 == 1 {
        let b0 = _mm256_loadu_ps(bp);
        acc0a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap), b0, acc0a);
        acc1a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(1)), b0, acc1a);
        acc2a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(2)), b0, acc2a);
        acc3a = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(3)), b0, acc3a);
    }
    let mut out = [[0.0f32; NR]; MR];
    _mm256_storeu_ps(out[0].as_mut_ptr(), _mm256_add_ps(acc0a, acc0b));
    _mm256_storeu_ps(out[1].as_mut_ptr(), _mm256_add_ps(acc1a, acc1b));
    _mm256_storeu_ps(out[2].as_mut_ptr(), _mm256_add_ps(acc2a, acc2b));
    _mm256_storeu_ps(out[3].as_mut_ptr(), _mm256_add_ps(acc3a, acc3b));
    out
}

/// Serial fallback for problems too small to amortize packing. Branch-free
/// i-k-j order; layout handled by direct indexing.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    a: &[f32],
    astore: AStore,
    b: &[f32],
    bstore: BStore,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            let av = match astore {
                AStore::RowMajor => a[i * k + kk],
                AStore::Transposed => a[kk * m + i],
            };
            match bstore {
                BStore::RowMajor => {
                    let brow = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
                BStore::Transposed => {
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += av * b[j * k + kk];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a[i * k + kk] * b[kk * n + j];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn fill(len: usize, mul: usize, md: usize, scale: f32, off: f32) -> Vec<f32> {
        (0..len).map(|i| ((i * mul % md) as f32) * scale - off).collect()
    }

    /// `rows×cols` row-major → `cols×rows` row-major.
    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    /// `sgemm` into a fresh zeroed buffer.
    fn fresh_sgemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        sgemm(a, b, &mut out, m, k, n);
        out
    }

    /// [`gemm`] into a fresh zeroed buffer, drawing from exactly the scratch
    /// [`gemm_scratch_floats`] advertises for `s`.
    #[allow(clippy::too_many_arguments)]
    fn fresh_gemm(
        a: &[f32],
        ta: bool,
        b: &[f32],
        tb: bool,
        m: usize,
        k: usize,
        n: usize,
        s: GemmSchedule,
    ) -> Vec<f32> {
        let mut scratch = vec![0.0f32; gemm_scratch_floats(m, k, n, s)];
        let mut out = vec![0.0f32; m * n];
        gemm(a, ta, b, tb, &mut out, m, k, n, &mut scratch, s);
        out
    }

    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() < 1e-3, "{what}[{i}]: {g} vs {w}");
        }
    }

    #[test]
    fn matches_naive_small() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 7 % 11) as f32) - 5.0).collect();
        assert_eq!(fresh_sgemm(&a, &b, m, k, n), naive(&a, &b, m, k, n));
    }

    #[test]
    fn matches_naive_above_parallel_threshold() {
        let (m, k, n) = (70, 70, 70);
        let a = fill(m * k, 13, 17, 1.0 / 8.0, 1.0);
        let b = fill(k * n, 5, 19, 1.0 / 9.0, 1.0);
        assert_close(&fresh_sgemm(&a, &b, m, k, n), &naive(&a, &b, m, k, n), "70³");
    }

    #[test]
    fn accumulates_into_existing_out() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.0f32, 3.0, 4.0, 5.0];
        let mut out = [10.0f32, 10.0, 10.0, 10.0];
        sgemm(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn blocked_path_handles_ragged_tails() {
        // Straddles MR/NR/KC boundaries in every dimension.
        for &(m, k, n) in &[(65, 130, 63), (1, 300, 9), (37, 1, 41), (130, 65, 7)] {
            let a = fill(m * k, 7, 23, 0.125, 1.0);
            let b = fill(k * n, 11, 29, 0.0625, 0.9);
            let what = format!("({m},{k},{n})");
            assert_close(&fresh_sgemm(&a, &b, m, k, n), &naive(&a, &b, m, k, n), &what);
        }
    }

    #[test]
    fn nt_variant_matches_explicit_transpose() {
        let (m, k, n) = (33, 70, 18);
        let a = fill(m * k, 3, 13, 0.25, 1.5);
        let bt = fill(n * k, 5, 11, 0.5, 1.25);
        // Materialize B = Bᵀ row-major and compare against the naive product.
        let b = transpose(&bt, n, k);
        let got = fresh_gemm(&a, false, &bt, true, m, k, n, GemmSchedule::DEFAULT);
        assert_close(&got, &naive(&a, &b, m, k, n), "nt");
    }

    #[test]
    fn tn_variant_matches_explicit_transpose() {
        let (m, k, n) = (29, 66, 40);
        let at = fill(k * m, 7, 17, 0.25, 1.75);
        let b = fill(k * n, 3, 19, 0.5, 1.0);
        let a = transpose(&at, k, m);
        let got = fresh_gemm(&at, true, &b, false, m, k, n, GemmSchedule::DEFAULT);
        assert_close(&got, &naive(&a, &b, m, k, n), "tn");
    }

    #[test]
    fn scratch_entry_point_matches_and_respects_budget() {
        let (m, k, n) = (64, 128, 96);
        let a = fill(m * k, 13, 31, 0.125, 1.9);
        let b = fill(k * n, 17, 37, 0.0625, 1.1);
        assert!(
            gemm_scratch_floats(m, k, n, GemmSchedule::DEFAULT) > 0,
            "blocked path must request scratch"
        );
        let got = fresh_gemm(&a, false, &b, false, m, k, n, GemmSchedule::DEFAULT);
        assert_close(&got, &naive(&a, &b, m, k, n), "scratch");
    }

    #[test]
    fn reference_kernel_agrees_with_blocked() {
        let (m, k, n) = (48, 80, 56);
        let a = fill(m * k, 9, 41, 0.0625, 1.2);
        let b = fill(k * n, 23, 43, 0.03125, 0.6);
        let mut want = vec![0.0f32; m * n];
        sgemm_reference(&a, &b, &mut want, m, k, n);
        assert_close(&fresh_sgemm(&a, &b, m, k, n), &want, "reference");
    }

    #[test]
    fn arbitrary_schedules_match_naive() {
        // Small, odd, and oversized blockings over ragged shapes: every
        // schedule must produce the same numbers as the default, drawing
        // from a buffer sized by the schedule-aware formula.
        let schedules = [
            GemmSchedule { kc: 1, mc: 1, nc: 1 },
            GemmSchedule { kc: 3, mc: 5, nc: 9 },
            GemmSchedule { kc: 8, mc: 4, nc: 8 },
            GemmSchedule { kc: 17, mc: 12, nc: 24 },
            GemmSchedule { kc: 1024, mc: 1024, nc: 1024 },
        ];
        for &(m, k, n) in &[(65, 130, 63), (37, 50, 41), (33, 70, 18)] {
            let a = fill(m * k, 7, 23, 0.125, 1.0);
            let b = fill(k * n, 11, 29, 0.0625, 0.9);
            let want = naive(&a, &b, m, k, n);
            for s in schedules {
                let got = fresh_gemm(&a, false, &b, false, m, k, n, s);
                assert_close(&got, &want, &format!("({m},{k},{n}) {}", s.label()));
            }
        }
    }

    #[test]
    fn transposed_variants_accept_odd_schedules() {
        let (m, k, n) = (29, 66, 40);
        let s = GemmSchedule { kc: 7, mc: 8, nc: 16 };
        let at = fill(k * m, 7, 17, 0.25, 1.75);
        let bt = fill(n * k, 5, 11, 0.5, 1.25);
        let (a, b) = (transpose(&at, k, m), transpose(&bt, n, k));
        let want = naive(&a, &b, m, k, n);
        assert_close(&fresh_gemm(&at, true, &b, false, m, k, n, s), &want, "tn");
        assert_close(&fresh_gemm(&a, false, &bt, true, m, k, n, s), &want, "nt");
        // Both operands transposed: the flags compose independently.
        assert_close(&fresh_gemm(&at, true, &bt, true, m, k, n, s), &want, "tt");
    }

    #[test]
    fn small_path_needs_no_scratch() {
        assert_eq!(gemm_scratch_floats(4, 4, 4, GemmSchedule::DEFAULT), 0);
        assert_eq!(gemm_scratch_floats(0, 128, 128, GemmSchedule::DEFAULT), 0);
        // And the entry point accepts an empty buffer there.
        let a = [1.0f32; 16];
        let b = [2.0f32; 16];
        let mut out = [0.0f32; 16];
        gemm(&a, false, &b, false, &mut out, 4, 4, 4, &mut [], GemmSchedule::DEFAULT);
        assert!(out.iter().all(|&v| (v - 8.0).abs() < 1e-6));
    }
}
