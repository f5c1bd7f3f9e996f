//! Property tests for the cache-blocked packed GEMM: the blocked kernel
//! (every operand-storage combination) must agree with a naive triple loop
//! on ragged shapes that exercise every tail-tile combination of the MR×NR
//! register tile and the KC/MC/NC panel blocking, and the scratch-floats
//! formula must be honored exactly by the entry point.

use proptest::prelude::*;
use temco_tensor::{gemm, gemm_scratch_floats, sgemm, sgemm_reference, GemmSchedule, Tensor};

/// Shapes straddling the microkernel (4×8), the KC=256/MC=64 panel edges,
/// and the degenerate single-row/column cases.
const DIMS: &[usize] = &[1, 7, 63, 64, 65, 130];

/// Naive i-k-j oracle, independent of both production kernels.
fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            for j in 0..n {
                out[i * n + j] += av * b[p * n + j];
            }
        }
    }
    out
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

fn rel_close(got: &[f32], want: &[f32], k: usize) -> Result<(), String> {
    // Summation order differs between kernels; scale the tolerance with the
    // reduction depth.
    let tol = 1e-5 * (k as f32).sqrt().max(1.0) * 8.0;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        if (g - w).abs() > tol * scale {
            return Err(format!("element {i}: got {g}, want {w} (tol {tol})"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn blocked_sgemm_matches_naive_on_ragged_shapes(
        mi in 0usize..6,
        ki in 0usize..6,
        ni in 0usize..6,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = Tensor::randn(&[m, k], seed).data().to_vec();
        let b = Tensor::randn(&[k, n], seed ^ 0x5A5A).data().to_vec();
        let want = matmul_naive(&a, &b, m, k, n);

        let mut got = vec![0.0f32; m * n];
        sgemm(&a, &b, &mut got, m, k, n);
        prop_assert!(rel_close(&got, &want, k).is_ok(),
            "sgemm {m}x{k}x{n}: {}", rel_close(&got, &want, k).unwrap_err());

        // The pre-blocking baseline must agree too — it is the bench oracle.
        let mut reference = vec![0.0f32; m * n];
        sgemm_reference(&a, &b, &mut reference, m, k, n);
        prop_assert!(rel_close(&reference, &want, k).is_ok());
    }

    #[test]
    fn transposed_variants_match_naive(
        mi in 0usize..6,
        ki in 0usize..6,
        ni in 0usize..6,
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = Tensor::randn(&[m, k], seed).data().to_vec();
        let b = Tensor::randn(&[k, n], seed ^ 0xC3C3).data().to_vec();
        let want = matmul_naive(&a, &b, m, k, n);

        // B stored transposed (n×k), A stored transposed (k×m), and both:
        // every storage combination computes a·b.
        let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
        let s = GemmSchedule::DEFAULT;
        let mut scratch = vec![0.0f32; gemm_scratch_floats(m, k, n, s)];
        for (ta, tb) in [(false, true), (true, false), (true, true)] {
            let lhs = if ta { &at } else { &a };
            let rhs = if tb { &bt } else { &b };
            let mut got = vec![0.0f32; m * n];
            gemm(lhs, ta, rhs, tb, &mut got, m, k, n, &mut scratch, s);
            prop_assert!(rel_close(&got, &want, k).is_ok(), "gemm ta={ta} tb={tb} {m}x{k}x{n}");
        }
    }

    #[test]
    fn non_default_schedules_match_naive_on_ragged_shapes(
        mi in 0usize..6,
        ki in 0usize..6,
        ni in 0usize..6,
        kc in 1usize..300,
        mc in 1usize..150,
        nc in 1usize..300,
        seed in 0u64..1000,
    ) {
        // The autotuner may hand the kernel ANY normalized schedule —
        // small, odd, or wildly off the cache-tuned default. Every one
        // must compute the same product from exactly the scratch the
        // schedule-parameterized formula advertises.
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let s = GemmSchedule { kc, mc, nc }.normalized();
        let a = Tensor::randn(&[m, k], seed).data().to_vec();
        let b = Tensor::randn(&[k, n], seed ^ 0x7E57).data().to_vec();
        let want = matmul_naive(&a, &b, m, k, n);

        let (at, bt) = (transpose(&a, m, k), transpose(&b, k, n));
        let mut scratch = vec![0.0f32; gemm_scratch_floats(m, k, n, s)];
        for (ta, tb) in [(false, false), (false, true), (true, false)] {
            let lhs = if ta { &at } else { &a };
            let rhs = if tb { &bt } else { &b };
            let mut got = vec![0.0f32; m * n];
            gemm(lhs, ta, rhs, tb, &mut got, m, k, n, &mut scratch, s);
            prop_assert!(rel_close(&got, &want, k).is_ok(),
                "gemm ta={ta} tb={tb} {m}x{k}x{n} {s:?}: {}", rel_close(&got, &want, k).unwrap_err());
        }
    }

    #[test]
    fn scratch_entry_point_accepts_exactly_the_formula_floats(
        mi in 0usize..6,
        ki in 0usize..6,
        ni in 0usize..6,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let mut out = vec![0.0f32; m * n];
        // Exactly the advertised size must suffice — no hidden slack.
        let s = GemmSchedule::DEFAULT;
        let mut scratch = vec![0.0f32; gemm_scratch_floats(m, k, n, s)];
        gemm(&a, false, &b, false, &mut out, m, k, n, &mut scratch, s);
        let want = 0.5 * 0.25 * k as f32;
        prop_assert!(out.iter().all(|&v| (v - want).abs() < 1e-3 * k as f32));
    }
}
