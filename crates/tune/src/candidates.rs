//! Seeded candidate generation: the search space.
//!
//! Candidate lists are **pure functions of `(trials, seed)`** — the same
//! arguments always produce the same list, in the same order, on every
//! host. That determinism is what the smoke gate asserts and what makes a
//! tuning run reproducible. The shape is grid-plus-mutation: a small
//! hand-picked grid of plausible blockings first (the hand-tuned default
//! is always candidate 0), then seeded mutations of earlier candidates
//! until `trials` distinct schedules exist.
//!
//! Every emitted candidate is normalized into the legal space
//! (`is_legal()` holds), and because the allocation planner sizes scratch
//! from the same formulas the kernels partition with, **no legal candidate
//! can under-reserve scratch** — the legality pre-check is structural, not
//! a runtime test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temco_runtime::{FusedSchedule, GemmSchedule};

/// Hand-picked GEMM blocking grid (beyond the default). Chosen to bracket
/// the default KC/MC/NC = 256/64/256 in both directions on each axis.
const GEMM_GRID: &[(usize, usize, usize)] = &[
    (128, 64, 256),
    (256, 32, 256),
    (256, 64, 128),
    (512, 64, 256),
    (256, 128, 256),
    (128, 32, 128),
    (512, 128, 512),
    (64, 64, 64),
    (384, 96, 384),
    (256, 64, 512),
];

/// Fused slot/tile grid (beyond the default spt=4, tile=0).
const FUSED_GRID: &[(usize, usize)] =
    &[(1, 0), (2, 0), (8, 0), (4, 8), (4, 16), (4, 32), (2, 16), (8, 16), (1, 32)];

/// GEMM schedule candidates: default first, then grid, then seeded
/// mutations. Deterministic in `(trials, seed)`; all entries legal and
/// distinct; length `min(trials, …)` but always ≥ 1 (the default).
pub fn gemm_candidates(trials: usize, seed: u64) -> Vec<GemmSchedule> {
    let mut out = vec![GemmSchedule::DEFAULT];
    let push = |out: &mut Vec<GemmSchedule>, s: GemmSchedule| {
        let s = s.normalized();
        if !out.contains(&s) {
            out.push(s);
        }
    };
    for &(kc, mc, nc) in GEMM_GRID {
        if out.len() >= trials.max(1) {
            break;
        }
        push(&mut out, GemmSchedule { kc, mc, nc });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x67656d6d); // "gemm"
    let mut attempts = 0;
    while out.len() < trials.max(1) && attempts < trials * 16 {
        attempts += 1;
        let base = out[(rng.next_u64() % out.len() as u64) as usize];
        let axis = rng.next_u64() % 3;
        let grow = rng.next_u64() % 2 == 0;
        let scale = |v: usize| if grow { (v * 2).min(4096) } else { (v / 2).max(1) };
        let s = match axis {
            0 => GemmSchedule { kc: scale(base.kc), ..base },
            1 => GemmSchedule { mc: scale(base.mc), ..base },
            _ => GemmSchedule { nc: scale(base.nc), ..base },
        };
        push(&mut out, s);
    }
    out.truncate(trials.max(1));
    out
}

/// Fused-kernel schedule candidates: default first, then grid, then
/// seeded mutations of the slots/tile pair. Same determinism and legality
/// contract as [`gemm_candidates`].
pub fn fused_candidates(trials: usize, seed: u64) -> Vec<FusedSchedule> {
    let mut out = vec![FusedSchedule::DEFAULT];
    let push = |out: &mut Vec<FusedSchedule>, s: FusedSchedule| {
        let s = s.normalized();
        if !out.contains(&s) {
            out.push(s);
        }
    };
    for &(spt, tile) in FUSED_GRID {
        if out.len() >= trials.max(1) {
            break;
        }
        push(&mut out, FusedSchedule { slots_per_thread: spt, tile });
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x66757365); // "fuse"
    let mut attempts = 0;
    while out.len() < trials.max(1) && attempts < trials * 16 {
        attempts += 1;
        let base = out[(rng.next_u64() % out.len() as u64) as usize];
        let s = if rng.next_u64() % 2 == 0 {
            let spt = (base.slots_per_thread * 2).clamp(1, 32);
            FusedSchedule { slots_per_thread: spt, ..base }
        } else {
            let tile = match base.tile {
                0 => 8,
                t => (t * 2).min(256),
            };
            FusedSchedule { tile, ..base }
        };
        push(&mut out, s);
    }
    out.truncate(trials.max(1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_trials_and_seed() {
        for trials in [1, 4, 16, 40] {
            assert_eq!(gemm_candidates(trials, 7), gemm_candidates(trials, 7));
            assert_eq!(fused_candidates(trials, 7), fused_candidates(trials, 7));
        }
        // Past the fixed grid, the seed changes the mutation tail.
        assert_ne!(gemm_candidates(40, 1), gemm_candidates(40, 2));
    }

    #[test]
    fn default_is_always_candidate_zero() {
        for trials in [1, 2, 8] {
            assert_eq!(gemm_candidates(trials, 3)[0], GemmSchedule::DEFAULT);
            assert_eq!(fused_candidates(trials, 3)[0], FusedSchedule::DEFAULT);
        }
    }

    #[test]
    fn every_candidate_is_legal_and_distinct() {
        let gs = gemm_candidates(32, 11);
        assert!(gs.iter().all(|s| s.is_legal()));
        for (i, a) in gs.iter().enumerate() {
            assert!(!gs[i + 1..].contains(a), "duplicate {a:?}");
        }
        let fs = fused_candidates(32, 11);
        assert!(fs.iter().all(|s| s.is_legal()));
        for (i, a) in fs.iter().enumerate() {
            assert!(!fs[i + 1..].contains(a), "duplicate {a:?}");
        }
    }

    #[test]
    fn trials_bounds_the_list_length() {
        assert_eq!(gemm_candidates(1, 0).len(), 1);
        assert_eq!(gemm_candidates(5, 0).len(), 5);
        assert_eq!(fused_candidates(3, 0).len(), 3);
        // trials=0 still yields the default.
        assert_eq!(gemm_candidates(0, 0).len(), 1);
    }
}
