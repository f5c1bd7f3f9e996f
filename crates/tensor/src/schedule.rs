//! Kernel schedules as data.
//!
//! The blocked GEMM in [`mod@crate::matmul`] used to hard-code its cache
//! blocking (`KC`/`MC`/`NC`) as compile-time constants tuned for one
//! machine and one shape regime. The autotuning plane makes those
//! parameters *values*: a [`GemmSchedule`] travels with the call, the
//! scratch-size formulas are parameterized on it, and the planner and the
//! kernel agree on the same schedule by construction — the planner sizes
//! scratch with the identical function the kernel partitions it with.
//!
//! The register microkernel tile (`MR × NR`) is **not** part of the
//! schedule: the intrinsic bodies hard-wire it (and a const assert pins
//! it), so the legal space is the cache-blocking above the microkernel.
//!
//! Any `GemmSchedule` is safe: [`GemmSchedule::normalized`] clamps the
//! parameters into the legal space (`kc ≥ 1`, `mc` a positive multiple of
//! `MR`, `nc` a positive multiple of `NR`) and every consumer normalizes
//! first, so a wild schedule can change performance but never correctness
//! or scratch accounting.

use crate::matmul::{MR, NR};

/// Cache-blocking schedule for one blocked GEMM: the panel depths and the
/// pack-buffer capacities. See the module docs for the legality rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmSchedule {
    /// K-dimension panel depth (packed A/B panel depth).
    pub kc: usize,
    /// A-panel row block: the packed `mc × kc` A block should sit in L2.
    pub mc: usize,
    /// B-panel column block: the packed `kc × nc` B block sits in L2/L3.
    pub nc: usize,
}

impl GemmSchedule {
    /// The hand-tuned default (the former compile-time constants): a
    /// `256`-deep K panel, `64 × 256` A block (64 KiB packed) and
    /// `256 × 256` B block (256 KiB packed).
    pub const DEFAULT: GemmSchedule = GemmSchedule { kc: 256, mc: 64, nc: 256 };

    /// Clamp into the legal space: `kc ≥ 1`, `mc`/`nc` positive multiples
    /// of the microkernel tile. Every kernel and scratch formula calls
    /// this first, so any schedule value is safe to execute.
    #[must_use]
    pub fn normalized(self) -> GemmSchedule {
        GemmSchedule {
            kc: self.kc.max(1),
            mc: self.mc.max(1).div_ceil(MR) * MR,
            nc: self.nc.max(1).div_ceil(NR) * NR,
        }
    }

    /// Whether the schedule is already in the legal space (fixed point of
    /// [`Self::normalized`]). The tuner's candidate generator only emits
    /// legal schedules; this is the pre-check it uses.
    pub fn is_legal(&self) -> bool {
        *self == self.normalized()
    }

    /// Compact human-readable form for reports and the tuning database.
    pub fn label(&self) -> String {
        format!("kc{} mc{} nc{}", self.kc, self.mc, self.nc)
    }
}

impl Default for GemmSchedule {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_legal_and_matches_the_old_constants() {
        let d = GemmSchedule::default();
        assert!(d.is_legal());
        assert_eq!(d, GemmSchedule { kc: 256, mc: 64, nc: 256 });
    }

    #[test]
    fn normalization_clamps_into_the_legal_space() {
        let s = GemmSchedule { kc: 0, mc: 0, nc: 0 }.normalized();
        assert_eq!(s, GemmSchedule { kc: 1, mc: MR, nc: NR });
        let s = GemmSchedule { kc: 3, mc: 5, nc: 9 }.normalized();
        assert_eq!(s.kc, 3);
        assert_eq!(s.mc % MR, 0);
        assert_eq!(s.nc % NR, 0);
        assert!(s.is_legal());
        assert!(s.normalized() == s, "normalization is idempotent");
    }
}
