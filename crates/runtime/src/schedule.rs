//! Kernel schedules as data.
//!
//! Historically the blocking factors of every kernel were `const`s baked
//! into the kernel bodies. The autotuning plane (`temco-tune`) needs to
//! *search* over those factors, so they become plain values threaded from
//! the allocation planner down into the kernels. Two schedule families
//! exist today:
//!
//! * [`GemmSchedule`] (re-exported from `temco_tensor`) — the KC/MC/NC
//!   cache-blocking of the packed SGEMM that backs Conv2d / Linear /
//!   ConvTranspose2d nodes;
//! * [`FusedSchedule`] — the job tile and worker-slot count of the fused
//!   lconv→act→pool→fconv kernel.
//!
//! [`NodeSchedule`] is the per-node sum type the [`AllocationPlan`]
//! carries. `NodeSchedule::Default` reproduces the hand-tuned constants
//! exactly, so plans built without a tuning database are bit-identical
//! to pre-schedule builds.
//!
//! [`AllocationPlan`]: crate::AllocationPlan

pub use temco_tensor::GemmSchedule;

/// Schedule for the fused lconv→act→pool→fconv kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FusedSchedule {
    /// Work-queue oversubscription: each rayon thread gets up to this many
    /// scratch slots worth of jobs. Higher values smooth load imbalance at
    /// the cost of scratch footprint.
    pub slots_per_thread: usize,
    /// The kernel's job tile. `T > 0` is Listing 1's `T×T×T` tile: `T`
    /// output channels × `T` pooled rows × `T` pooled columns. `0` is the
    /// row strip: all output channels × one pooled row × all columns.
    /// Every tile gives the same output bit for bit.
    pub tile: usize,
}

impl FusedSchedule {
    /// The hand-tuned default: row strips, 4 slots per thread.
    pub const DEFAULT: FusedSchedule = FusedSchedule { slots_per_thread: 4, tile: 0 };

    /// Clamp into the legal space: `slots_per_thread` must be positive.
    /// `tile` is legal as-is (0 means "row strip").
    #[must_use]
    pub fn normalized(self) -> FusedSchedule {
        FusedSchedule { slots_per_thread: self.slots_per_thread.max(1), tile: self.tile }
    }

    /// True when `normalized` would be a no-op.
    #[must_use]
    pub fn is_legal(self) -> bool {
        self == self.normalized()
    }

    /// Short human-readable form used by `temco profile` and the tuning DB.
    #[must_use]
    pub fn label(self) -> String {
        format!("spt{} tile{}", self.slots_per_thread, self.tile)
    }
}

impl Default for FusedSchedule {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The schedule attached to one graph node by the allocation plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum NodeSchedule {
    /// Hand-tuned constants; bit-identical to pre-schedule behaviour.
    #[default]
    Default,
    /// Explicit GEMM blocking for Conv2d / ConvTranspose2d / Linear nodes.
    Gemm(GemmSchedule),
    /// Explicit job tile and slot count for Fused nodes.
    Fused(FusedSchedule),
}

impl NodeSchedule {
    /// The GEMM schedule this node should run with.
    #[must_use]
    pub fn gemm(self) -> GemmSchedule {
        match self {
            NodeSchedule::Gemm(s) => s.normalized(),
            _ => GemmSchedule::DEFAULT,
        }
    }

    /// The fused-kernel schedule this node should run with.
    #[must_use]
    pub fn fused(self) -> FusedSchedule {
        match self {
            NodeSchedule::Fused(s) => s.normalized(),
            _ => FusedSchedule::DEFAULT,
        }
    }

    /// Short label for profiling output; `-` for the default schedule.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            NodeSchedule::Default => "-".to_string(),
            NodeSchedule::Gemm(s) => s.label(),
            NodeSchedule::Fused(s) => s.label(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fused_schedule_matches_the_old_constants() {
        let d = FusedSchedule::DEFAULT;
        assert_eq!(d.slots_per_thread, 4);
        assert_eq!(d.tile, 0);
        assert!(d.is_legal());
        assert_eq!(FusedSchedule::default(), d);
    }

    #[test]
    fn fused_normalization_clamps_slots() {
        let wild = FusedSchedule { slots_per_thread: 0, tile: 7 };
        assert!(!wild.is_legal());
        let n = wild.normalized();
        assert_eq!(n.slots_per_thread, 1);
        assert_eq!(n.tile, 7);
        assert!(n.is_legal());
    }

    #[test]
    fn node_schedule_accessors_fall_back_to_defaults() {
        assert_eq!(NodeSchedule::Default.gemm(), GemmSchedule::DEFAULT);
        assert_eq!(NodeSchedule::Default.fused(), FusedSchedule::DEFAULT);
        let g = GemmSchedule { kc: 5, mc: 8, nc: 16 };
        assert_eq!(NodeSchedule::Gemm(g).gemm(), g);
        assert_eq!(NodeSchedule::Gemm(g).fused(), FusedSchedule::DEFAULT);
        let f = FusedSchedule { slots_per_thread: 2, tile: 16 };
        assert_eq!(NodeSchedule::Fused(f).fused(), f);
        assert_eq!(NodeSchedule::Fused(f).gemm(), GemmSchedule::DEFAULT);
        assert_eq!(NodeSchedule::Default.label(), "-");
    }
}
