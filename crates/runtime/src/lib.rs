//! Runtime for TeMCO graphs: interpreter, memory accounting, fused kernels.
//!
//! Three pieces substitute for what the paper builds on PyTorch + CUDA:
//!
//! * [`executor`] — [`execute`], the one-shot front door (its default slab
//!   mode is one [`Engine::run`]), and the per-node reference interpreter
//!   with the alloc-on-def / free-after-last-use policy deep-learning
//!   frameworks use for internal tensors (Section 2.2 of the paper). The
//!   reference records a live-bytes timeline while computing real values.
//! * [`planner`] — a *static* memory planner that computes the same
//!   timeline from shape inference + liveness alone, without executing a
//!   single FLOP. This is what lets the peak-memory experiments (Figures 4
//!   and 10) run at full 224×224 ImageNet scale on CPU.
//! * [`fused`] — the CPU analogue of the paper's CUDA fused kernels
//!   (Listing 1): `lconv → activation (→ pool) → fconv` computed strip by
//!   strip (or in Listing 1's cubic tiles, when the node's
//!   [`FusedSchedule`] asks for them) with O(strip) scratch, rayon-parallel
//!   over batch × output rows. The full-channel intermediate never exists
//!   as an allocated tensor.
//! * [`alloc`] — the static offset allocator: packs every internal tensor's
//!   liveness interval into one contiguous slab (greedy best-fit) and
//!   appends a shared kernel-scratch arena sized by [`scratch`], so a slab
//!   inference performs exactly one allocation.
//! * [`alias`] — the virtual-tensor pass feeding the allocator: proves when
//!   a concat operand may be produced directly inside the concat's region,
//!   when an elementwise output may reuse its dying input's bytes, and when
//!   a monotone pool may overlap its input — so copies (and whole slab
//!   intervals) disappear from the plan instead of being executed faster.
//! * [`engine`] — plans once, runs many: an immutable, `Arc`-shareable
//!   [`CompiledGraph`] (verified graph + plan, weights held once) plus a
//!   per-worker [`Engine`] (private slab) whose steady-state `run`
//!   performs **zero** heap allocations.

pub mod alias;
pub mod alloc;
pub mod engine;
pub mod executor;
pub mod fused;
mod fused_tiled;
pub mod memory;
pub mod planner;
pub mod profile;
pub mod schedule;
pub mod scratch;

pub use alias::{AliasMode, AliasStats, NodeExec};
pub use alloc::{
    plan_allocation, plan_allocation_with, plan_allocation_with_mode,
    plan_allocation_with_schedules, AllocationPlan, FragmentationReport, PlannedBuffer,
    SCRATCH_ALIGN,
};
pub use engine::{CompiledGraph, Engine};
pub use executor::{execute, ExecError, ExecMode, ExecOptions, ExecResult};
pub use fused::{fused_forward, fused_forward_into, fused_scratch_breakdown, ScratchBreakdown};
pub use memory::{MemEvent, MemoryTracker};
pub use planner::{plan_memory, skip_share_at_peak, MemoryPlan, StepMem};
pub use profile::{
    engine_report, engine_trace_json, node_scratch_breakdown, node_slab_extent_bytes, op_label,
};
pub use schedule::{FusedSchedule, GemmSchedule, NodeSchedule};
pub use scratch::node_scratch_bytes;
