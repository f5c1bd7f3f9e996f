//! `temco-tune`: the schedule-search autotuning plane.
//!
//! TeMCO's kernels (packed GEMM behind conv2d/conv-transpose/linear, and
//! the fused kernel's job tile) are parameterized by *schedules* — cache
//! blockings and parallel grain sizes that used to be compile-time
//! constants. This crate searches that space per kernel shape and
//! persists the winners:
//!
//! - [`candidates`] — deterministic, seeded candidate generation
//!   (grid + mutation); every candidate is normalized into legality, so
//!   no candidate can under-reserve scratch.
//! - [`signature`] — shape signatures grouping nodes whose kernels do
//!   identical work; each group is measured once.
//! - [`search`] — the measure/select loop over real [`temco_runtime::Engine`]
//!   runs timed with the `temco-obs` span recorder (median of N reps; the
//!   hand-tuned default is always a candidate, so the winner never loses
//!   to it).
//! - [`db`] — the on-disk text database, keyed by
//!   `op|shape-signature|isa`, with tolerant parsing and graceful
//!   fallback to defaults on any corruption.
//! - [`smoke`] — the fast deterministic self-check behind
//!   `temco tune --smoke`.
//!
//! The dispatch point is compile time: [`compile_with_db`] resolves every
//! node's schedule from the database once, and the engine's warm path
//! stays schedule-lookup-free and zero-alloc.

pub mod candidates;
pub mod db;
pub mod search;
pub mod signature;
pub mod smoke;

pub use candidates::{fused_candidates, gemm_candidates};
pub use db::{db_key, TuningDb, DB_HEADER};
pub use search::{
    compile_with_db, schedules_for, tune_graph, tuning_inputs, GroupReport, TuneOptions,
};
pub use signature::{node_db_key, node_signature};
pub use smoke::{run_smoke, shape_suite_graph, smoke_graph, SmokeReport};
