//! `temco-check` — the stack's adversary.
//!
//! Everything else in this workspace tries to make inference fast;
//! this crate tries to make it *wrong*, and reports when it can't. Three
//! instruments, all seeded and deterministic:
//!
//! * [`gen`] + [`diff`] — random valid-graph generators (CNNs and
//!   transformer subgraphs — MHA, MLP, gram attention, residual+layernorm
//!   chains) driving differential execution: per-node reference vs the
//!   slab [`Engine`](temco_runtime::Engine), across every opt level and
//!   every served batch size, outputs compared within tolerance.
//! * [`invariants`] — an independent re-derivation of every
//!   allocation-plan invariant via a write simulation (storage sharing only
//!   where the graph itself sanctions it, scratch disjointness, exact peak
//!   and data-movement accounting), so a planner or alias-analysis bug has
//!   to fool two implementations to slip through.
//! * [`fault`] — a TCP fault injector that hammers a live server with
//!   malformed frames, floods, and disconnects, then asserts no hang, no
//!   dead workers, and exact stats-counter conservation.
//!
//! When a differential run fails, [`mod@shrink`] greedily minimizes the
//! failing graph to a small repro and [`shrink::dump`] prints it.
//!
//! Two run modes: a deterministic short mode wired into tier-1 CI, and a
//! long mode scaled by `TEMCO_CHECK_ITERS` / `TEMCO_CHECK_FAULTS` for
//! soak runs (see `tests/check.rs` and the `temco check` subcommand).

pub mod diff;
pub mod fault;
pub mod gen;
pub mod invariants;
pub mod shrink;

pub use diff::{check_graph, check_seed, DiffConfig, Failure};
pub use fault::{run_fault_injection, FaultConfig, FaultReport};
pub use gen::{random_cnn, random_graph, random_transformer, GenConfig};
pub use invariants::{check_plan, check_plan_against, inject_aliasing, inject_unsafe_inplace};
pub use shrink::{dump, shrink, Shrunk};
