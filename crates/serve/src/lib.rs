//! `temco-serve` — dynamic-batching inference serving on the zero-alloc
//! [`Engine`](temco_runtime::Engine).
//!
//! The runtime's plan-once/run-many engine answers "how do I run one
//! model fast"; this crate answers "how do I run *traffic*". The design
//! keeps the runtime's central invariant — static planning, zero
//! steady-state allocation — intact under concurrency:
//!
//! * **One shared plan** — the server compiles the model once, at
//!   `max_batch`, into an `Arc`'d
//!   [`CompiledGraph`](temco_runtime::CompiledGraph). It is a
//!   [`Graph::rebatch`](temco_ir::Graph::rebatch) clone sharing the source
//!   graph's copy-on-write weight store, so N workers reference one copy
//!   of the weights; each worker privately owns only one slab.
//! * **Dynamic batching, sharded** — single-sample requests route by
//!   two-choice load balancing onto per-worker bounded queues; each
//!   worker gathers up to `max_batch` of them within a `max_delay`
//!   window and runs exactly the n it gathered on the one plan: every op
//!   keeps the batch as its outermost index, so n samples are a prefix of
//!   each planned region, and no row is padded. The hot path never plans
//!   and never heap-allocates (requests carry preallocated response
//!   buffers; the staging tensor and the gather buffer are reused).
//! * **Event-driven connection plane** — on x86-64 Linux, [`serve`]
//!   multiplexes every socket onto one epoll thread (raw syscalls, no
//!   libc binding): preallocated per-connection frame buffers, a pooled
//!   request-context admission limit, per-connection inflight caps for
//!   fairness, and an idle sweep. A connection costs a table slot, not
//!   a thread. [`serve_blocking`] remains the portable fallback.
//! * **Backpressure & deadlines** — a full queue *rejects* (never blocks,
//!   never silently drops), and a request whose deadline lapses in the
//!   queue fails without costing FLOPs. Shutdown drains: queued work
//!   completes, new work is refused.
//! * **Observability** — lock-free counters and log2 histograms with
//!   end-to-end latency split into queue-wait and service time
//!   (p50/p95/p99 by linear interpolation), rejects and failures labeled
//!   by cause, batch-window occupancy, queue depth, and per-worker slab
//!   bytes — as a typed [`StatsSnapshot`], a plain-text dump, or a
//!   Prometheus text scrape (`METRICS` opcode,
//!   [`Server::prometheus_metrics`]). Workers accept a preallocated
//!   [`temco_obs`] span recorder for gather/stage/run/scatter tracing
//!   without perturbing the zero-alloc hot loop.
//! * **Wire protocol** — a tiny length-prefixed TCP protocol
//!   ([`proto`]), a blocking [`Client`], and a closed-loop [`loadgen`];
//!   all std-only, consistent with the repo's no-external-deps policy.

pub mod client;
pub mod error;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub mod event;
pub mod loadgen;
pub mod proto;
mod queue;
pub mod server;
pub mod stats;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub mod sys;
pub mod tcp;
pub mod ticket;
pub mod worker;

pub use client::{Client, ClientError};
pub use error::{BuildError, ServeError};
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub use event::EventLoop;
pub use loadgen::{BurstConfig, BurstReport, LoadReport, LoadgenConfig};
pub use server::{ServeConfig, Server};
pub use stats::{StatsSnapshot, LATENCY_BUCKETS};
pub use tcp::{serve, serve_blocking, EventConfig};
pub use ticket::Ticket;
pub use worker::{StepOutcome, Worker};
