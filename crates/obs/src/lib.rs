//! `temco-obs` — observability primitives for the TeMCO stack.
//!
//! The engine and serving layers are built around one invariant: the hot
//! path never heap-allocates. An observability layer that breaks that
//! invariant perturbs exactly what it measures, so everything here is
//! split along the same line the runtime already draws:
//!
//! * **Recording is allocation-free** — [`ring::Recorder`] is the one
//!   span ring: a preallocated buffer of fixed-size span records
//!   (drop-oldest on overflow, with accounting), owned by one thread, or
//!   shared behind a mutex as the server's [`flight::FlightRecorder`],
//!   into which a worker publishes each batch's ring whole; [`metrics`]
//!   counters and histograms are relaxed atomics bumped in place. All
//!   are safe to call from the executor's node loop and the serving
//!   worker's step.
//! * **Rendering may allocate** — building an [`report::EngineReport`],
//!   a chrome://tracing JSON dump ([`chrome::chrome_trace`]), or a
//!   Prometheus text scrape ([`metrics::Registry::render_prometheus`])
//!   happens on the cold path (CLI, scrape request) and formats freely.
//!
//! The crate is std-only and dependency-free, like the rest of the
//! workspace; higher layers (`temco-runtime`, `temco-serve`, the CLI)
//! attach the semantics — node names, metric names, plan attribution.

pub mod chrome;
pub mod flight;
pub mod metrics;
pub mod report;
pub mod ring;
pub mod slo;

pub use chrome::{chrome_trace, default_name, find_complete_chain, parse_chrome_trace, TraceEvent};
pub use flight::{batch_id_of, batch_trace, is_batch_trace, FlightRecorder, BATCH_TRACE_BASE};
pub use metrics::{
    bucket_hi_us, bucket_lo_us, bucket_of_us, percentile_log2_us, Counter, Gauge, Log2Histogram,
    Registry, LOG2_BUCKETS,
};
pub use report::{EngineReport, NodeStat, OpRollup};
pub use ring::{cause, kind, Event, Recorder, NO_NODE, NO_TRACE};
pub use slo::{SloSpec, SloTracker, SloVerdict, BURN_WINDOWS};
