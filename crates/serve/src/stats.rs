//! Lock-free serving observability, built on `temco_obs` primitives.
//!
//! Every instrument is a relaxed atomic bumped from the submit and worker
//! hot paths — no locks, no allocation. Latency is split three ways so
//! the wait-vs-compute question has a truthful answer:
//!
//! * `queue_wait` — enqueue to batch-execution start (scheduling delay),
//! * `service` — batch-execution start to response (compute + scatter),
//! * `latency` — the end-to-end sum the client observes.
//!
//! All three use the obs crate's 30-bucket log2-µs histogram; percentiles
//! interpolate linearly inside the winning bucket
//! ([`temco_obs::percentile_log2_us`]), so the steady state keeps no
//! per-request state at all. Batch sizes feed a fixed histogram (index =
//! executed size − 1, one entry per size up to `max_batch`), from which
//! batch-window occupancy is the mean executed size over `max_batch`.
//!
//! The same instruments are registered in a [`Registry`], so the
//! Prometheus text scrape (`METRICS` opcode, `Server::prometheus_metrics`)
//! renders the very counters the hot path bumps — there is no second
//! accounting to drift.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use temco_obs::{
    percentile_log2_us, Counter, Gauge, Log2Histogram, Registry, SloSpec, SloTracker, BURN_WINDOWS,
    LOG2_BUCKETS,
};

/// Number of log2 latency buckets. Bucket 0 counts sub-microsecond
/// latencies; bucket `i` (for `1 ≤ i ≤ 28`) holds latencies in
/// `[2^(i−1), 2^i)` microseconds; the last bucket (29) is the overflow
/// bucket `[2^28 µs, ∞)` — everything above ≈ 4.5 minutes.
pub const LATENCY_BUCKETS: usize = LOG2_BUCKETS;

/// Failure causes the per-cause budget-spend gauges cover, in the order
/// of the corresponding exact counters.
const CAUSES: [&str; 5] =
    ["queue_full", "shutting_down", "admission", "deadline_expired", "shutdown_undrained"];

/// Shared counters. One instance per [`crate::Server`], touched by every
/// submitter and worker. The handles are registered in `registry`, so a
/// Prometheus scrape reads the same atomics the hot path bumps.
pub(crate) struct Stats {
    registry: Registry,
    pub submitted: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub rejected_full: Arc<Counter>,
    pub rejected_closed: Arc<Counter>,
    /// Requests rejected by the connection plane's admission control: the
    /// preallocated in-flight pool was exhausted (total in-flight work
    /// already covers every worker's queue plus a full batch each).
    pub rejected_admission: Arc<Counter>,
    pub deadline_expired: Arc<Counter>,
    /// Requests accepted into the queue but failed at shutdown because no
    /// worker remained to drain them (manual-worker mode).
    pub failed_shutdown: Arc<Counter>,
    pub batches: Arc<Counter>,
    /// Bytes copied by executed batches (each engine run adds its plan's
    /// `bytes_moved` for the rows it ran: input staging plus concat/flatten
    /// copies the alias analysis could not eliminate).
    pub bytes_moved: Arc<Counter>,
    /// Requests currently queued; refreshed at scrape time.
    pub queue_depth: Arc<Gauge>,
    /// Worker count / per-worker slab bytes; set once at server startup.
    pub workers: Arc<Gauge>,
    pub slab_bytes_per_worker: Arc<Gauge>,
    /// Connection plane: accepted / refused (table full) / idle-reaped
    /// connections, and how many are open right now.
    pub conns_accepted: Arc<Counter>,
    pub conns_refused: Arc<Counter>,
    pub conns_closed_idle: Arc<Counter>,
    pub open_conns: Arc<Gauge>,
    /// Flight-recorder events overwritten before anyone dumped them —
    /// the ring's drop-oldest accounting surfaced on the metrics plane.
    pub spans_dropped: Arc<Counter>,
    /// Live SLO good/bad tracking; burn-rate gauges are refreshed from it
    /// at scrape time.
    pub slo: SloTracker,
    /// Burn-rate gauges: the canonical 1m/5m pair plus the spec's own
    /// window, labeled `window="…"`.
    slo_burn: Vec<(u64, Arc<Gauge>)>,
    /// Fraction of the error budget spent within the spec window,
    /// refreshed at scrape.
    slo_budget_spent: Arc<Gauge>,
    /// Lifetime error-budget spend per failure cause (parallel to
    /// [`CAUSES`]), refreshed at scrape from the exact cause counters.
    slo_cause_spend: Vec<Arc<Gauge>>,
    /// Per-worker shard instruments, indexed by worker. `busy_us` is
    /// cumulative batch-execution time (occupancy numerator), `batches`
    /// counts executed batches, `depth` mirrors the shard queue at scrape.
    pub worker_busy_us: Vec<Arc<Counter>>,
    pub worker_batches: Vec<Arc<Counter>>,
    pub worker_depth: Vec<Arc<Gauge>>,
    /// End-to-end latency (enqueue → response).
    latency: Arc<Log2Histogram>,
    /// Enqueue → batch-execution start.
    pub queue_wait: Arc<Log2Histogram>,
    /// Batch-execution start → response.
    pub service: Arc<Log2Histogram>,
    /// Executed batch sizes; index `size − 1`. Stays a raw array (integer
    /// buckets, not log2 time) and is rendered into the scrape manually.
    batch_sizes: Box<[AtomicU64]>,
}

impl Stats {
    pub fn new(max_batch: usize, workers: usize, slo_spec: SloSpec) -> Stats {
        let r = Registry::new();
        let shards = workers.max(1);
        let spec_window = slo_spec.window.as_secs();
        let mut burn_windows: Vec<u64> = BURN_WINDOWS.iter().map(|&(_, s)| s).collect();
        if !burn_windows.contains(&spec_window) {
            burn_windows.push(spec_window);
        }
        let slo_burn = burn_windows
            .into_iter()
            .map(|secs| {
                (
                    secs,
                    r.gauge_with(
                        "temco_slo_burn_rate",
                        "Error-budget burn rate (bad fraction / budget) per trailing window.",
                        &[("window", &format!("{secs}s"))],
                    ),
                )
            })
            .collect();
        let worker_busy_us = (0..shards)
            .map(|i| {
                r.counter_with(
                    "temco_worker_busy_micros_total",
                    "Cumulative batch-execution time per worker, µs (occupancy numerator).",
                    &[("worker", &i.to_string())],
                )
            })
            .collect();
        let worker_batches = (0..shards)
            .map(|i| {
                r.counter_with(
                    "temco_worker_batches_total",
                    "Executed batches per worker shard.",
                    &[("worker", &i.to_string())],
                )
            })
            .collect();
        let worker_depth = (0..shards)
            .map(|i| {
                r.gauge_with(
                    "temco_worker_queue_depth",
                    "Requests waiting in each worker's shard queue.",
                    &[("worker", &i.to_string())],
                )
            })
            .collect();
        Stats {
            submitted: r
                .counter("temco_requests_submitted_total", "Requests accepted into the queue."),
            completed: r.counter(
                "temco_requests_completed_total",
                "Requests answered with an output tensor.",
            ),
            rejected_full: r.counter_with(
                "temco_requests_rejected_total",
                "Submissions rejected, by cause.",
                &[("cause", "queue_full")],
            ),
            rejected_closed: r.counter_with(
                "temco_requests_rejected_total",
                "Submissions rejected, by cause.",
                &[("cause", "shutting_down")],
            ),
            rejected_admission: r.counter_with(
                "temco_requests_rejected_total",
                "Submissions rejected, by cause.",
                &[("cause", "admission")],
            ),
            deadline_expired: r.counter_with(
                "temco_requests_failed_total",
                "Accepted requests that failed, by cause.",
                &[("cause", "deadline_expired")],
            ),
            failed_shutdown: r.counter_with(
                "temco_requests_failed_total",
                "Accepted requests that failed, by cause.",
                &[("cause", "shutdown_undrained")],
            ),
            batches: r.counter("temco_batches_total", "Engine runs (one per executed batch)."),
            bytes_moved: r.counter(
                "temco_bytes_moved_total",
                "Bytes copied by executed batches (staging + unaliased concat/flatten copies).",
            ),
            queue_depth: r.gauge("temco_queue_depth", "Requests waiting in the queue."),
            workers: r.gauge("temco_workers", "Worker threads serving this instance."),
            slab_bytes_per_worker: r
                .gauge("temco_slab_bytes_per_worker", "Slab bytes each worker's engine holds."),
            conns_accepted: r
                .counter("temco_conns_accepted_total", "Connections admitted to the event loop."),
            conns_refused: r.counter(
                "temco_conns_refused_total",
                "Connections refused because the fixed connection table was full.",
            ),
            conns_closed_idle: r
                .counter("temco_conns_closed_idle_total", "Connections reaped by the idle sweep."),
            open_conns: r.gauge("temco_open_conns", "Connections currently open."),
            spans_dropped: r.counter(
                "temco_spans_dropped_total",
                "Flight-recorder events overwritten before they could be dumped.",
            ),
            slo: SloTracker::new(slo_spec),
            slo_burn,
            slo_budget_spent: r.gauge(
                "temco_slo_budget_spent",
                "Fraction of the SLO error budget consumed within the spec window.",
            ),
            slo_cause_spend: CAUSES
                .iter()
                .map(|&cause| {
                    r.gauge_with(
                        "temco_slo_budget_spend_by_cause",
                        "Share of the lifetime error budget consumed, by failure cause.",
                        &[("cause", cause)],
                    )
                })
                .collect(),
            worker_busy_us,
            worker_batches,
            worker_depth,
            latency: r.histogram(
                "temco_request_latency_seconds",
                "End-to-end latency: enqueue to response.",
            ),
            queue_wait: r.histogram(
                "temco_queue_wait_seconds",
                "Scheduling delay: enqueue to batch-execution start.",
            ),
            service: r.histogram(
                "temco_service_time_seconds",
                "Compute time: batch-execution start to response.",
            ),
            batch_sizes: (0..max_batch).map(|_| AtomicU64::new(0)).collect(),
            registry: r,
        }
    }

    /// Record one completed request's queue-to-response latency. Also
    /// lands in the SLO tracker: good if within the spec threshold.
    pub fn record_latency(&self, d: Duration) {
        self.latency.record(d);
        self.completed.inc();
        self.slo.observe_latency(d);
    }

    /// Refresh the scrape-time SLO gauges from the tracker and the exact
    /// cause counters: burn rate per window, budget spend in the spec
    /// window, and lifetime budget spend per cause (each cause's share
    /// of offered load over the budget).
    fn refresh_slo_gauges(&self) {
        for (secs, g) in &self.slo_burn {
            g.set(self.slo.burn_rate(*secs));
        }
        let spec = self.slo.spec();
        let (good, bad) = self.slo.window_counts(spec.window.as_secs());
        let window_total = good + bad;
        self.slo_budget_spent.set(if window_total == 0 {
            0.0
        } else {
            (bad as f64 / window_total as f64) / spec.err_budget
        });
        let offered = self.submitted.get()
            + self.rejected_full.get()
            + self.rejected_closed.get()
            + self.rejected_admission.get();
        let cause_counts = [
            self.rejected_full.get(),
            self.rejected_closed.get(),
            self.rejected_admission.get(),
            self.deadline_expired.get(),
            self.failed_shutdown.get(),
        ];
        for (g, count) in self.slo_cause_spend.iter().zip(cause_counts) {
            g.set(if offered == 0 {
                0.0
            } else {
                (count as f64 / offered as f64) / spec.err_budget
            });
        }
    }

    /// Record one executed batch of `n` requests.
    pub fn record_batch(&self, n: usize) {
        self.batches.inc();
        self.batch_sizes[(n - 1).min(self.batch_sizes.len() - 1)].fetch_add(1, Relaxed);
    }

    pub fn latency_histogram(&self) -> Vec<u64> {
        self.latency.counts().to_vec()
    }

    pub fn queue_wait_histogram(&self) -> Vec<u64> {
        self.queue_wait.counts().to_vec()
    }

    pub fn service_histogram(&self) -> Vec<u64> {
        self.service.counts().to_vec()
    }

    pub fn batch_histogram(&self) -> Vec<u64> {
        self.batch_sizes.iter().map(|c| c.load(Relaxed)).collect()
    }

    /// Prometheus text exposition of every registered instrument plus the
    /// batch-size histogram. `shard_depths` is sampled by the caller (the
    /// queues own their lengths) — one entry per worker shard; the total
    /// feeds `temco_queue_depth`. Occupancy is derived here. Scrape-path
    /// only — allocates freely.
    pub fn render_prometheus(&self, shard_depths: &[usize]) -> String {
        self.queue_depth.set(shard_depths.iter().sum::<usize>() as f64);
        for (g, &d) in self.worker_depth.iter().zip(shard_depths) {
            g.set(d as f64);
        }
        self.refresh_slo_gauges();
        let mut out = self.registry.render_prometheus();
        let sizes = self.batch_histogram();
        let total: u64 = sizes.iter().sum();
        let batched: u64 = sizes.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
        let occupancy = occupancy(&sizes);
        out.push_str("# HELP temco_batch_window_occupancy Mean executed batch / max batch.\n");
        out.push_str("# TYPE temco_batch_window_occupancy gauge\n");
        out.push_str(&format!("temco_batch_window_occupancy {occupancy}\n"));
        out.push_str("# HELP temco_batch_size Executed batch sizes.\n");
        out.push_str("# TYPE temco_batch_size histogram\n");
        let mut cum = 0u64;
        for (i, &c) in sizes.iter().enumerate() {
            cum += c;
            if c == 0 && i + 1 != sizes.len() {
                continue;
            }
            out.push_str(&format!("temco_batch_size_bucket{{le=\"{}\"}} {cum}\n", i + 1));
        }
        out.push_str(&format!("temco_batch_size_bucket{{le=\"+Inf\"}} {total}\n"));
        out.push_str(&format!("temco_batch_size_sum {batched}\n"));
        out.push_str(&format!("temco_batch_size_count {total}\n"));
        out
    }
}

/// Mean executed batch size over the largest (the histogram's length, one
/// entry per size up to `max_batch`); 0 before any batch ran.
fn occupancy(batch_size_hist: &[u64]) -> f64 {
    let total: u64 = batch_size_hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let batched: u64 = batch_size_hist.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
    batched as f64 / (total * batch_size_hist.len() as u64) as f64
}

/// Bucket index a latency lands in — the obs crate's log2-µs mapping,
/// kept here as the pinned contract the tests assert against.
#[cfg(test)]
fn latency_bucket(d: Duration) -> usize {
    temco_obs::bucket_of_us(d.as_micros() as u64)
}

/// Interpolated percentile of a log2-µs bucket histogram, as a `Duration`.
fn histogram_percentile(buckets: &[u64], p: f64) -> Duration {
    Duration::from_secs_f64(percentile_log2_us(buckets, p) / 1e6)
}

/// Point-in-time view of a server's counters, returned by
/// [`crate::Server::stats`]. Plain data: safe to hold, serialize, diff.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with an output tensor.
    pub completed: u64,
    /// Submissions rejected by backpressure (queue full).
    pub rejected_full: u64,
    /// Submissions rejected because the server was draining.
    pub rejected_closed: u64,
    /// Requests rejected by connection-plane admission control (in-flight
    /// pool exhausted).
    pub rejected_admission: u64,
    /// Requests whose deadline expired before execution.
    pub deadline_expired: u64,
    /// Requests accepted into the queue but failed with `ShuttingDown`
    /// because shutdown found no worker left to drain them.
    pub failed_shutdown: u64,
    /// Engine runs (one per executed batch).
    pub batches: u64,
    /// Bytes copied by executed batches (the plan's `bytes_moved` for the
    /// rows each batch ran, accumulated).
    pub bytes_moved: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// End-to-end latency counts in power-of-two microsecond buckets (see
    /// [`LATENCY_BUCKETS`]).
    pub latency_buckets: Vec<u64>,
    /// Scheduling delay (enqueue → batch start), same bucket layout.
    pub queue_wait_buckets: Vec<u64>,
    /// Compute time (batch start → response), same bucket layout.
    pub service_buckets: Vec<u64>,
    /// Executed-batch-size counts; index `size − 1`, one entry per size up
    /// to `max_batch`.
    pub batch_size_hist: Vec<u64>,
    /// Worker threads serving this instance.
    pub workers: usize,
    /// Slab bytes each worker's engine holds (the only per-worker memory;
    /// weights are shared).
    pub slab_bytes_per_worker: usize,
    /// Per-worker-shard queue depths (parallel to the shards; sums to
    /// `queue_depth`).
    pub shard_depths: Vec<usize>,
    /// Cumulative batch-execution µs per worker (occupancy numerator).
    pub worker_busy_us: Vec<u64>,
    /// Executed batches per worker shard.
    pub worker_batches: Vec<u64>,
    /// Connections accepted by the event loop.
    pub conns_accepted: u64,
    /// Connections refused because the fixed table was full.
    pub conns_refused: u64,
    /// Connections reaped by the idle sweep.
    pub conns_closed_idle: u64,
    /// Connections currently open.
    pub open_conns: u64,
    /// Flight-recorder events overwritten before they could be dumped.
    pub spans_dropped: u64,
}

impl StatsSnapshot {
    /// Accepted requests whose outcome is decided: completed, expired, or
    /// failed at shutdown.
    pub fn settled(&self) -> u64 {
        self.completed + self.deadline_expired + self.failed_shutdown
    }

    /// Request-conservation invariant: every accepted request is either
    /// settled or still queued. Exact only when no batch is mid-execution
    /// (a popped-but-unfinished job is neither settled nor queued), so
    /// assert it at rest — after a drain, or with manual workers between
    /// steps. The `temco-check` fault injector holds the serving layer to
    /// this after every adversarial run.
    pub fn is_conserved_at_rest(&self) -> bool {
        self.submitted == self.settled() + self.queue_depth as u64
    }

    /// Mean executed batch size (0 when nothing ran yet).
    pub fn mean_batch_size(&self) -> f64 {
        let total: u64 = self.batch_size_hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 =
            self.batch_size_hist.iter().enumerate().map(|(i, &c)| (i as u64 + 1) * c).sum();
        weighted as f64 / total as f64
    }

    /// Batch-window occupancy: mean executed batch over `max_batch`
    /// (1.0 = every batch ran completely full; 0 before any batch ran).
    pub fn batch_occupancy(&self) -> f64 {
        occupancy(&self.batch_size_hist)
    }

    /// End-to-end latency percentile (`p` in 0..=100), linearly
    /// interpolated inside the winning log2 bucket
    /// ([`temco_obs::percentile_log2_us`]). The returned value always
    /// lies strictly inside the winning bucket's own range — including
    /// the overflow bucket, whose quantiles stay below its nominal
    /// `2^29` µs upper edge.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        histogram_percentile(&self.latency_buckets, p)
    }

    /// Queue-wait percentile (enqueue → batch-execution start).
    pub fn queue_wait_percentile(&self, p: f64) -> Duration {
        histogram_percentile(&self.queue_wait_buckets, p)
    }

    /// Service-time percentile (batch-execution start → response).
    pub fn service_percentile(&self, p: f64) -> Duration {
        histogram_percentile(&self.service_buckets, p)
    }

    /// Plain-text dump for logs and the wire `STATS` op.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let p = |d: Duration| d.as_secs_f64() * 1e3;
        s.push_str("temco-serve stats\n");
        s.push_str(&format!("  submitted          {}\n", self.submitted));
        s.push_str(&format!("  completed          {}\n", self.completed));
        s.push_str(&format!("  rejected (full)    {}\n", self.rejected_full));
        s.push_str(&format!("  rejected (closed)  {}\n", self.rejected_closed));
        s.push_str(&format!("  rejected (admit)   {}\n", self.rejected_admission));
        s.push_str(&format!("  deadline expired   {}\n", self.deadline_expired));
        s.push_str(&format!("  failed (shutdown)  {}\n", self.failed_shutdown));
        s.push_str(&format!("  queue depth        {}\n", self.queue_depth));
        s.push_str(&format!(
            "  batches            {} (mean size {:.2}, occupancy {:.2})\n",
            self.batches,
            self.mean_batch_size(),
            self.batch_occupancy()
        ));
        s.push_str(&format!(
            "  bytes moved        {:.2} MiB\n",
            self.bytes_moved as f64 / (1024.0 * 1024.0)
        ));
        s.push_str("  batch size hist    ");
        for (i, &c) in self.batch_size_hist.iter().enumerate() {
            if c > 0 {
                s.push_str(&format!("{}:{} ", i + 1, c));
            }
        }
        s.push('\n');
        s.push_str(&format!(
            "  latency ms         p50 {:.3}  p95 {:.3}  p99 {:.3}\n",
            p(self.latency_percentile(50.0)),
            p(self.latency_percentile(95.0)),
            p(self.latency_percentile(99.0)),
        ));
        s.push_str(&format!(
            "  queue wait ms      p50 {:.3}  p95 {:.3}  p99 {:.3}\n",
            p(self.queue_wait_percentile(50.0)),
            p(self.queue_wait_percentile(95.0)),
            p(self.queue_wait_percentile(99.0)),
        ));
        s.push_str(&format!(
            "  service ms         p50 {:.3}  p95 {:.3}  p99 {:.3}\n",
            p(self.service_percentile(50.0)),
            p(self.service_percentile(95.0)),
            p(self.service_percentile(99.0)),
        ));
        s.push_str(&format!(
            "  workers            {} × {:.2} MiB slab\n",
            self.workers,
            self.slab_bytes_per_worker as f64 / (1024.0 * 1024.0)
        ));
        if !self.worker_batches.is_empty() {
            s.push_str("  worker shards      ");
            for (i, ((&b, &us), &d)) in self
                .worker_batches
                .iter()
                .zip(&self.worker_busy_us)
                .zip(self.shard_depths.iter().chain(std::iter::repeat(&0)))
                .enumerate()
            {
                s.push_str(&format!("{i}:{b}b/{:.0}ms/q{d} ", us as f64 / 1e3));
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "  conns              accepted {}  refused {}  idle-closed {}  open {}\n",
            self.conns_accepted, self.conns_refused, self.conns_closed_idle, self.open_conns
        ));
        s.push_str(&format!("  spans dropped      {}\n", self.spans_dropped));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_from(st: &Stats) -> StatsSnapshot {
        StatsSnapshot {
            submitted: st.submitted.get(),
            completed: st.completed.get(),
            rejected_full: st.rejected_full.get(),
            rejected_closed: st.rejected_closed.get(),
            rejected_admission: st.rejected_admission.get(),
            deadline_expired: st.deadline_expired.get(),
            failed_shutdown: st.failed_shutdown.get(),
            batches: st.batches.get(),
            bytes_moved: st.bytes_moved.get(),
            queue_depth: 0,
            latency_buckets: st.latency_histogram(),
            queue_wait_buckets: st.queue_wait_histogram(),
            service_buckets: st.service_histogram(),
            batch_size_hist: st.batch_histogram(),
            workers: 1,
            slab_bytes_per_worker: 0,
            shard_depths: vec![0],
            worker_busy_us: st.worker_busy_us.iter().map(|c| c.get()).collect(),
            worker_batches: st.worker_batches.iter().map(|c| c.get()).collect(),
            conns_accepted: st.conns_accepted.get(),
            conns_refused: st.conns_refused.get(),
            conns_closed_idle: st.conns_closed_idle.get(),
            open_conns: st.open_conns.get() as u64,
            spans_dropped: st.spans_dropped.get(),
        }
    }

    #[test]
    fn latency_buckets_are_log2_microseconds() {
        // Bucket 0 is sub-microsecond; bucket i (1..=28) is [2^(i-1), 2^i) µs.
        assert_eq!(latency_bucket(Duration::from_micros(0)), 0);
        assert_eq!(latency_bucket(Duration::from_nanos(999)), 0);
        assert_eq!(latency_bucket(Duration::from_micros(1)), 1);
        assert_eq!(latency_bucket(Duration::from_micros(2)), 2);
        assert_eq!(latency_bucket(Duration::from_micros(3)), 2);
        assert_eq!(latency_bucket(Duration::from_micros(1000)), 10);
        // The overflow bucket starts at 2^28 µs ≈ 4.5 min, exactly where
        // the penultimate bucket ends — no gap, no double coverage.
        assert_eq!(latency_bucket(Duration::from_micros((1 << 28) - 1)), LATENCY_BUCKETS - 2);
        assert_eq!(latency_bucket(Duration::from_micros(1 << 28)), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket(Duration::from_secs(3600)), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn percentiles_stay_inside_the_histogram_range() {
        // All mass in the overflow bucket: the reported percentile must lie
        // inside that bucket's nominal [2^28, 2^29) µs span, not past it.
        let st = Stats::new(1, 1, SloSpec::default());
        st.record_latency(Duration::from_secs(3600));
        st.submitted.inc();
        let snap = snap_from(&st);
        let p99 = snap.latency_percentile(99.0);
        assert!(p99 >= Duration::from_micros(1 << 28), "p99 {p99:?} below the overflow bucket");
        assert!(p99 < Duration::from_micros(1 << 29), "p99 {p99:?} past the histogram range");
        // Sub-microsecond mass reports a sub-microsecond percentile.
        let st = Stats::new(1, 1, SloSpec::default());
        st.record_latency(Duration::from_nanos(100));
        let snap = StatsSnapshot { latency_buckets: st.latency_histogram(), ..snap };
        assert!(snap.latency_percentile(50.0) < Duration::from_micros(1));
    }

    #[test]
    fn percentiles_interpolate_against_exact_quantiles() {
        // Regression for the old upper-edge / geometric-midpoint bias:
        // 1..=1000 µs uniformly has exact p50 = 500 µs. The bucket edge
        // estimator said 512, the geometric midpoint ~362 — both >2% off;
        // linear interpolation inside [256, 512) lands within 1%.
        let st = Stats::new(1, 1, SloSpec::default());
        let exact = |p: f64| (p / 100.0 * 1000.0) as u64;
        for us in 1..=1000u64 {
            st.record_latency(Duration::from_micros(us));
        }
        let snap = snap_from(&st);
        for p in [25.0, 50.0, 75.0, 90.0] {
            let got = snap.latency_percentile(p).as_secs_f64() * 1e6;
            let want = exact(p) as f64;
            let rel = (got - want).abs() / want;
            assert!(rel < 0.16, "p{p}: interpolated {got:.1} µs vs exact {want} µs");
        }
        // The p50 specifically (tight uniform mass) is within 1%.
        let p50 = snap.latency_percentile(50.0).as_secs_f64() * 1e6;
        assert!((p50 - 500.0).abs() / 500.0 < 0.01, "p50 {p50:.1}");
    }

    #[test]
    fn wait_and_service_histograms_are_recorded_separately() {
        let st = Stats::new(4, 1, SloSpec::default());
        st.queue_wait.record(Duration::from_micros(10));
        st.service.record(Duration::from_micros(5000));
        st.record_latency(Duration::from_micros(5010));
        st.submitted.inc();
        let snap = snap_from(&st);
        assert_eq!(snap.queue_wait_buckets.iter().sum::<u64>(), 1);
        assert_eq!(snap.service_buckets.iter().sum::<u64>(), 1);
        assert!(snap.queue_wait_percentile(50.0) < Duration::from_micros(20));
        assert!(snap.service_percentile(50.0) > Duration::from_micros(1000));
        assert!(snap.is_conserved_at_rest());
        let text = snap.render();
        assert!(text.contains("queue wait ms"));
        assert!(text.contains("service ms"));
    }

    #[test]
    fn percentiles_and_mean_batch_from_histograms() {
        let st = Stats::new(8, 1, SloSpec::default());
        for _ in 0..90 {
            st.record_latency(Duration::from_micros(100)); // bucket 7
        }
        for _ in 0..10 {
            st.record_latency(Duration::from_micros(100_000)); // bucket 17
        }
        st.record_batch(1);
        st.record_batch(8);
        st.record_batch(8);
        st.record_batch(40); // defensive: size clamps to the top bucket
        for _ in 0..100 {
            st.submitted.inc();
        }
        let snap = snap_from(&st);
        let p50 = snap.latency_percentile(50.0);
        assert!(p50 >= Duration::from_micros(64) && p50 < Duration::from_micros(128));
        let p99 = snap.latency_percentile(99.0);
        assert!(p99 >= Duration::from_micros(65_536), "p99 {p99:?}");
        assert_eq!(snap.batch_size_hist[0], 1);
        assert_eq!(snap.batch_size_hist[7], 3);
        assert!((snap.mean_batch_size() - 25.0 / 4.0).abs() < 1e-9);
        // A mean batch of 25/4 out of 8.
        assert!((snap.batch_occupancy() - 25.0 / 32.0).abs() < 1e-9);
        let text = snap.render();
        assert!(text.contains("mean size"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn prometheus_scrape_exposes_the_metrics_plane() {
        let st = Stats::new(8, 1, SloSpec::default());
        st.submitted.add(5);
        st.rejected_full.inc();
        st.deadline_expired.inc();
        st.queue_wait.record(Duration::from_micros(100));
        st.service.record(Duration::from_micros(2000));
        st.record_latency(Duration::from_micros(2100));
        st.record_batch(3);
        st.bytes_moved.add(4096);
        st.workers.set(2.0);
        let text = st.render_prometheus(&[7]);
        assert!(text.contains("temco_requests_submitted_total 5"));
        assert!(text.contains("temco_requests_rejected_total{cause=\"queue_full\"} 1"));
        assert!(text.contains("temco_requests_failed_total{cause=\"deadline_expired\"} 1"));
        assert!(text.contains("temco_queue_depth 7"));
        assert!(text.contains("temco_worker_queue_depth{worker=\"0\"} 7"));
        assert!(text.contains("temco_workers 2"));
        assert!(text.contains("# TYPE temco_queue_wait_seconds histogram"));
        assert!(text.contains("temco_queue_wait_seconds_count 1"));
        assert!(text.contains("temco_service_time_seconds_count 1"));
        assert!(text.contains("temco_request_latency_seconds_count 1"));
        // Batch occupancy 3/8 and the integer-bucketed size histogram.
        assert!(text.contains("temco_batch_window_occupancy 0.375"));
        assert!(text.contains("temco_batch_size_bucket{le=\"3\"} 1"));
        assert!(text.contains("temco_batch_size_bucket{le=\"+Inf\"} 1"));
        assert!(!text.contains("temco_batch_slots_total"));
        assert!(text.contains("temco_bytes_moved_total 4096"));
    }
}
