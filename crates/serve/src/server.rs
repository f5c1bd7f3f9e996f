//! The server: plan cache, sharded request queues, worker threads,
//! lifecycle.
//!
//! `Server::new` does all the expensive work up front — it compiles the
//! model once per batch-size bucket (1, 2, 4, …, `max_batch`) into a
//! shared, immutable plan cache. Buckets are `Graph::rebatch` clones, so
//! all of them (and every worker) reference **one** copy of the weights;
//! a worker's only private memory is its slabs. After startup the hot
//! path never plans: a gathered batch of n requests pads to the smallest
//! bucket ≥ n and runs that bucket's precompiled engine.
//!
//! Requests are **sharded**: each worker owns a private bounded queue
//! (`queue_cap` deep) and drains only it — no cross-worker contention on
//! a shared lock, and shutdown drains per worker. Submissions route by
//! power-of-two-choices: pick two shards round-robin, enqueue on the
//! shorter, falling over to the other if the first is full. Total
//! admitted backlog therefore scales with the worker count, which is
//! what makes added workers absorb bursts even when a single core caps
//! steady-state compute.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use temco_ir::Graph;
use temco_obs::{cause, chrome_trace, kind, FlightRecorder, SloSpec, NO_TRACE};
use temco_runtime::CompiledGraph;
use temco_tensor::Tensor;

use crate::error::{BuildError, ServeError};
use crate::queue::{JobQueue, PushError};
use crate::stats::{Stats, StatsSnapshot};
use crate::ticket::{Slot, Ticket};
use crate::worker::{Job, Worker};

/// Serving parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads. `0` spawns none — drive inference manually with
    /// [`Server::manual_worker`] (synchronous embedding, tests).
    pub workers: usize,
    /// Largest executed batch (and largest plan-cache bucket).
    pub max_batch: usize,
    /// How long a worker holds an incomplete batch open for late arrivals.
    pub max_delay: Duration,
    /// Bounded **per-worker** queue capacity; submissions beyond every
    /// shard's capacity are rejected. Size it to the backlog one worker
    /// can clear within the latency budget — total admitted backlog is
    /// then `workers × queue_cap` and scales with the fleet.
    pub queue_cap: usize,
    /// Deadline applied to [`Server::submit`] (none by default);
    /// [`Server::submit_with_deadline`] overrides per request.
    pub default_deadline: Option<Duration>,
    /// Declared service-level objective. Completed requests land in the
    /// SLO tracker as good/bad against this spec; burn-rate gauges and
    /// the `STATUS` page report against it.
    pub slo: SloSpec,
    /// Capacity (in events) of the always-on flight recorder ring.
    pub flight_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_cap: 64,
            default_deadline: None,
            slo: SloSpec::default(),
            flight_capacity: 8192,
        }
    }
}

/// Hook the event loop installs to be woken (via eventfd) whenever a
/// worker settles a batch of slots.
pub(crate) type BatchHook = Arc<dyn Fn() + Send + Sync>;

/// State shared by submitters and workers.
pub(crate) struct Core {
    /// One bounded queue per worker (a single shard with `workers: 0` so
    /// manual mode still has somewhere to enqueue).
    pub shards: Box<[JobQueue]>,
    /// Round-robin cursor for two-choice routing.
    rr: AtomicUsize,
    pub stats: Stats,
    /// Bucket batch sizes, ascending; the last equals `cfg.max_batch`.
    pub buckets: Vec<usize>,
    /// Precompiled plan per bucket (parallel to `buckets`).
    pub plans: Vec<Arc<CompiledGraph>>,
    /// Per-sample input shape, `[1, …]`.
    pub sample_shape: Vec<usize>,
    /// Per-sample output shape, `[1, …]`.
    pub output_shape: Vec<usize>,
    pub sample_numel: usize,
    pub output_numel: usize,
    /// Graph input name, for shape-mismatch reports.
    pub input_name: String,
    pub cfg: ServeConfig,
    /// Called by workers after each settled batch (and by shutdown's
    /// undrained-job sweep) so the event loop can harvest completions.
    batch_hook: RwLock<Option<BatchHook>>,
    /// The always-on flight recorder every plane records into.
    pub flight: Arc<FlightRecorder>,
    /// Next request trace id for the direct (in-process) submit API.
    /// The connection plane uses its own pool-strided namespace above
    /// `1 << 32`; direct submissions count up from 1.
    next_trace: AtomicU64,
    /// Next batch id; workers tag a batch's spans with
    /// `temco_obs::batch_trace(id)`.
    next_batch: AtomicU32,
    /// Where to write a chrome dump if a worker panics (in addition to
    /// the post-mortem on stderr).
    panic_dump: RwLock<Option<PathBuf>>,
}

impl Core {
    /// Route a job to a shard: power-of-two-choices on queue depth, with
    /// a fallover push to the other candidate when the first is full.
    /// Returns the shard index the job landed on, or the job itself on
    /// rejection so the caller can reclaim its buffers. Allocation-free.
    pub fn route(&self, job: Job) -> Result<usize, PushError> {
        let n = self.shards.len();
        if n == 1 {
            return self.shards[0].push(job).map(|()| 0);
        }
        let t = self.rr.fetch_add(1, Relaxed);
        let a = t % n;
        let mut b = (t >> 1) % n;
        if a == b {
            b = (b + 1) % n;
        }
        let (first, second) =
            if self.shards[a].len() <= self.shards[b].len() { (a, b) } else { (b, a) };
        match self.shards[first].push(job) {
            Ok(()) => Ok(first),
            Err(PushError::Full(job)) => self.shards[second].push(job).map(|()| second),
            Err(closed) => Err(closed),
        }
    }

    /// Next trace id for a directly-submitted (in-process) request.
    pub fn next_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Relaxed)
    }

    /// Allocate the next batch trace id.
    pub fn next_batch_trace(&self) -> u64 {
        temco_obs::batch_trace(self.next_batch.fetch_add(1, Relaxed))
    }

    /// Jobs currently queued across every shard.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(JobQueue::len).sum()
    }

    /// Per-shard queue depths, in worker order.
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shards.iter().map(JobQueue::len).collect()
    }

    /// Stop accepting work on every shard (workers drain and exit).
    pub fn close(&self) {
        for q in self.shards.iter() {
            q.close();
        }
    }

    pub fn is_closed(&self) -> bool {
        self.shards[0].is_closed()
    }

    /// Install (or clear) the settled-batch hook.
    pub fn set_batch_hook(&self, hook: Option<BatchHook>) {
        *self.batch_hook.write().unwrap() = hook;
    }

    /// Fire the settled-batch hook, if installed. Called by workers after
    /// each executed or shed batch; allocation-free (an `eventfd` write).
    pub fn notify_batch_done(&self) {
        if let Some(hook) = self.batch_hook.read().unwrap().as_ref() {
            hook();
        }
    }
}

struct Inner {
    core: Arc<Core>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    slab_bytes_per_worker: usize,
}

/// A dynamic-batching inference server over a compiled model. Cheaply
/// cloneable (all clones share one instance); any clone may submit,
/// snapshot stats, or initiate shutdown.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

/// Power-of-two bucket ladder `1, 2, 4, …` capped and topped by
/// `max_batch` itself.
fn bucket_ladder(max_batch: usize) -> Vec<usize> {
    let mut buckets = Vec::new();
    let mut b = 1;
    while b < max_batch {
        buckets.push(b);
        b *= 2;
    }
    buckets.push(max_batch);
    buckets
}

impl Server {
    /// Compile `graph` into the bucketed plan cache and start
    /// `cfg.workers` worker threads. The graph may have been built at any
    /// batch size — it is re-batched per bucket, sharing its weights.
    pub fn new(graph: Graph, cfg: ServeConfig) -> Result<Server, BuildError> {
        if cfg.max_batch == 0 {
            return Err(BuildError::Unsupported("max_batch must be positive".into()));
        }
        if cfg.queue_cap == 0 {
            return Err(BuildError::Unsupported("queue_cap must be positive".into()));
        }
        if graph.inputs.len() != 1 || graph.outputs.len() != 1 {
            return Err(BuildError::Unsupported(format!(
                "serving requires exactly one input and one output, got {} and {}",
                graph.inputs.len(),
                graph.outputs.len()
            )));
        }

        let buckets = bucket_ladder(cfg.max_batch);
        let mut plans = Vec::with_capacity(buckets.len());
        for &b in &buckets {
            let bucketed =
                graph.try_rebatch(b).map_err(|source| BuildError::Rebatch { bucket: b, source })?;
            debug_assert!(bucketed.weights.shares_storage_with(&graph.weights));
            plans.push(Arc::new(
                CompiledGraph::new(bucketed)
                    .map_err(|source| BuildError::Compile { bucket: b, source })?,
            ));
        }

        let (sample_shape, output_shape, input_name) = {
            let g1 = plans[0].graph();
            let input = g1.inputs[0];
            (
                g1.shape(input).to_vec(),
                g1.shape(g1.outputs[0]).to_vec(),
                g1.values[input.0 as usize].name.clone(),
            )
        };
        let n_shards = cfg.workers.max(1);
        let flight = Arc::new(FlightRecorder::with_capacity(cfg.flight_capacity));
        let stats = Stats::new(cfg.max_batch, cfg.workers, cfg.slo);
        flight.set_drop_counter(stats.spans_dropped.clone());
        let core = Arc::new(Core {
            shards: (0..n_shards).map(|_| JobQueue::new(cfg.queue_cap)).collect(),
            rr: AtomicUsize::new(0),
            stats,
            buckets,
            plans,
            sample_numel: sample_shape.iter().product(),
            output_numel: output_shape.iter().product(),
            sample_shape,
            output_shape,
            input_name,
            cfg,
            batch_hook: RwLock::new(None),
            flight,
            next_trace: AtomicU64::new(1),
            next_batch: AtomicU32::new(0),
            panic_dump: RwLock::new(None),
        });

        // Every worker allocates one slab per bucket; everything else
        // (weights, plans, graph structure) is shared.
        let slab_bytes_per_worker: usize = core.plans.iter().map(|p| p.slab_bytes()).sum();
        core.stats.workers.set(cfg.workers as f64);
        core.stats.slab_bytes_per_worker.set(slab_bytes_per_worker as f64);
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let worker = Worker::new(core.clone(), i);
            let worker_core = core.clone();
            let spawned =
                std::thread::Builder::new().name(format!("temco-serve-{i}")).spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run()));
                    if r.is_err() {
                        // The panic itself already printed; leave behind a
                        // cause-labeled event and a post-mortem of the last
                        // moments so the crash is attributable.
                        worker_core.flight.event(cause::PANIC, NO_TRACE);
                        eprintln!(
                            "{}",
                            worker_core.flight.post_mortem(&format!("worker {i} panicked"))
                        );
                        if let Some(path) = worker_core.panic_dump.read().unwrap().clone() {
                            let json = chrome_trace(
                                worker_core.flight.snapshot().iter(),
                                temco_obs::default_name,
                            );
                            if let Err(e) = std::fs::write(&path, json) {
                                eprintln!("failed to write panic dump {}: {e}", path.display());
                            }
                        }
                    }
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(source) => {
                    // Recoverable: unwind the workers already running so
                    // the partial server leaves nothing behind.
                    core.close();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(BuildError::Spawn { worker: i, source });
                }
            }
        }

        Ok(Server {
            inner: Arc::new(Inner { core, workers: Mutex::new(handles), slab_bytes_per_worker }),
        })
    }

    /// Submit one sample (shape `[1, …]`) with the configured default
    /// deadline. Non-blocking: a full queue rejects immediately.
    pub fn submit(&self, sample: Tensor) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(sample, self.inner.core.cfg.default_deadline)
    }

    /// Submit with an explicit deadline (measured from now). A request
    /// whose deadline expires in the queue fails with
    /// [`ServeError::DeadlineExceeded`] without being executed.
    pub fn submit_with_deadline(
        &self,
        sample: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, ServeError> {
        let core = &self.inner.core;
        if sample.shape() != core.sample_shape {
            return Err(ServeError::InputShape {
                name: core.input_name.clone(),
                expected: core.sample_shape.clone(),
                got: sample.shape().to_vec(),
            });
        }
        let now = Instant::now();
        let slot = Slot::pending(Tensor::zeros(&core.output_shape));
        let trace = core.next_trace();
        let job = Job {
            input: sample,
            deadline: deadline.map(|d| now + d),
            enqueued: now,
            slot: slot.clone(),
            trace,
        };
        match core.route(job) {
            Ok(_shard) => {
                core.stats.submitted.inc();
                Ok(Ticket { slot, enqueued: now })
            }
            Err(PushError::Full(_)) => {
                core.stats.rejected_full.inc();
                core.stats.slo.observe_error();
                core.flight.event(cause::QUEUE_FULL, trace);
                Err(ServeError::QueueFull)
            }
            Err(PushError::Closed(_)) => {
                core.stats.rejected_closed.inc();
                core.stats.slo.observe_error();
                core.flight.event(cause::CLOSED, trace);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Submit-and-wait convenience for blocking callers.
    pub fn infer(&self, sample: Tensor) -> Result<Tensor, ServeError> {
        self.submit(sample)?.wait()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StatsSnapshot {
        let core = &self.inner.core;
        let st = &core.stats;
        StatsSnapshot {
            submitted: st.submitted.get(),
            completed: st.completed.get(),
            rejected_full: st.rejected_full.get(),
            rejected_closed: st.rejected_closed.get(),
            rejected_admission: st.rejected_admission.get(),
            deadline_expired: st.deadline_expired.get(),
            failed_shutdown: st.failed_shutdown.get(),
            batches: st.batches.get(),
            batch_slots: st.batch_slots.get(),
            bytes_moved: st.bytes_moved.get(),
            queue_depth: core.queue_depth(),
            latency_buckets: st.latency_histogram(),
            queue_wait_buckets: st.queue_wait_histogram(),
            service_buckets: st.service_histogram(),
            batch_size_hist: st.batch_histogram(),
            workers: core.cfg.workers,
            slab_bytes_per_worker: self.inner.slab_bytes_per_worker,
            shard_depths: core.shard_depths(),
            worker_busy_us: st.worker_busy_us.iter().map(|c| c.get()).collect(),
            worker_batches: st.worker_batches.iter().map(|c| c.get()).collect(),
            conns_accepted: st.conns_accepted.get(),
            conns_refused: st.conns_refused.get(),
            conns_closed_idle: st.conns_closed_idle.get(),
            open_conns: st.open_conns.get() as u64,
            spans_dropped: st.spans_dropped.get(),
        }
    }

    /// Prometheus text exposition of the metrics plane: request counters
    /// (rejects and failures labeled by cause), total and per-worker
    /// queue depths, batch-window occupancy, connection-plane counters,
    /// and the latency / queue-wait / service-time histograms. Served
    /// over the wire as the `METRICS` opcode; scrape-path only —
    /// allocates freely.
    pub fn prometheus_metrics(&self) -> String {
        let core = &self.inner.core;
        core.stats.render_prometheus(&core.shard_depths())
    }

    /// The always-on flight recorder every plane records into.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.inner.core.flight
    }

    /// Also write a chrome dump of the flight recorder to `path` when a
    /// worker panics (the human-readable post-mortem always goes to
    /// stderr).
    pub fn set_panic_dump(&self, path: Option<PathBuf>) {
        *self.inner.core.panic_dump.write().unwrap() = path;
    }

    /// Render the flight recorder as a linked chrome://tracing document
    /// (process/thread metadata, per-request flow arrows). Engine `NODE`
    /// spans are named after their graph node — the node id space is
    /// shared across buckets because rebatching preserves structure.
    /// Served over the wire as the `DUMP` opcode; cold path, allocates.
    pub fn flight_dump_json(&self) -> String {
        let core = &self.inner.core;
        let g = core.plans[0].graph();
        chrome_trace(core.flight.snapshot().iter(), |e| match e.kind {
            kind::NODE => g
                .nodes
                .get(e.node as usize)
                .map_or_else(|| temco_obs::default_name(e), |n| n.name.clone()),
            _ => temco_obs::default_name(e),
        })
    }

    /// The plain-text `STATUS` page: point-in-time liveness numbers —
    /// per-worker queue depth, connection-table occupancy, slab
    /// footprint, recorder fill/drop accounting, and the SLO spec with
    /// its burn rates. Cold path; allocates freely.
    pub fn status_text(&self) -> String {
        use std::fmt::Write as _;
        let core = &self.inner.core;
        let st = &core.stats;
        let spec = core.cfg.slo;
        let mut out = String::new();
        let _ = writeln!(out, "temco-serve status");
        let _ = writeln!(out, "  workers              {}", core.cfg.workers);
        for (i, d) in core.shard_depths().iter().enumerate() {
            let _ = writeln!(out, "  shard[{i}] queue       {d} / {}", core.cfg.queue_cap);
        }
        let _ = writeln!(out, "  open connections     {}", st.open_conns.get() as u64);
        let _ = writeln!(out, "  slab bytes/worker    {}", self.inner.slab_bytes_per_worker);
        // One read, so the page's `len + dropped == total` holds even while
        // workers publish.
        let (len, cap, total, dropped) =
            core.flight.read(|r| (r.len(), r.capacity(), r.total(), r.dropped()));
        let _ = writeln!(
            out,
            "  flight recorder      {len} / {cap} events ({total} recorded, {dropped} dropped)"
        );
        let _ = writeln!(out, "  slo                  {}", spec.render());
        let spec_secs = spec.window.as_secs();
        for &(name, secs) in temco_obs::BURN_WINDOWS.iter() {
            let _ = writeln!(out, "  burn rate {name:<4}       {:.3}", st.slo.burn_rate(secs));
        }
        if temco_obs::BURN_WINDOWS.iter().all(|&(_, s)| s != spec_secs) {
            let _ = writeln!(
                out,
                "  burn rate {:<4}       {:.3}",
                format!("{spec_secs}s"),
                st.slo.burn_rate(spec_secs)
            );
        }
        out
    }

    /// Per-sample input shape the server expects (`[1, …]`).
    pub fn sample_shape(&self) -> &[usize] {
        &self.inner.core.sample_shape
    }

    /// Per-sample output shape (`[1, …]`).
    pub fn output_shape(&self) -> &[usize] {
        &self.inner.core.output_shape
    }

    /// The bucket ladder of the plan cache.
    pub fn buckets(&self) -> &[usize] {
        &self.inner.core.buckets
    }

    /// A manually-stepped worker over this server's first shard and plan
    /// cache. Use with `workers: 0` for synchronous embedding or
    /// deterministic tests; see [`Worker::step`].
    pub fn manual_worker(&self) -> Worker {
        Worker::new(self.inner.core.clone(), 0)
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.inner.core
    }

    /// Graceful shutdown: stop accepting work, let each worker drain its
    /// shard, and join them. Idempotent; any clone may call it.
    ///
    /// With `workers: 0` (manual mode) there is nobody to drain the queue,
    /// so any jobs still enqueued are failed with
    /// [`ServeError::ShuttingDown`] — their tickets unblock instead of
    /// hanging forever.
    pub fn shutdown(&self) {
        if !self.inner.core.is_closed() {
            self.inner.core.flight.event(cause::SHUTDOWN, NO_TRACE);
        }
        self.inner.core.close();
        let handles = std::mem::take(&mut *self.inner.workers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        fail_undrained(&self.inner.core);
    }

    /// Whether shutdown has been initiated.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.core.is_closed()
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.core.close();
        for h in std::mem::take(&mut *self.workers.lock().unwrap()) {
            let _ = h.join();
        }
        fail_undrained(&self.core);
    }
}

/// Fail every job still queued after the workers have exited (workers drain
/// their shards before exiting, so this only fires in `workers: 0` manual
/// mode or if a worker died). Keeps the stats conservation law intact:
/// every submitted job settles as completed, expired, or failed-shutdown.
fn fail_undrained(core: &Core) {
    let mut any = false;
    for q in core.shards.iter() {
        while let Some(job) = q.try_pop() {
            core.flight.event(cause::SHUTDOWN, job.trace);
            core.stats.slo.observe_error();
            job.slot.complete_err_returning(ServeError::ShuttingDown, job.input);
            core.stats.failed_shutdown.inc();
            any = true;
        }
    }
    if any {
        core.notify_batch_done();
    }
}
