//! The batching worker: gather → bucket → pad → run → scatter.
//!
//! Each worker owns one [`Engine`] (private slab) per batch-size bucket,
//! all sharing the server's [`temco_runtime::CompiledGraph`] plan cache — so a batch of
//! any admitted size executes on a precompiled plan, and the hot loop
//! never plans, never compiles, and never heap-allocates:
//!
//! * gathered jobs move into a preallocated `Vec` (capacity `max_batch`),
//! * samples are copied into the bucket's preallocated staging tensor
//!   (padding rows zeroed; per-sample outputs are batch-independent for
//!   every op in the IR, so padding never leaks into real rows),
//! * the bucket engine runs zero-alloc on its slab,
//! * output rows are scattered into each request's preallocated response
//!   buffer ([`crate::ticket::Slot`]).
//!
//! Each worker drains exactly one shard queue, so a busy worker never
//! contends with its siblings on a shared lock. Completions go through
//! the `*_returning` slot variants — the request's input tensor rides back
//! with the result so a pooled connection-plane context can recycle it —
//! and each settled batch fires the core's batch hook to wake the event
//! loop (an `eventfd` write, allocation-free).
//!
//! Expired deadlines are failed *before* execution; a request that cannot
//! make its deadline costs no FLOPs.

use std::sync::Arc;
use std::time::Instant;

use temco_obs::{batch_id_of, cause, kind, Recorder};
use temco_runtime::Engine;
use temco_tensor::Tensor;

use crate::error::ServeError;
use crate::server::Core;
use crate::ticket::Slot;

/// One queued request.
pub(crate) struct Job {
    /// The single-sample input, shape `[1, …]`.
    pub input: Tensor,
    /// Absolute expiry; `None` waits forever.
    pub deadline: Option<Instant>,
    /// When the job entered the queue (latency accounting).
    pub enqueued: Instant,
    /// Where the result goes.
    pub slot: Arc<Slot>,
    /// Causal trace id, assigned at admission and carried through the
    /// batch so every span of this request's life links up.
    pub trace: u64,
}

/// What one [`Worker::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// Executed a batch of this many requests.
    Ran(usize),
    /// Queue was empty (or every gathered job had expired).
    Idle,
    /// Queue is closed and fully drained — the worker is done.
    Drained,
}

/// A single serving worker bound to one shard queue. Server-spawned
/// threads drive it with the blocking loop; tests and embedders can
/// single-step it via [`Worker::step`] (obtained from
/// [`crate::Server::manual_worker`], which binds shard 0).
pub struct Worker {
    core: Arc<Core>,
    /// Which shard queue this worker drains (also its stats index).
    shard: usize,
    /// Per-bucket engines, parallel to `core.buckets`.
    engines: Vec<Engine>,
    /// Per-bucket staging input tensors, `[bucket, …]`.
    staging: Vec<Tensor>,
    /// Gather buffer, capacity `max_batch`, reused every step.
    batch: Vec<Job>,
    /// Swap space for the deadline shed (keeps live jobs while expired
    /// ones are consumed by value), capacity `max_batch`.
    keep: Vec<Job>,
    /// Optional span recorder ([`attach_recorder`](Worker::attach_recorder)).
    /// Preallocated; recording in the hot loop stays allocation-free.
    rec: Option<Recorder>,
}

impl Worker {
    pub(crate) fn new(core: Arc<Core>, shard: usize) -> Worker {
        let engines: Vec<Engine> =
            core.plans.iter().map(|p| Engine::from_compiled(p.clone())).collect();
        let staging =
            engines.iter().map(|e| Tensor::zeros(e.graph().shape(e.graph().inputs[0]))).collect();
        let batch = Vec::with_capacity(core.cfg.max_batch);
        let keep = Vec::with_capacity(core.cfg.max_batch);
        Worker { core, shard, engines, staging, batch, keep, rec: None }
    }

    /// Attach a preallocated span recorder. Subsequent steps record
    /// `GATHER`/`STAGE`/`BATCH_RUN`/`SCATTER` spans into its ring without
    /// allocating.
    pub fn attach_recorder(&mut self, rec: Recorder) {
        self.rec = Some(rec);
    }

    /// Detach the recorder (to read its spans) — the inverse of
    /// [`attach_recorder`](Worker::attach_recorder).
    pub fn take_recorder(&mut self) -> Option<Recorder> {
        self.rec.take()
    }

    /// Total slab bytes this worker holds across its bucket engines.
    pub fn slab_bytes(&self) -> usize {
        self.engines.iter().map(Engine::slab_bytes).sum()
    }

    fn queue(&self) -> &crate::queue::JobQueue {
        &self.core.shards[self.shard]
    }

    /// Gather and execute one batch without blocking on an empty queue.
    /// With jobs queued, still honors the max-delay window to give late
    /// arrivals a chance to join the batch.
    pub fn step(&mut self) -> StepOutcome {
        match self.queue().try_pop() {
            Some(job) => self.gather_and_run(job),
            None if self.queue().is_closed() => StepOutcome::Drained,
            None => StepOutcome::Idle,
        }
    }

    /// The server thread loop: block for work, run batches, exit when the
    /// shard queue closes and drains.
    pub(crate) fn run(mut self) {
        loop {
            match self.queue().pop_blocking() {
                Some(job) => {
                    self.gather_and_run(job);
                }
                None => return,
            }
        }
    }

    fn gather_and_run(&mut self, first: Job) -> StepOutcome {
        let gather_span = self.rec.as_ref().map(|r| r.start());
        self.batch.clear();
        self.batch.push(first);
        let window_end = Instant::now() + self.core.cfg.max_delay;
        while self.batch.len() < self.core.cfg.max_batch {
            match self.queue().pop_until(window_end) {
                Some(job) => self.batch.push(job),
                None => break,
            }
        }
        if let (Some(r), Some(s)) = (self.rec.as_mut(), gather_span) {
            r.finish(s, kind::GATHER, self.batch.len() as u32);
        }
        let outcome = self.execute_batch();
        self.core.notify_batch_done();
        outcome
    }

    fn execute_batch(&mut self) -> StepOutcome {
        let stats = &self.core.stats;
        let flight = &self.core.flight;
        // Shed expired requests without executing them, handing each its
        // input tensor back. Drain through the preallocated swap buffer so
        // live jobs survive by move, not clone.
        let now = Instant::now();
        self.keep.clear();
        for job in self.batch.drain(..) {
            if job.deadline.is_some_and(|d| d <= now) {
                flight.event(cause::DEADLINE, job.trace);
                stats.slo.observe_error();
                job.slot.complete_err_returning(ServeError::DeadlineExceeded, job.input);
                stats.deadline_expired.inc();
            } else {
                self.keep.push(job);
            }
        }
        std::mem::swap(&mut self.batch, &mut self.keep);
        let n = self.batch.len();
        if n == 0 {
            return StepOutcome::Idle;
        }

        let bi = self
            .core
            .buckets
            .iter()
            .position(|&b| b >= n)
            .expect("max_batch is always the last bucket");
        let bucket = self.core.buckets[bi] as u32;
        // Every span this batch emits shares one batch trace id; member
        // requests fan in via `MEMBER` markers keyed on the batch id.
        let bt = self.core.next_batch_trace();
        let batch_id = batch_id_of(bt);
        // Everything queued before this instant is queue wait; everything
        // after is service (stage + run + scatter).
        let exec_start = Instant::now();
        let exec_ns = flight.ns_of(exec_start);
        for job in &self.batch {
            stats.queue_wait.record(exec_start.saturating_duration_since(job.enqueued));
            flight.span(
                kind::QUEUE,
                self.shard as u32,
                job.trace,
                flight.ns_of(job.enqueued),
                exec_ns,
            );
            flight.span(kind::MEMBER, batch_id, job.trace, exec_ns, exec_ns);
        }
        let sample_len = self.core.sample_numel;
        let stage_span = self.rec.as_ref().map(|r| r.start());
        {
            let staged = self.staging[bi].data_mut();
            for (i, job) in self.batch.iter().enumerate() {
                staged[i * sample_len..(i + 1) * sample_len].copy_from_slice(job.input.data());
            }
            staged[n * sample_len..].fill(0.0);
        }
        let stage_end_ns = flight.now_ns();
        flight.span(kind::STAGE, bucket, bt, exec_ns, stage_end_ns);
        if let (Some(r), Some(s)) = (self.rec.as_mut(), stage_span) {
            r.finish(s, kind::STAGE, bucket);
        }
        let run_span = self.rec.as_ref().map(|r| r.start());
        // `run_flight` tags the engine's RUN/NODE spans with the owning
        // batch trace, so a request is traceable down to the node level.
        let outs = self.engines[bi]
            .run_flight(std::slice::from_ref(&self.staging[bi]), flight, bt)
            .expect("bucket plan validated at server construction");
        let run_end_ns = flight.now_ns();
        flight.span(kind::BATCH_RUN, bucket, bt, stage_end_ns, run_end_ns);
        if let (Some(r), Some(s)) = (self.rec.as_mut(), run_span) {
            r.finish(s, kind::BATCH_RUN, bucket);
        }
        let scatter_span = self.rec.as_ref().map(|r| r.start());
        let out = outs[0].data();
        let out_len = self.core.output_numel;
        for (i, job) in self.batch.drain(..).enumerate() {
            job.slot.complete_ok_returning(&out[i * out_len..(i + 1) * out_len], job.input);
            stats.record_latency(job.enqueued.elapsed());
        }
        flight.span(kind::SCATTER, bucket, bt, run_end_ns, flight.now_ns());
        if let (Some(r), Some(s)) = (self.rec.as_mut(), scatter_span) {
            r.finish(s, kind::SCATTER, bucket);
        }
        let service = exec_start.elapsed();
        for _ in 0..n {
            stats.service.record(service);
        }
        stats.record_batch(n, bucket as usize);
        stats.bytes_moved.add(self.engines[bi].plan().bytes_moved as u64);
        stats.worker_busy_us[self.shard].add(service.as_micros() as u64);
        stats.worker_batches[self.shard].inc();
        StepOutcome::Ran(n)
    }
}
