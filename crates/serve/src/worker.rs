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
//!
//! Every span of a batch — GATHER, the members' QUEUE / MEMBER / DEADLINE
//! records, STAGE, the engine's RUN and NODE spans, BATCH_RUN, SCATTER —
//! goes into the worker's own preallocated [`Recorder`], built on the
//! flight recorder's clock and sized for the largest batch. Before the
//! batch is announced done, the worker publishes that ring to the flight
//! recorder whole: one flight-lock acquisition per batch, and the batch's
//! untraced spans are tagged with its batch trace on the way in. Dropping
//! a worker publishes too, so a kernel panic still leaves the partial
//! batch in the flight ring for the post-mortem.

use std::sync::Arc;
use std::time::Instant;

use temco_obs::{batch_id_of, cause, kind, Recorder, NO_TRACE};
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
    /// The current batch's spans, on the flight recorder's clock; sized so
    /// one batch never wraps it, and emptied by every publish.
    ring: Recorder,
    /// Trace id of the batch whose spans `ring` holds.
    batch_trace: u64,
}

impl Worker {
    pub(crate) fn new(core: Arc<Core>, shard: usize) -> Worker {
        let engines: Vec<Engine> =
            core.plans.iter().map(|p| Engine::from_compiled(p.clone())).collect();
        let staging =
            engines.iter().map(|e| Tensor::zeros(e.graph().shape(e.graph().inputs[0]))).collect();
        let max_batch = core.cfg.max_batch;
        let batch = Vec::with_capacity(max_batch);
        let keep = Vec::with_capacity(max_batch);
        // One batch: a NODE span per node plus RUN, up to three records
        // per member (QUEUE, MEMBER, DEADLINE), and GATHER, STAGE,
        // BATCH_RUN, SCATTER.
        let nodes = engines.iter().map(|e| e.graph().nodes.len()).max().unwrap_or(0);
        let ring = core.flight.recorder(nodes + 1 + 3 * max_batch + 4);
        Worker { core, shard, engines, staging, batch, keep, ring, batch_trace: NO_TRACE }
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
        let gather_start = self.ring.now_ns();
        self.batch.clear();
        self.batch.push(first);
        let window_end = Instant::now() + self.core.cfg.max_delay;
        while self.batch.len() < self.core.cfg.max_batch {
            match self.queue().pop_until(window_end) {
                Some(job) => self.batch.push(job),
                None => break,
            }
        }
        let ring = &mut self.ring;
        ring.span(kind::GATHER, self.batch.len() as u32, NO_TRACE, gather_start, ring.now_ns());
        // Every span this batch emits shares one batch trace id; member
        // requests fan in via `MEMBER` markers keyed on the batch id.
        self.batch_trace = self.core.next_batch_trace();
        let outcome = self.execute_batch();
        self.publish();
        self.core.notify_batch_done();
        outcome
    }

    /// Hand the batch's spans to the flight recorder under one lock.
    fn publish(&mut self) {
        self.core.flight.publish(&mut self.ring, self.batch_trace);
    }

    fn execute_batch(&mut self) -> StepOutcome {
        let stats = &self.core.stats;
        let ring = &mut self.ring;
        // Shed expired requests without executing them, handing each its
        // input tensor back. Drain through the preallocated swap buffer so
        // live jobs survive by move, not clone.
        let now = Instant::now();
        self.keep.clear();
        for job in self.batch.drain(..) {
            if job.deadline.is_some_and(|d| d <= now) {
                ring.event(cause::DEADLINE, job.trace);
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
        let batch_id = batch_id_of(self.batch_trace);
        // Everything queued before this instant is queue wait; everything
        // after is service (stage + run + scatter).
        let exec_start = Instant::now();
        let exec_ns = ring.ns_of(exec_start);
        for job in &self.batch {
            stats.queue_wait.record(exec_start.saturating_duration_since(job.enqueued));
            ring.span(kind::QUEUE, self.shard as u32, job.trace, ring.ns_of(job.enqueued), exec_ns);
            ring.span(kind::MEMBER, batch_id, job.trace, exec_ns, exec_ns);
        }
        // The batch's own spans are recorded untraced; `publish` tags them
        // (and the engine's RUN/NODE spans) with the batch trace, so a
        // request is traceable down to the node level.
        let sample_len = self.core.sample_numel;
        {
            let staged = self.staging[bi].data_mut();
            for (i, job) in self.batch.iter().enumerate() {
                staged[i * sample_len..(i + 1) * sample_len].copy_from_slice(job.input.data());
            }
            staged[n * sample_len..].fill(0.0);
        }
        let stage_end_ns = ring.now_ns();
        ring.span(kind::STAGE, bucket, NO_TRACE, exec_ns, stage_end_ns);
        let outs = self.engines[bi]
            .run_recorded(std::slice::from_ref(&self.staging[bi]), ring)
            .expect("bucket plan validated at server construction");
        let run_end_ns = ring.now_ns();
        ring.span(kind::BATCH_RUN, bucket, NO_TRACE, stage_end_ns, run_end_ns);
        let out = outs[0].data();
        let out_len = self.core.output_numel;
        for (i, job) in self.batch.drain(..).enumerate() {
            job.slot.complete_ok_returning(&out[i * out_len..(i + 1) * out_len], job.input);
            stats.record_latency(job.enqueued.elapsed());
        }
        ring.span(kind::SCATTER, bucket, NO_TRACE, run_end_ns, ring.now_ns());
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

impl Drop for Worker {
    /// A panic unwinding out of a kernel drops the worker mid-batch:
    /// publish what the batch recorded so far, so the flight ring holds it
    /// before the server records the PANIC event and prints the
    /// post-mortem.
    fn drop(&mut self) {
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, Server};
    use temco_ir::Graph;

    #[test]
    fn a_panic_mid_batch_still_publishes_the_partial_batch() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4], "x");
        let y = g.relu(x, "r");
        g.mark_output(y);
        g.infer_shapes();
        let server = Server::new(g, ServeConfig { workers: 0, ..ServeConfig::default() }).unwrap();
        let mut worker = server.manual_worker();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            worker.batch_trace = worker.core.next_batch_trace();
            let t = worker.ring.now_ns();
            worker.ring.span(kind::STAGE, 1, NO_TRACE, t, t + 1);
            panic!("a kernel failed mid-batch");
        }));
        assert!(unwound.is_err());
        let spans = server.flight().snapshot();
        assert_eq!(spans.len(), 1, "the dropped worker published its ring");
        assert_eq!(spans[0].kind, kind::STAGE);
        assert!(temco_obs::is_batch_trace(spans[0].trace));
    }
}
