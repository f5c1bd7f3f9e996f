//! The span ring: the one preallocated buffer every span in the stack is
//! recorded into.
//!
//! A [`Recorder`] is owned by one thread (an engine loop, a serving worker,
//! a CLI profile) — no locking, so [`Recorder::record`] is a couple of
//! predictable branches and four word writes. The server's shared flight
//! ring is the same type behind a mutex ([`crate::flight::FlightRecorder`]);
//! a serving worker records a whole batch into a ring of its own, built on
//! the flight ring's clock, and publishes it there under one lock.
//!
//! A full ring **drops the oldest** record (the recent past is what
//! profiling wants) and counts what it dropped, so a report can say "these
//! numbers cover the last N spans, M fell off the back" instead of
//! silently lying: `len() + dropped() == total()` always.
//!
//! A record is four machine words — `kind`/`node` packed into one `u64`,
//! a causal trace id, start tick, duration — timestamped off a monotonic
//! [`Instant`] epoch taken at construction. `Instant::now` neither
//! allocates nor syscalls on the platforms this repo targets (vDSO clock),
//! so recording inside the zero-alloc executor loop is safe; the repo's
//! counting-global-allocator tests assert exactly that with
//! instrumentation enabled.

use std::time::Instant;

/// Span kinds used across the stack. Plain `u32`s rather than an enum so
/// downstream crates can add their own without a dependency cycle; values
/// below 256 are reserved for the workspace.
pub mod kind {
    /// One whole `Engine::run` (node loop + output staging).
    pub const RUN: u32 = 0;
    /// One node's kernel inside a run; `node` is the schedule index.
    pub const NODE: u32 = 1;
    /// Serving: the batch-gather window (first pop to window close).
    pub const GATHER: u32 = 2;
    /// Serving: copying gathered samples into the staging tensor.
    pub const STAGE: u32 = 3;
    /// Serving: the bucket engine run for one batch; `node` is the bucket
    /// batch size.
    pub const BATCH_RUN: u32 = 4;
    /// Serving: scattering output rows into response slots.
    pub const SCATTER: u32 = 5;
    /// Connection plane: a request frame arriving on the wire (first
    /// header byte to fully-decoded payload).
    pub const ACCEPT: u32 = 6;
    /// Connection plane: admission — pool pop, decode, shard routing;
    /// `node` is the shard the request was routed to.
    pub const ADMIT: u32 = 7;
    /// Serving: a job's residence in a shard queue (enqueue to batch
    /// assembly); `node` is the shard.
    pub const QUEUE: u32 = 8;
    /// Connection plane: writing the response frame back to the client.
    pub const REPLY: u32 = 9;
    /// Fan-in link: an instant marking that the request `trace` became a
    /// member of batch `node` (the batch id). Duration is zero.
    pub const MEMBER: u32 = 10;
    /// A cause-labeled instant (reject, deadline expiry, shutdown,
    /// panic); `node` is a [`super::cause`] code. Duration is zero.
    pub const EVENT: u32 = 11;

    /// Human label for a workspace kind (downstream kinds render as
    /// `kind<N>`).
    pub fn label(k: u32) -> &'static str {
        match k {
            RUN => "run",
            NODE => "node",
            GATHER => "gather",
            STAGE => "stage",
            BATCH_RUN => "batch_run",
            SCATTER => "scatter",
            ACCEPT => "accept",
            ADMIT => "admit",
            QUEUE => "queue",
            REPLY => "reply",
            MEMBER => "member",
            EVENT => "event",
            _ => "user",
        }
    }
}

/// Cause codes carried in the `node` field of [`kind::EVENT`] instants.
/// Plain `u32`s for the same reason as [`kind`]: downstream crates may
/// add their own above 256.
pub mod cause {
    /// Rejected: the routed shard queue was full.
    pub const QUEUE_FULL: u32 = 0;
    /// Rejected: the server was shutting down.
    pub const CLOSED: u32 = 1;
    /// Rejected at admission (connection-plane pool exhausted).
    pub const ADMISSION: u32 = 2;
    /// Shed: the job's deadline expired before execution.
    pub const DEADLINE: u32 = 3;
    /// The server began a drain/shutdown.
    pub const SHUTDOWN: u32 = 4;
    /// A worker thread panicked.
    pub const PANIC: u32 = 5;
    /// A malformed request frame was rejected.
    pub const BAD_REQUEST: u32 = 6;

    /// Human label for a workspace cause code.
    pub fn label(c: u32) -> &'static str {
        match c {
            QUEUE_FULL => "queue_full",
            CLOSED => "closed",
            ADMISSION => "admission",
            DEADLINE => "deadline",
            SHUTDOWN => "shutdown",
            PANIC => "panic",
            BAD_REQUEST => "bad_request",
            _ => "other",
        }
    }
}

/// `node` value for spans not tied to any node.
pub const NO_NODE: u32 = u32::MAX;

/// `trace` value for spans not tied to any request.
pub const NO_TRACE: u64 = 0;

/// One recorded span: what ([`kind`]), which (`node`), whose (`trace`),
/// when (`start_ns` since the recorder's epoch), how long (`dur_ns`).
/// 32 bytes, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Span kind (see [`kind`]).
    pub kind: u32,
    /// Node / object id the span is attributed to ([`NO_NODE`] if none).
    pub node: u32,
    /// Causal trace id linking spans of one request or batch across
    /// threads ([`NO_TRACE`] if unattributed). Trace-id namespaces are a
    /// layering convention, not enforced here: the serving layer hands
    /// out request ids below [`crate::flight::BATCH_TRACE_BASE`] and
    /// batch ids above it.
    pub trace: u64,
    /// Start time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A preallocated ring buffer of [`Event`]s. See the module docs for the
/// threading and overflow model.
pub struct Recorder {
    /// The clock every timestamp in this ring is measured from.
    pub(crate) epoch: Instant,
    buf: Box<[Event]>,
    /// Next write slot.
    next: usize,
    /// Retained events (≤ capacity); once full, the oldest is at `next`.
    len: usize,
    /// Events ever recorded (monotone until `clear`; `total - len` were
    /// dropped).
    total: u64,
}

impl Recorder {
    /// A recorder holding up to `capacity` spans (min 1), with its epoch
    /// taken now. This is the *only* allocation the recorder ever
    /// performs.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder::on_clock(Instant::now(), capacity)
    }

    /// A recorder whose timestamps are measured from `epoch`.
    pub(crate) fn on_clock(epoch: Instant, capacity: usize) -> Recorder {
        let zero = Event { kind: 0, node: 0, trace: NO_TRACE, start_ns: 0, dur_ns: 0 };
        Recorder {
            epoch,
            buf: vec![zero; capacity.max(1)].into_boxed_slice(),
            next: 0,
            len: 0,
            total: 0,
        }
    }

    /// Nanoseconds since the recorder's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Map an externally-captured [`Instant`] (e.g. a job's enqueue
    /// time) onto this recorder's timeline. Instants before the epoch
    /// clamp to 0.
    #[inline]
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch).map_or(0, |d| d.as_nanos() as u64)
    }

    /// Append one event, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, e: Event) {
        self.buf[self.next] = e;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
        }
        if self.len < self.buf.len() {
            self.len += 1;
        }
        self.total += 1;
    }

    /// Record a completed span from raw timestamps on this recorder's
    /// clock ([`Recorder::now_ns`] / [`Recorder::ns_of`]).
    #[inline]
    pub fn span(&mut self, kind: u32, node: u32, trace: u64, start_ns: u64, end_ns: u64) {
        self.record(Event { kind, node, trace, start_ns, dur_ns: end_ns.saturating_sub(start_ns) });
    }

    /// Record a cause-labeled instant ([`kind::EVENT`]) happening now.
    #[inline]
    pub fn event(&mut self, cause: u32, trace: u64) {
        let now = self.now_ns();
        self.record(Event { kind: kind::EVENT, node: cause, trace, start_ns: now, dur_ns: 0 });
    }

    /// Count `n` events as recorded and already dropped — spans another
    /// ring overwrote before they could be copied here.
    pub(crate) fn count_dropped(&mut self, n: u64) {
        self.total += n;
    }

    /// Retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is retained (nothing recorded since the last
    /// `clear`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events ever recorded, retained or dropped.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events recorded but overwritten by newer ones (drop-oldest
    /// overflow accounting).
    pub fn dropped(&self) -> u64 {
        self.total - self.len as u64
    }

    /// Forget all retained events and the drop count. The epoch is kept,
    /// so timestamps across a `clear` stay on one timeline.
    pub fn clear(&mut self) {
        self.next = 0;
        self.len = 0;
        self.total = 0;
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (wrapped, fresh) = if self.len == self.buf.len() {
            // Full ring: oldest starts at `next`.
            (&self.buf[self.next..], &self.buf[..self.next])
        } else {
            (&self.buf[..self.len], &self.buf[..0])
        };
        wrapped.iter().chain(fresh.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: u32, node: u32) -> Event {
        Event { kind, node, trace: NO_TRACE, start_ns: 0, dur_ns: 1 }
    }

    #[test]
    fn records_and_iterates_in_order() {
        let mut r = Recorder::with_capacity(8);
        for i in 0..5 {
            r.record(ev(kind::NODE, i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.dropped(), 0);
        let nodes: Vec<u32> = r.iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_drops_oldest_and_counts_it() {
        let mut r = Recorder::with_capacity(4);
        for i in 0..10 {
            r.record(ev(kind::NODE, i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 10);
        assert_eq!(r.dropped(), 6);
        // The *newest* four survive, oldest first.
        let nodes: Vec<u32> = r.iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![6, 7, 8, 9]);
    }

    #[test]
    fn clear_keeps_epoch_resets_counts() {
        let mut r = Recorder::with_capacity(2);
        r.record(ev(0, 0));
        r.record(ev(0, 1));
        r.record(ev(0, 2));
        assert_eq!(r.dropped(), 1);
        let t0 = r.now_ns();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert!(r.now_ns() >= t0, "epoch must survive clear");
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(kind::label(kind::RUN), "run");
        assert_eq!(kind::label(kind::BATCH_RUN), "batch_run");
        assert_eq!(kind::label(kind::ACCEPT), "accept");
        assert_eq!(kind::label(kind::QUEUE), "queue");
        assert_eq!(kind::label(kind::REPLY), "reply");
        assert_eq!(kind::label(999), "user");
        assert_eq!(cause::label(cause::DEADLINE), "deadline");
        assert_eq!(cause::label(cause::PANIC), "panic");
        assert_eq!(cause::label(999), "other");
    }

    #[test]
    fn span_and_event_carry_their_trace_and_timing() {
        let mut r = Recorder::with_capacity(4);
        r.span(kind::QUEUE, 3, 42, 1_000, 4_000);
        r.span(kind::RUN, NO_NODE, NO_TRACE, 5_000, 4_000);
        r.event(cause::DEADLINE, 7);
        let got: Vec<Event> = r.iter().copied().collect();
        assert_eq!(
            got[0],
            Event { kind: kind::QUEUE, node: 3, trace: 42, start_ns: 1_000, dur_ns: 3_000 }
        );
        assert_eq!(got[1].dur_ns, 0, "an end before the start clamps to zero");
        assert_eq!((got[2].kind, got[2].node, got[2].trace), (kind::EVENT, cause::DEADLINE, 7));
        assert_eq!(got[2].dur_ns, 0);
    }

    #[test]
    fn ns_of_maps_external_instants_and_clamps_before_epoch() {
        let before = Instant::now();
        let r = Recorder::with_capacity(4);
        assert_eq!(r.ns_of(before), 0, "pre-epoch instants clamp to 0");
        let ns = r.ns_of(Instant::now());
        assert!(ns <= r.now_ns());
    }
}
