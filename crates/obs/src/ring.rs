//! The span recorder: a preallocated, thread-owned ring buffer.
//!
//! One [`Recorder`] belongs to one thread (an engine, a serving worker, a
//! CLI loop) — there is no global registry and no locking, which is what
//! keeps [`Recorder::record`] down to a couple of predictable branches and
//! three word writes. A full ring **drops the oldest** record (the recent
//! past is what profiling wants) and counts what it dropped, so a report
//! can say "these numbers cover the last N spans, M fell off the back"
//! instead of silently lying.
//!
//! A record is four machine words — `kind`/`node` packed into one `u64`,
//! a causal trace id, start tick, duration — timestamped off a monotonic
//! [`Instant`] epoch
//! taken at construction. `Instant::now` neither allocates nor syscalls on
//! the platforms this repo targets (vDSO clock), so recording inside the
//! zero-alloc executor loop is safe; the repo's counting-global-allocator
//! tests assert exactly that with instrumentation enabled.

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

/// An opaque span start tick, handed back to [`Recorder::finish`].
/// Deliberately not a `Duration`: it is one `u64` in a register.
#[derive(Clone, Copy, Debug)]
pub struct SpanStart(u64);

/// Sentinel returned by [`Recorder::start`] while disabled; `finish`
/// recognizes it and records nothing.
const DISABLED: u64 = u64::MAX;

/// A preallocated ring buffer of [`Event`]s. See the module docs for the
/// threading and overflow model.
pub struct Recorder {
    epoch: Instant,
    buf: Box<[Event]>,
    /// Next write slot.
    next: usize,
    /// Events ever recorded (monotone; `total - len()` were dropped).
    total: u64,
    enabled: bool,
}

impl Recorder {
    /// A recorder holding up to `capacity` spans (min 1), enabled.
    /// This is the *only* allocation the recorder ever performs.
    pub fn with_capacity(capacity: usize) -> Recorder {
        let capacity = capacity.max(1);
        let zero = Event { kind: 0, node: 0, trace: NO_TRACE, start_ns: 0, dur_ns: 0 };
        Recorder {
            epoch: Instant::now(),
            buf: vec![zero; capacity].into_boxed_slice(),
            next: 0,
            total: 0,
            enabled: true,
        }
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Toggle recording. A disabled recorder's `start`/`finish` are a
    /// flag check each — cheap enough to leave instrumentation compiled
    /// in permanently.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Begin a span: one flag check + one clock read.
    #[inline]
    pub fn start(&self) -> SpanStart {
        if !self.enabled {
            return SpanStart(DISABLED);
        }
        SpanStart(self.now_ns())
    }

    /// End a span begun with [`Recorder::start`], attributing it to
    /// `(kind, node)`. No-op for spans started while disabled.
    #[inline]
    pub fn finish(&mut self, start: SpanStart, kind: u32, node: u32) {
        self.finish_traced(start, kind, node, NO_TRACE);
    }

    /// [`Recorder::finish`] with a causal trace id attached.
    #[inline]
    pub fn finish_traced(&mut self, start: SpanStart, kind: u32, node: u32, trace: u64) {
        if start.0 == DISABLED {
            return;
        }
        let end = self.now_ns();
        self.record(Event {
            kind,
            node,
            trace,
            start_ns: start.0,
            dur_ns: end.saturating_sub(start.0),
        });
    }

    /// Append one event, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, e: Event) {
        if !self.enabled {
            return;
        }
        self.buf[self.next] = e;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
        }
        self.total += 1;
    }

    /// Retained events (≤ capacity).
    pub fn len(&self) -> usize {
        (self.total).min(self.buf.len() as u64) as usize
    }

    /// Whether nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events recorded but overwritten by newer ones (drop-oldest
    /// overflow accounting).
    pub fn dropped(&self) -> u64 {
        self.total - self.len() as u64
    }

    /// Forget all retained events and the drop count. The epoch is kept,
    /// so timestamps across a `clear` stay on one timeline.
    pub fn clear(&mut self) {
        self.next = 0;
        self.total = 0;
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let len = self.len();
        let (wrapped, fresh) = if self.total as usize > self.buf.len() {
            // Full ring: oldest starts at `next`.
            (&self.buf[self.next..], &self.buf[..self.next])
        } else {
            (&self.buf[..len], &self.buf[..0])
        };
        wrapped.iter().chain(fresh.iter())
    }
}

/// Evaluate `$body` inside a span recorded as `($kind, $node)` on `$rec`.
/// Expands to a start/finish pair around the expression — no closure, no
/// guard object, nothing for the optimizer to chew on.
#[macro_export]
macro_rules! timed {
    ($rec:expr, $kind:expr, $node:expr, $body:expr) => {{
        let __span = $rec.start();
        let __out = $body;
        $rec.finish(__span, $kind, $node);
        __out
    }};
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
        assert_eq!(r.dropped(), 6);
        // The *newest* four survive, oldest first.
        let nodes: Vec<u32> = r.iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![6, 7, 8, 9]);
    }

    #[test]
    fn spans_measure_nonzero_time_and_respect_enable() {
        let mut r = Recorder::with_capacity(4);
        let s = r.start();
        std::hint::black_box((0..1000).sum::<u64>());
        r.finish(s, kind::RUN, NO_NODE);
        assert_eq!(r.len(), 1);
        let e = *r.iter().next().unwrap();
        assert_eq!(e.kind, kind::RUN);
        assert_eq!(e.node, NO_NODE);

        r.set_enabled(false);
        let s = r.start();
        r.finish(s, kind::RUN, 0);
        r.record(ev(kind::NODE, 1));
        assert_eq!(r.len(), 1, "disabled recorder must not record");
        r.set_enabled(true);
        r.record(ev(kind::NODE, 2));
        assert_eq!(r.len(), 2);
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
    fn timed_macro_records_one_span() {
        let mut r = Recorder::with_capacity(4);
        let x = timed!(r, kind::NODE, 7, 40 + 2);
        assert_eq!(x, 42);
        let e = *r.iter().next().unwrap();
        assert_eq!((e.kind, e.node), (kind::NODE, 7));
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
    fn finish_traced_attaches_the_trace_id() {
        let mut r = Recorder::with_capacity(4);
        let s = r.start();
        r.finish_traced(s, kind::QUEUE, 3, 42);
        let e = *r.iter().next().unwrap();
        assert_eq!((e.kind, e.node, e.trace), (kind::QUEUE, 3, 42));
        // The untraced path records NO_TRACE.
        let s = r.start();
        r.finish(s, kind::RUN, NO_NODE);
        assert_eq!(r.iter().nth(1).unwrap().trace, NO_TRACE);
    }
}
