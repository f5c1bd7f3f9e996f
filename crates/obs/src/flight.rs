//! The flight recorder: a shared, always-on ring of recent spans and
//! cause-labeled events, kept so a post-mortem can answer "what was the
//! system doing just before *that*".
//!
//! A [`FlightRecorder`] is one [`Recorder`] behind a mutex, shared by
//! every thread in a server — the connection plane, every shard worker,
//! the engines they drive — so that one dump interleaves the whole system
//! on a single timeline. The connection plane writes its spans straight
//! in ([`FlightRecorder::span`], [`FlightRecorder::event`]). A worker
//! instead records a whole batch into a ring of its own built on the same
//! clock ([`FlightRecorder::recorder`]) and hands it over with
//! [`FlightRecorder::publish`]: one lock acquisition per batch, which is
//! also the one place a batch's spans arrive together. An uncontended
//! `std::sync::Mutex` neither allocates nor syscalls on this repo's
//! targets, so publishing stays legal inside the zero-alloc worker step
//! (the counting-allocator tests assert it).
//!
//! Overflow is the ring's drop-oldest with accounting, extended across a
//! publish: spans a worker's ring overwrote before publishing count as
//! recorded and dropped here, so `len + dropped == total` stays exact, and
//! an optional [`Counter`] surfaces every drop as
//! `temco_spans_dropped_total` without the recorder knowing metric names.
//! Snapshots and rendering are cold-path and allocate freely.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::metrics::Counter;
use crate::ring::{cause, kind, Event, Recorder, NO_NODE, NO_TRACE};

/// Trace ids at or above this value name a *batch*, not a request: the
/// serving layer tags a batch's spans (and the engine node spans it
/// owns) with `BATCH_TRACE_BASE | batch_id`, while request trace ids
/// stay below. [`is_batch_trace`]/[`batch_trace`] encode the split.
pub const BATCH_TRACE_BASE: u64 = 1 << 62;

/// The trace id for batch number `id`.
#[inline]
pub fn batch_trace(id: u32) -> u64 {
    BATCH_TRACE_BASE | id as u64
}

/// Whether `trace` names a batch rather than a request.
#[inline]
pub fn is_batch_trace(trace: u64) -> bool {
    trace >= BATCH_TRACE_BASE
}

/// The batch id encoded in a batch trace.
#[inline]
pub fn batch_id_of(trace: u64) -> u32 {
    (trace & !BATCH_TRACE_BASE) as u32
}

/// A shared fixed-size ring of recent [`Event`]s. See the module docs.
pub struct FlightRecorder {
    /// The ring's epoch, copied out so reading the clock takes no lock.
    epoch: Instant,
    ring: Mutex<Recorder>,
    /// Bumped once per dropped event, if attached.
    drop_counter: OnceLock<Arc<Counter>>,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` events (min 1). This is the
    /// only allocation the recorder ever performs.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let ring = Recorder::with_capacity(capacity);
        FlightRecorder { epoch: ring.epoch, ring: Mutex::new(ring), drop_counter: OnceLock::new() }
    }

    /// Attach a counter bumped once per dropped event, so overflow
    /// surfaces on a metrics plane the recorder doesn't know about. The
    /// first counter attached stays.
    pub fn set_drop_counter(&self, c: Arc<Counter>) {
        let _ = self.drop_counter.set(c);
    }

    /// A private ring of `capacity` events on this recorder's clock, for
    /// a thread to fill and [`publish`](FlightRecorder::publish).
    pub fn recorder(&self, capacity: usize) -> Recorder {
        Recorder::on_clock(self.epoch, capacity)
    }

    /// Nanoseconds since the recorder's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Map an externally-captured [`Instant`] onto this recorder's
    /// timeline (see [`Recorder::ns_of`]).
    #[inline]
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch).map_or(0, |d| d.as_nanos() as u64)
    }

    /// Record a completed span (see [`Recorder::span`]).
    #[inline]
    pub fn span(&self, kind: u32, node: u32, trace: u64, start_ns: u64, end_ns: u64) {
        self.write(|ring| ring.span(kind, node, trace, start_ns, end_ns));
    }

    /// Record a cause-labeled instant happening now (see
    /// [`Recorder::event`]).
    #[inline]
    pub fn event(&self, cause: u32, trace: u64) {
        self.write(|ring| ring.event(cause, trace));
    }

    /// Move every event of `local` — a ring from
    /// [`recorder`](FlightRecorder::recorder) — into the flight ring under
    /// one lock, oldest first, tagging each [`NO_TRACE`] span with
    /// `trace`; spans that already carry a trace keep it. Spans `local`
    /// overwrote count as recorded and dropped. Leaves `local` empty.
    /// Allocation-free.
    pub fn publish(&self, local: &mut Recorder, trace: u64) {
        if local.is_empty() {
            return;
        }
        debug_assert_eq!(local.epoch, self.epoch, "published ring is on another clock");
        self.write(|ring| {
            for e in local.iter() {
                let trace = if e.trace == NO_TRACE { trace } else { e.trace };
                ring.record(Event { trace, ..*e });
            }
            ring.count_dropped(local.dropped());
        });
        local.clear();
    }

    /// Read the ring under one lock acquisition — e.g. its `len`,
    /// `capacity`, `total` and `dropped` as one consistent set.
    pub fn read<R>(&self, f: impl FnOnce(&Recorder) -> R) -> R {
        f(&self.lock())
    }

    /// Events ever recorded (monotone).
    pub fn total(&self) -> u64 {
        self.read(Recorder::total)
    }

    /// A consistent copy of the retained events, oldest recorded first.
    /// Cold path: allocates the output vector under the lock.
    pub fn snapshot(&self) -> Vec<Event> {
        self.read(|ring| ring.iter().copied().collect())
    }

    /// A human-readable post-mortem of the retained events, newest
    /// last: relative timestamps, span kinds, causes, trace attribution
    /// — the thing to print when a worker panics.
    pub fn post_mortem(&self, title: &str) -> String {
        use std::fmt::Write;
        let (mut events, dropped) =
            self.read(|ring| (ring.iter().copied().collect::<Vec<_>>(), ring.dropped()));
        // A published batch lands after connection-plane spans that
        // overlapped it, so ring order is not time order.
        events.sort_by_key(|e| e.start_ns);
        let mut out = String::new();
        let _ = writeln!(out, "=== flight recorder post-mortem: {title} ===");
        let _ =
            writeln!(out, "{} event(s) retained, {} dropped off the back", events.len(), dropped);
        for e in &events {
            let when_ms = e.start_ns as f64 / 1e6;
            let dur_us = e.dur_ns as f64 / 1e3;
            let who = if e.trace == NO_TRACE {
                String::new()
            } else if is_batch_trace(e.trace) {
                format!(" batch={}", batch_id_of(e.trace))
            } else {
                format!(" trace={}", e.trace)
            };
            let what = if e.kind == kind::EVENT {
                format!("event:{}", cause::label(e.node))
            } else if e.node == NO_NODE {
                kind::label(e.kind).to_string()
            } else {
                format!("{}[{}]", kind::label(e.kind), e.node)
            };
            let _ = writeln!(out, "  +{when_ms:>12.3}ms {what:<20} {dur_us:>10.1}us{who}");
        }
        out
    }

    /// The ring, even if a thread panicked holding the lock: every ring
    /// update is a few word writes that cannot panic halfway, so the data
    /// is valid — and a post-mortem must still be readable after a panic.
    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Apply `f` to the ring under the lock and bump the drop counter by
    /// however many events it dropped.
    fn write(&self, f: impl FnOnce(&mut Recorder)) {
        let mut ring = self.lock();
        let before = ring.dropped();
        f(&mut ring);
        let dropped = ring.dropped() - before;
        if dropped > 0 {
            if let Some(c) = self.drop_counter.get() {
                c.add(dropped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_span(f: &FlightRecorder, node: u32) {
        f.span(kind::NODE, node, NO_TRACE, node as u64, node as u64 + 1);
    }

    fn nodes(events: &[Event]) -> Vec<u32> {
        events.iter().map(|e| e.node).collect()
    }

    /// `len + dropped == total` and the drop counter agrees with it.
    fn assert_exact(f: &FlightRecorder, c: &Counter) {
        let (len, total, dropped) = f.read(|r| (r.len() as u64, r.total(), r.dropped()));
        assert_eq!(len + dropped, total);
        assert_eq!(c.get(), dropped, "drop counter must see every drop");
    }

    fn with_counter(capacity: usize) -> (FlightRecorder, Arc<Counter>) {
        let f = FlightRecorder::with_capacity(capacity);
        let c = Arc::new(Counter::new());
        f.set_drop_counter(c.clone());
        (f, c)
    }

    #[test]
    fn wrap_drops_oldest_and_counts() {
        let f = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            node_span(&f, i);
        }
        assert_eq!(f.read(Recorder::len), 4);
        assert_eq!(f.total(), 10);
        assert_eq!(f.read(Recorder::dropped), 6);
        assert_eq!(nodes(&f.snapshot()), vec![6, 7, 8, 9]);
    }

    #[test]
    fn drop_counter_sees_every_overwrite() {
        let (f, c) = with_counter(3);
        for i in 0..8 {
            node_span(&f, i);
        }
        assert_eq!(c.get(), 5);
        assert_exact(&f, &c);
    }

    #[test]
    fn batch_trace_encoding_round_trips() {
        let t = batch_trace(7);
        assert!(is_batch_trace(t));
        assert_eq!(batch_id_of(t), 7);
        assert!(!is_batch_trace(42));
        assert!(!is_batch_trace(1 << 32));
    }

    #[test]
    fn recorder_shares_the_flight_clock() {
        let f = FlightRecorder::with_capacity(4);
        let r = f.recorder(4);
        let t = Instant::now();
        assert_eq!(r.ns_of(t), f.ns_of(t));
        assert!(r.now_ns() <= f.now_ns());
    }

    #[test]
    fn publish_tags_untraced_spans_with_the_batch_trace() {
        let f = FlightRecorder::with_capacity(16);
        let mut local = f.recorder(8);
        local.span(kind::STAGE, 1, NO_TRACE, 10, 20);
        local.span(kind::NODE, 0, NO_TRACE, 20, 30);
        local.span(kind::RUN, NO_NODE, NO_TRACE, 20, 40);
        f.publish(&mut local, batch_trace(5));
        let got = f.snapshot();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|e| e.trace == batch_trace(5)));
        assert_eq!(
            got.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [kind::STAGE, kind::NODE, kind::RUN]
        );
        assert!(local.is_empty() && local.total() == 0, "publish leaves the local ring empty");
    }

    #[test]
    fn publish_keeps_spans_that_already_carry_a_trace() {
        let f = FlightRecorder::with_capacity(16);
        let mut local = f.recorder(8);
        local.span(kind::QUEUE, 0, 42, 0, 10);
        local.span(kind::MEMBER, 5, 42, 10, 10);
        local.event(cause::DEADLINE, 43);
        local.span(kind::SCATTER, 1, NO_TRACE, 30, 40);
        f.publish(&mut local, batch_trace(5));
        let traces: Vec<u64> = f.snapshot().iter().map(|e| e.trace).collect();
        assert_eq!(traces, [42, 42, 43, batch_trace(5)]);
    }

    #[test]
    fn publish_accounts_for_a_local_ring_that_overflowed() {
        let (f, c) = with_counter(16);
        let mut local = f.recorder(4);
        for i in 0..7 {
            local.span(kind::NODE, i, NO_TRACE, i as u64, i as u64 + 1);
        }
        f.publish(&mut local, batch_trace(1));
        // The four survivors arrive; the three the local ring overwrote
        // count as recorded and dropped.
        assert_eq!(nodes(&f.snapshot()), vec![3, 4, 5, 6]);
        assert_eq!(f.total(), 7);
        assert_eq!(f.read(Recorder::dropped), 3);
        assert_exact(&f, &c);
    }

    #[test]
    fn publish_accounts_for_a_flight_ring_that_wraps_partway() {
        let (f, c) = with_counter(5);
        for i in 0..3 {
            node_span(&f, 100 + i);
        }
        assert_eq!(c.get(), 0);
        let mut local = f.recorder(8);
        for i in 0..4 {
            local.span(kind::NODE, i, NO_TRACE, 10 + i as u64, 11 + i as u64);
        }
        // 3 + 4 events into 5 slots: the publish overwrites the two oldest.
        f.publish(&mut local, batch_trace(2));
        assert_eq!(nodes(&f.snapshot()), vec![102, 0, 1, 2, 3]);
        assert_eq!(f.total(), 7);
        assert_eq!(c.get(), 2, "one bump per overwritten event");
        assert_exact(&f, &c);
        // A second wrap keeps the counter in lockstep.
        for i in 0..6 {
            local.span(kind::NODE, 200 + i, NO_TRACE, 0, 1);
        }
        f.publish(&mut local, batch_trace(3));
        assert_eq!(f.total(), 13);
        assert_eq!(c.get(), 8);
        assert_exact(&f, &c);
    }

    #[test]
    fn concurrent_writers_and_snapshot_readers_keep_accounting_consistent() {
        let f = Arc::new(FlightRecorder::with_capacity(32));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for t in 0..4 {
            let f = f.clone();
            let stop = stop.clone();
            writers.push(std::thread::spawn(move || {
                let mut n = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    node_span(&f, t * 1_000_000 + n);
                    n += 1;
                }
                n as u64
            }));
        }
        // Reader: every read must be internally consistent while the ring
        // wraps under it.
        for _ in 0..200 {
            let (snap, total, dropped) =
                f.read(|r| (r.iter().copied().collect::<Vec<_>>(), r.total(), r.dropped()));
            assert!(snap.len() <= 32);
            assert_eq!(snap.len() as u64 + dropped, total);
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let written: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(f.total(), written);
        assert_eq!(f.read(Recorder::dropped), written - f.read(Recorder::len) as u64);
    }

    #[test]
    fn post_mortem_renders_causes_and_attribution_in_time_order() {
        let f = FlightRecorder::with_capacity(16);
        f.span(kind::QUEUE, 0, 42, 0, 1_000);
        // A batch published after a later connection-plane span.
        f.span(kind::REPLY, NO_NODE, 42, 20_000, 21_000);
        let mut local = f.recorder(4);
        local.span(kind::BATCH_RUN, 4, NO_TRACE, 1_000, 9_000);
        f.publish(&mut local, batch_trace(3));
        f.event(cause::DEADLINE, 42);
        let text = f.post_mortem("test");
        assert!(text.contains("post-mortem: test"));
        assert!(text.contains("queue"));
        assert!(text.contains("trace=42"));
        assert!(text.contains("batch=3"));
        assert!(text.contains("event:deadline"));
        assert!(text.contains("4 event(s) retained, 0 dropped"));
        let at = |s: &str| text.find(s).unwrap();
        assert!(at("queue") < at("batch_run") && at("batch_run") < at("reply"), "{text}");
    }
}
