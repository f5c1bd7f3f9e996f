//! The event-driven connection plane: one thread, epoll readiness, a
//! fixed connection table, and zero allocation per request.
//!
//! Replaces thread-per-connection for the serving front end. A single
//! loop multiplexes every client over nonblocking sockets:
//!
//! * **Incremental framing** — each connection owns a preallocated read
//!   buffer sized for one `INFER` frame and parses the length-prefixed
//!   protocol byte-at-a-time-tolerant (a slow-loris client costs one
//!   table slot, not a thread). Oversized-but-legal frames are skipped in
//!   place and answered `BAD_REQUEST`; hostile length prefixes close the
//!   connection.
//! * **Pooled request contexts** — admission control is a preallocated
//!   pool of `(input, output, slot)` triples sized to
//!   `shards × (queue_cap + max_batch)`: exactly the work the fleet can
//!   hold. Pool exhausted ⇒ reject with a prebuilt `QUEUE_FULL` frame and
//!   a cause-labeled counter, allocation-free. Completions recycle the
//!   triple through `Slot::try_recycle`.
//! * **Wakeups, not polling** — workers fire the server's batch hook
//!   (an eventfd write) after every settled batch; the loop wakes, pumps
//!   finished slots into per-connection write buffers, and flushes.
//! * **Per-client fairness** — a connection with `max_inflight` responses
//!   outstanding stops being read (its `EPOLLIN` interest is dropped)
//!   until completions drain, so one flooding client cannot monopolize
//!   the admission pool or starve its neighbours.
//! * **Idle reaping** — connections quiet past the idle timeout are
//!   closed by a periodic sweep, so thousands of idle sockets cost table
//!   slots and buffers, never threads.
//!
//! The hot path (readable socket → frame → dispatch → completion →
//! response bytes) performs no heap allocation; the control path (STATS /
//! INFO / METRICS / accept / close) allocates freely.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use temco_obs::{cause, kind, NO_NODE, NO_TRACE};
use temco_tensor::Tensor;

use crate::error::ServeError;
use crate::proto::{self, op, status, MAX_FRAME};
use crate::queue::PushError;
use crate::server::{Core, Server};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::tcp::EventConfig;
use crate::ticket::Slot;
use crate::worker::Job;

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Prebuilt error/rejection frames, indexed by these constants — hot-path
/// rejections are a bounds-checked slice copy, never a format.
const ERR_QUEUE_FULL: u8 = 0;
const ERR_ADMISSION: u8 = 1;
const ERR_SHUTTING_DOWN: u8 = 2;
const ERR_DEADLINE: u8 = 3;
const ERR_BAD_INFER: u8 = 4;
const ERR_TOO_BIG: u8 = 5;
const ERR_BAD_OP: u8 = 6;
const ERR_INTERNAL: u8 = 7;
const N_ERR: usize = 8;

fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(payload);
    buf
}

fn build_err_frames() -> [Vec<u8>; N_ERR] {
    [
        frame(status::QUEUE_FULL, b"request queue is full"),
        frame(status::QUEUE_FULL, b"server overloaded: in-flight pool exhausted"),
        frame(status::SHUTTING_DOWN, b"server is shutting down"),
        frame(status::DEADLINE_EXCEEDED, b"deadline expired before the request was executed"),
        frame(status::BAD_REQUEST, b"malformed INFER payload"),
        frame(status::BAD_REQUEST, b"frame exceeds the per-connection buffer"),
        frame(status::BAD_REQUEST, b"unknown opcode"),
        frame(status::BAD_REQUEST, b"internal serving error"),
    ]
}

/// A pooled request context: the preallocated buffers one in-flight
/// request occupies. `input` is moved into the [`Job`], `output` is armed
/// into the slot; completion hands both back and the triple returns to
/// the pool.
struct ReqCtx {
    input: Tensor,
    output: Tensor,
    slot: Arc<Slot>,
    /// Preassigned trace id for the next request this context carries.
    /// Pool contexts own the namespace above `1 << 32` (the direct submit
    /// API counts from 1): context `i` starts at `(1 << 32) + i` and
    /// strides by the pool size on every recycle, so ids stay unique
    /// without a hot-path atomic or allocation.
    trace: u64,
}

/// One queued response, FIFO per connection (pipelined clients get
/// replies in request order).
enum Reply {
    /// In-flight inference; serialized when the slot settles. Carries the
    /// request's trace id for the `REPLY` span and context recycling.
    Slot(Arc<Slot>, u64),
    /// Prebuilt rejection frame (index into the error table).
    Err(u8),
    /// Fully-rendered control response (STATS / INFO / METRICS / SHUTDOWN).
    Ready(Vec<u8>),
}

/// Incremental frame-parse state.
enum Phase {
    /// Collecting the 5-byte `[len:u32][tag:u8]` header.
    Header,
    /// Collecting `need` payload bytes into `rbuf`.
    Payload,
    /// Skipping an oversized (but sub-`MAX_FRAME`) payload.
    Discard(usize),
}

struct Conn {
    stream: TcpStream,
    fd: i32,
    token: u64,
    hdr: [u8; 5],
    hdr_fill: usize,
    phase: Phase,
    tag: u8,
    /// Payload length of the frame being collected.
    need: usize,
    /// Preallocated payload buffer (one full `INFER` frame).
    rbuf: Box<[u8]>,
    rfill: usize,
    /// Outgoing bytes; `wstart..` is unflushed.
    wbuf: Vec<u8>,
    wstart: usize,
    /// Responses owed, in request order.
    pending: VecDeque<Reply>,
    last_activity: Instant,
    /// Current epoll interest bits (to skip redundant `EPOLL_CTL_MOD`s).
    interest: u32,
    /// Peer EOF seen: flush what is owed, then close.
    half_closed: bool,
    /// Flight-recorder timestamp of the first header byte of the frame
    /// being collected — the `ACCEPT` span runs from here to admission.
    frame_start_ns: u64,
}

impl Conn {
    fn new(
        stream: TcpStream,
        token: u64,
        rbuf_len: usize,
        wbuf_cap: usize,
        inflight: usize,
    ) -> Conn {
        let fd = stream.as_raw_fd();
        Conn {
            stream,
            fd,
            token,
            hdr: [0; 5],
            hdr_fill: 0,
            phase: Phase::Header,
            tag: 0,
            need: 0,
            rbuf: vec![0u8; rbuf_len].into_boxed_slice(),
            rfill: 0,
            wbuf: Vec::with_capacity(wbuf_cap),
            wstart: 0,
            pending: VecDeque::with_capacity(inflight + 2),
            last_activity: Instant::now(),
            interest: EPOLLIN | EPOLLRDHUP,
            half_closed: false,
            frame_start_ns: 0,
        }
    }

    fn owes_nothing(&self) -> bool {
        self.pending.is_empty() && self.wstart == self.wbuf.len()
    }
}

/// Everything the per-connection state machines need besides the table
/// itself — split out so a `&mut Conn` borrowed from the table and the
/// plane can be used together.
struct Plane {
    epoll: Epoll,
    server: Server,
    core: Arc<Core>,
    cfg: EventConfig,
    pool: Vec<ReqCtx>,
    /// Trace-id stride on context recycle (the pool size at startup).
    pool_stride: u64,
    /// In-flight slots (with their trace ids) whose connection died;
    /// recycled as they settle.
    orphans: Vec<(Arc<Slot>, u64)>,
    err: [Vec<u8>; N_ERR],
    /// Discard-phase sink, shared across connections.
    scratch: [u8; 4096],
    sample_numel: usize,
    output_numel: usize,
    sample_shape: Vec<usize>,
    output_shape: Vec<usize>,
    /// A `SHUTDOWN` frame arrived; the loop drains and exits.
    stopping: bool,
}

impl Plane {
    /// Handle a readiness report for one connection. `true` ⇒ close it.
    fn handle_event(&mut self, conn: &mut Conn, bits: u32) -> bool {
        if bits & EPOLLERR != 0 {
            return true;
        }
        if bits & EPOLLOUT != 0 && flush(conn) {
            return true;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && self.read_ready(conn) {
            return true;
        }
        // Serialize whatever became ready (rejections, control responses,
        // already-settled slots) and update interest.
        self.pump(conn)
    }

    /// Drain the socket through the frame parser, dispatching each
    /// completed frame. `true` ⇒ close.
    fn read_ready(&mut self, conn: &mut Conn) -> bool {
        conn.last_activity = Instant::now();
        loop {
            if conn.pending.len() >= self.cfg.max_inflight {
                // Fairness pause: stop consuming this client's bytes
                // until its completions drain.
                return false;
            }
            match conn.phase {
                Phase::Header => match conn.stream.read(&mut conn.hdr[conn.hdr_fill..5]) {
                    Ok(0) => {
                        conn.half_closed = true;
                        return false;
                    }
                    Ok(n) => {
                        if conn.hdr_fill == 0 {
                            // First byte of a new frame: the request's
                            // ACCEPT span starts here.
                            conn.frame_start_ns = self.core.flight.now_ns();
                        }
                        conn.hdr_fill += n;
                        if conn.hdr_fill == 5 {
                            let len = u32::from_le_bytes([
                                conn.hdr[0],
                                conn.hdr[1],
                                conn.hdr[2],
                                conn.hdr[3],
                            ]) as usize;
                            conn.tag = conn.hdr[4];
                            conn.hdr_fill = 0;
                            if len > MAX_FRAME {
                                // Hostile prefix: no resync possible.
                                return true;
                            }
                            if len > conn.rbuf.len() {
                                self.core.flight.event(cause::BAD_REQUEST, NO_TRACE);
                                conn.pending.push_back(Reply::Err(ERR_TOO_BIG));
                                conn.phase = Phase::Discard(len);
                            } else if len == 0 {
                                conn.need = 0;
                                if self.dispatch(conn) {
                                    return true;
                                }
                            } else {
                                conn.need = len;
                                conn.rfill = 0;
                                conn.phase = Phase::Payload;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                },
                Phase::Payload => match conn.stream.read(&mut conn.rbuf[conn.rfill..conn.need]) {
                    Ok(0) => {
                        conn.half_closed = true;
                        return false;
                    }
                    Ok(n) => {
                        conn.rfill += n;
                        if conn.rfill == conn.need {
                            conn.phase = Phase::Header;
                            if self.dispatch(conn) {
                                return true;
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                },
                Phase::Discard(rem) => {
                    let take = rem.min(self.scratch.len());
                    match conn.stream.read(&mut self.scratch[..take]) {
                        Ok(0) => {
                            conn.half_closed = true;
                            return false;
                        }
                        Ok(n) => {
                            conn.phase =
                                if rem == n { Phase::Header } else { Phase::Discard(rem - n) };
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => return true,
                    }
                }
            }
        }
    }

    /// Act on one complete frame (`conn.tag`, payload `rbuf[..need]`).
    fn dispatch(&mut self, conn: &mut Conn) -> bool {
        match conn.tag {
            op::INFER => self.dispatch_infer(conn),
            op::STATS => {
                let text = self.server.stats().render();
                conn.pending.push_back(Reply::Ready(frame(status::OK, text.as_bytes())));
            }
            op::METRICS => {
                let text = self.server.prometheus_metrics();
                conn.pending.push_back(Reply::Ready(frame(status::OK, text.as_bytes())));
            }
            op::INFO => {
                let mut p = Vec::new();
                proto::put_shape(&mut p, &self.sample_shape);
                proto::put_shape(&mut p, &self.output_shape);
                conn.pending.push_back(Reply::Ready(frame(status::OK, &p)));
            }
            op::DUMP => {
                let json = self.server.flight_dump_json();
                conn.pending.push_back(Reply::Ready(frame(status::OK, json.as_bytes())));
            }
            op::STATUS => {
                let text = self.server.status_text();
                conn.pending.push_back(Reply::Ready(frame(status::OK, text.as_bytes())));
            }
            op::SHUTDOWN => {
                self.core.flight.event(cause::SHUTDOWN, NO_TRACE);
                conn.pending.push_back(Reply::Ready(frame(status::OK, b"draining")));
                self.stopping = true;
            }
            _ => {
                self.core.flight.event(cause::BAD_REQUEST, NO_TRACE);
                conn.pending.push_back(Reply::Err(ERR_BAD_OP));
            }
        }
        false
    }

    /// The zero-alloc inference dispatch: pool pop → decode in place →
    /// arm slot → route to a shard.
    fn dispatch_infer(&mut self, conn: &mut Conn) {
        let flight = &self.core.flight;
        let payload = &conn.rbuf[..conn.need];
        if payload.len() != 4 + 4 * self.sample_numel {
            flight.event(cause::BAD_REQUEST, NO_TRACE);
            conn.pending.push_back(Reply::Err(ERR_BAD_INFER));
            return;
        }
        let Some(mut ctx) = self.pool.pop() else {
            self.core.stats.rejected_admission.inc();
            self.core.stats.slo.observe_error();
            flight.event(cause::ADMISSION, NO_TRACE);
            conn.pending.push_back(Reply::Err(ERR_ADMISSION));
            return;
        };
        let deadline_ms = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
        {
            let dst = ctx.input.data_mut();
            for (v, c) in dst.iter_mut().zip(payload[4..].chunks_exact(4)) {
                *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
        }
        let ReqCtx { input, output, slot, trace } = ctx;
        slot.rearm(output);
        let now = Instant::now();
        let deadline = (deadline_ms > 0).then(|| now + Duration::from_millis(deadline_ms as u64));
        let admit_ns = flight.ns_of(now);
        match self.core.route(Job { input, deadline, enqueued: now, slot: slot.clone(), trace }) {
            Ok(shard) => {
                self.core.stats.submitted.inc();
                // ACCEPT covers frame receipt through admission; ADMIT is
                // a zero-width marker on the shard the job landed on.
                flight.span(kind::ACCEPT, NO_NODE, trace, conn.frame_start_ns, admit_ns);
                flight.span(kind::ADMIT, shard as u32, trace, admit_ns, admit_ns);
                conn.pending.push_back(Reply::Slot(slot, trace));
            }
            Err(e) => {
                let (job, idx, counter, why) = match e {
                    PushError::Full(job) => {
                        (job, ERR_QUEUE_FULL, &self.core.stats.rejected_full, cause::QUEUE_FULL)
                    }
                    PushError::Closed(job) => {
                        (job, ERR_SHUTTING_DOWN, &self.core.stats.rejected_closed, cause::CLOSED)
                    }
                };
                counter.inc();
                self.core.stats.slo.observe_error();
                flight.event(why, trace);
                let output = slot.disarm();
                self.pool.push(ReqCtx {
                    input: job.input,
                    output,
                    slot,
                    trace: trace + self.pool_stride,
                });
                conn.pending.push_back(Reply::Err(idx));
            }
        }
    }

    /// Serialize every response that is ready (stopping at the first
    /// still-pending slot to preserve reply order), recycle the settled
    /// request contexts, flush, and re-arm interest. `true` ⇒ close.
    fn pump(&mut self, conn: &mut Conn) -> bool {
        loop {
            let recycled = match conn.pending.front() {
                None => break,
                Some(Reply::Err(_)) | Some(Reply::Ready(_)) => None,
                Some(Reply::Slot(slot, _)) => match slot.try_recycle() {
                    None => break,
                    Some(settled) => Some(settled),
                },
            };
            match (conn.pending.pop_front(), recycled) {
                (Some(Reply::Err(k)), _) => conn.wbuf.extend_from_slice(&self.err[k as usize]),
                (Some(Reply::Ready(buf)), _) => conn.wbuf.extend_from_slice(&buf),
                (Some(Reply::Slot(slot, trace)), Some((verdict, output, input))) => {
                    let reply_start_ns = self.core.flight.now_ns();
                    match verdict {
                        Ok(()) => {
                            conn.wbuf
                                .extend_from_slice(&((4 * self.output_numel) as u32).to_le_bytes());
                            conn.wbuf.push(status::OK);
                            for v in output.data() {
                                conn.wbuf.extend_from_slice(&v.to_le_bytes());
                            }
                        }
                        Err(e) => {
                            let k = match e {
                                ServeError::DeadlineExceeded => ERR_DEADLINE,
                                ServeError::ShuttingDown => ERR_SHUTTING_DOWN,
                                ServeError::QueueFull => ERR_QUEUE_FULL,
                                _ => ERR_INTERNAL,
                            };
                            conn.wbuf.extend_from_slice(&self.err[k as usize]);
                        }
                    }
                    let flight = &self.core.flight;
                    flight.span(kind::REPLY, NO_NODE, trace, reply_start_ns, flight.now_ns());
                    // Workers hand the input back through the slot; the
                    // fallback allocation can only fire if a completion
                    // path forgot to (debug-asserted in tests).
                    let input = input.unwrap_or_else(|| Tensor::zeros(&self.sample_shape));
                    self.pool.push(ReqCtx { input, output, slot, trace: trace + self.pool_stride });
                }
                _ => unreachable!("peeked a ready reply"),
            }
        }
        self.settle(conn)
    }

    /// Flush, close half-closed conns that owe nothing, and re-arm epoll
    /// interest. `true` ⇒ close.
    fn settle(&self, conn: &mut Conn) -> bool {
        if flush(conn) {
            return true;
        }
        if conn.half_closed && conn.owes_nothing() {
            return true;
        }
        let mut want = EPOLLRDHUP;
        if !conn.half_closed && conn.pending.len() < self.cfg.max_inflight {
            want |= EPOLLIN;
        }
        if conn.wstart < conn.wbuf.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            if self.epoll.modify(conn.fd, want, conn.token).is_err() {
                return true;
            }
            conn.interest = want;
        }
        false
    }

    /// Reclaim contexts whose connection died before the reply settled.
    fn recycle_orphans(&mut self) {
        let mut i = 0;
        while i < self.orphans.len() {
            match self.orphans[i].0.try_recycle() {
                Some((_verdict, output, input)) => {
                    let (slot, trace) = self.orphans.swap_remove(i);
                    let input = input.unwrap_or_else(|| Tensor::zeros(&self.sample_shape));
                    self.pool.push(ReqCtx { input, output, slot, trace: trace + self.pool_stride });
                }
                None => i += 1,
            }
        }
    }
}

/// Write out `wbuf[wstart..]` as far as the socket allows. `true` ⇒ close.
fn flush(conn: &mut Conn) -> bool {
    while conn.wstart < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wstart..]) {
            Ok(0) => return true,
            Ok(n) => conn.wstart += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if conn.wstart == conn.wbuf.len() && conn.wstart > 0 {
        // Fully drained: rewind without shrinking the preallocation.
        conn.wbuf.clear();
        conn.wstart = 0;
    }
    false
}

/// The event-driven serving loop. Normally driven by [`crate::serve`] via
/// [`EventLoop::run`]; tests can single-step it with [`EventLoop::turn`].
pub struct EventLoop {
    plane: Plane,
    listener: TcpListener,
    /// Fixed connection table; index = low 32 bits of the epoll token.
    conns: Vec<Option<Conn>>,
    /// Per-slot generation (high 32 token bits) so a recycled slot never
    /// honours a stale readiness report for its predecessor.
    gens: Vec<u32>,
    free: Vec<u32>,
    events: Box<[EpollEvent]>,
    waker: Arc<EventFd>,
    next_sweep: Instant,
    open: usize,
    rbuf_len: usize,
    wbuf_cap: usize,
}

impl EventLoop {
    pub fn new(server: Server, listener: TcpListener, cfg: EventConfig) -> io::Result<EventLoop> {
        assert!(cfg.max_conns > 0, "max_conns must be positive");
        assert!(cfg.max_inflight > 0, "max_inflight must be positive");
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        let waker = Arc::new(EventFd::new()?);
        epoll.add(waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;

        let core = server.core().clone();
        let hook_waker = waker.clone();
        core.set_batch_hook(Some(Arc::new(move || hook_waker.signal())));

        let sample_shape = server.sample_shape().to_vec();
        let output_shape = server.output_shape().to_vec();
        let sample_numel: usize = sample_shape.iter().product();
        let output_numel: usize = output_shape.iter().product();
        // The pool *is* the admission bound: one context per slot of work
        // the fleet can hold (every shard's queue plus one full batch per
        // worker). More workers ⇒ deeper pool ⇒ bigger absorbable burst.
        let pool_size = core.shards.len() * (core.cfg.queue_cap + core.cfg.max_batch);
        let pool = (0..pool_size)
            .map(|i| ReqCtx {
                input: Tensor::zeros(&sample_shape),
                output: Tensor::zeros(&output_shape),
                slot: Slot::idle(),
                trace: (1u64 << 32) + i as u64,
            })
            .collect();

        let rbuf_len = (4 + 4 * sample_numel).max(256);
        let wbuf_cap = cfg.max_inflight * (5 + 4 * output_numel) + 1024;
        Ok(EventLoop {
            plane: Plane {
                epoll,
                server,
                core,
                cfg,
                pool,
                pool_stride: pool_size as u64,
                orphans: Vec::with_capacity(64),
                err: build_err_frames(),
                scratch: [0; 4096],
                sample_numel,
                output_numel,
                sample_shape,
                output_shape,
                stopping: false,
            },
            listener,
            conns: (0..cfg.max_conns).map(|_| None).collect(),
            gens: vec![0; cfg.max_conns],
            free: (0..cfg.max_conns as u32).rev().collect(),
            events: vec![EpollEvent::default(); 256].into_boxed_slice(),
            waker,
            next_sweep: Instant::now() + Duration::from_millis(500),
            open: 0,
            rbuf_len,
            wbuf_cap,
        })
    }

    /// Connections currently open (test observability).
    pub fn open_conns(&self) -> usize {
        self.open
    }

    /// Whether a `SHUTDOWN` frame has been seen.
    pub fn stopping(&self) -> bool {
        self.plane.stopping
    }

    /// One scheduling turn: wait up to `timeout_ms` for readiness, handle
    /// every reported event, pump completions if woken, sweep idle
    /// connections if due. Returns the number of readiness reports.
    /// Allocation-free except on accept and control frames.
    pub fn turn(&mut self, timeout_ms: i32) -> io::Result<usize> {
        let n = self.plane.epoll.wait(&mut self.events, timeout_ms)?;
        let mut woken = false;
        for i in 0..n {
            let ev = self.events[i];
            let (bits, token) = (ev.events, ev.data);
            match token {
                LISTENER_TOKEN => self.accept_ready(),
                WAKER_TOKEN => {
                    self.waker.drain();
                    woken = true;
                }
                _ => self.conn_event(token, bits),
            }
        }
        if woken {
            self.pump_all();
        }
        if Instant::now() >= self.next_sweep {
            self.sweep_idle();
        }
        Ok(n)
    }

    /// Serve until a `SHUTDOWN` frame, then drain gracefully: stop
    /// accepting, close the shard queues, let in-flight work settle and
    /// flush (bounded), join the workers, and fail anything left.
    pub fn run(mut self) -> io::Result<()> {
        while !self.plane.stopping {
            self.turn(250)?;
        }
        let _ = self.plane.epoll.del(self.listener.as_raw_fd());
        self.plane.core.close();
        let drain_deadline = Instant::now() + Duration::from_secs(5);
        while self.owes_responses() && Instant::now() < drain_deadline {
            self.turn(50)?;
        }
        // Join the workers; with none (or a dead one) this fails whatever
        // is still queued so every pending slot settles.
        self.plane.server.shutdown();
        self.pump_all();
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx, false);
            }
        }
        self.plane.core.set_batch_hook(None);
        Ok(())
    }

    fn owes_responses(&self) -> bool {
        !self.plane.orphans.is_empty() || self.conns.iter().flatten().any(|c| !c.owes_nothing())
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.plane.stopping {
                        continue; // drop it: we are draining
                    }
                    let Some(idx) = self.free.pop() else {
                        self.plane.core.stats.conns_refused.inc();
                        continue; // drop: table full
                    };
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        self.free.push(idx);
                        continue;
                    }
                    let idx = idx as usize;
                    self.gens[idx] = self.gens[idx].wrapping_add(1);
                    let token = ((self.gens[idx] as u64) << 32) | idx as u64;
                    let conn = Conn::new(
                        stream,
                        token,
                        self.rbuf_len,
                        self.wbuf_cap,
                        self.plane.cfg.max_inflight,
                    );
                    if self.plane.epoll.add(conn.fd, conn.interest, token).is_err() {
                        self.free.push(idx as u32);
                        continue;
                    }
                    self.conns[idx] = Some(conn);
                    self.open += 1;
                    self.plane.core.stats.conns_accepted.inc();
                    self.plane.core.stats.open_conns.set(self.open as f64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if e.kind() == io::ErrorKind::Interrupted
                        || e.kind() == io::ErrorKind::ConnectionAborted =>
                {
                    continue
                }
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        if idx >= self.conns.len() || self.gens[idx] != (token >> 32) as u32 {
            return; // stale report for a recycled slot
        }
        let Some(conn) = self.conns[idx].as_mut() else { return };
        if self.plane.handle_event(conn, bits) {
            self.close_conn(idx, false);
        }
    }

    /// Serialize and flush settled completions on every connection that
    /// is owed a response; reclaim orphaned contexts.
    fn pump_all(&mut self) {
        self.plane.recycle_orphans();
        for idx in 0..self.conns.len() {
            let close = match self.conns[idx].as_mut() {
                Some(conn) if !conn.pending.is_empty() || conn.wstart < conn.wbuf.len() => {
                    self.plane.pump(conn)
                }
                _ => false,
            };
            if close {
                self.close_conn(idx, false);
            }
        }
    }

    fn sweep_idle(&mut self) {
        let now = Instant::now();
        self.next_sweep = now + Duration::from_millis(500);
        for idx in 0..self.conns.len() {
            let reap = match &self.conns[idx] {
                Some(c) => {
                    c.owes_nothing()
                        && now.duration_since(c.last_activity) >= self.plane.cfg.idle_timeout
                }
                None => false,
            };
            if reap {
                self.close_conn(idx, true);
            }
        }
    }

    fn close_conn(&mut self, idx: usize, idle: bool) {
        let Some(mut conn) = self.conns[idx].take() else { return };
        let _ = self.plane.epoll.del(conn.fd);
        for reply in conn.pending.drain(..) {
            if let Reply::Slot(slot, trace) = reply {
                // The worker still owns this job; reclaim the context
                // once it settles.
                self.plane.orphans.push((slot, trace));
            }
        }
        self.free.push(idx as u32);
        self.open -= 1;
        self.plane.core.stats.open_conns.set(self.open as f64);
        if idle {
            self.plane.core.stats.conns_closed_idle.inc();
        }
        // `conn.stream` drops here, closing the fd.
    }
}
