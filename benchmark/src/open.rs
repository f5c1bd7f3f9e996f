//! `serve_steady`, `serve_overload`: a served model behind the event plane,
//! driven open loop — requests leave on a seeded Poisson schedule whatever
//! the server does, and each is timed from the instant it was due.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use temco_ir::Graph;
use temco_obs::kind;
use temco_runtime::{op_label, CompiledGraph};
use temco_serve::proto::{op, status};
use temco_serve::{serve, Client, EventConfig, ServeConfig, Server};
use temco_tensor::Tensor;

use crate::layers::{self, Static};
use crate::measure::{self, Bytes, Round};
use crate::prepare::{build, check_plan, compile, thrice, Counts, Prepared};
use crate::reference::{canary, close, reference_outputs, seeded_inputs, Golden};
use crate::report::{Metrics, Outcome};
use crate::span::{Spans, SETUP_OP, TRACE_OPS_KEPT};
use crate::stats::{median, percentile, Rng};
use crate::workload::{Model, Workload};
use crate::Args;

/// Distinct seeded samples the schedule cycles through.
const INPUTS: usize = 16;
const WARMUP_REQUESTS: usize = 64;
/// A reply this late means the server is gone; the rest count as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A server on a loopback port with its event loop on a thread of its own.
struct Served {
    server: Server,
    addr: SocketAddr,
    event_loop: Option<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    fn start(spans: &mut Spans, graph: Graph, max_inflight: usize) -> Served {
        // Every serving parameter is the crate's default but the pipelining
        // cap: workers 1, max_batch 8, max_delay 2 ms, queue_cap 64.
        let server = spans.scope("serve.server_new", SETUP_OP, |_| {
            Server::new(graph, ServeConfig::default())
                .unwrap_or_else(|e| panic!("Server::new: {e}"))
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let cfg = EventConfig { max_inflight, ..EventConfig::default() };
        let plane = server.clone();
        let event_loop = std::thread::spawn(move || serve(plane, listener, cfg));
        Served { server, addr, event_loop: Some(event_loop) }
    }

    /// Drain and stop; `false` if the event loop did not end cleanly.
    fn stop(&mut self) -> bool {
        let Some(handle) = self.event_loop.take() else { return true };
        let asked = Client::connect(self.addr).and_then(|mut c| c.shutdown_server()).is_ok();
        if !asked {
            self.server.shutdown();
        }
        asked && matches!(handle.join(), Ok(Ok(())))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

fn infer_frame(sample: &Tensor, deadline_ms: u32) -> Vec<u8> {
    let mut frame = Vec::with_capacity(9 + sample.numel() * 4);
    frame.extend_from_slice(&((4 + sample.numel() * 4) as u32).to_le_bytes());
    frame.push(op::INFER);
    frame.extend_from_slice(&deadline_ms.to_le_bytes());
    temco_serve::proto::put_f32s(&mut frame, sample.data());
    frame
}

/// Arrival times for `rounds` rounds of `per_round` requests, `round_s` seconds
/// each: a Poisson process conditioned on its count in every round, so each
/// round offers exactly the scheduled rate whatever the seed.
fn poisson_schedule(rng: &mut Rng, rounds: usize, per_round: usize, round_s: f64) -> Vec<f64> {
    let mut due = Vec::with_capacity(rounds * per_round);
    for k in 0..rounds {
        let mut round: Vec<f64> =
            (0..per_round).map(|_| (k as f64 + rng.next_f64()) * round_s).collect();
        round.sort_by(f64::total_cmp);
        due.extend(round);
    }
    due
}

/// How one request ended, as the receiver saw it.
#[derive(Clone, Copy)]
enum Reply {
    /// `OK`; `correct` compares the payload with the reference.
    Answered { correct: bool },
    /// A well-formed `QUEUE_FULL` or `DEADLINE_EXCEEDED`.
    Refused,
    /// Any other status, a malformed frame, or no reply at all.
    Failed,
}

struct Phase {
    rounds: Vec<Round>,
    refused: u64,
    sent: usize,
    rate_achieved: f64,
    rate_scheduled: f64,
    lag_p99_ms: f64,
}

/// One open-loop phase on a fresh connection: a sender thread keeps the
/// schedule, a receiver thread (this one) reads the pipelined replies in
/// order.
fn phase(
    w: &Workload,
    addr: SocketAddr,
    frames: &[Vec<u8>],
    wanted: &[Tensor],
    due: &[f64],
    round_s: f64,
    trace: Option<&mut Spans>,
) -> Phase {
    let n = due.len();
    let stream = TcpStream::connect(addr).expect("connect to the served model");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("read timeout");
    let mut tx = stream.try_clone().expect("clone the socket");
    let mut rx = std::io::BufReader::with_capacity(1 << 16, stream);

    let t0 = Instant::now() + Duration::from_millis(5);
    let span_base = trace.as_deref().map_or(0, Spans::now_ns) as f64 + 5e6;
    let since = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();

    let mut replies: Vec<(f64, Reply)> = Vec::with_capacity(n);
    let sends: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sends = Vec::with_capacity(n);
            for (i, at) in due.iter().enumerate() {
                let wait =
                    (t0 + Duration::from_secs_f64(*at)).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let begin = since(Instant::now());
                if tx.write_all(&frames[i % frames.len()]).is_err() {
                    break;
                }
                sends.push((begin, since(Instant::now())));
            }
            sends
        });

        let mut header = [0u8; 5];
        let mut payload = Vec::new();
        for i in 0..n {
            if rx.read_exact(&mut header).is_err() {
                break;
            }
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            payload.resize(len, 0);
            if rx.read_exact(&mut payload).is_err() {
                break;
            }
            let at = since(Instant::now());
            let reply = match header[4] {
                status::OK => {
                    let correct = temco_serve::proto::get_f32s(&payload)
                        .is_ok_and(|out| close(&out, wanted[i % wanted.len()].data()));
                    Reply::Answered { correct }
                }
                status::QUEUE_FULL | status::DEADLINE_EXCEEDED => Reply::Refused,
                _ => Reply::Failed,
            };
            replies.push((at, reply));
        }
        if replies.len() < n {
            // The server stopped answering: unblock a sender stuck in `write`.
            let _ = rx.get_ref().shutdown(std::net::Shutdown::Both);
        }
        sender.join().expect("sender thread")
    });

    // Requests that were never sent or never answered fail at the end of time.
    let end = replies.last().map_or(0.0, |r| r.0);
    replies.resize(n, (end, Reply::Failed));

    // A round is the requests due within one `round_s` of the schedule. Replies
    // come back in request order, so the rounds' last replies cut the timeline
    // into consecutive stretches, and a round's goodput is its correct
    // completions over its stretch.
    let n_rounds = n / w.round_ops;
    let mut refused = 0u64;
    let rounds: Vec<Round> = (0..n_rounds)
        .map(|k| {
            let (lo, hi) = (k * w.round_ops, (k + 1) * w.round_ops);
            let begin = if lo == 0 { 0.0 } else { replies[lo - 1].0 };
            let mut r = Round { wall_s: replies[hi - 1].0 - begin, ..Round::default() };
            for ((at, reply), due) in replies[lo..hi].iter().zip(&due[lo..hi]) {
                match reply {
                    Reply::Answered { correct } => r.record(w, at - due, *correct),
                    Reply::Failed => r.record(w, at - due, false),
                    Reply::Refused => {
                        r.refuse();
                        refused += 1;
                    }
                }
            }
            r
        })
        .collect();

    if let Some(spans) = trace {
        let ns = |s: f64| (span_base + s * 1e9) as u64;
        for (i, ((at, _), due)) in replies.iter().zip(due).take(TRACE_OPS_KEPT as usize).enumerate()
        {
            let id = spans.len();
            spans.add("serve.request", i as u64 + 1, None, ns(*due), ns(*at));
            if let Some((begin, done)) = sends.get(i) {
                spans.add("gen.send", i as u64 + 1, Some(id), ns(*begin), ns(*done));
            }
        }
    }

    // Like the latencies, lateness is judged per round and the median round
    // reported: one stall of the box is one bad round, not an invalid run.
    let lags: Vec<f64> =
        sends.iter().zip(due).map(|((begin, _), due)| (begin - due) * 1e3).collect();
    let round_lags: Vec<f64> = (0..n_rounds)
        .map(|k| (k * w.round_ops, ((k + 1) * w.round_ops).min(lags.len())))
        .filter(|(lo, hi)| lo < hi)
        .map(|(lo, hi)| percentile(&lags[lo..hi], 99.0))
        .collect();
    Phase {
        rounds,
        refused,
        sent: sends.len(),
        rate_achieved: sends.len() as f64 / sends.last().map_or(f64::INFINITY, |s| s.1),
        rate_scheduled: w.round_ops as f64 / round_s,
        lag_p99_ms: if round_lags.is_empty() { 0.0 } else { median(&round_lags) },
    }
}

impl Phase {
    /// The numbers must measure the server, not the sender: a generator that
    /// ran late or slow makes the run's timings invalid rather than the server
    /// slow. That is the host's doing (a busy neighbour delays the sender's
    /// wake-ups), not a wrong output, so it is said on stderr and in
    /// `gen.valid` and leaves `correct` alone.
    fn generator_ok(&self, w: &Workload) -> bool {
        let ok = self.lag_p99_ms <= 0.1 * w.limit.as_secs_f64() * 1e3
            && self.rate_achieved >= 0.98 * self.rate_scheduled;
        if !ok {
            eprintln!(
                "{}: INVALID TIMINGS: the load generator fell behind (lag p99 {:.3} ms, \
                 {:.1} of {:.1} requests/s); the latencies measure the sender, not the server",
                w.name, self.lag_p99_ms, self.rate_achieved, self.rate_scheduled
            );
        }
        ok
    }
}

/// The server's own view, from `Server::stats()` and its flight recorder.
fn serve_layer(
    m: &mut Metrics,
    served: &Served,
    graph: &Graph,
    client_p50_ms: f64,
    wall_s: f64,
    sent: usize,
    refused: u64,
) {
    let st = served.server.stats();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    m.set("serve.queue_wait_p50_ms", ms(st.queue_wait_percentile(50.0)));
    m.set("serve.queue_wait_p99_ms", ms(st.queue_wait_percentile(99.0)));
    m.set("serve.service_p50_ms", ms(st.service_percentile(50.0)));
    m.set("serve.service_p99_ms", ms(st.service_percentile(99.0)));
    m.set("serve.wire_p50_ms", client_p50_ms - ms(st.latency_percentile(50.0)));
    m.set("serve.mean_batch", st.mean_batch_size());
    m.set("serve.batch_occupancy", st.batch_occupancy());
    m.set("serve.batches", st.batches as f64);
    let busy_s = st.worker_busy_us.iter().sum::<u64>() as f64 / 1e6;
    m.set("serve.worker_busy_frac", busy_s / (wall_s * st.workers.max(1) as f64));
    m.set("serve.refused_frac", refused as f64 / sent.max(1) as f64);
    m.set("serve.rejected_full", st.rejected_full as f64);
    m.set("serve.rejected_admission", st.rejected_admission as f64);
    m.set("serve.deadline_expired", st.deadline_expired as f64);
    m.set("serve.slab_bytes_per_worker", st.slab_bytes_per_worker as f64);
    m.set("serve.conserved", f64::from(u8::from(st.is_conserved_at_rest())));

    // Kernel time per executed batch, from the engine node spans the
    // server's always-on flight recorder still holds.
    let events = served.server.flight().snapshot();
    let batches = events.iter().filter(|e| e.kind == kind::BATCH_RUN).count() as u64;
    let labelled = events
        .iter()
        .filter(|e| e.kind == kind::NODE)
        .filter_map(|e| graph.nodes.get(e.node as usize).map(|n| (op_label(&n.op), e.dur_ns)));
    let kernel_us = layers::kernel_rollup(m, labelled, batches, 0);
    m.set("runtime.kernel_us", kernel_us);
    m.set("obs.spans_dropped", st.spans_dropped as f64);
}

pub fn run(
    w: &Workload,
    (model, rate_rps, max_inflight, deadline_ms): (Model, f64, usize, u32),
    args: &Args,
    spans: &mut Spans,
) -> Outcome {
    let ((source, prepared, buckets, mut served), setup_seconds) =
        thrice(spans, |spans, by_pass| {
            let source = build(spans, &model);
            let prepared = compile(spans, &model, &source, by_pass, SETUP_OP);
            let served = Served::start(spans, prepared.compiled.graph().clone(), max_inflight);
            // The server keeps its per-bucket plans to itself; re-derive them the
            // way `Server::new` does so that every one can be checked.
            let buckets: Vec<CompiledGraph> = served
                .server
                .buckets()
                .iter()
                .map(|&b| {
                    CompiledGraph::new(prepared.compiled.graph().rebatch(b)).expect("bucket plan")
                })
                .collect();
            let x = canary(&source);
            spans.scope("warmup", SETUP_OP, |_| {
                let mut client = Client::connect(served.addr).expect("warm-up connection");
                for _ in 0..WARMUP_REQUESTS {
                    client.infer(x.data(), 0).expect("warm-up request");
                }
            });
            let counts = buckets.iter().map(Counts::of).collect();
            ((source, prepared, buckets, served), counts)
        });
    let Prepared { decomposed, compiled, stats, mut plan_violations } = prepared;
    let decomposed = decomposed.expect("the kept set-up compiled pass by pass");
    for bucket in &buckets {
        plan_violations += check_plan(spans, bucket, SETUP_OP);
    }
    let slab: usize = buckets.iter().map(CompiledGraph::slab_bytes).sum();
    let slab_ok = slab == served.server.stats().slab_bytes_per_worker;
    if !slab_ok {
        eprintln!("{}: re-derived bucket plans differ from the server's", w.name);
    }

    // Golden file ≈ reference executor ≈ the server's own reply, on the canary.
    let golden = Golden::load(&args.dir, w.name).unwrap_or_else(|e| crate::die(&e));
    let x = canary(&source);
    let want = reference_outputs(&decomposed, std::slice::from_ref(&x));
    let got = Client::connect(served.addr)
        .and_then(|mut c| c.infer(x.data(), 0))
        .expect("canary request");
    let golden_ok = golden.matches(model.name(), &want[0])
        && golden.matches(model.name(), &Tensor::from_vec(want[0].shape(), got));
    if !golden_ok {
        eprintln!("{}: canary output differs from golden/{}.txt", w.name, w.name);
    }

    let inputs = seeded_inputs(&source, args.seed, INPUTS);
    let wanted = reference_outputs(&decomposed, &inputs);
    let frames: Vec<Vec<u8>> = inputs.iter().map(|x| infer_frame(x, deadline_ms)).collect();
    let mut rng = Rng::new(args.seed ^ 0x5EED_0FA1);
    // Whole rounds only: as many as fit in the time, and at least one.
    let round_s = w.round_ops as f64 / rate_rps;
    let mut run_phase = |seconds: f64, trace: Option<&mut Spans>| {
        let rounds = ((seconds / round_s) as usize).max(1);
        let due = poisson_schedule(&mut rng, rounds, w.round_ops, round_s);
        phase(w, served.addr, &frames, &wanted, &due, round_s, trace)
    };
    let phases: Vec<Phase> = if args.trace {
        vec![run_phase(args.seconds / 2.0, None), run_phase(args.seconds / 2.0, Some(spans))]
    } else {
        vec![run_phase(args.seconds, None)]
    };
    let generator_ok = phases.iter().all(|p| p.generator_ok(w));
    let drained = served.stop();
    if !drained {
        eprintln!("{}: the event loop did not drain cleanly", w.name);
    }
    let conserved = served.server.stats().is_conserved_at_rest();

    let mut m = Metrics::default();
    if args.trace {
        let last = phases.last().expect("a phase ran");
        let mut statics = Static::default();
        statics.add(&source, &stats, &compiled, plan_violations);
        statics.add_decomposed(&decomposed);
        let sent: usize = phases.iter().map(|p| p.sent).sum();
        let refused: u64 = phases.iter().map(|p| p.refused).sum();
        let goodput = |p: &Phase| measure::throughput(&p.rounds);
        m.set("obs.trace_overhead_pct", (goodput(&phases[0]) / goodput(last) - 1.0) * 100.0);
        m.set("obs.spans_recorded", (spans.len() as u64 + served.server.flight().total()) as f64);
        m.set("gen.sent", sent as f64);
        m.set("gen.rate_achieved_rps", last.rate_achieved);
        m.set("gen.lag_p99_ms", phases.iter().map(|p| p.lag_p99_ms).fold(0.0, f64::max));
        m.set("gen.valid", f64::from(u8::from(generator_ok)));
        let p50s: Vec<f64> = phases
            .iter()
            .flat_map(|p| &p.rounds)
            .filter(|r| !r.latencies.is_empty())
            .map(|r| percentile(&r.latencies, 50.0) * 1e3)
            .collect();
        let client_p50_ms = if p50s.is_empty() { 0.0 } else { median(&p50s) };
        serve_layer(&mut m, &served, compiled.graph(), client_p50_ms, args.seconds, sent, refused);
        layers::probes(&mut m, spans, compiled.graph());
        layers::setup_times(&mut m, spans);
        statics.report(&mut m);
    }
    let rounds: Vec<Round> = phases.into_iter().flat_map(|p| p.rounds).collect();
    let failed = measure::failed(&rounds);
    let attempted = measure::attempted(&rounds);
    if args.trace {
        m.set("check.failed_frac", failed as f64 / attempted as f64);
    } else {
        let mut bytes = Bytes::default();
        bytes.add(&compiled, slab);
        measure::end_to_end(&mut m, w, &rounds, &setup_seconds, &bytes);
    }
    Outcome {
        attempted,
        failed,
        correct: failed == 0
            && golden_ok
            && plan_violations == 0
            && slab_ok
            && conserved
            && drained,
        metrics: m,
    }
}
