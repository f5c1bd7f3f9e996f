//! Serve-layer fault injection: hammer a live [`Server`] over real TCP
//! with every malformed input a hostile or broken client could produce,
//! then prove the server is still healthy. The server runs behind the
//! event-driven connection plane ([`temco_serve::serve`]), so the
//! campaign also exercises epoll readiness, the pooled request contexts,
//! and the idle sweep — not just the protocol parser.
//!
//! The attack mix (seeded, deterministic): valid inference, 1 ms-deadline
//! floods, truncated frames, hostile length prefixes past `MAX_FRAME`,
//! unknown opcodes, ragged `f32` payloads, wrong element counts,
//! disconnects before reading the response, direct-API queue-full storms,
//! stats/info/metrics probes, Prometheus scrape floods, truncated scrape
//! frames, slow-loris writers that trickle the frame header a byte at a
//! time, connections that die mid-handshake with a partial header on the
//! wire, a parked fleet of idle connections with a liveness probe racing
//! the flood, and a scrape racing the shutdown drain. Four health
//! properties are asserted at the end:
//!
//! 1. **No hung waits** — every response (and every direct-API ticket)
//!    arrives within a generous timeout; a hang means a completion path
//!    was lost.
//! 2. **Liveness under flood** — with the idle fleet still parked, a
//!    fresh connection must be accepted and served; accept starvation is
//!    exactly the failure slow-loris and idle floods aim for.
//! 3. **Liveness after abuse** — a final valid inference must still
//!    succeed, which also proves no worker thread panicked (a dead worker
//!    pool would never answer).
//! 4. **Counter conservation** — after a graceful shutdown,
//!    `submitted == completed + deadline_expired + failed_shutdown` with an
//!    empty queue ([`temco_serve::StatsSnapshot::is_conserved_at_rest`]); any leak means
//!    a request was double-counted or silently dropped.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use temco_ir::Graph;
use temco_serve::proto::{self, op, status, MAX_FRAME};
use temco_serve::{serve, EventConfig, ServeConfig, ServeError, Server};
use temco_tensor::Tensor;

/// How long to wait for any single response before declaring it hung.
/// Generous on purpose: the point is catching *lost* completions, not
/// scheduler jitter.
const HANG_TIMEOUT: Duration = Duration::from_secs(10);

/// Fault-injection run parameters.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Adversarial episodes to run (each sends one or more frames).
    pub frames: usize,
    /// RNG seed for the attack sequence.
    pub seed: u64,
    /// Worker threads on the server under test.
    pub workers: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { frames: 1000, seed: 0xF417, workers: 2 }
    }
}

/// What the injection run observed. `passed()` is the health verdict.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Adversarial episodes executed.
    pub frames: usize,
    /// Requests answered `OK`.
    pub ok: usize,
    /// Requests answered with a structured rejection (queue full,
    /// deadline exceeded, shutting down).
    pub rejected: usize,
    /// Malformed inputs the server answered `BAD_REQUEST` or dropped the
    /// connection over (both are correct handling).
    pub proto_errors: usize,
    /// Connections the injector deliberately broke mid-exchange.
    pub disconnects: usize,
    /// Responses or tickets that never arrived within `HANG_TIMEOUT`.
    pub hung: usize,
    /// Idle connections parked on the server during the flood phase.
    pub idle_flooded: usize,
    /// A fresh connection was accepted and served while the idle fleet
    /// was still parked (accept liveness under flood).
    pub alive_under_flood: bool,
    /// Stats counters conserved after shutdown.
    pub conserved: bool,
    /// A valid inference succeeded after all the abuse (workers alive).
    pub alive_after: bool,
    /// The observability plane stayed healthy: the `STATUS` page rendered
    /// and the flight recorder dumped as parseable chrome JSON.
    pub obs_ok: bool,
    /// The flight recorder's chrome dump, captured just before shutdown —
    /// a failing report ships with the server's last moments attached.
    pub flight_capture: Option<String>,
}

impl FaultReport {
    /// The five health properties the injector exists to check.
    pub fn passed(&self) -> bool {
        self.hung == 0
            && self.conserved
            && self.alive_under_flood
            && self.alive_after
            && self.obs_ok
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} episodes: {} ok, {} rejected, {} proto errors, {} disconnects, \
             {} hung, {} idle flooded (alive under flood={}), conserved={}, alive after={}, \
             obs ok={}",
            self.frames,
            self.ok,
            self.rejected,
            self.proto_errors,
            self.disconnects,
            self.hung,
            self.idle_flooded,
            self.alive_under_flood,
            self.conserved,
            self.alive_after,
            self.obs_ok
        )
    }
}

/// What one episode observed; folded into the report's counters.
enum Outcome {
    Ok,
    Rejected,
    ProtoError,
    Disconnect,
    Hung,
}

/// A small MLP — cheap per batch so the queue actually drains under load,
/// real enough (two GEMMs + an activation) to exercise the full
/// batch-gather/scatter path.
fn tiny_model() -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 6], "x");
    let h = g.linear(x, Tensor::randn(&[5, 6], 11), None, "fc1");
    let r = g.relu(h, "r");
    let y = g.linear(r, Tensor::randn(&[3, 5], 12), None, "fc2");
    g.mark_output(y);
    g.infer_shapes();
    g
}

fn draw(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    lo + (rng.random::<u64>() as usize) % (hi - lo + 1)
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(HANG_TIMEOUT))?;
    s.set_write_timeout(Some(HANG_TIMEOUT))?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// `deadline_ms` + `numel` little-endian f32s: a well-formed INFER payload.
fn infer_payload(deadline_ms: u32, numel: usize, fill: f32) -> Vec<u8> {
    let mut p = deadline_ms.to_le_bytes().to_vec();
    proto::put_f32s(&mut p, &vec![fill; numel]);
    p
}

/// Send one frame, read one response, classify it. A read timeout is a
/// hang; a closed connection is a protocol error (the server is allowed to
/// drop abusive clients, never to stall them).
fn exchange(addr: SocketAddr, tag: u8, payload: &[u8]) -> Outcome {
    let Ok(mut s) = connect(addr) else { return Outcome::Disconnect };
    if proto::write_frame(&mut s, tag, payload).is_err() {
        return Outcome::Disconnect;
    }
    classify_response(&mut s)
}

/// Fetch one zero-payload control opcode's response as UTF-8 text.
fn fetch_text(addr: SocketAddr, opcode: u8) -> Option<String> {
    let mut s = connect(addr).ok()?;
    proto::write_frame(&mut s, opcode, &[]).ok()?;
    match proto::read_frame(&mut s) {
        Ok(Some((status::OK, p))) => String::from_utf8(p).ok(),
        _ => None,
    }
}

fn classify_response(s: &mut TcpStream) -> Outcome {
    match proto::read_frame(s) {
        Ok(Some((status::OK, _))) => Outcome::Ok,
        Ok(Some((status::QUEUE_FULL | status::DEADLINE_EXCEEDED | status::SHUTTING_DOWN, _))) => {
            Outcome::Rejected
        }
        Ok(Some(_)) => Outcome::ProtoError, // BAD_REQUEST or unknown
        Ok(None) => Outcome::ProtoError,    // server hung up on the abuse
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Outcome::Hung
        }
        Err(_) => Outcome::ProtoError,
    }
}

/// Raw bytes that are *not* a well-formed frame, then a half-close. The
/// write shutdown hands the server an EOF where it expected more payload;
/// a correct server tears the connection down promptly, and one that keeps
/// the socket open past the hang timeout is reported as hung.
fn send_raw_and_close(addr: SocketAddr, bytes: &[u8]) -> Outcome {
    let Ok(mut s) = connect(addr) else { return Outcome::Disconnect };
    let _ = s.write_all(bytes);
    let _ = s.flush();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 256];
    loop {
        match s.read(&mut sink) {
            Ok(0) => return Outcome::Disconnect,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Outcome::Hung
            }
            Err(_) => return Outcome::Disconnect,
            Ok(_) => {}
        }
    }
}

/// Scrape flood: many `METRICS` frames back to back on one connection.
/// The scrape path is read-only and allocates only in the response; every
/// frame must answer `OK` without perturbing the workers.
fn metrics_flood(addr: SocketAddr, report: &mut FaultReport) {
    let Ok(mut s) = connect(addr) else {
        report.disconnects += 1;
        return;
    };
    for _ in 0..16 {
        if proto::write_frame(&mut s, op::METRICS, &[]).is_err() {
            report.disconnects += 1;
            return;
        }
        match classify_response(&mut s) {
            Outcome::Ok => report.ok += 1,
            Outcome::Rejected => report.rejected += 1,
            Outcome::ProtoError => report.proto_errors += 1,
            Outcome::Disconnect => report.disconnects += 1,
            Outcome::Hung => report.hung += 1,
        }
    }
}

/// Slow-loris: trickle the five frame-header bytes onto the wire one at
/// a time with a pause between each, then the payload. The frame is
/// ultimately valid, so a correct event loop accumulates it patiently in
/// bounded state (five header bytes, then the preallocated payload
/// buffer) and answers like any other request — slowness alone must
/// never wedge the parser, starve the accept path, or leak a context.
fn slow_loris(addr: SocketAddr, numel: usize) -> Outcome {
    let Ok(mut s) = connect(addr) else { return Outcome::Disconnect };
    let payload = infer_payload(0, numel, 0.125);
    let mut framed = Vec::with_capacity(5 + payload.len());
    if proto::write_frame(&mut framed, op::INFER, &payload).is_err() {
        return Outcome::Disconnect;
    }
    for byte in &framed[..5] {
        if s.write_all(std::slice::from_ref(byte)).is_err() || s.flush().is_err() {
            return Outcome::Disconnect;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if s.write_all(&framed[5..]).is_err() {
        return Outcome::Disconnect;
    }
    classify_response(&mut s)
}

/// Mid-handshake disconnect: a few header bytes, then an abrupt close
/// before the frame ever completes. No request exists yet, so nothing
/// may be counted as submitted and the connection slot must be reclaimed.
fn mid_handshake_disconnect(addr: SocketAddr, rng: &mut StdRng) -> Outcome {
    let Ok(mut s) = connect(addr) else { return Outcome::Disconnect };
    let hdr = [64u8, 0, 0, 0, op::INFER];
    let cut = draw(rng, 1, 4);
    let _ = s.write_all(&hdr[..cut]);
    let _ = s.flush();
    drop(s);
    Outcome::Disconnect
}

/// Direct-API storm: submit past the queue cap, then wait out every
/// ticket. The queue-full rejections are expected; a ticket that never
/// settles is the bug this hunts.
fn queue_storm(server: &Server, numel: usize, report: &mut FaultReport) {
    let sample = || Tensor::from_vec(&[1, numel], vec![0.5; numel]);
    let mut tickets = Vec::new();
    for _ in 0..32 {
        match server.submit(sample()) {
            Ok(t) => tickets.push(t),
            Err(ServeError::QueueFull) => report.rejected += 1,
            Err(_) => report.rejected += 1,
        }
    }
    for t in tickets {
        match t.wait_timeout(HANG_TIMEOUT) {
            Ok(Ok(_)) => report.ok += 1,
            Ok(Err(_)) => report.rejected += 1,
            Err(_) => report.hung += 1,
        }
    }
}

/// Run the fault-injection campaign. Binds an ephemeral local port,
/// serves `tiny_model` behind `cfg.workers` workers, runs `cfg.frames`
/// seeded adversarial episodes, then gracefully shuts down and audits the
/// counters.
pub fn run_fault_injection(cfg: &FaultConfig) -> io::Result<FaultReport> {
    let server = Server::new(
        tiny_model(),
        ServeConfig {
            workers: cfg.workers.max(1),
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_cap: 16,
            default_deadline: None,
            ..ServeConfig::default()
        },
    )
    .expect("the built-in model is servable");
    let numel: usize = server.sample_shape().iter().product();

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let tcp_server = server.clone();
    // Event-driven plane with headroom for the idle flood; the idle
    // timeout is kept above the campaign length so the sweep never races
    // the episodes it is not under test here.
    let ecfg =
        EventConfig { max_conns: 2048, idle_timeout: Duration::from_secs(120), max_inflight: 32 };
    let serve_thread = std::thread::spawn(move || serve(tcp_server, listener, ecfg));

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = FaultReport {
        frames: cfg.frames,
        ok: 0,
        rejected: 0,
        proto_errors: 0,
        disconnects: 0,
        hung: 0,
        idle_flooded: 0,
        alive_under_flood: false,
        conserved: false,
        alive_after: false,
        obs_ok: false,
        flight_capture: None,
    };

    for _ in 0..cfg.frames {
        let outcome = match draw(&mut rng, 0, 14) {
            // Valid inference — the control group; must come back OK.
            0 | 1 => exchange(addr, op::INFER, &infer_payload(0, numel, 0.25)),
            // Deadline flood: 1 ms deadlines race the worker; OK and
            // DEADLINE_EXCEEDED are both legitimate, a hang is not.
            2 => exchange(addr, op::INFER, &infer_payload(1, numel, 0.5)),
            // Truncated frame: the prefix promises more than arrives.
            3 => {
                let mut bytes = 64u32.to_le_bytes().to_vec();
                bytes.push(op::INFER);
                bytes.extend_from_slice(&[0u8; 7]);
                send_raw_and_close(addr, &bytes)
            }
            // Hostile length prefix past MAX_FRAME: must be refused
            // without a matching allocation.
            4 => {
                let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
                bytes.push(op::INFER);
                send_raw_and_close(addr, &bytes)
            }
            // Unknown opcode with a plausible payload.
            5 => exchange(addr, 0xEE, &infer_payload(0, numel, 0.0)),
            // Ragged f32 payload (not a multiple of 4 after the deadline).
            6 => {
                let mut p = infer_payload(0, numel, 0.0);
                p.pop();
                exchange(addr, op::INFER, &p)
            }
            // Wrong element count for the model's input shape.
            7 => exchange(addr, op::INFER, &infer_payload(0, numel + 1, 0.0)),
            // Disconnect before reading the response: the worker's write
            // fails, nothing may leak or hang.
            8 => match connect(addr) {
                Ok(mut s) => {
                    let _ = proto::write_frame(&mut s, op::INFER, &infer_payload(0, numel, 1.0));
                    drop(s);
                    Outcome::Disconnect
                }
                Err(_) => Outcome::Disconnect,
            },
            // Metrics-opcode abuse: scrape floods on one connection, or a
            // truncated scrape frame (the prefix promises payload that
            // never arrives). Scraping is read-only — no variant may
            // perturb the workers.
            9 => {
                if draw(&mut rng, 0, 1) == 0 {
                    metrics_flood(addr, &mut report);
                    continue;
                }
                let mut bytes = 16u32.to_le_bytes().to_vec();
                bytes.push(op::METRICS);
                bytes.extend_from_slice(&[0u8; 3]);
                send_raw_and_close(addr, &bytes)
            }
            // Slow-loris header trickle: the event loop must absorb it in
            // bounded state and still answer.
            11 => slow_loris(addr, numel),
            // Mid-handshake disconnect: partial header, abrupt close.
            12 => mid_handshake_disconnect(addr, &mut rng),
            // Flight-recorder and status-page probes interleaved with the
            // abuse; both are read-only control frames that must answer
            // OK without perturbing the workers.
            13 => {
                let opcode = if draw(&mut rng, 0, 1) == 0 { op::DUMP } else { op::STATUS };
                exchange(addr, opcode, &[])
            }
            // Truncated DUMP frame: the prefix promises payload that
            // never arrives on a control opcode.
            14 => {
                let mut bytes = 8u32.to_le_bytes().to_vec();
                bytes.push(op::DUMP);
                bytes.extend_from_slice(&[0u8; 2]);
                send_raw_and_close(addr, &bytes)
            }
            // Stats/info/metrics probes interleaved with the abuse, plus
            // the direct-API queue storm.
            _ => {
                if draw(&mut rng, 0, 2) == 0 {
                    queue_storm(&server, numel, &mut report);
                    continue;
                }
                let probe = match draw(&mut rng, 0, 2) {
                    0 => op::STATS,
                    1 => op::INFO,
                    _ => op::METRICS,
                };
                exchange(addr, probe, &[])
            }
        };
        match outcome {
            Outcome::Ok => report.ok += 1,
            Outcome::Rejected => report.rejected += 1,
            Outcome::ProtoError => report.proto_errors += 1,
            Outcome::Disconnect => report.disconnects += 1,
            Outcome::Hung => report.hung += 1,
        }
    }

    // Idle-connection flood: park a silent fleet on the connection table,
    // then prove accept liveness *while flooded* — a fresh connection
    // must still be admitted and a valid request served end to end. The
    // fleet scales with the campaign so `temco check --faults 2000` parks
    // over a thousand connections.
    let flood = cfg.frames.clamp(200, 1200);
    let mut parked = Vec::with_capacity(flood);
    for _ in 0..flood {
        match TcpStream::connect(addr) {
            Ok(s) => parked.push(s),
            Err(_) => report.disconnects += 1,
        }
    }
    report.idle_flooded = parked.len();
    for attempt in 0..3 {
        if matches!(exchange(addr, op::INFER, &infer_payload(0, numel, 0.375)), Outcome::Ok) {
            report.alive_under_flood = true;
            report.ok += 1;
            break;
        }
        if attempt + 1 < 3 {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    drop(parked);

    // Liveness probe: after everything above, a clean request must work.
    report.alive_after =
        matches!(exchange(addr, op::INFER, &infer_payload(0, numel, 0.75)), Outcome::Ok);

    // Observability-plane health: the STATUS page must render its
    // recorder/SLO sections and the flight recorder must dump as
    // parseable chrome JSON with at least one complete request chain
    // (the campaign just served plenty). The capture is kept on the
    // report so a failing run ships with the server's last moments.
    let status_page = fetch_text(addr, op::STATUS);
    let dump = fetch_text(addr, op::DUMP);
    report.obs_ok = status_page.as_deref().is_some_and(|t| t.contains("flight recorder"))
        && dump.as_deref().is_some_and(|d| {
            temco_obs::parse_chrome_trace(d)
                .is_ok_and(|evs| temco_obs::find_complete_chain(&evs).is_some())
        });
    report.flight_capture = dump;

    // Graceful shutdown over the wire — with a scrape connection opened
    // *before* the drain and driven during it. The event loop keeps
    // turning while it owes responses, so scrapes racing the drain must
    // keep answering (or drop cleanly), never hang, and never break
    // conservation.
    let mut drain_scraper = connect(addr).ok();
    let _ = exchange(addr, op::SHUTDOWN, &[]);
    if let Some(s) = drain_scraper.as_mut() {
        for _ in 0..3 {
            if proto::write_frame(s, op::METRICS, &[]).is_err() {
                report.disconnects += 1;
                break;
            }
            match classify_response(s) {
                Outcome::Ok => report.ok += 1,
                Outcome::Rejected => report.rejected += 1,
                Outcome::ProtoError => report.proto_errors += 1,
                Outcome::Disconnect => report.disconnects += 1,
                Outcome::Hung => report.hung += 1,
            }
        }
    }
    // Drop the scrape connection so the event loop can retire it.
    drop(drain_scraper);
    serve_thread.join().expect("serve thread must not panic")?;
    report.conserved = server.stats().is_conserved_at_rest();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_campaign_leaves_the_server_healthy() {
        let report =
            run_fault_injection(&FaultConfig { frames: 120, seed: 7, workers: 2 }).unwrap();
        assert!(report.passed(), "unhealthy after faults: {report}");
        assert!(report.ok > 0, "no request ever succeeded: {report}");
        assert!(report.proto_errors > 0, "the campaign never hit a protocol path: {report}");
        assert!(report.idle_flooded >= 120, "the idle flood never parked its fleet: {report}");
    }
}
