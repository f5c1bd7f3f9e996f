//! End-to-end tests of the event-driven connection plane: wire
//! correctness, thousands of concurrent connections on a handful of
//! threads, per-client fairness under a flooding pipeliner, connection
//! table limits, idle reaping, and the zero-allocation turn loop.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use temco_ir::Graph;
use temco_runtime::Engine;
use temco_serve::{proto, Client, EventConfig, EventLoop, ServeConfig, Server};
use temco_tensor::Tensor;

struct CountingAlloc;

static TRACKED_ALLOCS: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            TRACKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.try_with(|t| t.get()).unwrap_or(false) {
            TRACKED_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn tiny_mlp() -> Graph {
    let mut g = Graph::new();
    let x = g.input(&[1, 6], "x");
    let h = g.linear(x, Tensor::randn(&[5, 6], 1), None, "fc1");
    let r = g.relu(h, "r");
    let y = g.linear(r, Tensor::randn(&[3, 5], 2), None, "fc2");
    g.mark_output(y);
    g.infer_shapes();
    g
}

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch: 4,
        max_delay: Duration::from_micros(200),
        queue_cap: 64,
        default_deadline: None,
        ..ServeConfig::default()
    }
}

/// Spawn `serve()` on an ephemeral port; returns (addr, join handle).
fn spawn_serve(
    server: Server,
    ecfg: EventConfig,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || temco_serve::serve(server, listener, ecfg));
    (addr, handle)
}

/// Parse one un-labeled metric value out of a Prometheus text scrape.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l[name.len() + 1..].trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from scrape"))
}

#[test]
fn event_plane_round_trip_matches_reference_and_shuts_down_cleanly() {
    let server = Server::new(tiny_mlp(), serve_cfg(1)).unwrap();
    let stats_handle = server.clone();
    let (addr, handle) = spawn_serve(server, EventConfig::default());

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.sample_shape(), &[1, 6]);
    assert_eq!(client.output_shape(), &[1, 3]);

    let mut reference = Engine::new(tiny_mlp()).unwrap();
    for seed in 0..4 {
        let sample = Tensor::rand_uniform(&[1, 6], seed, -1.0, 1.0);
        let got = client.infer(sample.data(), 0).unwrap();
        let want = reference.run(std::slice::from_ref(&sample)).unwrap();
        for (g, w) in got.iter().zip(want[0].data()) {
            assert!((g - w).abs() <= 1e-5, "wire result diverged: {g} vs {w}");
        }
    }

    // A mis-sized payload is a per-request error, not a dropped conn.
    let err = client.infer(&[0.0; 2], 0).unwrap_err();
    assert!(err.is_rejection(), "expected BAD_REQUEST, got {err:?}");
    assert!(client.infer(&[0.5; 6], 0).is_ok(), "connection survives a bad request");

    // Stats and metrics flow over the same connection.
    assert!(client.stats_text().unwrap().contains("conns"));
    let scrape = client.metrics_text().unwrap();
    assert!(metric(&scrape, "temco_conns_accepted_total") >= 1.0);
    assert!(metric(&scrape, "temco_open_conns") >= 1.0);

    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
    let snap = stats_handle.stats();
    assert_eq!(snap.completed, 5);
    assert!(snap.is_conserved_at_rest());
}

#[test]
fn a_thousand_concurrent_connections_do_not_cost_a_thousand_threads() {
    let threads_before = thread_count();
    let server = Server::new(tiny_mlp(), serve_cfg(1)).unwrap();
    let ecfg = EventConfig { max_conns: 1536, ..EventConfig::default() };
    let (addr, handle) = spawn_serve(server, ecfg);

    // Park 1050 open connections on the plane.
    let parked: Vec<TcpStream> = (0..1050).map(|_| TcpStream::connect(&addr).unwrap()).collect();

    // Work still flows while they sit there…
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        assert_eq!(client.infer(&[0.25; 6], 0).unwrap().len(), 3);
    }
    // …and the whole process grew by a constant number of threads
    // (serve loop + worker), not one per connection.
    let grown = thread_count().saturating_sub(threads_before);
    assert!(grown <= 8, "event plane spawned {grown} threads for 1050 connections");

    let scrape = client.metrics_text().unwrap();
    assert!(metric(&scrape, "temco_conns_accepted_total") >= 1051.0);
    assert!(metric(&scrape, "temco_open_conns") >= 1051.0);

    drop(parked);
    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
}

/// Threads in this process, from /proc/self/status.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

#[test]
fn flooding_client_cannot_starve_its_neighbour() {
    let server = Server::new(tiny_mlp(), serve_cfg(1)).unwrap();
    let ecfg = EventConfig { max_inflight: 4, ..EventConfig::default() };
    let (addr, handle) = spawn_serve(server, ecfg);

    // The flooder pipelines 400 requests without reading a byte back.
    // With max_inflight = 4 the plane stops reading it at 4 outstanding,
    // so it can occupy at most 4 pool slots no matter how fast it writes.
    let mut flood = TcpStream::connect(&addr).unwrap();
    let mut payload = vec![0u8; 4];
    proto::put_f32s(&mut payload, &[0.5; 6]);
    let mut framed = Vec::new();
    proto::write_frame(&mut framed, proto::op::INFER, &payload).unwrap();
    let burst: Vec<u8> = framed.repeat(400);
    flood.set_nonblocking(true).unwrap();
    let _ = flood.write(&burst); // fills the socket buffer, never blocks

    // The well-behaved neighbour must still be served, promptly.
    let mut client = Client::connect(&addr).unwrap();
    let t0 = Instant::now();
    for _ in 0..10 {
        assert_eq!(client.infer(&[0.25; 6], 0).unwrap().len(), 3);
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "neighbour starved behind the flooder: {:?}",
        t0.elapsed()
    );

    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn full_connection_table_refuses_not_queues() {
    let server = Server::new(tiny_mlp(), serve_cfg(1)).unwrap();
    let ecfg = EventConfig { max_conns: 2, ..EventConfig::default() };
    let (addr, handle) = spawn_serve(server, ecfg);

    // Slot 1: a real client (its INFO round trip proves registration).
    let mut client = Client::connect(&addr).unwrap();
    // Slot 2: parked.
    let _parked = TcpStream::connect(&addr).unwrap();
    // Third connection: accepted by the kernel, dropped by the plane.
    let mut refused = TcpStream::connect(&addr).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    assert_eq!(refused.read(&mut byte).unwrap_or(0), 0, "refused conn should see EOF");

    let scrape = client.metrics_text().unwrap();
    assert!(metric(&scrape, "temco_conns_refused_total") >= 1.0);

    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn idle_connections_are_reaped_by_the_sweep() {
    let server = Server::new(tiny_mlp(), serve_cfg(1)).unwrap();
    let ecfg = EventConfig { idle_timeout: Duration::from_millis(200), ..EventConfig::default() };
    let (addr, handle) = spawn_serve(server, ecfg);

    let mut idlers: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(&addr).unwrap()).collect();
    for s in &mut idlers {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    }
    // Wait past the timeout plus a sweep period: all three get closed.
    let mut byte = [0u8; 1];
    for s in &mut idlers {
        assert_eq!(s.read(&mut byte).unwrap_or(0), 0, "idle conn was not reaped");
    }

    // A fresh, active connection still works.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.infer(&[0.1; 6], 0).unwrap().len(), 3);
    let scrape = client.metrics_text().unwrap();
    assert!(metric(&scrape, "temco_conns_closed_idle_total") >= 3.0);

    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn warm_event_loop_turn_performs_zero_heap_allocations() {
    // Drive the loop from the test thread (no serve() thread) so the
    // counting allocator sees exactly the connection-plane hot path:
    // readiness wait → frame parse → dispatch → completion pump →
    // response flush. The single worker thread runs untracked — its own
    // zero-alloc property is covered by `zero_alloc_serve`.
    let server = Server::new(tiny_mlp(), serve_cfg(1)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut el = EventLoop::new(server.clone(), listener, EventConfig::default()).unwrap();

    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_nonblocking(true).unwrap();

    let mut payload = vec![0u8; 4];
    proto::put_f32s(&mut payload, &[0.5; 6]);
    let mut framed = Vec::new();
    proto::write_frame(&mut framed, proto::op::INFER, &payload).unwrap();

    // One full request/response over the loop; returns response bytes read.
    let mut resp = [0u8; 5 + 12]; // header + [1,3] f32 row
    let mut roundtrip = |el: &mut EventLoop, sock: &mut TcpStream, framed: &[u8]| {
        sock.write_all(framed).unwrap();
        let mut got = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while got < resp.len() {
            el.turn(20).unwrap();
            match sock.read(&mut resp[got..]) {
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("client read failed: {e}"),
            }
            assert!(Instant::now() < deadline, "no response after 10s");
        }
        assert_eq!(resp[4], 0, "expected OK status");
    };

    // Warm everything: accept path, the engine, pool, write buffers.
    for _ in 0..6 {
        roundtrip(&mut el, &mut sock, &framed);
    }

    // Measured: three warm round trips, zero allocations on this thread.
    TRACKING.with(|t| t.set(false));
    let before = TRACKED_ALLOCS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    for _ in 0..3 {
        roundtrip(&mut el, &mut sock, &framed);
    }
    TRACKING.with(|t| t.set(false));
    let allocs = TRACKED_ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "event-loop hot path allocated {allocs} times");

    server.shutdown();
}
