//! Observability integration tests over real TCP: a request traceable
//! end to end through the connection plane's flight recorder, ring-wrap
//! drop accounting while concurrent readers race an active drain, and
//! parser-style Prometheus text-format conformance of the scrape.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use temco_ir::Graph;
use temco_obs::{find_complete_chain, parse_chrome_trace, SloSpec};
use temco_serve::{Client, EventConfig, ServeConfig, Server};
use temco_tensor::Tensor;

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

#[test]
fn dump_opcode_yields_a_request_traceable_end_to_end() {
    let server = Server::new(tiny_mlp(), serve_cfg(2)).unwrap();
    let (addr, handle) = spawn_serve(server, EventConfig::default());

    let mut client = Client::connect(&addr).unwrap();
    for seed in 0..8 {
        let sample = Tensor::rand_uniform(&[1, 6], seed, -1.0, 1.0);
        assert_eq!(client.infer(sample.data(), 0).unwrap().len(), 3);
    }

    // DUMP returns a chrome://tracing document the obs parser round-trips.
    let dump = client.dump_text().unwrap();
    let events = parse_chrome_trace(&dump).unwrap();
    let trace = find_complete_chain(&events)
        .expect("no request traceable end to end (accept→admit→queue→batch→reply + flows)");

    // The chain is stitched by flow events under the request's trace id,
    // and the dump names its lanes for the chrome UI.
    let id = trace.to_string();
    assert!(events.iter().any(|e| e.ph == "s" && e.id.as_deref() == Some(id.as_str())));
    assert!(events.iter().any(|e| e.ph == "f" && e.id.as_deref() == Some(id.as_str())));
    assert!(events.iter().any(|e| e.ph == "M" && e.name == "process_name"));
    assert!(events.iter().any(|e| e.ph == "M" && e.name == "thread_name"));
    // Engine node spans carry real node names, tagged with their batch.
    assert!(events.iter().any(|e| e.cat == "node" && e.name == "fc1"));

    // STATUS over the same connection shows the live picture.
    let status = client.status_text().unwrap();
    assert!(status.contains("temco-serve status"), "status page header missing:\n{status}");
    assert!(status.contains("shard[0]"), "per-shard queue depth missing:\n{status}");
    assert!(status.contains("flight recorder"), "recorder accounting missing:\n{status}");
    assert!(status.contains("slo "), "SLO spec line missing:\n{status}");

    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
}

/// `[len, capacity, total, dropped]` off a STATUS page's flight-recorder
/// line.
fn flight_accounting(status: &str) -> [u64; 4] {
    let line = status
        .lines()
        .find(|l| l.trim_start().starts_with("flight recorder"))
        .unwrap_or_else(|| panic!("recorder accounting missing from status:\n{status}"));
    let nums: Vec<u64> =
        line.split(|c: char| !c.is_ascii_digit()).filter_map(|w| w.parse().ok()).collect();
    nums.try_into().unwrap_or_else(|_| panic!("malformed recorder line: {line}"))
}

#[test]
fn tiny_flight_ring_wraps_with_exact_drop_accounting_under_concurrent_readers() {
    // A 32-event ring under hundreds of requests must wrap constantly.
    // Concurrent snapshot/dump readers — racing the workers, the eventfd
    // reply pump, and finally an active drain — must always observe a
    // consistent ring, and the drop accounting must balance exactly once
    // the server is at rest.
    let cfg = ServeConfig { flight_capacity: 32, ..serve_cfg(2) };
    let server = Server::new(tiny_mlp(), cfg).unwrap();
    let reader_handle = server.clone();
    let (addr, handle) = spawn_serve(server.clone(), EventConfig::default());

    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    // Reader thread: alternately attach a snapshot reader and the full
    // chrome dump path while traffic flows and, later, while the drain
    // races the reply pump.
    let reader = std::thread::spawn(move || {
        let mut reads = 0usize;
        while !stop2.load(Ordering::Relaxed) {
            let snap = reader_handle.flight().snapshot();
            assert!(snap.len() <= 32);
            for e in &snap {
                assert!(e.kind <= temco_obs::kind::EVENT, "corrupt span kind {}", e.kind);
            }
            if reads.is_multiple_of(4) {
                // The dump path re-reads the ring and renders JSON.
                assert!(parse_chrome_trace(&reader_handle.flight_dump_json()).is_ok());
            }
            reads += 1;
        }
        reads
    });

    let mut client = Client::connect(&addr).unwrap();
    let sample = Arc::new(Tensor::rand_uniform(&[1, 6], 7, -1.0, 1.0));
    for _ in 0..200 {
        assert_eq!(client.infer(sample.data(), 0).unwrap().len(), 3);
    }

    // STATUS reports the drop accounting while the ring is churning, and
    // every page agrees with itself: two more clients load the server
    // while this one scrapes.
    let loaders: Vec<_> = (0..2)
        .map(|_| {
            let (addr, sample) = (addr.clone(), sample.clone());
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                for _ in 0..200 {
                    assert_eq!(c.infer(sample.data(), 0).unwrap().len(), 3);
                }
            })
        })
        .collect();
    let mut pages = 0;
    while pages < 8 || !loaders.iter().all(|h| h.is_finished()) {
        let status = client.status_text().unwrap();
        let [len, cap, total, dropped] = flight_accounting(&status);
        assert_eq!(len + dropped, total, "STATUS disagrees with itself:\n{status}");
        assert!(len <= cap, "{status}");
        pages += 1;
    }
    for h in loaders {
        h.join().unwrap();
    }

    // Drain with the reader still attached: shutdown fan-out, worker
    // joins, and the reply pump all keep recording into the ring.
    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().unwrap();
    assert!(reads > 0, "reader thread never observed the ring");

    // At rest: drop-oldest accounting balances to the event.
    let (len, cap, total, dropped) =
        server.flight().read(|r| (r.len(), r.capacity(), r.total(), r.dropped()));
    assert_eq!(len, cap, "ring should be full after 600 requests");
    assert!(dropped > 0, "a 32-slot ring must have wrapped");
    assert_eq!(len as u64 + dropped, total);
    assert_eq!(server.stats().spans_dropped, dropped);
}

/// One parsed Prometheus sample: metric name, label set (sans `le`),
/// optional `le` value, sample value.
struct Sample {
    name: String,
    labels: String,
    le: Option<f64>,
    value: f64,
}

fn parse_sample(line: &str) -> Sample {
    let (name_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line}"));
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        v => v.parse().unwrap_or_else(|_| panic!("unparseable value in {line}")),
    };
    let (name, labels, le) = match name_labels.split_once('{') {
        None => (name_labels.to_string(), String::new(), None),
        Some((n, rest)) => {
            let body = rest.strip_suffix('}').unwrap_or_else(|| panic!("unclosed labels {line}"));
            let mut le = None;
            let kept: Vec<&str> = body
                .split(',')
                .filter(|kv| match kv.strip_prefix("le=\"") {
                    Some(v) => {
                        let v = v.strip_suffix('"').unwrap();
                        le = Some(if v == "+Inf" { f64::INFINITY } else { v.parse().unwrap() });
                        false
                    }
                    None => true,
                })
                .collect();
            (n.to_string(), kept.join(","), le)
        }
    };
    Sample { name, labels, le, value }
}

#[test]
fn prometheus_scrape_conforms_to_the_text_exposition_format() {
    let slo = SloSpec::parse("p99<250ms,err<1%,window=60s").unwrap();
    let cfg = ServeConfig { workers: 0, slo, ..serve_cfg(0) };
    let server = Server::new(tiny_mlp(), cfg).unwrap();
    let mut worker = server.manual_worker();

    // Light traffic so histograms and counters carry mass.
    for seed in 0..6 {
        let t = server.submit(Tensor::rand_uniform(&[1, 6], seed, -1.0, 1.0)).unwrap();
        worker.step();
        t.wait().unwrap();
    }
    // One rejection to populate a labeled counter and the SLO error path.
    server.shutdown();
    assert!(server.submit(Tensor::zeros(&[1, 6])).is_err());

    let text = server.prometheus_metrics();

    // Pass 1: HELP/TYPE bookkeeping. Each family must declare exactly one
    // HELP and one TYPE, both before its first sample.
    let mut help: BTreeMap<String, usize> = BTreeMap::new();
    let mut typ: BTreeMap<String, String> = BTreeMap::new();
    let family_of = |name: &str, typ: &BTreeMap<String, String>| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if typ.get(base).is_some_and(|t| t == "histogram") {
                    return base.to_string();
                }
            }
        }
        name.to_string()
    };
    let mut samples: Vec<(String, Sample)> = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, desc) = rest.split_once(' ').expect("HELP without text");
            assert!(!desc.trim().is_empty(), "empty HELP for {name}");
            *help.entry(name.to_string()).or_insert(0) += 1;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE without kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {name}"
            );
            assert!(
                typ.insert(name.to_string(), kind.to_string()).is_none(),
                "duplicate TYPE for {name}"
            );
        } else if line.starts_with('#') {
            panic!("unexpected comment line: {line}");
        } else {
            let s = parse_sample(line);
            let fam = family_of(&s.name, &typ);
            assert!(help.contains_key(&fam), "sample before HELP: {line}");
            assert!(typ.contains_key(&fam), "sample before TYPE: {line}");
            samples.push((fam, s));
        }
    }
    for (fam, n) in &help {
        assert_eq!(*n, 1, "family {fam} declared HELP {n} times");
        assert!(typ.contains_key(fam), "family {fam} has HELP but no TYPE");
    }

    // Pass 2: counters are monotone-compatible (finite, non-negative);
    // counter names end in _total by convention.
    for (fam, s) in &samples {
        if typ[fam] == "counter" {
            assert!(s.value >= 0.0 && s.value.is_finite(), "bad counter sample {}", s.name);
            assert!(fam.ends_with("_total"), "counter {fam} not named *_total");
        }
    }

    // Pass 3: histogram shape per (family, label set): cumulative buckets
    // in increasing le order, a +Inf bucket equal to _count, and a _sum.
    let mut series: BTreeMap<(String, String), Vec<&Sample>> = BTreeMap::new();
    for (fam, s) in &samples {
        if typ[fam] == "histogram" {
            series.entry((fam.clone(), s.labels.clone())).or_default().push(s);
        }
    }
    assert!(!series.is_empty(), "no histograms in scrape");
    for ((fam, labels), group) in &series {
        let buckets: Vec<&&Sample> = group.iter().filter(|s| s.name.ends_with("_bucket")).collect();
        assert!(!buckets.is_empty(), "{fam}{{{labels}}} has no buckets");
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_cum = 0.0;
        for b in &buckets {
            let le = b.le.expect("bucket without le");
            assert!(le > prev_le, "{fam} buckets not in increasing le order");
            assert!(b.value >= prev_cum, "{fam} buckets not cumulative");
            prev_le = le;
            prev_cum = b.value;
        }
        let inf = buckets.last().unwrap();
        assert_eq!(inf.le, Some(f64::INFINITY), "{fam} missing +Inf bucket");
        let count = group
            .iter()
            .find(|s| s.name.ends_with("_count"))
            .unwrap_or_else(|| panic!("{fam} missing _count"));
        let sum = group
            .iter()
            .find(|s| s.name.ends_with("_sum"))
            .unwrap_or_else(|| panic!("{fam} missing _sum"));
        assert_eq!(inf.value, count.value, "{fam} +Inf bucket != _count");
        assert!(sum.value.is_finite(), "{fam} _sum not finite");
    }

    // The metrics the observability plane promises are all present.
    for metric in [
        "temco_spans_dropped_total",
        "temco_requests_rejected_total",
        "temco_request_latency_seconds",
        "temco_queue_wait_seconds",
        "temco_service_time_seconds",
        "temco_slo_burn_rate",
        "temco_slo_budget_spent",
        "temco_slo_budget_spend_by_cause",
        "temco_worker_queue_depth",
        "temco_batch_size",
    ] {
        assert!(help.contains_key(metric), "promised metric {metric} missing from scrape");
    }
    // The labeled families carry their expected label keys.
    assert!(samples
        .iter()
        .any(|(f, s)| f == "temco_slo_burn_rate" && s.labels.contains("window=\"60s\"")));
    assert!(samples
        .iter()
        .any(|(f, s)| f == "temco_requests_rejected_total" && s.labels.contains("cause=")));
}
