//! Observability overhead tracker: the same engine, traced and untraced,
//! written to `BENCH_obs.json`.
//!
//! The obs crate's pitch is that span recording is cheap enough to leave
//! on — two `Instant` reads and one ring write per node. This harness
//! holds it to that: ResNet-18 runs on the zero-alloc [`Engine`] with
//! tracing off and with a preallocated [`Recorder`] attached,
//! *interleaved* rep by rep (fig11-style) so thermal or scheduler drift
//! hits both sides equally, and the medians are compared. A third arm
//! times the serving path as a worker runs it: record into a ring on the
//! flight recorder's clock, then publish the ring to the shared flight
//! ring under one lock.
//!
//! The acceptance gate is `overhead_pct`: with `TEMCO_OBS_GATE_PCT` set
//! (as `scripts/check.sh` does), the run fails if the traced median
//! exceeds the untraced one by more than that percentage. Environment
//! knobs: `TEMCO_BENCH_OUT` (default `BENCH_obs.json`),
//! `TEMCO_BENCH_REPS` (interleaved pairs, default 15),
//! `TEMCO_IMAGE`/`TEMCO_BATCH` for the model config.

use std::io::Write as _;
use std::time::Instant;

use temco::{Compiler, OptLevel};
use temco_bench::harness_config;
use temco_models::ModelId;
use temco_obs::{batch_trace, FlightRecorder, Recorder};
use temco_runtime::{engine_report, Engine};
use temco_tensor::Tensor;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let reps: usize =
        std::env::var("TEMCO_BENCH_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(15);
    let reps = reps.max(3);
    let out_path = std::env::var("TEMCO_BENCH_OUT").unwrap_or_else(|_| "BENCH_obs.json".into());
    let gate_pct: Option<f64> =
        std::env::var("TEMCO_OBS_GATE_PCT").ok().and_then(|v| v.parse().ok());

    let cfg = harness_config(64, 1);
    let model = ModelId::Resnet18;
    let graph = {
        let base = model.build(&cfg);
        let (g, _) = Compiler::default().compile(&base, OptLevel::SkipOptFusion);
        g
    };
    let mut engine = Engine::new(graph).expect("model compiles");
    let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 17);
    let input = std::slice::from_ref(&x);
    let spans_per_run = engine.graph().nodes.len() + 1;
    let mut rec = Recorder::with_capacity(reps * spans_per_run + 16);
    // The always-on serving path, measured alongside as a third
    // interleaved arm so the BENCH file records what it actually costs.
    let flight = FlightRecorder::with_capacity((reps + 1) * spans_per_run + 16);
    let mut ring = flight.recorder(spans_per_run);

    // Warm up all three paths (first-touch, pack caches) before timing.
    engine.run(input).expect("warm-up");
    engine.run_recorded(input, &mut rec).expect("warm-up");
    engine.run_recorded(input, &mut ring).expect("warm-up");
    flight.publish(&mut ring, batch_trace(0));
    rec.clear();

    let mut off = Vec::with_capacity(reps);
    let mut on = Vec::with_capacity(reps);
    let mut fl = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        engine.run(input).expect("untraced run");
        off.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        engine.run_recorded(input, &mut rec).expect("traced run");
        on.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        engine.run_recorded(input, &mut ring).expect("flight run");
        flight.publish(&mut ring, batch_trace(rep as u32 + 1));
        fl.push(t0.elapsed().as_secs_f64());
    }
    let off_s = median(off);
    let on_s = median(on);
    let flight_s = median(fl);
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    let flight_overhead_pct = (flight_s / off_s - 1.0) * 100.0;
    let report = engine_report(engine.compiled(), &rec);

    println!(
        "{} e2e (batch {}, {}x{}, median of {reps} interleaved pairs):",
        model.name(),
        cfg.batch,
        cfg.image,
        cfg.image
    );
    println!(
        "  tracing off {off_s:.4}s, on {on_s:.4}s, overhead {overhead_pct:+.2}% \
         (coverage {:.3}, {} spans, {} dropped)",
        report.coverage(),
        report.runs * spans_per_run as u64,
        report.dropped_events
    );
    println!(
        "  flight ring {flight_s:.4}s, overhead {flight_overhead_pct:+.2}% \
         ({} ring events, {} dropped)",
        flight.total(),
        flight.read(Recorder::dropped)
    );

    let mut f = std::fs::File::create(&out_path).expect("create BENCH_obs.json");
    writeln!(f, "{{").unwrap();
    writeln!(f, "  \"model\": \"{}\",", model.name()).unwrap();
    writeln!(f, "  \"image\": {}, \"batch\": {}, \"reps\": {reps},", cfg.image, cfg.batch).unwrap();
    writeln!(f, "  \"off_s\": {off_s:.6},").unwrap();
    writeln!(f, "  \"on_s\": {on_s:.6},").unwrap();
    writeln!(f, "  \"overhead_pct\": {overhead_pct:.3},").unwrap();
    writeln!(f, "  \"flight_s\": {flight_s:.6},").unwrap();
    writeln!(f, "  \"flight_overhead_pct\": {flight_overhead_pct:.3},").unwrap();
    writeln!(f, "  \"coverage\": {:.4}", report.coverage()).unwrap();
    writeln!(f, "}}").unwrap();
    println!("wrote {out_path}");

    if let Some(gate) = gate_pct {
        if overhead_pct > gate {
            eprintln!("FAIL: tracing overhead {overhead_pct:.2}% exceeds the {gate:.1}% gate");
            std::process::exit(1);
        }
        println!("overhead gate: {overhead_pct:.2}% <= {gate:.1}% — ok");
    }
}
