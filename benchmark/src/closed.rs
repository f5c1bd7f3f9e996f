//! `cnn_b1`, `unet_b4`, `encoder_b8`: one caller thread running
//! `Engine::run` in a closed loop.

use std::time::{Duration, Instant};

use temco_obs::{kind, Recorder};
use temco_runtime::{engine_report, op_label, Engine};
use temco_tensor::Tensor;

use crate::layers::{self, Static};
use crate::measure::{self, Bytes, Round};
use crate::prepare::{build, compile, thrice, Counts, Prepared};
use crate::reference::{canary, close, reference_outputs, seeded_inputs, Golden};
use crate::report::{Metrics, Outcome};
use crate::span::{Spans, SETUP_OP, TRACE_OPS_KEPT};
use crate::workload::{Model, Workload};
use crate::Args;

/// Distinct seeded inputs the loop cycles through.
const INPUTS: usize = 8;
const WARMUP_RUNS: usize = 5;
/// Upper bound on engine node spans kept for the traced phase (32 B each).
const NODE_SPAN_CAP: usize = 1 << 20;

/// The loop's inputs with the reference output of each.
struct Cases {
    inputs: Vec<Tensor>,
    wanted: Vec<Tensor>,
    next: usize,
}

/// One round: `run_op` runs the engine on an input and returns the op's
/// latency in seconds and whether its output matched the reference.
fn round(
    w: &Workload,
    cases: &mut Cases,
    mut run_op: impl FnMut(&Tensor, &Tensor) -> (f64, bool),
) -> Round {
    let mut r = Round::default();
    let begin = Instant::now();
    for _ in 0..w.round_ops {
        let i = cases.next % cases.inputs.len();
        cases.next += 1;
        let (latency, correct) = run_op(&cases.inputs[i], &cases.wanted[i]);
        r.record(w, latency, correct);
    }
    r.wall_s = begin.elapsed().as_secs_f64();
    r
}

fn plain_op(engine: &mut Engine, x: &Tensor, want: &Tensor) -> (f64, bool) {
    let t = Instant::now();
    let out = engine.run(std::slice::from_ref(x));
    let latency = t.elapsed().as_secs_f64();
    (latency, out.is_ok_and(|o| close(o[0].data(), want.data())))
}

/// Rounds until `budget` has passed (at least one).
fn rounds_for(budget: Duration, mut one: impl FnMut() -> Round) -> Vec<Round> {
    let begin = Instant::now();
    let mut rounds = vec![one()];
    while begin.elapsed() < budget {
        rounds.push(one());
    }
    rounds
}

/// The traced phase: every op runs through `Engine::run_recorded` inside a
/// span of the benchmark's own, and the engine's node spans are joined to
/// the plan by `engine_report`.
fn traced(
    m: &mut Metrics,
    spans: &mut Spans,
    w: &Workload,
    engine: &mut Engine,
    cases: &mut Cases,
    budget: Duration,
    flops: u64,
) -> Vec<Round> {
    let nodes = engine.graph().nodes.len() + 1;
    let mut rec = Recorder::with_capacity(NODE_SPAN_CAP);
    // Both clocks count from their own epoch; read them back to back once.
    let clock_offset = spans.now_ns() as i64 - rec.now_ns() as i64;
    let mut op = 0u64;
    let mut kept_parents = Vec::new();
    let rounds = rounds_for(budget, || {
        round(w, cases, |x, want| {
            op += 1;
            let span = (op <= TRACE_OPS_KEPT).then(|| spans.enter("runtime.run", op));
            let t = Instant::now();
            let out = engine.run_recorded(std::slice::from_ref(x), &mut rec);
            let latency = t.elapsed().as_secs_f64();
            if let Some(id) = span {
                spans.exit(id);
                kept_parents.push(id);
            }
            (latency, out.is_ok_and(|o| close(o[0].data(), want.data())))
        })
    });

    // The ring holds the newest spans; the kept ops are the oldest, so they
    // can be attributed only if nothing was dropped before them.
    if rec.dropped() == 0 {
        let g = engine.graph();
        let mut events = rec.iter();
        for (k, parent) in kept_parents.iter().enumerate() {
            let of_op: Vec<_> = events.by_ref().take(nodes).collect();
            let run =
                of_op.last().filter(|e| e.kind == kind::RUN).expect("a run ends in its RUN span");
            let at = |ns: u64| (ns as i64 + clock_offset) as u64;
            let run_id = spans.len();
            spans.add(
                "runtime.engine_run",
                k as u64 + 1,
                Some(*parent),
                at(run.start_ns),
                at(run.start_ns + run.dur_ns),
            );
            for e in of_op.iter().filter(|e| e.kind == kind::NODE) {
                let name = format!("tensor.{}", op_label(&g.nodes[e.node as usize].op));
                spans.add(
                    &name,
                    k as u64 + 1,
                    Some(run_id),
                    at(e.start_ns),
                    at(e.start_ns + e.dur_ns),
                );
            }
        }
    }

    let report = engine_report(engine.compiled(), &rec);
    let runs = report.runs.max(1);
    let kernel_us = layers::kernel_rollup(
        m,
        report.rollup_by_op().iter().map(|r| (r.op.as_str(), r.total_ns)),
        runs,
        flops,
    );
    let latencies: Vec<f64> = rounds.iter().flat_map(|r| r.latencies.iter().copied()).collect();
    let wall_us = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64 * 1e6;
    m.set("runtime.run_wall_us", wall_us);
    m.set("runtime.kernel_us", kernel_us);
    m.set("runtime.dispatch_us", wall_us - kernel_us);
    m.set("obs.spans_recorded", (spans.len() as u64 + rec.len() as u64 + rec.dropped()) as f64);
    m.set("obs.spans_dropped", rec.dropped() as f64);
    rounds
}

pub fn run(w: &Workload, model: Model, args: &Args, spans: &mut Spans) -> Outcome {
    let ((source, prepared, mut engine), setup_seconds) = thrice(spans, |spans, by_pass| {
        let source = build(spans, &model);
        let prepared = compile(spans, &model, &source, by_pass, SETUP_OP);
        let mut engine = spans.scope("runtime.engine_new", SETUP_OP, |_| {
            Engine::from_compiled(prepared.compiled.clone())
        });
        let x = canary(&source);
        spans.scope("warmup", SETUP_OP, |_| {
            for _ in 0..WARMUP_RUNS {
                engine.run(std::slice::from_ref(&x)).expect("warm-up run");
            }
        });
        let counts = vec![Counts::of(&prepared.compiled)];
        ((source, prepared, engine), counts)
    });
    let Prepared { decomposed, compiled, stats, plan_violations } = prepared;
    let decomposed = decomposed.expect("the kept set-up compiled pass by pass");

    // Correctness anchors: golden file ≈ reference executor ≈ engine, all on
    // the canary; then the reference executor on this run's seeded inputs.
    let golden = Golden::load(&args.dir, w.name).unwrap_or_else(|e| crate::die(&e));
    let x = canary(&source);
    let want = reference_outputs(&decomposed, std::slice::from_ref(&x));
    let got = engine.run(std::slice::from_ref(&x)).expect("canary run");
    let golden_ok = golden.matches(model.name(), &want[0]) && golden.matches(model.name(), &got[0]);
    if !golden_ok {
        eprintln!("{}: canary output differs from golden/{}.txt", w.name, w.name);
    }
    let inputs = seeded_inputs(&source, args.seed, INPUTS);
    let wanted = reference_outputs(&decomposed, &inputs);
    let mut cases = Cases { inputs, wanted, next: 0 };

    let mut m = Metrics::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let rounds = if args.trace {
        let mut statics = Static::default();
        statics.add(&source, &stats, &compiled, plan_violations);
        statics.add_decomposed(&decomposed);
        let plain = rounds_for(budget / 2, || {
            round(w, &mut cases, |x, want| plain_op(&mut engine, x, want))
        });
        let traced = traced(&mut m, spans, w, &mut engine, &mut cases, budget / 2, statics.flops());
        let overhead = measure::throughput(&plain) / measure::throughput(&traced) - 1.0;
        m.set("obs.trace_overhead_pct", overhead * 100.0);
        layers::probes(&mut m, spans, compiled.graph());
        layers::setup_times(&mut m, spans);
        statics.report(&mut m);
        plain.into_iter().chain(traced).collect()
    } else {
        let rounds =
            rounds_for(budget, || round(w, &mut cases, |x, want| plain_op(&mut engine, x, want)));
        let mut bytes = Bytes::default();
        bytes.add(&compiled, compiled.slab_bytes());
        measure::end_to_end(&mut m, w, &rounds, &setup_seconds, &bytes);
        rounds
    };

    let failed = measure::failed(&rounds);
    let attempted = measure::attempted(&rounds);
    if args.trace {
        m.set("check.failed_frac", failed as f64 / attempted as f64);
        // No server runs here, so no request can have gone missing, and no
        // load generator that could have fallen behind.
        m.set("serve.conserved", 1.0);
        m.set("gen.valid", 1.0);
    }
    Outcome {
        attempted,
        failed,
        correct: failed == 0 && golden_ok && plan_violations == 0,
        metrics: m,
    }
}
