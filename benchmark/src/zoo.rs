//! `compile_zoo`: an op compiles, plans and checks one model; a round is one
//! pass over the zoo, so `throughput_ops_s` is models per second.
//! Kernels and `serve` are idle; `linalg`, `decomp` and `core` do the work.

use std::time::{Duration, Instant};

use temco_ir::Graph;
use temco_runtime::Engine;

use crate::layers::{self, Static};
use crate::measure::{self, Bytes, Round};
use crate::prepare::{build, compile, thrice, Counts};
use crate::reference::{canary, Golden};
use crate::report::{Metrics, Outcome};
use crate::span::Spans;
use crate::workload::{Workload, ZOO};
use crate::Args;

/// What one pass leaves behind once its compiled graphs are dropped.
struct Pass {
    /// Seconds each model took to compile, plan and check, in `ZOO` order.
    seconds: Vec<f64>,
    counts: Vec<Counts>,
    bytes: Bytes,
    statics: Static,
    /// Per model: its plan held the invariants and its compiled graph gave
    /// the golden output on the canary.
    verified: Vec<bool>,
}

fn pass(spans: &mut Spans, sources: &[Graph], golden: &Golden, by_pass: bool, op: u64) -> Pass {
    let mut p = Pass {
        seconds: Vec::new(),
        counts: Vec::new(),
        bytes: Bytes::default(),
        statics: Static::default(),
        verified: Vec::new(),
    };
    for (model, source) in ZOO.iter().zip(sources) {
        let t = Instant::now();
        let prepared = compile(spans, model, source, by_pass, op);
        p.seconds.push(t.elapsed().as_secs_f64());

        let mut engine = Engine::from_compiled(prepared.compiled.clone());
        let x = canary(source);
        let ran = engine.run(std::slice::from_ref(&x));
        p.verified.push(
            prepared.plan_violations == 0
                && ran.is_ok_and(|out| golden.matches(model.name(), &out[0])),
        );
        p.counts.push(Counts::of(&prepared.compiled));
        p.bytes.add(&prepared.compiled, prepared.compiled.slab_bytes());
        p.statics.add(source, &prepared.stats, &prepared.compiled, prepared.plan_violations);
        if let Some(d) = &prepared.decomposed {
            p.statics.add_decomposed(d);
        }
    }
    p
}

pub fn run(w: &Workload, args: &Args, spans: &mut Spans) -> Outcome {
    let (sources, setup_seconds) = thrice(spans, |spans, _| {
        let sources: Vec<Graph> = ZOO.iter().map(|model| build(spans, model)).collect();
        (sources, Vec::new())
    });
    let golden = Golden::load(&args.dir, w.name).unwrap_or_else(|e| crate::die(&e));

    // A round is one pass over the zoo, an op one model. Passes until the
    // budget is spent, and never fewer than two, so that every model's
    // counts are seen to repeat. A traced run compiles every second pass one
    // public pass at a time.
    let budget = Duration::from_secs_f64(args.seconds);
    let begin = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    while passes.len() < 2 || begin.elapsed() < budget {
        let by_pass = args.trace && passes.len() % 2 == 1;
        let t = Instant::now();
        let p = pass(spans, &sources, &golden, by_pass, passes.len() as u64 + 1);
        let mut r = Round::default();
        for (i, (seconds, verified)) in p.seconds.iter().zip(&p.verified).enumerate() {
            let repeats = passes.first().is_none_or(|first| first.counts[i] == p.counts[i]);
            if !repeats {
                eprintln!("{}: compile is not deterministic: {:?}", ZOO[i].name(), p.counts[i]);
            }
            r.record(w, *seconds, *verified && repeats);
        }
        r.wall_s = t.elapsed().as_secs_f64();
        rounds.push(r);
        passes.push(p);
    }

    let mut m = Metrics::default();
    let failed = measure::failed(&rounds);
    let attempted = measure::attempted(&rounds);
    if args.trace {
        let mean_seconds = |traced: usize| {
            let of_kind: Vec<f64> =
                passes.iter().skip(traced).step_by(2).map(|p| p.seconds.iter().sum()).collect();
            of_kind.iter().sum::<f64>() / of_kind.len() as f64
        };
        m.set("obs.trace_overhead_pct", (mean_seconds(1) / mean_seconds(0) - 1.0) * 100.0);
        m.set("obs.spans_recorded", spans.len() as f64);
        layers::probes(&mut m, spans, &sources[0]);
        layers::setup_times(&mut m, spans);
        passes[1].statics.report(&mut m);
        m.set("check.failed_frac", failed as f64 / attempted as f64);
        // No server runs here, so no request can have gone missing, and no
        // load generator that could have fallen behind.
        m.set("serve.conserved", 1.0);
        m.set("gen.valid", 1.0);
    } else {
        measure::end_to_end(&mut m, w, &rounds, &setup_seconds, &passes[0].bytes);
    }
    Outcome { attempted, failed, correct: failed == 0, metrics: m }
}
