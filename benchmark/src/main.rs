//! One benchmark for the whole TeMCO stack. See `benchmark/README.md`.
//!
//! `temco-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints one JSON result line; without `--workload`
//! it runs every workload, untraced then traced, each in a process of its
//! own, and writes `benchmark/out/results.json`.

mod aa;
mod closed;
mod layers;
mod measure;
mod open;
mod prepare;
mod reference;
mod report;
mod span;
mod stats;
mod workload;
mod zoo;

use std::path::PathBuf;
use std::process::ExitCode;

use temco::{Compiler, OptLevel};

use report::Declared;
use span::Spans;
use workload::{Kind, Model, Workload, WORKLOADS, ZOO};

pub struct Args {
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    pub trace: bool,
    /// The benchmark's own directory, relative to the repo root.
    pub dir: PathBuf,
}

pub fn die(message: &str) -> ! {
    eprintln!("temco-benchmark: {message}");
    std::process::exit(1);
}

fn models_of(w: &Workload) -> Vec<Model> {
    match w.kind {
        Kind::Closed { model } | Kind::Open { model, .. } => vec![model],
        Kind::CompileZoo => ZOO.to_vec(),
    }
}

/// Regenerate `golden/<workload>.txt` from the reference executor: the
/// per-node executor on the graph `Compiler::compile` gives at `Decomposed`.
fn write_golden(args: &Args) -> std::io::Result<()> {
    for w in &WORKLOADS {
        let outputs: Vec<_> = models_of(w)
            .iter()
            .map(|model| {
                let source = model.build();
                let compiler = Compiler::new(model.compiler_options());
                let (decomposed, _) = compiler.compile(&source, OptLevel::Decomposed);
                let x = reference::canary(&source);
                let mut out = reference::reference_outputs(&decomposed, std::slice::from_ref(&x));
                (model.name(), out.remove(0))
            })
            .collect();
        let by_ref: Vec<_> = outputs.iter().map(|(name, out)| (*name, out)).collect();
        reference::write_golden(&args.dir, w.name, &by_ref)?;
        eprintln!("wrote golden/{}.txt", w.name);
    }
    Ok(())
}

fn run_one(declared: &Declared, w: &Workload, args: &Args) -> Result<String, String> {
    let mut spans = Spans::new();
    let outcome = match w.kind {
        Kind::Closed { model } => closed::run(w, model, args, &mut spans),
        Kind::CompileZoo => zoo::run(w, args, &mut spans),
        Kind::Open { model, rate_rps, max_inflight, deadline_ms } => {
            open::run(w, (model, rate_rps, max_inflight, deadline_ms), args, &mut spans)
        }
    };
    if args.trace {
        let out = args.dir.join("out");
        std::fs::create_dir_all(&out)
            .and_then(|()| {
                std::fs::write(out.join(format!("trace-{}.json", w.name)), spans.chrome_trace())
            })
            .map_err(|e| format!("cannot write the trace: {e}"))?;
    }
    report::result_line(declared, args.trace, &outcome)
}

fn main() -> ExitCode {
    let mut args = Args { seed: 1, seconds: 0.0, trace: false, dir: PathBuf::from("benchmark") };
    let mut workload = None;
    let mut golden = false;
    let mut aa_runs = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let number = |v: String| {
            v.parse::<f64>().unwrap_or_else(|_| die(&format!("{flag}: {v:?} is not a number")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| die("--seed takes a whole number"))
            }
            "--seconds" => args.seconds = number(value()),
            "--trace" => args.trace = number(value()) != 0.0,
            "--aa" => aa_runs = Some(number(value()) as usize),
            "--write-golden" => golden = true,
            other => die(&format!("unknown argument {other}")),
        }
    }
    let declared = Declared::load().unwrap_or_else(|e| die(&e));
    if args.seconds <= 0.0 {
        args.seconds = declared.run_seconds as f64;
    }
    if golden {
        return match write_golden(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => die(&format!("cannot write golden files: {e}")),
        };
    }
    if let Some(runs) = aa_runs {
        return aa::a_a(&declared, &args, runs);
    }
    let Some(name) = workload else {
        return aa::all(&declared, &args);
    };
    if !declared.workloads.contains(&name) {
        die(&format!("workload {name} is not declared in BENCHMARK.json"));
    }
    let w = workload::find(&name).unwrap_or_else(|| die(&format!("unknown workload {name}")));
    match run_one(&declared, w, &args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => die(&e),
    }
}
