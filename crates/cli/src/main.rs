//! `temco` — command-line front end for the TeMCO compiler.
//!
//! ```text
//! temco list
//! temco compile vgg16 --level skip-opt+fusion --ratio 0.1 --image 224 --batch 4
//! temco run unet_small --level fusion --image 64
//! temco dot resnet18 --level skip-opt+fusion > resnet18.dot
//! temco profile resnet34 --level skip-opt+fusion --trace resnet34.trace.json
//! temco serve alexnet --addr 127.0.0.1:7077 --workers 4 --max-batch 8 --max-conns 2048
//! temco loadgen --addr 127.0.0.1:7077 --clients 8 --requests 64 --shutdown
//! ```

use std::process::ExitCode;
use std::time::Duration;

use temco::{compare_outputs, Compiler, CompilerOptions, DecomposeOptions, Method, OptLevel};
use temco_models::{EncoderId, ModelConfig, ModelId};
use temco_runtime::{
    execute, plan_allocation, plan_allocation_with_mode, plan_memory, AliasMode, ExecOptions,
};
use temco_tensor::Tensor;

/// Parsed command-line options.
struct Cli {
    command: String,
    model: Option<ModelId>,
    encoder: Option<EncoderId>,
    level: OptLevel,
    method: Method,
    ratio: f64,
    budget: f64,
    image: usize,
    batch: usize,
    classes: usize,
    reschedule: bool,
    save: Option<String>,
    addr: String,
    workers: usize,
    max_batch: usize,
    max_delay_ms: u64,
    queue_cap: usize,
    max_conns: usize,
    idle_timeout_ms: u64,
    clients: usize,
    requests: usize,
    deadline_ms: u32,
    shutdown: bool,
    iters: usize,
    seed: u64,
    seed_set: bool,
    faults: usize,
    reps: usize,
    reps_set: bool,
    trace: Option<String>,
    metrics: bool,
    db: Option<String>,
    trials: usize,
    smoke: bool,
    shapes: bool,
    flight_recorder: Option<String>,
    slo: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "temco — Tensor Memory Compiler Optimization

USAGE:
  temco list                          list the 10 zoo models
  temco compile <model> [opts]        compile and print memory/pass report
  temco run <model> [opts]            compile, execute, and verify semantics
  temco dot <model> [opts]            emit the optimized graph as Graphviz DOT
  temco plan <model> [opts]           alias-aware allocation plan vs the alias-free layout
  temco info <model.temco>            describe a saved .temco model file
  temco profile <model> [opts]        per-node kernel timing + slab attribution
  temco serve <model> [opts]          serve the model over TCP (dynamic batching)
  temco loadgen [opts]                closed-loop load against a serve instance
  temco slo [opts]                    evaluate a load run against an SLO (CI gate)
  temco check [opts]                  differential + fault-injection harness
  temco tune <model|--shapes> [opts]  search kernel schedules, persist winners
  temco encoder [tiny|small|base]     compress a transformer encoder, verify it end to end

OPTIONS:
  --level <decomposed|fusion|skip-opt|skip-opt+fusion>   (default: skip-opt+fusion)
  --method <tucker|cp|tt>                                (default: tucker)
  --ratio <f64>        decomposition ratio               (default: 0.1)
  --image <n>          input resolution                  (default: 64)
  --batch <n>          batch size                        (default: 4)
  --classes <n>        classifier width                  (default: 1000)
  --reschedule         apply the memory-aware scheduler
  --save <path>        (compile) write the optimized model as .temco

PROFILE OPTIONS:
  --reps <n>           recorded inference repetitions    (default: 10)
  --trace <path>       write spans as chrome://tracing JSON
  --db <path>          compile with schedules from this tuning DB

TUNE OPTIONS:
  --shapes             tune the built-in hot-shape suite instead of a model
  --trials <n>         candidate schedules per shape group (default: 8)
  --seed <n>           search seed                        (default: 42)
  --reps <n>           timed runs per candidate, median   (default: 3)
  --db <path>          tuning database to read and write  (default: temco-tune.db)
  --smoke              fast deterministic self-check (CI gate)

SERVE OPTIONS:
  --addr <host:port>   bind/connect address              (default: 127.0.0.1:7077)
  --workers <n>        serving worker threads            (default: 2)
  --max-batch <n>      largest coalesced batch           (default: 8)
  --max-delay-ms <n>   batching window, milliseconds     (default: 2)
  --queue-cap <n>      bounded per-worker queue capacity (default: 128)
  --max-conns <n>      concurrent-connection table size  (default: 1024)
  --idle-timeout-ms <n> reap idle connections after this (default: 60000)
  --metrics            print the final Prometheus scrape on exit
  --slo <spec>         declared SLO, e.g. p99<50ms,err<1%,window=60s
  --flight-recorder <path>  write the flight recorder as chrome JSON on exit

LOADGEN OPTIONS:
  --clients <n>        concurrent closed-loop clients    (default: 4)
  --requests <n>       requests per client               (default: 64)
  --deadline-ms <n>    per-request deadline, 0 = none    (default: 0)
  --shutdown           send SHUTDOWN to the server afterwards
  --metrics            print the server's Prometheus scrape afterwards

SLO OPTIONS:
  --slo <spec>         spec to gate on (default: p99<250ms,err<1%,window=60s)
  --addr <host:port>   server to load and evaluate
  --smoke              self-contained gate: serve a tiny model in-process,
                       drive load, verify an end-to-end trace chain from the
                       flight recorder, and evaluate the spec
  (loadgen flags --clients/--requests/--deadline-ms/--shutdown apply too)

CHECK OPTIONS:
  --iters <n>          differential seeds to sweep       (default: 25)
  --seed <n>           first seed of the sweep           (default: 0)
  --faults <n>         fault-injection episodes, 0 = off (default: 10000)

ENCODER OPTIONS:
  --ratio <f64>        rank ratio for the matrix selector (default: 0.1)
  --budget <f64>       relative-error budget per layer    (default: 1.0)
  --smoke              pinned tiny-encoder CI gate (ignores other flags)"
    );
    std::process::exit(2)
}

/// Named argument error: say what was wrong, then the usage block.
fn arg_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}\n");
    usage()
}

fn parse_args() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut cli = Cli {
        command: args[0].clone(),
        model: None,
        encoder: None,
        level: OptLevel::SkipOptFusion,
        method: Method::Tucker,
        ratio: 0.1,
        budget: 1.0,
        image: 64,
        batch: 4,
        classes: 1000,
        reschedule: false,
        save: None,
        addr: "127.0.0.1:7077".to_string(),
        workers: 2,
        max_batch: 8,
        max_delay_ms: 2,
        queue_cap: 128,
        max_conns: 1024,
        idle_timeout_ms: 60_000,
        clients: 4,
        requests: 64,
        deadline_ms: 0,
        shutdown: false,
        iters: 25,
        seed: 0,
        seed_set: false,
        faults: 10_000,
        reps: 10,
        reps_set: false,
        trace: None,
        metrics: false,
        db: None,
        trials: 8,
        smoke: false,
        shapes: false,
        flight_recorder: None,
        slo: None,
    };
    let mut i = 1;
    // `info` takes a file path, not a model name; `loadgen` and `check`
    // take neither; `encoder` takes an encoder family member.
    if cli.command == "encoder" {
        if i < args.len() && !args[i].starts_with("--") {
            cli.encoder = match args[i].as_str() {
                "tiny" | "encoder_tiny" => Some(EncoderId::EncoderTiny),
                "small" | "encoder_small" => Some(EncoderId::EncoderSmall),
                "base" | "encoder_base" => Some(EncoderId::EncoderBase),
                other => arg_error(format_args!("unknown encoder '{other}' (tiny|small|base)")),
            };
            i += 1;
        }
    } else if !matches!(cli.command.as_str(), "info" | "loadgen" | "check" | "slo")
        && i < args.len()
        && !args[i].starts_with("--")
    {
        cli.model = ModelId::all().into_iter().find(|m| m.name() == args[i]);
        if cli.model.is_none() {
            cli.encoder = EncoderId::all().into_iter().find(|e| e.name() == args[i]);
        }
        if cli.model.is_none() && cli.encoder.is_none() {
            eprintln!("unknown model '{}' — try `temco list`", args[i]);
            std::process::exit(2);
        }
        i += 1;
    } else if cli.command == "info" {
        i += 1; // the path is re-read in main
    }
    while i < args.len() {
        let flag = args[i].as_str();
        // A flag's value is the next argument; a missing one is a named
        // error (not a panic, not a silent reuse of the next flag).
        let value = |i: &mut usize| -> String {
            *i += 1;
            match args.get(*i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => arg_error(format_args!("flag '{flag}' requires a value")),
            }
        };
        match flag {
            "--level" => {
                cli.level = match value(&mut i).as_str() {
                    "decomposed" => OptLevel::Decomposed,
                    "fusion" => OptLevel::Fusion,
                    "skip-opt" => OptLevel::SkipOpt,
                    "skip-opt+fusion" => OptLevel::SkipOptFusion,
                    other => {
                        eprintln!("unknown level '{other}'");
                        std::process::exit(2);
                    }
                }
            }
            "--method" => cli.method = value(&mut i).parse().unwrap_or_else(|e| arg_error(e)),
            "--ratio" => cli.ratio = parse_ratio(&value(&mut i)).unwrap_or_else(|e| arg_error(e)),
            "--budget" => cli.budget = parse_value(flag, &value(&mut i)),
            "--image" => cli.image = parse_value(flag, &value(&mut i)),
            "--batch" => cli.batch = parse_value(flag, &value(&mut i)),
            "--classes" => cli.classes = parse_value(flag, &value(&mut i)),
            "--reschedule" => cli.reschedule = true,
            "--save" => cli.save = Some(value(&mut i)),
            "--addr" => cli.addr = value(&mut i),
            "--workers" => cli.workers = parse_value(flag, &value(&mut i)),
            "--max-batch" => cli.max_batch = parse_value(flag, &value(&mut i)),
            "--max-delay-ms" => cli.max_delay_ms = parse_value(flag, &value(&mut i)),
            "--queue-cap" => cli.queue_cap = parse_value(flag, &value(&mut i)),
            "--max-conns" => cli.max_conns = parse_value(flag, &value(&mut i)),
            "--idle-timeout-ms" => cli.idle_timeout_ms = parse_value(flag, &value(&mut i)),
            "--clients" => cli.clients = parse_value(flag, &value(&mut i)),
            "--requests" => cli.requests = parse_value(flag, &value(&mut i)),
            "--deadline-ms" => cli.deadline_ms = parse_value(flag, &value(&mut i)),
            "--shutdown" => cli.shutdown = true,
            "--iters" => cli.iters = parse_value(flag, &value(&mut i)),
            "--seed" => {
                cli.seed = parse_value(flag, &value(&mut i));
                cli.seed_set = true;
            }
            "--faults" => cli.faults = parse_value(flag, &value(&mut i)),
            "--reps" => {
                cli.reps = parse_value(flag, &value(&mut i));
                cli.reps_set = true;
            }
            "--trace" => cli.trace = Some(value(&mut i)),
            "--metrics" => cli.metrics = true,
            "--db" => cli.db = Some(value(&mut i)),
            "--trials" => cli.trials = parse_value(flag, &value(&mut i)),
            "--smoke" => cli.smoke = true,
            "--shapes" => cli.shapes = true,
            "--flight-recorder" => cli.flight_recorder = Some(value(&mut i)),
            "--slo" => cli.slo = Some(value(&mut i)),
            _ => arg_error(format_args!("unknown flag '{flag}'")),
        }
        i += 1;
    }
    cli
}

/// Parse a flag's value, naming the flag on failure.
fn parse_value<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    parse_flag(flag, raw, |_: &T| true).unwrap_or_else(|e| arg_error(e))
}

/// Parse a flag's value and accept it only if `valid`; the error names the
/// flag.
fn parse_flag<T: std::str::FromStr>(
    flag: &str,
    raw: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    raw.parse().ok().filter(valid).ok_or_else(|| format!("invalid value '{raw}' for '{flag}'"))
}

/// A decomposition ratio: a number in (0, 1], the domain of the rank policy.
fn parse_ratio(raw: &str) -> Result<f64, String> {
    parse_flag("--ratio", raw, |r: &f64| *r > 0.0 && *r <= 1.0)
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A deterministic input matching the graph's first input shape — works for
/// 4-D CNN images and rank-3 transformer token tensors alike.
fn input_for(g: &temco_ir::Graph) -> Tensor {
    Tensor::randn(g.shape(g.inputs[0]), 7)
}

/// Resolve the positional model argument — CNN zoo member or transformer
/// encoder — into a built graph and its display name. Encoders build at
/// their pinned family configuration (the image/batch flags are CNN-only).
fn build_model(cli: &Cli, cfg: &ModelConfig) -> Option<(temco_ir::Graph, &'static str)> {
    match (cli.model, cli.encoder) {
        (Some(m), _) => Some((m.build(cfg), m.name())),
        (None, Some(e)) => Some((e.build(&e.config()), e.name())),
        _ => None,
    }
}

/// Render a graph's first input shape for report headers.
fn input_shape_str(g: &temco_ir::Graph) -> String {
    format!("{:?}", g.shape(g.inputs[0]))
}

/// The self-contained `temco slo --smoke` gate: serve a tiny MLP behind
/// the event-driven connection plane on an ephemeral port, drive a
/// closed-loop load through it, verify the STATUS page and that at least
/// one request is traceable end to end through the flight recorder's
/// chrome dump, then hand the load report back for spec evaluation.
fn slo_smoke(
    spec: temco_obs::SloSpec,
    lg: temco_serve::LoadgenConfig,
) -> Result<(temco_serve::LoadReport, Option<u64>), String> {
    let mut g = temco_ir::Graph::new();
    let x = g.input(&[1, 6], "x");
    let h = g.linear(x, Tensor::randn(&[5, 6], 11), None, "fc1");
    let r = g.relu(h, "r");
    let y = g.linear(r, Tensor::randn(&[3, 5], 12), None, "fc2");
    g.mark_output(y);
    g.infer_shapes();

    let server = temco_serve::Server::new(
        g,
        temco_serve::ServeConfig {
            workers: 2,
            max_batch: 4,
            max_delay: Duration::from_micros(200),
            queue_cap: 64,
            default_deadline: None,
            slo: spec,
            ..temco_serve::ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot build smoke server: {e}"))?;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let tcp_server = server.clone();
    let serve_thread = std::thread::spawn(move || {
        temco_serve::serve(tcp_server, listener, temco_serve::EventConfig::default())
    });

    let report = temco_serve::loadgen::run(&addr, lg).map_err(|e| format!("loadgen: {e}"))?;

    let mut client = temco_serve::Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let dump = client.dump_text().map_err(|e| format!("DUMP: {e}"))?;
    let status = client.status_text().map_err(|e| format!("STATUS: {e}"))?;
    if !status.contains("flight recorder") {
        return Err("STATUS page is missing the flight-recorder section".into());
    }
    client.shutdown_server().map_err(|e| format!("SHUTDOWN: {e}"))?;
    serve_thread
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| format!("serve loop: {e}"))?;

    let events = temco_obs::parse_chrome_trace(&dump)
        .map_err(|e| format!("flight dump does not parse: {e}"))?;
    let chain = temco_obs::find_complete_chain(&events)
        .ok_or("no request is traceable end to end in the flight dump")?;
    Ok((report, Some(chain)))
}

fn main() -> ExitCode {
    let cli = parse_args();
    match cli.command.as_str() {
        "info" => {
            let path = std::env::args().nth(2).unwrap_or_else(|| usage());
            let loaded = std::fs::File::open(&path).and_then(|mut f| temco_ir::load_graph(&mut f));
            let g = match loaded {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let plan = plan_memory(&g);
            println!("file:     {path}");
            println!("nodes:    {}", g.nodes.len());
            println!("weights:  {} tensors, {:.2} MiB", g.weights.len(), mib(g.weight_bytes()));
            println!("internal: {:.2} MiB peak", mib(plan.peak_internal_bytes));
            println!(
                "inputs:   {:?}",
                g.inputs.iter().map(|v| g.shape(*v).to_vec()).collect::<Vec<_>>()
            );
            println!(
                "outputs:  {:?}",
                g.outputs.iter().map(|v| g.shape(*v).to_vec()).collect::<Vec<_>>()
            );
            ExitCode::SUCCESS
        }
        "list" => {
            println!("{:<14} {:<12} skip connections", "model", "architecture");
            for m in ModelId::all() {
                let arch = match m {
                    ModelId::Alexnet => "AlexNet",
                    ModelId::Vgg11 | ModelId::Vgg16 | ModelId::Vgg19 => "VGG",
                    ModelId::Resnet18 | ModelId::Resnet34 => "ResNet",
                    ModelId::Densenet121 | ModelId::Densenet169 => "DenseNet",
                    ModelId::Unet | ModelId::UnetSmall => "UNet",
                };
                println!(
                    "{:<14} {:<12} {}",
                    m.name(),
                    arch,
                    if m.has_skip_connections() { "yes" } else { "no" }
                );
            }
            ExitCode::SUCCESS
        }
        "compile" | "run" | "dot" | "plan" => {
            let cfg = ModelConfig {
                batch: cli.batch,
                image: cli.image,
                num_classes: cli.classes,
                classifier_width: 1024,
                seed: 42,
            };
            let Some((graph, name)) = build_model(&cli, &cfg) else { usage() };
            let compiler = Compiler::new(CompilerOptions {
                decompose: DecomposeOptions {
                    method: cli.method,
                    ratio: cli.ratio,
                    ..Default::default()
                },
                merge_lconvs: true,
                reschedule: cli.reschedule,
                ..Default::default()
            });
            let (opt, stats) = compiler.compile(&graph, cli.level);

            match cli.command.as_str() {
                "dot" => {
                    print!("{}", temco_ir::dot::to_dot(&opt));
                }
                "plan" => {
                    let lv = temco_ir::liveness(&opt);
                    let full = plan_allocation_with_mode(&opt, &lv, AliasMode::Full);
                    let off = plan_allocation_with_mode(&opt, &lv, AliasMode::Off);
                    let mem = plan_memory(&opt);
                    let stats = full.alias_stats();
                    let pct = |a: usize, b: usize| {
                        if b == 0 {
                            0.0
                        } else {
                            100.0 * (1.0 - a as f64 / b as f64)
                        }
                    };
                    println!(
                        "model:        {} @ {} (input {})",
                        name,
                        cli.level.label(),
                        input_shape_str(&graph)
                    );
                    println!(
                        "logical peak: {:.2} MiB (sum of live values)",
                        mib(mem.peak_internal_bytes)
                    );
                    println!(
                        "value slab:   {:.2} MiB aliased vs {:.2} MiB alias-free ({:.1}% saved)",
                        mib(full.value_bytes),
                        mib(off.value_bytes),
                        pct(full.value_bytes, off.value_bytes)
                    );
                    println!(
                        "bytes moved:  {:.2} MiB aliased vs {:.2} MiB alias-free ({:.1}% saved)",
                        mib(full.bytes_moved),
                        mib(off.bytes_moved),
                        pct(full.bytes_moved, off.bytes_moved)
                    );
                    println!(
                        "aliasing:     {} in-place nodes, {} overlap nodes, {} embedded concat operands, {} view-bound values",
                        stats.inplace_nodes,
                        stats.overlap_nodes,
                        stats.aliased_concat_operands,
                        stats.aliased_values
                    );
                    println!(
                        "slab total:   {:.2} MiB ({:.2} MiB scratch), fragmentation {:.3}",
                        mib(full.slab_bytes),
                        mib(full.scratch_bytes),
                        mem.fragmentation()
                    );
                }
                "compile" => {
                    let before = plan_memory(&graph);
                    let after = plan_memory(&opt);
                    println!("model:    {} (input {})", name, input_shape_str(&graph));
                    println!("level:    {}", cli.level.label());
                    println!(
                        "passes:   {} convs decomposed, {} skips optimized ({} copies),",
                        stats.decompose.convs_decomposed,
                        stats.skip_opt.skips_optimized,
                        stats.skip_opt.copies_inserted
                    );
                    println!(
                        "          {} lconvs merged, {} concats split, {} fused kernels",
                        stats.transform.lconvs_merged,
                        stats.transform.concats_split,
                        stats.fusion.total()
                    );
                    println!("nodes:    {} → {}", graph.nodes.len(), opt.nodes.len());
                    println!(
                        "weights:  {:.2} MiB → {:.2} MiB",
                        mib(before.weight_bytes),
                        mib(after.weight_bytes)
                    );
                    println!(
                        "internal: {:.2} MiB → {:.2} MiB ({:.1}% reduction)",
                        mib(before.peak_internal_bytes),
                        mib(after.peak_internal_bytes),
                        100.0
                            * (1.0
                                - after.peak_internal_bytes as f64
                                    / before.peak_internal_bytes as f64)
                    );
                    println!(
                        "slab:     {:.2} MiB static allocation (fragmentation {:.3})",
                        mib(after.slab_bytes),
                        after.fragmentation()
                    );
                    if let Some(path) = &cli.save {
                        let mut f = std::fs::File::create(path).expect("create model file");
                        temco_ir::save_graph(&opt, &mut f).expect("write model");
                        println!("saved:    {path}");
                    }
                }
                "run" => {
                    let x = input_for(&graph);
                    let (dec, _) = compiler.compile(&graph, OptLevel::Decomposed);
                    let base = match execute(&dec, std::slice::from_ref(&x), ExecOptions::default())
                    {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("executing decomposed baseline failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let res = match execute(&opt, &[x], ExecOptions::default()) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("executing optimized model failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let agree = compare_outputs(&base.outputs[0], &res.outputs[0], 5);
                    println!("model:     {name} @ {}", cli.level.label());
                    println!(
                        "decomposed: {:.3}s   optimized: {:.3}s   ratio: {:.2}x",
                        base.total_time,
                        res.total_time,
                        res.total_time / base.total_time.max(1e-9)
                    );
                    println!(
                        "peak internal: {:.2} MiB → {:.2} MiB (planned)",
                        mib(plan_memory(&dec).peak_internal_bytes),
                        mib(plan_memory(&opt).peak_internal_bytes)
                    );
                    println!(
                        "slab:      {:.2} MiB → {:.2} MiB",
                        mib(base.slab_bytes),
                        mib(res.slab_bytes)
                    );
                    // The slab plan the optimized run executed, re-derived by
                    // the independent invariant checker.
                    let violations = temco_check::check_plan_against(&opt, &plan_allocation(&opt));
                    for v in violations.iter().take(3) {
                        eprintln!("plan invariant: {v}");
                    }
                    println!("plan check: {} violations", violations.len());
                    println!(
                        "agreement vs decomposed: {:.4} (max|Δ| {:.2e})",
                        agree.task_agreement, agree.max_abs_diff
                    );
                    if agree.task_agreement < 0.999 {
                        eprintln!("semantic drift detected!");
                        return ExitCode::FAILURE;
                    }
                    if !violations.is_empty() {
                        return ExitCode::FAILURE;
                    }
                }
                _ => unreachable!(),
            }
            ExitCode::SUCCESS
        }
        "profile" => {
            let cfg = ModelConfig {
                batch: cli.batch,
                image: cli.image,
                num_classes: cli.classes,
                classifier_width: 1024,
                seed: 42,
            };
            let Some((graph, name)) = build_model(&cli, &cfg) else {
                arg_error("profile requires a model name — try `temco list`")
            };
            let compiler = Compiler::new(CompilerOptions {
                decompose: DecomposeOptions {
                    method: cli.method,
                    ratio: cli.ratio,
                    ..Default::default()
                },
                merge_lconvs: true,
                reschedule: cli.reschedule,
                ..Default::default()
            });
            let (opt, _) = compiler.compile(&graph, cli.level);
            // With --db, compile against tuned schedules; the report's
            // schedule column then names what produced each timing.
            let compiled = match &cli.db {
                Some(path) => {
                    let db = temco_tune::TuningDb::load(std::path::Path::new(path));
                    for w in db.warnings() {
                        eprintln!("warning: {w}");
                    }
                    temco_tune::compile_with_db(opt, &db)
                }
                None => temco_runtime::CompiledGraph::new(opt),
            };
            let mut engine = match compiled {
                Ok(c) => temco_runtime::Engine::from_compiled(std::sync::Arc::new(c)),
                Err(e) => {
                    eprintln!("cannot compile {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let x = input_for(&graph);
            // Warm-up outside the recording window (first-touch effects).
            if let Err(e) = engine.run(std::slice::from_ref(&x)) {
                eprintln!("warm-up run failed: {e}");
                return ExitCode::FAILURE;
            }
            let reps = cli.reps.max(1);
            let spans_per_run = engine.graph().nodes.len() + 1;
            let mut rec = temco_obs::Recorder::with_capacity(reps * spans_per_run + 16);
            for _ in 0..reps {
                engine
                    .run_recorded(std::slice::from_ref(&x), &mut rec)
                    .expect("inputs validated by the warm-up run");
            }
            let report = temco_runtime::engine_report(engine.compiled(), &rec);
            println!(
                "model:    {} @ {} (input {}, {} reps)",
                name,
                cli.level.label(),
                input_shape_str(engine.graph()),
                reps
            );
            print!("{}", report.render_table(15));
            if let Some(path) = &cli.trace {
                let json = temco_runtime::engine_trace_json(engine.compiled(), &rec);
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("trace:    {path} (open in chrome://tracing or Perfetto)");
            }
            ExitCode::SUCCESS
        }
        "tune" => {
            if cli.smoke {
                let seed = if cli.seed_set { cli.seed } else { 42 };
                let report = match temco_tune::run_smoke(cli.trials.min(4), seed) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("smoke run failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let gate = |ok: bool| if ok { "ok" } else { "FAIL" };
                println!(
                    "candidate generation deterministic: {}",
                    gate(report.candidates_deterministic)
                );
                println!(
                    "selection deterministic:            {}",
                    gate(report.selection_deterministic)
                );
                println!("database round-trips:               {}", gate(report.db_round_trip));
                println!("tuned-or-default never loses:       {}", gate(report.never_loses));
                for g in &report.groups {
                    println!(
                        "  {:<50} {:>4} cand  default {:>9} ns  best {:>9} ns  {:.2}x  {}",
                        g.key,
                        g.candidates,
                        g.default_ns,
                        g.best_ns,
                        g.speedup(),
                        g.best.label()
                    );
                }
                return if report.ok() {
                    println!("smoke: all gates green");
                    ExitCode::SUCCESS
                } else {
                    eprintln!("smoke: gate failure");
                    ExitCode::FAILURE
                };
            }
            let graph = if cli.shapes {
                println!("tuning the built-in hot-shape suite");
                temco_tune::shape_suite_graph()
            } else {
                let cfg = ModelConfig {
                    batch: cli.batch,
                    image: cli.image,
                    num_classes: cli.classes,
                    classifier_width: 1024,
                    seed: 42,
                };
                let Some((graph, name)) = build_model(&cli, &cfg) else {
                    arg_error("tune requires a model name or --shapes — try `temco list`")
                };
                let compiler = Compiler::new(CompilerOptions {
                    decompose: DecomposeOptions {
                        method: cli.method,
                        ratio: cli.ratio,
                        ..Default::default()
                    },
                    merge_lconvs: true,
                    reschedule: cli.reschedule,
                    ..Default::default()
                });
                println!(
                    "tuning {} @ {} (input {})",
                    name,
                    cli.level.label(),
                    input_shape_str(&graph)
                );
                compiler.compile(&graph, cli.level).0
            };
            let db_path = cli.db.clone().unwrap_or_else(|| "temco-tune.db".to_string());
            let mut db = temco_tune::TuningDb::load(std::path::Path::new(&db_path));
            for w in db.warnings() {
                eprintln!("warning: {w}");
            }
            let opts = temco_tune::TuneOptions {
                trials: cli.trials,
                seed: if cli.seed_set { cli.seed } else { 42 },
                reps: if cli.reps_set { cli.reps } else { 3 },
            };
            let reports = match temco_tune::tune_graph(&graph, &opts, &mut db) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("tuning failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{} shape groups, {} trials each, seed {}, {} reps",
                reports.len(),
                opts.trials,
                opts.seed,
                opts.reps
            );
            for g in &reports {
                println!(
                    "  {:<58} x{:<2} default {:>9} ns  best {:>9} ns  {:.2}x  {}",
                    g.key,
                    g.nodes,
                    g.default_ns,
                    g.best_ns,
                    g.speedup(),
                    g.best.label()
                );
            }
            if let Err(e) = db.save(std::path::Path::new(&db_path)) {
                eprintln!("cannot write {db_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("saved:    {db_path} ({} entries)", db.len());
            ExitCode::SUCCESS
        }
        "serve" => {
            // Serving is single-sample: the model is built at batch 1 and
            // the server compiles it once at `--max-batch`.
            let cfg = ModelConfig {
                batch: 1,
                image: cli.image,
                num_classes: cli.classes,
                classifier_width: 1024,
                seed: 42,
            };
            let Some((graph, name)) = build_model(&cli, &cfg) else {
                arg_error("serve requires a model name — try `temco list`")
            };
            let compiler = Compiler::new(CompilerOptions {
                decompose: DecomposeOptions {
                    method: cli.method,
                    ratio: cli.ratio,
                    ..Default::default()
                },
                merge_lconvs: true,
                reschedule: cli.reschedule,
                ..Default::default()
            });
            let (opt, _) = compiler.compile(&graph, cli.level);
            // No inference reads the dense source model; do not hold its
            // weights for the life of the server.
            drop(graph);
            let slo = match cli.slo.as_deref().map(temco_obs::SloSpec::parse).transpose() {
                Ok(s) => s.unwrap_or_default(),
                Err(e) => arg_error(format_args!("bad --slo spec: {e}")),
            };
            let serve_cfg = temco_serve::ServeConfig {
                workers: cli.workers,
                max_batch: cli.max_batch,
                max_delay: Duration::from_millis(cli.max_delay_ms),
                queue_cap: cli.queue_cap,
                default_deadline: None,
                slo,
                ..temco_serve::ServeConfig::default()
            };
            let server = match temco_serve::Server::new(opt, serve_cfg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot serve {name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(path) = &cli.flight_recorder {
                // A worker panic also dumps to the same path, so a crash
                // leaves its last moments behind even without an exit.
                server.set_panic_dump(Some(std::path::PathBuf::from(path)));
            }
            let listener = match std::net::TcpListener::bind(&cli.addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("cannot bind {}: {e}", cli.addr);
                    return ExitCode::FAILURE;
                }
            };
            let snap = server.stats();
            println!(
                "serving {} @ {} on {} — {} workers, batch ≤ {}, one {:.2} MiB slab/worker, \
                 {} conns max",
                name,
                cli.level.label(),
                cli.addr,
                cli.workers,
                cli.max_batch,
                mib(snap.slab_bytes_per_worker),
                cli.max_conns,
            );
            println!("stop with: temco loadgen --addr {} --shutdown", cli.addr);
            let ecfg = temco_serve::EventConfig {
                max_conns: cli.max_conns,
                idle_timeout: Duration::from_millis(cli.idle_timeout_ms),
                max_inflight: 32,
            };
            if let Err(e) = temco_serve::serve(server.clone(), listener, ecfg) {
                eprintln!("serve loop failed: {e}");
                return ExitCode::FAILURE;
            }
            print!("{}", server.stats().render());
            if cli.metrics {
                print!("{}", server.prometheus_metrics());
            }
            if let Some(path) = &cli.flight_recorder {
                match std::fs::write(path, server.flight_dump_json()) {
                    Ok(()) => println!("flight recorder written to {path}"),
                    Err(e) => {
                        eprintln!("cannot write flight recorder {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "encoder" => {
            // The smoke gate pins everything so CI compares like with like.
            let (id, ratio, budget) = if cli.smoke {
                (EncoderId::EncoderTiny, 0.1, 1.0)
            } else {
                (cli.encoder.unwrap_or(EncoderId::EncoderTiny), cli.ratio, cli.budget)
            };
            let graph = id.build(&id.config());
            let dense_compiler = Compiler::default();
            let compiler = Compiler::new(CompilerOptions {
                decompose: DecomposeOptions {
                    ratio,
                    compress_matrices: true,
                    matrix_error_budget: budget,
                    ..Default::default()
                },
                ..Default::default()
            });
            let (dense, _) = dense_compiler.compile(&graph, OptLevel::Decomposed);
            let (comp, stats) = compiler.compile(&graph, OptLevel::Decomposed);
            println!("encoder:  {} (ratio {ratio}, error budget {budget})", id.name());
            println!(
                "selector: {} compressed, {} kept dense",
                stats.decompose.linears_compressed, stats.decompose.linears_kept_dense
            );
            let mut sum_err = 0.0f64;
            for c in &stats.decompose.matrix_choices {
                sum_err += c.rel_error;
                println!(
                    "  {:<24} {:<7} params {:>8} → {:>8}  flops/row {:>8} → {:>8}  err {:.3}",
                    c.layer,
                    c.method,
                    c.params_before,
                    c.params_after,
                    c.flops_before,
                    c.flops_after,
                    c.rel_error
                );
            }
            println!(
                "weights:  {:.2} MiB → {:.2} MiB",
                mib(dense.weight_bytes()),
                mib(comp.weight_bytes())
            );

            let mut gates_ok = true;
            let mut gate = |name: &str, ok: bool| {
                println!("gate {name:<38} {}", if ok { "ok" } else { "FAIL" });
                gates_ok &= ok;
            };
            if cli.smoke {
                gate("selector compresses some layers:", stats.decompose.linears_compressed > 0);
            }

            let x = input_for(&graph);
            let dres = match execute(&dense, std::slice::from_ref(&x), ExecOptions::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("executing dense encoder failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cres = match execute(&comp, std::slice::from_ref(&x), ExecOptions::default()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("executing compressed encoder failed: {e}");
                    return ExitCode::FAILURE;
                }
            };

            // Pass invariance: the fusion/skip-opt pipelines must not change
            // what the compressed encoder computes.
            for level in [OptLevel::Fusion, OptLevel::SkipOpt, OptLevel::SkipOptFusion] {
                let (g2, _) = compiler.compile(&graph, level);
                let r2 = match execute(&g2, std::slice::from_ref(&x), ExecOptions::default()) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("executing {} failed: {e}", level.label());
                        return ExitCode::FAILURE;
                    }
                };
                let agree = compare_outputs(&cres.outputs[0], &r2.outputs[0], 5);
                gate(
                    &format!("{} agrees with decomposed:", level.label()),
                    agree.task_agreement >= 0.999 && agree.max_abs_diff < 1e-4,
                );
            }

            // Compressed vs dense, at a tolerance calibrated from the
            // selector's own measured per-layer errors.
            let rel_l2 = {
                let (a, b) = (dres.outputs[0].data(), cres.outputs[0].data());
                let mut num = 0.0f64;
                let mut den = 0.0f64;
                for (x, y) in a.iter().zip(b) {
                    num += ((x - y) as f64).powi(2);
                    den += (*x as f64).powi(2);
                }
                (num / den.max(1e-30)).sqrt()
            };
            let tol = (2.0 * sum_err).max(1e-3);
            println!("drift:    relative L2 {rel_l2:.4} vs calibrated tolerance {tol:.4}");
            gate("compressed output within tolerance:", rel_l2 <= tol && rel_l2.is_finite());

            // Plan invariants and the alias A/B on the compressed graph.
            let lv = temco_ir::liveness(&comp);
            let full = plan_allocation_with_mode(&comp, &lv, AliasMode::Full);
            let off = plan_allocation_with_mode(&comp, &lv, AliasMode::Off);
            for (label, plan) in [("Full", &full), ("Off", &off)] {
                let errs = temco_check::check_plan_against(&comp, plan);
                for e in errs.iter().take(3) {
                    eprintln!("plan invariant ({label}): {e}");
                }
                gate(&format!("plan invariants hold ({label}):"), errs.is_empty());
            }
            gate(
                "aliasing never hurts:",
                full.value_bytes <= off.value_bytes && full.bytes_moved <= off.bytes_moved,
            );
            println!(
                "slab:     {:.2} MiB aliased vs {:.2} MiB alias-free, moved {:.2} vs {:.2} MiB",
                mib(full.value_bytes),
                mib(off.value_bytes),
                mib(full.bytes_moved),
                mib(off.bytes_moved)
            );
            if gates_ok {
                println!("encoder: all gates green");
                ExitCode::SUCCESS
            } else {
                eprintln!("encoder: gate failure");
                ExitCode::FAILURE
            }
        }
        "check" => {
            let cfg = temco_check::DiffConfig::default();
            println!(
                "differential: seeds {}..{} ({} opt levels, batches up to {})",
                cli.seed,
                cli.seed + cli.iters as u64,
                4,
                cfg.max_batch
            );
            let mut failed = false;
            for seed in cli.seed..cli.seed + cli.iters as u64 {
                let Err(f) = temco_check::check_seed(seed, &cfg) else { continue };
                failed = true;
                eprintln!("FAIL {f}");
                // Hand the investigator a minimized repro, not the full
                // generated graph.
                let g = temco_check::random_graph(seed, &cfg.gen);
                let failing = |g: &temco_ir::Graph| {
                    temco_check::check_graph(g, seed, &cfg).err().map(|f| f.to_string())
                };
                match temco_check::shrink(&g, &failing) {
                    Some(s) => eprintln!(
                        "shrunk to {} nodes ({} attempts): {}\n{}",
                        s.graph.nodes.len(),
                        s.attempts,
                        s.message,
                        temco_check::dump(&s.graph)
                    ),
                    None => eprintln!("(failure did not reproduce during shrinking)"),
                }
            }
            if failed {
                return ExitCode::FAILURE;
            }
            println!("differential: {} seeds clean", cli.iters);
            if cli.faults > 0 {
                let report = match temco_check::run_fault_injection(&temco_check::FaultConfig {
                    frames: cli.faults,
                    seed: cli.seed ^ 0xFA17,
                    workers: cli.workers,
                }) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("fault injection could not run: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!("fault injection: {report}");
                if !report.passed() {
                    eprintln!("fault injection left the server unhealthy");
                    // Ship the server's last moments with the finding.
                    if let Some(capture) = &report.flight_capture {
                        let path = "temco-fault-flight.json";
                        match std::fs::write(path, capture) {
                            Ok(()) => eprintln!("flight-recorder capture written to {path}"),
                            Err(e) => eprintln!("could not write flight capture: {e}"),
                        }
                    }
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        "slo" => {
            let spec = match cli.slo.as_deref().map(temco_obs::SloSpec::parse).transpose() {
                Ok(s) => s.unwrap_or_default(),
                Err(e) => arg_error(format_args!("bad --slo spec: {e}")),
            };
            let lg = temco_serve::LoadgenConfig {
                clients: cli.clients,
                requests_per_client: cli.requests,
                deadline_ms: cli.deadline_ms,
                seed: 7,
            };
            let (report, chain) = if cli.smoke {
                match slo_smoke(spec, lg) {
                    Ok(pair) => pair,
                    Err(e) => {
                        eprintln!("slo smoke failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                let report = match temco_serve::loadgen::run(&cli.addr, lg) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("slo cannot reach {}: {e}", cli.addr);
                        return ExitCode::FAILURE;
                    }
                };
                if cli.shutdown {
                    if let Ok(mut c) = temco_serve::Client::connect(&cli.addr) {
                        let _ = c.shutdown_server();
                    }
                }
                (report, None)
            };
            println!(
                "load:       {} requests ({} ok, {} rejected, {} errors), {:.1} req/s",
                report.requests, report.ok, report.rejected, report.errors, report.throughput_rps
            );
            println!(
                "latency ms: p50 {:.3}  p95 {:.3}  p99 {:.3}",
                report.p50_ms, report.p95_ms, report.p99_ms
            );
            if let Some(trace) = chain {
                println!("trace:      request {trace:#x} traceable end to end (flight recorder)");
            }
            let observed_ms = match spec.percentile {
                50 => report.p50_ms,
                95 => report.p95_ms,
                _ => report.p99_ms,
            };
            let verdict = spec.evaluate(
                report.requests as u64,
                (report.rejected + report.errors) as u64,
                observed_ms,
            );
            println!("{}", verdict.render());
            if verdict.pass() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "loadgen" => {
            let lg = temco_serve::LoadgenConfig {
                clients: cli.clients,
                requests_per_client: cli.requests,
                deadline_ms: cli.deadline_ms,
                seed: 7,
            };
            let report = match temco_serve::loadgen::run(&cli.addr, lg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("loadgen cannot reach {}: {e}", cli.addr);
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "requests:   {} ({} ok, {} rejected, {} errors)",
                report.requests, report.ok, report.rejected, report.errors
            );
            println!("elapsed:    {:.3}s", report.elapsed.as_secs_f64());
            println!("throughput: {:.1} req/s", report.throughput_rps);
            println!(
                "latency ms: p50 {:.3}  p95 {:.3}  p99 {:.3}  mean {:.3}",
                report.p50_ms, report.p95_ms, report.p99_ms, report.mean_ms
            );
            if cli.metrics {
                match temco_serve::Client::connect(&cli.addr) {
                    Ok(mut c) => print!("{}", c.metrics_text().unwrap_or_default()),
                    Err(e) => {
                        eprintln!("metrics scrape failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if cli.shutdown {
                match temco_serve::Client::connect(&cli.addr) {
                    Ok(mut c) => {
                        print!("{}", c.stats_text().unwrap_or_default());
                        if let Err(e) = c.shutdown_server() {
                            eprintln!("shutdown request failed: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("server draining");
                    }
                    Err(e) => {
                        eprintln!("shutdown request failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if report.errors > 0 {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        other => arg_error(format_args!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_outside_the_unit_interval_is_a_named_error() {
        assert_eq!(parse_ratio("0.1"), Ok(0.1));
        assert_eq!(parse_ratio("1"), Ok(1.0));
        for raw in ["0", "-0.5", "2", "nan", "inf", "x"] {
            assert_eq!(parse_ratio(raw), Err(format!("invalid value '{raw}' for '--ratio'")));
        }
    }
}
