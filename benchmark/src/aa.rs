//! Running every workload: once each for the full report, or twice ten
//! times for the A/A check. Each run is a process of its own, so that
//! set-up time and peak RSS are a fresh process's.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use temco_obs::chrome::{parse_json, Json};

use crate::report::{Declared, Metric};
use crate::stats::{median, quartiles};
use crate::Args;

/// Run one workload in a child process and return its result line, parsed.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) exited with {}",
            trace as u8, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload} printed no result"))?;
    Ok((line.to_string(), parse_json(line)?))
}

fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Every workload, untraced then traced: print every metric by name with
/// its unit and write `out/results.json`.
pub fn all(declared: &Declared, args: &Args) -> ExitCode {
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in &declared.workloads {
        for (trace, list) in [(false, &declared.end_to_end), (true, &declared.per_layer)] {
            let (line, result) = match child(args, workload, args.seed, trace) {
                Ok(r) => r,
                Err(e) => crate::die(&e),
            };
            let correct = result.get("correct") == Some(&Json::Bool(true));
            ok &= correct;
            let num = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "{workload} ({}): correct {correct}, attempted {}, failed {}",
                if trace { "traced, per layer" } else { "end to end" },
                num("attempted"),
                num("failed")
            );
            for m in list {
                println!(
                    "  {:<36} {:>18.6} {}",
                    m.name,
                    value(&result, &m.name).unwrap_or(f64::NAN),
                    m.unit
                );
            }
            entries.push(format!(
                "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}",
                args.seed, trace as u8
            ));
        }
    }
    let out = args.dir.join("out");
    let doc = format!("[\n{}\n]\n", entries.join(",\n"));
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(out.join("results.json"), doc))
    {
        crate::die(&format!("cannot write results.json: {e}"));
    }
    println!("wrote {}", out.join("results.json").display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `after` is than `before`, as a share of `before`.
fn worsening(m: &Metric, before: f64, after: f64) -> f64 {
    let delta = if m.higher { before - after } else { after - before };
    delta / before.abs()
}

/// The A/A check, by the rule the benchmark is accepted under: two sets of
/// `runs` runs per workload, each run on another seed. Within a set, the
/// distance between the quartiles as a share of the median must stay inside
/// the metric's bound (`setup_s` excepted); between sets, the second median
/// may not be worse than the first by more than the bound.
pub fn a_a(declared: &Declared, args: &Args, runs: usize) -> ExitCode {
    let runs = runs.max(2);
    let mut violations = 0;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<16} {:<22} {:>14} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median", "spread A", "spread B", "B vs A", "bound"
    );
    for workload in &declared.workloads {
        // samples[set][metric] = one value per run
        let mut samples = vec![vec![Vec::new(); declared.end_to_end.len()]; 2];
        for (set, per_metric) in samples.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = (set * runs + run + 1) as u64;
                let (_, result) =
                    child(args, workload, seed, false).unwrap_or_else(|e| crate::die(&e));
                if result.get("correct") != Some(&Json::Bool(true)) {
                    crate::die(&format!("{workload} (seed {seed}) was not correct"));
                }
                for (m, values) in declared.end_to_end.iter().zip(per_metric.iter_mut()) {
                    values.push(
                        value(&result, &m.name)
                            .unwrap_or_else(|| crate::die("a metric is missing")),
                    );
                }
            }
        }
        for (i, m) in declared.end_to_end.iter().enumerate() {
            let spread = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / median(v).abs()
            };
            let (a, b) = (&samples[0][i], &samples[1][i]);
            let (spread_a, spread_b) = (spread(a), spread(b));
            let shift = worsening(m, median(a), median(b));
            let spread_bad = m.name != "setup_s" && spread_a.max(spread_b) > m.bound;
            let bad = spread_bad || shift > m.bound;
            violations += usize::from(bad);
            let _ = writeln!(
                table,
                "{:<16} {:<22} {:>14.6} {:>8.2}% {:>8.2}% {:>+8.2}% {:>6.1}%{}",
                workload,
                m.name,
                median(a),
                spread_a * 100.0,
                spread_b * 100.0,
                shift * 100.0,
                m.bound * 100.0,
                if bad { "  VIOLATION" } else { "" }
            );
        }
    }
    print!("{table}");
    println!("{violations} violation(s) over {runs} runs per set");
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
