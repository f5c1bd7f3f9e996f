//! Tier-1 entry points for the harness: a deterministic short differential
//! sweep, the self-tests that prove the instruments detect what they claim
//! to detect, and a short fault-injection campaign.
//!
//! Scale knobs (for soak runs; the defaults keep tier-1 fast):
//!
//! * `TEMCO_CHECK_ITERS` — differential seeds to sweep (default 6).
//! * `TEMCO_CHECK_FAULTS` — fault-injection episodes (default 150).

use proptest::prelude::*;
use temco_check::{
    check_plan_against, check_seed, dump, inject_aliasing, random_cnn, random_graph,
    run_fault_injection, shrink, DiffConfig, FaultConfig, GenConfig,
};
use temco_ir::{liveness, Graph};
use temco_runtime::{execute, plan_allocation_with, Engine, ExecMode, ExecOptions};
use temco_tensor::Tensor;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The tentpole check: differential execution over a seeded corpus. Every
/// failure is shrunk before being reported, so a red CI run hands the
/// investigator a minimal repro, not a 15-node haystack.
#[test]
fn differential_sweep_over_the_seeded_corpus() {
    let iters = env_usize("TEMCO_CHECK_ITERS", 6) as u64;
    let cfg = DiffConfig::default();
    let mut failures = Vec::new();
    for seed in 0..iters {
        if let Err(f) = check_seed(seed, &cfg) {
            // Minimize while preserving *some* differential failure (not
            // necessarily the same stage — any failure on a smaller graph
            // is a better repro).
            let g = random_graph(seed, &cfg.gen);
            let failing =
                |g: &Graph| temco_check::check_graph(g, seed, &cfg).err().map(|f| f.to_string());
            let repro = match shrink(&g, &failing) {
                Some(s) => format!(
                    "shrunk to {} nodes ({} attempts): {}\n{}",
                    s.graph.nodes.len(),
                    s.attempts,
                    s.message,
                    dump(&s.graph)
                ),
                None => "shrink could not reproduce (flaky failure?)".to_string(),
            };
            failures.push(format!("{f}\n{repro}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} differential failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The shrinker must reduce an injected slab-aliasing fault to a repro of
/// at most 10 nodes — the acceptance bar for "failures arrive minimized".
#[test]
fn injected_aliasing_shrinks_to_a_small_repro() {
    // Property: the independent checker catches aliasing after the plan is
    // sabotaged. Holds for any graph with two simultaneously-live values,
    // so the minimal repro is tiny.
    let failing = |g: &Graph| {
        let lv = liveness(g);
        let mut plan = plan_allocation_with(g, &lv);
        inject_aliasing(g, &mut plan)?;
        let errs = check_plan_against(g, &plan);
        errs.iter().find(|e| e.contains("alias")).cloned()
    };
    let g = random_cnn(1, &GenConfig::default());
    assert!(failing(&g).is_some(), "corpus graph must admit aliasing injection");
    let before = g.nodes.len();
    let shrunk = shrink(&g, &failing).expect("property holds on entry");
    assert!(
        shrunk.graph.nodes.len() <= 10,
        "repro has {} nodes (started at {before}), want ≤ 10:\n{}",
        shrunk.graph.nodes.len(),
        dump(&shrunk.graph)
    );
    assert!(shrunk.message.contains("alias"), "wrong failure survived: {}", shrunk.message);
}

/// Short fault-injection campaign: the server must stay healthy — no hung
/// waits, workers alive, stats conserved — under adversarial traffic.
#[test]
fn fault_injection_leaves_the_server_healthy() {
    let frames = env_usize("TEMCO_CHECK_FAULTS", 150);
    let report = run_fault_injection(&FaultConfig { frames, seed: 42, workers: 2 })
        .expect("fault campaign must bind and run");
    assert!(report.passed(), "server unhealthy after {frames} episodes: {report}");
    assert!(report.ok > 0, "no valid request ever succeeded: {report}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// What a serving worker does: one engine over the graph compiled at
    /// `max_batch`, run with fewer samples. Every run must match the
    /// per-node reference on the graph re-batched to that many samples, in
    /// any order of sample counts on the one engine.
    #[test]
    fn max_batch_plan_runs_fewer_samples_like_the_reference(
        seed in 0u64..10_000,
        max_batch in 2usize..7,
        pick in 0usize..64,
    ) {
        let g = random_graph(seed, &GenConfig::default());
        let mut engine = Engine::new(g.rebatch(max_batch)).unwrap();
        let counts = [1 + pick % max_batch, max_batch, 1 + pick / 8 % max_batch, 1];
        for (k, n) in counts.into_iter().enumerate() {
            let gn = g.rebatch(n);
            let x = Tensor::rand_uniform(gn.shape(gn.inputs[0]), seed ^ k as u64, -1.0, 1.0);
            let inputs = std::slice::from_ref(&x);
            let opts = ExecOptions { mode: ExecMode::PerNode, ..Default::default() };
            let want = execute(&gn, inputs, opts).unwrap().outputs;
            let got = engine.run(inputs).unwrap();
            prop_assert_eq!(got.len(), want.len());
            for (o, (a, b)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(a.shape(), b.shape());
                let diff = a.max_abs_diff(b);
                prop_assert!(
                    diff <= 1e-4,
                    "seed {} max_batch {} {} samples, output {}: diff {:.3e}",
                    seed, max_batch, n, o, diff
                );
            }
        }
    }
}
