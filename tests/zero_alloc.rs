//! The PR's zero-allocation acceptance bar: after `Engine::new` has
//! planned and allocated, a steady-state `Engine::run` performs **zero**
//! heap allocations — every kernel writes into planned slab offsets and
//! draws its working memory (im2col columns, GEMM pack panels, fused-kernel
//! tiles) from the planner-reserved scratch arena.
//!
//! Verified with a counting `#[global_allocator]` gated by a thread-local
//! flag, so the test harness's own threads cannot pollute the count. On
//! multi-core hosts rayon workers run outside the tracked thread, but the
//! work-distribution path of the bundled rayon shim is allocation-free by
//! construction (its own tests assert that), so the tracked thread is the
//! meaningful boundary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use temco::{Compiler, OptLevel};
use temco_models::{ModelConfig, ModelId};
use temco_runtime::{execute, Engine, ExecMode, ExecOptions};
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

/// Run `f` with this thread's allocations counted; returns the count.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    TRACKING.with(|t| t.set(false)); // warm the TLS slot outside the count
    let before = TRACKED_ALLOCS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let r = f();
    TRACKING.with(|t| t.set(false));
    (r, TRACKED_ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn engine_steady_state_performs_zero_heap_allocations() {
    let compiler = Compiler::default();
    let cfg = ModelConfig::small();
    let levels =
        [OptLevel::Decomposed, OptLevel::Fusion, OptLevel::SkipOpt, OptLevel::SkipOptFusion];
    for id in ModelId::all() {
        let g = id.build(&cfg);
        let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 21);
        for (level, (opt, _)) in levels.into_iter().zip(compiler.compile_levels(&g, &levels)) {
            let mut engine = Engine::new(opt)
                .unwrap_or_else(|e| panic!("{} @ {}: {e}", id.name(), level.label()));
            // Warmup: populates anything lazily initialized (thread pool,
            // TLS) outside the counted window.
            engine.run(std::slice::from_ref(&x)).expect("warmup run failed");
            let (res, allocs) =
                count_allocs(|| engine.run(std::slice::from_ref(&x)).map(|outs| outs.len()));
            assert!(res.is_ok());
            assert_eq!(
                allocs,
                0,
                "{} @ {}: steady-state run heap-allocated {allocs} times",
                id.name(),
                level.label()
            );
        }
    }
}

#[test]
fn instrumented_engine_run_performs_zero_heap_allocations() {
    // Observability must not cost the invariant it observes: a steady-state
    // `run_recorded` into a preallocated ring is as allocation-free as a
    // plain `run`. (Building the report or trace JSON afterwards is the
    // scrape path and may allocate — only the recording window is counted.)
    let compiler = Compiler::default();
    let cfg = ModelConfig::small();
    let g = ModelId::Resnet18.build(&cfg);
    let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 27);
    let (opt, _) = compiler.compile(&g, OptLevel::SkipOptFusion);
    let mut engine = Engine::new(opt).expect("engine construction failed");
    let mut rec = temco_obs::Recorder::with_capacity(4 * (engine.graph().nodes.len() + 1));
    engine.run_recorded(std::slice::from_ref(&x), &mut rec).expect("warmup run failed");
    let (res, allocs) = count_allocs(|| {
        engine.run_recorded(std::slice::from_ref(&x), &mut rec).map(|outs| outs.len())
    });
    assert!(res.is_ok());
    assert_eq!(allocs, 0, "instrumented steady-state run heap-allocated {allocs} times");
    assert_eq!(rec.dropped(), 0, "the preallocated ring must hold both runs");
    // Let the ring wrap and keep recording: drop-oldest is counter math,
    // not reallocation.
    let (_, allocs) = count_allocs(|| {
        for _ in 0..4 {
            engine.run_recorded(std::slice::from_ref(&x), &mut rec).expect("wrapped run failed");
        }
    });
    assert_eq!(allocs, 0, "a wrapping ring heap-allocated {allocs} times");
    assert!(rec.dropped() > 0, "the ring was sized to wrap");
}

#[test]
fn tuned_engine_steady_state_performs_zero_heap_allocations() {
    // Schedule dispatch must cost nothing at run time: an engine compiled
    // against a populated tuning DB — every tunable node on a NON-default
    // schedule — is as allocation-free in steady state as the default one.
    // Schedule resolution happens once, in `compile_with_db`.
    use temco_runtime::{FusedSchedule, GemmSchedule, NodeSchedule};

    let compiler = Compiler::default();
    let cfg = ModelConfig::small();
    for id in [ModelId::Alexnet, ModelId::Resnet18, ModelId::UnetSmall] {
        let (opt, _) = compiler.compile(&id.build(&cfg), OptLevel::SkipOptFusion);
        let mut db = temco_tune::TuningDb::new();
        for node in &opt.nodes {
            let Some((op, _)) = temco_tune::node_signature(&opt, node) else { continue };
            let Some(key) = temco_tune::node_db_key(&opt, node) else { continue };
            let sched = if op == "fused" {
                NodeSchedule::Fused(FusedSchedule { slots_per_thread: 2, tile: 16 })
            } else {
                NodeSchedule::Gemm(GemmSchedule { kc: 128, mc: 32, nc: 128 })
            };
            db.insert(key, sched);
        }
        assert!(!db.is_empty(), "{}: no tunable nodes found", id.name());
        let scheds = temco_tune::schedules_for(&opt, &db);
        assert!(
            scheds.iter().any(|s| *s != NodeSchedule::Default),
            "{}: tuned plan degenerated to defaults",
            id.name()
        );
        let compiled = temco_tune::compile_with_db(opt, &db)
            .unwrap_or_else(|e| panic!("{}: tuned compile failed: {e}", id.name()));
        let mut engine = Engine::from_compiled(std::sync::Arc::new(compiled));
        let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 21);
        engine.run(std::slice::from_ref(&x)).expect("warmup run failed");
        let (res, allocs) =
            count_allocs(|| engine.run(std::slice::from_ref(&x)).map(|outs| outs.len()));
        assert!(res.is_ok());
        assert_eq!(
            allocs,
            0,
            "{}: tuned steady-state run heap-allocated {allocs} times",
            id.name()
        );
    }
}

#[test]
fn engine_agrees_with_per_node_baseline() {
    let compiler = Compiler::default();
    let cfg = ModelConfig::small();
    for id in [ModelId::Vgg11, ModelId::Resnet18, ModelId::UnetSmall] {
        let g = id.build(&cfg);
        let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 33);
        let levels = [OptLevel::Decomposed, OptLevel::SkipOptFusion];
        for (level, (opt, _)) in levels.into_iter().zip(compiler.compile_levels(&g, &levels)) {
            let baseline = execute(
                &opt,
                std::slice::from_ref(&x),
                ExecOptions { mode: ExecMode::PerNode, ..Default::default() },
            )
            .expect("per-node execution failed");
            let mut engine = Engine::new(opt).expect("engine construction failed");
            let outs = engine.run(std::slice::from_ref(&x)).expect("engine run failed");
            assert_eq!(outs.len(), baseline.outputs.len());
            for (got, want) in outs.iter().zip(&baseline.outputs) {
                assert!(
                    got.all_close(want, 1e-3),
                    "{} @ {}: engine diverged from per-node baseline by {}",
                    id.name(),
                    level.label(),
                    got.max_abs_diff(want)
                );
            }
        }
    }
}
