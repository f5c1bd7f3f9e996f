//! The serving acceptance bar inherited from the runtime: once a bucket
//! is warm, a worker step — pop, gather, stage, run, scatter, complete,
//! record — performs **zero** heap allocations. Submission is allowed to
//! allocate (it builds the job and the preallocated response buffer); the
//! worker hot path is not.
//!
//! Same counting-`#[global_allocator]` technique as the repo-level
//! `zero_alloc` test: a thread-local flag scopes the count to this thread,
//! so only the worker step under test is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use temco_ir::Graph;
use temco_serve::{ServeConfig, Server, StepOutcome};
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

fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, usize) {
    TRACKING.with(|t| t.set(false));
    let before = TRACKED_ALLOCS.load(Ordering::Relaxed);
    TRACKING.with(|t| t.set(true));
    let r = f();
    TRACKING.with(|t| t.set(false));
    (r, TRACKED_ALLOCS.load(Ordering::Relaxed) - before)
}

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

#[test]
fn warm_worker_step_performs_zero_heap_allocations() {
    let cfg = ServeConfig {
        workers: 0,
        max_batch: 4,
        max_delay: Duration::ZERO,
        queue_cap: 64,
        default_deadline: None,
        ..ServeConfig::default()
    };
    let server = Server::new(tiny_mlp(), cfg).unwrap();
    let mut worker = server.manual_worker();
    let samples: Vec<Tensor> =
        (0..4).map(|i| Tensor::rand_uniform(&[1, 6], 50 + i, -1.0, 1.0)).collect();

    // Warm every bucket a measured step will touch (1 and 4): first runs
    // populate lazily-initialized engine/thread-pool state.
    let warm1 = server.submit(samples[0].clone()).unwrap();
    assert_eq!(worker.step(), StepOutcome::Ran(1));
    warm1.wait().unwrap();
    let warm4: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();
    assert_eq!(worker.step(), StepOutcome::Ran(4));
    for t in warm4 {
        t.wait().unwrap();
    }

    // Steady state, batch of 1.
    let t = server.submit(samples[0].clone()).unwrap();
    let (outcome, allocs) = count_allocs(|| worker.step());
    assert_eq!(outcome, StepOutcome::Ran(1));
    assert_eq!(allocs, 0, "warm batch-1 worker step allocated {allocs} times");
    t.wait().unwrap();

    // Steady state, full batch (gather of 4 + padding-free staging).
    let tickets: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();
    let (outcome, allocs) = count_allocs(|| worker.step());
    assert_eq!(outcome, StepOutcome::Ran(4));
    assert_eq!(allocs, 0, "warm batch-4 worker step allocated {allocs} times");
    for t in tickets {
        t.wait().unwrap();
    }

    // An idle step is trivially allocation-free too.
    let (outcome, allocs) = count_allocs(|| worker.step());
    assert_eq!(outcome, StepOutcome::Idle);
    assert_eq!(allocs, 0);
}

#[test]
fn instrumented_worker_step_performs_zero_heap_allocations() {
    // Every worker step records gather/stage/run/scatter spans, the
    // engine's node spans and the split queue-wait/service histograms
    // into its preallocated ring, then publishes the ring to the flight
    // recorder — and must still not allocate.
    let cfg = ServeConfig {
        workers: 0,
        max_batch: 4,
        max_delay: Duration::ZERO,
        queue_cap: 64,
        default_deadline: None,
        ..ServeConfig::default()
    };
    let server = Server::new(tiny_mlp(), cfg).unwrap();
    let mut worker = server.manual_worker();
    let samples: Vec<Tensor> =
        (0..4).map(|i| Tensor::rand_uniform(&[1, 6], 90 + i, -1.0, 1.0)).collect();

    // Warm both buckets a measured step will touch.
    let warm1 = server.submit(samples[0].clone()).unwrap();
    assert_eq!(worker.step(), StepOutcome::Ran(1));
    warm1.wait().unwrap();
    let warm4: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();
    assert_eq!(worker.step(), StepOutcome::Ran(4));
    for t in warm4 {
        t.wait().unwrap();
    }

    let tickets: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();
    let (outcome, allocs) = count_allocs(|| worker.step());
    assert_eq!(outcome, StepOutcome::Ran(4));
    assert_eq!(allocs, 0, "instrumented worker step allocated {allocs} times");
    for t in tickets {
        t.wait().unwrap();
    }

    // The split histograms were fed without perturbing conservation.
    let snap = server.stats();
    assert_eq!(snap.queue_wait_buckets.iter().sum::<u64>(), 9);
    assert_eq!(snap.service_buckets.iter().sum::<u64>(), 9);
    assert!(snap.is_conserved_at_rest());

    // The flight recorder holds each executed batch whole, published from
    // inside the allocation-free window above: exactly one span per stage
    // and one RUN, a NODE span per node of the bucket graph, all tagged
    // with the batch's trace, plus per-request queue spans and fan-in
    // markers under the requests' own traces.
    use temco_obs::{is_batch_trace, kind, NO_TRACE};
    let spans = server.flight().snapshot();
    let mut batches: Vec<u64> =
        spans.iter().filter(|e| e.kind == kind::BATCH_RUN).map(|e| e.trace).collect();
    batches.dedup();
    assert_eq!(batches.len(), 3, "one batch trace per executed batch");
    let nodes = tiny_mlp().nodes.len();
    for bt in batches {
        assert!(is_batch_trace(bt));
        let count = |k: u32| spans.iter().filter(|e| e.kind == k && e.trace == bt).count();
        for k in [kind::GATHER, kind::STAGE, kind::BATCH_RUN, kind::SCATTER, kind::RUN] {
            assert_eq!(count(k), 1, "expected one {} span per executed batch", kind::label(k));
        }
        assert_eq!(count(kind::NODE), nodes, "one NODE span per node of the bucket graph");
    }
    assert_eq!(spans.iter().filter(|e| e.kind == kind::QUEUE && e.trace != NO_TRACE).count(), 9);
    assert_eq!(spans.iter().filter(|e| e.kind == kind::MEMBER).count(), 9);
    assert!(spans.iter().all(|e| e.trace != NO_TRACE), "every worker span is attributed");
    assert_eq!(snap.spans_dropped, 0, "the default ring must not wrap in this test");
}
