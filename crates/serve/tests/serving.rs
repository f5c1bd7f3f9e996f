//! Behavioral tests for the serving subsystem: dynamic batching
//! correctness against a single-sample reference engine, backpressure,
//! deadlines, and graceful drain. All batching assertions use
//! `workers: 0` + `Server::manual_worker` so batch composition is
//! deterministic — jobs are pre-queued, then one `step` gathers them.

use std::time::Duration;

use temco_ir::Graph;
use temco_runtime::{CompiledGraph, Engine};
use temco_serve::{ServeConfig, ServeError, Server, StepOutcome};
use temco_tensor::Tensor;

/// A small MLP — cheap enough that every test compiles its server's plan
/// in milliseconds, structurally enough (two GEMMs + ReLU) to catch
/// batching/staging/scatter mistakes.
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

fn manual_config(max_batch: usize, queue_cap: usize) -> ServeConfig {
    ServeConfig {
        workers: 0,
        max_batch,
        // Zero delay: a step gathers exactly what is already queued.
        max_delay: Duration::ZERO,
        queue_cap,
        default_deadline: None,
        ..ServeConfig::default()
    }
}

/// Per-sample reference output from a plain batch-1 engine.
fn reference_outputs(samples: &[Tensor]) -> Vec<Tensor> {
    let mut engine = Engine::new(tiny_mlp()).unwrap();
    samples.iter().map(|s| engine.run(std::slice::from_ref(s)).unwrap()[0].clone()).collect()
}

#[test]
fn gathered_batch_matches_single_sample_reference() {
    let server = Server::new(tiny_mlp(), manual_config(8, 64)).unwrap();
    let samples: Vec<Tensor> =
        (0..5).map(|i| Tensor::rand_uniform(&[1, 6], 100 + i, -1.0, 1.0)).collect();
    let want = reference_outputs(&samples);

    let tickets: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();
    let mut worker = server.manual_worker();
    // All five queued jobs coalesce into one batch: five rows of the
    // batch-8 plan.
    assert_eq!(worker.step(), StepOutcome::Ran(5));
    for (t, w) in tickets.into_iter().zip(&want) {
        let got = t.wait().unwrap();
        assert_eq!(got.shape(), &[1, 3]);
        assert!(got.all_close(w, 1e-5), "batched row diverged from reference");
    }

    let snap = server.stats();
    assert_eq!(snap.submitted, 5);
    assert_eq!(snap.completed, 5);
    assert_eq!(snap.batches, 1);
    assert_eq!(snap.batch_size_hist[4], 1, "one batch of size 5");
    assert!((snap.mean_batch_size() - 5.0).abs() < 1e-9);
    assert_eq!(snap.queue_depth, 0);
    assert!(snap.slab_bytes_per_worker > 0);
}

#[test]
fn one_plan_at_max_batch_is_the_whole_slab() {
    for max_batch in [8, 6, 1] {
        let server = Server::new(tiny_mlp(), manual_config(max_batch, 8)).unwrap();
        assert_eq!(server.buckets(), &[max_batch]);
        let plan = CompiledGraph::new(tiny_mlp().rebatch(max_batch)).unwrap();
        assert_eq!(server.stats().slab_bytes_per_worker, plan.slab_bytes());
        assert_eq!(server.manual_worker().slab_bytes(), plan.slab_bytes());
    }
}

#[test]
fn a_batch_counts_the_bytes_its_rows_moved() {
    // Concat-free, so every copy the plan makes scales with the batch: a
    // batch of 3 on the batch-8 plan moves what a batch-3 plan moves.
    let server = Server::new(tiny_mlp(), manual_config(8, 64)).unwrap();
    let mut worker = server.manual_worker();
    for i in 0..3 {
        server.submit(Tensor::rand_uniform(&[1, 6], 600 + i, -1.0, 1.0)).unwrap();
    }
    assert_eq!(worker.step(), StepOutcome::Ran(3));
    let want = CompiledGraph::new(tiny_mlp().rebatch(3)).unwrap().plan().bytes_moved;
    assert!(want > 0);
    assert_eq!(server.stats().bytes_moved, want as u64);
}

#[test]
fn oversubmitted_queue_splits_into_max_batch_chunks() {
    let server = Server::new(tiny_mlp(), manual_config(4, 64)).unwrap();
    let samples: Vec<Tensor> =
        (0..6).map(|i| Tensor::rand_uniform(&[1, 6], 200 + i, -1.0, 1.0)).collect();
    let want = reference_outputs(&samples);
    let tickets: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();

    let mut worker = server.manual_worker();
    assert_eq!(worker.step(), StepOutcome::Ran(4), "first chunk caps at max_batch");
    assert_eq!(worker.step(), StepOutcome::Ran(2), "the remainder runs two rows");
    assert_eq!(worker.step(), StepOutcome::Idle);
    for (t, w) in tickets.into_iter().zip(&want) {
        assert!(t.wait().unwrap().all_close(w, 1e-5));
    }
    let snap = server.stats();
    assert_eq!(snap.batches, 2);
    assert_eq!(snap.batch_size_hist[3], 1);
    assert_eq!(snap.batch_size_hist[1], 1);
}

#[test]
fn full_queue_rejects_new_submissions_without_dropping_queued_ones() {
    let server = Server::new(tiny_mlp(), manual_config(8, 2)).unwrap();
    let sample = Tensor::rand_uniform(&[1, 6], 1, -1.0, 1.0);
    let t1 = server.submit(sample.clone()).unwrap();
    let t2 = server.submit(sample.clone()).unwrap();
    // Third submission hits backpressure: an explicit, synchronous reject.
    assert_eq!(server.submit(sample.clone()).unwrap_err(), ServeError::QueueFull);

    // The queued two are intact and still execute.
    let mut worker = server.manual_worker();
    assert_eq!(worker.step(), StepOutcome::Ran(2));
    assert!(t1.wait().is_ok());
    assert!(t2.wait().is_ok());

    let snap = server.stats();
    assert_eq!(snap.submitted, 2);
    assert_eq!(snap.rejected_full, 1);
    assert_eq!(snap.completed, 2);

    // Capacity freed: submission works again.
    assert!(server.submit(sample).is_ok());
}

#[test]
fn expired_deadline_fails_the_request_without_executing_it() {
    let server = Server::new(tiny_mlp(), manual_config(8, 8)).unwrap();
    let sample = Tensor::rand_uniform(&[1, 6], 1, -1.0, 1.0);
    let doomed = server.submit_with_deadline(sample.clone(), Some(Duration::ZERO)).unwrap();
    let alive = server.submit(sample).unwrap();
    std::thread::sleep(Duration::from_millis(2));

    let mut worker = server.manual_worker();
    // The expired job is shed pre-execution; the live one still runs.
    assert_eq!(worker.step(), StepOutcome::Ran(1));
    assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExceeded);
    assert!(alive.wait().is_ok());

    let snap = server.stats();
    assert_eq!(snap.deadline_expired, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.batches, 1, "only the live request cost an engine run");
}

#[test]
fn batch_of_only_expired_requests_runs_nothing() {
    let server = Server::new(tiny_mlp(), manual_config(8, 8)).unwrap();
    let sample = Tensor::rand_uniform(&[1, 6], 1, -1.0, 1.0);
    let t = server.submit_with_deadline(sample, Some(Duration::ZERO)).unwrap();
    std::thread::sleep(Duration::from_millis(2));
    let mut worker = server.manual_worker();
    assert_eq!(worker.step(), StepOutcome::Idle, "nothing left to execute");
    assert_eq!(t.wait().unwrap_err(), ServeError::DeadlineExceeded);
    assert_eq!(server.stats().batches, 0);
}

#[test]
fn shutdown_drains_queued_work_and_rejects_new_work() {
    // With real workers, shutdown lets them drain: everything accepted
    // before the close still completes.
    let server = Server::new(
        tiny_mlp(),
        ServeConfig { workers: 1, max_batch: 8, queue_cap: 8, ..ServeConfig::default() },
    )
    .unwrap();
    let samples: Vec<Tensor> =
        (0..3).map(|i| Tensor::rand_uniform(&[1, 6], 300 + i, -1.0, 1.0)).collect();
    let want = reference_outputs(&samples);
    let tickets: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();

    server.shutdown();
    assert!(server.is_shutting_down());
    // New work is refused...
    assert_eq!(server.submit(samples[0].clone()).unwrap_err(), ServeError::ShuttingDown);
    // ...but everything accepted before the close still completed.
    for (t, w) in tickets.into_iter().zip(&want) {
        assert!(t.wait().unwrap().all_close(w, 1e-5));
    }

    let snap = server.stats();
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.rejected_closed, 1);
    assert!(snap.is_conserved_at_rest(), "stats must balance after shutdown: {snap:?}");
}

#[test]
fn shutdown_with_no_workers_fails_queued_tickets_instead_of_hanging() {
    // Regression: with workers == 0 there is nobody to drain the queue, so
    // shutdown used to leave queued slots Pending forever and any
    // `Ticket::wait` hung. Now the undrained jobs fail with ShuttingDown.
    let server = Server::new(tiny_mlp(), manual_config(8, 8)).unwrap();
    let tickets: Vec<_> = (0..3)
        .map(|i| server.submit(Tensor::rand_uniform(&[1, 6], 300 + i, -1.0, 1.0)).unwrap())
        .collect();

    server.shutdown();
    for t in tickets {
        // Bounded wait: a regression here hangs the test rather than failing.
        match t.wait_timeout(Duration::from_secs(10)) {
            Ok(res) => assert_eq!(res.unwrap_err(), ServeError::ShuttingDown),
            Err(_) => panic!("ticket still pending after shutdown with no workers"),
        }
    }

    let snap = server.stats();
    assert_eq!(snap.failed_shutdown, 3);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.queue_depth, 0);
    assert!(snap.is_conserved_at_rest(), "stats must balance after shutdown: {snap:?}");
}

#[test]
fn wrong_sample_shape_is_named_and_rejected_at_submit() {
    let server = Server::new(tiny_mlp(), manual_config(8, 8)).unwrap();
    match server.submit(Tensor::zeros(&[2, 6])).unwrap_err() {
        ServeError::InputShape { name, expected, got } => {
            assert_eq!(name, "x");
            assert_eq!(expected, vec![1, 6]);
            assert_eq!(got, vec![2, 6]);
        }
        other => panic!("expected InputShape, got {other:?}"),
    }
    assert_eq!(server.stats().submitted, 0);
}

#[test]
fn wait_timeout_hands_the_ticket_back() {
    let server = Server::new(tiny_mlp(), manual_config(8, 8)).unwrap();
    let ticket = server.submit(Tensor::rand_uniform(&[1, 6], 1, -1.0, 1.0)).unwrap();
    // No worker has run: the wait times out and returns the ticket.
    let ticket = match ticket.wait_timeout(Duration::from_millis(1)) {
        Err(t) => t,
        Ok(_) => panic!("nothing has executed yet"),
    };
    assert!(!ticket.is_done());
    assert_eq!(server.manual_worker().step(), StepOutcome::Ran(1));
    assert!(ticket.is_done());
    assert!(ticket.wait().is_ok());
}

#[test]
fn non_power_of_two_max_batch_agrees_with_stats() {
    // A full batch of 6 must land in the histogram's top slot (index
    // size − 1): Stats::new and the plan have to agree on what the
    // largest executed size is.
    let server = Server::new(tiny_mlp(), manual_config(6, 64)).unwrap();
    assert_eq!(server.buckets(), &[6]);

    let samples: Vec<Tensor> =
        (0..6).map(|i| Tensor::rand_uniform(&[1, 6], 500 + i, -1.0, 1.0)).collect();
    let want = reference_outputs(&samples);
    let tickets: Vec<_> = samples.iter().map(|s| server.submit(s.clone()).unwrap()).collect();
    let mut worker = server.manual_worker();
    assert_eq!(worker.step(), StepOutcome::Ran(6));
    for (t, w) in tickets.into_iter().zip(&want) {
        assert!(t.wait().unwrap().all_close(w, 1e-5));
    }

    let snap = server.stats();
    assert_eq!(snap.batch_size_hist.len(), 6, "histogram sized to max_batch");
    assert_eq!(snap.batch_size_hist[5], 1, "batch of 6 lands in the top slot");
    assert!((snap.mean_batch_size() - 6.0).abs() < 1e-9);

    // A gathered batch of 3 runs three rows and records its size.
    let tickets: Vec<_> = samples[..3].iter().map(|s| server.submit(s.clone()).unwrap()).collect();
    assert_eq!(worker.step(), StepOutcome::Ran(3));
    for (t, w) in tickets.into_iter().zip(&want) {
        assert!(t.wait().unwrap().all_close(w, 1e-5));
    }
    let snap = server.stats();
    assert_eq!(snap.batch_size_hist[2], 1);
    // Occupancy is the mean batch over max_batch: (6 + 3) / 2 of 6.
    assert!((snap.batch_occupancy() - 0.75).abs() < 1e-9);
}

#[test]
fn degenerate_configs_are_typed_build_errors() {
    // These used to be assert!/panic paths; a serving frontend needs a
    // Result it can report, not a crash.
    let cfg = ServeConfig { max_batch: 0, ..ServeConfig::default() };
    assert!(Server::new(tiny_mlp(), cfg).is_err());
    let cfg = ServeConfig { queue_cap: 0, ..ServeConfig::default() };
    assert!(Server::new(tiny_mlp(), cfg).is_err());

    // A graph whose batch dimension isn't first collapses under rebatch:
    // the scalar input makes re-batching fail with a typed Rebatch error.
    let mut g = Graph::new();
    let x = g.input(&[], "s");
    let r = g.relu(x, "r");
    g.mark_output(r);
    let err = match Server::new(g, ServeConfig::default()) {
        Err(e) => e,
        Ok(_) => panic!("scalar-input graph must not be servable"),
    };
    assert!(err.to_string().contains("re-batching"), "unexpected error: {err}");
}

#[test]
fn multi_io_graphs_are_rejected_at_build() {
    let mut g = Graph::new();
    let a = g.input(&[1, 4], "a");
    let b = g.input(&[1, 4], "b");
    let s = g.add(&[a, b], "sum");
    g.mark_output(s);
    g.infer_shapes();
    assert!(Server::new(g, ServeConfig::default()).is_err());
}

#[test]
fn threaded_server_serves_concurrent_submitters() {
    let cfg = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_delay: Duration::from_millis(1),
        queue_cap: 256,
        default_deadline: None,
        ..ServeConfig::default()
    };
    let server = Server::new(tiny_mlp(), cfg).unwrap();
    let samples: Vec<Tensor> =
        (0..32).map(|i| Tensor::rand_uniform(&[1, 6], 400 + i, -1.0, 1.0)).collect();
    let want = reference_outputs(&samples);

    let mut handles = Vec::new();
    for chunk in samples.chunks(8) {
        let server = server.clone();
        let chunk = chunk.to_vec();
        handles.push(std::thread::spawn(move || {
            chunk.into_iter().map(|s| server.infer(s).unwrap()).collect::<Vec<Tensor>>()
        }));
    }
    let mut got = Vec::new();
    for h in handles {
        got.extend(h.join().unwrap());
    }
    for (g, w) in got.iter().zip(&want) {
        assert!(g.all_close(w, 1e-5));
    }
    server.shutdown();
    let snap = server.stats();
    assert_eq!(snap.completed, 32);
    assert_eq!(snap.submitted, 32);
    assert!(snap.batches >= 8, "32 requests with max_batch 4 need ≥ 8 batches");
}
