//! Rounds of timed ops and the end-to-end metrics made from them.

use temco_ir::Graph;
use temco_runtime::{plan_memory, CompiledGraph};

use crate::report::Metrics;
use crate::stats::{median, peak_rss_mib, percentile};
use crate::workload::Workload;

/// One round: a fixed number of consecutive ops.
#[derive(Default)]
pub struct Round {
    /// Seconds from the previous round's last completion to this round's.
    pub wall_s: f64,
    /// Latency in seconds of each op that completed with a correct output.
    pub latencies: Vec<f64>,
    pub attempted: u64,
    /// Errored, unanswered, or answered wrongly. A well-formed refusal
    /// (`QUEUE_FULL`, `DEADLINE_EXCEEDED`) is neither failed nor correct.
    pub failed: u64,
    /// Correct and within the workload's latency limit.
    pub within_limit: u64,
}

impl Round {
    /// Account one op that was answered (not refused).
    pub fn record(&mut self, workload: &Workload, latency_s: f64, correct: bool) {
        self.attempted += 1;
        if correct {
            self.latencies.push(latency_s);
            self.within_limit += u64::from(latency_s <= workload.limit.as_secs_f64());
        } else {
            self.failed += 1;
        }
    }

    /// Account one op the server refused in a well-formed reply.
    pub fn refuse(&mut self) {
        self.attempted += 1;
    }

    /// Correct ops per second (0 for a round in which nothing was answered).
    pub fn throughput(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.latencies.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Correct ops per second of the median round.
pub fn throughput(rounds: &[Round]) -> f64 {
    median(&rounds.iter().map(Round::throughput).collect::<Vec<_>>())
}

pub fn attempted(rounds: &[Round]) -> u64 {
    rounds.iter().map(|r| r.attempted).sum()
}

pub fn failed(rounds: &[Round]) -> u64 {
    rounds.iter().map(|r| r.failed).sum()
}

/// The static memory side of the trade, summed over the workload's models.
#[derive(Default)]
pub struct Bytes {
    pub slab: usize,
    pub internal_peak: usize,
    pub weight: usize,
    pub moved_per_op: usize,
}

impl Bytes {
    /// Add one compiled model; `slab` is passed separately because a server
    /// holds one slab per batch bucket.
    pub fn add(&mut self, compiled: &CompiledGraph, slab: usize) {
        let g: &Graph = compiled.graph();
        self.slab += slab;
        self.internal_peak += plan_memory(g).peak_internal_bytes;
        self.weight += g.weight_bytes();
        self.moved_per_op += compiled.plan().bytes_moved;
    }
}

/// Every end-to-end metric. Each timed metric is taken per round and the
/// median round reported: the box stalls for tens of milliseconds every few
/// seconds, and a stall should cost one round, not set the result.
pub fn end_to_end(
    m: &mut Metrics,
    workload: &Workload,
    rounds: &[Round],
    setup_seconds: &[f64],
    bytes: &Bytes,
) {
    let per_round = |pct: f64| {
        let rounds: Vec<f64> = rounds
            .iter()
            .filter(|r| !r.latencies.is_empty())
            .map(|r| percentile(&r.latencies, pct) * 1e3)
            .collect();
        if rounds.is_empty() {
            0.0
        } else {
            median(&rounds)
        }
    };
    let slo_met: Vec<f64> =
        rounds.iter().map(|r| r.within_limit as f64 / r.attempted as f64).collect();
    m.set("setup_s", median(setup_seconds));
    m.set("throughput_ops_s", throughput(rounds));
    m.set("latency_p50_ms", per_round(50.0));
    m.set("latency_tail_ms", per_round(workload.tail_pct));
    m.set("slo_met_frac", median(&slo_met));
    m.set("slab_bytes", bytes.slab as f64);
    m.set("internal_peak_bytes", bytes.internal_peak as f64);
    m.set("weight_bytes", bytes.weight as f64);
    m.set("bytes_moved_per_op", bytes.moved_per_op as f64);
    m.set("peak_rss_mib", peak_rss_mib());
}
