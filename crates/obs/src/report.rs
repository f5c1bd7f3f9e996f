//! Engine profiling reports: per-node kernel time and slab attribution.
//!
//! An [`EngineReport`] is plain data — the runtime layer builds one from
//! the `RUN`/`NODE` spans an engine recorded into a
//! [`crate::ring::Recorder`], the stack's one span ring, plus its compiled
//! graph and allocation plan (this crate knows nothing about graphs or
//! plans), and the CLI renders it. Per-node memory numbers are *static* attribution
//! from the plan: a node's high-water is the furthest slab byte its
//! kernel touches (output end, operand region ends, scratch end), so the
//! maximum over nodes equals the planner's peak and can be cross-checked
//! against the independent invariant checker.

/// Aggregated measurements for one scheduled node.
#[derive(Clone, Debug, Default)]
pub struct NodeStat {
    /// Schedule index of the node.
    pub index: usize,
    /// Display name (value name or synthesized).
    pub name: String,
    /// Op kind label, e.g. `conv2d` or `fused_tucker2`.
    pub op: String,
    /// Kernel invocations observed (≤ runs when the ring overflowed).
    pub calls: u64,
    /// Total kernel time across observed calls, in ns.
    pub total_ns: u64,
    /// Bytes of the node's output buffer in the slab.
    pub out_bytes: usize,
    /// Furthest slab byte this node's kernel touches (output, operands,
    /// scratch) — max over nodes equals the plan's slab size.
    pub high_water_bytes: usize,
    /// Scratch bytes the plan carves for this node (0 if none).
    pub scratch_bytes: usize,
    /// Bytes this node copies per run under the plan (input staging,
    /// concat/flatten copies the alias analysis could not eliminate) —
    /// 0 for compute nodes and for copies executed in place.
    pub moved_bytes: usize,
    /// Kernel-schedule label the plan dispatches this node with (`-` for
    /// the hand-tuned default, e.g. `kc256 mc64 nc256` for a tuned GEMM).
    pub schedule: String,
}

impl NodeStat {
    /// Mean kernel time per observed call, in ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// Kernel time rolled up across all nodes of one op kind.
#[derive(Clone, Debug)]
pub struct OpRollup {
    pub op: String,
    pub nodes: usize,
    pub calls: u64,
    pub total_ns: u64,
}

/// A profiling report for an engine over some number of runs.
#[derive(Clone, Debug, Default)]
pub struct EngineReport {
    /// Per-node stats in schedule order.
    pub nodes: Vec<NodeStat>,
    /// Whole-run (`RUN` span) count observed.
    pub runs: u64,
    /// Total wall time of the observed runs, in ns.
    pub total_run_ns: u64,
    /// The plan's slab size in bytes (values + scratch arena).
    pub slab_bytes: usize,
    /// The scratch arena's size in bytes.
    pub scratch_arena_bytes: usize,
    /// Span records lost to ring overflow (0 means full coverage).
    pub dropped_events: u64,
}

impl EngineReport {
    /// Summed per-node kernel time, in ns.
    pub fn kernel_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_ns).sum()
    }

    /// Total bytes copied per run under the plan (sum of per-node
    /// `moved_bytes`).
    pub fn bytes_moved(&self) -> usize {
        self.nodes.iter().map(|n| n.moved_bytes).sum()
    }

    /// Kernel time as a fraction of run wall time (≈1.0 when the node
    /// loop dominates and nothing was dropped).
    pub fn coverage(&self) -> f64 {
        if self.total_run_ns == 0 {
            0.0
        } else {
            self.kernel_ns() as f64 / self.total_run_ns as f64
        }
    }

    /// The `k` slowest nodes by total kernel time, slowest first.
    pub fn top_k(&self, k: usize) -> Vec<&NodeStat> {
        let mut v: Vec<&NodeStat> = self.nodes.iter().collect();
        v.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.index.cmp(&b.index)));
        v.truncate(k);
        v
    }

    /// Kernel time rolled up by op kind, heaviest first.
    pub fn rollup_by_op(&self) -> Vec<OpRollup> {
        let mut rollups: Vec<OpRollup> = Vec::new();
        for n in &self.nodes {
            match rollups.iter_mut().find(|r| r.op == n.op) {
                Some(r) => {
                    r.nodes += 1;
                    r.calls += n.calls;
                    r.total_ns += n.total_ns;
                }
                None => rollups.push(OpRollup {
                    op: n.op.clone(),
                    nodes: 1,
                    calls: n.calls,
                    total_ns: n.total_ns,
                }),
            }
        }
        rollups.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.op.cmp(&b.op)));
        rollups
    }

    /// The node whose kernel reaches furthest into the slab — the peak
    /// of the memory timeline.
    pub fn peak_node(&self) -> Option<&NodeStat> {
        self.nodes.iter().max_by_key(|n| (n.high_water_bytes, usize::MAX - n.index))
    }

    /// `(schedule index, high-water bytes)` per node — the slab-usage
    /// timeline across one run.
    pub fn peak_timeline(&self) -> Vec<(usize, usize)> {
        self.nodes.iter().map(|n| (n.index, n.high_water_bytes)).collect()
    }

    /// Render a fixed-width per-node table (top `k` nodes by kernel
    /// time) followed by the op rollup and totals.
    pub fn render_table(&self, k: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let kernel = self.kernel_ns();
        let _ = writeln!(
            out,
            "{:>4} {:<22} {:<14} {:>7} {:>10} {:>10} {:>6} {:>10} {:>10} {:>10} {:>10} {:<18}",
            "#",
            "node",
            "op",
            "calls",
            "mean µs",
            "total ms",
            "time%",
            "out KiB",
            "hiwater KiB",
            "scratch KiB",
            "moved KiB",
            "schedule"
        );
        for n in self.top_k(k) {
            let _ = writeln!(
                out,
                "{:>4} {:<22} {:<14} {:>7} {:>10.1} {:>10.2} {:>5.1}% {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:<18}",
                n.index,
                truncate(&n.name, 22),
                truncate(&n.op, 14),
                n.calls,
                n.mean_ns() as f64 / 1e3,
                n.total_ns as f64 / 1e6,
                if kernel == 0 { 0.0 } else { 100.0 * n.total_ns as f64 / kernel as f64 },
                n.out_bytes as f64 / 1024.0,
                n.high_water_bytes as f64 / 1024.0,
                n.scratch_bytes as f64 / 1024.0,
                n.moved_bytes as f64 / 1024.0,
                truncate(if n.schedule.is_empty() { "-" } else { &n.schedule }, 18),
            );
        }
        let _ = writeln!(out, "\nby op kind:");
        for r in self.rollup_by_op() {
            let _ = writeln!(
                out,
                "  {:<14} {:>3} nodes {:>7} calls {:>10.2} ms {:>5.1}%",
                truncate(&r.op, 14),
                r.nodes,
                r.calls,
                r.total_ns as f64 / 1e6,
                if kernel == 0 { 0.0 } else { 100.0 * r.total_ns as f64 / kernel as f64 },
            );
        }
        let _ = writeln!(
            out,
            "\nruns {} · wall {:.2} ms · kernels {:.2} ms ({:.1}% coverage) · slab {:.1} KiB (scratch {:.1} KiB) · moved {:.1} KiB/run · dropped spans {}",
            self.runs,
            self.total_run_ns as f64 / 1e6,
            kernel as f64 / 1e6,
            100.0 * self.coverage(),
            self.slab_bytes as f64 / 1024.0,
            self.scratch_arena_bytes as f64 / 1024.0,
            self.bytes_moved() as f64 / 1024.0,
            self.dropped_events,
        );
        if let Some(peak) = self.peak_node() {
            let _ = writeln!(
                out,
                "peak slab touch: node {} ({}) at {:.1} KiB",
                peak.index,
                truncate(&peak.name, 22),
                peak.high_water_bytes as f64 / 1024.0,
            );
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineReport {
        EngineReport {
            nodes: vec![
                NodeStat {
                    index: 0,
                    name: "conv1".into(),
                    op: "conv2d".into(),
                    calls: 10,
                    total_ns: 5_000_000,
                    out_bytes: 4096,
                    high_water_bytes: 8192,
                    scratch_bytes: 1024,
                    moved_bytes: 0,
                    schedule: "kc256 mc64 nc256".into(),
                },
                NodeStat {
                    index: 1,
                    name: "relu1".into(),
                    op: "relu".into(),
                    calls: 10,
                    total_ns: 500_000,
                    out_bytes: 4096,
                    high_water_bytes: 16384,
                    scratch_bytes: 0,
                    moved_bytes: 4096,
                    schedule: String::new(),
                },
                NodeStat {
                    index: 2,
                    name: "conv2".into(),
                    op: "conv2d".into(),
                    calls: 10,
                    total_ns: 7_000_000,
                    out_bytes: 2048,
                    high_water_bytes: 12288,
                    scratch_bytes: 2048,
                    moved_bytes: 0,
                    schedule: String::new(),
                },
            ],
            runs: 10,
            total_run_ns: 13_000_000,
            slab_bytes: 16384,
            scratch_arena_bytes: 4096,
            dropped_events: 0,
        }
    }

    #[test]
    fn totals_topk_and_rollups() {
        let r = sample();
        assert_eq!(r.kernel_ns(), 12_500_000);
        assert_eq!(r.bytes_moved(), 4096);
        assert!((r.coverage() - 12.5 / 13.0).abs() < 1e-9);
        let top = r.top_k(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].index, 2);
        assert_eq!(top[1].index, 0);
        let rollup = r.rollup_by_op();
        assert_eq!(rollup[0].op, "conv2d");
        assert_eq!(rollup[0].nodes, 2);
        assert_eq!(rollup[0].total_ns, 12_000_000);
        assert_eq!(rollup[1].op, "relu");
    }

    #[test]
    fn peak_node_matches_the_plan_peak() {
        let r = sample();
        let peak = r.peak_node().unwrap();
        assert_eq!(peak.index, 1);
        assert_eq!(peak.high_water_bytes, r.slab_bytes);
        assert_eq!(r.peak_timeline(), vec![(0, 8192), (1, 16384), (2, 12288)]);
    }

    #[test]
    fn table_renders_all_sections() {
        let r = sample();
        let t = r.render_table(10);
        assert!(t.contains("conv2"));
        assert!(t.contains("schedule"));
        assert!(t.contains("kc256 mc64 nc256"));
        assert!(t.contains("by op kind:"));
        assert!(t.contains("peak slab touch: node 1"));
        assert!(t.contains("dropped spans 0"));
        // Empty report should not panic.
        let _ = EngineReport::default().render_table(5);
    }
}
