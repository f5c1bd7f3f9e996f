//! The six workloads. `BENCHMARK.json` carries each one's name and reason;
//! everything else that defines it — model, batch, level, loop kind, round
//! size, tail percentile, latency limit — is fixed here, so a result is
//! comparable across commits only because none of it is an option.

use std::time::Duration;

use temco::{Compiler, CompilerOptions, DecomposeOptions, OptLevel};
use temco_ir::Graph;
use temco_models::{EncoderId, ModelConfig, ModelId};

/// A model at a fixed size and optimization level.
#[derive(Clone, Copy)]
pub enum Model {
    /// A zoo CNN at 64×64 input, 10 classes (`ModelConfig::small`).
    Cnn { id: ModelId, batch: usize, level: OptLevel },
    /// `encoder_small` with the per-layer matrix selector switched on.
    Encoder { batch: usize },
}

impl Model {
    pub fn name(&self) -> &'static str {
        match self {
            Model::Cnn { id, .. } => id.name(),
            Model::Encoder { .. } => EncoderId::EncoderSmall.name(),
        }
    }

    pub fn level(&self) -> OptLevel {
        match self {
            Model::Cnn { level, .. } => *level,
            Model::Encoder { .. } => OptLevel::SkipOptFusion,
        }
    }

    /// Weights come from the zoo's own fixed seed, never from `--seed`:
    /// the byte metrics must repeat exactly across seeds.
    pub fn build(&self) -> Graph {
        match *self {
            Model::Cnn { id, batch, .. } => {
                id.build(&ModelConfig { batch, ..ModelConfig::small() })
            }
            Model::Encoder { batch } => {
                let id = EncoderId::EncoderSmall;
                id.build(&temco_models::EncoderConfig { batch, ..id.config() })
            }
        }
    }

    pub fn compiler_options(&self) -> CompilerOptions {
        let decompose = match self {
            Model::Cnn { .. } => DecomposeOptions::default(),
            // He/Xavier-random weights are full rank, so only an error
            // budget of 1 lets the ratio pick the ranks, as the repo's own
            // encoder figures do.
            Model::Encoder { .. } => DecomposeOptions {
                compress_matrices: true,
                matrix_error_budget: 1.0,
                ..Default::default()
            },
        };
        CompilerOptions { decompose, ..Compiler::default().options().clone() }
    }
}

/// How ops are issued.
#[derive(Clone, Copy)]
pub enum Kind {
    /// One caller thread; the next `Engine::run` starts when the last ended.
    Closed { model: Model },
    /// One op = compile one model of the zoo; a round compiles each once.
    CompileZoo,
    /// Requests arrive on a seeded Poisson schedule at `rate_rps` whatever
    /// the server does, on one pipelined connection.
    Open { model: Model, rate_rps: f64, max_inflight: usize, deadline_ms: u32 },
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Ops per round. Latency percentiles are taken per round and the
    /// median round is reported, so one stall cannot set the tail.
    pub round_ops: usize,
    /// The highest percentile with at least ten samples beyond it in a round.
    pub tail_pct: f64,
    /// An op slower than this misses the latency limit.
    pub limit: Duration,
}

/// What `compile_zoo` compiles each pass.
pub const ZOO: [Model; 4] = [
    Model::Cnn { id: ModelId::Alexnet, batch: 1, level: OptLevel::Fusion },
    Model::Cnn { id: ModelId::Resnet18, batch: 1, level: OptLevel::SkipOptFusion },
    Model::Cnn { id: ModelId::UnetSmall, batch: 4, level: OptLevel::SkipOptFusion },
    Model::Encoder { batch: 8 },
];

const SERVED: Model = Model::Cnn { id: ModelId::Alexnet, batch: 1, level: OptLevel::Fusion };

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cnn_b1",
        kind: Kind::Closed {
            model: Model::Cnn { id: ModelId::Resnet18, batch: 1, level: OptLevel::SkipOptFusion },
        },
        round_ops: 250,
        tail_pct: 95.0,
        limit: Duration::from_millis(8),
    },
    Workload {
        name: "unet_b4",
        kind: Kind::Closed {
            model: Model::Cnn { id: ModelId::UnetSmall, batch: 4, level: OptLevel::SkipOptFusion },
        },
        round_ops: 50,
        tail_pct: 80.0,
        limit: Duration::from_millis(80),
    },
    Workload {
        name: "encoder_b8",
        kind: Kind::Closed { model: Model::Encoder { batch: 8 } },
        round_ops: 120,
        tail_pct: 90.0,
        limit: Duration::from_millis(40),
    },
    Workload {
        name: "compile_zoo",
        kind: Kind::CompileZoo,
        round_ops: ZOO.len(),
        tail_pct: 100.0,
        limit: Duration::from_secs(5),
    },
    Workload {
        name: "serve_steady",
        kind: Kind::Open { model: SERVED, rate_rps: 300.0, max_inflight: 32, deadline_ms: 0 },
        round_ops: 250,
        tail_pct: 95.0,
        limit: Duration::from_millis(20),
    },
    Workload {
        name: "serve_overload",
        kind: Kind::Open { model: SERVED, rate_rps: 2200.0, max_inflight: 256, deadline_ms: 50 },
        round_ops: 1100,
        tail_pct: 99.0,
        limit: Duration::from_millis(60),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
