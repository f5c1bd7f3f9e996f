//! SSA graph IR for the TeMCO compiler.
//!
//! A model is an *ordered tensor node list in SSA form* (the exact input
//! representation of the paper's Algorithm 1): `Graph::nodes` is both the
//! def-use structure and the execution schedule. Values (`ValueId`) are the
//! internal tensors; weights live in a side table (`WeightId`) because the
//! paper's memory accounting treats weight tensors and internal tensors as
//! disjoint pools (Section 2.2).
//!
//! The crate provides:
//! * the operator set ([`Op`]) covering all 10 benchmark models plus the
//!   fused operator TeMCO introduces,
//! * shape inference ([`graph::Graph::infer_shapes`]),
//! * the program-dependence-graph views Algorithm 1/2 traverse ([`pdg`]),
//! * tensor liveness analysis ([`mod@liveness`]),
//! * a FLOPs cost model ([`cost`]),
//! * a structural verifier ([`mod@verify`]) and DOT export ([`dot`]).

pub mod cost;
pub mod dot;
pub mod graph;
pub mod liveness;
pub mod op;
pub mod pdg;
pub mod schedule;
pub mod serialize;
pub mod shape;
pub mod verify;

pub use cost::{graph_flops, node_flops};
pub use graph::{Graph, Node, ValueId, ValueInfo, WeightId, WeightStore};
pub use liveness::{liveness, LiveInterval, Liveness};
pub use op::{ActKind, ConvRole, ConvSpec, FconvSpec, FusedGeometry, FusedSpec, Op, PoolKind};
pub use pdg::Pdg;
pub use schedule::{apply_order, memory_aware_order, memory_aware_order_ranked};
pub use serialize::{load_graph, save_graph};
pub use shape::ShapeError;
pub use verify::verify;
