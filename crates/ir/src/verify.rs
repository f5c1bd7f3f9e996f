//! Structural graph verification.

use std::collections::HashSet;

use crate::graph::Graph;
use crate::op::Op;

/// Check SSA well-formedness of a graph.
///
/// Verified properties:
/// * every value id is in range, and every value is defined exactly once;
/// * every operand is defined *before* (at a lower schedule index than) its
///   use — the node list must be a valid topological order;
/// * weight references are in range;
/// * graph inputs are produced by `Input` nodes and outputs are defined;
/// * operand arity matches the operator.
///
/// Returns a list of human-readable violations (empty ⇔ valid).
pub fn verify(g: &Graph) -> Vec<String> {
    let mut errors = Vec::new();
    let mut defined: HashSet<u32> = HashSet::new();

    for (i, node) in g.nodes.iter().enumerate() {
        for v in &node.inputs {
            if v.0 as usize >= g.values.len() {
                errors.push(format!("node {i} '{}' uses unknown value {:?}", node.name, v));
            } else if !defined.contains(&v.0) {
                errors.push(format!(
                    "node {i} '{}' uses value '{}' before its definition",
                    node.name, g.values[v.0 as usize].name
                ));
            }
        }
        if node.output.0 as usize >= g.values.len() {
            errors
                .push(format!("node {i} '{}' defines unknown value {:?}", node.name, node.output));
            continue;
        }
        if !defined.insert(node.output.0) {
            errors.push(format!(
                "node {i} '{}' redefines value '{}' (SSA violation)",
                node.name, g.values[node.output.0 as usize].name
            ));
        }
        let arity_ok = match &node.op {
            Op::Input => node.inputs.is_empty(),
            Op::Add | Op::Concat => node.inputs.len() >= 2,
            Op::MatMul { .. } => node.inputs.len() == 2,
            _ => node.inputs.len() == 1,
        };
        if !arity_ok {
            errors.push(format!(
                "node {i} '{}' ({}) has wrong arity {}",
                node.name,
                node.op.mnemonic(),
                node.inputs.len()
            ));
        }
        // Softmax normalizes the last dimension; a rank-<2 value has no
        // row structure, and historically a rank-4 value would have been
        // silently softmaxed over the wrong axis — enforce rank here so
        // the executor never sees an ambiguous softmax. Shapes may be
        // absent before inference; only a *known* bad rank is an error.
        if matches!(node.op, Op::Softmax) {
            if let Some(shape) = &g.values[node.output.0 as usize].shape {
                if shape.len() < 2 {
                    errors.push(format!(
                        "node {i} '{}' (softmax) output has rank {} < 2 — \
                         last-dim softmax needs row structure",
                        node.name,
                        shape.len()
                    ));
                }
            }
        }
        if let Op::MatMul { transpose_a: true, transpose_b: true } = node.op {
            errors.push(format!(
                "node {i} '{}' (matmul) sets both transpose flags — unsupported",
                node.name
            ));
        }
        for w in node.op.weight_ids() {
            if w.0 as usize >= g.weights.len() {
                errors.push(format!("node {i} '{}' references missing weight {}", node.name, w.0));
            }
        }
    }

    for v in &g.inputs {
        match g.producer(*v) {
            Some(i) if matches!(g.nodes[i].op, Op::Input) => {}
            _ => errors.push(format!("graph input {v:?} is not produced by an Input node")),
        }
    }
    for v in &g.outputs {
        if !defined.contains(&v.0) {
            errors.push(format!("graph output {v:?} is never defined"));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, Node, ValueId};
    use crate::op::Op;
    use temco_tensor::Tensor;

    #[test]
    fn valid_graph_has_no_errors() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4], "x");
        let c = g.conv2d(x, Tensor::zeros(&[2, 2, 1, 1]), None, 1, 0, "c");
        let r = g.relu(c, "r");
        g.mark_output(r);
        assert!(verify(&g).is_empty());
    }

    #[test]
    fn detects_use_before_def() {
        let mut g = Graph::new();
        let phantom = g.fresh_value("phantom");
        let out = g.fresh_value("out");
        g.nodes.push(Node {
            op: Op::Activation(crate::op::ActKind::Relu),
            inputs: vec![phantom],
            output: out,
            name: "r".into(),
        });
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("before its definition")), "{errs:?}");
    }

    #[test]
    fn detects_out_of_range_output() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4], "x");
        g.nodes.push(Node {
            op: Op::Softmax,
            inputs: vec![x],
            output: ValueId(99),
            name: "sm".into(),
        });
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("defines unknown value")), "{errs:?}");
    }

    #[test]
    fn detects_redefinition() {
        let mut g = Graph::new();
        let x = g.input(&[1], "x");
        g.nodes.push(Node {
            op: Op::Activation(crate::op::ActKind::Relu),
            inputs: vec![x],
            output: x, // redefines the input value
            name: "bad".into(),
        });
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("SSA violation")), "{errs:?}");
    }

    #[test]
    fn detects_wrong_arity() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4], "x");
        let out = g.fresh_value("out");
        g.nodes.push(Node { op: Op::Add, inputs: vec![x], output: out, name: "add1".into() });
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("wrong arity")), "{errs:?}");
    }

    #[test]
    fn detects_rank_deficient_softmax() {
        let mut g = Graph::new();
        let x = g.input(&[8], "x");
        let s = g.softmax(x, "sm");
        g.mark_output(s);
        // Shape inference propagates the 1-D shape; verify must reject it.
        g.values[s.0 as usize].shape = Some(vec![8]);
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("rank 1 < 2")), "{errs:?}");
        // Without an inferred shape the rule stays silent (pre-inference
        // graphs are still structurally verifiable).
        g.values[s.0 as usize].shape = None;
        assert!(verify(&g).is_empty());
    }

    #[test]
    fn detects_matmul_arity_and_double_transpose() {
        let mut g = Graph::new();
        let a = g.input(&[2, 3, 4], "a");
        let b = g.input(&[2, 4, 5], "b");
        let m = g.matmul(a, b, false, false, "mm");
        g.mark_output(m);
        assert!(verify(&g).is_empty());
        // Wrong arity.
        let bad = g.fresh_value("bad");
        g.nodes.push(Node {
            op: Op::MatMul { transpose_a: false, transpose_b: false },
            inputs: vec![a],
            output: bad,
            name: "mm1".into(),
        });
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("wrong arity")), "{errs:?}");
        g.nodes.pop();
        g.values.pop();
        // Both transpose flags.
        let tt = g.fresh_value("tt");
        g.nodes.push(Node {
            op: Op::MatMul { transpose_a: true, transpose_b: true },
            inputs: vec![a, b],
            output: tt,
            name: "mmtt".into(),
        });
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("both transpose flags")), "{errs:?}");
    }

    #[test]
    fn detects_undefined_output() {
        let mut g = Graph::new();
        g.outputs.push(ValueId(99));
        g.values.resize_with(100, Default::default);
        let errs = verify(&g);
        assert!(errs.iter().any(|e| e.contains("never defined")), "{errs:?}");
    }
}
