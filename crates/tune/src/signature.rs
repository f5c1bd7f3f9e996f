//! Shape signatures: the graph-side component of a tuning-database key.
//!
//! Two nodes share a signature exactly when their kernels do the same
//! work — same op kind, same operand/weight dimensions, same kernel
//! hyper-parameters. A schedule tuned for one therefore transfers to the
//! other, and the search measures each signature **group** once instead
//! of once per node. The machine-side component is the ISA level
//! ([`temco_tensor::isa_level`]), so one database file can hold entries
//! for several deployment hosts.

use temco_ir::{Graph, Node, Op};

/// `(op kind, shape signature)` for a tunable node, `None` for ops whose
/// kernels have no schedule (activations, pools, adds, …).
pub fn node_signature(g: &Graph, node: &Node) -> Option<(&'static str, String)> {
    match &node.op {
        Op::Conv2d(spec) => {
            let s = g.shape(node.inputs[0]);
            let w = g.weight(spec.weight);
            Some((
                "conv2d",
                format!(
                    "c{}h{}w{}-oc{}k{}x{}-s{}x{}-p{}x{}-g{}",
                    s[1],
                    s[2],
                    s[3],
                    w.dim(0),
                    w.dim(2),
                    w.dim(3),
                    spec.stride.0,
                    spec.stride.1,
                    spec.padding.0,
                    spec.padding.1,
                    spec.groups
                ),
            ))
        }
        Op::ConvTranspose2d { weight, stride, .. } => {
            let s = g.shape(node.inputs[0]);
            let w = g.weight(*weight);
            Some((
                "conv_transpose2d",
                format!(
                    "c{}h{}w{}-oc{}k{}x{}-s{}x{}",
                    s[1],
                    s[2],
                    s[3],
                    w.dim(1),
                    w.dim(2),
                    w.dim(3),
                    stride.0,
                    stride.1
                ),
            ))
        }
        Op::Linear { weight, .. } => {
            let s = g.shape(node.inputs[0]);
            Some(("linear", format!("n{}f{}o{}", s[0], s[1], g.weight(*weight).dim(0))))
        }
        Op::Fused(spec) => {
            let geo = spec.geometry(g, g.shape(node.inputs[0]));
            let pool =
                spec.pool.map_or_else(|| "p0".to_string(), |(_, k, st)| format!("p{k}s{st}"));
            let fc = if geo.fconv { "-fc" } else { "" };
            Some((
                "fused",
                format!(
                    "n{}c{}h{}w{}-cf{}-cr{}-{pool}{fc}",
                    geo.n, geo.c_in, geo.h, geo.w, geo.c_full, geo.c_out
                ),
            ))
        }
        _ => None,
    }
}

/// Full database key for a tunable node on this machine, `None` for
/// untunable ops.
pub fn node_db_key(g: &Graph, node: &Node) -> Option<String> {
    let (op, sig) = node_signature(g, node)?;
    Some(crate::db::db_key(op, &sig, temco_tensor::isa_level()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_tensor::Tensor;

    #[test]
    fn identical_layers_share_a_signature() {
        let mut g = Graph::new();
        let x = g.input(&[1, 4, 8, 8], "x");
        let c1 = g.conv2d(x, Tensor::randn(&[4, 4, 3, 3], 1), None, 1, 1, "c1");
        let c2 = g.conv2d(c1, Tensor::randn(&[4, 4, 3, 3], 2), None, 1, 1, "c2");
        let c3 = g.conv2d(c2, Tensor::randn(&[8, 4, 3, 3], 3), None, 1, 1, "c3");
        let r = g.relu(c3, "r");
        g.mark_output(r);
        g.infer_shapes();
        let sigs: Vec<_> = g.nodes.iter().map(|n| node_signature(&g, n)).collect();
        // Input and relu are untunable.
        assert!(sigs[0].is_none());
        assert!(sigs[4].is_none());
        // Same shapes ⇒ same signature; different out-channels ⇒ different.
        assert_eq!(sigs[1], sigs[2]);
        assert_ne!(sigs[1], sigs[3]);
        let key = node_db_key(&g, &g.nodes[1]).unwrap();
        assert!(key.starts_with("conv2d|"));
        assert!(key.ends_with(temco_tensor::isa_level()));
    }
}
