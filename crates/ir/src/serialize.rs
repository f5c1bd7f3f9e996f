//! Binary serialization of graphs (the `.temco` model format).
//!
//! A compiled model is worth saving: decomposition is the expensive part of
//! the pipeline (SVD over every kernel), while loading a factorized graph is
//! instant. The format is a simple versioned little-endian layout written
//! by hand — no external dependencies, no schema drift:
//!
//! ```text
//! magic "TMCO" | version u32
//! weights: count, then per tensor: ndim, dims…, f32 data
//! values:  count, then per value: name, optional shape
//! nodes:   count, then per node: op tag + fields, inputs, output, name
//! inputs / outputs: value-id lists
//! ```

use std::io::{self, Read, Write};

use temco_tensor::Tensor;

use crate::graph::{Graph, Node, ValueId, ValueInfo, WeightId};
use crate::op::{ActKind, ConvRole, ConvSpec, FconvSpec, FusedSpec, Op, PoolKind};

const MAGIC: &[u8; 4] = b"TMCO";
const VERSION: u32 = 1;

/// Serialize `g` to `w`.
pub fn save_graph(g: &Graph, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    put_u32(w, VERSION)?;

    put_u32(w, g.weights.len() as u32)?;
    for t in g.weights.iter() {
        put_u32(w, t.shape().len() as u32)?;
        for &d in t.shape() {
            put_u32(w, d as u32)?;
        }
        for &x in t.data() {
            w.write_all(&x.to_le_bytes())?;
        }
    }

    put_u32(w, g.values.len() as u32)?;
    for v in &g.values {
        put_str(w, &v.name)?;
        match &v.shape {
            None => put_u32(w, u32::MAX)?,
            Some(s) => {
                put_u32(w, s.len() as u32)?;
                for &d in s {
                    put_u32(w, d as u32)?;
                }
            }
        }
    }

    put_u32(w, g.nodes.len() as u32)?;
    for n in &g.nodes {
        put_op(w, &n.op)?;
        put_u32(w, n.inputs.len() as u32)?;
        for v in &n.inputs {
            put_u32(w, v.0)?;
        }
        put_u32(w, n.output.0)?;
        put_str(w, &n.name)?;
    }

    put_u32(w, g.inputs.len() as u32)?;
    for v in &g.inputs {
        put_u32(w, v.0)?;
    }
    put_u32(w, g.outputs.len() as u32)?;
    for v in &g.outputs {
        put_u32(w, v.0)?;
    }
    Ok(())
}

/// Deserialize a graph from `r`, reading it to the end.
///
/// Every count and size in the input is bounded by the bytes that remain
/// (with checked arithmetic), so no input can make the loader allocate
/// more than it could still supply. Every value and weight id is
/// range-checked, and the graph is verified and its shapes re-inferred
/// before it is returned.
///
/// # Errors
/// I/O errors, truncation (`UnexpectedEof`), and `InvalidData` for bad
/// magic, an unsupported version, an out-of-range id or size, or a graph
/// that fails verification or shape inference.
pub fn load_graph(r: &mut impl Read) -> io::Result<Graph> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let r = &mut Input(&bytes);
    if r.take(4)? != MAGIC {
        return Err(invalid("not a .temco model file"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(invalid(format!("unsupported .temco version {version}")));
    }

    // Each count is checked against the smallest encoding of one item.
    let n_weights = r.count(4)?;
    let mut weights = Vec::with_capacity(n_weights);
    for _ in 0..n_weights {
        let dims: Vec<usize> = r.list()?.map(|d| d as usize).collect();
        let numel = checked_numel(&dims).ok_or_else(|| invalid("weight size overflows"))?;
        let data = r.take(numel.checked_mul(4).ok_or_else(|| invalid("weight size overflows"))?)?;
        let data = data.chunks_exact(4).map(|b| f32::from_le_bytes(word(b))).collect();
        weights.push(Tensor::from_vec(&dims, data));
    }

    let n_values = r.count(8)?;
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        let name = r.str()?;
        let tag = r.u32()?;
        let shape = match tag {
            u32::MAX => None,
            rank => Some(r.words(rank as usize)?.map(|d| d as usize).collect()),
        };
        values.push(ValueInfo { name, shape });
    }

    let n_nodes = r.count(16)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let op = get_op(r)?;
        let inputs = r.list()?.map(ValueId).collect();
        let output = ValueId(r.u32()?);
        let name = r.str()?;
        nodes.push(Node { op, inputs, output, name });
    }

    let inputs = r.list()?.map(ValueId).collect();
    let outputs = r.list()?.map(ValueId).collect();

    let mut g = Graph { nodes, values, weights: weights.into(), inputs, outputs };
    // `verify` range-checks every id before anything indexes by one.
    if let Some(e) = crate::verify::verify(&g).into_iter().next() {
        return Err(invalid(e));
    }
    g.try_infer_shapes().map_err(invalid)?;
    if g.values
        .iter()
        .filter_map(|v| v.shape.as_deref())
        .any(|s| checked_numel(s).and_then(|n| n.checked_mul(std::mem::size_of::<f32>())).is_none())
    {
        return Err(invalid("value size overflows"));
    }
    Ok(g)
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn checked_numel(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

fn word(b: &[u8]) -> [u8; 4] {
    b.try_into().expect("4-byte chunk")
}

/// The unread rest of a serialized graph.
struct Input<'a>(&'a [u8]);

impl<'a> Input<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated .temco model"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(word(self.take(4)?)))
    }

    /// A count of items that each take at least `min_bytes` of what remains.
    fn count(&mut self, min_bytes: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.checked_mul(min_bytes).is_none_or(|b| b > self.0.len()) {
            return Err(invalid(format!("count {n} exceeds the remaining input")));
        }
        Ok(n)
    }

    /// `n` consecutive u32s (bounded by the bytes that remain).
    fn words(&mut self, n: usize) -> io::Result<impl Iterator<Item = u32> + 'a> {
        let b = self.take(n.checked_mul(4).ok_or_else(|| invalid("length overflows"))?)?;
        Ok(b.chunks_exact(4).map(|w| u32::from_le_bytes(word(w))))
    }

    /// A u32 count followed by that many u32s.
    fn list(&mut self) -> io::Result<impl Iterator<Item = u32> + 'a> {
        let n = self.count(4)?;
        self.words(n)
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(invalid)
    }

    fn opt_weight(&mut self) -> io::Result<Option<WeightId>> {
        let x = self.u32()?;
        Ok((x != u32::MAX).then_some(WeightId(x)))
    }
}

// ----------------------------------------------------------------------
// primitives
// ----------------------------------------------------------------------

fn put_u32(w: &mut impl Write, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn put_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    put_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn put_opt_w(w: &mut impl Write, x: Option<WeightId>) -> io::Result<()> {
    put_u32(w, x.map_or(u32::MAX, |i| i.0))
}

fn act_tag(a: ActKind) -> u32 {
    match a {
        ActKind::Relu => 0,
        ActKind::Silu => 1,
        ActKind::Sigmoid => 2,
        ActKind::Tanh => 3,
    }
}

fn act_from(t: u32) -> io::Result<ActKind> {
    Ok(match t {
        0 => ActKind::Relu,
        1 => ActKind::Silu,
        2 => ActKind::Sigmoid,
        3 => ActKind::Tanh,
        _ => return Err(invalid("bad activation tag")),
    })
}

fn put_op(w: &mut impl Write, op: &Op) -> io::Result<()> {
    match op {
        Op::Input => put_u32(w, 0)?,
        Op::Conv2d(s) => {
            put_u32(w, 1)?;
            put_u32(w, s.weight.0)?;
            put_opt_w(w, s.bias)?;
            put_u32(w, s.stride.0 as u32)?;
            put_u32(w, s.stride.1 as u32)?;
            put_u32(w, s.padding.0 as u32)?;
            put_u32(w, s.padding.1 as u32)?;
            put_u32(w, s.groups as u32)?;
            put_u32(
                w,
                match s.role {
                    ConvRole::Standard => 0,
                    ConvRole::FConv => 1,
                    ConvRole::Core => 2,
                    ConvRole::LConv => 3,
                },
            )?;
        }
        Op::ConvTranspose2d { weight, bias, stride } => {
            put_u32(w, 2)?;
            put_u32(w, weight.0)?;
            put_opt_w(w, *bias)?;
            put_u32(w, stride.0 as u32)?;
            put_u32(w, stride.1 as u32)?;
        }
        Op::Activation(a) => {
            put_u32(w, 3)?;
            put_u32(w, act_tag(*a))?;
        }
        Op::Pool { kind, kernel, stride } => {
            put_u32(w, 4)?;
            put_u32(w, matches!(kind, PoolKind::Avg) as u32)?;
            put_u32(w, *kernel as u32)?;
            put_u32(w, *stride as u32)?;
        }
        Op::GlobalAvgPool => put_u32(w, 5)?,
        Op::Affine { scale, bias } => {
            put_u32(w, 6)?;
            put_u32(w, scale.0)?;
            put_u32(w, bias.0)?;
        }
        Op::Add => put_u32(w, 7)?,
        Op::Concat => put_u32(w, 8)?,
        Op::Linear { weight, bias } => {
            put_u32(w, 9)?;
            put_u32(w, weight.0)?;
            put_opt_w(w, *bias)?;
        }
        Op::Flatten => put_u32(w, 10)?,
        Op::Softmax => put_u32(w, 11)?,
        Op::MatMul { transpose_a, transpose_b } => {
            put_u32(w, 13)?;
            put_u32(w, *transpose_a as u32)?;
            put_u32(w, *transpose_b as u32)?;
        }
        Op::LayerNorm { scale, bias, eps } => {
            put_u32(w, 14)?;
            put_u32(w, scale.0)?;
            put_u32(w, bias.0)?;
            put_u32(w, eps.to_bits())?;
        }
        Op::SplitHeads { heads } => {
            put_u32(w, 15)?;
            put_u32(w, *heads as u32)?;
        }
        Op::MergeHeads { heads } => {
            put_u32(w, 16)?;
            put_u32(w, *heads as u32)?;
        }
        Op::Fused(s) => {
            put_u32(w, 12)?;
            put_u32(w, s.lconv_w.0)?;
            put_opt_w(w, s.lconv_b)?;
            put_u32(w, act_tag(s.act))?;
            match s.pool {
                None => put_u32(w, u32::MAX)?,
                Some((kind, k, st)) => {
                    put_u32(w, matches!(kind, PoolKind::Avg) as u32)?;
                    put_u32(w, k as u32)?;
                    put_u32(w, st as u32)?;
                }
            }
            match &s.fconv {
                None => put_u32(w, u32::MAX)?,
                Some(fc) => {
                    put_u32(w, fc.weight.0)?;
                    put_opt_w(w, fc.bias)?;
                }
            }
        }
    }
    Ok(())
}

fn get_op(r: &mut Input<'_>) -> io::Result<Op> {
    let tag = r.u32()?;
    Ok(match tag {
        0 => Op::Input,
        1 => {
            let weight = WeightId(r.u32()?);
            let bias = r.opt_weight()?;
            let stride = (r.u32()? as usize, r.u32()? as usize);
            let padding = (r.u32()? as usize, r.u32()? as usize);
            let groups = r.u32()? as usize;
            let role = match r.u32()? {
                0 => ConvRole::Standard,
                1 => ConvRole::FConv,
                2 => ConvRole::Core,
                3 => ConvRole::LConv,
                _ => return Err(invalid("bad conv role")),
            };
            Op::Conv2d(ConvSpec { weight, bias, stride, padding, groups, role })
        }
        2 => {
            let weight = WeightId(r.u32()?);
            let bias = r.opt_weight()?;
            let stride = (r.u32()? as usize, r.u32()? as usize);
            Op::ConvTranspose2d { weight, bias, stride }
        }
        3 => Op::Activation(act_from(r.u32()?)?),
        4 => {
            let kind = if r.u32()? == 1 { PoolKind::Avg } else { PoolKind::Max };
            Op::Pool { kind, kernel: r.u32()? as usize, stride: r.u32()? as usize }
        }
        5 => Op::GlobalAvgPool,
        6 => Op::Affine { scale: WeightId(r.u32()?), bias: WeightId(r.u32()?) },
        7 => Op::Add,
        8 => Op::Concat,
        9 => {
            let weight = WeightId(r.u32()?);
            let bias = r.opt_weight()?;
            Op::Linear { weight, bias }
        }
        10 => Op::Flatten,
        11 => Op::Softmax,
        12 => {
            let lconv_w = WeightId(r.u32()?);
            let lconv_b = r.opt_weight()?;
            let act = act_from(r.u32()?)?;
            let pool_tag = r.u32()?;
            let pool = if pool_tag == u32::MAX {
                None
            } else {
                let kind = if pool_tag == 1 { PoolKind::Avg } else { PoolKind::Max };
                Some((kind, r.u32()? as usize, r.u32()? as usize))
            };
            let fconv_tag = r.u32()?;
            let fconv = if fconv_tag == u32::MAX {
                None
            } else {
                Some(FconvSpec { weight: WeightId(fconv_tag), bias: r.opt_weight()? })
            };
            Op::Fused(FusedSpec { lconv_w, lconv_b, act, pool, fconv })
        }
        13 => {
            let transpose_a = r.u32()? != 0;
            let transpose_b = r.u32()? != 0;
            Op::MatMul { transpose_a, transpose_b }
        }
        14 => {
            let scale = WeightId(r.u32()?);
            let bias = WeightId(r.u32()?);
            let eps = f32::from_bits(r.u32()?);
            Op::LayerNorm { scale, bias, eps }
        }
        15 => Op::SplitHeads { heads: r.u32()? as usize },
        16 => Op::MergeHeads { heads: r.u32()? as usize },
        _ => return Err(invalid(format!("bad op tag {tag}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_tensor::Tensor;

    fn roundtrip(g: &Graph) -> Graph {
        let mut buf = Vec::new();
        save_graph(g, &mut buf).expect("save");
        load_graph(&mut buf.as_slice()).expect("load")
    }

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8], "x");
        let c =
            g.conv2d(x, Tensor::randn(&[8, 3, 3, 3], 1), Some(Tensor::randn(&[8], 2)), 2, 1, "c");
        let r = g.activation(c, ActKind::Silu, "r");
        let p = g.max_pool(r, 2, 2, "p");
        let a = g.affine(p, Tensor::randn(&[8], 3), Tensor::randn(&[8], 4), "bn");
        let s = g.add(&[a, a], "dbl");
        let cat = g.concat(&[s, a], "cat");
        let gp = g.global_avg_pool(cat, "gap");
        let f = g.flatten(gp, "flat");
        let l = g.linear(f, Tensor::randn(&[5, 16], 5), None, "fc");
        let sm = g.softmax(l, "sm");
        g.mark_output(sm);
        g.infer_shapes();
        g
    }

    #[test]
    fn roundtrip_preserves_structure_and_weights() {
        let g = sample_graph();
        let g2 = roundtrip(&g);
        assert_eq!(g.nodes.len(), g2.nodes.len());
        assert_eq!(g.weights.len(), g2.weights.len());
        for (a, b) in g.weights.iter().zip(&g2.weights) {
            assert_eq!(a, b);
        }
        for (a, b) in g.nodes.iter().zip(&g2.nodes) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.output, b.output);
            assert_eq!(a.name, b.name);
        }
        assert_eq!(g.inputs, g2.inputs);
        assert_eq!(g.outputs, g2.outputs);
        assert!(crate::verify::verify(&g2).is_empty());
    }

    fn fused_sample() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4], "x");
        let lw = g.add_weight(Tensor::randn(&[8, 2, 1, 1], 1));
        let fw = g.add_weight(Tensor::randn(&[3, 8, 1, 1], 2));
        let spec = FusedSpec {
            lconv_w: lw,
            lconv_b: None,
            act: ActKind::Relu,
            pool: Some((PoolKind::Max, 2, 2)),
            fconv: Some(FconvSpec { weight: fw, bias: None }),
        };
        let f = g.fused(x, spec, "fused");
        let restore = g.fused(
            x,
            FusedSpec { lconv_w: lw, lconv_b: None, act: ActKind::Tanh, pool: None, fconv: None },
            "restore",
        );
        g.mark_output(f);
        g.mark_output(restore);
        g.infer_shapes();
        g
    }

    fn saved(g: &Graph) -> Vec<u8> {
        let mut buf = Vec::new();
        save_graph(g, &mut buf).expect("save");
        buf
    }

    #[test]
    fn roundtrip_preserves_fused_ops() {
        let g = fused_sample();
        let g2 = roundtrip(&g);
        assert_eq!(g.nodes[1].op, g2.nodes[1].op);
        assert_eq!(g.nodes[2].op, g2.nodes[2].op);
        assert_eq!(saved(&g), saved(&g2));
    }

    #[test]
    fn roundtrip_preserves_transformer_ops() {
        let mut g = Graph::new();
        let x = g.input(&[2, 4, 8], "x");
        let q = g.linear(x, Tensor::randn(&[8, 8], 1), None, "wq");
        let k = g.linear(x, Tensor::randn(&[8, 8], 2), None, "wk");
        let qh = g.split_heads(q, 2, "qh");
        let kh = g.split_heads(k, 2, "kh");
        let sc = g.matmul(qh, kh, false, true, "scores");
        let at = g.softmax(sc, "attn");
        let ctx = g.matmul(at, kh, false, false, "ctx");
        let m = g.merge_heads(ctx, 2, "m");
        let ln = g.layer_norm(m, Tensor::randn(&[8], 3), Tensor::randn(&[8], 4), 1.5e-5, "ln");
        g.mark_output(ln);
        g.infer_shapes();
        let g2 = roundtrip(&g);
        for (a, b) in g.nodes.iter().zip(&g2.nodes) {
            assert_eq!(a.op, b.op, "node '{}'", a.name);
        }
        // eps survives bit-exactly (stored as raw f32 bits).
        let Op::LayerNorm { eps, .. } = g2.nodes.last().unwrap().op else { panic!() };
        assert_eq!(eps, 1.5e-5);
        assert!(crate::verify::verify(&g2).is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load_graph(&mut &b"NOPE0000"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_future_versions() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = load_graph(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let buf = saved(&fused_sample());
        for len in 0..buf.len() {
            assert!(load_graph(&mut &buf[..len]).is_err(), "prefix of {len} bytes loaded");
        }
    }

    #[test]
    fn inflated_counts_and_dims_are_errors_not_allocations() {
        let buf = saved(&fused_sample());
        let with = |at: usize, words: &[u32]| {
            let mut b = buf.clone();
            for (i, w) in words.iter().enumerate() {
                b[at + 4 * i..at + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
            }
            load_graph(&mut b.as_slice()).unwrap_err().kind()
        };
        // Header: magic, version, weight count; then weight 0's ndim (4)
        // and dims.
        assert_eq!(with(8, &[u32::MAX]), io::ErrorKind::InvalidData);
        assert_eq!(with(12, &[u32::MAX]), io::ErrorKind::InvalidData);
        assert_eq!(with(16, &[u32::MAX; 4]), io::ErrorKind::InvalidData);
        assert_eq!(with(16, &[u32::MAX, 1, 1, 1]), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn out_of_range_ids_and_bad_graphs_are_errors() {
        let load = |g: &Graph| load_graph(&mut saved(g).as_slice()).unwrap_err().kind();
        let mut g = fused_sample();
        g.nodes[1].inputs[0] = ValueId(99);
        assert_eq!(load(&g), io::ErrorKind::InvalidData);
        let mut g = fused_sample();
        g.outputs.push(ValueId(99));
        assert_eq!(load(&g), io::ErrorKind::InvalidData);
        let mut g = fused_sample();
        let Op::Fused(spec) = &mut g.nodes[1].op else { panic!() };
        spec.lconv_w = WeightId(99);
        assert_eq!(load(&g), io::ErrorKind::InvalidData);
        // Ids in range, shapes inconsistent: fconv fed the wrong width.
        let mut g = fused_sample();
        let Op::Fused(spec) = &mut g.nodes[1].op else { panic!() };
        spec.fconv = Some(FconvSpec { weight: spec.lconv_w, bias: None });
        assert_eq!(load(&g), io::ErrorKind::InvalidData);
    }
}
