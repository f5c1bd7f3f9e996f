//! What a correct output is. The reference is the per-node executor on the
//! `Decomposed`-level graph — neither the slab engine nor any TeMCO pass —
//! and the committed golden files pin that executor itself on one fixed
//! canary input per model.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use temco_ir::Graph;
use temco_runtime::{execute, ExecMode, ExecOptions};
use temco_tensor::Tensor;

/// The opt-level-vs-decomposed tolerance `temco-check` uses: fused kernels
/// reassociate sums, every other rewrite is exact.
const RTOL: f32 = 2e-3;

/// Golden files keep at most this many values of an output (an even stride
/// over the rest), so a 4×10×64×64 segmentation map stays a small file.
const GOLDEN_MAX_VALUES: usize = 4096;

const CANARY_SEED: u64 = 0x00C0_FFEE;

/// The single input of `g`'s shape, `[batch, ...]`.
pub fn input_shape(g: &Graph) -> Vec<usize> {
    assert_eq!(g.inputs.len(), 1, "benchmark models take one input");
    g.shape(g.inputs[0]).to_vec()
}

/// The fixed, seed-independent input the golden files were made from.
pub fn canary(g: &Graph) -> Tensor {
    Tensor::randn(&input_shape(g), CANARY_SEED)
}

/// `count` inputs drawn from `seed`; the workloads cycle through them.
pub fn seeded_inputs(g: &Graph, seed: u64, count: usize) -> Vec<Tensor> {
    let shape = input_shape(g);
    let mut rng = crate::stats::Rng::new(seed);
    (0..count).map(|_| Tensor::randn(&shape, rng.next_u64())).collect()
}

/// Run the reference executor on each input.
pub fn reference_outputs(decomposed: &Graph, inputs: &[Tensor]) -> Vec<Tensor> {
    let opts = ExecOptions { mode: ExecMode::PerNode, ..Default::default() };
    inputs
        .iter()
        .map(|x| {
            let mut res = execute(decomposed, std::slice::from_ref(x), opts)
                .unwrap_or_else(|e| panic!("reference executor failed: {e}"));
            assert_eq!(res.outputs.len(), 1, "benchmark models give one output");
            res.outputs.remove(0)
        })
        .collect()
}

/// Magnitude-relative comparison: every element within `RTOL` of the
/// reference's largest magnitude (at least 1).
pub fn close(got: &[f32], want: &[f32]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
    // A NaN difference is not within any tolerance, so it fails.
    got.iter().zip(want).all(|(g, w)| (g - w).abs() <= RTOL * scale)
}

fn stride(numel: usize) -> usize {
    numel.div_ceil(GOLDEN_MAX_VALUES).max(1)
}

fn golden_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join("golden").join(format!("{workload}.txt"))
}

/// One golden section per model of the workload: `model <name> <numel>`,
/// then the strided values, one per line.
pub fn write_golden(
    dir: &Path,
    workload: &str,
    outputs: &[(&str, &Tensor)],
) -> std::io::Result<()> {
    let mut text = String::new();
    for (model, out) in outputs {
        let _ = writeln!(text, "model {model} {}", out.numel());
        for v in out.data().iter().step_by(stride(out.numel())) {
            let _ = writeln!(text, "{v:e}");
        }
    }
    std::fs::create_dir_all(dir.join("golden"))?;
    std::fs::write(golden_path(dir, workload), text)
}

/// The golden values of every model of `workload`, in file order.
pub struct Golden(Vec<(String, usize, Vec<f32>)>);

impl Golden {
    pub fn load(dir: &Path, workload: &str) -> Result<Golden, String> {
        let path = golden_path(dir, workload);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut sections: Vec<(String, usize, Vec<f32>)> = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("{}:{}: unreadable golden line {line:?}", path.display(), n + 1);
            if let Some(rest) = line.strip_prefix("model ") {
                let (name, numel) = rest.split_once(' ').ok_or_else(bad)?;
                sections.push((name.to_string(), numel.parse().map_err(|_| bad())?, Vec::new()));
            } else {
                let v: f32 = line.parse().map_err(|_| bad())?;
                sections.last_mut().ok_or_else(bad)?.2.push(v);
            }
        }
        Ok(Golden(sections))
    }

    /// Does `out`, an output for `model`'s canary input, match the file?
    pub fn matches(&self, model: &str, out: &Tensor) -> bool {
        let Some((_, numel, want)) = self.0.iter().find(|(name, ..)| name == model) else {
            return false;
        };
        let got: Vec<f32> = out.data().iter().step_by(stride(out.numel())).copied().collect();
        *numel == out.numel() && close(&got, want)
    }
}
