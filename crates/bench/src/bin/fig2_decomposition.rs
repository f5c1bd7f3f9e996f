//! Figures 1 & 2: the three decomposition families on a convolution layer.
//!
//! For Tucker, CP and Tensor-Train at several ratios, reports the chain's
//! bond ranks (Figure 1), parameter compression, FLOP reduction of the
//! decomposed convolution sequence (Figure 2), kernel reconstruction error,
//! and the max deviation between running the sequence and running the
//! original convolution with the reconstructed kernel — which must be
//! floating-point noise, validating the sequence construction itself. The
//! binary exits non-zero when any row's deviation exceeds 1e-3.

use std::process::ExitCode;

use temco_decomp::{factorize, relative_error, Method};
use temco_tensor::{conv2d, Conv2dParams, Tensor};

/// Largest `seq |Δ|` a row may show before the run fails.
const SEQ_TOLERANCE: f32 = 1e-3;

fn main() -> ExitCode {
    let (c_out, c_in, k) = (64usize, 64usize, 3usize);
    let w = Tensor::he_conv_weight(c_out, c_in, k, k, 42);
    let x = Tensor::randn(&[1, c_in, 16, 16], 7);
    let conv = Conv2dParams::new(1, 1);
    let orig_params = w.numel();
    let orig_flops_per_pixel = 2 * orig_params as u64;

    println!("Figure 1/2 — decomposing a {c_out}→{c_in} {k}×{k} convolution\n");
    println!(
        "{:<8} {:>6} {:>20} {:>10} {:>10} {:>12} {:>12}",
        "method", "ratio", "ranks", "params", "flops", "rec. error", "seq |Δ|"
    );

    let mut worst = 0.0f32;
    for ratio in [0.05, 0.1, 0.25, 0.5] {
        for method in Method::ALL {
            // One HOOI round for Tucker, 15 ALS rounds for CP (TT-SVD is direct).
            let iters = if method == Method::Cp { 15 } else { 1 };
            let chain = factorize(&w, method, ratio, iters);
            let rec = chain.reconstruct();
            let seq = chain.factors.iter().fold(x.clone(), |z, f| {
                conv2d(&z, &f.weight, None, &f.conv_params(conv.stride, conv.padding))
            });
            let seq_diff = conv2d(&x, &rec, None, &conv).max_abs_diff(&seq);
            worst = worst.max(seq_diff);
            let ranks: Vec<String> = chain.ranks().iter().map(|r| r.to_string()).collect();
            let ranks =
                if ranks.len() == 1 { ranks[0].clone() } else { format!("({})", ranks.join(",")) };
            println!(
                "{:<8} {:>6} {:>20} {:>9.1}% {:>9.1}% {:>12.4} {:>12.2e}",
                method.name(),
                ratio,
                ranks,
                100.0 * chain.param_count() as f64 / orig_params as f64,
                100.0 * chain.flops_per_pixel() as f64 / orig_flops_per_pixel as f64,
                relative_error(&w, &rec),
                seq_diff
            );
        }
    }
    println!("\n'seq |Δ|' compares the decomposed convolution sequence against a direct");
    println!("convolution with the reconstructed kernel: float noise only, as required.");
    if worst > SEQ_TOLERANCE {
        eprintln!("FAIL: worst seq |Δ| {worst:.2e} exceeds {SEQ_TOLERANCE:.0e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
