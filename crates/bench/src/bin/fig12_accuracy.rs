//! Figure 12: accuracy preservation.
//!
//! The paper's claim is structural — TeMCO's rewrites preserve the
//! decomposed model's semantics, so its accuracy cannot change. Without
//! ILSVRC-2012/Carvana (proprietary, and irrelevant to the claim) we test
//! the property directly, and more stringently than a dataset would:
//!
//! * top-5 agreement (classification) / dice (segmentation) between the
//!   Decomposed baseline and every TeMCO variant over random inputs —
//!   must be 1.0 up to floating-point reassociation;
//! * max/mean absolute output difference;
//! * plus the orthogonal knob the paper leans on prior work for: Tucker
//!   reconstruction error as a function of the decomposition ratio.

use std::io::Write as _;

use temco::{compare_outputs, dice_score, Compiler, OptLevel};
use temco_bench::{harness_config, paper_variants, results_dir};
use temco_decomp::{relative_error, tucker2, tucker_ranks};
use temco_models::ModelId;
use temco_runtime::{execute, ExecOptions};
use temco_tensor::Tensor;

fn main() {
    let cfg = harness_config(64, 4);
    let compiler = Compiler::default();
    let csv_path = results_dir().join("fig12_accuracy.csv");
    let mut csv = std::fs::File::create(&csv_path).expect("create csv");
    writeln!(csv, "model,variant,task_agreement,max_abs_diff,mean_abs_diff").unwrap();

    println!("Figure 12 — semantic preservation vs the Decomposed baseline");
    println!("(task agreement: top-5 overlap for classifiers, dice for UNet)\n");
    let models = [
        ModelId::Alexnet,
        ModelId::Vgg11,
        ModelId::Vgg16,
        ModelId::Resnet18,
        ModelId::Densenet121,
        ModelId::UnetSmall,
    ];
    for model in models {
        let graph = model.build(&cfg);
        let variants = paper_variants(model, &graph, &compiler);
        let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 1234);
        let base = {
            let dec = variants.iter().find(|v| v.label == "Decomposed").unwrap();
            execute(&dec.graph, std::slice::from_ref(&x), ExecOptions::default())
                .expect("execution failed")
                .outputs[0]
                .clone()
        };
        println!("{}:", model.name());
        for v in &variants {
            if v.label == "Decomposed" || v.label == "Original" {
                continue;
            }
            let out = execute(&v.graph, std::slice::from_ref(&x), ExecOptions::default())
                .expect("execution failed")
                .outputs[0]
                .clone();
            let a = compare_outputs(&base, &out, 5);
            let task = if base.shape().len() == 4 {
                dice_score(&base, &out, 0.5)
            } else {
                a.task_agreement
            };
            println!(
                "  {:<18} agreement {:.4}  max|Δ| {:.2e}  mean|Δ| {:.2e}",
                v.label, task, a.max_abs_diff, a.mean_abs_diff
            );
            writeln!(
                csv,
                "{},{},{},{},{}",
                model.name(),
                v.label,
                task,
                a.max_abs_diff,
                a.mean_abs_diff
            )
            .unwrap();
            assert!(task > 0.999, "semantic drift detected: {} @ {}", model.name(), v.label);
        }
    }

    // Decomposition-ratio vs reconstruction error (the accuracy knob TeMCO
    // explicitly does not touch).
    println!("\nTucker reconstruction error vs ratio (128→128 3×3 kernel):");
    let w = Tensor::he_conv_weight(128, 128, 3, 3, 7);
    for ratio in [0.05, 0.1, 0.2, 0.4, 0.8] {
        let (ro, ri) = tucker_ranks(128, 128, ratio);
        let err = relative_error(&w, &tucker2(&w, ro, ri, 1).reconstruct());
        println!("  ratio {ratio:>4}: ranks ({ro:>3},{ri:>3})  rel. error {err:.4}");
    }

    // A full-TeMCO compile at ratio 1.0 must reproduce the *original* model
    // almost exactly (full-rank Tucker is lossless): the end-to-end version
    // of the claim.
    let g = ModelId::Vgg11.build(&cfg);
    let opts = temco::CompilerOptions {
        decompose: temco::DecomposeOptions { ratio: 1.0, ..Default::default() },
        ..Default::default()
    };
    let c = Compiler::new(opts);
    let (opt, _) = c.compile(&g, OptLevel::Fusion);
    let x = Tensor::randn(&[cfg.batch, 3, cfg.image, cfg.image], 5);
    let a =
        execute(&g, std::slice::from_ref(&x), ExecOptions::default()).expect("execution failed");
    let b = execute(&opt, &[x], ExecOptions::default()).expect("execution failed");
    let agree = compare_outputs(&a.outputs[0], &b.outputs[0], 5);
    println!(
        "\nfull-rank sanity: TeMCO(vgg11, ratio=1.0) vs original: top-5 agreement {:.4}",
        agree.task_agreement
    );
    println!("csv: {}", csv_path.display());
}
