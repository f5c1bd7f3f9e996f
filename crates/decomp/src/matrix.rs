//! Low-rank compression of weight *matrices* (Linear layers).
//!
//! Transformer weights are `[f_out, f_in]` matrices, not 4-D conv kernels,
//! but [`factorize`] takes them as they are: the matrix is viewed as a
//! degenerate `[f_out, f_in, 1, 1]` kernel and comes back as an all-1×1
//! [`FactorChain`] — a `Linear` sequence `x → F → (G) → L` replacing one
//! dense layer:
//!
//! * **Tucker** — `W ≈ U₀ · G · U₁ᵀ`, a three-factor chain (two-sided SVD
//!   with core; the 1×1-kernel degeneration of Tucker-2);
//! * **CP** — `W ≈ A · Bᵀ` at rank R, a two-factor chain (the depthwise
//!   spatial scales of the conv form are folded into the restoring factor);
//! * **TT** — the TT-SVD chain over `(f_in, 1, 1, f_out)`, four factors
//!   with the bond ranks of the ratio policy.
//!
//! [`select_matrix`] is the per-layer selector: it measures every family's
//! parameter count, per-row FLOPs, and relative reconstruction error at the
//! ratio-derived ranks, then picks the cheapest chain whose error fits the
//! budget — or keeps the layer dense when nothing qualifies.

use temco_tensor::Tensor;

use crate::{factorize, relative_error, FactorChain, Method};

/// What the per-layer selector decided for one weight matrix, with the
/// measurements that drove the decision.
#[derive(Clone, Debug)]
pub struct MatrixChoice {
    /// Winning family, or `None` to keep the layer dense.
    pub method: Option<Method>,
    /// The winning all-1×1 chain (`None` iff `method` is `None`).
    pub chain: Option<FactorChain>,
    /// Dense parameter count.
    pub params_before: usize,
    /// Chain parameter count (equals `params_before` when dense).
    pub params_after: usize,
    /// Dense per-row FLOPs.
    pub flops_before: u64,
    /// Chain per-row FLOPs (equals `flops_before` when dense).
    pub flops_after: u64,
    /// Relative Frobenius reconstruction error (0 when dense).
    pub rel_error: f64,
}

/// Per-layer decomposition selector over {Dense, Tucker, CP, TT}.
///
/// Every family is factorized at the ratio-derived ranks and *measured*:
/// parameter count, per-row FLOPs, relative reconstruction error. A chain
/// qualifies when it strictly shrinks both parameters and FLOPs and its
/// error fits `error_budget`; among qualifiers the cheapest (fewest FLOPs,
/// error as tie-break) wins. No qualifier → the layer stays dense.
pub fn select_matrix(w: &Tensor, ratio: f64, error_budget: f64, iters: usize) -> MatrixChoice {
    assert_eq!(w.shape().len(), 2, "select_matrix expects a [f_out, f_in] weight");
    let params_before = w.numel();
    let flops_before = 2 * w.numel() as u64;
    let mut best: Option<(Method, FactorChain, f64)> = None;
    for method in Method::ALL {
        let chain = factorize(w, method, ratio, iters);
        if chain.param_count() >= params_before || chain.flops_per_pixel() >= flops_before {
            continue;
        }
        let err = matrix_error(w, &chain);
        if err > error_budget {
            continue;
        }
        let better = match &best {
            None => true,
            Some((_, b, berr)) => {
                let (f, bf) = (chain.flops_per_pixel(), b.flops_per_pixel());
                f < bf || (f == bf && err < *berr)
            }
        };
        if better {
            best = Some((method, chain, err));
        }
    }
    match best {
        Some((method, chain, rel_error)) => MatrixChoice {
            method: Some(method),
            params_before,
            params_after: chain.param_count(),
            flops_before,
            flops_after: chain.flops_per_pixel(),
            rel_error,
            chain: Some(chain),
        },
        None => MatrixChoice {
            method: None,
            chain: None,
            params_before,
            params_after: params_before,
            flops_before,
            flops_after: flops_before,
            rel_error: 0.0,
        },
    }
}

/// Relative reconstruction error of an all-1×1 chain against its matrix.
fn matrix_error(w: &Tensor, chain: &FactorChain) -> f64 {
    relative_error(w, &Tensor::from_vec(w.shape(), chain.reconstruct().into_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_tensor::matmul;

    /// A genuinely low-rank matrix: `A · B` with inner dim `r`.
    fn low_rank(m: usize, n: usize, r: usize, seed: u64) -> Tensor {
        let a = Tensor::randn(&[m, r], seed);
        let b = Tensor::randn(&[r, n], seed ^ 0xF00D);
        matmul(&a, &b, false, false)
    }

    #[test]
    fn chains_have_the_documented_shapes() {
        let w = Tensor::randn(&[24, 16], 3);
        let t = factorize(&w, Method::Tucker, 0.25, 2);
        assert_eq!(t.shapes(), [&[4, 16, 1, 1][..], &[6, 4, 1, 1], &[24, 6, 1, 1]]);
        let c = factorize(&w, Method::Cp, 0.25, 8);
        assert_eq!(c.shapes(), [&[6, 16, 1, 1][..], &[24, 6, 1, 1]]);
        let tt = factorize(&w, Method::TensorTrain, 0.25, 0);
        assert_eq!(tt.factors.len(), 4);
        assert_eq!(tt.factors[0].weight.dim(1), 16);
        assert_eq!(tt.factors[3].weight.dim(0), 24);
        for chain in [t, c, tt] {
            assert!(chain.factors.iter().all(|f| f.groups == 1 && f.weight.numel() > 0));
        }
    }

    #[test]
    fn matrix_chain_reconstructs_as_the_product_of_its_factors() {
        // The selector breaks FLOP ties on this error: the reconstruction
        // must be the plain GEMM product of the factors, bit for bit.
        let w = Tensor::randn(&[24, 16], 5);
        for method in Method::ALL {
            let chain = factorize(&w, method, 0.25, 2);
            let mats: Vec<Tensor> =
                chain.factors.iter().map(|f| f.weight.reshape(&f.weight.shape()[..2])).collect();
            let product =
                mats[1..].iter().fold(mats[0].clone(), |acc, f| matmul(f, &acc, false, false));
            assert_eq!(chain.reconstruct().data(), product.data(), "{}", method.name());
        }
    }

    #[test]
    fn low_rank_matrices_are_recovered_tightly() {
        let w = low_rank(32, 48, 4, 7);
        // Ratio 0.25 of 48 → rank 12 ≥ true rank 4: near-exact recovery.
        assert!(matrix_error(&w, &factorize(&w, Method::Tucker, 0.25, 2)) < 1e-3);
        assert!(matrix_error(&w, &factorize(&w, Method::TensorTrain, 0.25, 0)) < 1e-3);
    }

    #[test]
    fn selector_compresses_compressible_layers() {
        let w = low_rank(64, 64, 5, 11);
        let choice = select_matrix(&w, 0.25, 0.1, 2);
        assert!(choice.method.is_some(), "low-rank layer must compress");
        assert!(choice.params_after < choice.params_before);
        assert!(choice.flops_after < choice.flops_before);
        assert!(choice.rel_error <= 0.1, "err {}", choice.rel_error);
        let chain = choice.chain.unwrap();
        assert_eq!(chain.factors.first().unwrap().weight.dim(1), 64);
        assert_eq!(chain.factors.last().unwrap().weight.dim(0), 64);
    }

    #[test]
    fn selector_keeps_incompressible_layers_dense() {
        // A full-rank random matrix at a tight budget: nothing qualifies.
        let w = Tensor::randn(&[32, 32], 13);
        let choice = select_matrix(&w, 0.1, 0.05, 2);
        assert!(choice.method.is_none());
        assert_eq!(choice.params_after, choice.params_before);
        assert_eq!(choice.rel_error, 0.0);
    }

    #[test]
    fn selector_never_grows_tiny_layers() {
        // 4×4: any factorization is at best break-even; must stay dense
        // rather than grow.
        let w = Tensor::randn(&[4, 4], 17);
        let choice = select_matrix(&w, 1.0, 1.0, 1);
        assert!(choice.params_after <= choice.params_before);
    }
}
