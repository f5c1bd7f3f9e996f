//! The factor chain: one description of every decomposition family.

use temco_tensor::{matmul, Conv2dParams, Tensor};

use crate::{cp, cp_decompose, cp_rank, tt_decompose, tt_ranks, tucker2, tucker_ranks, Method};

/// Which spatial axes of a factor take the decomposed convolution's stride
/// and padding; the other axes run at stride 1 without padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spatial {
    /// A pointwise factor: stride 1, no padding.
    None,
    /// The vertical axis only.
    H,
    /// The horizontal axis only.
    W,
    /// Both axes.
    Both,
}

/// One convolution of a [`FactorChain`].
#[derive(Clone, Debug)]
pub struct Factor {
    /// Convolution weight `[out, in/groups, kh, kw]`.
    pub weight: Tensor,
    /// Channel groups (`out` for a depthwise factor).
    pub groups: usize,
    /// Axes taking the original stride and padding.
    pub spatial: Spatial,
}

impl Factor {
    /// A dense 1×1 factor.
    pub fn pointwise(weight: Tensor) -> Self {
        Factor { weight, groups: 1, spatial: Spatial::None }
    }

    /// This factor's convolution parameters when the decomposed
    /// convolution has `stride` and `padding`.
    pub fn conv_params(&self, stride: (usize, usize), padding: (usize, usize)) -> Conv2dParams {
        let (h, w) = match self.spatial {
            Spatial::None => (false, false),
            Spatial::H => (true, false),
            Spatial::W => (false, true),
            Spatial::Both => (true, true),
        };
        Conv2dParams {
            stride: (if h { stride.0 } else { 1 }, if w { stride.1 } else { 1 }),
            padding: (if h { padding.0 } else { 0 }, if w { padding.1 } else { 0 }),
            groups: self.groups,
        }
    }

    /// The kernel of `acc` followed by this factor: `acc` is a dense kernel
    /// `[m, c_in, ah, aw]`, the result `[out, c_in, ah + kh - 1, aw + kw - 1]`.
    /// Exact for chains in which no two factors span the same spatial axis.
    fn after(&self, acc: Tensor) -> Tensor {
        let b = &self.weight;
        let (out, per_group, kh, kw) = (b.dim(0), b.dim(1), b.dim(2), b.dim(3));
        let (m, c_in, ah, aw) = (acc.dim(0), acc.dim(1), acc.dim(2), acc.dim(3));
        if (kh, kw, self.groups) == (1, 1, 1) {
            // One GEMM over the flattened kernel: for an all-1×1 chain this
            // is exactly the matrix product of its factors.
            let rest = c_in * ah * aw;
            let acc = Tensor::from_vec(&[m, rest], acc.into_vec());
            let prod = matmul(&b.reshape(&[out, m]), &acc, false, false);
            return Tensor::from_vec(&[out, c_in, ah, aw], prod.into_vec());
        }
        let out_per_group = out / self.groups;
        let mut rec = Tensor::zeros(&[out, c_in, ah + kh - 1, aw + kw - 1]);
        for o in 0..out {
            for j in 0..per_group {
                let src = (o / out_per_group) * per_group + j;
                for p in 0..kh {
                    for q in 0..kw {
                        let bv = b.at4(o, j, p, q);
                        for i in 0..c_in {
                            for h in 0..ah {
                                for w in 0..aw {
                                    *rec.at4_mut(o, i, h + p, w + q) += bv * acc.at4(src, i, h, w);
                                }
                            }
                        }
                    }
                }
            }
        }
        rec
    }
}

/// A factorized convolution: factors ordered input to output, the first a
/// dense 1×1 `fconv`, the last a dense 1×1 `lconv`, every one in between a
/// core. Running the factors in sequence, each with
/// [`Factor::conv_params`], computes the convolution with
/// [`FactorChain::reconstruct`] as its kernel.
#[derive(Clone, Debug)]
pub struct FactorChain {
    /// The factors, applied first to last.
    pub factors: Vec<Factor>,
}

impl FactorChain {
    /// Total parameter count of the factors.
    pub fn param_count(&self) -> usize {
        self.factors.iter().map(|f| f.weight.numel()).sum()
    }

    /// FLOPs per output pixel at stride 1 (per row for a matrix chain):
    /// one multiply-add per weight of every factor.
    pub fn flops_per_pixel(&self) -> u64 {
        2 * self.param_count() as u64
    }

    /// Bond dimensions: the channels each factor but the last hands on. A
    /// depthwise factor (one group per channel) carries its input's bond
    /// instead of opening one, so CP reports its single rank.
    pub fn ranks(&self) -> Vec<usize> {
        let inner = &self.factors[..self.factors.len() - 1];
        inner
            .iter()
            .filter(|f| f.groups == 1 || f.groups != f.weight.dim(0))
            .map(|f| f.weight.dim(0))
            .collect()
    }

    /// Multiply the chain back into one dense kernel `[c_out, c_in, kh, kw]`.
    pub fn reconstruct(&self) -> Tensor {
        let (first, rest) = self.factors.split_first().expect("empty factor chain");
        assert_eq!(first.groups, 1, "the first factor must be dense");
        rest.iter().fold(first.weight.clone(), |acc, f| f.after(acc))
    }

    /// Parameter count of the chain `method` plans for a
    /// `[c_out, c_in, kh, kw]` kernel at `ratio`, from shapes alone: nothing
    /// is factorized, and TT's ranks are the policy's, before TT-SVD clamps
    /// them to what it can deliver.
    pub fn planned_param_count(method: Method, shape: [usize; 4], ratio: f64) -> usize {
        let [c_out, c_in, kh, kw] = shape;
        let factors: Vec<[usize; 4]> = match method {
            Method::Tucker => {
                let (r_out, r_in) = tucker_ranks(c_out, c_in, ratio);
                vec![[r_in, c_in, 1, 1], [r_out, r_in, kh, kw], [c_out, r_out, 1, 1]]
            }
            Method::Cp => {
                let r = cp_rank(c_out, c_in, ratio);
                vec![[r, c_in, 1, 1], [r, 1, kh, 1], [r, 1, 1, kw], [c_out, r, 1, 1]]
            }
            Method::TensorTrain => {
                let (r1, r2, r3) = tt_ranks(c_out, c_in, ratio);
                vec![[r1, c_in, 1, 1], [r2, r1, kh, 1], [r3, r2, 1, kw], [c_out, r3, 1, 1]]
            }
        };
        factors.iter().map(|s| s.iter().product::<usize>()).sum()
    }

    /// Factor weight shapes, first to last.
    #[cfg(test)]
    pub(crate) fn shapes(&self) -> Vec<&[usize]> {
        self.factors.iter().map(|f| f.weight.shape()).collect()
    }
}

/// Factorize `weight` with `method` at the ranks the policy in
/// [`crate::ranks`] derives from `ratio`. `iters` is the refinement budget:
/// HOOI rounds for Tucker, ALS rounds for CP (TT-SVD is direct).
///
/// A conv weight `[c_out, c_in, kh, kw]` gives its family's conv chain. A
/// matrix `[f_out, f_in]` factorizes as `[f_out, f_in, 1, 1]` into an
/// all-1×1 chain of Linear weights, in which CP's two depthwise factors —
/// per-rank scales there — are folded into the restoring factor.
pub fn factorize(weight: &Tensor, method: Method, ratio: f64, iters: usize) -> FactorChain {
    let matrix = weight.shape().len() == 2;
    let view;
    let w = if matrix {
        view = weight.reshape(&[weight.dim(0), weight.dim(1), 1, 1]);
        &view
    } else {
        weight
    };
    let (c_out, c_in) = (w.dim(0), w.dim(1));
    match method {
        Method::Tucker => {
            let (r_out, r_in) = tucker_ranks(c_out, c_in, ratio);
            tucker2(w, r_out, r_in, iters)
        }
        Method::Cp => {
            let chain = cp_decompose(w, cp_rank(c_out, c_in, ratio), iters);
            if matrix {
                cp::fold_scales(chain)
            } else {
                chain
            }
        }
        Method::TensorTrain => tt_decompose(w, tt_ranks(c_out, c_in, ratio)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temco_tensor::{conv2d, conv2d_direct};

    #[test]
    fn conv_params_apply_stride_and_padding_per_axis() {
        let f = |spatial| Factor { weight: Tensor::zeros(&[4, 1, 3, 3]), groups: 4, spatial };
        let p = |s: Spatial| {
            let c = f(s).conv_params((2, 3), (1, 2));
            (c.stride, c.padding, c.groups)
        };
        assert_eq!(p(Spatial::None), ((1, 1), (0, 0), 4));
        assert_eq!(p(Spatial::H), ((2, 1), (1, 0), 4));
        assert_eq!(p(Spatial::W), ((1, 3), (0, 2), 4));
        assert_eq!(p(Spatial::Both), ((2, 3), (1, 2), 4));
    }

    #[test]
    fn ranks_are_the_bond_dimensions() {
        let w = Tensor::randn(&[12, 10, 3, 3], 3);
        assert_eq!(factorize(&w, Method::Tucker, 0.5, 1).ranks(), vec![5, 6]);
        assert_eq!(factorize(&w, Method::Cp, 0.5, 2).ranks(), vec![6]);
        assert_eq!(factorize(&w, Method::TensorTrain, 0.5, 0).ranks(), vec![5, 6, 6]);
    }

    #[test]
    fn reconstruct_composes_grouped_and_spatial_factors() {
        // A chain in which every kind of factor appears: the sequence run
        // factor by factor equals one conv with the reconstructed kernel.
        let chain = FactorChain {
            factors: vec![
                Factor::pointwise(Tensor::randn(&[4, 3, 1, 1], 1)),
                Factor { weight: Tensor::randn(&[4, 1, 3, 1], 2), groups: 4, spatial: Spatial::H },
                Factor { weight: Tensor::randn(&[6, 4, 1, 2], 3), groups: 1, spatial: Spatial::W },
                Factor::pointwise(Tensor::randn(&[5, 6, 1, 1], 4)),
            ],
        };
        let rec = chain.reconstruct();
        assert_eq!(rec.shape(), &[5, 3, 3, 2]);
        assert_eq!(chain.param_count(), 12 + 12 + 48 + 30);
        let x = Tensor::randn(&[1, 3, 7, 8], 5);
        let (stride, padding) = ((2, 1), (1, 1));
        let seq = chain
            .factors
            .iter()
            .fold(x.clone(), |z, f| conv2d(&z, &f.weight, None, &f.conv_params(stride, padding)));
        let p = Conv2dParams { stride, padding, groups: 1 };
        let direct = conv2d_direct(&x, &rec, None, &p);
        assert!(direct.all_close(&seq, 1e-4), "diff {}", direct.max_abs_diff(&seq));
    }
}
