//! Tensor decompositions of convolution kernels, described as data.
//!
//! Every family factors a 4-D convolution weight `[c_out, c_in, kh, kw]`
//! into one [`FactorChain`]: an ordered list of convolution factors, input
//! to output, each a weight `[out, in/groups, kh, kw]` with its `groups`
//! and the spatial axes that take the original stride and padding. That is
//! Einconv's tensor-network view: each factor contracts the previous
//! factor's output channels (a bond) and opens its own. The families differ
//! only in the chain they return (the paper's Figure 1):
//!
//! * **Tucker-2** (the paper's evaluation baseline, ratio 0.1): HOSVD
//!   initialization + HOOI refinement on the two channel modes, giving
//!   `fconv (1×1) → core (kh×kw) → lconv (1×1)`;
//! * **CP** (Lebedev-style): rank-R ALS, giving
//!   `fconv (1×1) → depthwise (kh×1) → depthwise (1×kw) → lconv (1×1)`;
//! * **Tensor-Train**: TT-SVD over the `(c_in, kh, kw, c_out)` ordering,
//!   giving `fconv (1×1) → core (kh×1) → core (1×kw) → lconv (1×1)`.
//!
//! Every chain satisfies the structural contract the TeMCO passes rely on:
//! the first factor is a channel-*reducing* 1×1 convolution (`fconv`) and
//! the last a channel-*restoring* 1×1 convolution (`lconv`), with small
//! "reduced tensors" flowing in between. Parameter count, FLOPs,
//! reconstruction, per-factor convolution parameters and the shape-only
//! parameter count are each written once, on [`FactorChain`]; [`factorize`]
//! is the one entry point that picks the family and its ranks.
//!
//! A `[f_out, f_in]` weight *matrix* (Linear/attention layers) factorizes
//! through the same path via its `[f_out, f_in, 1, 1]` view, giving an
//! all-1×1 chain; [`select_matrix`] measures every family per layer.

pub mod chain;
pub mod cp;
pub mod matrix;
pub mod ranks;
pub mod tt;
pub mod tucker;
pub mod unfold;

pub use chain::{factorize, Factor, FactorChain, Spatial};
pub use cp::cp_decompose;
pub use matrix::{select_matrix, MatrixChoice};
pub use ranks::{cp_rank, tt_ranks, tucker_ranks};
pub use tt::tt_decompose;
pub use tucker::tucker2;

/// Which decomposition family to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Tucker-2 with HOOI refinement (the paper's baseline).
    Tucker,
    /// Canonical Polyadic via ALS.
    Cp,
    /// Tensor-Train via TT-SVD.
    TensorTrain,
}

impl Method {
    /// Every family, in report order.
    pub const ALL: [Method; 3] = [Method::Tucker, Method::Cp, Method::TensorTrain];

    /// Human-readable name used in reports and parsed by [`str::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Method::Tucker => "tucker",
            Method::Cp => "cp",
            Method::TensorTrain => "tt",
        }
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parse a [`Method::name`]; the error lists every valid name.
    fn from_str(s: &str) -> Result<Self, String> {
        Method::ALL.into_iter().find(|m| m.name() == s).ok_or_else(|| {
            let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
            format!("unknown method '{s}' ({})", names.join("|"))
        })
    }
}

/// Relative Frobenius reconstruction error `‖w - ŵ‖ / ‖w‖`.
pub fn relative_error(
    original: &temco_tensor::Tensor,
    reconstructed: &temco_tensor::Tensor,
) -> f64 {
    assert_eq!(original.shape(), reconstructed.shape(), "relative_error shape mismatch");
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (a, b) in original.data().iter().zip(reconstructed.data()) {
        num += ((a - b) as f64).powi(2);
        den += (*a as f64).powi(2);
    }
    (num / den.max(1e-30)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_round_trip_and_errors_list_them() {
        for m in Method::ALL {
            assert_eq!(m.name().parse::<Method>(), Ok(m));
        }
        assert_eq!("foo".parse::<Method>(), Err("unknown method 'foo' (tucker|cp|tt)".into()));
    }
}
