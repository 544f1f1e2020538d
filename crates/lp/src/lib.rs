//! # polyfit-lp — minimax polynomial fitting
//!
//! PolyFit fits each segment with the polynomial minimising the *maximum*
//! absolute deviation over the segment's points (paper Definition 2). The
//! paper formulates this as the linear program of Eq. 9 and cites a
//! state-of-the-art solver; any exact solver yields the same optimum. This
//! crate provides two interchangeable backends plus the shared front-ends:
//!
//! * [`simplex`] — a from-scratch dense two-phase simplex solver (Bland's
//!   rule), the literal Eq. 9 reduction. Exact but `O(ℓ³)`-ish; used for
//!   verification, small instances, and the exact 2-D backend.
//! * [`exchange`] — the discrete Remez exchange algorithm, which solves the
//!   *same* minimax problem through a sequence of `(deg+2)`-point linear
//!   systems. This is the default backend: it returns the identical optimal
//!   error (to rounding) at `O(iterations · ℓ)` cost, which is what makes
//!   greedy segmentation tractable on million-record datasets. Its
//!   decision form, [`minimax_within`], answers "is the optimum at most
//!   δ?" at the first iterate whose bounds settle it.
//! * [`fit1d`] / [`fit2d`] — fitting front-ends returning conditioned
//!   ([`polyfit_poly::ShiftedPolynomial`] / [`polyfit_poly::BivariatePoly`])
//!   fits with their certified minimax error.
//! * [`dense`] — small dense linear-algebra kernels (Gaussian elimination,
//!   least squares) shared by the exchange solver and downstream crates.

pub mod dense;
pub mod exchange;
pub mod fit1d;
pub mod fit2d;
pub mod simplex;

pub use exchange::{
    minimax_exchange, minimax_exchange_in_basis, minimax_within, Basis, WithinScratch,
};
pub use fit1d::{fit_interpolating, fit_minimax, FitBackend, MinimaxFit};
pub use fit2d::{fit_minimax_2d, Fit2dBackend, MinimaxFit2d};
pub use simplex::{LpOutcome, LpProblem, Relation};
