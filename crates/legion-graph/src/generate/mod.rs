//! Synthetic graph generators.
//!
//! The paper evaluates on real web/social graphs whose defining property —
//! for cache behaviour — is a heavy-tailed (power-law) degree distribution.
//! These generators synthesize scaled-down graphs with matched skew:
//!
//! * [`rmat`] — recursive-matrix (R-MAT) generator, the standard stand-in
//!   for web crawls such as UK-2014 and Clue-web,
//! * [`chung_lu`] — Chung–Lu model with a Zipf expected-degree sequence,
//!   matching social networks such as Com-Friendster,
//! * [`sbm`] — planted-partition stochastic block model with
//!   community-correlated features, giving a *learnable* classification task
//!   for the convergence experiment (Figure 11), and
//! * [`zipf`] — the discrete Zipf sampler shared by the other generators.

pub mod chung_lu;
pub mod rmat;
pub mod sbm;
pub mod zipf;

pub use chung_lu::ChungLuConfig;
pub use rmat::RmatConfig;
pub use sbm::{SbmConfig, SbmGraph};
pub use zipf::Zipf;
