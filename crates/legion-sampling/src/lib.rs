//! GPU-style neighbor sampling over the simulated memory hierarchy.
//!
//! In the paper every GPU runs graph sampling, feature extraction and
//! training (§5). Here the same algorithms run on the host, but every
//! topology and feature access goes through an [`access::AccessEngine`]
//! that resolves it against the unified cache and *meters* it: local GPU
//! hits are free, NVLink peer hits add to the GPU↔GPU traffic matrix, and
//! CPU fallbacks add PCM PCIe transactions plus CPU→GPU bytes — exactly
//! the quantities the paper's figures report.
//!
//! * [`access`] — cache-aware, traffic-metered topology/feature reads,
//! * [`batch`] — local/global shuffling and mini-batch generation,
//! * [`sampler`] — the L-hop fixed-fanout neighbor sampler producing
//!   message-flow blocks (Figure 1's workflow),
//! * [`extract`] — the feature extractor operator,
//! * [`step`] — the one batch step (sample → extract → the tiers below
//!   HBM) that training, serving and the capacity probe run,
//! * [`landing`] — a serving GPU's landing ring, the tier that keeps the
//!   rows its last batches pulled over PCIe, and
//! * [`presample()`] — the pre-sampling phase that returns the expected
//!   `H_T`, `H_F` and `N_TSUM` of an epoch (§4.2.2 S1, Figure 6).
//!
//! # Examples
//!
//! ```
//! use legion_graph::builder::from_edges;
//! use legion_graph::FeatureTable;
//! use legion_hw::ServerSpec;
//! use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
//! use legion_sampling::KHopSampler;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = from_edges(4, &[(0, 1), (0, 2), (1, 3)]);
//! let f = FeatureTable::zeros(4, 8);
//! let layout = CacheLayout::none(1);
//! let server = ServerSpec::custom(1, 1 << 30, 1).build();
//! let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
//! let sampler = KHopSampler::new(vec![2, 2]);
//! let mut rng = StdRng::seed_from_u64(0);
//! let sample = sampler.sample_batch(&engine, 0, &[0], &mut rng, None);
//! // Every uncached topology read crossed (simulated) PCIe.
//! assert!(server.telemetry().snapshot().counter_sum("pcm.") > 0);
//! assert!(sample.all_vertices.contains(&0));
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::too_many_lines)]

pub mod access;
pub mod batch;
pub mod extract;
pub mod landing;
pub mod presample;
pub mod sampler;
pub mod step;

pub use access::{AccessEngine, BatchTotals, CacheLayout, FloydSet, TopologyPlacement};
pub use batch::BatchGenerator;
pub use landing::LandingRing;
pub use presample::{presample, presample_rng, worker_rng, PresampleOutput, HOTNESS_UNIT};
pub use sampler::{Block, KHopSampler, MiniBatchSample, SampleScratch};
pub use step::{BatchStep, Extract, LowerTier, Stepped};
