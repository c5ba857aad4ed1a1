//! The batch step (§5): one mini-batch goes sample → extract → the tiers
//! below HBM, and comes back as the traffic each stage caused and the
//! stage times priced from it. Training, serving and the capacity probe
//! all run this one body; each keeps only what differs around it.

use rand::Rng;

use legion_cache::unified::CacheHit;
use legion_cache::FifoCache;
use legion_graph::VertexId;
use legion_hw::{GpuId, TimeModel};

use crate::access::{AccessEngine, BatchTotals};
use crate::sampler::{KHopSampler, MiniBatchSample, SampleScratch};

/// A feature tier below HBM (host store, SSD, another server). Every
/// HBM miss of a batch is offered to the tiers in order until one
/// claims it; after extraction each tier charges the stall of what it
/// claimed.
pub trait LowerTier {
    /// Offered one HBM miss: `true` takes it, and no later tier sees it.
    fn claim(&mut self, v: VertexId) -> bool;
    /// Resolves the rows claimed since the last charge at simulated time
    /// `at` and returns the extraction stall, seconds.
    fn charge(&mut self, at: f64) -> f64;
}

/// How a batch's feature rows are classified. Either way the rows are
/// metered by the engine's extraction pass and never read: the stage
/// time comes from the counts.
pub enum Extract<'a> {
    /// The engine's layout holds the cache, so its clique directory says
    /// hit, peer hit or miss.
    Layout,
    /// A dynamic cache whose resident set mutates per access: each row is
    /// a local hit or a miss as the FIFO says. Replacement bookkeeping is
    /// not charged to time (DESIGN.md §5c).
    Fifo(&'a mut FifoCache),
}

/// What one [`BatchStep::run`] produced.
pub struct Stepped {
    /// The sampled mini-batch.
    pub sample: MiniBatchSample,
    /// Topology PCIe transactions the sampling charged.
    pub topo_tx: u64,
    /// Sampling time, seconds.
    pub sample_s: f64,
    /// Extraction time including every lower tier's stall, seconds.
    pub extract_s: f64,
}

/// The sample → extract → tier-charge step, with the working memory it
/// reuses across every batch (the sampler's scratch arena and the
/// batch-local meter totals).
pub struct BatchStep {
    sampler: KHopSampler,
    time: TimeModel,
    scratch: SampleScratch,
    totals: BatchTotals,
}

impl BatchStep {
    /// A step for a server of `num_gpus` GPUs.
    pub fn new(sampler: KHopSampler, time: TimeModel, num_gpus: usize) -> Self {
        Self {
            sampler,
            time,
            scratch: SampleScratch::new(),
            totals: BatchTotals::new(num_gpus),
        }
    }

    /// The time model the step prices its stages with.
    pub fn time(&self) -> &TimeModel {
        &self.time
    }

    /// Runs one mini-batch: samples `seeds` on `sampling_gpu` (reporting
    /// each expanded row and its drawn-edge count to `on_row`), meters
    /// the sample's rows on `gpu` as `how` classifies them, hands each
    /// HBM miss to the first of `tiers` that claims it, and prices the
    /// stages.
    /// `extract_s` is the PCIe / NVLink time plus each tier's
    /// [`LowerTier::charge`] at `at`, added in slice order.
    #[allow(clippy::too_many_arguments)]
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        engine: &AccessEngine<'_>,
        sampling_gpu: GpuId,
        gpu: GpuId,
        seeds: &[VertexId],
        rng: &mut R,
        on_row: Option<&mut dyn FnMut(VertexId, u64)>,
        how: Extract<'_>,
        tiers: &mut [&mut dyn LowerTier],
        at: f64,
    ) -> Stepped {
        let (sample, topo_tx) = engine.sample_metered(
            &self.sampler,
            sampling_gpu,
            seeds,
            rng,
            on_row,
            &mut self.scratch,
        );
        let sample_s = self
            .time
            .sample_seconds(topo_tx, sample.total_edges() as u64);
        let on_miss = |v| {
            tiers.iter_mut().any(|t| t.claim(v));
        };
        let (rows, totals) = (&sample.all_vertices, &mut self.totals);
        let (feat_tx, peer_bytes) = match how {
            Extract::Layout => engine.extract_metered(gpu, rows, totals, on_miss),
            Extract::Fifo(cache) => {
                let classify = |v| cache.access(v).then_some(CacheHit::Local);
                engine.extract_metered_by(gpu, rows, totals, classify, on_miss)
            }
        };
        let mut extract_s = self.time.extract_seconds(feat_tx, peer_bytes);
        for tier in tiers {
            extract_s += tier.charge(at);
        }
        Stepped {
            sample,
            topo_tx,
            sample_s,
            extract_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{CacheLayout, TopologyPlacement};
    use legion_cache::CliqueCache;
    use legion_graph::{CsrGraph, FeatureTable, GraphBuilder};
    use legion_hw::pcm::TrafficKind;
    use legion_hw::{MultiGpuServer, ServerSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A tier that takes the misses `takes` accepts and stalls `stall`
    /// seconds per charge, recording what reached it.
    struct Stub {
        takes: fn(VertexId) -> bool,
        stall: f64,
        claimed: Vec<VertexId>,
        charged_at: Vec<f64>,
    }

    impl Stub {
        fn new(takes: fn(VertexId) -> bool, stall: f64) -> Self {
            Self {
                takes,
                stall,
                claimed: Vec::new(),
                charged_at: Vec::new(),
            }
        }
    }

    impl LowerTier for Stub {
        fn claim(&mut self, v: VertexId) -> bool {
            let took = (self.takes)(v);
            if took {
                self.claimed.push(v);
            }
            took
        }

        fn charge(&mut self, at: f64) -> f64 {
            self.charged_at.push(at);
            self.stall
        }
    }

    /// A 64-vertex ring with chords, over a two-GPU clique whose GPU 0
    /// holds every fourth row and GPU 1 the next: GPU 0's extraction
    /// sees local hits, peer hits and misses. Topology is uncached, so
    /// every NVLink byte into GPU 0 is a feature row.
    fn fixture() -> (CsrGraph, FeatureTable, CacheLayout) {
        let n = 64u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            for d in [1, 5, 17] {
                b.push_edge(v, (v + d) % n);
            }
        }
        let mut cc = CliqueCache::new(vec![0, 1], n as usize, 16);
        for v in 0..n {
            match v % 4 {
                0 => cc.insert_feature(0, v),
                1 => cc.insert_feature(1, v),
                _ => {}
            }
        }
        (
            b.build(),
            FeatureTable::zeros(n as usize, 16),
            CacheLayout::from_cliques(2, vec![cc]),
        )
    }

    /// One batch on GPU 0 with `tiers` at `at`, and its PCIe feature
    /// transactions and NVLink bytes read off the server.
    fn run_on(
        server: &MultiGpuServer,
        tiers: &mut [&mut dyn LowerTier],
        at: f64,
    ) -> (Stepped, u64, u64) {
        let (g, f, layout) = fixture();
        let engine = AccessEngine::new(&g, &f, &layout, server, TopologyPlacement::CpuUva);
        let time = TimeModel::new(server.spec());
        let mut step = BatchStep::new(KHopSampler::new(vec![3, 2]), time, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let seeds: Vec<VertexId> = (0..8).collect();
        let out = step.run(
            &engine,
            0,
            0,
            &seeds,
            &mut rng,
            None,
            Extract::Layout,
            tiers,
            at,
        );
        let feat_tx = server.pcm().gpu_kind(0, TrafficKind::Feature);
        (out, feat_tx, server.traffic().gpu_to_gpu(1, 0))
    }

    #[test]
    fn misses_reach_the_first_claiming_tier_and_charges_add_in_order() {
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let mut even = Stub::new(|v| v % 2 == 0, 0.25);
        let mut thirds = Stub::new(|v| v % 3 == 0, 3e-7);
        let at = 1.5;
        let (out, feat_tx, peer_bytes) = run_on(&server, &mut [&mut even, &mut thirds], at);
        // GPU 0 holds v % 4 == 0 and reads v % 4 == 1 from its peer.
        let misses: Vec<VertexId> = out
            .sample
            .all_vertices
            .iter()
            .copied()
            .filter(|v| v % 4 >= 2)
            .collect();
        let first: Vec<VertexId> = misses.iter().copied().filter(|v| v % 2 == 0).collect();
        let second: Vec<VertexId> = misses
            .iter()
            .copied()
            .filter(|v| v % 2 == 1 && v % 3 == 0)
            .collect();
        assert!(!first.is_empty() && !second.is_empty(), "fixture too small");
        assert!(
            misses.iter().any(|v| v % 2 == 1 && v % 3 != 0),
            "fixture has no unclaimed miss"
        );
        assert_eq!(
            even.claimed, first,
            "a miss goes to the first tier that claims it"
        );
        assert_eq!(thirds.claimed, second, "and to no later tier");
        assert_eq!((even.charged_at, thirds.charged_at), (vec![at], vec![at]));
        let time = TimeModel::new(server.spec());
        let expected = time.extract_seconds(feat_tx, peer_bytes) + 0.25 + 3e-7;
        assert_eq!(out.extract_s.to_bits(), expected.to_bits());
    }

    #[test]
    fn no_tier_prices_extraction_from_the_links_alone() {
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let (out, feat_tx, peer_bytes) = run_on(&server, &mut [], 0.0);
        assert!(
            feat_tx > 0 && peer_bytes > 0,
            "fixture must cross PCIe and NVLink"
        );
        let time = TimeModel::new(server.spec());
        assert_eq!(
            out.extract_s.to_bits(),
            time.extract_seconds(feat_tx, peer_bytes).to_bits()
        );
        assert_eq!(out.topo_tx, server.pcm().gpu_kind(0, TrafficKind::Topology));
        assert_eq!(
            out.sample_s.to_bits(),
            time.sample_seconds(out.topo_tx, out.sample.total_edges() as u64)
                .to_bits()
        );
    }
}
