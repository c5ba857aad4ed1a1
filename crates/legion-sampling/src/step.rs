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
    /// Whether the rows this tier claims are already in HBM, so they
    /// cross no PCIe link ([`LandingRing`](crate::LandingRing)). They
    /// still count as HBM misses.
    fn in_hbm(&self) -> bool {
        false
    }
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
        // Whether the miss crosses PCIe: unless a tier in HBM claims it.
        let on_miss = |v| {
            for tier in tiers.iter_mut() {
                if tier.claim(v) {
                    return !tier.in_hbm();
                }
            }
            true
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

    /// Runs `seeds` on GPU 0 once per entry of `stream` (the RNG seed of
    /// that batch), the landing ring `ring` after `remote`, and returns
    /// each batch's sample and PCIe feature transactions.
    fn run_stream(
        stream: &[u64],
        seeds: &[VertexId],
        mut ring: Option<&mut crate::LandingRing>,
        mut remote: Option<&mut Stub>,
    ) -> Vec<(Vec<VertexId>, u64)> {
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let (g, f, layout) = fixture();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let time = TimeModel::new(server.spec());
        let mut step = BatchStep::new(KHopSampler::new(vec![3, 2]), time, 2);
        let tx = || server.pcm().gpu_kind(0, TrafficKind::Feature);
        stream
            .iter()
            .map(|&seed| {
                let remote = remote.as_deref_mut().map(|t| t as &mut dyn LowerTier);
                let ring = ring.as_deref_mut().map(|t| t as &mut dyn LowerTier);
                let mut tiers: Vec<_> = remote.into_iter().chain(ring).collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let before = tx();
                let out = step.run(
                    &engine,
                    0,
                    0,
                    seeds,
                    &mut rng,
                    None,
                    Extract::Layout,
                    &mut tiers,
                    0.0,
                );
                (out.sample.all_vertices, tx() - before)
            })
            .collect()
    }

    /// The ring a batch of `seeds` seeds lands in, and its capacity.
    fn ring_for(seeds: usize) -> (crate::LandingRing, usize) {
        let capacity = KHopSampler::new(vec![3, 2]).max_rows(seeds);
        let reused = legion_telemetry::Registry::new().counter("reused");
        (crate::LandingRing::new(capacity, 64, reused), capacity)
    }

    /// ROADMAP 11's per-batch relation for the ring: on one batch stream,
    /// the ring samples the same rows, leaves the first batch's PCIe
    /// feature transactions as they were and never raises a later one.
    #[test]
    fn the_ring_never_raises_a_batchs_pcie_feature_transactions() {
        let stream = [3, 3, 7, 11, 3, 5, 7, 13];
        let seeds: Vec<VertexId> = (0..6).collect();
        let plain = run_stream(&stream, &seeds, None, None);
        let (mut ring, capacity) = ring_for(seeds.len());
        let ringed = run_stream(&stream, &seeds, Some(&mut ring), None);
        for (i, ((rows, tx), (ring_rows, ring_tx))) in plain.iter().zip(&ringed).enumerate() {
            assert_eq!(rows, ring_rows, "batch {i}: the ring changed the sample");
            assert!(rows.len() <= capacity, "batch {i} overflows the ring");
            assert!(ring_tx <= tx, "batch {i}: {ring_tx} > {tx}");
        }
        assert_eq!(ringed[0].1, plain[0].1, "an empty ring saves nothing");
        let total = |run: &[(Vec<VertexId>, u64)]| run.iter().map(|b| b.1).sum::<u64>();
        assert!(
            total(&ringed) < total(&plain),
            "the stream repeats rows, so the ring must save some transactions"
        );
    }

    /// A row an earlier tier claims (another server's) never enters the
    /// ring: a repeated batch re-reads it there, while its own rows come
    /// from the ring.
    #[test]
    fn a_row_an_earlier_tier_takes_never_enters_the_ring() {
        let seeds: Vec<VertexId> = (0..6).collect();
        let (mut ring, _) = ring_for(seeds.len());
        let mut remote = Stub::new(|v| v % 4 == 2, 0.0);
        let out = run_stream(&[9, 9], &seeds, Some(&mut ring), Some(&mut remote));
        assert_eq!(out[0].0, out[1].0, "one RNG seed, one sample");
        let (remote_rows, own): (Vec<VertexId>, Vec<VertexId>) = out[0]
            .0
            .iter()
            .filter(|v| *v % 4 >= 2)
            .partition(|v| *v % 4 == 2);
        assert!(
            !remote_rows.is_empty() && !own.is_empty(),
            "fixture too small"
        );
        let twice: Vec<VertexId> = remote_rows.iter().chain(&remote_rows).copied().collect();
        assert_eq!(remote.claimed, twice, "the remote tier serves both batches");
        assert!(remote_rows.iter().all(|&v| !ring.holds(v)));
        assert!(own.iter().all(|&v| ring.holds(v)));
        let row_tx = ServerSpec::custom(2, 1 << 30, 2)
            .build()
            .pcie()
            .transactions_for_payload(64);
        let expected = (remote_rows.len() as u64 * row_tx, own.len() as u64 * row_tx);
        assert_eq!((out[1].1, out[0].1 - out[1].1), expected);
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
