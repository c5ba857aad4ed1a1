//! The pre-sampling phase (§4.2.2 S1, Figure 6).
//!
//! "Each GPU conducts a local shuffle on its own training vertex tablet to
//! generate seeds for mini-batches, performs graph sampling for each
//! mini-batch, and updates the corresponding row in `H_T` and `H_F`. For
//! `H_T`, whenever an edge is traversed during sampling, the hotness of
//! its source vertex is incremented by 1. For `H_F`, the hotness for each
//! vertex that appears in the sample results of the mini-batch is
//! incremented by 1."
//!
//! During pre-sampling "graph topology is stored in the CPU memory"
//! (footnote 2), so every topology read crosses PCIe; the resulting PCM
//! tally is the paper's `N_TSUM`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_cache::HotnessMatrix;
use legion_graph::{CsrGraph, FeatureTable, VertexId};
use legion_hw::pcm::TrafficKind;
use legion_hw::{GpuId, MultiGpuServer};

use crate::access::{AccessEngine, CacheLayout, TopologyPlacement};
use crate::batch::BatchGenerator;
use crate::sampler::{KHopSampler, SampleScratch};

/// Pre-sampling output for one NVLink clique.
#[derive(Debug, Clone)]
pub struct PresampleOutput {
    /// Topology hotness matrix `H_T` (rows = clique slots).
    pub h_t: HotnessMatrix,
    /// Feature hotness matrix `H_F`.
    pub h_f: HotnessMatrix,
    /// `N_TSUM`: summed sampling PCIe transactions of the clique's GPUs
    /// during pre-sampling.
    pub n_tsum: u64,
}

/// Salt that gives pre-sampling an RNG stream of its own. Workers seed
/// GPU `g` with `seed ^ g·c` ([`worker_rng`]); unsalted, both formulas
/// reduce to `seed` at GPU 0, whose training epoch would then redraw the
/// very shuffle and neighbours its cache was built from.
const PRESAMPLE_STREAM: u64 = 0x7072_6573_616d_706c; // "presampl"

/// The RNG pre-sampling draws GPU `gpu`'s shuffle and neighbours from.
pub fn presample_rng(seed: u64, gpu: GpuId) -> StdRng {
    StdRng::seed_from_u64(seed ^ PRESAMPLE_STREAM ^ (gpu as u64).wrapping_mul(0x9E37_79B9))
}

/// The RNG GPU `gpu`'s trainer or serving worker draws from.
pub fn worker_rng(seed: u64, gpu: GpuId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (gpu as u64).wrapping_mul(0x517c_c1b7))
}

/// Runs pre-sampling for one clique.
///
/// * `clique_gpus` — the clique's GPU ids (slot order),
/// * `tablets` — one training tablet per slot,
/// * `epochs` — pre-sampling epochs (GNNLab and Legion use one).
///
/// The server's PCM counters are reset before the run so `n_tsum` is
/// exactly this phase's traffic; Legion resets the counters again after
/// collection so the training-phase measurements start clean.
#[allow(clippy::too_many_arguments)]
pub fn presample(
    graph: &CsrGraph,
    features: &FeatureTable,
    server: &MultiGpuServer,
    clique_gpus: &[GpuId],
    tablets: &[Vec<VertexId>],
    sampler: &KHopSampler,
    batch_size: usize,
    epochs: usize,
    seed: u64,
) -> PresampleOutput {
    assert_eq!(
        clique_gpus.len(),
        tablets.len(),
        "one tablet per clique GPU"
    );
    let kg = clique_gpus.len();
    let n = graph.num_vertices();
    let mut h_t = HotnessMatrix::new(kg, n);
    let mut h_f = HotnessMatrix::new(kg, n);
    let layout = CacheLayout::none(server.num_gpus());
    let engine = AccessEngine::new(graph, features, &layout, server, TopologyPlacement::CpuUva);

    server.pcm().reset();
    let mut scratch = SampleScratch::new();
    for (slot, (&gpu, tablet)) in clique_gpus.iter().zip(tablets).enumerate() {
        let mut rng = presample_rng(seed, gpu);
        let mut generator = BatchGenerator::new(tablet.clone(), batch_size);
        for _ in 0..epochs {
            for batch in generator.epoch(&mut rng) {
                let mut on_row = |v: VertexId, drawn: u64| h_t.add(slot, v, drawn);
                let sample = sampler.sample_batch_with(
                    &engine,
                    gpu,
                    &batch,
                    &mut rng,
                    Some(&mut on_row),
                    &mut scratch,
                );
                for &v in &sample.all_vertices {
                    h_f.add(slot, v, 1);
                }
            }
        }
    }
    let n_tsum = server
        .pcm()
        .clique_total(clique_gpus, TrafficKind::Topology);
    server.pcm().reset();
    PresampleOutput { h_t, h_f, n_tsum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::generate::ChungLuConfig;
    use legion_hw::ServerSpec;
    use rand::Rng;

    fn fixture() -> (CsrGraph, FeatureTable, Vec<Vec<VertexId>>) {
        let mut rng = StdRng::seed_from_u64(31);
        let g = ChungLuConfig {
            num_vertices: 400,
            num_edges: 4000,
            exponent: 0.9,
            shuffle_ids: false,
            ..Default::default()
        }
        .generate(&mut rng);
        let f = FeatureTable::zeros(400, 8);
        let train: Vec<VertexId> = (0..400).filter(|_| rng.gen::<f64>() < 0.2).collect();
        let tablets = vec![
            train.iter().copied().filter(|v| v % 2 == 0).collect(),
            train.iter().copied().filter(|v| v % 2 == 1).collect(),
        ];
        (g, f, tablets)
    }

    #[test]
    fn hotness_rows_match_tablets() {
        let (g, f, tablets) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let out = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &KHopSampler::new(vec![5, 5]),
            32,
            1,
            9,
        );
        // Every seed appears in its own GPU's H_F row.
        for (slot, tablet) in tablets.iter().enumerate() {
            for &v in tablet {
                assert!(out.h_f.get(slot, v) >= 1, "seed {v} missing on slot {slot}");
            }
        }
        assert!(out.n_tsum > 0);
    }

    #[test]
    fn topology_hotness_tracks_sampled_sources() {
        let (g, f, tablets) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let out = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &KHopSampler::new(vec![5, 5]),
            32,
            1,
            9,
        );
        // Total H_T increments == total traversed edges; each traversed
        // edge also contributed exactly one 4-byte PCIe transaction, plus
        // one offset transaction per topology read. So N_TSUM must be
        // strictly larger than the H_T total but by less than 2x.
        let ht_total: u64 = out.h_t.column_wise_sum().iter().sum();
        assert!(ht_total > 0);
        assert!(out.n_tsum > ht_total);
        assert!(out.n_tsum < 2 * ht_total + 1);
    }

    #[test]
    fn topology_hotness_is_the_tally_of_every_blocks_edge_runs() {
        let (g, f, tablets) = fixture();
        let fanouts = vec![5, 3];
        assert!(
            (0..400).any(|v| g.degree(v) as usize > 4 * fanouts[0]),
            "fixture needs hubs above the fan-out"
        );
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let sampler = KHopSampler::new(fanouts);
        let out = presample(&g, &f, &server, &[0, 1], &tablets, &sampler, 32, 2, 9);
        // Replay the same batches with no hook and count, per block, one
        // hotness per edge on the edge's destination row.
        let layout = CacheLayout::none(2);
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let mut tally = HotnessMatrix::new(2, 400);
        let mut scratch = SampleScratch::new();
        for (slot, tablet) in tablets.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                9 ^ PRESAMPLE_STREAM ^ (slot as u64).wrapping_mul(0x9E37_79B9),
            );
            let mut generator = BatchGenerator::new(tablet.clone(), 32);
            for _ in 0..2 {
                for batch in generator.epoch(&mut rng) {
                    let sample = sampler.sample_batch_with(
                        &engine,
                        slot,
                        &batch,
                        &mut rng,
                        None,
                        &mut scratch,
                    );
                    for b in &sample.blocks {
                        for &dst in &b.edge_dst {
                            tally.add(slot, b.src_vertices[dst as usize], 1);
                        }
                    }
                }
            }
        }
        assert_eq!(out.h_t, tally);
    }

    #[test]
    fn counters_reset_after_presampling() {
        let (g, f, tablets) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let _ = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &KHopSampler::new(vec![3]),
            16,
            1,
            1,
        );
        assert_eq!(server.pcm().total(), 0, "PCM must be clean for training");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (g, f, tablets) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let a = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &KHopSampler::new(vec![4]),
            16,
            1,
            5,
        );
        server.reset();
        let b = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &KHopSampler::new(vec![4]),
            16,
            1,
            5,
        );
        assert_eq!(a.h_t, b.h_t);
        assert_eq!(a.h_f, b.h_f);
        assert_eq!(a.n_tsum, b.n_tsum);
    }

    #[test]
    fn more_epochs_more_hotness() {
        let (g, f, tablets) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let one = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &KHopSampler::new(vec![4]),
            16,
            1,
            5,
        );
        server.reset();
        let three = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &KHopSampler::new(vec![4]),
            16,
            3,
            5,
        );
        let h1: u64 = one.h_f.column_wise_sum().iter().sum();
        let h3: u64 = three.h_f.column_wise_sum().iter().sum();
        assert!(h3 > 2 * h1);
    }

    #[test]
    fn empty_tablets_produce_zero_hotness() {
        let (g, f, _) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let out = presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &[vec![], vec![]],
            &KHopSampler::new(vec![4]),
            16,
            1,
            5,
        );
        assert_eq!(out.n_tsum, 0);
        assert!(out.h_t.column_wise_sum().iter().all(|&h| h == 0));
    }
}
