//! Property-based tests for the GNN models over randomly sampled blocks.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_gnn::{GnnModel, ModelKind};
use legion_graph::builder::from_edges;
use legion_graph::FeatureTable;
use legion_hw::ServerSpec;
use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::extract::extract_features;
use legion_sampling::KHopSampler;
use legion_tensor::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_always_produces_one_logit_row_per_seed(
        n in 8usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..160),
        num_seeds in 1usize..6,
        seed in 0u64..500,
        kind in prop_oneof![Just(ModelKind::GraphSage), Just(ModelKind::Gcn)],
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(s, d)| (s % n as u32, d % n as u32))
            .collect();
        let g = from_edges(n, &edges);
        let f = FeatureTable::random(n, 6, &mut StdRng::seed_from_u64(seed));
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 40, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![3, 3]);
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds: Vec<u32> = (0..num_seeds as u32).map(|i| i % n as u32).collect();
        // Seeds must be unique for a valid batch.
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let sample = sampler.sample_batch(&engine, 0, &uniq, &mut rng, None);
        let inputs = sample.input_vertices().to_vec();
        let feats = extract_features(&engine, 0, &inputs);
        let x = Matrix::from_flat(feats.num_rows(), feats.dim(), feats.to_vec());
        let model = GnnModel::new(kind, 6, 8, 3, 2, &mut rng);
        let logits = model.predict(x, &sample);
        prop_assert_eq!(logits.rows(), uniq.len());
        prop_assert_eq!(logits.cols(), 3);
        // Finite outputs.
        prop_assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }
}
