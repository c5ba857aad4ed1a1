//! Property-based tests for the sampler and its topology accounting;
//! the feature-extraction metering proptest sits beside the crate-private
//! metered pass, in `access.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_dyn::{ChurnConfig, DeltaOverlay, MutationLog, MutationOp};
use legion_graph::builder::from_edges;
use legion_graph::dataset::spec_by_name;
use legion_graph::{FeatureTable, VertexId};
use legion_hw::ServerSpec;
use legion_sampling::access::{sample_from, AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::KHopSampler;

/// The overlay under a whole churn stream at golden scale (PR/500, seed
/// 42, 100 K mutations/s over 0.4 s, compacted past 64 pending delta
/// edges): the rebuilt CSR equals the adjacency the log describes, every
/// merged row equals its rebuilt row, and sampling a dirty row at a
/// saturating fan-out returns exactly its live neighbourhood — no
/// deleted edge, no missing insert.
#[test]
fn merged_and_sampled_rows_match_the_rebuilt_csr_under_churn() {
    let d = spec_by_name("PR").unwrap().instantiate(500, 42);
    let g = &d.graph;
    let churn = ChurnConfig {
        ops_per_sec: 100_000.0,
        compact_threshold: 64,
    };
    let log = MutationLog::generate(g, &churn, 42, 0.4);
    // The reference adjacency: the log applied to plain edge sets.
    let mut live: Vec<std::collections::BTreeSet<VertexId>> = (0..g.num_vertices() as u32)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    let overlay = DeltaOverlay::new(g.num_vertices());
    let (mut deletes, mut compactions) = (0, 0);
    for m in &log.ops {
        let row = &mut live[m.op.vertex() as usize];
        match m.op {
            MutationOp::InsertEdge { dst, .. } => {
                row.insert(dst);
            }
            MutationOp::DeleteEdge { dst, .. } => {
                row.remove(&dst);
                deletes += 1;
            }
            MutationOp::ChurnVertex { .. } => row.clear(),
        }
        overlay.apply(g, &m.op);
        if overlay.pending_delta_edges() >= churn.compact_threshold {
            overlay.compact(g);
            compactions += 1;
        }
    }
    assert!(
        deletes > 0 && compactions > 0,
        "the log must delete and compact"
    );
    let rebuilt = overlay.rebuild_csr(g);
    let (mut merged, mut dirty) = (Vec::new(), Vec::new());
    for v in 0..g.num_vertices() as u32 {
        let want: Vec<VertexId> = live[v as usize].iter().copied().collect();
        assert_eq!(rebuilt.neighbors(v), &want[..], "rebuilt row {v}");
        overlay.merge_into(g, v, &mut merged);
        merged.sort_unstable();
        assert_eq!(
            merged, want,
            "merged row {v} must equal the rebuilt CSR row"
        );
        if overlay.is_dirty(v) {
            dirty.push(v);
        }
    }
    let server = ServerSpec::custom(4, 1 << 30, 2).build();
    let layout = CacheLayout::none(4);
    let engine = AccessEngine::new(g, &d.features, &layout, &server, TopologyPlacement::CpuUva)
        .with_overlay(Some(&overlay));
    let mut rng = StdRng::seed_from_u64(42);
    for &v in &dirty {
        let want = rebuilt.neighbors(v);
        let mut got = engine.sample_neighbors(0, v, want.len().max(1), &mut rng);
        got.sort_unstable();
        assert_eq!(got, want, "sampling dirty row {v} at a saturating fan-out");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sample_from_is_a_distinct_subset(
        pool in proptest::collection::vec(0u32..1000, 0..60),
        fanout in 0usize..20,
        seed in 0u64..1000,
    ) {
        // De-duplicate the pool so distinctness is well-defined.
        let mut pool = pool;
        pool.sort_unstable();
        pool.dedup();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_from(&pool, fanout, &mut rng);
        prop_assert_eq!(s.len(), pool.len().min(fanout));
        // Subset.
        for v in &s {
            prop_assert!(pool.contains(v));
        }
        // Distinct.
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), s.len());
    }

    #[test]
    fn sampled_blocks_reference_real_edges(
        n in 4usize..40,
        edges in proptest::collection::vec((0u32..40, 0u32..40), 1..200),
        seed in 0u64..1000,
        fanout in 1usize..6,
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(s, d)| (s % n as u32, d % n as u32))
            .collect();
        let g = from_edges(n, &edges);
        let f = FeatureTable::zeros(n, 4);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 40, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![fanout, fanout]);
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds: Vec<VertexId> = vec![0, (n / 2) as u32];
        let sample = sampler.sample_batch(&engine, 0, &seeds, &mut rng, None);
        // Every sampled edge exists in the graph.
        for block in &sample.blocks {
            for (&di, &si) in block.edge_dst.iter().zip(&block.edge_src) {
                let dst = block.src_vertices[di as usize];
                let src = block.src_vertices[si as usize];
                prop_assert!(
                    g.neighbors(dst).contains(&src),
                    "sampled non-edge {dst}->{src}"
                );
            }
        }
        // all_vertices is sorted, unique, includes the seeds.
        prop_assert!(sample.all_vertices.windows(2).all(|w| w[0] < w[1]));
        for s in &seeds {
            prop_assert!(sample.all_vertices.binary_search(s).is_ok());
        }
    }

    #[test]
    fn pcm_transactions_match_sampled_edges_exactly(
        n in 4usize..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30), 1..150),
        seed in 0u64..1000,
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(s, d)| (s % n as u32, d % n as u32))
            .collect();
        let g = from_edges(n, &edges);
        let f = FeatureTable::zeros(n, 4);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 40, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![3]);
        let mut rng = StdRng::seed_from_u64(seed);
        let seeds: Vec<VertexId> = (0..n as u32).step_by(3).collect();
        let sample = sampler.sample_batch(&engine, 0, &seeds, &mut rng, None);
        // Uncached UVA sampling: 1 offset transaction per seed + 1 per
        // sampled edge.
        let expected = seeds.len() as u64 + sample.total_edges() as u64;
        prop_assert_eq!(server.telemetry().snapshot().counter_sum("pcm."), expected);
    }
}
