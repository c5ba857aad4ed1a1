//! Property-based tests for the sampler and the traffic accounting.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_cache::unified::CacheHit;
use legion_cache::CliqueCache;
use legion_dyn::{ChurnConfig, DeltaOverlay, MutationLog, MutationOp};
use legion_graph::builder::from_edges;
use legion_graph::dataset::spec_by_name;
use legion_graph::{FeatureTable, VertexId};
use legion_hw::pcm::TrafficKind;
use legion_hw::ServerSpec;
use legion_sampling::access::{
    sample_from, AccessEngine, BatchTotals, CacheLayout, TopologyPlacement,
};
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
        prop_assert_eq!(server.pcm().total(), expected);
    }

    /// The metering pass of a timing run and the copying gather charge
    /// alike, whatever the layout. Each side has a server of its own, so
    /// every counter after the flush *is* the batch-local total before it.
    #[test]
    fn metering_pass_charges_what_the_copying_gather_charges(
        n in 8u32..40,
        dim in prop_oneof![Just(1usize), Just(4), Just(16), Just(33)],
        layout_kind in 0usize..5,
        cached in proptest::collection::vec((0u32..40, 0usize..2, 0usize..4), 0..30),
        vertices in proptest::collection::vec(0u32..40, 0..80),
        gpu in 0usize..4,
    ) {
        let ring: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = from_edges(n as usize, &ring);
        let f = FeatureTable::from_flat((0..n as usize * dim).map(|x| x as f32).collect(), dim);
        let vertices: Vec<VertexId> = vertices.into_iter().map(|v| v % n).collect();
        // 0: no cache; 1: one clique, GPUs 2 and 3 uncached; 2: two
        // cliques, local and peer rows; 3: the same under a dirty overlay
        // (topology-only: extraction must not see it); 4: one 4-GPU
        // clique, where a peer row has three possible owners.
        let groups = match layout_kind {
            4 => vec![vec![0, 1, 2, 3]],
            kind => [vec![0, 1], vec![2, 3]].into_iter().take(kind.min(2)).collect(),
        };
        let mut cliques: Vec<CliqueCache> = groups
            .into_iter()
            .map(|gpus| CliqueCache::new(gpus, n as usize, dim))
            .collect();
        for &(v, clique, slot) in &cached {
            if let Some(cc) = cliques.get_mut(clique) {
                let slot = slot % cc.gpus().len();
                cc.insert_feature(slot, v % n);
            }
        }
        // NVLink bytes into `gpu` by source GPU, from each member's own
        // view of the directory: a row is read from the peer that holds
        // it locally.
        let mut peer_expected = [0u64; 4];
        if let Some(cc) = cliques.iter().find(|cc| cc.gpus().contains(&gpu)) {
            for &v in &vertices {
                let owner = cc.gpus().iter().enumerate().find(|&(slot, _)| {
                    cc.lookup_feature(slot, v) == Some(CacheHit::Local)
                });
                if let Some((_, &src)) = owner.filter(|&(_, &src)| src != gpu) {
                    peer_expected[src] += f.row_bytes();
                }
            }
        }
        let layout = CacheLayout::from_cliques(4, cliques);
        let overlay = DeltaOverlay::new(n as usize);
        for &v in vertices.iter().take(3) {
            overlay.apply(&g, &MutationOp::InsertEdge { src: v, dst: (v + 2) % n });
        }
        let clique_size = if layout_kind == 4 { 4 } else { 2 };
        let server = || ServerSpec::custom(4, 1 << 30, clique_size).build();
        let (metered, copied) = (server(), server());
        let engine_on = |server| {
            AccessEngine::new(&g, &f, &layout, server, TopologyPlacement::CpuUva)
                .with_overlay((layout_kind == 3).then_some(&overlay))
        };
        let (metering, copying) = (engine_on(&metered), engine_on(&copied));
        let would_miss: Vec<VertexId> =
            vertices.iter().copied().filter(|&v| !metering.feature_would_hit(gpu, v)).collect();
        let rows_of: Vec<f32> = vertices.iter().flat_map(|&v| f.row(v)).copied().collect();

        let (mut totals, mut rows, mut missed) = (BatchTotals::new(4), Vec::new(), Vec::new());
        // Twice over one reused `totals`: nothing carries into a call.
        for round in 1..=2u64 {
            missed.clear();
            let (feature_tx, peer_bytes) =
                metering.extract_metered(gpu, &vertices, &mut totals, |v| missed.push(v));
            copying.read_features_batch(gpu, &vertices, &mut rows, &mut totals);
            prop_assert!(totals.is_empty());
            prop_assert_eq!(&missed, &would_miss);
            prop_assert_eq!(&rows, &rows_of);
            let snapshot = metered.telemetry().snapshot();
            prop_assert_eq!(&snapshot, &copied.telemetry().snapshot());
            // The returned cost is the counters' movement, and each peer
            // is billed for the rows it holds.
            let peer_by_src: Vec<u64> =
                (0..4).map(|src| metered.traffic().gpu_to_gpu(src, gpu)).collect();
            let expected: Vec<u64> = peer_expected.iter().map(|b| b * round).collect();
            prop_assert_eq!(&peer_by_src, &expected);
            let peer_in: u64 = peer_by_src.iter().sum();
            let pcm_feature = metered.pcm().gpu_kind(gpu, TrafficKind::Feature);
            prop_assert_eq!((feature_tx * round, peer_bytes * round), (pcm_feature, peer_in));
            prop_assert_eq!(
                snapshot.counter(&format!("cache.gpu{gpu}.feature_misses")),
                would_miss.len() as u64 * round
            );
            prop_assert_eq!(
                snapshot.counter(&format!("extract.gpu{gpu}.rows")),
                vertices.len() as u64 * round
            );
        }
    }
}
