//! Integration test: identical seeds reproduce identical systems and
//! measurements; different seeds genuinely differ. Deterministic replay
//! is what makes the figure regeneration meaningful.

use legion_core::runner::run_epoch;
use legion_core::system::legion_setup_with_plans;
use legion_core::LegionConfig;
use legion_graph::dataset::spec_by_name;
use legion_hw::ServerSpec;

fn config(seed: u64) -> LegionConfig {
    LegionConfig {
        fanouts: vec![5, 5],
        batch_size: 64,
        seed,
        ..Default::default()
    }
}

fn run_once(seed: u64) -> (f64, u64, Vec<f64>, f64) {
    let ds = spec_by_name("PR").unwrap().instantiate(1000, seed);
    let spec = ServerSpec::custom(4, 16 << 20, 2);
    let server = spec.build();
    let cfg = config(seed);
    let ctx = cfg.build_context(&ds, &server);
    let (setup, plans) = legion_setup_with_plans(&ctx, &cfg).unwrap();
    let report = run_epoch(&setup, &ctx, &cfg);
    (
        report.epoch_seconds,
        report.pcie_total,
        report.per_gpu_hit_rates(),
        plans[0].alpha,
    )
}

#[test]
fn same_seed_same_everything() {
    let a = run_once(42);
    let b = run_once(42);
    assert_eq!(a.0, b.0, "epoch seconds differ");
    assert_eq!(a.1, b.1, "PCIe transactions differ");
    assert_eq!(a.2, b.2, "hit rates differ");
    assert_eq!(a.3, b.3, "chosen alpha differs");
}

#[test]
fn same_seed_byte_identical_metric_snapshots() {
    // The telemetry snapshot is the source of truth for every figure, so
    // replaying a seed must reproduce it bit-for-bit — including the f64
    // gauges, which round-trip through their exact bit patterns.
    let snapshot_json = |seed: u64| {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, seed);
        let spec = ServerSpec::custom(4, 16 << 20, 2);
        let server = spec.build();
        let cfg = config(seed);
        let ctx = cfg.build_context(&ds, &server);
        let (setup, _) = legion_setup_with_plans(&ctx, &cfg).unwrap();
        let report = run_epoch(&setup, &ctx, &cfg);
        serde_json::to_string_pretty(&report.metrics).unwrap()
    };
    let a = snapshot_json(42);
    let b = snapshot_json(42);
    assert_eq!(a, b, "same-seed metric snapshots must be byte-identical");
    let c = snapshot_json(43);
    assert_ne!(a, c, "different seeds should change the metric snapshot");
}

#[test]
fn different_seed_different_traffic() {
    let a = run_once(42);
    let b = run_once(43);
    assert_ne!(a.1, b.1, "different seeds should change sampling traffic");
}

/// Reads are observationally independent of how they are batched: one
/// vertex at a time ([`AccessEngine::sample_neighbors`], one-row
/// gathers) or a whole frontier through the wave sampler and one gather
/// — same outputs, same RNG stream, and a byte-identical telemetry
/// snapshot once the totals flush.
#[test]
fn batched_reads_match_scalar_reads_byte_identically() {
    use legion_cache::CliqueCache;
    use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
    use legion_sampling::{BatchTotals, KHopSampler, SampleScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let ds = spec_by_name("PR").unwrap().instantiate(1000, 9);
    let n = ds.graph.num_vertices();
    let vertices: Vec<u32> = (0..n as u32).step_by(3).collect();
    // A two-GPU clique cache so the runs exercise local hits, NVLink
    // peer hits, and CPU misses.
    let build_layout = || {
        let mut cc = CliqueCache::new(vec![0, 1], n, ds.features.dim());
        for v in (0..n as u32).step_by(5) {
            cc.insert_topology((v % 2) as usize, v, ds.graph.neighbors(v));
        }
        for v in (0..n as u32).step_by(4) {
            cc.insert_feature(((v / 4) % 2) as usize, v, ds.features.row(v));
        }
        CacheLayout::from_cliques(2, vec![cc])
    };

    // One vertex per call.
    let server_a = ServerSpec::custom(2, 64 << 20, 2).build();
    let layout_a = build_layout();
    let engine_a = AccessEngine::new(
        &ds.graph,
        &ds.features,
        &layout_a,
        &server_a,
        TopologyPlacement::CpuUva,
    );
    let mut rng_a = StdRng::seed_from_u64(77);
    let mut totals = BatchTotals::new(2);
    let mut scalar_neighbors: Vec<u32> = Vec::new();
    for &v in &vertices {
        scalar_neighbors.extend(engine_a.sample_neighbors(0, v, 8, &mut rng_a));
    }
    engine_a.note_block(0, scalar_neighbors.len() as u64);
    let mut scalar_rows: Vec<f32> = Vec::new();
    let mut one_row: Vec<f32> = Vec::new();
    for &v in &vertices {
        engine_a.read_features_batch(1, &[v], &mut one_row, &mut totals);
        scalar_rows.extend_from_slice(&one_row);
    }
    let snap_a = serde_json::to_string_pretty(&server_a.telemetry().snapshot()).unwrap();

    // Batched run, same seed, fresh server.
    let server_b = ServerSpec::custom(2, 64 << 20, 2).build();
    let layout_b = build_layout();
    let engine_b = AccessEngine::new(
        &ds.graph,
        &ds.features,
        &layout_b,
        &server_b,
        TopologyPlacement::CpuUva,
    );
    let mut rng_b = StdRng::seed_from_u64(77);
    let block = KHopSampler::new(vec![8])
        .sample_batch_with(
            &engine_b,
            0,
            &vertices,
            &mut rng_b,
            None,
            &mut SampleScratch::new(),
        )
        .blocks
        .remove(0);
    let batched_neighbors: Vec<u32> = block
        .edge_src
        .iter()
        .map(|&si| block.src_vertices[si as usize])
        .collect();
    assert_eq!(batched_neighbors, scalar_neighbors, "sampled ids differ");
    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "RNG streams differ");
    let mut batched_rows: Vec<f32> = Vec::new();
    engine_b.read_features_batch(1, &vertices, &mut batched_rows, &mut totals);
    assert_eq!(batched_rows, scalar_rows, "gathered feature rows differ");
    let snap_b = serde_json::to_string_pretty(&server_b.telemetry().snapshot()).unwrap();
    assert_eq!(
        snap_a, snap_b,
        "scalar and batched runs must flush identical counter totals"
    );
}

/// The scratch-arena sampler must reproduce the original HashMap-based
/// scalar sampler exactly: identical `MiniBatchSample`s and a
/// byte-identical telemetry snapshot for the same seed.
#[test]
fn sample_batch_with_matches_reference_scalar_sampler() {
    use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
    use legion_sampling::{Block, KHopSampler, MiniBatchSample, SampleScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // The pre-scratch implementation, kept verbatim as the reference.
    fn reference_sample_batch<R: Rng + ?Sized>(
        fanouts: &[usize],
        engine: &AccessEngine<'_>,
        gpu: usize,
        seeds: &[u32],
        rng: &mut R,
    ) -> MiniBatchSample {
        let mut blocks = Vec::with_capacity(fanouts.len());
        let mut frontier: Vec<u32> = seeds.to_vec();
        let mut all: Vec<u32> = seeds.to_vec();
        for &fanout in fanouts {
            let mut src_vertices: Vec<u32> = frontier.clone();
            let mut src_index: std::collections::HashMap<u32, u32> = src_vertices
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect();
            let mut edge_dst = Vec::new();
            let mut edge_src = Vec::new();
            for (di, &dst) in frontier.iter().enumerate() {
                let sampled = engine.sample_neighbors(gpu, dst, fanout, rng);
                for s in sampled {
                    let si = *src_index.entry(s).or_insert_with(|| {
                        src_vertices.push(s);
                        (src_vertices.len() - 1) as u32
                    });
                    edge_dst.push(di as u32);
                    edge_src.push(si);
                }
            }
            all.extend_from_slice(&src_vertices[frontier.len()..]);
            let next_frontier = src_vertices.clone();
            engine.note_block(gpu, edge_dst.len() as u64);
            blocks.push(Block {
                num_dst: frontier.len(),
                src_vertices,
                edge_dst,
                edge_src,
            });
            frontier = next_frontier;
        }
        all.sort_unstable();
        all.dedup();
        MiniBatchSample {
            seeds: seeds.to_vec(),
            blocks,
            all_vertices: all,
        }
    }

    let ds = spec_by_name("PR").unwrap().instantiate(1200, 3);
    let seeds: Vec<u32> = ds.train_vertices.iter().copied().take(96).collect();
    let fanouts = vec![5usize, 3];

    let server_a = ServerSpec::custom(2, 64 << 20, 2).build();
    let layout_a = CacheLayout::none(2);
    let engine_a = AccessEngine::new(
        &ds.graph,
        &ds.features,
        &layout_a,
        &server_a,
        TopologyPlacement::CpuUva,
    );
    let mut rng_a = StdRng::seed_from_u64(1234);
    let reference = reference_sample_batch(&fanouts, &engine_a, 0, &seeds, &mut rng_a);
    let snap_a = serde_json::to_string_pretty(&server_a.telemetry().snapshot()).unwrap();

    let server_b = ServerSpec::custom(2, 64 << 20, 2).build();
    let layout_b = CacheLayout::none(2);
    let engine_b = AccessEngine::new(
        &ds.graph,
        &ds.features,
        &layout_b,
        &server_b,
        TopologyPlacement::CpuUva,
    );
    let sampler = KHopSampler::new(fanouts);
    let mut rng_b = StdRng::seed_from_u64(1234);
    let mut scratch = SampleScratch::new();
    let batched = sampler.sample_batch_with(&engine_b, 0, &seeds, &mut rng_b, None, &mut scratch);
    let snap_b = serde_json::to_string_pretty(&server_b.telemetry().snapshot()).unwrap();

    assert_eq!(reference, batched, "MiniBatchSamples must be identical");
    assert_eq!(snap_a, snap_b, "sampling telemetry must be identical");
    // A second batch through the same scratch stays equivalent (epoch
    // stamping must not leak state between batches).
    let reference2 = reference_sample_batch(
        &[5, 3],
        &engine_a,
        1,
        &seeds[..40.min(seeds.len())],
        &mut rng_a,
    );
    let batched2 = sampler.sample_batch_with(
        &engine_b,
        1,
        &seeds[..40.min(seeds.len())],
        &mut rng_b,
        None,
        &mut scratch,
    );
    assert_eq!(reference2, batched2);
}

/// Re-planning behind the residency router on a two-clique server:
/// same-seed runs replay byte-for-byte, and plan commits land only on
/// batch boundaries.
mod routed_replan_serving {
    use legion_graph::dataset::{spec_by_name, Dataset};
    use legion_hw::{MultiGpuServer, ServerSpec};
    use legion_serve::{
        serve, ClassConfig, PolicyKind, ReplanConfig, RouterPolicy, ServeConfig, ServeReport,
    };

    fn dataset() -> Dataset {
        spec_by_name("PR").unwrap().instantiate(500, 42)
    }

    /// Two NVLink cliques of two GPUs — the smallest server where
    /// clique residency differs from per-GPU or global state.
    fn clique_server() -> MultiGpuServer {
        ServerSpec::custom(4, 1 << 30, 2).build()
    }

    /// A multi-class QoS mix behind the residency router, with forced
    /// drift and an eager detector so plans actually commit mid-run.
    fn config() -> ServeConfig {
        let mut cfg = ServeConfig {
            num_requests: 1600,
            max_batch: 16,
            max_wait: 0.0,
            queue_capacity: 256,
            cache_rows_per_gpu: 512,
            warmup_requests: 128,
            fanouts: vec![5, 3],
            policy: PolicyKind::Replan,
            drift_period: 300,
            drift_stride: 1024,
            replan: ReplanConfig {
                bucket_requests: 16,
                window_buckets: 2,
                cooldown_buckets: 0,
                ..ReplanConfig::default()
            },
            classes: ClassConfig {
                mix: [0.2, 0.5, 0.3],
                qos: true,
                ..ClassConfig::default()
            },
            ..ServeConfig::default()
        };
        cfg.router.policy = RouterPolicy::Residency;
        cfg
    }

    /// One run of the fixture, checked to have committed plans.
    fn run(d: &Dataset) -> ServeReport {
        let report = serve(&d.graph, &d.features, &clique_server(), &config());
        assert_eq!(report.routed + report.spilled, report.offered);
        assert!(
            report.metrics.counter("serve.replan.count") > 0,
            "fixture must commit plans mid-run"
        );
        report
    }

    #[test]
    fn residency_replan_runs_are_deterministic_per_seed() {
        let d = dataset();
        let snapshot = |r: ServeReport| {
            serde_json::to_string_pretty(&r.metrics).expect("serializable snapshot")
        };
        assert_eq!(
            snapshot(run(&d)),
            snapshot(run(&d)),
            "same-seed residency + re-plan runs must replay"
        );
    }

    /// The plan-commit visibility audit: a `PlanBuffer` version bump
    /// must never be observed inside an open batch. The engine counts
    /// every commit whose version becomes visible mid-batch; with
    /// commits pinned to batch starts that count stays zero even under
    /// forced drift.
    #[test]
    fn replan_commits_only_at_batch_boundaries() {
        let report = run(&dataset());
        let audit = report
            .metrics
            .counters
            .iter()
            .find(|c| c.name == "serve.replan.mid_batch_commits")
            .map(|c| c.value);
        assert_eq!(
            audit,
            Some(0),
            "a plan version bump leaked into an open batch"
        );
    }
}

/// Three-tier (HBM/DRAM/SSD) serving invariants: same-seed replay of
/// the full telemetry snapshot under an active out-of-core store, and
/// exact degeneration to the two-tier engine when the DRAM budget is
/// infinite.
mod three_tier_store {
    use legion_graph::dataset::{spec_by_name, Dataset};
    use legion_hw::ServerSpec;
    use legion_serve::{serve, PolicyKind, ServeConfig, StoreConfig};

    fn dataset() -> Dataset {
        spec_by_name("PR").unwrap().instantiate(500, 42)
    }

    fn config(policy: PolicyKind, dram_budget: Option<u64>) -> ServeConfig {
        ServeConfig {
            num_requests: 800,
            max_batch: 16,
            max_wait: 0.0,
            queue_capacity: 256,
            cache_rows_per_gpu: 128,
            warmup_requests: 128,
            fanouts: vec![5, 3],
            policy,
            store: StoreConfig {
                dram_budget_bytes: dram_budget,
                staging_rows: 64,
                prefetch_budget: 64,
                ..StoreConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    fn snapshot(policy: PolicyKind, dram_budget: Option<u64>) -> String {
        let d = dataset();
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        let report = serve(&d.graph, &d.features, &server, &config(policy, dram_budget));
        serde_json::to_string_pretty(&report.metrics).expect("serializable snapshot")
    }

    /// Same seed, same config → the full snapshot replays byte for
    /// byte even with NVMe staging, prefetch, and eviction in play.
    #[test]
    fn oversubscribed_runs_replay_byte_identically() {
        for policy in [PolicyKind::StaticHot, PolicyKind::Fifo] {
            // A DRAM budget far below the feature table forces real
            // SSD residency and staging traffic.
            let a = snapshot(policy, Some(4096));
            let b = snapshot(policy, Some(4096));
            assert_eq!(a, b, "three-tier snapshots must replay ({:?})", policy);
            assert!(
                a.contains("store.nvme.bytes"),
                "oversubscribed run must meter NVMe traffic"
            );
            assert!(
                a.contains("serve.store.prefetch_hits"),
                "oversubscribed run must meter the prefetcher"
            );
        }
    }

    /// Pinning the SSD tier off with an infinite DRAM budget must
    /// reproduce the two-tier engine's snapshot byte for byte — the
    /// store tier is strictly additive.
    #[test]
    fn infinite_dram_budget_matches_two_tier_byte_for_byte() {
        for policy in [PolicyKind::StaticHot, PolicyKind::Fifo, PolicyKind::Replan] {
            let with_store = snapshot(policy, Some(u64::MAX));
            let without = snapshot(policy, None);
            assert_eq!(
                with_store, without,
                "infinite DRAM budget must degenerate to two-tier exactly ({:?})",
                policy
            );
            assert!(
                !with_store.contains("serve.store."),
                "an inert store must register no telemetry"
            );
        }
    }
}

/// Fleet-tier (cluster → machine → clique → GPU) invariants: same-seed
/// replay of the fleet snapshot, exact degeneration of a single-server
/// fleet to the non-fleet engine, server-shard assignment pinned to
/// the machine tier's edge-cut partitioner, and byte-identity of the
/// defaults-off contention/coalescing/resize features.
mod fleet_serving {
    use legion_fleet::{plan_fleet, serve_fleet, FleetConfig};
    use legion_graph::dataset::{spec_by_name, Dataset};
    use legion_hw::{ServerSpec, UplinkConfig};
    use legion_partition::{LdgPartitioner, Partitioner};
    use legion_serve::{serve, PolicyKind, ServeConfig};

    fn dataset() -> Dataset {
        spec_by_name("PR").unwrap().instantiate(500, 42)
    }

    fn config() -> ServeConfig {
        ServeConfig {
            num_requests: 1200,
            max_batch: 16,
            max_wait: 1e-4,
            queue_capacity: 256,
            cache_rows_per_gpu: 512,
            warmup_requests: 128,
            fanouts: vec![5, 3],
            policy: PolicyKind::StaticHot,
            ..ServeConfig::default()
        }
    }

    fn fleet(n: usize) -> FleetConfig {
        FleetConfig {
            num_servers: n,
            // Pin the projected-drain rate so the test doesn't depend
            // on the closed-loop capacity probe.
            drain_rps: Some(100_000.0),
            ..FleetConfig::default()
        }
    }

    /// Same seed, same config → the fleet-level snapshot (routing
    /// counters, merged latency histogram, locality gauge) and every
    /// per-server snapshot replay byte for byte.
    #[test]
    fn fleet_runs_replay_byte_identically() {
        let d = dataset();
        let spec = ServerSpec::custom(4, 1 << 30, 2);
        let run = || {
            let r = serve_fleet(&d.graph, &d.features, &spec, &config(), &fleet(3));
            assert_eq!(r.completed + r.shed, r.offered, "request conservation");
            let per_server: Vec<String> = r
                .per_server
                .iter()
                .map(|s| serde_json::to_string_pretty(&s.metrics).unwrap())
                .collect();
            (
                serde_json::to_string_pretty(&r.metrics).unwrap(),
                per_server,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "same-seed fleet snapshots must replay");
        assert_eq!(a.1, b.1, "same-seed per-server snapshots must replay");
        assert!(a.0.contains("fleet.latency_us"), "merged histogram missing");
        assert!(a.0.contains("fleet.locality"), "locality gauge missing");
    }

    /// A single-server fleet must degenerate exactly: no remote tier,
    /// and its one per-server snapshot byte-identical to the non-fleet
    /// engine on the same config — the fleet tier is strictly additive.
    #[test]
    fn single_server_fleet_matches_non_fleet_engine_byte_for_byte() {
        let d = dataset();
        let spec = ServerSpec::custom(4, 1 << 30, 2);
        let cfg = config();
        let fleet_run = serve_fleet(&d.graph, &d.features, &spec, &cfg, &fleet(1));
        let solo = serve(&d.graph, &d.features, &spec.build(), &cfg);
        assert_eq!(fleet_run.per_server.len(), 1);
        let a = serde_json::to_string_pretty(&fleet_run.per_server[0].metrics).unwrap();
        let b = serde_json::to_string_pretty(&solo.metrics).unwrap();
        assert_eq!(a, b, "single-server fleet must match the plain engine");
        assert_eq!(fleet_run.completed, solo.completed);
        assert_eq!(fleet_run.shed, solo.shed);
        assert_eq!(fleet_run.p99_us, solo.p99_us);
        assert_eq!(fleet_run.remote_reads, 0, "one server has no remote reads");
        assert!(
            !a.contains("serve.remote."),
            "a single-server fleet must register no remote meters"
        );
    }

    /// With contention `None`, coalescing off, and resize off — the
    /// defaults — the fleet must reproduce the pre-fabric snapshots
    /// byte for byte: explicitly spelling the features off is the same
    /// run as never mentioning them, and none of the fabric meters
    /// (`serve.remote.coalesced_msgs`, `fleet.uplink.*`,
    /// `fleet.resize.*`) may register.
    #[test]
    fn defaults_off_fabric_reproduces_the_flat_fleet_byte_for_byte() {
        let d = dataset();
        let spec = ServerSpec::custom(4, 1 << 30, 2);
        let cfg = config();
        let implicit = serve_fleet(&d.graph, &d.features, &spec, &cfg, &fleet(3));
        let explicit = serve_fleet(
            &d.graph,
            &d.features,
            &spec,
            &cfg,
            &FleetConfig {
                uplink: None,
                coalesce: false,
                resize_on_drift: false,
                ..fleet(3)
            },
        );
        let snap = |r: &legion_fleet::FleetReport| {
            let fleet_json = serde_json::to_string_pretty(&r.metrics).unwrap();
            let servers: Vec<String> = r
                .per_server
                .iter()
                .map(|s| serde_json::to_string_pretty(&s.metrics).unwrap())
                .collect();
            (fleet_json, servers)
        };
        let a = snap(&implicit);
        let b = snap(&explicit);
        assert_eq!(a, b, "defaults-off must be the identical run");
        for needle in ["fleet.uplink", "fleet.resize"] {
            assert!(
                !a.0.contains(needle),
                "defaults-off fleet snapshot must not register {needle}"
            );
        }
        for s in &a.1 {
            assert!(
                !s.contains("serve.remote.coalesced_msgs")
                    && !s.contains("serve.remote.dedup_hits")
                    && !s.contains("serve.remote.per_owner_bytes"),
                "defaults-off server snapshots must not register coalescing meters"
            );
        }
    }

    /// The full fabric on — shared-uplink contention, per-owner
    /// coalescing, drift-driven resize — replays byte for byte from
    /// the same seed, and the coalescing meters satisfy their
    /// conservation identity (a remote read is either a dedup hit or
    /// a row inside some per-owner message).
    #[test]
    fn fabric_on_fleet_replays_byte_identically() {
        let d = dataset();
        let spec = ServerSpec::custom(4, 1 << 30, 2);
        let cfg = config();
        let fabric = FleetConfig {
            uplink: Some(UplinkConfig::default()),
            coalesce: true,
            resize_on_drift: true,
            ..fleet(3)
        };
        let run = || {
            let r = serve_fleet(&d.graph, &d.features, &spec, &cfg, &fabric);
            assert_eq!(r.completed + r.shed, r.offered, "request conservation");
            serde_json::to_string_pretty(&r.metrics).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "fabric-on fleet snapshots must replay");
        let r = serve_fleet(&d.graph, &d.features, &spec, &cfg, &fabric);
        assert!(r.remote_reads > 0, "three shards must go remote");
        assert!(
            r.remote_msgs < r.remote_reads,
            "coalescing must put fewer messages than rows on the wire"
        );
        for s in &r.per_server {
            let reads = s.metrics.counter("serve.remote.reads");
            let msgs = s.metrics.counter("serve.remote.coalesced_msgs");
            let dedup = s.metrics.counter("serve.remote.dedup_hits");
            assert!(
                msgs + dedup <= reads,
                "each remote read is one row in a batch or a window hit: \
                 {msgs} msgs + {dedup} dedup vs {reads} reads"
            );
        }
        assert!(
            a.contains("fleet.uplink.stretch"),
            "contention-on snapshot must carry the uplink gauges"
        );
    }

    /// The fleet plan reuses the machine tier's edge-cut partitioner
    /// verbatim at the server level, and the server-shard assignment is
    /// pinned per seed: the same dataset seed reproduces the identical
    /// shard vector and replicated head.
    #[test]
    fn server_shards_are_pinned_to_the_edge_cut_partitioner_per_seed() {
        let cfg = config();
        let plan_for = |seed: u64| {
            let d = spec_by_name("PR").unwrap().instantiate(500, seed);
            plan_fleet(&d.graph, &cfg, &fleet(4))
        };
        let a = plan_for(42);
        let b = plan_for(42);
        assert_eq!(a.shard, b.shard, "same seed must pin the shard vector");
        assert_eq!(a.replicated, b.replicated, "replicated head must pin too");
        assert!(
            !a.replicated.is_empty(),
            "multi-server plan replicates a head"
        );
        let direct = LdgPartitioner::default().partition(&dataset().graph, 4);
        assert_eq!(
            a.shard, direct,
            "fleet sharding must be the LDG edge-cut partition verbatim"
        );
        // LDG keeps the shards balanced: no server owns more than twice
        // the mean shard.
        let mean = a.shard.len() / 4;
        for (s, &size) in a.shard_sizes.iter().enumerate() {
            assert!(
                size <= 2 * mean,
                "shard {s} unbalanced: {size} vs mean {mean}"
            );
        }
        // Ownership is exhaustive: every vertex is owned by its shard's
        // server, and the replicated head is owned everywhere.
        for (v, &s) in a.shard.iter().enumerate() {
            assert!(a.owned[s as usize][v]);
        }
        for &v in &a.replicated {
            for o in &a.owned {
                assert!(o[v as usize]);
            }
        }
    }
}

#[test]
fn dataset_instantiation_is_stable_across_calls() {
    let d1 = spec_by_name("CO").unwrap().instantiate(4000, 7);
    let d2 = spec_by_name("CO").unwrap().instantiate(4000, 7);
    assert_eq!(d1.graph, d2.graph);
    assert_eq!(d1.train_vertices, d2.train_vertices);
    assert_eq!(d1.features.as_slice(), d2.features.as_slice());
}
