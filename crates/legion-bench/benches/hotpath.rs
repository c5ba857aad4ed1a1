//! Hot-path microbenchmarks: the allocation-free batched
//! sample→extract→cache-read path this perf trajectory is judged by.
//!
//! Unlike the other benches this one has a hand-written `main` so it can
//! drain the vendored criterion's collected measurements and emit
//! machine-readable `BENCH_hotpath.json` (ns/op and ops/sec per bench,
//! grouped). All seeds are fixed, so the JSON is deterministic modulo
//! the timing fields.
//!
//! * `LEGION_BENCH_SMOKE=1` shrinks sample counts for CI smoke runs.
//! * `LEGION_BENCH_OUT=<path>` overrides the output path (default:
//!   `BENCH_hotpath.json` at the repository root).

use criterion::{take_results, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use legion_cache::{cslp, CliqueCache};
use legion_graph::dataset::spec_by_name;
use legion_graph::generate::ChungLuConfig;
use legion_graph::{CsrGraph, FeatureTable};
use legion_hw::{NetGeneration, NetModel, ServerSpec, UplinkConfig};
use legion_partition::{LdgPartitioner, Partitioner};
use legion_router::{ClassedQueue, Dispatcher, PriorityClass, QueuedRequest};
use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::extract::extract_features;
use legion_sampling::{BatchTotals, KHopSampler, SampleScratch};
use legion_serve::{
    plan_layout, profile_warmup, serve, ChurnConfig, DeltaOverlay, MutationLog, PolicyKind,
    ServeConfig, TargetSampler,
};
use legion_store::{NvmeGeneration, NvmeModel, Tier, VertexStore};

fn bench_graph(num_vertices: usize, num_edges: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(1);
    ChungLuConfig {
        num_vertices,
        num_edges,
        exponent: 0.85,
        shuffle_ids: true,
        ..Default::default()
    }
    .generate(&mut rng)
}

/// Dense-slot cache lookups: the two-array-load fast path that replaced
/// the per-lookup `HashMap` probe.
fn bench_cache_lookup(c: &mut Criterion, smoke: bool) {
    let n = if smoke { 10_000 } else { 100_000 };
    let queries = if smoke { 1_000 } else { 10_000 };
    let mut cache = CliqueCache::new(vec![0, 1], n, 16);
    let row = vec![0f32; 16];
    let topo = vec![7u32; 12];
    for v in 0..(n as u32) / 2 {
        cache.insert_feature((v % 2) as usize, v, &row);
    }
    for v in 0..(n as u32) / 4 {
        cache.insert_topology((v % 2) as usize, v, &topo);
    }
    let mut rng = StdRng::seed_from_u64(5);
    let q: Vec<u32> = (0..queries).map(|_| rng.gen_range(0..n as u32)).collect();

    let mut group = c.benchmark_group("cache_lookup");
    group.bench_function(BenchmarkId::new("feature", queries), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &v in &q {
                if cache.lookup_feature(0, v).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.bench_function(BenchmarkId::new("topology", queries), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &v in &q {
                if cache.lookup_topology(0, v).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();
}

/// The scratch-arena k-hop sampler over a 100k-vertex power-law graph
/// (same workload shape as the pre-existing `sampling` bench, so before
/// and after numbers are directly comparable).
fn bench_k_hop(c: &mut Criterion, smoke: bool) {
    let n = if smoke { 20_000 } else { 100_000 };
    let graph = bench_graph(n, n * 16);
    let features = FeatureTable::zeros(n, 8);
    let layout = CacheLayout::none(1);
    let server = ServerSpec::custom(1, 1 << 40, 1).build();
    let engine = AccessEngine::new(
        &graph,
        &features,
        &layout,
        &server,
        TopologyPlacement::CpuUva,
    );
    let seeds: Vec<u32> = (0..1000u32).map(|i| i * 97 % n as u32).collect();

    let mut group = c.benchmark_group("k_hop_sampling");
    for fanouts in [vec![10], vec![25, 10]] {
        let sampler = KHopSampler::new(fanouts.clone());
        group.bench_with_input(
            BenchmarkId::new("batch1000", format!("{fanouts:?}")),
            &sampler,
            |b, s| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut scratch = SampleScratch::new();
                b.iter(|| s.sample_batch_with(&engine, 0, &seeds, &mut rng, None, &mut scratch));
            },
        );
    }
    group.finish();
}

/// Feature gather against a half-cached clique so the loop exercises
/// hit, peer-hit, and CPU-miss rows. Both rows run the one gather path:
/// `scalar` (the id `BENCH_hotpath.json` knows it by) is
/// `extract_features`, which allocates its table per call; `batched`
/// reuses one output buffer.
fn bench_feature_extraction(c: &mut Criterion, smoke: bool) {
    let n = if smoke { 10_000 } else { 100_000 };
    let rows = if smoke { 1_000 } else { 10_000 };
    let dim = 16;
    let graph = CsrGraph::empty(n);
    let features = FeatureTable::zeros(n, dim);
    let mut cc = CliqueCache::new(vec![0, 1], n, dim);
    for v in 0..(n as u32) / 2 {
        cc.insert_feature((v % 2) as usize, v, features.row(v));
    }
    let layout = CacheLayout::from_cliques(2, vec![cc]);
    let server = ServerSpec::custom(2, 1 << 40, 1).build();
    let engine = AccessEngine::new(
        &graph,
        &features,
        &layout,
        &server,
        TopologyPlacement::CpuUva,
    );
    let mut rng = StdRng::seed_from_u64(11);
    let vertices: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..n as u32)).collect();

    let mut group = c.benchmark_group("feature_extraction");
    group.bench_function(BenchmarkId::new("scalar", rows), |b| {
        b.iter(|| extract_features(&engine, 0, &vertices))
    });
    group.bench_function(BenchmarkId::new("batched", rows), |b| {
        let mut out: Vec<f32> = Vec::new();
        let mut totals = BatchTotals::new(2);
        b.iter(|| {
            engine.read_features_batch(0, &vertices, &mut out, &mut totals);
            out.len()
        })
    });
    group.finish();
}

/// A steady-state serving run: admission, micro-batching, the batched
/// sample→extract→infer operators, and SLO accounting end to end.
fn bench_serve_tick(c: &mut Criterion, smoke: bool) {
    let n = if smoke { 2_000 } else { 20_000 };
    let graph = bench_graph(n, n * 8);
    let features = FeatureTable::zeros(n, 16);
    let config = ServeConfig {
        num_requests: if smoke { 200 } else { 2_000 },
        max_batch: 16,
        cache_rows_per_gpu: n / 8,
        warmup_requests: 128,
        fanouts: vec![5, 5],
        policy: PolicyKind::StaticHot,
        ..ServeConfig::default()
    };

    let mut group = c.benchmark_group("serve_tick");
    group.bench_function(BenchmarkId::new("static_hot", config.num_requests), |b| {
        let server = ServerSpec::custom(2, 1 << 40, 1).build();
        b.iter(|| serve(&graph, &features, &server, &config).completed)
    });
    group.finish();
}

/// The out-of-core store's per-batch host cost, resolving one batch of
/// HBM misses in three regimes: `staged` (every row pre-staged by the
/// prefetcher — the hit fast path), `cold` (a tiny staging window, so
/// every batch issues inline device reads), and `dram_resident` (no
/// SSD rows at all — the `all_resident` early-out legacy configs pay).
/// Simulated device time is virtual; this measures the bookkeeping the
/// extraction loop actually executes per batch.
fn bench_store(c: &mut Criterion, smoke: bool) {
    let n = if smoke { 10_000 } else { 100_000 };
    let rows = if smoke { 256 } else { 2_048 };
    let row_bytes = 400u64;
    let nvme = NvmeModel::new(NvmeGeneration::Gen4x4);
    let queries: Vec<u32> = (0..rows as u32).map(|i| i * 7 % n as u32).collect();

    let mut group = c.benchmark_group("bench_store");

    let mut staged = VertexStore::new(nvme, n, row_bytes, n);
    for v in 0..n as u32 {
        staged.assign(v, Tier::Ssd);
    }
    staged.warm(queries.iter().copied());
    group.bench_function(BenchmarkId::new("staged", rows), |b| {
        b.iter(|| staged.read(0.0, &queries).prefetch_hits)
    });

    // A 64-row window against chunks cycling the whole id range: by the
    // time a chunk comes around again its rows have long been evicted,
    // so every batch is a cold wave.
    let mut cold = VertexStore::new(nvme, n, row_bytes, 64);
    for v in 0..n as u32 {
        cold.assign(v, Tier::Ssd);
    }
    let ids: Vec<u32> = (0..n as u32).collect();
    let chunks: Vec<&[u32]> = ids.chunks(rows).collect();
    group.bench_function(BenchmarkId::new("cold", rows), |b| {
        let mut i = 0usize;
        b.iter(|| {
            let out = cold.read(0.0, chunks[i % chunks.len()]);
            i += 1;
            out.cold_reads
        })
    });

    let mut resident = VertexStore::new(nvme, n, row_bytes, 64);
    group.bench_function(BenchmarkId::new("dram_resident", rows), |b| {
        b.iter(|| resident.read(0.0, &queries).cold_reads)
    });
    group.finish();
}

/// The routing tier's per-request costs: a residency-scored dispatch
/// decision over a 9-vertex probe, and a QoS admission offer/drain
/// cycle on a saturated classed queue.
fn bench_router(c: &mut Criterion, smoke: bool) {
    let n = if smoke { 10_000 } else { 100_000 };
    let decisions = if smoke { 1_000 } else { 10_000 };

    // Two cliques of two with half the vertex range resident per clique,
    // split even/odd so probes always straddle both residency sets.
    let mut dispatcher = Dispatcher::new(vec![vec![0, 1], vec![2, 3]], n, 64);
    let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
    let odds: Vec<u32> = (1..n as u32).step_by(2).collect();
    dispatcher.refresh_group(0, &evens);
    dispatcher.refresh_group(1, &odds);
    let mut rng = StdRng::seed_from_u64(17);
    let probes: Vec<[u32; 9]> = (0..decisions)
        .map(|_| std::array::from_fn(|_| rng.gen_range(0..n as u32)))
        .collect();
    let queue_lens = [12usize, 3, 7, 9];

    let mut group = c.benchmark_group("router");
    group.bench_function(BenchmarkId::new("route", decisions), |b| {
        b.iter(|| {
            let mut local = 0usize;
            for p in &probes {
                let d = dispatcher.route(p, &queue_lens);
                if !d.spilled {
                    local += 1;
                }
            }
            local
        })
    });

    #[derive(Clone, Copy)]
    struct Req {
        seq: u64,
        class: PriorityClass,
    }
    impl QueuedRequest for Req {
        fn seq(&self) -> u64 {
            self.seq
        }
        fn arrival(&self) -> f64 {
            self.seq as f64
        }
        fn class(&self) -> PriorityClass {
            self.class
        }
    }
    let offers: Vec<Req> = (0..decisions as u64)
        .map(|seq| Req {
            seq,
            class: PriorityClass::from_index((seq % 3) as usize),
        })
        .collect();
    group.bench_function(BenchmarkId::new("qos_offer_take", decisions), |b| {
        b.iter(|| {
            // Capacity 64 against a uniform class mix: the queue saturates
            // almost immediately, so most offers exercise the eviction
            // scan and every 16th step drains a priority-ordered batch.
            let mut q: ClassedQueue<Req> = ClassedQueue::new_qos(64, [0.5, 0.3, 0.2]);
            let mut drained = 0usize;
            for (i, r) in offers.iter().enumerate() {
                q.offer(*r);
                if i % 16 == 15 {
                    drained += q.take(16).len();
                }
            }
            drained
        })
    });
    group.finish();
}

/// The delta-CSR overlay's hot path: streaming a pre-generated mutation
/// log into a fresh overlay (`apply`), merging every dirtied row at
/// sample time against the base CSR (`merge_dirty` — the per-vertex
/// cost a sampler pays on a mutated row), folding the pending deltas
/// into compacted rows (`apply_compact`, so the delta over `apply` is
/// the compaction cost), and materialising the whole mutated graph from
/// scratch (`rebuild_csr` — the correctness oracle, not a serving-path
/// cost).
fn bench_mutate(c: &mut Criterion, smoke: bool) {
    let n = if smoke { 10_000 } else { 100_000 };
    let ops = if smoke { 2_000 } else { 20_000 };
    let graph = bench_graph(n, n * 8);
    let churn = ChurnConfig {
        ops_per_sec: 1e6,
        ..ChurnConfig::default()
    };
    let log = MutationLog::generate(&graph, &churn, 42, ops as f64 / 1e6);
    let applied = DeltaOverlay::new(n);
    for m in &log.ops {
        applied.apply(&graph, &m.op);
    }
    let dirty: Vec<u32> = (0..n as u32).filter(|&v| applied.is_dirty(v)).collect();

    let mut group = c.benchmark_group("bench_mutate");
    group.bench_function(BenchmarkId::new("apply", log.ops.len()), |b| {
        b.iter(|| {
            let overlay = DeltaOverlay::new(n);
            for m in &log.ops {
                overlay.apply(&graph, &m.op);
            }
            overlay.dirty_rows()
        })
    });
    group.bench_function(BenchmarkId::new("merge_dirty", dirty.len()), |b| {
        let mut buf: Vec<u32> = Vec::new();
        b.iter(|| {
            let mut edges = 0usize;
            for &v in &dirty {
                applied.merge_into(&graph, v, &mut buf);
                edges += buf.len();
            }
            edges
        })
    });
    group.bench_function(BenchmarkId::new("apply_compact", log.ops.len()), |b| {
        b.iter(|| {
            let overlay = DeltaOverlay::new(n);
            for m in &log.ops {
                overlay.apply(&graph, &m.op);
            }
            overlay.compact(&graph)
        })
    });
    group.bench_function(BenchmarkId::new("rebuild_csr", n), |b| {
        b.iter(|| applied.rebuild_csr(&graph).num_edges())
    });
    group.finish();
}

/// The cluster-fabric charging path the fleet's remote tier runs per
/// batch: per-row wave charging vs one coalesced per-owner message set,
/// uncontended vs on a shared oversubscribed uplink. Pure integer-ns
/// arithmetic — this pins the cost of pricing a remote batch, not the
/// simulated wire time itself.
fn bench_net(c: &mut Criterion, smoke: bool) {
    let batches = if smoke { 1_000 } else { 10_000 };
    let row_bytes = 400u64;
    let flat = NetModel::rdma(NetGeneration::Eth400G);
    let contended = flat.with_contention(UplinkConfig::default());
    // 16 owner buckets with a skewed row spread, like a routed fleet's
    // per-batch miss profile.
    let payloads: Vec<u64> = (0..16u64).map(|i| (i * i % 23) * row_bytes).collect();

    let mut group = c.benchmark_group("bench_net");
    group.bench_function(BenchmarkId::new("per_row", batches), |b| {
        b.iter(|| {
            let mut t = 0.0f64;
            for i in 0..batches {
                t += flat.read_seconds_at(64 + (i % 32) as u64, row_bytes, 8);
            }
            t
        })
    });
    group.bench_function(BenchmarkId::new("per_row_contended", batches), |b| {
        b.iter(|| {
            let mut t = 0.0f64;
            for i in 0..batches {
                t += contended.read_seconds_at(64 + (i % 32) as u64, row_bytes, 8);
            }
            t
        })
    });
    group.bench_function(BenchmarkId::new("coalesced_contended", batches), |b| {
        b.iter(|| {
            let mut t = 0.0f64;
            for _ in 0..batches {
                t += contended.coalesced_read_seconds_at(&payloads, 8);
            }
            t
        })
    });
    group.finish();
}

/// The planning path every serving pass and re-plan walks, on the
/// PR-shaped graph the end-to-end benchmark serves (PR/50; PR/500 in
/// smoke mode): the symmetrisation under every partitioner, the LDG
/// partition `plan_fleet` and the routed layouts call, and CSLP plus the
/// whole `plan_layout` over a 400-request window that touches a small
/// share of the vertices.
fn bench_plan(c: &mut Criterion, smoke: bool) {
    let spec = spec_by_name("PR").expect("PR is a Table 2 dataset");
    let ds = spec.instantiate(if smoke { 500 } else { 50 }, 42);
    let n = ds.graph.num_vertices();
    let mut targets = TargetSampler::new((0..n as u32).collect(), 1.1, 0, 0);
    let window = profile_warmup(&ds.graph, &mut targets, 400, &[5, 3], 42);
    let budget = 256 * ds.features.row_bytes();

    let mut group = c.benchmark_group("bench_plan");
    group.bench_function(BenchmarkId::new("symmetrize", n), |b| {
        b.iter(|| ds.graph.symmetrize().num_edges())
    });
    group.bench_function(BenchmarkId::new("ldg_k2", n), |b| {
        b.iter(|| LdgPartitioner::default().partition(&ds.graph, 2))
    });
    group.bench_function(BenchmarkId::new("cslp_sparse_window", n), |b| {
        b.iter(|| cslp(&window.feat).clique_order.len())
    });
    group.bench_function(BenchmarkId::new("plan_layout_window", n), |b| {
        b.iter(|| {
            plan_layout(
                0,
                4,
                &ds.graph,
                &ds.features,
                &window.topo,
                &window.feat,
                window.n_tsum,
                budget,
                0.05,
                64,
            )
            .contents
            .total_bytes()
        })
    });
    group.finish();
}

#[derive(serde::Serialize)]
struct BenchEntry {
    name: String,
    ns_per_op: f64,
    ops_per_sec: f64,
}

#[derive(serde::Serialize)]
struct BenchGroup {
    group: String,
    benches: Vec<BenchEntry>,
}

#[derive(serde::Serialize)]
struct BenchOutput {
    schema: String,
    smoke: bool,
    groups: Vec<BenchGroup>,
}

fn main() {
    let smoke = std::env::var("LEGION_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mut c = Criterion::default().sample_size(if smoke { 3 } else { 10 });
    bench_cache_lookup(&mut c, smoke);
    bench_k_hop(&mut c, smoke);
    bench_feature_extraction(&mut c, smoke);
    bench_serve_tick(&mut c, smoke);
    bench_store(&mut c, smoke);
    bench_router(&mut c, smoke);
    bench_mutate(&mut c, smoke);
    bench_net(&mut c, smoke);
    bench_plan(&mut c, smoke);

    let mut groups: Vec<BenchGroup> = Vec::new();
    for r in take_results() {
        let (group, name) = r
            .label
            .split_once('/')
            .unwrap_or(("ungrouped", r.label.as_str()));
        let entry = BenchEntry {
            name: name.to_string(),
            ns_per_op: r.ns_per_iter,
            ops_per_sec: if r.ns_per_iter > 0.0 {
                1e9 / r.ns_per_iter
            } else {
                0.0
            },
        };
        match groups.iter_mut().find(|g| g.group == group) {
            Some(g) => g.benches.push(entry),
            None => groups.push(BenchGroup {
                group: group.to_string(),
                benches: vec![entry],
            }),
        }
    }
    let output = BenchOutput {
        schema: "legion-bench-hotpath/v1".to_string(),
        smoke,
        groups,
    };
    let out = std::env::var("LEGION_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hotpath.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, serde_json::to_string_pretty(&output).unwrap() + "\n")
        .expect("write BENCH_hotpath.json");
    println!("wrote {out}");
}
