//! The layer probes.
//!
//! The serving engines are one public call each, so the harness cannot
//! put spans inside them. A *layer probe* instead times a layer's public
//! hot function over inputs taken from the workload's own request
//! stream, miss sets and mutation log — the way `benches/hotpath.rs`
//! does with synthetic ones — bracketed and normalised like everything
//! else. A probe's metric is the median of `PROBE_REPS` repetitions.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_dyn::{ChurnConfig, DeltaOverlay, MutationLog};
use legion_fleet::{FleetConfig, FleetPlan};
use legion_gnn::{GnnModel, ModelKind};
use legion_graph::dataset::Dataset;
use legion_graph::{CsrGraph, VertexId};
use legion_hw::ServerSpec;
use legion_router::{ClassedQueue, Dispatcher};
use legion_sampling::access::{AccessEngine, BatchTotals, CacheLayout, TopologyPlacement};
use legion_sampling::{KHopSampler, MiniBatchSample, SampleScratch};
use legion_serve::{warmup_hot_vertices_weighted, Request, ServeConfig, TargetSampler};
use legion_store::{NvmeModel, Tier, VertexStore};
use legion_telemetry::{Registry, Snapshot};

use crate::harness::{host_reading, map_reading, PROBE_REPS};
use crate::metrics::{Outcome, Reading};
use crate::refk::{Bracket, Sample};

/// Times `body` `PROBE_REPS` times, each repetition bracketed, and
/// reports the median nanoseconds per item.
fn probe<T>(bracket: &mut Bracket, items: f64, mut body: impl FnMut() -> T) -> Reading {
    let samples: Vec<Sample> = (0..PROBE_REPS)
        .map(|_| {
            let (out, sample) = bracket.section(&mut body);
            black_box(out);
            sample
        })
        .collect();
    map_reading(&host_reading(&samples), |s| s * 1e9 / items.max(1.0))
}

/// `CliqueCache::lookup_feature` over `vertices`, as GPU `gpu` sees it.
pub fn cache_lookup(
    bracket: &mut Bracket,
    layout: &CacheLayout,
    gpu: usize,
    vertices: &[VertexId],
) -> Reading {
    let Some((cache, slot)) = layout.for_gpu(gpu) else {
        return Reading::exact(0.0);
    };
    probe(bracket, vertices.len() as f64, || {
        vertices
            .iter()
            .filter(|&&v| cache.lookup_feature(slot, v).is_some())
            .count()
    })
}

/// `Registry::snapshot` over a registry holding the pass's own metrics.
pub fn snapshot_cost(bracket: &mut Bracket, pass: &Snapshot) -> Reading {
    const SNAPSHOTS: usize = 20;
    let registry = Registry::new();
    for c in &pass.counters {
        registry.counter(&c.name).add(c.value);
    }
    for g in &pass.gauges {
        registry.gauge(&g.name).set(g.value);
    }
    for h in &pass.histograms {
        registry
            .histogram(&h.name, &h.bounds)
            .merge_counts(&h.counts, h.sum);
    }
    probe(bracket, SNAPSHOTS as f64, || {
        (0..SNAPSHOTS)
            .map(|_| registry.snapshot().counters.len())
            .sum::<usize>()
    })
}

/// How many of the stream's leading requests the probes replay.
const PROBE_REQUESTS: usize = 8192;

/// The head of a workload's request stream cut into the engine's
/// micro-batches, with the plan GPU 0 serves them from.
pub struct Stream<'a> {
    ds: &'a Dataset,
    config: &'a ServeConfig,
    layout: &'a CacheLayout,
    /// Sorted, deduplicated targets of each micro-batch.
    batches: Vec<Vec<VertexId>>,
    /// Each micro-batch sampled once, for the probes that start from a
    /// sample.
    samples: Vec<MiniBatchSample>,
    seeds: usize,
}

impl<'a> Stream<'a> {
    pub fn new(
        ds: &'a Dataset,
        config: &'a ServeConfig,
        requests: &[Request],
        layout: &'a CacheLayout,
    ) -> Self {
        let head = &requests[..requests.len().min(PROBE_REQUESTS)];
        let batches: Vec<Vec<VertexId>> = head
            .chunks(config.max_batch)
            .map(|chunk| {
                let mut seeds: Vec<VertexId> = chunk.iter().map(|r| r.target).collect();
                seeds.sort_unstable();
                seeds.dedup();
                seeds
            })
            .collect();
        let seeds = batches.iter().map(Vec::len).sum();
        let mut stream = Self {
            ds,
            config,
            layout,
            batches,
            samples: Vec::new(),
            seeds,
        };
        stream.samples = stream.with_engine(|engine, sampler| {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut scratch = SampleScratch::new();
            stream
                .batches
                .iter()
                .map(|b| sampler.sample_batch_with(engine, 0, b, &mut rng, None, &mut scratch))
                .collect()
        });
        stream
    }

    fn with_engine<T>(&self, f: impl FnOnce(&AccessEngine<'_>, &KHopSampler) -> T) -> T {
        let server = ServerSpec::custom(self.layout.gpu_slot.len().max(1), 1 << 40, 1).build();
        let engine = AccessEngine::new(
            &self.ds.graph,
            &self.ds.features,
            self.layout,
            &server,
            TopologyPlacement::CpuUva,
        );
        f(&engine, &KHopSampler::new(self.config.fanouts.clone()))
    }

    /// The vertices each micro-batch extracts that GPU 0's plan misses.
    pub fn miss_sets(&self) -> Vec<Vec<VertexId>> {
        let cached = self.layout.for_gpu(0).map(|(cache, _)| cache);
        self.samples
            .iter()
            .map(|s| {
                s.all_vertices
                    .iter()
                    .copied()
                    .filter(|&v| cached.is_none_or(|c| !c.has_feature(v)))
                    .collect()
            })
            .collect()
    }

    pub fn batches(&self) -> &[Vec<VertexId>] {
        &self.batches
    }

    /// Host cost of the sample → extract → count-FLOPs operators the
    /// engine runs per micro-batch, and of the cache lookups under them.
    pub fn record_operator_costs(&self, bracket: &mut Bracket, out: &mut Outcome) {
        let config = self.config;
        let rows: usize = self.samples.iter().map(|s| s.all_vertices.len()).sum();
        self.with_engine(|engine, sampler| {
            let mut scratch = SampleScratch::new();
            out.set(
                "sampling.khop_ns_per_seed",
                probe(bracket, self.seeds as f64, || {
                    let mut rng = StdRng::seed_from_u64(config.seed);
                    self.batches
                        .iter()
                        .map(|b| {
                            sampler
                                .sample_batch_with(engine, 0, b, &mut rng, None, &mut scratch)
                                .total_edges()
                        })
                        .sum::<usize>()
                }),
            );
            let mut features: Vec<f32> = Vec::new();
            let mut totals = BatchTotals::new(engine.num_gpus());
            out.set(
                "sampling.extract_ns_per_row",
                probe(bracket, rows as f64, || {
                    for s in &self.samples {
                        engine.read_features_batch(0, &s.all_vertices, &mut features, &mut totals);
                    }
                    features.len()
                }),
            );
        });
        let mut rng = StdRng::seed_from_u64(config.seed);
        let model = GnnModel::new(
            ModelKind::GraphSage,
            self.ds.features.dim(),
            config.hidden_dim,
            config.num_classes,
            config.fanouts.len(),
            &mut rng,
        );
        let flops: f64 = self.samples.iter().map(|s| model.inference_flops(s)).sum();
        out.set_exact("gnn.flops_per_seed", flops / self.seeds.max(1) as f64);
        out.set(
            "gnn.flops_ns_per_batch",
            probe(bracket, self.samples.len() as f64, || {
                self.samples
                    .iter()
                    .map(|s| model.inference_flops(s))
                    .sum::<f64>()
            }),
        );
        let lookups: Vec<VertexId> = self
            .samples
            .iter()
            .flat_map(|s| s.all_vertices.iter().copied())
            .collect();
        out.set(
            "cache.lookup_ns_per_probe",
            cache_lookup(bracket, self.layout, 0, &lookups),
        );
    }
}

/// The routing probe of each request: its target, then its leading
/// neighbours.
fn route_probes(graph: &CsrGraph, requests: &[Request], neighbors: usize) -> Vec<Vec<VertexId>> {
    requests[..requests.len().min(PROBE_REQUESTS)]
        .iter()
        .map(|r| {
            let mut p = vec![r.target];
            p.extend(graph.neighbors(r.target).iter().take(neighbors).copied());
            p
        })
        .collect()
}

fn route_all(bracket: &mut Bracket, dispatcher: &Dispatcher, probes: &[Vec<VertexId>]) -> Reading {
    let gpus = (0..dispatcher.num_groups())
        .map(|g| dispatcher.group_members(g).len())
        .sum();
    let lens = vec![0usize; gpus];
    probe(bracket, probes.len() as f64, || {
        probes
            .iter()
            .filter(|p| !dispatcher.route(p, &lens).spilled)
            .count()
    })
}

/// `Dispatcher::route` over the stream, against the clique residency
/// the engine's static plan exports.
pub fn route_cliques(
    bracket: &mut Bracket,
    graph: &CsrGraph,
    config: &ServeConfig,
    requests: &[Request],
    layout: &CacheLayout,
    groups: Vec<Vec<usize>>,
) -> Reading {
    let spill = (config.router.spill_threshold * config.queue_capacity as f64).ceil() as usize;
    let mut dispatcher = Dispatcher::new(groups, graph.num_vertices(), spill);
    for g in 0..dispatcher.num_groups() {
        let member = dispatcher.group_members(g)[0];
        let resident = layout
            .for_gpu(member)
            .expect("the partitioned layout covers every GPU")
            .0
            .feature_vertices();
        dispatcher.refresh_group(g, &resident);
    }
    let probes = route_probes(graph, requests, config.router.probe_neighbors);
    route_all(bracket, &dispatcher, &probes)
}

/// `Dispatcher::route` over the stream at the fleet's front tier:
/// single-server groups scored on each server's owned set.
pub fn route_fleet(
    bracket: &mut Bracket,
    graph: &CsrGraph,
    config: &ServeConfig,
    fleet: &FleetConfig,
    plan: &FleetPlan,
    requests: &[Request],
) -> Reading {
    let n = fleet.num_servers;
    let backlog = config.queue_capacity * 4;
    let spill = (fleet.spill_threshold * backlog as f64).ceil() as usize;
    let groups: Vec<Vec<usize>> = (0..n).map(|s| vec![s]).collect();
    let mut dispatcher = Dispatcher::new(groups, graph.num_vertices(), spill);
    for (s, owned) in plan.owned.iter().enumerate() {
        let list: Vec<VertexId> = (0..graph.num_vertices() as VertexId)
            .filter(|&v| owned[v as usize])
            .collect();
        dispatcher.refresh_group(s, &list);
    }
    let probes = route_probes(graph, requests, fleet.probe_neighbors);
    route_all(bracket, &dispatcher, &probes)
}

/// `ClassedQueue` offer/take over the stream, in the discipline the
/// workload configures: every request offered, a micro-batch taken per
/// `max_batch` offers.
pub fn qos_queue(bracket: &mut Bracket, config: &ServeConfig, requests: &[Request]) -> Reading {
    let head = &requests[..requests.len().min(PROBE_REQUESTS)];
    probe(bracket, head.len() as f64, || {
        let mut queue: ClassedQueue<Request> = if config.classes.qos {
            ClassedQueue::new_qos(config.queue_capacity, config.classes.qos_weights)
                .with_service_floors(config.classes.qos_floors)
        } else {
            ClassedQueue::new_fifo(config.queue_capacity)
        };
        let mut drained = 0usize;
        for (i, r) in head.iter().enumerate() {
            queue.offer(*r);
            if (i + 1) % config.max_batch == 0 {
                drained += queue.take(config.max_batch).len();
            }
        }
        drained
    })
}

/// `VertexStore::prefetch` and `::read` over the stream's look-ahead
/// candidates and miss sets. Rows are tiered by warm-up hotness: the
/// head the DRAM budget holds stays resident, the tail is on the SSD.
pub fn store(
    bracket: &mut Bracket,
    out: &mut Outcome,
    ds: &Dataset,
    config: &ServeConfig,
    stream: &Stream<'_>,
) {
    let Some(budget) = config.store.dram_budget_bytes else {
        return;
    };
    let n = ds.graph.num_vertices();
    let row_bytes = ds.features.row_bytes();
    let dram_rows = ((budget / row_bytes.max(1)) as usize).min(n);
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    let mut warm = TargetSampler::new(all, config.zipf_exponent, 0, 0);
    let (hot, _) = warmup_hot_vertices_weighted(
        &ds.graph,
        &mut warm,
        config.warmup_requests,
        &config.fanouts,
        config.seed,
    );
    let build = || {
        let nvme = NvmeModel::new(config.store.nvme);
        let mut s = VertexStore::new(nvme, n, row_bytes, config.store.staging_rows);
        for &v in &hot[dram_rows..] {
            s.assign(v, Tier::Ssd);
        }
        s
    };
    let misses = stream.miss_sets();
    let candidates: Vec<Vec<VertexId>> = stream
        .batches()
        .iter()
        .map(|seeds| {
            let mut c = Vec::new();
            for &s in seeds {
                c.push(s);
                c.extend(
                    ds.graph
                        .neighbors(s)
                        .iter()
                        .take(config.store.prefetch_neighbors)
                        .copied(),
                );
            }
            c
        })
        .collect();
    // Batches launch one accumulation window apart.
    let at = |batch: usize| batch as f64 * config.max_wait;

    let missed_rows: usize = misses.iter().map(Vec::len).sum();
    out.set(
        "store.read_ns_per_row",
        probe(bracket, missed_rows as f64, || {
            let mut s = build();
            misses
                .iter()
                .enumerate()
                .map(|(i, m)| s.read(at(i), m).cold_reads)
                .sum::<u64>()
        }),
    );
    let candidate_rows: usize = candidates.iter().map(Vec::len).sum();
    out.set(
        "store.prefetch_ns_per_row",
        probe(bracket, candidate_rows as f64, || {
            let mut s = build();
            candidates
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    s.prefetch(at(i), c.iter().copied(), config.store.prefetch_budget)
                        .issued
                })
                .sum::<u64>()
        }),
    );
}

/// `NetModel::coalesced_read_seconds_at` over server 0's remote waves:
/// each micro-batch's unowned misses bucketed by owning shard, one
/// payload per owner.
pub fn net_waves(
    bracket: &mut Bracket,
    fleet: &FleetConfig,
    plan: &FleetPlan,
    stream: &Stream<'_>,
    row_bytes: u64,
) -> Reading {
    let net = fleet.effective_net();
    let waves: Vec<Vec<u64>> = stream
        .miss_sets()
        .iter()
        .map(|missed| {
            let mut rows = vec![0u64; fleet.num_servers];
            for &v in missed {
                if !plan.owned[0][v as usize] {
                    rows[plan.shard[v as usize] as usize] += 1;
                }
            }
            rows.into_iter()
                .filter(|&r| r > 0)
                .map(|r| r * row_bytes)
                .collect()
        })
        .filter(|payloads: &Vec<u64>| !payloads.is_empty())
        .collect();
    // A wave is priced in tens of nanoseconds: repeat the stream's
    // waves until the section is long enough to time.
    const ROUNDS: usize = 200;
    probe(bracket, (waves.len() * ROUNDS) as f64, || {
        let mut t = 0.0f64;
        for _ in 0..ROUNDS {
            for payloads in &waves {
                t += net.coalesced_read_seconds_at(black_box(payloads), fleet.num_servers);
            }
        }
        t
    })
}

/// `DeltaOverlay` apply / `merge_into` / compact over the mutation log
/// the engine resolves for this run.
pub fn mutations(
    bracket: &mut Bracket,
    out: &mut Outcome,
    graph: &CsrGraph,
    churn: &ChurnConfig,
    seed: u64,
    horizon_s: f64,
) {
    let log = MutationLog::generate(graph, churn, seed, horizon_s);
    let n = graph.num_vertices();
    let apply_all = || {
        let overlay = DeltaOverlay::new(n);
        for m in &log.ops {
            overlay.apply(graph, &m.op);
        }
        overlay
    };
    out.set(
        "dyn.apply_ns_per_op",
        probe(bracket, log.ops.len() as f64, || apply_all().dirty_rows()),
    );
    let applied = apply_all();
    let dirty: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| applied.is_dirty(v))
        .collect();
    let mut row: Vec<VertexId> = Vec::new();
    out.set(
        "dyn.merge_ns_per_row",
        probe(bracket, dirty.len() as f64, || {
            let mut edges = 0usize;
            for &v in &dirty {
                applied.merge_into(graph, v, &mut row);
                edges += row.len();
            }
            edges
        }),
    );
    // Compaction consumes the pending deltas, so each repetition
    // compacts a freshly applied overlay; only the fold is timed.
    let samples: Vec<Sample> = (0..PROBE_REPS)
        .map(|_| {
            let overlay = apply_all();
            bracket.section(|| overlay.compact(graph)).1
        })
        .collect();
    out.set("dyn.compact_s", host_reading(&samples));
}
