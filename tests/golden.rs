//! Golden rows: every scenario below is a tiny fixed-seed run whose
//! output is committed as readable values in `tests/golden.txt`, one
//! `[row]` section each (`Snapshot::to_text` for a snapshot, one
//! `[row/serverN]` section per fleet member, an `f64`, JSON load points
//! or the FNV-1a digest of an id stream).
//!
//! The determinism suite compares a run with another run of the *same*
//! build; this file pins a build against its parent, which is the
//! property a behaviour-preserving refactor needs. A failing run prints
//! the movers; a deliberate behaviour change reads them, then runs the
//! `cp` line the test prints.

use legion_baselines::{dgl, pagraph, quiver, BuildContext, SystemError, SystemSetup};
use legion_cache::{cslp, hotness_order, CliqueCache, HotnessMatrix};
use legion_core::experiments::policies::{build_policy, CachePolicy};
use legion_core::runner::{run_epoch, run_epoch_with_model};
use legion_core::system::{legion_feature_cache_setup, legion_setup};
use legion_core::LegionConfig;
use legion_fleet::scenarios::{
    churn, clique_machine, fleet, golden, golden_dataset, oversub_drift, router_qos,
};
use legion_fleet::{serve_fleet, FleetConfig, FleetReport};
use legion_gnn::ModelKind;
use legion_graph::dataset::{spec_by_name, Dataset};
use legion_graph::CsrGraph;
use legion_hw::{ServerSpec, UplinkConfig};
use legion_partition::{LdgPartitioner, Partitioner};
use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::{KHopSampler, SampleScratch};
use legion_serve::{
    estimate_capacity_rps, plan_layout, profile_warmup, run_sweep, serve, ArrivalProcess,
    DeltaOverlay, MutationOp, MutationSource, PolicyKind, ServeConfig, StoreConfig, TargetSampler,
};
use legion_store::{NvmeGeneration, NvmeModel, Tier, VertexStore};
use legion_telemetry::snapshot::diff;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const COMMITTED: &str = include_str!("golden.txt");

/// Each row's name and the body of its `[name]` section.
type Rows = Vec<(&'static str, String)>;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An id-stream row: the FNV-1a digest of the stream's bytes.
fn digest_row(bytes: &[u8]) -> String {
    format!("ids {:016x}\n", fnv1a(bytes))
}

fn ids_row(ids: &[u32]) -> String {
    digest_row(
        &ids.iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

fn words_row(words: &[u64]) -> String {
    digest_row(
        &words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// A fixed 31-bit LCG stream.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    }
}

/// A `gpus x n` hotness matrix from a fixed LCG: a cell is non-zero with
/// probability `1 / one_in`, with small values so ties are common.
fn lcg_hotness(gpus: usize, n: usize, one_in: u64, seed: u64) -> HotnessMatrix {
    let mut next = lcg(seed);
    let mut rows = vec![vec![0; n]; gpus];
    for row in &mut rows {
        for cell in row.iter_mut() {
            if next().is_multiple_of(one_in) {
                *cell = 1 + next() % 7;
            }
        }
    }
    dense_hotness(&rows)
}

/// The hotness matrix whose GPU rows are `rows`.
fn dense_hotness(rows: &[Vec<u64>]) -> HotnessMatrix {
    HotnessMatrix::from_rows(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

/// One value from `next` whose bit width is drawn uniformly from
/// `0..=max_bits`: small values tie often, wide ones span several
/// radix digits.
fn lcg_wide(next: &mut impl FnMut() -> u64, max_bits: u64) -> u64 {
    let bits = next() % (max_bits + 1);
    let word = (next() << 33) ^ (next() << 2) ^ next();
    word & ((1u64 << bits) - 1)
}

/// Everything [`cslp`] returns but the accumulated vector, as one id
/// stream: the clique order, each GPU's queue `G[g]` (the clique order
/// filtered to the rows `g` owns) with its length, and the owner of
/// every vertex.
fn cslp_words(h: &HotnessMatrix, gpus: u32) -> Vec<u32> {
    let out = cslp(h);
    let mut ids = out.clique_order.clone();
    for g in 0..gpus {
        let queue: Vec<u32> = out
            .clique_order
            .iter()
            .copied()
            .filter(|&v| out.owner[v as usize] == g)
            .collect();
        ids.push(queue.len() as u32);
        ids.extend_from_slice(&queue);
    }
    ids.extend_from_slice(&out.owner);
    ids
}

/// The planning routines' own outputs, pinned beside the run snapshots:
/// the LDG assignment, the CSLP clique order, and one window plan.
fn planning_rows(d: &Dataset, rows: &mut Rows) {
    for (name, k) in [("ldg_partition_k2", 2), ("ldg_partition_k4", 4)] {
        rows.push((
            name,
            ids_row(&LdgPartitioner::default().partition(&d.graph, k)),
        ));
    }
    rows.push((
        "cslp_sparse_1row",
        ids_row(&cslp(&lcg_hotness(1, 5000, 40, 7)).clique_order),
    ));
    rows.push((
        "cslp_dense_4row",
        ids_row(&cslp(&lcg_hotness(4, 1200, 2, 11)).clique_order),
    ));
    {
        // Cells up to 2^40 on three GPUs, a third of them zero: several
        // radix digits, long tie runs at small values, and GPU ties.
        let mut next = lcg(0xC51B);
        let mut gpu_rows = vec![vec![0; 3000]; 3];
        for row in &mut gpu_rows {
            for cell in row.iter_mut() {
                if !next().is_multiple_of(3) {
                    *cell = lcg_wide(&mut next, 40);
                }
            }
        }
        let h = dense_hotness(&gpu_rows);
        rows.push(("cslp_wide_3row", ids_row(&cslp_words(&h, 3))));
        let hot: Vec<u64> = (0..5000).map(|_| lcg_wide(&mut next, 63)).collect();
        rows.push(("hotness_order_wide", ids_row(&hotness_order(&hot))));
    }

    let n = d.graph.num_vertices();
    let mut targets = TargetSampler::new((0..n as u32).collect(), 1.1, 0, 0);
    let window = profile_warmup(&d.graph, &mut targets, 400, &[5, 3], 42);
    let plan = plan_layout(
        0,
        4,
        &d.graph,
        &d.features,
        &window.topo,
        &window.feat,
        window.n_tsum,
        256 * d.features.row_bytes(),
        0.05,
        64,
    );
    assert!(!plan.contents.topo.is_empty() && !plan.contents.feat.is_empty());
    let mut bytes = Vec::new();
    for part in [&plan.contents.topo, &plan.contents.feat] {
        bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
        bytes.extend(part.iter().flat_map(|v| v.to_le_bytes()));
    }
    for word in [
        plan.contents.topo_bytes,
        plan.contents.feat_bytes,
        plan.evaluation.alpha.to_bits(),
        plan.evaluation.n_total().to_bits(),
    ] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    rows.push(("plan_layout_window400", digest_row(&bytes)));
}

/// Two filled clique caches over a 4-GPU server: from any GPU a batch
/// meets local hits, NVLink peer hits and CPU misses of both kinds.
fn filled_layout(d: &Dataset) -> CacheLayout {
    let n = d.graph.num_vertices();
    let cliques = [vec![0, 1], vec![2, 3]]
        .into_iter()
        .enumerate()
        .map(|(c, gpus)| {
            let mut cc = CliqueCache::new(gpus, n, d.features.dim());
            for v in (0..n as u32).filter(|v| !(*v as usize + c).is_multiple_of(3)) {
                cc.insert_topology((v as usize / 3) % 2, v, d.graph.degree(v));
            }
            for v in (0..n as u32).filter(|v| (*v as usize + c) % 4 != 1) {
                cc.insert_feature((v as usize / 4) % 2, v);
            }
            cc
        })
        .collect();
    CacheLayout::from_cliques(4, cliques)
}

/// The k-hop sampler's whole observable output, pinned beside the run
/// snapshots: every block and `all_vertices` of three batches run
/// through one scratch (GPU 0, GPU 3 in the other clique, then a single
/// seed on GPU 1), the `on_row` reports expanded to one id per edge, the RNG position
/// after each call and the engine's counters — for a filled 2-clique layout, a GPU-replicated topology,
/// an overlay whose dirty rows sit on both sides of every power-of-two
/// frontier position up to 64, and duplicate seeds.
fn sampler_rows(d: &Dataset, rows: &mut Rows) {
    let n = d.graph.num_vertices() as u32;
    let seeds: Vec<u32> = d.train_vertices.iter().copied().take(150).collect();
    assert_eq!(seeds.len(), 150, "fixture needs 150 training vertices");
    let layout = filled_layout(d);
    let none = CacheLayout::none(4);
    let overlay = DeltaOverlay::new(n as usize);
    for &i in &[3usize, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100] {
        let v = seeds[i];
        let op = match i % 3 {
            0 => MutationOp::ChurnVertex { v },
            1 => MutationOp::DeleteEdge {
                src: v,
                dst: d.graph.neighbors(v)[0],
            },
            _ => MutationOp::InsertEdge {
                src: v,
                dst: (v * 7 + 1) % n,
            },
        };
        overlay.apply(&d.graph, &op);
        overlay.apply(
            &d.graph,
            &MutationOp::InsertEdge {
                src: v,
                dst: (v * 13 + 5) % n,
            },
        );
    }
    // Second-hop dirty rows: mutate a stride of the whole id range.
    for v in (0..n).step_by(9) {
        overlay.apply(
            &d.graph,
            &MutationOp::InsertEdge {
                src: v,
                dst: (v * 31 + 2) % n,
            },
        );
    }
    let mut dup = seeds[..90].to_vec();
    for i in (0..90).step_by(4) {
        dup[i] = seeds[(i * 7) % 30];
    }

    type Case<'a> = (
        &'static str,
        &'static str,
        &'a CacheLayout,
        TopologyPlacement,
        Option<&'a DeltaOverlay>,
        &'a [u32],
    );
    let cases: [Case<'_>; 4] = [
        (
            "sampler_clique_25_10",
            "sampler_clique_8",
            &layout,
            TopologyPlacement::CpuUva,
            None,
            &seeds,
        ),
        (
            "sampler_replicated_25_10",
            "sampler_replicated_8",
            &none,
            TopologyPlacement::ReplicatedGpu,
            None,
            &seeds,
        ),
        (
            "sampler_overlay_25_10",
            "sampler_overlay_8",
            &layout,
            TopologyPlacement::CpuUva,
            Some(&overlay),
            &seeds,
        ),
        (
            "sampler_dup_seeds_25_10",
            "sampler_dup_seeds_8",
            &layout,
            TopologyPlacement::CpuUva,
            None,
            &dup,
        ),
    ];
    for (two_hop, one_hop, layout, placement, overlay, seeds) in cases {
        for (name, fanouts) in [(two_hop, vec![25, 10]), (one_hop, vec![8])] {
            let server = clique_machine().build();
            let engine = AccessEngine::new(&d.graph, &d.features, layout, &server, placement)
                .with_overlay(overlay);
            let sampler = KHopSampler::new(fanouts);
            let mut rng = StdRng::seed_from_u64(0x5EED);
            let mut scratch = SampleScratch::new();
            let mut words: Vec<u64> = Vec::new();
            let batches = [
                (0, seeds),
                (3, &seeds[seeds.len() / 3..]),
                (1, &seeds[5..6]),
            ];
            for (gpu, batch) in batches {
                // Each row once per drawn edge: the sequence a per-edge
                // hook reported before the hook took counts.
                let mut traversed: Vec<u32> = Vec::new();
                let mut on_row =
                    |v: u32, drawn: u64| traversed.extend(std::iter::repeat_n(v, drawn as usize));
                let sample = sampler.sample_batch_with(
                    &engine,
                    gpu,
                    batch,
                    &mut rng,
                    Some(&mut on_row),
                    &mut scratch,
                );
                for b in &sample.blocks {
                    words.push(b.num_dst as u64);
                    for part in [&b.src_vertices, &b.edge_dst, &b.edge_src] {
                        words.push(part.len() as u64);
                        words.extend(part.iter().map(|&x| x as u64));
                    }
                }
                for part in [&sample.all_vertices, &traversed] {
                    words.push(part.len() as u64);
                    words.extend(part.iter().map(|&x| x as u64));
                }
                words.push(rng.gen::<u64>());
            }
            let counters = server.telemetry().snapshot().to_text();
            rows.push((name, words_row(&words) + &counters));
        }
    }
}

/// More of the LDG partitioner's surface than `ldg_partition_k2` / `_k4`:
/// an odd `k`, a `k` past eight parts, a single pass (no refinement to
/// stop early), and a raw `from_parts` multigraph — unsorted rows,
/// self-loops (some stored twice, counted once),
/// parallel edges, mutual edges, vertices with no edge at all — under
/// four `(k, passes, slack)` settings.
fn ldg_rows(d: &Dataset, rows: &mut Rows) {
    for (name, k) in [("ldg_partition_k3", 3), ("ldg_partition_k9", 9)] {
        rows.push((
            name,
            ids_row(&LdgPartitioner::default().partition(&d.graph, k)),
        ));
    }
    let one_pass = LdgPartitioner {
        passes: 1,
        ..LdgPartitioner::default()
    };
    rows.push((
        "ldg_partition_k3_pass1",
        ids_row(&one_pass.partition(&d.graph, 3)),
    ));

    let n = 64u32;
    let mut next = lcg(0x1D6);
    let mut offsets = vec![0u64];
    let mut cols: Vec<u32> = Vec::new();
    for v in 0..n {
        // Rows 56.. have no out-edge and no drawn in-edge.
        if v < 56 {
            for _ in 0..next() % 9 {
                cols.push((next() % 56) as u32);
            }
            if v % 5 == 0 {
                cols.push(v);
            }
            if v % 10 == 0 {
                cols.push(v);
            }
            if v % 7 == 3 {
                cols.extend([v + 1, v + 1]);
            }
            if v % 7 == 4 {
                cols.push(v - 1);
            }
        }
        offsets.push(cols.len() as u64);
    }
    let g = CsrGraph::from_parts(offsets, cols).expect("valid raw rows");
    assert!(
        (0..n).any(|v| g.neighbors(v).windows(2).any(|w| w[0] > w[1])),
        "fixture needs an unsorted row"
    );
    let mut ids: Vec<u32> = Vec::new();
    for (k, passes, capacity_slack) in [(2, 3, 1.05), (3, 1, 1.0), (5, 2, 1.3), (9, 3, 1.05)] {
        let ldg = LdgPartitioner {
            passes,
            capacity_slack,
        };
        ids.extend(ldg.partition(&g, k));
    }
    rows.push(("ldg_multigraph_from_parts", ids_row(&ids)));
}

/// Every value a `VertexStore` hands back over a fixed script: one warm
/// start, then 800 steps of prefetch / read / migrate on a 24-row window
/// with a hot range that rotates, a clock that mostly advances and
/// sometimes steps back, and `inflight` queried at every step. (The
/// engine-level `serve.store.inflight` histogram is already pinned by
/// `serve_fifo_oversub` and `serve_replan_oversub_drift`.)
fn store_rows(rows: &mut Rows) {
    let n = 192u64;
    let mut s = VertexStore::new(NvmeModel::new(NvmeGeneration::Gen3x4), n as usize, 512, 24);
    for v in (0..n as u32).filter(|v| v % 4 != 0) {
        s.assign(v, Tier::Ssd);
    }
    let mut next = lcg(0x57A6E);
    let mut words: Vec<u64> = vec![s.warm((0..20u32).map(|i| (i * 7) % 96))];
    let (mut hits, mut late, mut cold, mut evicted, mut moved, mut flying) = (0, 0, 0, 0, 0, 0);
    let mut clock_ns = 0u64;
    for step in 0..800u64 {
        clock_ns = if next().is_multiple_of(11) {
            clock_ns.saturating_sub(next() % 200_000)
        } else {
            clock_ns + next() % 60_000
        };
        let at = clock_ns as f64 * 1e-9;
        let base = step / 100 * 24;
        let mut draw = |count: u64| -> Vec<u32> {
            (0..count)
                .map(|_| ((base + next() % 64) % n) as u32)
                .collect()
        };
        match step % 8 {
            0..=2 => {
                let candidates = draw(1 + step % 6);
                let out = s.prefetch(at, candidates, (step % 5) as usize);
                evicted += out.evictions;
                words.extend([out.issued, out.evictions, out.nvme_bytes, out.read_us]);
            }
            3..=5 => {
                let mut missed = draw(1 + step % 7);
                missed.sort_unstable();
                missed.dedup();
                let out = s.read(at, &missed);
                hits += out.prefetch_hits;
                late += out.late_stalls;
                cold += out.cold_reads;
                evicted += out.evictions;
                words.extend([
                    out.prefetch_hits,
                    out.late_stalls,
                    out.cold_reads,
                    out.evictions,
                    out.nvme_reads,
                    out.nvme_bytes,
                    out.stall_s.to_bits(),
                    out.read_us,
                ]);
            }
            6 => {
                let (promote, demote) = (draw(step % 4), draw(step % 3));
                let out = s.migrate(at, &promote, &demote);
                moved += out.promoted.min(out.demoted);
                words.extend([
                    out.promoted,
                    out.demoted,
                    out.nvme_bytes,
                    out.swap_s.to_bits(),
                ]);
            }
            _ => {}
        }
        let inflight = s.inflight(at);
        flying += inflight;
        words.extend([inflight as u64, s.staged_rows() as u64]);
    }
    assert!(
        hits > 0 && late > 0 && cold > 0 && evicted > 0 && moved > 0 && flying > 0,
        "script must reach every outcome: {hits} {late} {cold} {evicted} {moved} {flying}"
    );
    rows.push(("store_op_sequence", words_row(&words)));
}

/// [`oversub_drift`] over twice the golden stream: five drift
/// rotations, time for re-plans to commit and migrate rows mid-run.
fn long_oversub_drift(policy: PolicyKind) -> ServeConfig {
    ServeConfig {
        num_requests: 1600,
        ..oversub_drift(golden(policy))
    }
}

fn serve_text(d: &Dataset, cfg: &ServeConfig) -> String {
    serve(&d.graph, &d.features, &clique_machine().build(), cfg)
        .metrics
        .to_text()
}

/// A fleet row: the fleet's snapshot text, then one `[row/serverN]`
/// section per member.
fn fleet_text(row: &str, r: &FleetReport) -> String {
    let mut text = r.metrics.to_text();
    for (i, s) in r.per_server.iter().enumerate() {
        text += &format!("[{row}/server{i}]\n{}", s.metrics.to_text());
    }
    text
}

fn epoch_config() -> LegionConfig {
    LegionConfig {
        fanouts: vec![5, 5],
        batch_size: 64,
        seed: 42,
        ..Default::default()
    }
}

fn scenarios() -> Rows {
    let d = golden_dataset();
    let mut rows: Rows = Vec::new();

    for (name, policy) in [
        ("serve_static", PolicyKind::StaticHot),
        ("serve_fifo", PolicyKind::Fifo),
        ("serve_replan", PolicyKind::Replan),
    ] {
        rows.push((name, serve_text(&d, &golden(policy))));
    }
    rows.push((
        "serve_static_router_qos",
        serve_text(&d, &router_qos(golden(PolicyKind::StaticHot))),
    ));
    {
        // ≈ 3x what one golden-scale machine serves (≈ 4.1 M req/s): the
        // queues stay deep, so batches close at `max_batch` and every
        // serving wave carries many requests' frontiers.
        let cfg = ServeConfig {
            arrival: ArrivalProcess::Poisson { rate: 12e6 },
            ..golden(PolicyKind::StaticHot)
        };
        let report = serve(&d.graph, &d.features, &clique_machine().build(), &cfg);
        let batches: u64 = (0..4)
            .map(|g| report.metrics.counter(&format!("serve.gpu{g}.batches")))
            .sum();
        assert!(
            report.completed >= (cfg.max_batch as u64 - 1) * batches,
            "fixture batches must close full: {} requests in {batches} batches",
            report.completed
        );
        rows.push(("serve_static_loaded", report.metrics.to_text()));
    }
    rows.push((
        "serve_fifo_oversub",
        serve_text(&d, &long_oversub_drift(PolicyKind::Fifo)),
    ));
    {
        let cfg = long_oversub_drift(PolicyKind::Replan);
        let report = serve(&d.graph, &d.features, &clique_machine().build(), &cfg);
        assert!(
            report.metrics.counter("serve.replan.count") > 0,
            "fixture must commit plans"
        );
        assert!(
            report.metrics.counter("serve.store.migrations") > 0,
            "fixture must migrate rows through the store"
        );
        rows.push(("serve_replan_oversub_drift", report.metrics.to_text()));
    }
    {
        // Re-plan + residency router + QoS + drift on one server, no store.
        let cfg = ServeConfig {
            store: StoreConfig::default(),
            ..router_qos(long_oversub_drift(PolicyKind::Replan))
        };
        let report = serve(&d.graph, &d.features, &clique_machine().build(), &cfg);
        assert!(
            report.metrics.counter("serve.replan.count") > 0,
            "fixture must commit plans"
        );
        rows.push(("serve_replan_router_qos_drift", report.metrics.to_text()));
    }
    {
        let mut cfg = golden(PolicyKind::StaticHot);
        cfg.mutations = Some(MutationSource::Generate(churn()));
        let fleet = FleetConfig {
            uplink: Some(UplinkConfig::default()),
            coalesce: true,
            ..fleet(2)
        };
        let r = serve_fleet(&d.graph, &d.features, &clique_machine(), &cfg, &fleet);
        assert!(r.remote_reads > 0, "two shards must go remote");
        assert!(r.metrics.counter("fleet.mut.applied") > 0);
        let name = "fleet2_uplink_coalesce_churn";
        rows.push((name, fleet_text(name, &r)));
    }
    {
        // Every load point of one sweep, run back to back on one server.
        let cfg = router_qos(golden(PolicyKind::StaticHot));
        let server = clique_machine().build();
        let capacity = estimate_capacity_rps(&d.graph, &d.features, &server, &cfg);
        let points = run_sweep(
            &d.graph,
            &d.features,
            &server,
            &cfg,
            capacity,
            &[0.3, 0.9, 4.0],
        );
        let lines = points.iter().map(|p| {
            let json = serde_json::to_string(p).expect("serializable load point");
            format!("x{} {json}\n", p.load_multiplier)
        });
        rows.push(("sweep_static_router", lines.collect()));
    }
    {
        // Three members, each re-planning, routing and migrating through
        // its own oversubscribed store while the front tier resizes the
        // replicated head under them.
        let mut cfg = router_qos(long_oversub_drift(PolicyKind::Replan));
        cfg.mutations = Some(MutationSource::Generate(churn()));
        let fleet = FleetConfig {
            coalesce: true,
            resize_on_drift: true,
            ..fleet(3)
        };
        let r = serve_fleet(&d.graph, &d.features, &clique_machine(), &cfg, &fleet);
        let members =
            |name: &str| -> u64 { r.per_server.iter().map(|s| s.metrics.counter(name)).sum() };
        assert!(members("serve.replan.count") > 0, "members must re-plan");
        assert!(
            members("serve.store.migrations") > 0,
            "commits must migrate rows through the members' stores"
        );
        assert!(r.resizes > 0, "drift must resize the replicated head");
        let name = "fleet3_replan_router_store_resize";
        rows.push((name, fleet_text(name, &r)));
    }

    {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 42);
        let cfg = epoch_config();
        let server = ServerSpec::custom(4, 16 << 20, 2).build();
        let ctx = cfg.build_context(&ds, &server);
        let setup = legion_setup(&ctx, &cfg).unwrap();
        let pipelined = run_epoch(&setup, &ctx, &cfg);
        rows.push(("epoch_legion_pipelined", pipelined.metrics.to_text()));

        let big = clique_machine().build();
        let ctx = cfg.build_context(&ds, &big);
        let gnnlab = legion_baselines::gnnlab::setup(&ctx, 1).unwrap();
        let gcn = run_epoch_with_model(&gnnlab, &ctx, &cfg, ModelKind::Gcn);
        rows.push(("epoch_gnnlab_factored_gcn", gcn.metrics.to_text()));

        // Every other set-up builder, one epoch each on a fresh server.
        // The fixed-row builders cache 5 % of |V| on every GPU.
        const ROWS: usize = 120;
        type Build = fn(&BuildContext<'_>, &LegionConfig) -> Result<SystemSetup, SystemError>;
        let builders: [(&'static str, Build); 7] = [
            ("epoch_dgl_serial", |ctx, _| dgl::setup(ctx)),
            ("epoch_pagraph_cpu_sampling", |ctx, _| pagraph::setup(ctx)),
            ("epoch_pagraph_plus", |ctx, _| pagraph::setup_plus(ctx)),
            ("epoch_quiver_plus", |ctx, _| quiver::setup(ctx)),
            ("epoch_legion_feature_cache", |ctx, cfg| {
                legion_feature_cache_setup(ctx, cfg, ROWS)
            }),
            ("epoch_policy_gnnlab", |ctx, cfg| {
                build_policy(CachePolicy::GnnLabReplicated, ctx, cfg, ROWS)
            }),
            ("epoch_policy_pagraph", |ctx, cfg| {
                build_policy(CachePolicy::PaGraph, ctx, cfg, ROWS)
            }),
        ];
        for (name, build) in builders {
            let server = ServerSpec::custom(4, 16 << 20, 2).build();
            let ctx = cfg.build_context(&ds, &server);
            let setup = build(&ctx, &cfg).unwrap();
            rows.push((name, run_epoch(&setup, &ctx, &cfg).metrics.to_text()));
        }

        // Pre-sampling's own output on the Legion tablets, one clique
        // after the other on a fresh server.
        let server = ServerSpec::custom(4, 16 << 20, 2).build();
        let ctx = cfg.build_context(&ds, &server);
        let (mut h_t, mut h_f, mut n_tsum) = (Vec::new(), Vec::new(), Vec::new());
        for clique in [[0, 1], [2, 3]] {
            let tablets = clique.map(|g| setup.tablets[g].clone());
            let pres = ctx.presample(&clique, &tablets);
            for slot in 0..clique.len() {
                h_t.extend(pres.h_t.row(slot));
                h_f.extend(pres.h_f.row(slot));
            }
            n_tsum.push(pres.n_tsum);
        }
        assert!(h_t.iter().any(|&h| h > 0) && n_tsum.iter().all(|&t| t > 0));
        rows.push(("presample_epoch_h_t", words_row(&h_t)));
        rows.push(("presample_epoch_h_f", words_row(&h_f)));
        rows.push(("presample_epoch_n_tsum", words_row(&n_tsum)));
    }

    {
        let capacity = |cfg: &ServeConfig| {
            let rps = estimate_capacity_rps(&d.graph, &d.features, &clique_machine().build(), cfg);
            format!("rps {rps:?}\n")
        };
        let rr = golden(PolicyKind::Fifo);
        rows.push(("capacity_round_robin", capacity(&rr)));
        rows.push(("capacity_routed", capacity(&router_qos(rr.clone()))));
        let store = long_oversub_drift(PolicyKind::Fifo);
        rows.push(("capacity_store_aware", capacity(&store)));
        rows.push(("capacity_routed_store_aware", capacity(&router_qos(store))));
    }
    planning_rows(&d, &mut rows);
    sampler_rows(&d, &mut rows);
    ldg_rows(&d, &mut rows);
    store_rows(&mut rows);
    rows
}

/// Each `[name]` section of a golden file, by name.
fn sections(file: &str) -> BTreeMap<&str, &str> {
    file.strip_prefix('[')
        .unwrap_or(file)
        .split("\n[")
        .map(|section| section.split_once("]\n").unwrap_or((section, "")))
        .collect()
}

#[test]
fn runs_match_the_committed_golden_file() {
    let actual: String = scenarios()
        .iter()
        .map(|(name, body)| format!("[{name}]\n{body}"))
        .collect();
    if actual == COMMITTED {
        return;
    }
    let (old, new) = (sections(COMMITTED), sections(&actual));
    let names: BTreeSet<&str> = old.keys().chain(new.keys()).copied().collect();
    let mut movers = Vec::new();
    for name in names {
        let (a, b) = (old.get(name).unwrap_or(&""), new.get(name).unwrap_or(&""));
        movers.extend(diff(a, b).into_iter().map(|line| format!("{name}: {line}")));
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden.txt");
    std::fs::write(&path, &actual).expect("write the actual golden file");
    panic!(
        "golden rows moved:\n{}\nIf the change is deliberate, re-baseline from the repository \
         root with\n  cp {} tests/golden.txt",
        movers.join("\n"),
        path.display()
    );
}
