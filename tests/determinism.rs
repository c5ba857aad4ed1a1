//! Integration test: identical seeds reproduce identical systems and
//! measurements; different seeds genuinely differ. Deterministic replay
//! is what makes the figure regeneration meaningful. For serving, one
//! config-lattice test states replay, degenerate-equals-off and
//! off-registers-nothing for every feature at once.

use legion_core::runner::run_epoch;
use legion_core::system::legion_setup_with_plans;
use legion_core::LegionConfig;
use legion_graph::dataset::spec_by_name;
use legion_hw::ServerSpec;
use legion_telemetry::snapshot::diff;

fn config(seed: u64) -> LegionConfig {
    LegionConfig {
        fanouts: vec![5, 5],
        batch_size: 64,
        seed,
        ..Default::default()
    }
}

/// Fails, naming every metric that moved, when two runs' canonical
/// snapshot texts differ pair by pair.
fn assert_same(a: &[String], b: &[String], what: &str) {
    if a != b {
        let movers: Vec<String> = a.iter().zip(b).flat_map(|(a, b)| diff(a, b)).collect();
        panic!("{what}:\n{}", movers.join("\n"));
    }
}

fn run_once(seed: u64) -> (f64, u64, Vec<f64>, f64) {
    let ds = spec_by_name("PR").unwrap().instantiate(1000, seed);
    let spec = ServerSpec::custom(4, 256 << 10, 2);
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
    let snapshot_text = |seed: u64| {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, seed);
        let spec = ServerSpec::custom(4, 16 << 20, 2);
        let server = spec.build();
        let cfg = config(seed);
        let ctx = cfg.build_context(&ds, &server);
        let (setup, _) = legion_setup_with_plans(&ctx, &cfg).unwrap();
        let report = run_epoch(&setup, &ctx, &cfg);
        [report.metrics.to_text()]
    };
    let a = snapshot_text(42);
    assert_same(
        &a,
        &snapshot_text(42),
        "same-seed metric snapshots must be identical",
    );
    assert!(
        a != snapshot_text(43),
        "different seeds should change the metric snapshot"
    );
}

#[test]
fn different_seed_different_traffic() {
    let a = run_once(42);
    let b = run_once(43);
    // Premise: the caches cannot hold the graph (four 256 KiB GPUs
    // against PR/1000's topology and features), so both seeds move PCIe
    // traffic; a whole-graph cache moves none on either seed.
    assert!(a.1 > 0 && b.1 > 0, "both runs must miss: {} / {}", a.1, b.1);
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
            cc.insert_topology((v % 2) as usize, v, ds.graph.degree(v));
        }
        for v in (0..n as u32).step_by(4) {
            cc.insert_feature(((v / 4) % 2) as usize, v);
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
    let snap_a = [server_a.telemetry().snapshot().to_text()];

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
    let snap_b = [server_b.telemetry().snapshot().to_text()];
    assert_same(
        &snap_a,
        &snap_b,
        "scalar and batched runs must flush identical counter totals",
    );
}

#[test]
fn dataset_instantiation_is_stable_across_calls() {
    let d1 = spec_by_name("CO").unwrap().instantiate(4000, 7);
    let d2 = spec_by_name("CO").unwrap().instantiate(4000, 7);
    assert_eq!(d1.graph, d2.graph);
    assert_eq!(d1.train_vertices, d2.train_vertices);
    assert_eq!(d1.features.to_vec(), d2.features.to_vec());
}

/// FNV-1a over 64-bit words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The draws a dataset's generators take from its one seeded stream are
/// pinned: each featureless dataset's graph and training ids (drawn after
/// its feature table) and PR's dense feature values. A feature table that
/// is stored differently must leave every one of these unchanged.
#[test]
fn dataset_streams_are_pinned() {
    let pinned: [(&str, u64, [u64; 2]); 3] = [
        ("PA", 8000, [0x6dae45ac83f16750, 0xa65a64e139936063]),
        ("CO", 8000, [0x832e5dacaa3fef80, 0xf6c03f29131e648a]),
        ("UKS", 20000, [0xc60a73db2c1961bc, 0x99350db193d1bd32]),
    ];
    let mut seen = Vec::new();
    for (name, divisor, _) in pinned {
        let d = spec_by_name(name).unwrap().instantiate(divisor, 3);
        let g = &d.graph;
        let graph = digest((0..g.num_vertices() as u32).flat_map(|v| {
            std::iter::once(g.degree(v)).chain(g.neighbors(v).iter().map(|&u| u as u64))
        }));
        let train = digest(d.train_vertices.iter().map(|&v| v as u64));
        seen.push((name, divisor, [graph, train]));
    }
    let pr = spec_by_name("PR").unwrap().instantiate(1000, 3);
    let pr_features = digest(pr.features.to_vec().iter().map(|x| x.to_bits() as u64));
    assert_eq!(seen, pinned, "graph / training-id digests moved");
    assert_eq!(pr_features, 0xfbb69356d3960eb0, "PR's feature values moved");
}

/// The serving config lattice (ROADMAP 2(b)): fixed-seed draws over every
/// serving feature at golden scale (PR/500 on two NVLink cliques
/// of two GPUs). The run checker (`legion_serve::invariants`) runs inside
/// every run; on top of it each draw asserts that
///
/// * same-seed replay is byte-identical, per-server snapshots included;
/// * degenerate settings equal off: a DRAM budget that holds the whole
///   feature table is the store off, and a one-server fleet's member is
///   `serve()`;
/// * a feature's metric families are registered exactly when it is on.
///
/// No `validate` relates these axes to one another, so every drawn
/// combination is legal.
mod config_lattice {
    use super::assert_same;
    use legion_fleet::scenarios::{
        churn, clique_machine, fleet, golden, golden_dataset, oversub_drift, router_qos,
    };
    use legion_fleet::{serve_fleet, FleetConfig};
    use legion_graph::dataset::Dataset;
    use legion_hw::UplinkConfig;
    use legion_serve::{
        serve, ArrivalProcess, ClassConfig, MutationSource, PolicyKind, ServeConfig,
    };

    /// Lattice points drawn per run of the test.
    const DRAWS: usize = 96;

    /// The axes and how many values each takes, in `Draw` field order.
    /// The last three (the fleet fabric) exist only for fleets of two or
    /// more servers (`servers` > 1).
    const AXES: [(&str, u64); 11] = [
        ("policy", 3),
        ("residency", 2),
        ("classes", 3),
        ("store", 3),
        ("churn", 2),
        ("drift", 2),
        ("overload", 2),
        ("servers", 4),
        ("uplink", 2),
        ("coalesce", 2),
        ("resize", 2),
    ];
    /// Where `servers` sits in [`AXES`].
    const SERVERS: usize = 7;

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

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Classes {
        Single,
        Fifo3,
        Qos3,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Store {
        Off,
        Oversubscribed,
        HoldsTable,
    }

    /// One lattice point.
    #[derive(Debug, Clone, Copy)]
    struct Draw {
        policy: PolicyKind,
        residency: bool,
        classes: Classes,
        store: Store,
        churn: bool,
        drift: bool,
        overload: bool,
        /// 0 serves one machine through `serve`; otherwise `serve_fleet`
        /// over this many servers.
        servers: usize,
        uplink: bool,
        coalesce: bool,
        resize: bool,
    }

    impl Draw {
        /// The lattice point `pick` names, one value index per axis.
        fn new(pick: [u64; 11]) -> Self {
            let on = |axis: usize| pick[axis] == 1;
            let policy = [PolicyKind::StaticHot, PolicyKind::Fifo, PolicyKind::Replan];
            let classes = [Classes::Single, Classes::Fifo3, Classes::Qos3];
            let store = [Store::Off, Store::Oversubscribed, Store::HoldsTable];
            Draw {
                policy: policy[pick[0] as usize],
                residency: on(1),
                classes: classes[pick[2] as usize],
                store: store[pick[3] as usize],
                churn: on(4),
                drift: on(5),
                overload: on(6),
                servers: pick[SERVERS] as usize,
                uplink: on(8),
                coalesce: on(9),
                resize: on(10),
            }
        }

        /// The catalogue's oversubscribed-drift corner,
        /// `oversub_drift(golden(policy))`, with each axis applied. The
        /// values the catalogue does not name are the lattice's own:
        /// drift off, the store off or holding the whole table, the
        /// 32-deep overload queue and the per-server offered rates.
        fn config(&self, table_bytes: u64) -> ServeConfig {
            let mut cfg = oversub_drift(golden(self.policy));
            if self.overload {
                cfg.queue_capacity = 32;
            }
            if !self.drift {
                cfg.drift_period = 0;
            }
            cfg.store.dram_budget_bytes = match self.store {
                Store::Off => None,
                Store::Oversubscribed => cfg.store.dram_budget_bytes,
                Store::HoldsTable => Some(table_bytes),
            };
            if self.churn {
                cfg.mutations = Some(MutationSource::Generate(churn()));
            }
            // About a quarter of, and three times, the ~4 M req/s one
            // machine of this fixture serves, per server.
            let per_server = if self.overload { 1.2e7 } else { 1.0e6 };
            cfg.arrival = ArrivalProcess::Poisson {
                rate: per_server * self.servers.max(1) as f64,
            };
            let routed = router_qos(cfg.clone());
            if self.residency {
                cfg.router = routed.router;
            }
            if self.classes != Classes::Single {
                cfg.classes = ClassConfig {
                    qos: self.classes == Classes::Qos3,
                    ..routed.classes
                };
            }
            cfg
        }

        fn fleet(&self) -> FleetConfig {
            FleetConfig {
                uplink: self.uplink.then(UplinkConfig::default),
                coalesce: self.coalesce,
                resize_on_drift: self.resize,
                ..fleet(self.servers)
            }
        }

        /// Metric-name fragments, each with whether this draw's features
        /// must register it: a family is registered exactly when its
        /// feature is on.
        fn families(&self) -> [(&'static str, bool); 15] {
            let (oversubscribed, fleet) = (self.store == Store::Oversubscribed, self.servers > 0);
            [
                ("serve.store.", oversubscribed),
                ("store.nvme.", oversubscribed),
                ("graph.mut.", self.churn),
                ("serve.invalidate.", self.churn),
                ("fleet.mut.", self.churn && fleet),
                (".mut_owned", self.churn && fleet),
                ("serve.remote.", self.servers > 1),
                ("coalesced_msgs", self.coalesce),
                ("dedup_hits", self.coalesce),
                ("fleet.uplink.stretch", self.uplink),
                ("fleet.resize.", self.resize),
                ("serve.replan.", self.policy == PolicyKind::Replan),
                ("serve.route.", self.residency),
                ("serve.class", self.classes != Classes::Single),
                ("serve.phase", self.drift),
            ]
        }
    }

    /// One run of `cfg` deployed as `draw` says: the requests it shed,
    /// and the canonical text of every snapshot it produced (the fleet's
    /// first, then each member's).
    fn run(d: &Dataset, draw: &Draw, cfg: &ServeConfig) -> (u64, Vec<String>) {
        let spec = clique_machine();
        if draw.servers == 0 {
            let r = serve(&d.graph, &d.features, &spec.build(), cfg);
            return (r.shed, vec![r.metrics.to_text()]);
        }
        let r = serve_fleet(&d.graph, &d.features, &spec, cfg, &draw.fleet());
        let members = r.per_server.iter().map(|s| s.metrics.to_text());
        let snapshots = std::iter::once(r.metrics.to_text()).chain(members);
        (r.shed, snapshots.collect())
    }

    #[test]
    fn fixed_seed_draws_replay_degenerate_to_off_and_register_only_what_is_on() {
        let d = golden_dataset();
        let table_bytes = d.graph.num_vertices() as u64 * d.features.row_bytes();
        let mut next = lcg(26);
        let mut draw_pick = || {
            let mut pick = AXES.map(|(_, values)| next() % values);
            if pick[SERVERS] < 2 {
                pick[SERVERS + 1..].fill(0);
            }
            pick
        };
        let picks: Vec<[u64; 11]> = (0..DRAWS).map(|_| draw_pick()).collect();
        let draws: Vec<Draw> = picks.iter().copied().map(Draw::new).collect();
        for draw in &draws {
            let cfg = draw.config(table_bytes);
            let (shed, snaps) = run(&d, draw, &cfg);
            assert_eq!(shed > 0, draw.overload, "{draw:?}: only overload sheds");
            let replay = run(&d, draw, &cfg).1;
            assert_same(
                &replay,
                &snaps,
                &format!("{draw:?}: same-seed replay differs"),
            );
            if draw.store == Store::HoldsTable {
                let off = Draw {
                    store: Store::Off,
                    ..*draw
                };
                assert_same(
                    &run(&d, &off, &off.config(table_bytes)).1,
                    &snaps,
                    &format!("{draw:?}: a DRAM budget that holds the table must be the store off"),
                );
            }
            if draw.servers == 1 {
                let solo = Draw {
                    servers: 0,
                    ..*draw
                };
                assert_same(
                    &run(&d, &solo, &cfg).1,
                    &snaps[1..],
                    &format!("{draw:?}: a one-server fleet's member must be serve()"),
                );
            }
            for (family, on) in draw.families() {
                let registered = snaps.iter().any(|s| s.contains(family));
                assert_eq!(registered, on, "{draw:?}: is `{family}` registered?");
            }
        }
        // Coverage: every axis value (fabric values only where a fabric
        // exists), and the feature pairs ROADMAP 2(b) names.
        for (axis, (name, values)) in AXES.into_iter().enumerate() {
            let has_axis = |p: &&[u64; 11]| axis <= SERVERS || p[SERVERS] > 1;
            let seen: Vec<u64> = picks.iter().filter(has_axis).map(|p| p[axis]).collect();
            assert!(
                (0..values).all(|v| seen.contains(&v)),
                "a {name} never drawn"
            );
        }
        type Pair = (&'static str, fn(&Draw) -> bool);
        let pairs: [Pair; 3] = [
            ("store x churn", |d| {
                d.store == Store::Oversubscribed && d.churn
            }),
            ("coalesce x replan", |d| {
                d.coalesce && d.policy == PolicyKind::Replan
            }),
            ("resize x churn", |d| d.resize && d.churn),
        ];
        for (pair, drawn) in pairs {
            assert!(draws.iter().any(drawn), "never drew {pair}");
        }
    }
}
