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
//! (footnote 2), so every topology read crosses PCIe as
//! [`topology_read_tx`] transactions; their sum is the paper's `N_TSUM`.
//!
//! [`presample`] keeps the shuffle and the rule but returns the
//! *expected* value of each tally over the neighbour draws instead of
//! one random draw of them, as Data Tiering computes a vertex's expected
//! access count from the graph and the fan-outs. One draw leaves
//! thousands of rows tied at a low count on each clique's cache boundary
//! and under-counts the feature rows an epoch reads; the expectation
//! ranks them by how often training will read them. Each batch is walked
//! hop by hop without drawing a neighbour:
//!
//! * **Inner hops** (all but the last). A frontier vertex `x` in the
//!   batch with probability `q` adds `q·min(f, deg x)` to `H_T[x]` and
//!   `q·(1 + min(f, deg x))` to `N_TSUM`. Its neighbour `w` joins the
//!   next frontier with probability `1 − (1 − q_w)·Π_x (1 − q_x·min(f,
//!   deg x)/deg x)`: the batch's union, the draws of distinct rows taken
//!   as independent.
//! * **Last hop.** A vertex's expected last-hop expansions are summed
//!   over its slot's `B` batches; the sum is also `inner(w)`, the batches
//!   that hold `w` before the leaves. One sweep over the rows adds their
//!   topology terms and spreads them to the neighbours as the leaf mass
//!   `Λ(w)`, and `H_F[w] = inner + (B − inner)·(1 − e^{−Λ/B})`: the leaf
//!   draws fall evenly over the batches that do not already hold `w`.
//!
//! `H_T` carries each row's Equation 3 size
//! ([`HotnessMatrix::with_vertex_bytes`]), so CSLP ranks `Q_T` by
//! expected hotness per cached byte: a topology cache plan spends bytes,
//! and an expectation, unlike one draw, is steady enough to divide.
//!
//! **Storage.** Pre-sampling holds what a slot reaches. The `f64` state
//! of the inner hops (`q`, `miss`, `H_T`, expansions) lives in one record
//! per vertex the slot's inner hops reach (15–23 K of `train_pa`'s 222 K),
//! found through one `|V|` `u32` index that the last hop walks in id
//! order; only the `f32` leaf mass stays dense, since the last hop reaches
//! about 79 % of the vertices. `H_F` is written into a dense `K_g × |V|`
//! table compacted in place ([`HotnessMatrix::from_dense`]); `H_T`, a
//! quarter of `|V|`, as one id-ordered list a slot, merged at its size.
//! Both supports come out in id order. Heap above the inputs on
//! `train_pa`: 13.7 MiB at most, against LDG's 13.1 (was 22.2).
//!
//! No counter is charged.

use rand::rngs::StdRng;
use rand::SeedableRng;

use legion_cache::HotnessMatrix;
use legion_graph::{topology_bytes_for_degree, CsrGraph, FeatureTable, VertexId};
use legion_hw::{GpuId, MultiGpuServer};

use crate::access::topology_read_tx;
use crate::batch::BatchGenerator;
use crate::sampler::KHopSampler;

#[cfg(test)]
mod oracle;

/// Fixed-point unit of every tally in a [`PresampleOutput`]: one expected
/// edge draw, batch appearance or PCIe transaction is `HOTNESS_UNIT`
/// counts.
pub const HOTNESS_UNIT: u64 = 1 << 16;

/// Pre-sampling output for one NVLink clique: the expected tallies of
/// the pre-sampling epochs, in [`HOTNESS_UNIT`]s.
#[derive(Debug, Clone)]
pub struct PresampleOutput {
    /// Topology hotness matrix `H_T` (rows = clique slots): edges drawn
    /// from each row. It carries each vertex's Equation 3 row size, so
    /// CSLP ranks `Q_T` by hotness per byte.
    pub h_t: HotnessMatrix,
    /// Feature hotness matrix `H_F`: batches each vertex appears in.
    pub h_f: HotnessMatrix,
    /// `N_TSUM`: sampling PCIe transactions of the clique's GPUs.
    pub n_tsum: u64,
}

/// Salt that gives pre-sampling an RNG stream of its own. Workers seed
/// GPU `g` with `seed ^ g·c` ([`worker_rng`]); unsalted, both formulas
/// reduce to `seed` at GPU 0, whose training epoch would then redraw the
/// very shuffle its cache was built from.
const PRESAMPLE_STREAM: u64 = 0x7072_6573_616d_706c; // "presampl"

/// The RNG pre-sampling draws GPU `gpu`'s shuffle from.
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
/// * `epochs` — pre-sampling epochs (GNNLab and Legion use one). Each
///   epoch expects the same tallies, so they scale linearly: `epochs`
///   changes no ranking and no plan.
///
/// Slot `i` shuffles `tablets[i]` with [`presample_rng`] into one
/// epoch's batches. `features` and `server` are not read: the
/// expectation needs only the graph and charges nothing.
#[allow(clippy::too_many_arguments)]
pub fn presample(
    graph: &CsrGraph,
    _features: &FeatureTable,
    _server: &MultiGpuServer,
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
    let (n, kg) = (graph.num_vertices(), clique_gpus.len());
    let (&last, inner) = sampler.fanouts.split_last().expect("at least one hop");
    // `H_F` reaches most vertices: a dense `K_g × |V|` table, compacted in
    // place at the end. `H_T` reaches few: each slot's `(v, H_T[v])` list.
    let mut h_f = vec![0; kg * n];
    let mut h_t = Vec::with_capacity(kg);
    let mut walk = Expectation::new(n);
    for (slot, (&gpu, tablet)) in clique_gpus.iter().zip(tablets).enumerate() {
        let mut rng = presample_rng(seed, gpu);
        let batches = BatchGenerator::new(tablet.clone(), batch_size).epoch(&mut rng);
        for batch in &batches {
            walk.inner_hops(graph, batch, inner);
        }
        let mut drawn = Vec::with_capacity(walk.reached.len());
        walk.last_hop(graph, last, batches.len(), epochs as u64, |v, t, f| {
            if t > 0 {
                drawn.push((v, t));
            }
            h_f[v as usize * kg + slot] = f;
        });
        h_t.push(drawn);
    }
    let Expectation { index, n_tsum, .. } = walk;
    let h_f = HotnessMatrix::from_dense(kg, h_f);
    PresampleOutput {
        h_t: merge_slots(kg, index, h_t)
            .with_vertex_bytes(|v| topology_bytes_for_degree(graph.degree(v))),
        h_f,
        n_tsum: counts(n_tsum, epochs as u64),
    }
}

/// The matrix of `K_g` slots' id-ordered `(v, H[slot][v])` lists, built
/// on `place`, a `|V|` table of [`ABSENT`]: its support in id order, at
/// its size. The lists go before the matrix is returned.
fn merge_slots(kg: usize, mut place: Vec<u32>, slots: Vec<Vec<(VertexId, u64)>>) -> HotnessMatrix {
    for &(v, _) in slots.iter().flatten() {
        place[v as usize] = 0;
    }
    let mut support = Vec::with_capacity(place.iter().filter(|&&at| at != ABSENT).count());
    for (v, at) in place.iter_mut().enumerate() {
        if *at != ABSENT {
            *at = support.len() as u32;
            support.push(v as VertexId);
        }
    }
    let mut values = vec![0; support.len() * kg];
    for (slot, list) in slots.iter().enumerate() {
        for &(v, x) in list {
            values[place[v as usize] as usize * kg + slot] = x;
        }
    }
    HotnessMatrix::from_support(kg, place.len(), support, values)
}

/// `1 − e^{−x}` for `x ≥ 0`: the share of batches a leaf mass of `x` a
/// batch reaches. Most leaves carry little mass, and below `x = 1/8` the
/// Taylor polynomial to `x⁴` is within `2·10⁻⁶` of it, relative, at a
/// fraction of the cost of `exp`.
fn saturation(x: f64) -> f64 {
    if x < 0.125 {
        x * (1.0 - x / 2.0 * (1.0 - x / 3.0 * (1.0 - x / 4.0)))
    } else {
        -(-x).exp_m1()
    }
}

/// `x` expected accesses per epoch over `epochs`, in [`HOTNESS_UNIT`]s.
fn counts(x: f64, epochs: u64) -> u64 {
    (x * HOTNESS_UNIT as f64 + 0.5) as u64 * epochs
}

/// An [`Expectation::index`] entry of a vertex the slot has not reached.
const ABSENT: u32 = u32::MAX;

/// The tallies of one vertex a slot's inner hops reach, and its state in
/// the current batch.
struct Reached {
    /// Probability of being in the batch's current frontier.
    q: f64,
    /// `Π (1 − q_x·min(f, deg x)/deg x)` over the hop's frontier rows
    /// holding the vertex; 1 where no row does.
    miss: f64,
    /// `H_T` of the slot so far.
    drawn: f64,
    /// Expected last-hop expansions, summed over the slot's batches:
    /// also `inner`, the batches that hold it before the leaves.
    expansions: f64,
}

/// The expectation's working memory, reused across a clique's slots.
/// Between slots `index` is all [`ABSENT`], `reached` empty and `leaves`
/// zero.
struct Expectation {
    /// Each vertex's place in `reached`, or [`ABSENT`].
    index: Vec<u32>,
    /// One record per vertex the slot's inner hops reach, in the order
    /// they first reach it.
    reached: Vec<Reached>,
    /// The leaf mass `Λ` of the slot's last hop, dense: the last hop
    /// reaches most of the graph. `f32` so that the sweep's scattered
    /// adds touch half the cache lines.
    leaves: Vec<f32>,
    /// `N_TSUM` of the clique's slots so far, in expected transactions.
    n_tsum: f64,
    /// The batch's frontier in discovery order, with each vertex's place
    /// in `reached`; each hop's holds the last's.
    frontier: Vec<(VertexId, u32)>,
    /// The vertices whose `miss` the current hop moved.
    touched: Vec<(VertexId, u32)>,
}

impl Expectation {
    fn new(num_vertices: usize) -> Self {
        Self {
            index: vec![ABSENT; num_vertices],
            reached: Vec::new(),
            leaves: vec![0.0; num_vertices],
            n_tsum: 0.0,
            frontier: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Capacities of `index`, `leaves` and `reached`.
    #[cfg(test)]
    fn capacities(&self) -> [usize; 3] {
        [
            self.index.capacity(),
            self.leaves.capacity(),
            self.reached.capacity(),
        ]
    }

    /// `v`'s place in `reached`, given a clear record if it has none.
    fn reach(index: &mut [u32], reached: &mut Vec<Reached>, v: VertexId) -> u32 {
        let at = &mut index[v as usize];
        if *at == ABSENT {
            *at = reached.len() as u32;
            reached.push(Reached {
                q: 0.0,
                miss: 1.0,
                drawn: 0.0,
                expansions: 0.0,
            });
        }
        *at
    }

    /// Walks one batch's `seeds` through the inner hops' `fanouts` and
    /// adds each last-hop frontier vertex's probability to its
    /// expansions; leaves the frontier scratch clear.
    fn inner_hops(&mut self, graph: &CsrGraph, seeds: &[VertexId], fanouts: &[usize]) {
        let Self {
            index,
            reached,
            n_tsum,
            frontier,
            touched,
            ..
        } = self;
        for &s in seeds {
            let at = Self::reach(index, reached, s);
            reached[at as usize].q = 1.0;
            frontier.push((s, at));
        }
        for &fanout in fanouts {
            for &(x, at) in frontier.iter() {
                let row = graph.neighbors(x);
                let tx = topology_read_tx(row.len(), fanout) as f64;
                let record = &mut reached[at as usize];
                let q_x = record.q;
                *n_tsum += q_x * tx;
                record.drawn += q_x * (tx - 1.0);
                let keep = 1.0 - q_x * (tx - 1.0) / row.len().max(1) as f64;
                if keep == 1.0 {
                    continue;
                }
                for &w in row {
                    let at = Self::reach(index, reached, w);
                    let m = &mut reached[at as usize].miss;
                    // A touched product is below 1: its factors are.
                    if *m == 1.0 {
                        touched.push((w, at));
                    }
                    *m *= keep;
                }
            }
            for &(w, at) in touched.iter() {
                let Reached { q, miss, .. } = &mut reached[at as usize];
                if *q == 0.0 {
                    frontier.push((w, at));
                }
                *q = 1.0 - (1.0 - *q) * std::mem::replace(miss, 1.0);
            }
            touched.clear();
        }
        for &(_, at) in frontier.iter() {
            let record = &mut reached[at as usize];
            record.expansions += std::mem::take(&mut record.q);
        }
        frontier.clear();
    }

    /// The slot's last hop over its `batches` batches: one sweep over
    /// the expanded rows, in id order, adds their topology terms and
    /// spreads their draws to the leaves, then `write(v, H_T, H_F)` takes
    /// the tallies of every vertex a batch reaches, in id order, and the
    /// scratch is cleared.
    fn last_hop(
        &mut self,
        graph: &CsrGraph,
        fanout: usize,
        batches: usize,
        epochs: u64,
        mut write: impl FnMut(VertexId, u64, u64),
    ) {
        let leaves = &mut self.leaves;
        for (x, &at) in self.index.iter().enumerate() {
            if at == ABSENT {
                continue;
            }
            let record = &mut self.reached[at as usize];
            let e = record.expansions;
            if e == 0.0 {
                continue;
            }
            let row = graph.neighbors(x as VertexId);
            let tx = topology_read_tx(row.len(), fanout) as f64;
            record.drawn += e * (tx - 1.0);
            self.n_tsum += e * tx;
            let spread = (e * (tx - 1.0) / row.len().max(1) as f64) as f32;
            for &w in row {
                leaves[w as usize] += spread;
            }
        }
        let b = batches as f64;
        for (v, (at, leaf)) in self.index.iter_mut().zip(leaves).enumerate() {
            let (drawn, inner) = match std::mem::replace(at, ABSENT) {
                ABSENT => (0.0, 0.0),
                at => {
                    let record = &self.reached[at as usize];
                    (record.drawn, record.expansions)
                }
            };
            // A vertex no batch reaches keeps its zeros (and `b` may be 0).
            if inner == 0.0 && *leaf == 0.0 {
                continue;
            }
            let leaf = f64::from(std::mem::take(leaf));
            let t = counts(drawn, epochs);
            let f = counts(inner + (b - inner) * saturation(leaf / b), epochs);
            write(v as VertexId, t, f);
        }
        self.reached.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessEngine, CacheLayout, TopologyPlacement};
    use crate::sampler::SampleScratch;
    use legion_graph::generate::ChungLuConfig;
    use legion_hw::pcm::TrafficKind;
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

    fn run(fanouts: &[usize], batch_size: usize, epochs: usize, seed: u64) -> PresampleOutput {
        let (g, f, tablets) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let sampler = KHopSampler::new(fanouts.to_vec());
        presample(
            &g,
            &f,
            &server,
            &[0, 1],
            &tablets,
            &sampler,
            batch_size,
            epochs,
            seed,
        )
    }

    /// A tally's sum over both slots, in expected accesses.
    fn total(h: &HotnessMatrix) -> f64 {
        h.column_wise_sum().iter().sum::<u64>() as f64 / HOTNESS_UNIT as f64
    }

    /// The mean `(N_TSUM, ΣH_T, ΣH_F)` of `runs` sampled epochs over
    /// `presample`'s batches: each batch drawn by
    /// [`KHopSampler::sample_batch_with`], `H_T` from its `on_row`
    /// reports, `H_F` from its union and `N_TSUM` from the PCM.
    fn sampled_mean(
        fanouts: &[usize],
        batch_size: usize,
        seed: u64,
        runs: usize,
    ) -> (f64, f64, f64) {
        let (g, f, tablets) = fixture();
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let layout = CacheLayout::none(2);
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(fanouts.to_vec());
        let mut scratch = SampleScratch::new();
        let (mut h_t, mut h_f) = (0u64, 0u64);
        for (slot, tablet) in tablets.iter().enumerate() {
            let batches = BatchGenerator::new(tablet.clone(), batch_size)
                .epoch(&mut presample_rng(seed, slot));
            let mut rng = StdRng::seed_from_u64(seed ^ slot as u64);
            for _ in 0..runs {
                for batch in &batches {
                    let mut on_row = |_: VertexId, drawn: u64| h_t += drawn;
                    let sample = sampler.sample_batch_with(
                        &engine,
                        slot,
                        batch,
                        &mut rng,
                        Some(&mut on_row),
                        &mut scratch,
                    );
                    h_f += sample.all_vertices.len() as u64;
                }
            }
        }
        let n_tsum: u64 = (0..2)
            .map(|g| server.pcm().gpu_kind(g, TrafficKind::Topology))
            .sum();
        let mean = |x: u64| x as f64 / runs as f64;
        (mean(n_tsum), mean(h_t), mean(h_f))
    }

    #[test]
    fn hotness_rows_match_tablets() {
        let (_, _, tablets) = fixture();
        let out = run(&[5, 5], 32, 1, 9);
        // Every seed is in its own batch on its own GPU's H_F row.
        for (slot, tablet) in tablets.iter().enumerate() {
            let row = out.h_f.row(slot);
            for &v in tablet {
                assert!(
                    row[v as usize] >= HOTNESS_UNIT,
                    "seed {v} missing on slot {slot}"
                );
            }
        }
        assert!(out.n_tsum > 0);
    }

    #[test]
    fn topology_hotness_tracks_sampled_sources() {
        let out = run(&[5, 5], 32, 1, 9);
        // Every drawn edge is one 4-byte PCIe transaction, and every
        // topology read one more for the row offsets. So N_TSUM must be
        // strictly larger than the H_T total but by less than 2x.
        let ht_total = total(&out.h_t);
        let n_tsum = out.n_tsum as f64 / HOTNESS_UNIT as f64;
        assert!(ht_total > 0.0);
        assert!(n_tsum > ht_total);
        assert!(n_tsum < 2.0 * ht_total + 1.0);
    }

    /// The expectation against the mean of 400 sampled epochs over the
    /// same batches, with two hops and three. `N_TSUM` and `ΣH_T` sum
    /// per-expansion terms, so only the union's independence assumption
    /// and sampling noise separate them. `ΣH_F` reads high: the last
    /// hop spreads a leaf's draws over every batch, also the ones that
    /// already hold it, and on this 400-vertex graph a batch reaches much
    /// of the graph in two hops.
    #[test]
    fn expected_tallies_are_the_mean_of_sampled_epochs() {
        let (g, _, _) = fixture();
        for fanouts in [vec![5, 3], vec![4, 3, 2]] {
            assert!(
                (0..400).any(|v| g.degree(v) as usize > 4 * fanouts[0]),
                "fixture needs hubs above the fan-out"
            );
            let out = run(&fanouts, 16, 1, 9);
            let (n_tsum, h_t, h_f) = sampled_mean(&fanouts, 16, 9, 400);
            let error = |expected: f64, mean: f64| (expected - mean) / mean;
            let e_n = error(out.n_tsum as f64 / HOTNESS_UNIT as f64, n_tsum);
            let e_t = error(total(&out.h_t), h_t);
            let e_f = error(total(&out.h_f), h_f);
            assert!(e_n.abs() <= 0.01, "{fanouts:?}: N_TSUM off by {e_n:+.4}");
            assert!(e_t.abs() <= 0.01, "{fanouts:?}: ΣH_T off by {e_t:+.4}");
            assert!(
                (0.0..=0.08).contains(&e_f),
                "{fanouts:?}: ΣH_F off by {e_f:+.4}"
            );
        }
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
        assert_eq!(
            server.telemetry().snapshot().counter_sum("pcm."),
            0,
            "PCM must be clean for training"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(&[4], 16, 1, 5);
        let b = run(&[4], 16, 1, 5);
        assert_eq!(a.h_t, b.h_t);
        assert_eq!(a.h_f, b.h_f);
        assert_eq!(a.n_tsum, b.n_tsum);
    }

    #[test]
    fn more_epochs_more_hotness() {
        // Every epoch expects the same tallies: `epochs` scales them
        // exactly.
        let one = run(&[4, 3], 16, 1, 5);
        let three = run(&[4, 3], 16, 3, 5);
        assert_eq!(three.n_tsum, 3 * one.n_tsum);
        for (a, b) in [(&one.h_t, &three.h_t), (&one.h_f, &three.h_f)] {
            for slot in 0..2 {
                let tripled: Vec<u64> = a.row(slot).iter().map(|&h| 3 * h).collect();
                assert_eq!(b.row(slot), tripled);
            }
        }
        assert!(one.n_tsum > 0);
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
        assert!(out.h_f.column_wise_sum().iter().all(|&h| h == 0));
    }

    /// A 2,000-vertex graph with hubs above every fan-out and a fifth of
    /// its vertices in training.
    fn oracle_fixture() -> (CsrGraph, Vec<VertexId>) {
        let mut rng = StdRng::seed_from_u64(77);
        let g = ChungLuConfig {
            num_vertices: 2000,
            num_edges: 16_000,
            exponent: 0.9,
            shuffle_ids: true,
            ..Default::default()
        }
        .generate(&mut rng);
        let train = (0..2000).filter(|_| rng.gen::<f64>() < 0.2).collect();
        (g, train)
    }

    /// `new` equals the oracle's `old` bit for bit: `N_TSUM`, every
    /// slot's `H_T` and `H_F` row, both support sets and each `H_T`
    /// support vertex's row size.
    fn assert_bit_equal(new: &PresampleOutput, old: &PresampleOutput, kg: usize, case: &str) {
        assert_eq!(new.n_tsum, old.n_tsum, "{case}: N_TSUM");
        let sized = |h: &HotnessMatrix| {
            let mut pairs: Vec<(VertexId, u64)> = match h.vertex_bytes() {
                Some(bytes) => h
                    .support()
                    .iter()
                    .copied()
                    .zip(bytes.iter().copied())
                    .collect(),
                None => h.support().iter().map(|&v| (v, 0)).collect(),
            };
            pairs.sort_unstable();
            pairs
        };
        for (name, a, b) in [("H_T", &new.h_t, &old.h_t), ("H_F", &new.h_f, &old.h_f)] {
            for slot in 0..kg {
                assert!(a.row(slot) == b.row(slot), "{case}: {name} row {slot}");
            }
            assert_eq!(sized(a), sized(b), "{case}: {name} support and sizes");
        }
        assert!(new.h_t.vertex_bytes().is_some(), "{case}: H_T is sized");
    }

    /// The compact walk against the `|V|`-table oracle: fan-outs `[5, 3]`
    /// and `[4, 3, 2]`, cliques of one to four slots, tablets dealt from
    /// training or left empty or holding one seed, one epoch and three.
    #[test]
    fn tallies_equal_the_dense_oracle_bit_for_bit() {
        let (g, train) = oracle_fixture();
        let f = FeatureTable::zeros(2000, 8);
        let server = ServerSpec::custom(4, 1 << 30, 4).build();
        for fanouts in [vec![5, 3], vec![4, 3, 2]] {
            let sampler = KHopSampler::new(fanouts.clone());
            for kg in 1..=4 {
                let dealt: Vec<Vec<VertexId>> = (0..kg)
                    .map(|slot| train.iter().copied().skip(slot).step_by(kg).collect())
                    .collect();
                let mut sparse = dealt.clone();
                sparse[0].clear();
                sparse[kg - 1].truncate(1);
                for (shape, tablets) in [("dealt", &dealt), ("empty and one seed", &sparse)] {
                    let gpus: Vec<GpuId> = (0..kg).collect();
                    for epochs in [1, 3] {
                        let case = format!("{fanouts:?}, K_g {kg}, {shape}, {epochs} epochs");
                        let new =
                            presample(&g, &f, &server, &gpus, tablets, &sampler, 16, epochs, 3);
                        let old = oracle::presample(&g, &gpus, tablets, &sampler, 16, epochs, 3);
                        assert_bit_equal(&new, &old, kg, &case);
                    }
                }
            }
        }
    }

    /// Pre-sampling's working set is what a slot reaches: the two
    /// `|V|`-sized tables are a `u32` index and the `f32` leaves, and the
    /// per-vertex records hold only the vertices a slot's inner hops
    /// reach — here each seed and its neighbours — and are cleared
    /// between slots.
    #[test]
    fn the_working_set_is_what_a_slot_reaches() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 5000;
        let g = ChungLuConfig {
            num_vertices: n,
            num_edges: 15_000,
            exponent: 0.9,
            shuffle_ids: true,
            ..Default::default()
        }
        .generate(&mut rng);
        let mut walk = Expectation::new(n);
        let mut most = 0;
        for slot in 0..3 {
            let tablet: Vec<VertexId> = (0..24).map(|_| rng.gen_range(0..n as VertexId)).collect();
            let batches = BatchGenerator::new(tablet, 8).epoch(&mut presample_rng(1, slot));
            let mut reached = std::collections::BTreeSet::new();
            for batch in &batches {
                walk.inner_hops(&g, batch, &[5]);
                for &s in batch {
                    reached.insert(s);
                    reached.extend(g.neighbors(s).iter().copied());
                }
            }
            assert_eq!(walk.reached.len(), reached.len(), "slot {slot}");
            most = most.max(reached.len());
            walk.last_hop(&g, 3, batches.len(), 1, |_, _, _| {});
            assert!(walk.reached.is_empty(), "slot {slot} left records");
        }
        assert!(3 * most < n, "the slots reach a small part of the graph");
        let [index, leaves, records] = walk.capacities();
        assert_eq!((index, leaves), (n, n));
        assert!(
            records < 2 * most,
            "{records} records held for at most {most} reached"
        );
    }
}
