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
//! **Storage.** The expectation's `f64` tables are `|V|`-sized and
//! reused across a clique's slots; with the supports they fill they are
//! the set-up's peak. Each slot's tallies are written straight from them
//! into the two matrices' supports: only the vertices a batch reaches,
//! `K_g` counts each, in the order the slots first reach them. On
//! `train_pa`, `H_T`'s support is about a quarter of `|V|` a clique.
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
    let n = graph.num_vertices();
    let (&last, inner) = sampler.fanouts.split_last().expect("at least one hop");
    let mut h_t = SupportWriter::new(clique_gpus.len(), n);
    let mut h_f = SupportWriter::new(clique_gpus.len(), n);
    let mut walk = Expectation::new(n);
    for (slot, (&gpu, tablet)) in clique_gpus.iter().zip(tablets).enumerate() {
        let mut rng = presample_rng(seed, gpu);
        let batches = BatchGenerator::new(tablet.clone(), batch_size).epoch(&mut rng);
        for batch in &batches {
            walk.inner_hops(graph, batch, inner);
        }
        walk.last_hop(graph, last, batches.len(), epochs as u64, |v, t, f| {
            h_t.put(slot, v, t);
            h_f.put(slot, v, f);
        });
    }
    PresampleOutput {
        h_t: h_t
            .finish()
            .with_vertex_bytes(|v| topology_bytes_for_degree(graph.degree(v))),
        h_f: h_f.finish(),
        n_tsum: counts(walk.n_tsum, epochs as u64),
    }
}

/// One tally matrix as pre-sampling writes it, a slot at a time: the
/// support in the order the slots first reach it, `K_g` values a vertex.
struct SupportWriter {
    num_gpus: usize,
    /// Each vertex's place in `support`, or [`SupportWriter::ABSENT`].
    place: Vec<u32>,
    support: Vec<VertexId>,
    values: Vec<u64>,
}

impl SupportWriter {
    const ABSENT: u32 = u32::MAX;

    fn new(num_gpus: usize, num_vertices: usize) -> Self {
        Self {
            num_gpus,
            place: vec![Self::ABSENT; num_vertices],
            support: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Writes `H[slot][v] = x`; a zero keeps `v` off the support.
    fn put(&mut self, slot: usize, v: VertexId, x: u64) {
        if x == 0 {
            return;
        }
        let mut at = self.place[v as usize];
        if at == Self::ABSENT {
            at = self.support.len() as u32;
            self.place[v as usize] = at;
            self.support.push(v);
            self.values.resize(self.values.len() + self.num_gpus, 0);
        }
        self.values[at as usize * self.num_gpus + slot] = x;
    }

    fn finish(self) -> HotnessMatrix {
        let n = self.place.len();
        HotnessMatrix::from_support(self.num_gpus, n, self.support, self.values)
    }
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

/// The expectation's working memory, reused across a clique's slots:
/// one slot's tallies and one batch's frontier, indexed by vertex.
/// Between slots every table holds its clear value.
struct Expectation {
    /// `H_T` of the slot's inner hops.
    h_t: Vec<f64>,
    /// Each vertex's expected last-hop expansions, summed over the
    /// slot's batches: also `inner`, the batches that hold it before the
    /// leaves.
    expansions: Vec<f64>,
    /// The leaf mass `Λ` of the slot's last hop; `f32` so that the
    /// sweep's scattered adds touch half the cache lines.
    leaves: Vec<f32>,
    /// `N_TSUM` of the clique's slots so far, in expected transactions.
    n_tsum: f64,
    /// Each vertex's probability of being in the batch's current
    /// frontier (0 outside it).
    q: Vec<f64>,
    /// `Π (1 − q_x·min(f, deg x)/deg x)` over the hop's frontier rows
    /// holding the vertex; 1 where no row does.
    miss: Vec<f64>,
    /// The batch's frontier in discovery order; each hop's holds the
    /// last's.
    frontier: Vec<VertexId>,
    /// The vertices whose `miss` the current hop moved.
    touched: Vec<VertexId>,
}

impl Expectation {
    fn new(num_vertices: usize) -> Self {
        Self {
            h_t: vec![0.0; num_vertices],
            expansions: vec![0.0; num_vertices],
            leaves: vec![0.0; num_vertices],
            n_tsum: 0.0,
            q: vec![0.0; num_vertices],
            miss: vec![1.0; num_vertices],
            frontier: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Walks one batch's `seeds` through the inner hops' `fanouts` and
    /// adds each last-hop frontier vertex's probability to its
    /// expansions; leaves the frontier scratch clear.
    fn inner_hops(&mut self, graph: &CsrGraph, seeds: &[VertexId], fanouts: &[usize]) {
        let Self {
            h_t,
            expansions,
            n_tsum,
            q,
            miss,
            frontier,
            touched,
            ..
        } = self;
        for &s in seeds {
            q[s as usize] = 1.0;
        }
        frontier.extend_from_slice(seeds);
        for &fanout in fanouts {
            for &x in frontier.iter() {
                let row = graph.neighbors(x);
                let tx = topology_read_tx(row.len(), fanout) as f64;
                let q_x = q[x as usize];
                *n_tsum += q_x * tx;
                h_t[x as usize] += q_x * (tx - 1.0);
                let keep = 1.0 - q_x * (tx - 1.0) / row.len().max(1) as f64;
                if keep == 1.0 {
                    continue;
                }
                for &w in row {
                    let m = &mut miss[w as usize];
                    // A touched product is below 1: its factors are.
                    if *m == 1.0 {
                        touched.push(w);
                    }
                    *m *= keep;
                }
            }
            for &w in touched.iter() {
                let (q, m) = (&mut q[w as usize], &mut miss[w as usize]);
                if *q == 0.0 {
                    frontier.push(w);
                }
                *q = 1.0 - (1.0 - *q) * std::mem::replace(m, 1.0);
            }
            touched.clear();
        }
        for &x in frontier.iter() {
            expansions[x as usize] += std::mem::take(&mut q[x as usize]);
        }
        frontier.clear();
    }

    /// The slot's last hop over its `batches` batches: one sweep over
    /// the expanded rows adds their topology terms and spreads their
    /// draws to the leaves, then `write(v, H_T, H_F)` takes the tallies
    /// of every vertex a batch reaches, in id order, and the scratch is
    /// cleared.
    fn last_hop(
        &mut self,
        graph: &CsrGraph,
        fanout: usize,
        batches: usize,
        epochs: u64,
        mut write: impl FnMut(VertexId, u64, u64),
    ) {
        let leaves = &mut self.leaves;
        for (x, &e) in self.expansions.iter().enumerate() {
            if e == 0.0 {
                continue;
            }
            let row = graph.neighbors(x as VertexId);
            let tx = topology_read_tx(row.len(), fanout) as f64;
            self.h_t[x] += e * (tx - 1.0);
            self.n_tsum += e * tx;
            let spread = (e * (tx - 1.0) / row.len().max(1) as f64) as f32;
            for &w in row {
                leaves[w as usize] += spread;
            }
        }
        let b = batches as f64;
        let sums = self
            .h_t
            .iter_mut()
            .zip(&mut self.expansions)
            .zip(&mut self.leaves);
        for (v, ((drawn, inner), leaf)) in sums.enumerate() {
            // A vertex no batch reaches keeps its zeros (and `b` may be 0).
            if *inner == 0.0 && *leaf == 0.0 {
                continue;
            }
            let (inner, leaf) = (std::mem::take(inner), f64::from(std::mem::take(leaf)));
            let t = counts(std::mem::take(drawn), epochs);
            let f = counts(inner + (b - inner) * saturation(leaf / b), epochs);
            write(v as VertexId, t, f);
        }
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
}
