//! Pre-sampling as it was before its working set shrank, kept as the
//! oracle the compact walk must equal bit for bit: every tally in a
//! `|V|`-sized `f64` table, and each matrix written through a `|V|`
//! place table, its support in the order the slots first reach it.

use legion_cache::HotnessMatrix;
use legion_graph::{topology_bytes_for_degree, CsrGraph, VertexId};
use legion_hw::GpuId;

use super::{counts, presample_rng, saturation, PresampleOutput};
use crate::access::topology_read_tx;
use crate::batch::BatchGenerator;
use crate::sampler::KHopSampler;

/// [`super::presample`]'s tallies, from the `|V|`-sized tables.
pub(super) fn presample(
    graph: &CsrGraph,
    clique_gpus: &[GpuId],
    tablets: &[Vec<VertexId>],
    sampler: &KHopSampler,
    batch_size: usize,
    epochs: usize,
    seed: u64,
) -> PresampleOutput {
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
