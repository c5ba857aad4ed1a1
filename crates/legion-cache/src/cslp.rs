//! Algorithm 1 — Complete Sharing with Local Preference (CSLP).
//!
//! CSLP turns one hotness matrix into (a) the clique-level accumulated
//! hotness vector `A`, (b) the clique-level descending hotness order `Q`,
//! and (c) each vertex's owner, the GPU with the highest local hotness.
//! It walks the matrix's support ([`HotnessMatrix::columns`]): a vertex
//! off it has `A = 0`, owner 0, and a place in `Q`'s zero tail, in id
//! order.
//! The paper's per-GPU priority queue `G[g]` is the subsequence of `Q`
//! that `g` owns; the fill ([`crate::fill`]) walks `Q` itself and reads
//! the owner per row. The feature and topology matrices are processed
//! independently (the paper runs the loop once for `Q_T` and once for
//! `Q_F`).
//!
//! The paper sorts both orders by accumulated hotness. A cache plan
//! spends bytes, though, and topology rows differ in size (Equation 3: a
//! row costs `4·deg + 8` B), so a kilobyte hub row saves no more
//! transactions per access than a small one. When the matrix carries its
//! rows' sizes ([`HotnessMatrix::vertex_bytes`]; pre-sampling gives `H_T`
//! its Equation 3 sizes) `Q_T` is ranked by hotness per byte instead: the
//! greedy knapsack order, whose prefix within any budget holds at least
//! the accumulated hotness of any set that fits it, minus one row's.
//! Feature rows are all one size, so `Q_F` stays in hotness order.

use legion_graph::VertexId;

use crate::hotness::HotnessMatrix;

/// CSLP output for one hotness matrix. The default is the empty order,
/// which places no row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CslpOutput {
    /// Accumulated vertex-wise hotness (`A_T` / `A_F`), indexed by vertex.
    pub accumulated: Vec<u64>,
    /// Clique-level order (`Q_T` / `Q_F`): vertex ids sorted by descending
    /// accumulated hotness, or hotness per byte when the matrix carries
    /// row sizes (ties: ascending vertex id, for determinism).
    pub clique_order: Vec<VertexId>,
    /// The GPU slot each vertex is assigned to, indexed by vertex. With
    /// `clique_order` it encodes the per-GPU orders `G_T` / `G_F`.
    pub owner: Vec<u32>,
}

/// Runs CSLP on one hotness matrix.
pub fn cslp(h: &HotnessMatrix) -> CslpOutput {
    let n = h.num_vertices();
    // Steps 1 and 3's argmax in one walk over the support, a column at a
    // time: accumulate the vertex's hotness and keep the GPU with the
    // highest local hotness. The strict `>` leaves a tie on the lower
    // GPU, and a vertex off the support on GPU 0.
    let mut accumulated = vec![0; n];
    let mut owner = vec![0; n];
    for (v, column) in h.columns() {
        let (mut sum, mut top, mut at) = (0, 0, 0);
        for (g, &x) in column.iter().enumerate() {
            sum += x;
            at = if x > top { g } else { at };
            top = top.max(x);
        }
        accumulated[v as usize] = sum;
        owner[v as usize] = at as u32;
    }
    // Step 2: sort vertices by descending hotness (per byte).
    let clique_order = match h.vertex_bytes() {
        Some(bytes) => density_order(h.support(), &accumulated, bytes),
        None => hotness_order(&accumulated),
    };
    CslpOutput {
        clique_order,
        accumulated,
        owner,
    }
}

/// Every vertex `0..hotness.len()` by descending `hotness[v] / bytes`,
/// where `support` lists the vertices of non-zero hotness and `bytes`
/// their sizes in turn. Ratios are compared exactly (`h_a·b_b` against
/// `h_b·b_a` in `u128`), ties toward the smaller id. Zero-hotness
/// vertices all tie at 0, so they follow in id order, as in
/// [`hotness_order`].
fn density_order(support: &[VertexId], hotness: &[u64], bytes: &[u64]) -> Vec<VertexId> {
    assert_eq!(support.len(), bytes.len(), "one size per support vertex");
    let mut ranked: Vec<(u64, u64, VertexId)> = support
        .iter()
        .zip(bytes)
        .map(|(&v, &b)| (hotness[v as usize], b, v))
        .collect();
    ranked.sort_unstable_by(|&(h_a, b_a, a), &(h_b, b_b, b)| {
        (u128::from(h_b) * u128::from(b_a))
            .cmp(&(u128::from(h_a) * u128::from(b_b)))
            .then(a.cmp(&b))
    });
    let (mut order, listed, _) = listing(hotness);
    assert_eq!(listed, ranked.len(), "the support is the non-zero hotness");
    for (at, (_, _, v)) in order.iter_mut().zip(ranked) {
        *at = v;
    }
    order
}

/// Sorts `ids` by descending `hotness[id]`, ties toward the smaller id
/// (a total order on distinct ids, so the result is deterministic).
pub fn sort_by_hotness(ids: &mut [VertexId], hotness: &[u64]) {
    ids.sort_unstable_by(|&a, &b| {
        hotness[b as usize]
            .cmp(&hotness[a as usize])
            .then(a.cmp(&b))
    });
}

/// Every vertex `0..hotness.len()`, those of non-zero hotness first and
/// the zero tail after them, each part in id order; with the length of
/// the first part and the largest hotness. One pass with no branch on
/// the data: every id is written at both ends of the one buffer, and each
/// end's cursor moves past its own ids only. The tail fills from the
/// back, so it is reversed once at the end.
fn listing(hotness: &[u64]) -> (Vec<VertexId>, usize, u64) {
    let n = hotness.len();
    let mut order: Vec<VertexId> = vec![0; n];
    let (mut support, mut tail, mut max) = (0, 0, 0);
    for (v, &h) in hotness.iter().enumerate() {
        // `support + tail = v`: the front cursor never passes the back.
        order[support] = v as VertexId;
        order[n - 1 - tail] = v as VertexId;
        support += usize::from(h > 0);
        tail += usize::from(h == 0);
        max = max.max(h);
    }
    order[support..].reverse();
    (order, support, max)
}

/// Bits of the key [`hotness_order`] places per counting pass.
const DIGIT_BITS: u32 = 11;
const DIGITS: usize = 1 << DIGIT_BITS;

/// Every vertex `0..hotness.len()` in [`sort_by_hotness`] order, in time
/// linear in `|V|`. The non-zero support is `listing`'s head, in id
/// order, and is counting-sorted, least significant digit first, on the
/// key `max − hotness`: each pass is stable, so equal hotness keeps the
/// id order. The largest key sets the number of passes — one while
/// `max < 2^11`, at most six for any `u64` — and zero-hotness vertices
/// all tie, so they stay in the listing's tail, in id order.
pub fn hotness_order(hotness: &[u64]) -> Vec<VertexId> {
    let (mut order, support, max) = listing(hotness);
    let mut spare: Vec<VertexId> = vec![0; support];
    let largest_key = max.saturating_sub(1);
    let (mut shift, mut in_spare) = (0, false);
    while shift < u64::BITS && largest_key >> shift != 0 {
        let key = |v: VertexId| (max - hotness[v as usize]) >> shift;
        if in_spare {
            counting_pass(&spare, &mut order[..support], key);
        } else {
            counting_pass(&order[..support], &mut spare, key);
        }
        in_spare = !in_spare;
        shift += DIGIT_BITS;
    }
    // An odd number of passes leaves the sorted head in `spare`.
    if in_spare {
        order[..support].copy_from_slice(&spare);
    }
    order
}

/// One stable counting pass of `from` into `to` on the low [`DIGIT_BITS`]
/// of `key`. Taking the two buffers as arguments tells the compiler the
/// scatter's stores never reach the reads: the same loop over two
/// swapped `&mut` locals ran at half the speed on `train_pa`'s `A_F`.
fn counting_pass(from: &[VertexId], to: &mut [VertexId], key: impl Fn(VertexId) -> u64) {
    let digit = |v: VertexId| key(v) as usize % DIGITS;
    let mut next = [0usize; DIGITS];
    for &v in from {
        next[digit(v)] += 1;
    }
    let mut at = 0;
    for slot in &mut next {
        at += std::mem::replace(slot, at);
    }
    for &v in from {
        let d = digit(v);
        to[next[d]] = v;
        next[d] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use legion_graph::{topology_bytes_for_degree, CsrGraph, GraphBuilder};

    fn example() -> HotnessMatrix {
        // 2 GPUs, 4 vertices.
        //        v0  v1  v2  v3
        // gpu0 [  5,  0,  2,  1 ]
        // gpu1 [  1,  7,  2,  0 ]
        HotnessMatrix::from_rows(&[&[5, 0, 2, 1], &[1, 7, 2, 0]])
    }

    #[test]
    fn accumulates_and_sorts() {
        let out = cslp(&example());
        assert_eq!(out.accumulated, vec![6, 7, 4, 1]);
        assert_eq!(out.clique_order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn assigns_to_locally_hottest_gpu() {
        let out = cslp(&example());
        // v0 hotter on gpu0; v1 on gpu1; v2 tie -> gpu0; v3 -> gpu0.
        assert_eq!(out.owner, vec![0, 1, 0, 0]);
    }

    #[test]
    fn per_gpu_queues_partition_all_vertices() {
        let out = cslp(&example());
        assert_eq!(out.owner.len(), 4);
        assert!(out.owner.iter().all(|&g| g < 2));
    }

    #[test]
    fn per_gpu_order_respects_clique_priority() {
        // `G[g]` is the clique order filtered to the rows `g` owns.
        let out = cslp(&example());
        let queue = |g: u32| -> Vec<VertexId> {
            let owned = |v: &&VertexId| out.owner[**v as usize] == g;
            out.clique_order.iter().filter(owned).copied().collect()
        };
        assert_eq!(queue(0), vec![0, 2, 3]);
        assert_eq!(queue(1), vec![1]);
    }

    #[test]
    fn single_gpu_gets_everything_in_order() {
        let h = HotnessMatrix::from_rows(&[&[5, 0, 10]]);
        let out = cslp(&h);
        assert_eq!(out.clique_order, vec![2, 0, 1]);
        assert_eq!(out.owner, vec![0, 0, 0]);
    }

    #[test]
    fn hotness_order_sorts_desc_with_id_ties() {
        assert_eq!(hotness_order(&[5, 9, 9, 1]), vec![1, 2, 0, 3]);
        // Zero-hotness vertices skip the sort and follow in id order.
        assert_eq!(hotness_order(&[0, 3, 0, 3, 7]), vec![4, 1, 3, 0, 2]);
        // No support, one value, and keys needing two and six digits.
        assert!(hotness_order(&[]).is_empty());
        assert_eq!(hotness_order(&[0, 0, 0]), vec![0, 1, 2]);
        assert_eq!(hotness_order(&[4, 4, 4]), vec![0, 1, 2]);
        assert_eq!(hotness_order(&[1, 5000, 2048, 5000]), vec![1, 3, 2, 0]);
        let wide = [1, u64::MAX, 0, 1 << 40, u64::MAX, 1];
        assert_eq!(hotness_order(&wide), vec![1, 4, 3, 0, 5, 2]);
    }

    /// One GPU's hotness over a graph whose vertex 0 is a hub of degree
    /// 30 (128 B of topology) and whose others have degree 1 (12 B), with
    /// the rows' Equation 3 sizes attached when `sized`.
    fn hub_and_small_rows(hotness: &[u64], sized: bool) -> (CsrGraph, CslpOutput) {
        let n = hotness.len().max(31);
        let mut b = GraphBuilder::new(n);
        for v in 1..=30 {
            b.push_edge(0, v);
        }
        for v in 1..n as VertexId {
            b.push_edge(v, (v % (n as VertexId - 1)) + 1);
        }
        let g = b.build();
        let mut row = hotness.to_vec();
        row.resize(n, 0);
        let mut h = HotnessMatrix::from_rows(&[&row]);
        if sized {
            h = h.with_vertex_bytes(|v| topology_bytes_for_degree(g.degree(v)));
        }
        (g, cslp(&h))
    }

    #[test]
    fn per_byte_order_caches_small_rows_before_a_hub() {
        // The hub's 8 accesses against four small rows of 2 each (the
        // same total) and a fifth small row of 1. A 128-byte budget
        // holds the hub alone or all five small rows.
        let hotness = [8, 2, 2, 2, 2, 1];
        let (g, by_hotness) = hub_and_small_rows(&hotness, false);
        let (_, by_byte) = hub_and_small_rows(&hotness, true);
        assert_eq!(g.degree(0), 30);
        assert!((1..=5).all(|v| g.degree(v) == 1));
        assert_eq!(by_hotness.clique_order[..2], [0, 1]);
        assert_eq!(by_byte.clique_order[..6], [1, 2, 3, 4, 5, 0]);
        let n_t = |out: &CslpOutput| {
            let q = &out.clique_order;
            let model = CostModel::new(&g, q, &out.accumulated, q, &out.accumulated, 1700, 4, 64);
            model.evaluate(128, 1.0)
        };
        let (hub, small) = (n_t(&by_hotness), n_t(&by_byte));
        assert_eq!(hub.topo_cached_vertices, 1, "hotness order caches the hub");
        assert_eq!(
            small.topo_cached_vertices, 5,
            "per-byte order caches the rows"
        );
        // N_T = N_TSUM · (1 − R_T): R_T is 8/17 against 9/17.
        assert_eq!(hub.n_t, 1700.0 * (1.0 - 8.0 / 17.0));
        assert_eq!(small.n_t, 1700.0 * (1.0 - 9.0 / 17.0));
        assert!(small.n_t < hub.n_t);
    }

    #[test]
    fn per_byte_ties_go_to_the_lower_id() {
        // Vertex 0 (128 B) and vertex 3 (12 B) tie at 1/4 per byte,
        // 6 and 2 at 1/6; 1, 4 and 5 are cold, 7 carries 1/12.
        let (_, out) = hub_and_small_rows(&[32, 0, 2, 3, 0, 0, 2, 1], true);
        assert_eq!(out.clique_order[..5], [0, 3, 2, 6, 7]);
        // The zero tail follows in id order.
        assert_eq!(out.clique_order[5..8], [1, 4, 5]);
        assert!(out.clique_order[8..].windows(2).all(|w| w[0] < w[1]));
        // The order is a function of the inputs alone.
        let (_, again) = hub_and_small_rows(&[32, 0, 2, 3, 0, 0, 2, 1], true);
        assert_eq!(out, again);
    }

    #[test]
    fn per_byte_order_compares_exactly() {
        // 2^53 + 1 and 2^53 round to one `f64`: a float ratio would tie
        // them and put vertex 0 first.
        let big = 1 << 53;
        let pair = [0, 1];
        assert_eq!(density_order(&pair, &[big, big + 1], &[12, 12]), vec![1, 0]);
        // Cross products past `u64::MAX` still compare.
        let top = u64::MAX;
        assert_eq!(
            density_order(&pair, &[top, top - 1], &[1000, 999]),
            vec![1, 0]
        );
        assert_eq!(
            density_order(&pair, &[top - 1, top], &[999, 1000]),
            vec![0, 1]
        );
    }

    #[test]
    fn all_zero_hotness_is_deterministic() {
        let h = HotnessMatrix::from_rows(&[&[0, 0, 0], &[0, 0, 0]]);
        let out = cslp(&h);
        assert_eq!(out.clique_order, vec![0, 1, 2]);
        assert!(out.owner.iter().all(|&o| o == 0));
    }

    #[test]
    fn empty_matrix() {
        let h = HotnessMatrix::from_rows(&[&[], &[]]);
        let out = cslp(&h);
        assert!(out.clique_order.is_empty());
        assert!(out.accumulated.is_empty());
    }
}
