//! Algorithm 1 — Complete Sharing with Local Preference (CSLP).
//!
//! CSLP turns one hotness matrix into (a) the clique-level accumulated
//! hotness vector `A`, (b) the clique-level descending hotness order `Q`,
//! and (c) each vertex's owner, the GPU with the highest local hotness.
//! The paper's per-GPU priority queue `G[g]` is the subsequence of `Q`
//! that `g` owns; the fill ([`crate::fill`]) walks `Q` itself and reads
//! the owner per row. The feature and topology matrices are processed
//! independently (the paper runs the loop once for `Q_T` and once for
//! `Q_F`).

use legion_graph::VertexId;

use crate::hotness::HotnessMatrix;

/// CSLP output for one hotness matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CslpOutput {
    /// Accumulated vertex-wise hotness (`A_T` / `A_F`), indexed by vertex.
    pub accumulated: Vec<u64>,
    /// Clique-level order (`Q_T` / `Q_F`): vertex ids sorted by descending
    /// accumulated hotness (ties: ascending vertex id, for determinism).
    pub clique_order: Vec<VertexId>,
    /// The GPU slot each vertex is assigned to, indexed by vertex. With
    /// `clique_order` it encodes the per-GPU orders `G_T` / `G_F`.
    pub owner: Vec<u32>,
}

/// Runs CSLP on one hotness matrix.
pub fn cslp(h: &HotnessMatrix) -> CslpOutput {
    let n = h.num_vertices();
    let kg = h.num_gpus();
    // Steps 1 and 3's argmax in one sweep over the K_g rows, a vertex at
    // a time: accumulate its hotness and keep the GPU with the highest
    // local hotness. The strict `>` leaves a tie on the lower GPU.
    let rows: Vec<&[u64]> = (0..kg).map(|g| h.row(g)).collect();
    let mut accumulated = Vec::with_capacity(n);
    let mut owner = Vec::with_capacity(n);
    for v in 0..n {
        let (mut sum, mut top, mut at) = (0, 0, 0);
        for (g, row) in rows.iter().enumerate() {
            let x = row[v];
            sum += x;
            at = if x > top { g } else { at };
            top = top.max(x);
        }
        accumulated.push(sum);
        owner.push(at as u32);
    }
    // Step 2: sort vertices by descending hotness.
    CslpOutput {
        clique_order: hotness_order(&accumulated),
        accumulated,
        owner,
    }
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

/// Bits of the key [`hotness_order`] places per counting pass.
const DIGIT_BITS: u32 = 11;
const DIGITS: usize = 1 << DIGIT_BITS;

/// Every vertex `0..hotness.len()` in [`sort_by_hotness`] order, in time
/// linear in `|V|`. The non-zero support is listed in id order and
/// counting-sorted, least significant digit first, on the key
/// `max − hotness`: each pass is stable, so equal hotness keeps the id
/// order. The largest key sets the number of passes — one while
/// `max < 2^11`, at most six for any `u64` — and zero-hotness vertices
/// all tie, so they follow in id order.
pub fn hotness_order(hotness: &[u64]) -> Vec<VertexId> {
    let n = hotness.len();
    // One listing pass with no branch on the data: every id is written
    // to both lists, and each list's cursor moves past its own ids only.
    let mut order: Vec<VertexId> = vec![0; n];
    let mut zeros: Vec<VertexId> = vec![0; n];
    let (mut support, mut tail, mut max) = (0, 0, 0);
    for (v, &h) in hotness.iter().enumerate() {
        order[support] = v as VertexId;
        zeros[tail] = v as VertexId;
        support += usize::from(h > 0);
        tail += usize::from(h == 0);
        max = max.max(h);
    }
    order.truncate(support);
    // Room for the zero tail whichever buffer ends up holding the order.
    let mut spare: Vec<VertexId> = Vec::with_capacity(n);
    spare.resize(support, 0);
    let largest_key = max.saturating_sub(1);
    let mut shift = 0;
    while shift < u64::BITS && largest_key >> shift != 0 {
        let digit = |v: VertexId| ((max - hotness[v as usize]) >> shift) as usize % DIGITS;
        let mut next = [0usize; DIGITS];
        for &v in &order {
            next[digit(v)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            at += std::mem::replace(slot, at);
        }
        for &v in &order {
            let d = digit(v);
            spare[next[d]] = v;
            next[d] += 1;
        }
        std::mem::swap(&mut order, &mut spare);
        shift += DIGIT_BITS;
    }
    order.extend_from_slice(&zeros[..tail]);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> HotnessMatrix {
        // 2 GPUs, 4 vertices.
        //        v0  v1  v2  v3
        // gpu0 [  5,  0,  2,  1 ]
        // gpu1 [  1,  7,  2,  0 ]
        let mut h = HotnessMatrix::new(2, 4);
        h.add(0, 0, 5);
        h.add(0, 2, 2);
        h.add(0, 3, 1);
        h.add(1, 0, 1);
        h.add(1, 1, 7);
        h.add(1, 2, 2);
        h
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
        let mut h = HotnessMatrix::new(1, 3);
        h.add(0, 2, 10);
        h.add(0, 0, 5);
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

    #[test]
    fn all_zero_hotness_is_deterministic() {
        let h = HotnessMatrix::new(2, 3);
        let out = cslp(&h);
        assert_eq!(out.clique_order, vec![0, 1, 2]);
        assert!(out.owner.iter().all(|&o| o == 0));
    }

    #[test]
    fn empty_matrix() {
        let h = HotnessMatrix::new(2, 0);
        let out = cslp(&h);
        assert!(out.clique_order.is_empty());
        assert!(out.accumulated.is_empty());
    }
}
