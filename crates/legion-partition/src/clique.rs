//! NVLink clique detection (§4.1 S1).
//!
//! "With the topology matrix `M_T` of the server, Legion employs a
//! MaxCliqueDyn algorithm to identify the NVLink clique sets in `M_T`, and
//! outputs the number of NVLink cliques `K_c` and the number of GPUs in
//! each clique `K_g`."
//!
//! The solver is a faithful MaxCliqueDyn: branch-and-bound with greedy
//! graph colouring as the bound and dynamic vertex ordering on the top
//! levels of the search tree. [`detect_cliques`] then covers the GPU set
//! with cliques by repeatedly extracting the maximum clique — which on the
//! Table 1 topologies yields exactly the paper's `K_c × K_g` structure.

use legion_hw::{GpuId, NvLinkTopology};

/// Dense symmetric adjacency used by the solver.
#[derive(Debug, Clone)]
struct Adj {
    n: usize,
    m: Vec<bool>,
}

impl Adj {
    fn from_topology(t: &NvLinkTopology) -> Self {
        Self {
            n: t.num_gpus(),
            m: t.matrix(),
        }
    }

    #[inline]
    fn connected(&self, a: usize, b: usize) -> bool {
        self.m[a * self.n + b]
    }

    fn degree_within(&self, v: usize, set: &[usize]) -> usize {
        set.iter().filter(|&&u| self.connected(v, u)).count()
    }
}

/// Finds a maximum clique among `candidates` using MaxCliqueDyn-style
/// branch and bound with colour bounds.
fn max_clique_among(adj: &Adj, candidates: &[usize]) -> Vec<usize> {
    if candidates.is_empty() {
        return Vec::new();
    }
    // Initial order: descending degree within the candidate set, the
    // MaxCliqueDyn "dynamic" initial ordering.
    let mut order: Vec<usize> = candidates.to_vec();
    order.sort_by_key(|&v| std::cmp::Reverse(adj.degree_within(v, candidates)));

    let mut best: Vec<usize> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    expand(adj, &mut order.clone(), &mut current, &mut best);
    best.sort_unstable();
    best
}

/// Greedy colouring of `candidates`; returns colour number (1-based) per
/// candidate, with candidates re-ordered by ascending colour. The colour
/// count of a vertex bounds the largest clique containing it.
fn colour_sort(adj: &Adj, candidates: &mut Vec<usize>) -> Vec<usize> {
    let mut colour_classes: Vec<Vec<usize>> = Vec::new();
    for &v in candidates.iter() {
        let mut placed = false;
        for class in colour_classes.iter_mut() {
            if class.iter().all(|&u| !adj.connected(u, v)) {
                class.push(v);
                placed = true;
                break;
            }
        }
        if !placed {
            colour_classes.push(vec![v]);
        }
    }
    let mut reordered = Vec::with_capacity(candidates.len());
    let mut colours = Vec::with_capacity(candidates.len());
    for (ci, class) in colour_classes.iter().enumerate() {
        for &v in class {
            reordered.push(v);
            colours.push(ci + 1);
        }
    }
    *candidates = reordered;
    colours
}

fn expand(adj: &Adj, candidates: &mut Vec<usize>, current: &mut Vec<usize>, best: &mut Vec<usize>) {
    let colours = colour_sort(adj, candidates);
    // Iterate candidates from highest colour down (end of the vector).
    let mut cands = candidates.clone();
    let mut cols = colours;
    while let Some(v) = cands.pop() {
        let c = cols.pop().expect("colour per candidate");
        if current.len() + c <= best.len() {
            // Colour bound: no extension through v can beat `best`.
            return;
        }
        current.push(v);
        let mut next: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&u| adj.connected(u, v))
            .collect();
        if next.is_empty() {
            if current.len() > best.len() {
                *best = current.clone();
            }
        } else {
            expand(adj, &mut next, current, best);
        }
        current.pop();
    }
}

/// Finds one maximum clique of the whole topology.
#[cfg(test)]
fn max_clique(topology: &NvLinkTopology) -> Vec<GpuId> {
    let adj = Adj::from_topology(topology);
    let all: Vec<usize> = (0..adj.n).collect();
    max_clique_among(&adj, &all)
}

/// Covers all GPUs with disjoint cliques by repeatedly extracting a
/// maximum clique from the remaining GPUs (§4.1 S1). Returns the cliques
/// sorted by their smallest member, so clique ids are stable.
///
/// A GPU with no NVLink neighbours forms a singleton clique, which makes
/// the downstream pipeline treat a no-NVLink server as `K_c = num_gpus`,
/// `K_g = 1` — exactly the degenerate case the paper's Figure 9 calls
/// "noNV".
pub fn detect_cliques(topology: &NvLinkTopology) -> Vec<Vec<GpuId>> {
    let adj = Adj::from_topology(topology);
    let mut remaining: Vec<usize> = (0..adj.n).collect();
    let mut cliques: Vec<Vec<GpuId>> = Vec::new();
    while !remaining.is_empty() {
        let clique = max_clique_among(&adj, &remaining);
        debug_assert!(!clique.is_empty(), "max clique of a non-empty set");
        remaining.retain(|v| !clique.contains(v));
        cliques.push(clique);
    }
    cliques.sort_by_key(|c| c[0]);
    cliques
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_clique_of_full_topology_is_everything() {
        let t = NvLinkTopology::fully_connected(8);
        assert_eq!(max_clique(&t), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn siton_detects_four_pairs() {
        let t = NvLinkTopology::disjoint_cliques(8, 2);
        let cliques = detect_cliques(&t);
        assert_eq!(cliques.len(), 4);
        assert_eq!(
            cliques,
            vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]
        );
    }

    #[test]
    fn dgx_v100_detects_two_quads() {
        let t = NvLinkTopology::disjoint_cliques(8, 4);
        assert_eq!(detect_cliques(&t), vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    }

    #[test]
    fn dgx_a100_detects_single_clique() {
        let t = NvLinkTopology::fully_connected(8);
        assert_eq!(detect_cliques(&t), vec![(0..8).collect::<Vec<_>>()]);
    }

    #[test]
    fn no_nvlink_gives_singletons() {
        let t = NvLinkTopology::none(4);
        let cliques = detect_cliques(&t);
        assert_eq!(cliques, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn irregular_topology_covered_greedily() {
        // Triangle {0,1,2} plus pendant pair {3,4}: cover = triangle + pair.
        let n = 5;
        let mut adj = vec![false; n * n];
        let mut link = |a: usize, b: usize| {
            adj[a * n + b] = true;
            adj[b * n + a] = true;
        };
        link(0, 1);
        link(1, 2);
        link(0, 2);
        link(3, 4);
        let t = NvLinkTopology::from_matrix(n, adj);
        let cliques = detect_cliques(&t);
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn max_clique_finds_planted_clique() {
        // Plant a 4-clique {1, 3, 5, 7} in an otherwise sparse topology.
        let n = 9;
        let mut adj = vec![false; n * n];
        let mut link = |a: usize, b: usize| {
            adj[a * n + b] = true;
            adj[b * n + a] = true;
        };
        for &a in &[1usize, 3, 5, 7] {
            for &b in &[1usize, 3, 5, 7] {
                if a < b {
                    link(a, b);
                }
            }
        }
        link(0, 2);
        link(2, 4);
        let t = NvLinkTopology::from_matrix(n, adj);
        assert_eq!(max_clique(&t), vec![1, 3, 5, 7]);
    }

    #[test]
    fn empty_topology() {
        let t = NvLinkTopology::none(0);
        assert!(detect_cliques(&t).is_empty());
        assert!(max_clique(&t).is_empty());
    }
}
