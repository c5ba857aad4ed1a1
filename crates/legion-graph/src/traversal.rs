//! Graph traversals used by partitioners and experiment drivers.

use std::collections::VecDeque;

use crate::csr::CsrGraph;
use crate::VertexId;

/// Collects all vertices within `hops` hops of any seed (including seeds).
/// This is the "L-hop neighbor inclusion" PaGraph applies when extending
/// partitions (§3.1), and the source of its cache duplication.
pub fn l_hop_closure(g: &CsrGraph, seeds: &[VertexId], hops: u32) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut level = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for &s in seeds {
        assert!((s as usize) < n, "seed out of range");
        if level[s as usize] == u32::MAX {
            level[s as usize] = 0;
            queue.push_back(s);
        }
    }
    let mut out = Vec::new();
    while let Some(v) = queue.pop_front() {
        let d = level[v as usize];
        out.push(v);
        if d == hops {
            continue;
        }
        for &u in g.neighbors(v) {
            if level[u as usize] == u32::MAX {
                level[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn path4() -> CsrGraph {
        from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn l_hop_closure_bounds_depth() {
        let g = path4();
        assert_eq!(l_hop_closure(&g, &[0], 0), vec![0]);
        assert_eq!(l_hop_closure(&g, &[0], 2), vec![0, 1, 2]);
        assert_eq!(l_hop_closure(&g, &[0], 9), vec![0, 1, 2, 3]);
    }

    #[test]
    fn l_hop_closure_merges_seeds() {
        let g = path4();
        assert_eq!(l_hop_closure(&g, &[0, 3], 1), vec![0, 1, 3]);
    }
}
