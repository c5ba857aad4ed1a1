//! Hash partitioning.
//!
//! The paper's §4.1 S3 slices a clique's training vertices "randomly and
//! averagely" among its GPUs; the baselines split their training sets with
//! [`hash_split`], and Quiver-style baselines also hash features across
//! clique members. Legion's own S3 deals by degree instead (see
//! [`hierarchical`](crate::hierarchical)).

use legion_graph::{CsrGraph, VertexId};

use crate::Partitioner;

/// Stateless multiplicative-hash partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

/// Hashes a vertex id to a part in `0..k` using the splitmix64 finalizer,
/// which mixes well even for strided vertex-id sequences (plain
/// multiplicative hashing aliases badly when ids share a stride).
///
/// # Panics
///
/// Panics if `k == 0`.
#[inline]
pub fn hash_part(v: VertexId, k: usize) -> u32 {
    hash_part_salted(v, k, 0)
}

/// Like [`hash_part`] but with a `salt`, so nested hash splits (e.g.
/// hashing into cliques and then into GPUs within a clique) stay
/// statistically independent.
///
/// # Panics
///
/// Panics if `k == 0`.
#[inline]
pub fn hash_part_salted(v: VertexId, k: usize, salt: u64) -> u32 {
    assert!(k > 0, "cannot hash into zero parts");
    let mut h = (v as u64) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % k as u64) as u32
}

impl Partitioner for HashPartitioner {
    fn partition(&self, g: &CsrGraph, k: usize) -> Vec<u32> {
        (0..g.num_vertices() as VertexId)
            .map(|v| hash_part(v, k))
            .collect()
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Splits an explicit vertex list into `k` tablets by hash — the paper's
/// S3 on a vertex set, kept by the baselines. Uses a salted hash so the
/// split is independent of any outer hash partitioning.
pub fn hash_split(vertices: &[VertexId], k: usize) -> Vec<Vec<VertexId>> {
    let mut tablets = vec![Vec::new(); k];
    for &v in vertices {
        tablets[hash_part_salted(v, k, 1) as usize].push(v);
    }
    tablets
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::GraphBuilder;

    #[test]
    fn partition_is_valid_and_balanced() {
        let g = GraphBuilder::new(10_000).build();
        let a = HashPartitioner.partition(&g, 4);
        assert_eq!(a.len(), 10_000);
        let mut counts = [0usize; 4];
        for &p in &a {
            assert!(p < 4);
            counts[p as usize] += 1;
        }
        for &c in &counts {
            // Within 10% of perfectly balanced.
            assert!((c as f64 - 2500.0).abs() < 250.0, "count {c}");
        }
    }

    #[test]
    fn hash_split_partitions_the_list() {
        let verts: Vec<VertexId> = (0..1000).collect();
        let tablets = hash_split(&verts, 3);
        assert_eq!(tablets.len(), 3);
        let total: usize = tablets.iter().map(|t| t.len()).sum();
        assert_eq!(total, 1000);
        // Deterministic: same input, same split.
        assert_eq!(tablets, hash_split(&verts, 3));
    }

    #[test]
    fn single_part_takes_everything() {
        let verts: Vec<VertexId> = (0..17).collect();
        let tablets = hash_split(&verts, 1);
        assert_eq!(tablets[0].len(), 17);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn zero_parts_panics() {
        let _ = hash_part(3, 0);
    }
}
