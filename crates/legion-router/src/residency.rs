//! Per-route-group residency index.
//!
//! The dispatcher needs one cheap question answered per candidate
//! clique: *how much of this request's neighborhood does your cache
//! hold?* [`ResidencyIndex`] answers it with one bitset per route group
//! (one group per NVLink clique): bit `v` of group `g` is set iff
//! vertex `v`'s feature row is resident somewhere in clique `g`'s
//! pooled cache. The index is rebuilt from the cache's exported
//! resident-vertex list — at layout build time for static policies, and
//! on every plan commit for the `Replan` policy (the engine watches the
//! `PlanBuffer` version and calls [`ResidencyIndex::refresh_group`]).
//!
//! Memory cost is `num_groups * num_vertices / 8` bytes — for the
//! billion-scale regime the paper targets this would be sharded per
//! partition, but the simulated graphs here are small enough that the
//! flat bitset is the simplest deterministic structure.

use legion_graph::VertexId;

/// One bitset of cached vertices per route group (NVLink clique).
#[derive(Debug, Clone)]
pub struct ResidencyIndex {
    num_vertices: usize,
    words_per_group: usize,
    bits: Vec<u64>,
    num_groups: usize,
}

impl ResidencyIndex {
    /// An empty index over `num_vertices` vertices and `num_groups`
    /// route groups.
    pub fn new(num_vertices: usize, num_groups: usize) -> Self {
        let words_per_group = num_vertices.div_ceil(64);
        ResidencyIndex {
            num_vertices,
            words_per_group,
            bits: vec![0u64; words_per_group * num_groups],
            num_groups,
        }
    }

    /// Number of route groups.
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Replace group `g`'s resident set with `vertices` (duplicates set
    /// the same bit).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range or any vertex id is `>=
    /// num_vertices`.
    pub fn refresh_group(&mut self, g: usize, vertices: &[VertexId]) {
        assert!(g < self.num_groups, "route group {g} out of range");
        let base = g * self.words_per_group;
        for w in &mut self.bits[base..base + self.words_per_group] {
            *w = 0;
        }
        for &v in vertices {
            let v = v as usize;
            assert!(v < self.num_vertices, "vertex {v} out of range");
            self.bits[base + v / 64] |= 1u64 << (v % 64);
        }
    }

    /// Clears vertex `v`'s residency bit in group `g`, returning whether
    /// it was set. The fast invalidation path for streaming mutations: a
    /// mutated vertex's cached row is stale, so routing must stop
    /// counting it as resident until the next full
    /// [`Self::refresh_group`].
    pub fn clear(&mut self, g: usize, v: VertexId) -> bool {
        let v = v as usize;
        if g >= self.num_groups || v >= self.num_vertices {
            return false;
        }
        let word = &mut self.bits[g * self.words_per_group + v / 64];
        let mask = 1u64 << (v % 64);
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        true
    }

    /// Whether vertex `v` is resident in group `g`'s cache.
    #[inline]
    pub fn contains(&self, g: usize, v: VertexId) -> bool {
        let v = v as usize;
        if v >= self.num_vertices {
            return false;
        }
        let word = self.bits[g * self.words_per_group + v / 64];
        word & (1u64 << (v % 64)) != 0
    }

    /// Number of distinct vertices resident in group `g`.
    #[cfg(test)]
    pub fn resident_count(&self, g: usize) -> usize {
        let base = g * self.words_per_group;
        let words = &self.bits[base..base + self.words_per_group];
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// How many of `vertices` are resident in group `g` (each slice
    /// position counted, including duplicates — callers pass a small
    /// fixed-size probe, not a set).
    pub fn coverage(&self, g: usize, vertices: &[VertexId]) -> usize {
        vertices.iter().filter(|&&v| self.contains(g, v)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_sets_and_replaces_bits() {
        let mut idx = ResidencyIndex::new(200, 2);
        idx.refresh_group(0, &[0, 63, 64, 199]);
        assert!(idx.contains(0, 0));
        assert!(idx.contains(0, 63));
        assert!(idx.contains(0, 64));
        assert!(idx.contains(0, 199));
        assert!(!idx.contains(0, 1));
        assert!(!idx.contains(1, 0));
        assert_eq!(idx.resident_count(0), 4);
        assert_eq!(idx.resident_count(1), 0);

        // A refresh replaces, not merges.
        idx.refresh_group(0, &[5]);
        assert!(!idx.contains(0, 0));
        assert!(idx.contains(0, 5));
        assert_eq!(idx.resident_count(0), 1);
    }

    #[test]
    fn duplicates_count_once_in_resident_count() {
        let mut idx = ResidencyIndex::new(16, 1);
        idx.refresh_group(0, &[3, 3, 3, 7]);
        assert_eq!(idx.resident_count(0), 2);
    }

    #[test]
    fn coverage_counts_slice_positions() {
        let mut idx = ResidencyIndex::new(32, 2);
        idx.refresh_group(1, &[1, 2, 3]);
        assert_eq!(idx.coverage(1, &[1, 2, 9]), 2);
        assert_eq!(idx.coverage(1, &[2, 2]), 2);
        assert_eq!(idx.coverage(0, &[1, 2, 3]), 0);
    }

    #[test]
    fn out_of_range_vertex_is_not_resident() {
        let idx = ResidencyIndex::new(8, 1);
        assert!(!idx.contains(0, 1000));
    }
}
