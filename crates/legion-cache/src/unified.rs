//! The unified cache structure (§4.2.1).
//!
//! "The topology cache maintains out-edge neighbor IDs for each selected
//! hot vertex in the format of a compressed sparse row (CSR). As for the
//! feature cache, Legion stores the feature vectors of selected hot
//! vertices in the format of a 2D array... the selected vertices in the
//! topology and feature caches could be different."
//!
//! The simulated GPU memory keeps *residency*, not bytes: every result
//! depends on where a row lives and what its miss costs, never on the
//! values a hit returns, so the base CSR and feature table stay the only
//! copy of the data. [`GpuUnifiedCache`] is one GPU's byte accounting
//! (entry counts and the Equation 3 / Equation 6 totals); [`CliqueCache`]
//! groups the caches of an NVLink clique and resolves lookups to *local
//! hit*, *peer (NVLink) hit* or *miss* — the classification the traffic
//! accounting in `legion-sampling` turns into PCIe/NVLink transactions.
//!
//! Lookups are on the simulator's hottest path (one per simulated vertex
//! read), so the clique owns one dense directory per kind, `dir[v]` = the
//! owner's clique slot: a lookup is one byte load. The directory is the
//! only vertex-indexed table — one byte per vertex per kind whatever the
//! clique size. A timing run's feature extraction asks one batch
//! question instead of one per row: how many of these rows each slot
//! owns, and which ones missed ([`CliqueCache::count_feature_owners`]).

use legion_graph::{feature_bytes_for_dim, topology_bytes_for_degree, VertexId};
use legion_hw::GpuId;

/// Where a cached item was found within a clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// In the requesting GPU's own cache.
    Local,
    /// In an NVLink peer's cache (the returned GPU id).
    Peer(GpuId),
}

/// One GPU's topology + feature cache occupancy. Which vertices it holds
/// is the clique directory's knowledge, not the cache's.
#[derive(Debug, Clone)]
pub struct GpuUnifiedCache {
    feature_dim: usize,
    topo_entries: usize,
    topo_bytes: u64,
    feat_entries: usize,
}

impl GpuUnifiedCache {
    fn new(feature_dim: usize) -> Self {
        Self {
            feature_dim,
            topo_entries: 0,
            topo_bytes: 0,
            feat_entries: 0,
        }
    }

    /// Number of vertices in the topology cache.
    pub fn topology_entries(&self) -> usize {
        self.topo_entries
    }

    /// Number of vertices in the feature cache.
    pub fn feature_entries(&self) -> usize {
        self.feat_entries
    }

    /// Bytes of topology payload cached, per Equation 3 accounting.
    pub fn topology_bytes(&self) -> u64 {
        self.topo_bytes
    }

    /// Bytes of feature payload cached, per Equation 6 accounting.
    pub fn feature_bytes(&self) -> u64 {
        self.feat_entries as u64 * feature_bytes_for_dim(self.feature_dim as u64)
    }
}

/// Directory entry of a vertex the clique does not cache.
const ABSENT: u8 = u8::MAX;
/// Clique slots stay below this so that no owner equals [`ABSENT`].
const MAX_SLOTS: usize = ABSENT as usize;
/// Rows [`CliqueCache::count_feature_owners`] classifies between two
/// drains of its miss buffer.
const MISS_CHUNK: usize = 64;

/// The caches of one NVLink clique behind one vertex→owner directory per
/// kind.
///
/// A vertex is cached at most once per clique and kind: the first
/// insert wins and names the owner; inserting the vertex again, under
/// the same or another slot, is a no-op.
#[derive(Debug, Clone)]
pub struct CliqueCache {
    /// GPU ids of the clique members, in slot order.
    gpus: Vec<GpuId>,
    /// One cache per clique slot.
    caches: Vec<GpuUnifiedCache>,
    /// `topo_dir[v]` = slot owning `v`'s cached adjacency, or [`ABSENT`].
    topo_dir: Vec<u8>,
    /// `feat_dir[v]` = slot owning `v`'s cached features, or [`ABSENT`].
    feat_dir: Vec<u8>,
}

impl CliqueCache {
    /// Empty clique cache for the given GPU members over a graph with
    /// `num_vertices` vertices.
    ///
    /// # Panics
    ///
    /// Panics if the clique is empty or has more than 255 GPUs.
    pub fn new(gpus: Vec<GpuId>, num_vertices: usize, feature_dim: usize) -> Self {
        assert!(!gpus.is_empty(), "clique must have at least one GPU");
        assert!(gpus.len() <= MAX_SLOTS, "clique too large");
        let caches = gpus
            .iter()
            .map(|_| GpuUnifiedCache::new(feature_dim))
            .collect();
        Self {
            gpus,
            caches,
            topo_dir: vec![ABSENT; num_vertices],
            feat_dir: vec![ABSENT; num_vertices],
        }
    }

    /// The clique's GPU ids in slot order.
    pub fn gpus(&self) -> &[GpuId] {
        &self.gpus
    }

    /// Access to a slot's cache.
    pub fn cache(&self, slot: usize) -> &GpuUnifiedCache {
        &self.caches[slot]
    }

    /// Bytes one cached feature row occupies (Equation 6).
    pub(crate) fn feature_row_bytes(&self) -> u64 {
        feature_bytes_for_dim(self.caches[0].feature_dim as u64)
    }

    /// Records `v`'s adjacency row of `degree` edges as resident in
    /// `slot`'s cache. A vertex the clique already caches is left where
    /// it is.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `v` is outside the ranges given at
    /// construction.
    pub fn insert_topology(&mut self, slot: usize, v: VertexId, degree: u64) {
        let cache = &mut self.caches[slot];
        if claim(&mut self.topo_dir, slot, v) {
            cache.topo_entries += 1;
            cache.topo_bytes += topology_bytes_for_degree(degree);
        }
    }

    /// Records `v`'s feature row as resident in `slot`'s cache. A vertex
    /// the clique already caches is left where it is.
    ///
    /// # Panics
    ///
    /// Panics if `slot` or `v` is outside the ranges given at
    /// construction.
    pub fn insert_feature(&mut self, slot: usize, v: VertexId) {
        let cache = &mut self.caches[slot];
        if claim(&mut self.feat_dir, slot, v) {
            cache.feat_entries += 1;
        }
    }

    /// What a row `owner` holds is to a reader at `from_slot`: a local
    /// hit, a peer hit, or — for an owner past the last slot, as the
    /// directory's absent entry and [`Self::count_feature_owners`]'s miss
    /// bin are — a miss.
    #[inline]
    pub fn owner_hit(&self, from_slot: usize, owner: usize) -> Option<CacheHit> {
        match self.gpus.get(owner) {
            None => None,
            Some(_) if owner == from_slot => Some(CacheHit::Local),
            Some(&gpu) => Some(CacheHit::Peer(gpu)),
        }
    }

    /// [`Self::owner_hit`] of `v`'s directory entry, written out: with
    /// the absent test first, `train_pa` ran 1–3 % more seeds/s than
    /// through a call to `owner_hit` (three pairs).
    #[inline]
    fn hit(&self, dir: &[u8], from_slot: usize, v: VertexId) -> Option<CacheHit> {
        match dir[v as usize] {
            ABSENT => None,
            owner if owner as usize == from_slot => Some(CacheHit::Local),
            owner => Some(CacheHit::Peer(self.gpus[owner as usize])),
        }
    }

    /// Resolves a topology lookup from `from_slot`: local hit, peer hit,
    /// or `None` (CPU fallback).
    #[inline]
    pub fn lookup_topology(&self, from_slot: usize, v: VertexId) -> Option<CacheHit> {
        self.hit(&self.topo_dir, from_slot, v)
    }

    /// Resolves a feature lookup from `from_slot`.
    #[inline]
    pub fn lookup_feature(&self, from_slot: usize, v: VertexId) -> Option<CacheHit> {
        self.hit(&self.feat_dir, from_slot, v)
    }

    /// Feature lookups of a whole batch, counted by owner:
    /// `tally[s]` rows live in slot `s`'s cache and `tally[k]`, for a
    /// clique of `k` slots, are misses, which also go to `on_miss` in
    /// input order. Read `tally[s]` through [`Self::owner_hit`].
    ///
    /// No branch depends on a row's owner: each lookup bumps
    /// `tally[min(dir[v], k)]` and writes `v` to a miss buffer whose
    /// cursor advances only on a miss; the buffer is drained every 64
    /// rows.
    pub fn count_feature_owners(
        &self,
        vertices: &[VertexId],
        mut on_miss: impl FnMut(VertexId),
    ) -> Vec<u64> {
        let k = self.gpus.len();
        let mut tally = vec![0u64; k + 1];
        let mut missed = [0 as VertexId; MISS_CHUNK];
        for chunk in vertices.chunks(MISS_CHUNK) {
            let mut misses = 0;
            for &v in chunk {
                let owner = (self.feat_dir[v as usize] as usize).min(k);
                tally[owner] += 1;
                missed[misses] = v;
                misses += usize::from(owner == k);
            }
            missed[..misses].iter().for_each(|&v| on_miss(v));
        }
        tally
    }

    /// Whether `v`'s topology is cached anywhere in the clique.
    #[inline]
    pub fn has_topology(&self, v: VertexId) -> bool {
        self.topo_dir[v as usize] != ABSENT
    }

    /// Whether `v`'s features are cached anywhere in the clique.
    #[inline]
    pub fn has_feature(&self, v: VertexId) -> bool {
        self.feat_dir[v as usize] != ABSENT
    }

    /// All vertices whose features are cached anywhere in the clique,
    /// in ascending id order. Residency export for the serving router.
    pub fn feature_vertices(&self) -> Vec<VertexId> {
        present(&self.feat_dir)
    }

    /// Total topology bytes cached across the clique.
    pub fn total_topology_bytes(&self) -> u64 {
        self.caches.iter().map(|c| c.topology_bytes()).sum()
    }

    /// Total feature bytes cached across the clique.
    pub fn total_feature_bytes(&self) -> u64 {
        self.caches.iter().map(|c| c.feature_bytes()).sum()
    }
}

/// Names `slot` the owner of `v` unless `v` already has one; returns
/// whether it did. `slot` indexes a live cache, so it is below
/// [`MAX_SLOTS`] and fits the byte.
fn claim(dir: &mut [u8], slot: usize, v: VertexId) -> bool {
    let entry = &mut dir[v as usize];
    let free = *entry == ABSENT;
    if free {
        *entry = slot as u8;
    }
    free
}

/// The vertices a directory holds an entry for, in ascending id order.
fn present(dir: &[u8]) -> Vec<VertexId> {
    dir.iter()
        .enumerate()
        .filter(|(_, &e)| e != ABSENT)
        .map(|(v, _)| v as VertexId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_cache_topology_roundtrip() {
        let mut cc = CliqueCache::new(vec![0], 4, 2);
        cc.insert_topology(0, 0, 3);
        cc.insert_topology(0, 1, 0);
        assert_eq!(cc.lookup_topology(0, 0), Some(CacheHit::Local));
        assert_eq!(cc.lookup_topology(0, 1), Some(CacheHit::Local));
        assert_eq!(cc.lookup_topology(0, 2), None);
        assert_eq!(cc.cache(0).topology_entries(), 2);
        // 2 row offsets + 3 cols.
        assert_eq!(cc.cache(0).topology_bytes(), 2 * 8 + 3 * 4);
    }

    #[test]
    fn gpu_cache_feature_roundtrip() {
        let mut cc = CliqueCache::new(vec![0], 4, 3);
        cc.insert_feature(0, 0);
        cc.insert_feature(0, 1);
        assert_eq!(cc.lookup_feature(0, 1), Some(CacheHit::Local));
        assert_eq!(cc.lookup_feature(0, 3), None);
        assert_eq!(cc.cache(0).feature_entries(), 2);
        assert_eq!(cc.cache(0).feature_bytes(), 2 * 3 * 4);
    }

    #[test]
    fn reinsert_is_noop() {
        let mut cc = CliqueCache::new(vec![0], 4, 1);
        cc.insert_topology(0, 1, 1);
        cc.insert_topology(0, 1, 3);
        assert_eq!(cc.lookup_topology(0, 1), Some(CacheHit::Local));
        cc.insert_feature(0, 1);
        cc.insert_feature(0, 1);
        assert_eq!(cc.lookup_feature(0, 1), Some(CacheHit::Local));
        assert_eq!(cc.cache(0).topology_entries(), 1);
        assert_eq!(cc.cache(0).feature_entries(), 1);
        // The first insert's degree is the one booked.
        assert_eq!(cc.total_topology_bytes(), 8 + 4);
        assert_eq!(cc.total_feature_bytes(), 4);
    }

    #[test]
    fn first_insert_owns_a_vertex_offered_under_two_slots() {
        let mut cc = CliqueCache::new(vec![4, 5], 4, 1);
        cc.insert_topology(1, 2, 1);
        cc.insert_topology(0, 2, 2);
        cc.insert_feature(0, 2);
        cc.insert_feature(1, 2);
        assert_eq!(cc.lookup_topology(0, 2), Some(CacheHit::Peer(5)));
        assert_eq!(cc.lookup_feature(0, 2), Some(CacheHit::Local));
        // The losing slot booked nothing.
        assert_eq!(cc.cache(0).topology_entries(), 0);
        assert_eq!(cc.cache(0).topology_bytes(), 0);
        assert_eq!(cc.cache(1).topology_bytes(), 8 + 4);
        assert_eq!(cc.cache(1).feature_entries(), 0);
        assert_eq!(cc.cache(1).feature_bytes(), 0);
    }

    #[test]
    fn directory_entries_round_trip_up_to_the_field_bounds() {
        // The owner byte holds slots 0..=254; 255 means absent.
        let gpus: Vec<GpuId> = (100..100 + MAX_SLOTS).collect();
        let mut cc = CliqueCache::new(gpus, 4, 1);
        let last = MAX_SLOTS - 1;
        cc.insert_topology(last, 0, 2);
        cc.insert_feature(0, 1);
        assert_eq!(cc.lookup_topology(last, 0), Some(CacheHit::Local));
        assert_eq!(cc.lookup_topology(0, 0), Some(CacheHit::Peer(100 + last)));
        assert_eq!(cc.lookup_feature(last, 1), Some(CacheHit::Peer(100)));
        assert_eq!(cc.lookup_feature(last, 0), None);
        assert_eq!(cc.cache(last).topology_bytes(), 8 + 2 * 4);
    }

    #[test]
    #[should_panic(expected = "clique too large")]
    fn clique_past_the_owner_byte_is_rejected() {
        let _ = CliqueCache::new((0..=MAX_SLOTS).collect(), 4, 1);
    }

    /// A slot holds more rows than a 24-bit row field could name: a
    /// 32 GB GPU of 400 B rows holds ≈ 80 M.
    #[test]
    fn one_slot_holds_more_than_2_pow_24_rows() {
        let rows = (1usize << 24) + 1;
        let mut cc = CliqueCache::new(vec![0, 1], rows + 1, 1);
        for v in 0..rows as VertexId {
            cc.insert_topology(0, v, 0);
            cc.insert_feature(0, v);
        }
        let last = rows as VertexId - 1;
        assert_eq!(cc.lookup_topology(0, last), Some(CacheHit::Local));
        assert_eq!(cc.lookup_feature(0, last), Some(CacheHit::Local));
        assert_eq!(cc.lookup_feature(1, last), Some(CacheHit::Peer(0)));
        assert_eq!(cc.lookup_feature(0, rows as VertexId), None);
        assert_eq!(cc.cache(0).topology_entries(), rows);
        assert_eq!(cc.cache(0).feature_entries(), rows);
        assert_eq!(cc.cache(0).feature_bytes(), rows as u64 * 4);
    }

    #[test]
    fn clique_lookup_local_and_peer() {
        let mut cc = CliqueCache::new(vec![4, 5], 10, 1);
        cc.insert_topology(0, 3, 1);
        cc.insert_feature(1, 3);
        // Topology: local from slot 0, peer from slot 1.
        assert_eq!(cc.lookup_topology(0, 3), Some(CacheHit::Local));
        assert_eq!(cc.lookup_topology(1, 3), Some(CacheHit::Peer(4)));
        // Feature: owned by slot 1 (GPU 5).
        assert_eq!(cc.lookup_feature(0, 3), Some(CacheHit::Peer(5)));
        assert!(cc.lookup_feature(0, 9).is_none());
        assert!(cc.has_topology(3));
        assert!(!cc.has_feature(9));
    }

    #[test]
    fn batch_count_bins_rows_by_owner_and_keeps_miss_order() {
        let mut cc = CliqueCache::new(vec![7, 8, 9], 200, 1);
        for v in 0..150 {
            if v % 4 != 3 {
                cc.insert_feature(v as usize % 3, v);
            }
        }
        // Longer than one miss-buffer drain, with repeats.
        let vertices: Vec<VertexId> = (0..300).map(|i| (i * 37) % 200).collect();
        let mut missed = Vec::new();
        let tally = cc.count_feature_owners(&vertices, |v| missed.push(v));
        let mut expected = vec![0; 4];
        for &v in &vertices {
            let owner = (0..3).find(|&s| cc.lookup_feature(s, v) == Some(CacheHit::Local));
            expected[owner.unwrap_or(3)] += 1;
        }
        assert_eq!(tally, expected);
        let misses: Vec<VertexId> = vertices
            .iter()
            .copied()
            .filter(|&v| !cc.has_feature(v))
            .collect();
        assert_eq!(missed, misses);
        assert_eq!(cc.owner_hit(1, 1), Some(CacheHit::Local));
        assert_eq!(cc.owner_hit(1, 2), Some(CacheHit::Peer(9)));
        assert_eq!(cc.owner_hit(1, 3), None);
        assert_eq!(cc.owner_hit(1, ABSENT as usize), None);
    }

    #[test]
    fn clique_totals() {
        let mut cc = CliqueCache::new(vec![0, 1], 4, 2);
        cc.insert_topology(0, 0, 2);
        cc.insert_topology(1, 1, 1);
        cc.insert_feature(0, 2);
        assert_eq!(cc.total_topology_bytes(), (8 + 2 * 4) + (8 + 4));
        assert_eq!(cc.total_feature_bytes(), 8);
    }

    #[test]
    fn clique_residency_export_is_sorted_and_complete() {
        let mut cc = CliqueCache::new(vec![0, 1], 8, 1);
        cc.insert_feature(1, 6);
        cc.insert_feature(0, 2);
        cc.insert_feature(0, 4);
        cc.insert_topology(1, 7, 1);
        cc.insert_topology(0, 3, 2);
        assert_eq!(cc.feature_vertices(), vec![2, 4, 6]);
        let topo: Vec<VertexId> = (0..8)
            .filter(|&v| cc.lookup_topology(0, v).is_some())
            .collect();
        assert_eq!(topo, vec![3, 7]);
        let empty = CliqueCache::new(vec![2], 8, 1);
        assert!(empty.feature_vertices().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn empty_clique_rejected() {
        let _ = CliqueCache::new(vec![], 4, 1);
    }
}
