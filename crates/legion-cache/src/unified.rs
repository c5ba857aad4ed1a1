//! The unified cache structure (§4.2.1).
//!
//! "The topology cache maintains out-edge neighbor IDs for each selected
//! hot vertex in the format of a compressed sparse row (CSR). As for the
//! feature cache, Legion stores the feature vectors of selected hot
//! vertices in the format of a 2D array... the selected vertices in the
//! topology and feature caches could be different."
//!
//! [`GpuUnifiedCache`] is one GPU's row storage; [`CliqueCache`] groups
//! the caches of an NVLink clique and resolves lookups to *local hit*,
//! *peer (NVLink) hit* or *miss* — the classification the traffic
//! accounting in `legion-sampling` turns into PCIe/NVLink transactions.
//!
//! Lookups are on the simulator's hottest path (one per simulated vertex
//! read), so the clique owns one dense directory per kind,
//! `dir[v] = owner_slot << 24 | row`, and the per-GPU caches are
//! addressed by row only: a lookup is one directory load, then the row.
//! The directory is the only vertex-indexed table — 4 bytes per vertex
//! per kind whatever the clique size.

use legion_graph::VertexId;
use legion_hw::GpuId;

/// Where a cached item was found within a clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// In the requesting GPU's own cache.
    Local,
    /// In an NVLink peer's cache (the returned GPU id).
    Peer(GpuId),
}

/// One GPU's topology + feature cache: rows addressed by the slot the
/// insert returned. Which vertex a row belongs to is the clique
/// directory's knowledge, not the cache's.
#[derive(Debug, Clone)]
pub struct GpuUnifiedCache {
    gpu: GpuId,
    feature_dim: usize,
    // Topology cache: CSR over the cached rows only.
    topo_offsets: Vec<u64>,
    topo_cols: Vec<VertexId>,
    // Feature cache: 2-D array over the cached rows only.
    feat_entries: usize,
    feat_data: Vec<f32>,
}

impl GpuUnifiedCache {
    /// An empty cache for `gpu` holding `feature_dim`-wide feature rows.
    pub fn new(gpu: GpuId, feature_dim: usize) -> Self {
        Self {
            gpu,
            feature_dim,
            topo_offsets: vec![0],
            topo_cols: Vec::new(),
            feat_entries: 0,
            feat_data: Vec::new(),
        }
    }

    /// The owning GPU.
    pub fn gpu(&self) -> GpuId {
        self.gpu
    }

    /// Appends an adjacency row; its slot is the entry count before the
    /// call.
    fn push_topology(&mut self, neighbors: &[VertexId]) {
        self.topo_cols.extend_from_slice(neighbors);
        self.topo_offsets.push(self.topo_cols.len() as u64);
    }

    /// Appends a feature row; its slot is the entry count before the
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != feature_dim`.
    fn push_feature(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.feature_dim, "feature dim mismatch");
        self.feat_data.extend_from_slice(row);
        self.feat_entries += 1;
    }

    /// The adjacency row in `slot`.
    #[inline]
    fn topology_row(&self, slot: usize) -> &[VertexId] {
        let lo = self.topo_offsets[slot] as usize;
        let hi = self.topo_offsets[slot + 1] as usize;
        &self.topo_cols[lo..hi]
    }

    /// The feature row in `slot`.
    #[inline]
    fn feature_row(&self, slot: usize) -> &[f32] {
        let lo = slot * self.feature_dim;
        &self.feat_data[lo..lo + self.feature_dim]
    }

    /// Number of vertices in the topology cache.
    pub fn topology_entries(&self) -> usize {
        self.topo_offsets.len() - 1
    }

    /// Number of vertices in the feature cache.
    pub fn feature_entries(&self) -> usize {
        self.feat_entries
    }

    /// Bytes of topology payload cached, per Equation 3 accounting.
    pub fn topology_bytes(&self) -> u64 {
        self.topology_entries() as u64 * legion_graph::ROW_OFFSET_BYTES
            + self.topo_cols.len() as u64 * legion_graph::COL_INDEX_BYTES
    }

    /// Bytes of feature payload cached, per Equation 6 accounting.
    pub fn feature_bytes(&self) -> u64 {
        self.feat_entries as u64 * legion_graph::feature_bytes_for_dim(self.feature_dim as u64)
    }
}

/// Directory entry of a vertex the clique does not cache.
const ABSENT: u32 = u32::MAX;
/// Low bits of a directory entry holding the row slot; the owner's
/// clique slot sits above them.
const ROW_BITS: u32 = 24;
const ROW_MASK: u32 = (1 << ROW_BITS) - 1;
/// Clique slots must stay below this so that no live entry equals
/// [`ABSENT`].
const MAX_SLOTS: usize = (u32::MAX >> ROW_BITS) as usize;

/// Packs an owner slot and a row slot into a directory entry.
///
/// # Panics
///
/// Panics if `row` does not fit the entry's 24-bit row field.
fn encode(owner: usize, row: usize) -> u32 {
    assert!(
        row <= ROW_MASK as usize,
        "cache row slot {row} does not fit the directory's {ROW_BITS}-bit row field"
    );
    (owner as u32) << ROW_BITS | row as u32
}

/// `(owner slot, row slot)` of a directory entry, `None` when absent.
#[inline]
fn decode(entry: u32) -> Option<(usize, usize)> {
    (entry != ABSENT).then_some(((entry >> ROW_BITS) as usize, (entry & ROW_MASK) as usize))
}

/// The caches of one NVLink clique behind one vertex→row directory per
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
    /// `topo_dir[v]` = owner and row of `v`'s cached adjacency, or
    /// [`ABSENT`].
    topo_dir: Vec<u32>,
    /// `feat_dir[v]` = owner and row of `v`'s cached features, or
    /// [`ABSENT`].
    feat_dir: Vec<u32>,
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
            .map(|&g| GpuUnifiedCache::new(g, feature_dim))
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

    /// The clique slot of a GPU id, if it belongs to this clique.
    pub fn slot_of(&self, gpu: GpuId) -> Option<usize> {
        self.gpus.iter().position(|&g| g == gpu)
    }

    /// Access to a slot's cache.
    pub fn cache(&self, slot: usize) -> &GpuUnifiedCache {
        &self.caches[slot]
    }

    /// Inserts `v`'s topology into `slot`'s cache and records ownership.
    /// A vertex the clique already caches is left where it is.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the vertex range given at construction,
    /// or if the cache already holds 2²⁴ topology rows.
    pub fn insert_topology(&mut self, slot: usize, v: VertexId, neighbors: &[VertexId]) {
        if self.topo_dir[v as usize] != ABSENT {
            return;
        }
        let entry = encode(slot, self.caches[slot].topology_entries());
        self.caches[slot].push_topology(neighbors);
        self.topo_dir[v as usize] = entry;
    }

    /// Inserts `v`'s features into `slot`'s cache and records ownership.
    /// A vertex the clique already caches is left where it is.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != feature_dim`, if `v` is out of range, or
    /// if the cache already holds 2²⁴ feature rows.
    pub fn insert_feature(&mut self, slot: usize, v: VertexId, row: &[f32]) {
        if self.feat_dir[v as usize] != ABSENT {
            return;
        }
        let entry = encode(slot, self.caches[slot].feature_entries());
        self.caches[slot].push_feature(row);
        self.feat_dir[v as usize] = entry;
    }

    fn hit(&self, from_slot: usize, owner: usize) -> CacheHit {
        if owner == from_slot {
            CacheHit::Local
        } else {
            CacheHit::Peer(self.gpus[owner])
        }
    }

    /// Resolves a topology lookup from `from_slot`: local hit, peer hit,
    /// or `None` (CPU fallback).
    #[inline]
    pub fn lookup_topology(
        &self,
        from_slot: usize,
        v: VertexId,
    ) -> Option<(CacheHit, &[VertexId])> {
        let (owner, row) = decode(self.topo_dir[v as usize])?;
        debug_assert!(
            owner < self.caches.len() && row < self.caches[owner].topology_entries(),
            "topology directory entry of vertex {v} names no live row"
        );
        Some((
            self.hit(from_slot, owner),
            self.caches[owner].topology_row(row),
        ))
    }

    /// `v`'s feature directory entry, `(owner slot, row)`.
    #[inline]
    fn feature_entry(&self, v: VertexId) -> Option<(usize, usize)> {
        let (owner, row) = decode(self.feat_dir[v as usize])?;
        debug_assert!(
            owner < self.caches.len() && row < self.caches[owner].feature_entries(),
            "feature directory entry of vertex {v} names no live row"
        );
        Some((owner, row))
    }

    /// Where a feature lookup from `from_slot` would find `v`'s row, from
    /// the directory alone: the row is not touched.
    #[inline]
    pub fn probe_feature(&self, from_slot: usize, v: VertexId) -> Option<CacheHit> {
        let (owner, _) = self.feature_entry(v)?;
        Some(self.hit(from_slot, owner))
    }

    /// Resolves a feature lookup from `from_slot`.
    #[inline]
    pub fn lookup_feature(&self, from_slot: usize, v: VertexId) -> Option<(CacheHit, &[f32])> {
        let (owner, row) = self.feature_entry(v)?;
        Some((
            self.hit(from_slot, owner),
            self.caches[owner].feature_row(row),
        ))
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

    /// All vertices whose topology is cached anywhere in the clique,
    /// in ascending id order. Residency export for the serving router.
    pub fn topology_vertices(&self) -> Vec<VertexId> {
        present(&self.topo_dir)
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

/// The vertices a directory holds an entry for, in ascending id order.
fn present(dir: &[u32]) -> Vec<VertexId> {
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
        let mut c = GpuUnifiedCache::new(0, 2);
        c.push_topology(&[1, 2, 3]);
        c.push_topology(&[]);
        assert_eq!(c.topology_row(0), &[1, 2, 3][..]);
        assert_eq!(c.topology_row(1), &[][..]);
        assert_eq!(c.topology_entries(), 2);
        // 2 row offsets + 3 cols.
        assert_eq!(c.topology_bytes(), 2 * 8 + 3 * 4);
    }

    #[test]
    fn gpu_cache_feature_roundtrip() {
        let mut c = GpuUnifiedCache::new(0, 3);
        c.push_feature(&[1.0, 2.0, 3.0]);
        c.push_feature(&[4.0, 5.0, 6.0]);
        assert_eq!(c.feature_row(1), &[4.0, 5.0, 6.0][..]);
        assert_eq!(c.feature_entries(), 2);
        assert_eq!(c.feature_bytes(), 24);
    }

    #[test]
    fn reinsert_is_noop() {
        let mut cc = CliqueCache::new(vec![0], 4, 1);
        cc.insert_topology(0, 1, &[0]);
        cc.insert_topology(0, 1, &[0, 0, 0]);
        assert_eq!(cc.lookup_topology(0, 1).map(|(_, d)| d), Some(&[0][..]));
        cc.insert_feature(0, 1, &[4.0]);
        cc.insert_feature(0, 1, &[9.0]);
        assert_eq!(cc.lookup_feature(0, 1).map(|(_, d)| d), Some(&[4.0][..]));
        assert_eq!(cc.cache(0).topology_entries(), 1);
        assert_eq!(cc.cache(0).feature_entries(), 1);
        assert_eq!(cc.total_topology_bytes(), 8 + 4);
    }

    #[test]
    fn first_insert_owns_a_vertex_offered_under_two_slots() {
        let mut cc = CliqueCache::new(vec![4, 5], 4, 1);
        cc.insert_topology(1, 2, &[3]);
        cc.insert_topology(0, 2, &[0, 1]);
        cc.insert_feature(0, 2, &[1.0]);
        cc.insert_feature(1, 2, &[2.0]);
        assert_eq!(
            cc.lookup_topology(0, 2),
            Some((CacheHit::Peer(5), &[3][..]))
        );
        assert_eq!(cc.lookup_feature(0, 2), Some((CacheHit::Local, &[1.0][..])));
        // The losing slot stored nothing.
        assert_eq!(cc.cache(0).topology_entries(), 0);
        assert_eq!(cc.cache(1).feature_entries(), 0);
    }

    #[test]
    fn directory_entries_round_trip_up_to_the_field_bounds() {
        for (owner, row) in [(0, 0), (3, 17), (MAX_SLOTS - 1, ROW_MASK as usize)] {
            assert_eq!(decode(encode(owner, row)), Some((owner, row)));
        }
        assert_eq!(decode(ABSENT), None);
    }

    #[test]
    #[should_panic(expected = "does not fit the directory")]
    fn row_slot_past_the_directory_field_is_a_panic_not_a_truncation() {
        let _ = encode(0, 1 << ROW_BITS);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn feature_dim_enforced() {
        let mut cc = CliqueCache::new(vec![0], 16, 2);
        cc.insert_feature(0, 0, &[1.0]);
    }

    #[test]
    fn clique_lookup_local_and_peer() {
        let mut cc = CliqueCache::new(vec![4, 5], 10, 1);
        cc.insert_topology(0, 3, &[1]);
        cc.insert_feature(1, 3, &[0.5]);
        // Topology: local from slot 0, peer from slot 1.
        assert_eq!(
            cc.lookup_topology(0, 3).map(|(h, _)| h),
            Some(CacheHit::Local)
        );
        assert_eq!(
            cc.lookup_topology(1, 3).map(|(h, _)| h),
            Some(CacheHit::Peer(4))
        );
        // Feature: owned by slot 1 (GPU 5).
        assert_eq!(
            cc.lookup_feature(0, 3).map(|(h, _)| h),
            Some(CacheHit::Peer(5))
        );
        assert!(cc.lookup_feature(0, 9).is_none());
        assert!(cc.has_topology(3));
        assert!(!cc.has_feature(9));
    }

    #[test]
    fn clique_totals() {
        let mut cc = CliqueCache::new(vec![0, 1], 4, 2);
        cc.insert_topology(0, 0, &[1, 2]);
        cc.insert_topology(1, 1, &[3]);
        cc.insert_feature(0, 2, &[1.0, 2.0]);
        assert_eq!(cc.total_topology_bytes(), (8 + 2 * 4) + (8 + 4));
        assert_eq!(cc.total_feature_bytes(), 8);
    }

    #[test]
    fn clique_residency_export_is_sorted_and_complete() {
        let mut cc = CliqueCache::new(vec![0, 1], 8, 1);
        cc.insert_feature(1, 6, &[1.0]);
        cc.insert_feature(0, 2, &[2.0]);
        cc.insert_feature(0, 4, &[3.0]);
        cc.insert_topology(1, 7, &[0]);
        cc.insert_topology(0, 3, &[1, 2]);
        assert_eq!(cc.feature_vertices(), vec![2, 4, 6]);
        assert_eq!(cc.topology_vertices(), vec![3, 7]);
        let empty = CliqueCache::new(vec![2], 8, 1);
        assert!(empty.feature_vertices().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn empty_clique_rejected() {
        let _ = CliqueCache::new(vec![], 4, 1);
    }
}
