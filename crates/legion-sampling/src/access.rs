//! Cache-aware, traffic-metered memory accesses.
//!
//! [`AccessEngine`] is the seam between algorithms (sampling, extraction)
//! and the simulated hardware: it resolves every read against the cache
//! layout and books the resulting traffic on the server's PCM counters and
//! traffic matrix. This is where the paper's access-pattern observations
//! are encoded:
//!
//! * sampling reads are "random and fine-grained" (§3.2): a CPU (UVA)
//!   neighbor sample books one transaction for the row offset plus one
//!   4-byte transaction per sampled edge;
//! * feature reads move whole rows: a CPU read books
//!   `ceil(D * 4 / CLS)` transactions (Equation 8).
//!
//! # One metered path
//!
//! Every read accumulates its meter deltas in a caller-owned
//! [`BatchTotals`] of plain `u64`s; [`AccessEngine::flush_totals`] then
//! moves each counter **once** per batch. The counters are sums, so the
//! totals are the same as per-read updates would give, and a batch's
//! cost can be read off its totals before the flush. The per-vertex
//! loop allocates nothing. Topology reads are classified in exactly one
//! place, `AccessEngine::resolve_topology`, which the k-hop sampler
//! calls a wave at a time and [`AccessEngine::sample_neighbors`] calls
//! for a single vertex. Feature reads are priced in exactly one place,
//! `BatchTotals::charge_feature_rows`, which books a count of rows that
//! come from one place: a timing run's `AccessEngine::extract_metered`
//! counts a batch per owner slot in the clique directory and prices each
//! count once; `AccessEngine::extract_metered_by` — under
//! [`AccessEngine::read_features_batch`], a FIFO cache's classifier and
//! a GPU without a cache — prices row by row.

use std::rc::Rc;

use rand::Rng;

use legion_cache::unified::CacheHit;
use legion_cache::CliqueCache;
use legion_dyn::DeltaOverlay;
use legion_graph::{CsrGraph, FeatureTable, VertexId};
use legion_hw::pcm::TrafficKind;
use legion_hw::traffic::Source;
use legion_hw::{GpuId, MultiGpuServer};
use legion_telemetry::{Counter, Histogram};

use crate::sampler::{KHopSampler, MiniBatchSample, SampleScratch};

/// Bucket bounds (edge counts) of the `subgraph.block_edges` histogram.
pub const BLOCK_EDGE_BUCKETS: [u64; 8] = [1, 4, 16, 64, 256, 1024, 4096, 16384];

/// PCIe transactions of one fine-grained CPU (UVA) read of a row of
/// `degree` entries that draws under `fanout`: one for the row offsets
/// plus one 4-byte transaction per drawn edge, `1 + min(degree, fanout)`
/// (§3.2). Sampling, pre-sampling and serving's warm-up profile all
/// price a topology read with it.
#[inline]
pub fn topology_read_tx(degree: usize, fanout: usize) -> u64 {
    1 + degree.min(fanout) as u64
}

/// Where the full graph topology lives (§3.2's "coarse-grained" options
/// plus Legion's unified cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyPlacement {
    /// Entire topology in CPU memory, accessed over UVA (DGL, Quiver-CPU,
    /// Legion's fallback path for uncached vertices).
    CpuUva,
    /// Entire topology replicated in every GPU (GNNLab-style TopoGPU).
    /// Sampling is then PCIe-free, but the replica consumes GPU memory.
    ReplicatedGpu,
}

/// Maps each GPU to its clique cache (if any).
#[derive(Debug, Clone, Default)]
pub struct CacheLayout {
    /// One cache per clique.
    pub cliques: Vec<CliqueCache>,
    /// `gpu_slot[gpu] = Some((clique_index, slot))`.
    pub gpu_slot: Vec<Option<(usize, usize)>>,
}

impl CacheLayout {
    /// A layout with no caches for `num_gpus` GPUs.
    pub fn none(num_gpus: usize) -> Self {
        Self {
            cliques: Vec::new(),
            gpu_slot: vec![None; num_gpus],
        }
    }

    /// Builds the layout from clique caches, inferring GPU→slot mapping.
    pub fn from_cliques(num_gpus: usize, cliques: Vec<CliqueCache>) -> Self {
        let mut gpu_slot = vec![None; num_gpus];
        for (ci, cc) in cliques.iter().enumerate() {
            for (slot, &g) in cc.gpus().iter().enumerate() {
                assert!(gpu_slot[g].is_none(), "GPU {g} in two cliques");
                gpu_slot[g] = Some((ci, slot));
            }
        }
        Self { cliques, gpu_slot }
    }

    /// The cache and slot serving `gpu`, if any.
    pub fn for_gpu(&self, gpu: GpuId) -> Option<(&CliqueCache, usize)> {
        self.gpu_slot
            .get(gpu)
            .copied()
            .flatten()
            .map(|(ci, slot)| (&self.cliques[ci], slot))
    }
}

/// Per-GPU pipeline meters, bound once at engine construction so the hot
/// read paths touch only pre-resolved handles.
struct GpuMeters {
    topology_hits: Counter,
    topology_misses: Counter,
    feature_hits: Counter,
    feature_misses: Counter,
    sampled_edges: Counter,
    extracted_rows: Counter,
    blocks: Counter,
}

/// Locally accumulated meter deltas for one batch of reads.
///
/// Every field mirrors a counter a read moves;
/// [`AccessEngine::flush_totals`] empties the struct into the counters
/// with one add per field. Reusing one `BatchTotals` across batches
/// keeps the hot path allocation-free (`peer_bytes` is sized to the
/// server's GPU count once).
#[derive(Debug, Default, Clone)]
pub struct BatchTotals {
    topology_hits: u64,
    topology_misses: u64,
    feature_hits: u64,
    feature_misses: u64,
    sampled_edges: u64,
    extracted_rows: u64,
    topology_tx: u64,
    feature_tx: u64,
    cpu_bytes: u64,
    /// NVLink bytes read from each peer GPU (indexed by source GPU id).
    peer_bytes: Vec<u64>,
}

impl BatchTotals {
    /// Empty totals for a server with `num_gpus` GPUs.
    pub fn new(num_gpus: usize) -> Self {
        Self {
            peer_bytes: vec![0; num_gpus],
            ..Self::default()
        }
    }

    /// Grows the peer-byte table if the engine spans more GPUs.
    pub(crate) fn ensure_gpus(&mut self, num_gpus: usize) {
        if self.peer_bytes.len() < num_gpus {
            self.peer_bytes.resize(num_gpus, 0);
        }
    }

    /// Books a fine-grained CPU (UVA) read of one adjacency row of
    /// `degree` entries under `fanout` ([`topology_read_tx`]).
    #[inline]
    fn charge_cpu_topology(&mut self, degree: usize, fanout: usize) {
        let tx = topology_read_tx(degree, fanout);
        self.sampled_edges += tx - 1;
        self.topology_misses += 1;
        self.topology_tx += tx;
        self.cpu_bytes += (tx - 1) * 4 + 8;
    }

    /// Books `rows` feature rows of `row_bytes` that all come from the
    /// same place — the one place a feature read is priced. A local hit
    /// moves nothing, a peer hit crosses NVLink, a miss crosses PCIe as
    /// `row_tx` transactions a row (Equation 8). Every field is a sum, so
    /// booking a count at once equals booking its rows one by one.
    #[inline]
    fn charge_feature_rows(
        &mut self,
        hit: Option<CacheHit>,
        rows: u64,
        row_bytes: u64,
        row_tx: u64,
    ) {
        self.extracted_rows += rows;
        match hit {
            Some(CacheHit::Local) => self.feature_hits += rows,
            Some(CacheHit::Peer(owner)) => {
                self.feature_hits += rows;
                self.ensure_gpus(owner + 1);
                self.peer_bytes[owner] += rows * row_bytes;
            }
            None => {
                self.feature_misses += rows;
                self.feature_tx += rows * row_tx;
                self.cpu_bytes += rows * row_bytes;
            }
        }
    }

    /// Books `rows` HBM misses the landing ring still held: plan misses
    /// that move nothing over PCIe ([`crate::LandingRing`]).
    #[inline]
    fn charge_reused_rows(&mut self, rows: u64) {
        self.extracted_rows += rows;
        self.feature_misses += rows;
    }

    /// Whether nothing has been accumulated since the last flush.
    pub fn is_empty(&self) -> bool {
        self.topology_hits == 0
            && self.topology_misses == 0
            && self.feature_hits == 0
            && self.feature_misses == 0
            && self.sampled_edges == 0
            && self.extracted_rows == 0
            && self.topology_tx == 0
            && self.feature_tx == 0
            && self.cpu_bytes == 0
            && self.peer_bytes.iter().all(|&b| b == 0)
    }
}

/// The metered read path used by samplers and extractors.
///
/// Besides charging the server's PCM counters and traffic matrix, every
/// read updates per-GPU telemetry on [`MultiGpuServer::telemetry`]:
/// `cache.gpu{g}.{topology,feature}_{hits,misses}`, `sample.gpu{g}.edges`,
/// `extract.gpu{g}.rows`, `subgraph.gpu{g}.blocks`, and the shared
/// `subgraph.block_edges` histogram.
pub struct AccessEngine<'a> {
    graph: &'a CsrGraph,
    features: &'a FeatureTable,
    layout: &'a CacheLayout,
    server: &'a MultiGpuServer,
    topology_placement: TopologyPlacement,
    /// Delta-CSR overlay for streaming mutations. Rows the overlay marks
    /// dirty are merged at sample time and always served over CPU UVA —
    /// cached topology copies (local, peer, or replicated) are stale the
    /// moment the row mutates.
    overlay: Option<&'a DeltaOverlay>,
    /// Bound once per server; engines derived by [`Self::with_layout`]
    /// share them.
    meters: Rc<[GpuMeters]>,
    block_edges: Histogram,
}

impl<'a> AccessEngine<'a> {
    /// Creates an engine over the CPU-resident graph/features, the cache
    /// layout, and the server whose counters will be charged.
    pub fn new(
        graph: &'a CsrGraph,
        features: &'a FeatureTable,
        layout: &'a CacheLayout,
        server: &'a MultiGpuServer,
        topology_placement: TopologyPlacement,
    ) -> Self {
        let registry = server.telemetry();
        let meters = (0..server.num_gpus())
            .map(|g| GpuMeters {
                topology_hits: registry.counter(&format!("cache.gpu{g}.topology_hits")),
                topology_misses: registry.counter(&format!("cache.gpu{g}.topology_misses")),
                feature_hits: registry.counter(&format!("cache.gpu{g}.feature_hits")),
                feature_misses: registry.counter(&format!("cache.gpu{g}.feature_misses")),
                sampled_edges: registry.counter(&format!("sample.gpu{g}.edges")),
                extracted_rows: registry.counter(&format!("extract.gpu{g}.rows")),
                blocks: registry.counter(&format!("subgraph.gpu{g}.blocks")),
            })
            .collect();
        let block_edges = registry.histogram("subgraph.block_edges", &BLOCK_EDGE_BUCKETS);
        Self {
            graph,
            features,
            layout,
            server,
            topology_placement,
            overlay: None,
            meters,
            block_edges,
        }
    }

    /// Attaches a delta-CSR overlay: subsequent topology reads of dirty
    /// rows merge the overlay at sample time instead of trusting cached
    /// copies. `None` (the default) is byte-identical to the pre-overlay
    /// engine.
    pub fn with_overlay(mut self, overlay: Option<&'a DeltaOverlay>) -> Self {
        self.overlay = overlay;
        self
    }

    /// The same engine over another cache layout: same graph, features,
    /// server, placement and overlay, and the already-bound meters —
    /// shared, not looked up again. For callers whose layout changes
    /// between batches (the serving re-planner).
    pub fn with_layout<'b>(&self, layout: &'b CacheLayout) -> AccessEngine<'b>
    where
        'a: 'b,
    {
        AccessEngine {
            graph: self.graph,
            features: self.features,
            layout,
            server: self.server,
            topology_placement: self.topology_placement,
            overlay: self.overlay,
            meters: Rc::clone(&self.meters),
            block_edges: self.block_edges.clone(),
        }
    }

    /// Whether `v` has a mutated adjacency row (overlay dirty bit).
    #[inline]
    pub fn topology_dirty(&self, v: VertexId) -> bool {
        self.overlay.is_some_and(|ov| ov.is_dirty(v))
    }

    /// Whether any clique in the layout holds a (possibly stale) cached
    /// copy of `v`'s topology row. Used by the invalidation fast path to
    /// meter how many cached rows a mutation actually invalidated.
    pub fn topology_cached_anywhere(&self, v: VertexId) -> bool {
        if self.topology_placement == TopologyPlacement::ReplicatedGpu {
            return true;
        }
        self.layout.cliques.iter().any(|c| c.has_topology(v))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.dim()
    }

    /// Number of GPUs on the metered server.
    pub fn num_gpus(&self) -> usize {
        self.meters.len()
    }

    /// Samples up to `fanout` distinct neighbors of `v` on behalf of
    /// `gpu`, booking the traffic of the topology read. Returns the
    /// sampled neighbor ids (all neighbors when `degree <= fanout`).
    ///
    /// The one-vertex form of what [`KHopSampler::sample_batch_with`]
    /// does per wave: same resolve, same draw, flushed immediately.
    pub fn sample_neighbors<R: Rng + ?Sized>(
        &self,
        gpu: GpuId,
        v: VertexId,
        fanout: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        let mut totals = BatchTotals::new(self.num_gpus());
        let mut merged = Vec::new();
        let row = match self.resolve_topology(self.cache_for(gpu), v, fanout, &mut totals) {
            Some(row) => row,
            None => self.merge_dirty_row(v, fanout, &mut totals, &mut merged),
        };
        self.flush_totals(gpu, &mut totals);
        sample_from(row, fanout, rng)
    }

    /// The clique cache and slot serving `gpu` — resolved once per batch
    /// and handed to [`Self::resolve_topology`] per vertex.
    #[inline]
    pub(crate) fn cache_for(&self, gpu: GpuId) -> Option<(&'a CliqueCache, usize)> {
        self.layout.for_gpu(gpu)
    }

    /// Classifies one topology read of `v` by the GPU that `cache`
    /// serves — GPU replica, local or peer cache hit, CPU fallback — and
    /// meters it into `totals` for up to `fanout` sampled edges. Returns
    /// the adjacency row, zero-copy on the base CSR: a cache records
    /// where a row lives, and the base row is its only copy.
    ///
    /// `None` means the overlay marks the row dirty: nothing was metered
    /// and the caller serves it through [`Self::merge_dirty_row`].
    #[inline]
    pub(crate) fn resolve_topology(
        &self,
        cache: Option<(&'a CliqueCache, usize)>,
        v: VertexId,
        fanout: usize,
        totals: &mut BatchTotals,
    ) -> Option<&'a [VertexId]> {
        if self.topology_dirty(v) {
            return None;
        }
        let hit = match self.topology_placement {
            // Local replica: no interconnect traffic at all.
            TopologyPlacement::ReplicatedGpu => Some(CacheHit::Local),
            TopologyPlacement::CpuUva => cache.and_then(|(c, slot)| c.lookup_topology(slot, v)),
        };
        let row = self.graph.neighbors(v);
        let Some(hit) = hit else {
            totals.charge_cpu_topology(row.len(), fanout);
            return Some(row);
        };
        let edges_read = row.len().min(fanout) as u64;
        totals.sampled_edges += edges_read;
        totals.topology_hits += 1;
        if let CacheHit::Peer(owner) = hit {
            // NVLink bytes: sampled edge ids + the offset pair.
            totals.ensure_gpus(owner + 1);
            totals.peer_bytes[owner] += edges_read * 4 + 8;
        }
        Some(row)
    }

    /// Serves an overlay-dirty row: merges the delta-CSR of `v` into
    /// `merge`, meters the fine-grained CPU read of the merged row and
    /// returns it. A mutated row is never trusted from any cached copy
    /// (local, peer, or GPU replica).
    pub(crate) fn merge_dirty_row<'m>(
        &self,
        v: VertexId,
        fanout: usize,
        totals: &mut BatchTotals,
        merge: &'m mut Vec<VertexId>,
    ) -> &'m [VertexId] {
        self.overlay
            .expect("dirty implies overlay")
            .merge_into(self.graph, v, merge);
        totals.charge_cpu_topology(merge.len(), fanout);
        merge
    }

    /// Batched feature gather: clears `out` and fills it with the
    /// row-major features of `vertices` (in order), copied from the base
    /// table for hits and misses alike, metering every row read locally
    /// and flushing each counter once.
    ///
    /// For callers that consume the rows; a timing run wants
    /// [`BatchStep::run`](crate::step::BatchStep::run), whose extraction
    /// charges the same and moves no payload. Counter totals do not depend on how a vertex list is cut
    /// into calls; the per-row loop allocates nothing beyond `out`'s
    /// amortized growth.
    pub fn read_features_batch(
        &self,
        gpu: GpuId,
        vertices: &[VertexId],
        out: &mut Vec<f32>,
        totals: &mut BatchTotals,
    ) {
        out.clear();
        out.reserve(vertices.len() * self.features.dim());
        let cache_slot = self.layout.for_gpu(gpu);
        let classify = |v| {
            out.extend_from_slice(self.features.row(v));
            cache_slot.and_then(|(c, slot)| c.lookup_feature(slot, v))
        };
        self.extract_metered_by(gpu, vertices, totals, classify, |_| true);
    }

    /// The extraction stage of a timing run: counts `vertices` by owner in
    /// `gpu`'s clique directory ([`CliqueCache::count_feature_owners`]),
    /// prices each owner's count once, charging what
    /// [`Self::read_features_batch`] would, hands every miss to `on_miss`
    /// (in input order) and returns `(feature_tx, peer_bytes)`, the two
    /// inputs of the extraction time. `on_miss` says whether the row
    /// crosses PCIe: one it answers `false` for is still a miss but moves
    /// nothing (the landing ring held it). No row is read: stage times
    /// come from these counts alone. A GPU without a clique cache misses
    /// every row, through [`Self::extract_metered_by`].
    pub(crate) fn extract_metered(
        &self,
        gpu: GpuId,
        vertices: &[VertexId],
        totals: &mut BatchTotals,
        mut on_miss: impl FnMut(VertexId) -> bool,
    ) -> (u64, u64) {
        let Some((cache, slot)) = self.layout.for_gpu(gpu) else {
            return self.extract_metered_by(gpu, vertices, totals, |_| None, on_miss);
        };
        let (row_bytes, row_tx) = self.feature_row_price(totals);
        let mut reused = 0;
        let mut tally = cache.count_feature_owners(vertices, |v| reused += u64::from(!on_miss(v)));
        // The last owner is "no GPU": the misses.
        *tally.last_mut().expect("a miss bucket") -= reused;
        for (owner, &rows) in tally.iter().enumerate() {
            totals.charge_feature_rows(cache.owner_hit(slot, owner), rows, row_bytes, row_tx);
        }
        totals.charge_reused_rows(reused);
        self.flush_extraction(gpu, totals)
    }

    /// [`Self::extract_metered`] with the caller's residency test in place
    /// of the layout's directory (a cache whose resident set moves per
    /// access): `classify` says where each row comes from, `None` being
    /// CPU memory, and each row is priced on its own.
    pub(crate) fn extract_metered_by(
        &self,
        gpu: GpuId,
        vertices: &[VertexId],
        totals: &mut BatchTotals,
        mut classify: impl FnMut(VertexId) -> Option<CacheHit>,
        mut on_miss: impl FnMut(VertexId) -> bool,
    ) -> (u64, u64) {
        let (row_bytes, row_tx) = self.feature_row_price(totals);
        for &v in vertices {
            match classify(v) {
                None if !on_miss(v) => totals.charge_reused_rows(1),
                hit => totals.charge_feature_rows(hit, 1, row_bytes, row_tx),
            }
        }
        self.flush_extraction(gpu, totals)
    }

    /// A feature row's bytes and PCIe transactions. An extraction pass's
    /// cost is read off its batch-local `totals` before the flush, so they
    /// must come in empty, as every metered call leaves them.
    fn feature_row_price(&self, totals: &BatchTotals) -> (u64, u64) {
        debug_assert!(totals.is_empty(), "unflushed totals would be billed here");
        let row_bytes = self.features.row_bytes();
        (
            row_bytes,
            self.server.pcie().transactions_for_payload(row_bytes),
        )
    }

    /// Ends an extraction pass: reads `(feature_tx, peer_bytes)` off
    /// `totals`, then flushes them.
    fn flush_extraction(&self, gpu: GpuId, totals: &mut BatchTotals) -> (u64, u64) {
        let cost = (totals.feature_tx, totals.peer_bytes.iter().sum());
        self.flush_totals(gpu, totals);
        cost
    }

    /// [`KHopSampler::sample_batch_with`] plus the topology PCIe
    /// transactions it charged to `gpu` — the quantity the §5 time model
    /// derives sampling time from.
    ///
    /// The count is the PCM counter's movement around the call. That is
    /// exact because the batched sampler flushes its [`BatchTotals`]
    /// before returning, and the program is one thread: nothing else
    /// charges `gpu`'s topology row while the call runs.
    pub(crate) fn sample_metered<R: Rng + ?Sized>(
        &self,
        sampler: &KHopSampler,
        gpu: GpuId,
        seeds: &[VertexId],
        rng: &mut R,
        on_row: Option<&mut dyn FnMut(VertexId, u64)>,
        scratch: &mut SampleScratch,
    ) -> (MiniBatchSample, u64) {
        let before = self.server.pcm().gpu_kind(gpu, TrafficKind::Topology);
        let sample = sampler.sample_batch_with(self, gpu, seeds, rng, on_row, scratch);
        let topology_tx = self.server.pcm().gpu_kind(gpu, TrafficKind::Topology) - before;
        (sample, topology_tx)
    }

    /// Flushes locally accumulated `totals` into the meters, one add per
    /// counter, then clears `totals` for reuse.
    pub fn flush_totals(&self, gpu: GpuId, totals: &mut BatchTotals) {
        debug_assert_eq!(
            totals.feature_hits + totals.feature_misses,
            totals.extracted_rows,
            "every extracted row is a hit or a miss"
        );
        let meters = &self.meters[gpu];
        meters.topology_hits.add(totals.topology_hits);
        meters.topology_misses.add(totals.topology_misses);
        meters.feature_hits.add(totals.feature_hits);
        meters.feature_misses.add(totals.feature_misses);
        meters.sampled_edges.add(totals.sampled_edges);
        meters.extracted_rows.add(totals.extracted_rows);
        if totals.topology_tx > 0 {
            self.server
                .pcm()
                .add(gpu, TrafficKind::Topology, totals.topology_tx);
        }
        if totals.feature_tx > 0 {
            self.server
                .pcm()
                .add(gpu, TrafficKind::Feature, totals.feature_tx);
        }
        if totals.cpu_bytes > 0 {
            self.server
                .traffic()
                .add(gpu, Source::Cpu, totals.cpu_bytes);
        }
        for (owner, &bytes) in totals.peer_bytes.iter().enumerate() {
            if bytes > 0 {
                self.server.traffic().add(gpu, Source::Gpu(owner), bytes);
            }
        }
        let mut peer_bytes = std::mem::take(&mut totals.peer_bytes);
        peer_bytes.fill(0);
        *totals = BatchTotals {
            peer_bytes,
            ..BatchTotals::default()
        };
    }

    /// Records a completed subgraph block (one hop of one mini-batch) of
    /// `edges` edges built on `gpu`.
    pub fn note_block(&self, gpu: GpuId, edges: u64) {
        self.meters[gpu].blocks.inc();
        self.block_edges.observe(edges);
    }
}

/// Open-addressing membership set over the indices Floyd's algorithm has
/// already chosen.
///
/// The old implementation scanned a `Vec` per draw (`chosen.contains`),
/// making `sample_from` O(fanout²); this probe table answers the same
/// membership query in expected O(1) without sorting — sorting would
/// reorder the output and change the sampled id sequence. The table is
/// reused across calls (cleared in O(capacity) ≈ O(fanout), whatever
/// larger fan-out it served before) so the sampling path allocates
/// nothing per vertex.
#[derive(Debug, Clone, Default)]
pub struct FloydSet {
    /// Linear-probe table of chosen indices; `usize::MAX` = empty.
    table: Vec<usize>,
    mask: usize,
}

impl FloydSet {
    const EMPTY: usize = usize::MAX;

    /// An empty set; the table is sized lazily when a sampling call
    /// resets it for a fanout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the set and sizes it for `fanout` insertions (load factor
    /// at most 1/2).
    fn reset(&mut self, fanout: usize) {
        let capacity = (fanout * 2).next_power_of_two().max(8);
        if self.table.len() < capacity {
            self.table.resize(capacity, Self::EMPTY);
        }
        // Probes are masked to the first `capacity` slots; whatever lies
        // beyond them (a high-water mark of some larger fan-out) is
        // never read before its own reset.
        self.table[..capacity].fill(Self::EMPTY);
        self.mask = capacity - 1;
    }

    #[inline]
    fn slot_of(&self, value: usize) -> usize {
        // Fibonacci hashing spreads consecutive indices across the table.
        (value.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & self.mask
    }

    /// Whether `value` was inserted since the last reset.
    #[inline]
    fn contains(&self, value: usize) -> bool {
        let mut slot = self.slot_of(value);
        loop {
            match self.table[slot] {
                Self::EMPTY => return false,
                x if x == value => return true,
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Inserts `value` (must not already be present).
    #[inline]
    fn insert(&mut self, value: usize) {
        let mut slot = self.slot_of(value);
        while self.table[slot] != Self::EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.table[slot] = value;
    }
}

/// Uniformly samples `min(fanout, neighbors.len())` distinct entries.
/// Matches DGL's fixed-fanout neighbor sampling: when the degree is at
/// most the fanout, all neighbors are taken.
pub fn sample_from<R: Rng + ?Sized>(
    neighbors: &[VertexId],
    fanout: usize,
    rng: &mut R,
) -> Vec<VertexId> {
    let mut out = Vec::with_capacity(fanout.min(neighbors.len()));
    let mut seen = FloydSet::new();
    sample_from_into(neighbors, fanout, rng, &mut seen, &mut out);
    out
}

/// [`sample_from`] into caller-owned buffers: appends the sampled ids to
/// `out`, using `seen` as the membership scratch. Draws the identical RNG
/// sequence and emits the identical ids (in the identical order) as the
/// original Floyd's-algorithm implementation.
#[inline]
pub fn sample_from_into<R: Rng + ?Sized>(
    neighbors: &[VertexId],
    fanout: usize,
    rng: &mut R,
    seen: &mut FloydSet,
    out: &mut Vec<VertexId>,
) {
    if neighbors.len() <= fanout {
        out.extend_from_slice(neighbors);
        return;
    }
    // Floyd's algorithm for distinct indices.
    let n = neighbors.len();
    seen.reset(fanout);
    for j in n - fanout..n {
        let t = rng.gen_range(0..=j);
        let pick = if seen.contains(t) { j } else { t };
        seen.insert(pick);
        out.push(neighbors[pick]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_dyn::MutationOp;
    use legion_graph::builder::from_edges;
    use legion_graph::GraphBuilder;
    use legion_hw::ServerSpec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// CPU→GPU bytes the server's registry holds for GPU 0.
    fn cpu_bytes(server: &MultiGpuServer) -> u64 {
        let name = legion_hw::traffic::traffic_counter_name(0, Source::Cpu);
        server.telemetry().snapshot().counter(&name)
    }

    fn star_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(40);
        for v in 1..40 {
            b.push_edge(0, v);
        }
        b.build()
    }

    #[test]
    fn sample_from_small_degree_returns_all() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_from(&[1, 2, 3], 10, &mut rng), vec![1, 2, 3]);
        assert!(sample_from(&[], 5, &mut rng).is_empty());
    }

    #[test]
    fn sample_from_large_degree_returns_distinct_fanout() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool: Vec<VertexId> = (0..100).collect();
        let s = sample_from(&pool, 10, &mut rng);
        assert_eq!(s.len(), 10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10, "samples must be distinct");
    }

    #[test]
    fn sample_from_large_fanout_pins_ids() {
        // Pins the exact Floyd's-algorithm output for a large fanout so
        // any change to the membership structure (the FloydSet replacing
        // the old O(fanout²) `Vec::contains` scan) that perturbs the RNG
        // draw sequence or the pick order fails loudly.
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let pool: Vec<VertexId> = (0..1000).map(|v| v * 3).collect();
        let s = sample_from(&pool, 64, &mut rng);
        assert_eq!(s.len(), 64);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 64, "samples must be distinct");
        assert_eq!(
            s,
            vec![
                2103, 2238, 294, 2796, 1173, 2052, 681, 996, 2262, 1896, 1560, 1818, 150, 2679,
                2001, 543, 1302, 1233, 54, 888, 2361, 99, 2547, 324, 609, 2634, 9, 882, 2763, 2556,
                627, 876, 1686, 2316, 15, 2349, 2085, 1533, 2097, 1038, 1065, 408, 1224, 2034,
                2616, 2208, 2856, 2844, 381, 1608, 2199, 2121, 2010, 363, 1230, 741, 1830, 1689,
                912, 2985, 195, 963, 2439, 387
            ]
        );
    }

    #[test]
    fn sample_from_into_matches_sample_from() {
        let pool: Vec<VertexId> = (0..500).collect();
        for fanout in [1usize, 7, 63, 64, 255, 499, 500, 600] {
            let mut rng_a = StdRng::seed_from_u64(fanout as u64);
            let mut rng_b = StdRng::seed_from_u64(fanout as u64);
            let scalar = sample_from(&pool, fanout, &mut rng_a);
            let mut seen = FloydSet::new();
            let mut out = Vec::new();
            sample_from_into(&pool, fanout, &mut rng_b, &mut seen, &mut out);
            assert_eq!(scalar, out, "fanout {fanout}");
            // Both consumed the same number of RNG draws.
            assert_eq!(
                rng_a.gen::<u64>(),
                rng_b.gen::<u64>(),
                "RNG streams diverged at fanout {fanout}"
            );
        }
    }

    #[test]
    fn cpu_topology_read_charges_per_edge_transactions() {
        let g = star_graph();
        let f = FeatureTable::zeros(40, 16);
        let layout = CacheLayout::none(2);
        let server = ServerSpec::custom(2, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let mut rng = StdRng::seed_from_u64(2);
        let s = engine.sample_neighbors(0, 0, 10, &mut rng);
        assert_eq!(s.len(), 10);
        // 1 offset + 10 edge transactions on GPU 0's topology counter.
        assert_eq!(server.pcm().gpu_kind(0, TrafficKind::Topology), 11);
        assert_eq!(cpu_bytes(&server), 10 * 4 + 8);
    }

    #[test]
    fn replicated_gpu_topology_is_free() {
        let g = star_graph();
        let f = FeatureTable::zeros(40, 16);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::ReplicatedGpu);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = engine.sample_neighbors(0, 0, 10, &mut rng);
        assert_eq!(server.pcm().total(), 0);
        assert_eq!(cpu_bytes(&server), 0);
    }

    #[test]
    fn cached_topology_local_hit_is_free_peer_hit_uses_nvlink() {
        let g = star_graph();
        let f = FeatureTable::zeros(40, 16);
        let mut cc = CliqueCache::new(vec![0, 1], 40, 16);
        cc.insert_topology(0, 0, g.degree(0));
        let layout = CacheLayout::from_cliques(2, vec![cc]);
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let mut rng = StdRng::seed_from_u64(4);
        // Local hit from GPU 0.
        let _ = engine.sample_neighbors(0, 0, 5, &mut rng);
        assert_eq!(server.pcm().total(), 0);
        assert_eq!(server.telemetry().snapshot().counter_sum("traffic."), 0);
        // Peer hit from GPU 1: NVLink bytes, still no PCIe.
        let _ = engine.sample_neighbors(1, 0, 5, &mut rng);
        assert_eq!(server.pcm().total(), 0);
        assert_eq!(server.traffic().gpu_to_gpu(0, 1), 5 * 4 + 8);
    }

    #[test]
    fn overlay_dirty_row_is_merged_and_treated_as_cpu_miss() {
        use legion_dyn::{DeltaOverlay, MutationOp};
        let g = star_graph();
        let f = FeatureTable::zeros(40, 16);
        // Cache vertex 0's (stale) topology row so a frozen engine hits.
        let mut cc = CliqueCache::new(vec![0], 40, 16);
        cc.insert_topology(0, 0, g.degree(0));
        let layout = CacheLayout::from_cliques(1, vec![cc]);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let ov = DeltaOverlay::new(40);
        // Drop every base edge of vertex 0 except a fresh insert.
        ov.apply(&g, &MutationOp::ChurnVertex { v: 0 });
        ov.apply(&g, &MutationOp::InsertEdge { src: 0, dst: 7 });
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva)
            .with_overlay(Some(&ov));
        assert!(engine.topology_dirty(0));
        assert!(engine.topology_cached_anywhere(0));

        let mut rng = StdRng::seed_from_u64(9);
        // The stale cached row (39 neighbors) must not leak.
        let s = engine.sample_neighbors(0, 0, 10, &mut rng);
        assert_eq!(s, vec![7]);
        // Metered as a CPU UVA miss of the merged (1-edge) row.
        assert_eq!(server.pcm().gpu_kind(0, TrafficKind::Topology), 2);
        assert_eq!(cpu_bytes(&server), 4 + 8);

        // The batch sampler resolves the row the same way.
        server.reset();
        let sample = KHopSampler::new(vec![10]).sample_batch(&engine, 0, &[0], &mut rng, None);
        assert_eq!(sample.blocks[0].src_vertices, vec![0, 7]);
        assert_eq!(server.pcm().gpu_kind(0, TrafficKind::Topology), 2);

        // A clean vertex still hits the cache machinery untouched.
        assert!(!engine.topology_dirty(3));
    }

    /// The metered helpers return exactly what the call moved on the
    /// PCM counters and the traffic matrix, and a reused scratch /
    /// [`BatchTotals`] carries nothing from one call into the next.
    #[test]
    fn metered_helpers_return_the_counter_movement_of_one_call() {
        let g = star_graph();
        let f = FeatureTable::zeros(40, 16);
        // Two cliques of two; in GPU 0's clique row 3 lives on its peer
        // and row 4 is local.
        let mut near = CliqueCache::new(vec![0, 1], 40, 16);
        near.insert_feature(1, 3);
        near.insert_feature(0, 4);
        let far = CliqueCache::new(vec![2, 3], 40, 16);
        let layout = CacheLayout::from_cliques(4, vec![near, far]);
        let server = ServerSpec::custom(4, 1 << 30, 2).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![5]);
        let mut rng = StdRng::seed_from_u64(6);
        let mut scratch = SampleScratch::new();
        let mut totals = BatchTotals::new(4);
        let mut missed = Vec::new();
        let row_tx = server.pcie().transactions_for_payload(f.row_bytes());
        let topo = || server.pcm().gpu_kind(0, TrafficKind::Topology);
        let feat = || server.pcm().gpu_kind(0, TrafficKind::Feature);
        let peer = || server.traffic().gpu_to_gpu(1, 0);
        for _ in 0..2 {
            let (topo0, feat0, peer0) = (topo(), feat(), peer());
            let (sample, topology_tx) =
                engine.sample_metered(&sampler, 0, &[0], &mut rng, None, &mut scratch);
            assert_eq!(sample.total_edges(), 5);
            assert_eq!(topology_tx, topo() - topo0);
            assert_eq!(topology_tx, 1 + 5, "row offset plus one per sampled edge");

            missed.clear();
            let (feature_tx, peer_bytes) =
                engine.extract_metered(0, &[3, 4, 5, 6], &mut totals, |v| {
                    missed.push(v);
                    true
                });
            assert_eq!(feature_tx, feat() - feat0);
            assert_eq!(feature_tx, 2 * row_tx, "rows 5 and 6 cross PCIe");
            assert_eq!(peer_bytes, peer() - peer0);
            assert_eq!(peer_bytes, f.row_bytes(), "row 3 crosses NVLink once");
            assert_eq!(missed, [5, 6]);
            assert!(totals.is_empty(), "the pass flushes before returning");
        }
        // Another GPU's reads do not move GPU 0's reading.
        let (feat0, peer0) = (feat(), peer());
        let (other_tx, other_peer) = engine.extract_metered(2, &[3, 4], &mut totals, |_| true);
        assert_eq!((other_tx, other_peer), (2 * row_tx, 0));
        assert_eq!((feat(), peer()), (feat0, peer0));
    }

    #[test]
    fn feature_reads_charge_equation8_transactions() {
        let g = star_graph();
        // 128-dim rows: 512 bytes = 8 transactions at CLS 64.
        let f = FeatureTable::zeros(40, 128);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let (mut rows, mut totals) = (Vec::new(), BatchTotals::new(1));
        engine.read_features_batch(0, &[7], &mut rows, &mut totals);
        assert_eq!(server.pcm().gpu_kind(0, TrafficKind::Feature), 8);
        assert_eq!(cpu_bytes(&server), 512);
    }

    #[test]
    fn cached_feature_hits() {
        let g = star_graph();
        let f = FeatureTable::zeros(40, 4);
        let mut cc = CliqueCache::new(vec![0, 1], 40, 4);
        cc.insert_feature(1, 3);
        let layout = CacheLayout::from_cliques(2, vec![cc]);
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let (mut rows, mut totals) = (Vec::new(), BatchTotals::new(2));
        // Peer hit: NVLink row bytes.
        engine.read_features_batch(0, &[3], &mut rows, &mut totals);
        assert_eq!(server.pcm().total(), 0);
        assert_eq!(server.traffic().gpu_to_gpu(1, 0), 16);
        // Local hit: nothing at all.
        server.reset();
        engine.read_features_batch(1, &[3], &mut rows, &mut totals);
        assert_eq!(server.pcm().total(), 0);
        assert_eq!(server.telemetry().snapshot().counter_sum("traffic."), 0);
        // Miss: PCIe.
        engine.read_features_batch(0, &[5], &mut rows, &mut totals);
        assert_eq!(cpu_bytes(&server), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The metering pass of a timing run and the copying gather charge
        /// alike, whatever the layout. Each side has a server of its own, so
        /// every counter after the flush *is* the batch-local total before it.
        #[test]
        fn metering_pass_charges_what_the_copying_gather_charges(
            n in 8u32..40,
            dim in prop_oneof![Just(1usize), Just(4), Just(16), Just(33)],
            layout_kind in 0usize..5,
            cached in proptest::collection::vec((0u32..40, 0usize..2, 0usize..4), 0..30),
            vertices in proptest::collection::vec(0u32..40, 0..80),
            gpu in 0usize..4,
        ) {
            let ring: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
            let g = from_edges(n as usize, &ring);
            let f = FeatureTable::from_flat((0..n as usize * dim).map(|x| x as f32).collect(), dim);
            let vertices: Vec<VertexId> = vertices.into_iter().map(|v| v % n).collect();
            // 0: no cache; 1: one clique, GPUs 2 and 3 uncached; 2: two
            // cliques, local and peer rows; 3: the same under a dirty overlay
            // (topology-only: extraction must not see it); 4: one 4-GPU
            // clique, where a peer row has three possible owners.
            let groups = match layout_kind {
                4 => vec![vec![0, 1, 2, 3]],
                kind => [vec![0, 1], vec![2, 3]].into_iter().take(kind.min(2)).collect(),
            };
            let mut cliques: Vec<CliqueCache> = groups
                .into_iter()
                .map(|gpus| CliqueCache::new(gpus, n as usize, dim))
                .collect();
            for &(v, clique, slot) in &cached {
                if let Some(cc) = cliques.get_mut(clique) {
                    let slot = slot % cc.gpus().len();
                    cc.insert_feature(slot, v % n);
                }
            }
            // NVLink bytes into `gpu` by source GPU, from each member's own
            // view of the directory: a row is read from the peer that holds
            // it locally.
            let mut peer_expected = [0u64; 4];
            if let Some(cc) = cliques.iter().find(|cc| cc.gpus().contains(&gpu)) {
                for &v in &vertices {
                    let owner = cc.gpus().iter().enumerate().find(|&(slot, _)| {
                        cc.lookup_feature(slot, v) == Some(CacheHit::Local)
                    });
                    if let Some((_, &src)) = owner.filter(|&(_, &src)| src != gpu) {
                        peer_expected[src] += f.row_bytes();
                    }
                }
            }
            let layout = CacheLayout::from_cliques(4, cliques);
            let overlay = DeltaOverlay::new(n as usize);
            for &v in vertices.iter().take(3) {
                overlay.apply(&g, &MutationOp::InsertEdge { src: v, dst: (v + 2) % n });
            }
            let clique_size = if layout_kind == 4 { 4 } else { 2 };
            let server = || ServerSpec::custom(4, 1 << 30, clique_size).build();
            let (metered, copied) = (server(), server());
            let engine_on = |server| {
                AccessEngine::new(&g, &f, &layout, server, TopologyPlacement::CpuUva)
                    .with_overlay((layout_kind == 3).then_some(&overlay))
            };
            let (metering, copying) = (engine_on(&metered), engine_on(&copied));
            let cached = |v| layout.for_gpu(gpu).is_some_and(|(cache, _)| cache.has_feature(v));
            let would_miss: Vec<VertexId> =
                vertices.iter().copied().filter(|&v| !cached(v)).collect();
            let rows_of: Vec<f32> = vertices.iter().flat_map(|&v| f.row(v)).copied().collect();

            let (mut totals, mut rows, mut missed) = (BatchTotals::new(4), Vec::new(), Vec::new());
            // Twice over one reused `totals`: nothing carries into a call.
            for round in 1..=2u64 {
                missed.clear();
                let (feature_tx, peer_bytes) =
                    metering.extract_metered(gpu, &vertices, &mut totals, |v| {
                        missed.push(v);
                        true
                    });
                copying.read_features_batch(gpu, &vertices, &mut rows, &mut totals);
                prop_assert!(totals.is_empty());
                prop_assert_eq!(&missed, &would_miss);
                prop_assert_eq!(&rows, &rows_of);
                let snapshot = metered.telemetry().snapshot();
                prop_assert_eq!(&snapshot, &copied.telemetry().snapshot());
                // The returned cost is the counters' movement, and each peer
                // is billed for the rows it holds.
                let peer_by_src: Vec<u64> =
                    (0..4).map(|src| metered.traffic().gpu_to_gpu(src, gpu)).collect();
                let expected: Vec<u64> = peer_expected.iter().map(|b| b * round).collect();
                prop_assert_eq!(&peer_by_src, &expected);
                let peer_in: u64 = peer_by_src.iter().sum();
                let pcm_feature = metered.pcm().gpu_kind(gpu, TrafficKind::Feature);
                prop_assert_eq!((feature_tx * round, peer_bytes * round), (pcm_feature, peer_in));
                prop_assert_eq!(
                    snapshot.counter(&format!("cache.gpu{gpu}.feature_misses")),
                    would_miss.len() as u64 * round
                );
                prop_assert_eq!(
                    snapshot.counter(&format!("extract.gpu{gpu}.rows")),
                    vertices.len() as u64 * round
                );
            }
        }
    }
}
