//! L-hop fixed-fanout neighbor sampling (Figure 1's workflow, step 2) and
//! message-flow-graph construction (the §5 "graph constructor" operator).
//!
//! Sampling is the simulator's hottest loop, and its reads are the
//! paper's "random and fine-grained" ones (§3.2): expanding one vertex
//! is a chain of dependent cache misses (directory → row offsets → row →
//! one mark per drawn neighbor). A GPU hides that latency with thousands
//! of threads in flight; here each hop's frontier is cut into waves of
//! `WAVE` destinations and every wave runs three passes — resolve all
//! rows, draw all neighbors, mark all sources — so the chains of one wave
//! are independent loads the out-of-order core overlaps. State whose
//! order is observable (the RNG, the `on_row` callback, the overlay
//! merge buffer) is touched only by the draw and mark passes, in
//! destination order, so a batch is bit-identical to expanding one
//! vertex at a time. The per-hop source index is a dense epoch-tagged
//! mark array in a reusable [`SampleScratch`], and all meters accumulate
//! locally and flush once per batch ([`crate::access::BatchTotals`]).
//!
//! Once the loads are overlapped, what is left to cost is mispredicted
//! branches, so the per-item loops take no branch on the data: the mark
//! pass writes every pick and advances its cursor by "not seen", and
//! the union ([`MiniBatchSample::all_vertices`], taken from the last
//! block's sources) is decoded from its bitmap four ids a step, a word's
//! loop ending on the word's popcount.

use rand::Rng;

use legion_cache::CliqueCache;
use legion_graph::VertexId;
use legion_hw::GpuId;

use crate::access::{sample_from_into, AccessEngine, BatchTotals, FloydSet};

/// Destinations resolved, drawn and marked together: wide enough that a
/// wave's misses overlap, small enough that its rows and marks are still
/// in L1/L2 when the next pass reads them. Swept over {8, 16, 32, 64};
/// DESIGN.md §5a has the table.
const WAVE: usize = 32;

/// A batch whose last block has fewer than `|V| / SPARSE_UNION_DIVISOR`
/// sources sorts them for [`MiniBatchSample::all_vertices`]; a denser
/// one sets bits and scans the `|V|`-bit map, which costs `|V| / 64`
/// word reads whatever the batch size.
const SPARSE_UNION_DIVISOR: usize = 512;

/// One hop's bipartite message block: edges from source vertices (the next
/// hop's frontier) into destination vertices (this hop's frontier).
///
/// Layout convention (as in DGL's MFGs): the source vertex list of block
/// `l` *starts with* the destination vertices, so destination `i` is also
/// source `i` — self features are always available to the aggregator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Number of destination vertices (a prefix of `src_vertices`).
    pub num_dst: usize,
    /// Source vertex ids; `src_vertices[..num_dst]` are the destinations.
    pub src_vertices: Vec<VertexId>,
    /// Edge destinations as indices into `src_vertices[..num_dst]`.
    pub edge_dst: Vec<u32>,
    /// Edge sources as indices into `src_vertices`.
    pub edge_src: Vec<u32>,
}

impl Block {
    /// Number of edges in the block.
    pub fn num_edges(&self) -> usize {
        self.edge_dst.len()
    }
}

/// A fully sampled mini-batch: the seeds, one block per hop (outermost
/// hop last), and the union of all touched vertices for feature
/// extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniBatchSample {
    /// The batch seeds (block 0's destinations).
    pub seeds: Vec<VertexId>,
    /// `blocks[l]` connects hop `l+1` sources into hop `l` destinations.
    pub blocks: Vec<Block>,
    /// Sorted, de-duplicated union of every vertex in the sample —
    /// the set whose features the extractor fetches.
    pub all_vertices: Vec<VertexId>,
}

impl MiniBatchSample {
    /// Total sampled edges across all hops.
    pub fn total_edges(&self) -> usize {
        self.blocks.iter().map(|b| b.num_edges()).sum()
    }

    /// The input frontier of the deepest hop (the vertices whose raw
    /// features feed layer 1 of the GNN).
    pub fn input_vertices(&self) -> &[VertexId] {
        &self.blocks.last().expect("at least one block").src_vertices
    }
}

/// Reusable working memory for [`KHopSampler::sample_batch_with`].
///
/// Holds the dense epoch-tagged vertex→source-index marks (replacing a
/// per-hop `HashMap<VertexId, u32>`), the wave's neighbor draw buffer,
/// the Floyd's-sampler membership scratch, the union bitmap and the
/// batch meter accumulator. One scratch per worker keeps the
/// steady-state sampling path free of per-vertex heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    /// `marks[v] == epoch << 32 | i` ⇔ `v` is source `i` of the current
    /// hop: one load answers both "seen?" and "where?".
    marks: Vec<u64>,
    /// The current hop's tag; bumped per hop, never reused.
    epoch: u32,
    /// Neighbor ids drawn for the wave being expanded, in destination
    /// order.
    picks: Vec<VertexId>,
    /// Membership scratch for Floyd's distinct-index sampling.
    seen: FloydSet,
    /// Locally accumulated meter deltas, flushed once per batch.
    totals: BatchTotals,
    /// Merge buffer for delta-CSR overlay rows (empty on frozen graphs).
    merge: Vec<VertexId>,
    /// One bit per vertex for the dense union; all zero between batches.
    union_bits: Vec<u64>,
}

impl SampleScratch {
    /// An empty scratch; buffers are sized lazily from the engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the mark array and the union bitmap for a graph of
    /// `num_vertices` and the totals for `num_gpus`. No-op once sized; a
    /// scratch that served a larger graph keeps its larger tables.
    fn ensure(&mut self, num_vertices: usize, num_gpus: usize) {
        if self.marks.len() < num_vertices {
            self.marks.resize(num_vertices, 0);
            self.union_bits.resize(num_vertices.div_ceil(64), 0);
        }
        self.totals.ensure_gpus(num_gpus);
    }

    /// Starts a new hop: returns a tag no mark currently holds.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// The sorted, de-duplicated ids of `vertices`.
    ///
    /// A dense list is decoded from the bitmap four ids per step into a
    /// buffer with four ids of slack: each word's loop runs
    /// `max(1, ⌈popcount / 4⌉)` steps, ids past the word's last member
    /// land where the next word's ids (or the slack) overwrite them, and
    /// the write cursor advances by the popcount. The loop exit thus
    /// depends on the popcount, not on the bit pattern.
    fn union(&mut self, vertices: &[VertexId], num_vertices: usize) -> Vec<VertexId> {
        if vertices.len() < num_vertices / SPARSE_UNION_DIVISOR {
            let mut all = vertices.to_vec();
            all.sort_unstable();
            all.dedup();
            return all;
        }
        let words = &mut self.union_bits[..num_vertices.div_ceil(64)];
        for &v in vertices {
            words[v as usize / 64] |= 1 << (v % 64);
        }
        let mut all = vec![0; vertices.len() + 4];
        let mut len = 0;
        for (w, word) in words.iter_mut().enumerate() {
            // Taking the word leaves the map clear for the next batch.
            let mut bits = std::mem::take(word);
            let members = bits.count_ones() as usize;
            let base = w as VertexId * 64;
            let mut at = len;
            loop {
                for slot in &mut all[at..at + 4] {
                    *slot = base.wrapping_add(bits.trailing_zeros());
                    bits &= bits.wrapping_sub(1);
                }
                at += 4;
                if at >= len + members {
                    break;
                }
            }
            len += members;
        }
        all.truncate(len);
        all
    }
}

/// L-hop uniform neighbor sampler.
#[derive(Debug, Clone)]
pub struct KHopSampler {
    /// Fan-out per hop, outermost first (the paper's `[25, 10]`).
    pub fanouts: Vec<usize>,
}

impl KHopSampler {
    /// A sampler with the given per-hop fan-outs.
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains a zero.
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "need at least one hop");
        assert!(fanouts.iter().all(|&f| f > 0), "fanouts must be positive");
        Self { fanouts }
    }

    /// The most feature rows a batch of `seeds` distinct seeds can
    /// expand to: `seeds × (1 + f₁ + f₁f₂ + …)`, every hop's draws
    /// distinct.
    pub fn max_rows(&self, seeds: usize) -> usize {
        let mut frontier = seeds;
        let mut rows = seeds;
        for &f in &self.fanouts {
            frontier *= f;
            rows += frontier;
        }
        rows
    }

    /// Samples the multi-hop neighborhood of `seeds` on behalf of `gpu`,
    /// charging all topology traffic through `engine`. Optionally reports
    /// each expanded row with at least one drawn edge, once per frontier
    /// position, as `on_row(row, drawn_edges)`.
    ///
    /// Convenience wrapper allocating a fresh [`SampleScratch`] per call;
    /// steady-state callers should hold a scratch and use
    /// [`Self::sample_batch_with`].
    pub fn sample_batch<R: Rng + ?Sized>(
        &self,
        engine: &AccessEngine<'_>,
        gpu: GpuId,
        seeds: &[VertexId],
        rng: &mut R,
        on_row: Option<&mut dyn FnMut(VertexId, u64)>,
    ) -> MiniBatchSample {
        let mut scratch = SampleScratch::new();
        self.sample_batch_with(engine, gpu, seeds, rng, on_row, &mut scratch)
    }

    /// [`Self::sample_batch`] with caller-owned working memory: no heap
    /// allocation per vertex (meters accumulate in the scratch's
    /// [`BatchTotals`] and flush once at the end), and the RNG draw
    /// sequence and result of expanding the frontier one vertex at a
    /// time with [`AccessEngine::sample_neighbors`].
    pub fn sample_batch_with<R: Rng + ?Sized>(
        &self,
        engine: &AccessEngine<'_>,
        gpu: GpuId,
        seeds: &[VertexId],
        rng: &mut R,
        mut on_row: Option<&mut dyn FnMut(VertexId, u64)>,
        scratch: &mut SampleScratch,
    ) -> MiniBatchSample {
        let num_vertices = engine.graph().num_vertices();
        scratch.ensure(num_vertices, engine.num_gpus());
        let cache = engine.cache_for(gpu);
        let mut blocks: Vec<Block> = Vec::with_capacity(self.fanouts.len());
        for (hop, &fanout) in self.fanouts.iter().enumerate() {
            // This hop's destinations are the previous hop's sources.
            let frontier: &[VertexId] = match hop {
                0 => seeds,
                _ => &blocks[hop - 1].src_vertices,
            };
            let block = sample_hop(engine, cache, frontier, fanout, rng, &mut on_row, scratch);
            engine.note_block(gpu, block.num_edges() as u64);
            blocks.push(block);
        }
        engine.flush_totals(gpu, &mut scratch.totals);
        // Each block's sources start with its destinations, so the last
        // block's sources are the seeds plus every vertex discovered.
        let all_vertices = scratch.union(&blocks[blocks.len() - 1].src_vertices, num_vertices);
        MiniBatchSample {
            seeds: seeds.to_vec(),
            blocks,
            all_vertices,
        }
    }
}

/// The rows a wave resolved; `None` marks an overlay-dirty row, which
/// the draw pass merges.
type WaveRows<'e> = [Option<&'e [VertexId]>; WAVE];

/// Expands one hop: `frontier` is the destination list, and the block's
/// source list starts with a copy of it (the MFG layout convention),
/// extended by newly discovered vertices in discovery order.
fn sample_hop<'e, R: Rng + ?Sized>(
    engine: &AccessEngine<'e>,
    cache: Option<(&'e CliqueCache, usize)>,
    frontier: &[VertexId],
    fanout: usize,
    rng: &mut R,
    on_row: &mut Option<&mut dyn FnMut(VertexId, u64)>,
    scratch: &mut SampleScratch,
) -> Block {
    let tag = (scratch.next_epoch() as u64) << 32;
    let num_dst = frontier.len();
    let mut block = Block {
        num_dst,
        src_vertices: Vec::with_capacity(num_dst + num_dst * fanout / 2),
        edge_dst: Vec::with_capacity(num_dst * fanout / 2),
        edge_src: Vec::with_capacity(num_dst * fanout / 2),
    };
    block.src_vertices.extend_from_slice(frontier);
    for (i, &v) in frontier.iter().enumerate() {
        scratch.marks[v as usize] = tag | i as u64;
    }
    let mut rows: WaveRows<'e> = [None; WAVE];
    let mut ends = [0usize; WAVE];
    for (w, wave) in frontier.chunks(WAVE).enumerate() {
        resolve_wave(engine, cache, wave, fanout, &mut scratch.totals, &mut rows);
        draw_wave(engine, wave, &rows, fanout, rng, scratch, &mut ends);
        mark_wave(wave, w * WAVE, &ends, tag, on_row, scratch, &mut block);
    }
    block
}

/// Pass 1 — resolve: one metered topology resolve per destination, then
/// a read of every row's first element. Nothing here depends on another
/// destination, so the wave's miss chains (directory entry → row offsets
/// → row) are in flight together instead of being met one after another
/// by the draw pass.
fn resolve_wave<'e>(
    engine: &AccessEngine<'e>,
    cache: Option<(&'e CliqueCache, usize)>,
    wave: &[VertexId],
    fanout: usize,
    totals: &mut BatchTotals,
    rows: &mut WaveRows<'e>,
) {
    for (row, &v) in rows.iter_mut().zip(wave) {
        *row = engine.resolve_topology(cache, v, fanout, totals);
    }
    let heads = rows[..wave.len()]
        .iter()
        .filter_map(|row| row.and_then(<[VertexId]>::first))
        .fold(0, |acc, &head| acc ^ head);
    std::hint::black_box(heads);
}

/// Pass 2 — draw: Floyd picks for the whole wave into `scratch.picks`,
/// in destination order, `ends[i]` closing destination `i`'s picks. The
/// RNG advances exactly as it would vertex by vertex. A dirty row is
/// merged and drawn here because `scratch.merge` holds one row at a
/// time.
fn draw_wave<R: Rng + ?Sized>(
    engine: &AccessEngine<'_>,
    wave: &[VertexId],
    rows: &WaveRows<'_>,
    fanout: usize,
    rng: &mut R,
    scratch: &mut SampleScratch,
    ends: &mut [usize; WAVE],
) {
    let SampleScratch {
        picks,
        seen,
        totals,
        merge,
        ..
    } = scratch;
    picks.clear();
    for ((&v, row), end) in wave.iter().zip(rows).zip(ends.iter_mut()) {
        let row: &[VertexId] = match row {
            Some(row) => row,
            None => engine.merge_dirty_row(v, fanout, totals, merge),
        };
        sample_from_into(row, fanout, rng, seen, picks);
        *end = picks.len();
    }
}

/// Pass 3 — mark: reads the mark of every pick (independent loads, in
/// flight together), then walks the picks in order, giving each new
/// vertex the next source index. No branch depends on whether a pick is
/// new: every pick is written to the next free source slot (the wave
/// reserves one per pick), the cursor advances by `!seen`, and the mark
/// is stored either way (a seen pick stores the mark it read). Each
/// destination's `edge_dst` entries are one run, written as wide as the
/// wave's widest so the fill's trip count does not depend on the row
/// (the next run, or the slack, overwrites the overhang). `on_row(dst,
/// n)` fires once per non-empty run, `n` being its length, so a row with
/// no drawn edge reports nothing. `first_dst` is the wave's offset in the
/// frontier.
fn mark_wave(
    wave: &[VertexId],
    first_dst: usize,
    ends: &[usize; WAVE],
    tag: u64,
    on_row: &mut Option<&mut dyn FnMut(VertexId, u64)>,
    scratch: &mut SampleScratch,
    block: &mut Block,
) {
    let SampleScratch { marks, picks, .. } = scratch;
    let touched = picks.iter().fold(0, |acc, &s| acc ^ marks[s as usize]);
    std::hint::black_box(touched);
    let first_src = block.src_vertices.len();
    let first_edge = block.edge_src.len();
    block.src_vertices.resize(first_src + picks.len(), 0);
    block.edge_src.resize(first_edge + picks.len(), 0);
    let free = &mut block.src_vertices[first_src..];
    let mut next = 0;
    for (&s, si) in picks.iter().zip(&mut block.edge_src[first_edge..]) {
        let mark = marks[s as usize];
        let seen = mark >> 32 == tag >> 32;
        free[next] = s;
        *si = if seen {
            mark as u32
        } else {
            (first_src + next) as u32
        };
        marks[s as usize] = tag | *si as u64;
        next += usize::from(!seen);
    }
    block.src_vertices.truncate(first_src + next);

    let ends = &ends[..wave.len()];
    let mut lo = 0;
    let widest = ends
        .iter()
        .map(|&hi| hi - std::mem::replace(&mut lo, hi))
        .fold(0, usize::max);
    block.edge_dst.resize(first_edge + picks.len() + widest, 0);
    let runs = &mut block.edge_dst[first_edge..];
    let mut lo = 0;
    for (i, &hi) in ends.iter().enumerate() {
        runs[lo..lo + widest].fill((first_dst + i) as u32);
        lo = hi;
    }
    block.edge_dst.truncate(first_edge + picks.len());
    if let Some(f) = on_row.as_deref_mut() {
        let mut lo = 0;
        for (&dst, &hi) in wave.iter().zip(ends) {
            if hi > lo {
                f(dst, (hi - lo) as u64);
            }
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{CacheLayout, TopologyPlacement};
    use legion_dyn::{DeltaOverlay, MutationOp};
    use legion_graph::builder::from_edges;
    use legion_graph::{CsrGraph, FeatureTable, GraphBuilder};
    use legion_hw::ServerSpec;
    use legion_telemetry::Snapshot;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn engine_fixture() -> (
        legion_graph::CsrGraph,
        FeatureTable,
        CacheLayout,
        legion_hw::MultiGpuServer,
    ) {
        // A two-level tree: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}.
        let g = from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let f = FeatureTable::zeros(7, 4);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        (g, f, layout, server)
    }

    #[test]
    fn two_hop_tree_sample_is_complete() {
        let (g, f, layout, server) = engine_fixture();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![2, 2]);
        let mut rng = StdRng::seed_from_u64(0);
        let s = sampler.sample_batch(&engine, 0, &[0], &mut rng, None);
        assert_eq!(s.blocks.len(), 2);
        // Hop 1: seed 0 pulls both children.
        assert_eq!(s.blocks[0].num_dst, 1);
        assert_eq!(s.blocks[0].num_edges(), 2);
        // Hop 2: frontier {0, 1, 2} pulls 2 + 2 (+0 from leaf-less 0's
        // children already counted) -> vertices 3..6 appear.
        assert_eq!(s.all_vertices, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(s.total_edges(), 2 + 6);
    }

    #[test]
    fn block_destinations_prefix_sources() {
        let (g, f, layout, server) = engine_fixture();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![2]);
        let mut rng = StdRng::seed_from_u64(1);
        let s = sampler.sample_batch(&engine, 0, &[0, 1], &mut rng, None);
        let b = &s.blocks[0];
        assert_eq!(&b.src_vertices[..b.num_dst], &[0, 1]);
        // All edge indices are in range.
        for (&d, &sr) in b.edge_dst.iter().zip(&b.edge_src) {
            assert!((d as usize) < b.num_dst);
            assert!((sr as usize) < b.src_vertices.len());
        }
    }

    #[test]
    fn edge_callback_counts_source_traversals() {
        let (g, f, layout, server) = engine_fixture();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![2, 2]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u64; 7];
        let mut cb = |v: VertexId, drawn: u64| counts[v as usize] += drawn;
        let _ = sampler.sample_batch(&engine, 0, &[0], &mut rng, Some(&mut cb));
        // Vertex 0 is sampled at hop 1 (2 edges) and again at hop 2
        // (2 edges, since 0 is in the hop-2 frontier).
        assert_eq!(counts[0], 4);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[3], 0);
    }

    #[test]
    fn fanout_caps_sampled_edges() {
        let mut b = GraphBuilder::new(101);
        for v in 1..101 {
            b.push_edge(0, v);
        }
        let g = b.build();
        let f = FeatureTable::zeros(101, 4);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![7]);
        let mut rng = StdRng::seed_from_u64(3);
        let s = sampler.sample_batch(&engine, 0, &[0], &mut rng, None);
        assert_eq!(s.total_edges(), 7);
        assert_eq!(s.input_vertices().len(), 8);
    }

    #[test]
    fn isolated_seed_produces_empty_blocks() {
        let g = GraphBuilder::new(3).build();
        let f = FeatureTable::zeros(3, 4);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![25, 10]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut rows = Vec::new();
        let mut on_row = |v: VertexId, drawn: u64| rows.push((v, drawn));
        let s = sampler.sample_batch(&engine, 0, &[1], &mut rng, Some(&mut on_row));
        assert_eq!(s.total_edges(), 0);
        assert_eq!(s.all_vertices, vec![1]);
        assert!(rows.is_empty(), "a row with no drawn edge reports nothing");
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn empty_fanouts_rejected() {
        let _ = KHopSampler::new(vec![]);
    }

    #[test]
    fn duplicate_neighbors_get_single_src_slot() {
        // Both seeds point at vertex 2; it should appear once as a source.
        let g = from_edges(3, &[(0, 2), (1, 2)]);
        let f = FeatureTable::zeros(3, 4);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![4]);
        let mut rng = StdRng::seed_from_u64(5);
        let s = sampler.sample_batch(&engine, 0, &[0, 1], &mut rng, None);
        let b = &s.blocks[0];
        assert_eq!(b.src_vertices, vec![0, 1, 2]);
        assert_eq!(b.num_edges(), 2);
    }

    /// The sampler the wave loop must equal, written straight down: one
    /// metered resolve per vertex, `HashMap` dedup, sort + dedup union,
    /// and `on_row(dst, n)` after each destination that drew `n > 0`
    /// edges.
    fn reference_sample(
        fanouts: &[usize],
        engine: &AccessEngine<'_>,
        gpu: GpuId,
        seeds: &[VertexId],
        rng: &mut StdRng,
        on_row: &mut dyn FnMut(VertexId, u64),
    ) -> MiniBatchSample {
        let mut blocks: Vec<Block> = Vec::new();
        let mut all = seeds.to_vec();
        for &fanout in fanouts {
            let frontier = blocks
                .last()
                .map_or_else(|| seeds.to_vec(), |b| b.src_vertices.clone());
            let mut src_vertices = frontier.clone();
            // A duplicated destination answers to its last position.
            let mut index: HashMap<VertexId, u32> = frontier
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect();
            let (mut edge_dst, mut edge_src) = (Vec::new(), Vec::new());
            for (di, &dst) in frontier.iter().enumerate() {
                let drawn = engine.sample_neighbors(gpu, dst, fanout, rng);
                if !drawn.is_empty() {
                    on_row(dst, drawn.len() as u64);
                }
                for s in drawn {
                    let si = *index.entry(s).or_insert_with(|| {
                        src_vertices.push(s);
                        src_vertices.len() as u32 - 1
                    });
                    edge_dst.push(di as u32);
                    edge_src.push(si);
                }
            }
            all.extend_from_slice(&src_vertices[frontier.len()..]);
            engine.note_block(gpu, edge_dst.len() as u64);
            blocks.push(Block {
                num_dst: frontier.len(),
                src_vertices,
                edge_dst,
                edge_src,
            });
        }
        all.sort_unstable();
        all.dedup();
        MiniBatchSample {
            seeds: seeds.to_vec(),
            blocks,
            all_vertices: all,
        }
    }

    /// A graph whose `ACTIVE` connected vertices are spread over the id
    /// range `0..n`, with degrees cycling below, at and above `fanout`,
    /// a 2-GPU clique caching two thirds of their rows (alternating
    /// slots, so GPU 0 sees local hits, peer hits and misses side by
    /// side) and an overlay dirtying every fifth.
    struct Fixture {
        graph: CsrGraph,
        features: FeatureTable,
        layout: CacheLayout,
        overlay: DeltaOverlay,
        active: Vec<VertexId>,
    }

    const ACTIVE: usize = 160;

    fn fixture(n: usize, fanout: usize, seed: u64) -> Fixture {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let active: Vec<VertexId> = (0..ACTIVE)
            .map(|k| (k * (n / ACTIVE)) as VertexId)
            .collect();
        let degrees = [
            0,
            1,
            fanout.saturating_sub(1),
            fanout,
            fanout + 1,
            3 * fanout,
        ];
        let mut builder = GraphBuilder::new(n);
        for (k, &v) in active.iter().enumerate() {
            let first = rng.gen_range(0..ACTIVE);
            for j in 0..degrees[k % degrees.len()] {
                builder.push_edge(v, active[(first + j * 7) % ACTIVE]);
            }
        }
        let graph = builder.build();
        let features = FeatureTable::zeros(n, 2);
        let mut cache = CliqueCache::new(vec![0, 1], n, 2);
        let overlay = DeltaOverlay::new(n);
        for (k, &v) in active.iter().enumerate() {
            if k % 3 < 2 {
                cache.insert_topology(k % 3, v, graph.degree(v));
            }
            if k % 5 == 0 {
                let dst = active[(k * 11 + 3) % ACTIVE];
                let op = match k % 2 {
                    0 => MutationOp::InsertEdge { src: v, dst },
                    _ => MutationOp::ChurnVertex { v },
                };
                overlay.apply(&graph, &op);
                overlay.apply(&graph, &MutationOp::InsertEdge { src: v, dst: v });
            }
        }
        Fixture {
            graph,
            features,
            layout: CacheLayout::from_cliques(2, vec![cache]),
            overlay,
            active,
        }
    }

    /// Everything one sampler call lets a caller observe.
    #[derive(Debug, PartialEq)]
    struct Observed {
        sample: MiniBatchSample,
        rows: Vec<(VertexId, u64)>,
        next_draw: u64,
        counters: Snapshot,
    }

    /// The per-edge destination sequence of every block, collapsed into
    /// one `(row, edges)` run per frontier position (`edge_dst` holds the
    /// position, so repeated destinations stay separate runs).
    fn edge_runs(sample: &MiniBatchSample) -> Vec<(VertexId, u64)> {
        let mut runs: Vec<(VertexId, u64)> = Vec::new();
        for b in &sample.blocks {
            let mut at = None;
            for &dst in &b.edge_dst {
                match runs.last_mut() {
                    Some((_, n)) if at == Some(dst) => *n += 1,
                    _ => runs.push((b.src_vertices[dst as usize], 1)),
                }
                at = Some(dst);
            }
        }
        runs
    }

    /// Runs `batches` through `f` on a fresh server, `f` being either
    /// sampler under test, with the per-row hook on or off.
    fn observe(
        fx: &Fixture,
        placement: TopologyPlacement,
        batches: &[(GpuId, Vec<VertexId>)],
        hook: bool,
        mut f: impl FnMut(
            &AccessEngine<'_>,
            GpuId,
            &[VertexId],
            &mut StdRng,
            Option<&mut dyn FnMut(VertexId, u64)>,
        ) -> MiniBatchSample,
    ) -> Vec<Observed> {
        use rand::Rng;
        let server = ServerSpec::custom(2, 1 << 30, 2).build();
        let engine = AccessEngine::new(&fx.graph, &fx.features, &fx.layout, &server, placement)
            .with_overlay(Some(&fx.overlay));
        let mut rng = StdRng::seed_from_u64(99);
        batches
            .iter()
            .map(|(gpu, seeds)| {
                let mut rows = Vec::new();
                let mut report = |v: VertexId, n: u64| rows.push((v, n));
                let on_row = hook.then_some(&mut report as &mut dyn FnMut(VertexId, u64));
                let sample = f(&engine, *gpu, seeds, &mut rng, on_row);
                if hook {
                    assert_eq!(rows, edge_runs(&sample), "one report per drawn row");
                }
                Observed {
                    sample,
                    rows,
                    next_draw: rng.gen(),
                    counters: server.telemetry().snapshot(),
                }
            })
            .collect()
    }

    /// Wave sampler against reference on the same batches, one scratch
    /// across them, with the per-row hook on or off.
    fn assert_equals_reference(
        fx: &Fixture,
        placement: TopologyPlacement,
        fanouts: &[usize],
        batches: &[(GpuId, Vec<VertexId>)],
        hook: bool,
        scratch: &mut SampleScratch,
    ) {
        let sampler = KHopSampler::new(fanouts.to_vec());
        let wave = observe(
            fx,
            placement,
            batches,
            hook,
            |e, gpu, seeds, rng, on_row| {
                sampler.sample_batch_with(e, gpu, seeds, rng, on_row, scratch)
            },
        );
        let reference = observe(
            fx,
            placement,
            batches,
            hook,
            |e, gpu, seeds, rng, on_row| {
                reference_sample(
                    fanouts,
                    e,
                    gpu,
                    seeds,
                    rng,
                    on_row.unwrap_or(&mut |_, _| {}),
                )
            },
        );
        assert_eq!(wave, reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Blocks, `all_vertices`, RNG position, `on_row` sequence and
        /// every counter equal the reference — for frontiers around the
        /// wave width, degrees around the fan-out, every row class in
        /// one wave, duplicate seeds, and graphs small enough that every
        /// union is a bitmap scan or large enough that a short frontier
        /// sorts; with the `on_row` hook and without it.
        #[test]
        fn wave_sampler_equals_the_reference(
            num_seeds in prop_oneof![
                Just(0usize), Just(1), Just(WAVE - 1), Just(WAVE), Just(WAVE + 1), Just(3 * WAVE + 5)
            ],
            n in prop_oneof![Just(ACTIVE), Just(ACTIVE * 700)],
            fanouts in prop_oneof![Just(vec![3usize]), Just(vec![4, 2]), Just(vec![1, 1, 5])],
            replicated in any::<bool>(),
            duplicate in any::<bool>(),
            hook in any::<bool>(),
            seed in 0u64..1 << 20,
        ) {
            let fx = fixture(n, fanouts[0], seed);
            let mut seeds: Vec<VertexId> = (0..num_seeds)
                .map(|i| fx.active[(seed as usize + i * 3) % ACTIVE])
                .collect();
            if duplicate {
                for i in (1..num_seeds).step_by(2) {
                    seeds[i] = seeds[i / 2];
                }
            }
            let placement = match replicated {
                true => TopologyPlacement::ReplicatedGpu,
                false => TopologyPlacement::CpuUva,
            };
            let tail = seeds[num_seeds / 2..].to_vec();
            let batches = [(0, seeds), (1, tail)];
            assert_equals_reference(&fx, placement, &fanouts, &batches, hook, &mut SampleScratch::new());
        }
    }

    #[test]
    fn union_sorts_below_the_density_threshold_and_scans_from_it_on() {
        let n = 64 * SPARSE_UNION_DIVISOR;
        let mut scratch = SampleScratch::new();
        scratch.ensure(n, 1);
        let mut check = |vertices: &[VertexId], n: usize, what: &str| {
            let mut expected = vertices.to_vec();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(scratch.union(vertices, n), expected, "{what}");
            assert!(
                scratch.union_bits.iter().all(|&w| w == 0),
                "{what}: map left clear"
            );
        };
        for len in [0, 1, 63, 64, 65, 500] {
            let all: Vec<VertexId> = (0..len)
                .map(|i| (i * 7919 % 300 * 100) as VertexId)
                .collect();
            check(&all, n, &format!("{len} collected vertices"));
        }
        // The decode's step is four ids: words of 0, 1, 4, 5 and 64
        // members (at the high end of the word, so a step runs past the
        // last member), in a map whose last word is partial and whose
        // last vertex is a member, listed backwards with repeats.
        let odd = 64 * 40 + 23;
        let mut dense: Vec<VertexId> = Vec::new();
        for (word, members) in [(1, 0), (2, 1), (3, 4), (4, 5), (5, 64), (7, 5), (8, 4)] {
            for j in 0..members {
                dense.push(word * 64 + 63 - j * (64 / members));
            }
        }
        dense.push(odd as VertexId - 1);
        dense.extend_from_within(..9);
        dense.reverse();
        assert!(dense.len() >= odd / SPARSE_UNION_DIVISOR, "dense path");
        check(&dense, odd, "mixed word populations");
        check(&[odd as VertexId - 1; 6], odd, "only the last vertex");
    }

    #[test]
    fn epoch_wrap_clears_every_stale_mark() {
        let fx = fixture(ACTIVE, 4, 5);
        let cpu = TopologyPlacement::CpuUva;
        let mut scratch = SampleScratch::new();
        // Leave marks tagged 1 on most of the graph, then jump to the end
        // of the tag space: the next two hops are tagged `u32::MAX` and —
        // wrapped — 1 again, which those marks must not answer to.
        let warm = [(0, fx.active[..120].to_vec())];
        assert_equals_reference(&fx, cpu, &[4], &warm, true, &mut scratch);
        scratch.epoch = u32::MAX - 1;
        let batches = [(0, fx.active[..1].to_vec()), (1, fx.active[120..].to_vec())];
        assert_equals_reference(&fx, cpu, &[4], &batches, true, &mut scratch);
        assert_eq!(scratch.epoch, 1, "wrapped");
    }

    #[test]
    fn one_scratch_serves_graphs_of_different_size() {
        let big = fixture(ACTIVE * 700, 3, 1);
        let small = fixture(ACTIVE, 3, 2);
        let mut scratch = SampleScratch::new();
        for fx in [&big, &small, &big] {
            let batches = [
                (0, fx.active[..50].to_vec()),
                (1, fx.active[100..103].to_vec()),
            ];
            assert_equals_reference(
                fx,
                TopologyPlacement::CpuUva,
                &[3, 3],
                &batches,
                true,
                &mut scratch,
            );
        }
        assert_eq!(scratch.marks.len(), ACTIVE * 700);
    }
}
