//! Streaming graph mutations for the Legion reproduction.
//!
//! Every workload in the rest of the workspace runs on a frozen
//! [`CsrGraph`]. Production follow/interaction graphs churn while
//! traffic flows, and Legion's envelope (hotness-ordered cache plans,
//! LDG ownership, residency routing) is computed against a static
//! topology. This crate adds the dynamic tier:
//!
//! * [`MutationLog`] — a deterministic, seedable stream of edge
//!   inserts/deletes with power-law-biased endpoints plus whole-vertex
//!   churn, generated at a configurable rate ([`ChurnConfig`]) and
//!   serializable for byte-identical replay;
//! * [`DeltaOverlay`] — an incremental delta-CSR layered over the
//!   frozen base graph: per-vertex insert lists and delete tombstones,
//!   merged at sample time behind the existing neighbor-access API,
//!   with a budgeted [`DeltaOverlay::compact`] that folds deltas into
//!   contiguous rows at batch boundaries;
//! * [`MutationSource`] — the serving-facing knob (`Generate` fresh
//!   churn from a seed, or `Replay` a logged stream).
//!
//! The overlay is deliberately graph-agnostic: it holds no reference to
//! the base graph, so callers pass it at merge/apply time and the
//! overlay can outlive borrows of the engine that reads it. Clean
//! vertices (dirty bit unset) never touch the row map — the fast path is
//! one bit test, and the base CSR slice is served zero-copy exactly as
//! before.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use legion_graph::csr::CsrGraph;
use legion_graph::generate::Zipf;
use legion_graph::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// XOR salt so the mutation stream is independent of the workload RNG
/// streams derived from the same `ServeConfig::seed`.
const MUTATION_STREAM_SALT: u64 = 0xd9a7_51f3_8c2e_b645;

/// Bounded retries when the sampled endpoints make an op a no-op
/// (duplicate insert, delete of an absent edge, churn of an isolated
/// vertex). Deterministic: on exhaustion the tick emits nothing.
const ENDPOINT_RETRIES: usize = 8;

/// Fraction of generated ops that are edge inserts.
pub const INSERT_FRAC: f64 = 0.6;

/// Fraction of generated ops that churn a whole vertex (drop all its
/// edges). The remainder (`1 - INSERT_FRAC - CHURN_FRAC`) are edge
/// deletes.
pub const CHURN_FRAC: f64 = 0.05;

/// Zipf exponent over degree-ranked vertices for endpoint choice —
/// high-degree (hot) vertices mutate more, mirroring follow-graph churn
/// concentrating on popular accounts.
const ENDPOINT_EXPONENT: f64 = 0.8;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Knobs for the synthetic churn generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mutation arrival rate (Poisson, ops per simulated second).
    pub ops_per_sec: f64,
    /// Pending delta edges (insert list + tombstone entries) that
    /// trigger a batch-boundary compaction. `0` disables compaction.
    pub compact_threshold: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            ops_per_sec: 10_000.0,
            compact_threshold: 4096,
        }
    }
}

impl ChurnConfig {
    /// Validates the rate.
    ///
    /// # Errors
    ///
    /// Returns a description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.ops_per_sec.is_finite() && self.ops_per_sec > 0.0) {
            return Err(format!(
                "ops_per_sec must be positive: {}",
                self.ops_per_sec
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Mutation stream
// ---------------------------------------------------------------------

/// One topology mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOp {
    /// Add directed edge `src -> dst` (no-op if already present).
    InsertEdge {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Remove directed edge `src -> dst` (no-op if absent).
    DeleteEdge {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
    /// Drop every out-edge of `v` (account deletion / re-keying).
    ChurnVertex {
        /// The churned vertex.
        v: VertexId,
    },
}

impl MutationOp {
    /// The vertex whose out-row the op changes.
    pub fn vertex(&self) -> VertexId {
        match *self {
            MutationOp::InsertEdge { src, .. } | MutationOp::DeleteEdge { src, .. } => src,
            MutationOp::ChurnVertex { v } => v,
        }
    }
}

// The vendored serde_derive does not handle enums, so the op tags are
// written by hand against the `Value` data model.
impl Serialize for MutationOp {
    fn serialize(&self) -> serde::Value {
        let (kind, a, b) = match *self {
            MutationOp::InsertEdge { src, dst } => ("insert", src, dst),
            MutationOp::DeleteEdge { src, dst } => ("delete", src, dst),
            MutationOp::ChurnVertex { v } => ("churn", v, 0),
        };
        serde::Value::Object(vec![
            ("kind".to_string(), kind.serialize()),
            ("a".to_string(), a.serialize()),
            ("b".to_string(), b.serialize()),
        ])
    }
}

impl Deserialize for MutationOp {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| serde::Error::custom(format!("MutationOp missing `{key}`")))
        };
        let kind = match field("kind")? {
            serde::Value::Str(s) => s.clone(),
            other => return Err(serde::Error::custom(format!("bad op kind: {other:?}"))),
        };
        let a = u32::deserialize(field("a")?)?;
        let b = u32::deserialize(field("b")?)?;
        match kind.as_str() {
            "insert" => Ok(MutationOp::InsertEdge { src: a, dst: b }),
            "delete" => Ok(MutationOp::DeleteEdge { src: a, dst: b }),
            "churn" => Ok(MutationOp::ChurnVertex { v: a }),
            other => Err(serde::Error::custom(format!("unknown op kind `{other}`"))),
        }
    }
}

/// A mutation stamped with its simulated arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mutation {
    /// Arrival time in simulated seconds from run start.
    pub at: f64,
    /// The operation.
    pub op: MutationOp,
}

/// An ordered, replayable stream of mutations.
///
/// Serializes through `serde_json` losslessly (`f64` timestamps
/// round-trip exactly under the shortest-representation printer), so a
/// logged stream replays byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MutationLog {
    /// Mutations in non-decreasing `at` order.
    pub ops: Vec<Mutation>,
}

impl MutationLog {
    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Generates a churn stream against `graph` for `horizon_s`
    /// simulated seconds.
    ///
    /// Deterministic in `(graph, cfg, seed, horizon_s)`: inter-arrivals
    /// are exponential at `cfg.ops_per_sec`, endpoints are Zipf over
    /// the degree-ranked vertex list, and every emitted op is valid
    /// against the stream-so-far (deletes hit existing edges, inserts
    /// are not duplicates, churn targets non-isolated vertices) —
    /// validity is tracked with a scratch [`DeltaOverlay`].
    ///
    /// # Panics
    ///
    /// Panics when `cfg` fails [`ChurnConfig::validate`], the graph is
    /// empty, or `horizon_s` is not finite.
    pub fn generate(graph: &CsrGraph, cfg: &ChurnConfig, seed: u64, horizon_s: f64) -> Self {
        cfg.validate().expect("invalid ChurnConfig");
        assert!(horizon_s.is_finite(), "horizon must be finite");
        let n = graph.num_vertices();
        assert!(n > 0, "cannot churn an empty graph");
        let mut rng = StdRng::seed_from_u64(seed ^ MUTATION_STREAM_SALT);

        // Degree-ranked endpoint table: rank 0 = hottest vertex.
        let mut rank: Vec<VertexId> = (0..n as VertexId).collect();
        rank.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
        let zipf = Zipf::new(n, ENDPOINT_EXPONENT);

        let scratch = DeltaOverlay::new(n);
        let mut row_buf = Vec::new();
        let mut ops = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / cfg.ops_per_sec;
            if t >= horizon_s {
                break;
            }
            let kind: f64 = rng.gen();
            let op = if kind < INSERT_FRAC {
                (0..ENDPOINT_RETRIES).find_map(|_| {
                    let src = rank[zipf.sample(&mut rng)];
                    let dst = rank[zipf.sample(&mut rng)];
                    (src != dst && !scratch.edge_present(graph, src, dst))
                        .then_some(MutationOp::InsertEdge { src, dst })
                })
            } else if kind < INSERT_FRAC + CHURN_FRAC {
                (0..ENDPOINT_RETRIES).find_map(|_| {
                    let v = rank[zipf.sample(&mut rng)];
                    (scratch.merged_degree(graph, v) > 0).then_some(MutationOp::ChurnVertex { v })
                })
            } else {
                (0..ENDPOINT_RETRIES).find_map(|_| {
                    let src = rank[zipf.sample(&mut rng)];
                    let deg = scratch.merged_degree(graph, src);
                    if deg == 0 {
                        return None;
                    }
                    scratch.merge_into(graph, src, &mut row_buf);
                    let dst = row_buf[rng.gen_range(0..deg)];
                    Some(MutationOp::DeleteEdge { src, dst })
                })
            };
            if let Some(op) = op {
                scratch.apply(graph, &op);
                ops.push(Mutation { at: t, op });
            }
        }
        Self { ops }
    }
}

/// Where the serving engine gets its mutation stream.
#[derive(Debug, Clone)]
pub enum MutationSource {
    /// Synthesize a fresh stream from the run seed at serve time.
    Generate(ChurnConfig),
    /// Replay a previously logged stream.
    Replay {
        /// The logged stream (shared so a fleet can replay one global
        /// stream across servers without cloning).
        log: Rc<MutationLog>,
        /// Pending-delta-edge threshold for batch-boundary compaction
        /// (`0` disables), mirroring [`ChurnConfig::compact_threshold`]
        /// so `Generate` and `Replay` of the same stream stay
        /// byte-identical.
        compact_threshold: usize,
    },
}

impl MutationSource {
    /// Validates the embedded config (replay logs are always valid).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            MutationSource::Generate(cfg) => cfg.validate(),
            MutationSource::Replay { .. } => Ok(()),
        }
    }

    /// Resolves to a concrete `(log, compact_threshold)` pair,
    /// generating the stream over `[0, horizon_s)` when needed.
    pub fn resolve(&self, graph: &CsrGraph, seed: u64, horizon_s: f64) -> (Rc<MutationLog>, usize) {
        match self {
            MutationSource::Generate(cfg) => (
                Rc::new(MutationLog::generate(graph, cfg, seed, horizon_s)),
                cfg.compact_threshold,
            ),
            MutationSource::Replay {
                log,
                compact_threshold,
            } => (Rc::clone(log), *compact_threshold),
        }
    }
}

// ---------------------------------------------------------------------
// Delta-CSR overlay
// ---------------------------------------------------------------------

/// What an applied mutation actually changed (no-ops report zeros).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyEffect {
    /// Edges added (0 or 1).
    pub inserted: u64,
    /// Edges removed (1 for a delete, the merged degree for a churn).
    pub deleted: u64,
    /// 1 when this mutation dirtied a previously clean row.
    pub newly_dirty: u64,
}

impl ApplyEffect {
    /// Whether the mutation changed anything.
    pub fn changed(&self) -> bool {
        self.inserted + self.deleted > 0
    }
}

/// Per-vertex delta against the base adjacency.
#[derive(Debug, Default, Clone)]
struct DeltaRow {
    /// Edges added beyond the effective base row, in application order.
    inserts: Vec<VertexId>,
    /// Tombstones against the effective base row.
    deletes: Vec<VertexId>,
    /// Folded row from the last compaction (or vertex churn), which
    /// supersedes the base CSR slice as the effective base.
    compacted: Option<Vec<VertexId>>,
}

impl DeltaRow {
    /// Entries counted against the compaction budget.
    fn pending(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The effective base adjacency this row's deltas apply to.
    fn base<'a>(&'a self, graph: &'a CsrGraph, v: VertexId) -> &'a [VertexId] {
        self.compacted
            .as_deref()
            .unwrap_or_else(|| graph.neighbors(v))
    }

    /// Merged adjacency: effective base minus tombstones, inserts
    /// appended in application order.
    fn merge_into(&self, graph: &CsrGraph, v: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        let base = self.base(graph, v);
        if self.deletes.is_empty() {
            out.extend_from_slice(base);
        } else {
            out.extend(base.iter().copied().filter(|d| !self.deletes.contains(d)));
        }
        out.extend_from_slice(&self.inserts);
    }

    fn merged_len(&self, graph: &CsrGraph, v: VertexId) -> usize {
        self.base(graph, v).len() - self.deletes.len() + self.inserts.len()
    }
}

#[derive(Debug, Default)]
struct OverlayInner {
    rows: HashMap<VertexId, DeltaRow>,
    /// Sum of `DeltaRow::pending` across rows — the compaction trigger.
    pending_delta_edges: usize,
}

/// Incremental delta-CSR over a frozen base graph.
///
/// Interior-mutable, so the sampler reads it and the mutation driver
/// writes it through shared references: readers check the dirty bitset
/// first, so vertices that never mutated cost one bit test and are then
/// served straight from the base CSR slice. Dirty rows borrow the row
/// map and merge (effective base minus tombstones, plus inserts) into a
/// caller-provided buffer.
///
/// Dirty bits are sticky: once a row has mutated, readers must keep
/// treating cached copies of it as stale even after compaction,
/// because the unified cache holds materialized topology rows that are
/// never rewritten in place.
#[derive(Debug)]
pub struct DeltaOverlay {
    /// One bit per vertex, set on first effective mutation.
    dirty: Vec<Cell<u64>>,
    dirty_rows: Cell<usize>,
    compactions: Cell<u64>,
    num_vertices: usize,
    inner: RefCell<OverlayInner>,
}

impl DeltaOverlay {
    /// An empty overlay for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            dirty: vec![Cell::new(0); n.div_ceil(64)],
            dirty_rows: Cell::new(0),
            compactions: Cell::new(0),
            num_vertices: n,
            inner: RefCell::new(OverlayInner::default()),
        }
    }

    /// Vertex-count this overlay was sized for.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Whether `v` has ever been mutated (the fast path: one bit test).
    #[inline]
    pub fn is_dirty(&self, v: VertexId) -> bool {
        let v = v as usize;
        debug_assert!(v < self.num_vertices);
        self.dirty[v / 64].get() & (1u64 << (v % 64)) != 0
    }

    fn mark_dirty(&self, v: VertexId) -> bool {
        let v = v as usize;
        let word = &self.dirty[v / 64];
        let bit = 1u64 << (v % 64);
        let newly = word.get() & bit == 0;
        if newly {
            word.set(word.get() | bit);
            self.dirty_rows.set(self.dirty_rows.get() + 1);
        }
        newly
    }

    /// Rows ever dirtied.
    pub fn dirty_rows(&self) -> usize {
        self.dirty_rows.get()
    }

    /// Compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions.get()
    }

    /// Un-compacted delta entries (insert-list + tombstone entries).
    pub fn pending_delta_edges(&self) -> usize {
        self.inner.borrow().pending_delta_edges
    }

    /// Applies one mutation and reports what changed.
    ///
    /// No-ops (duplicate insert, delete of an absent edge, churn of an
    /// already-empty row) leave the overlay — and the dirty bitset —
    /// untouched.
    pub fn apply(&self, graph: &CsrGraph, op: &MutationOp) -> ApplyEffect {
        let mut inner = self.inner.borrow_mut();
        let mut effect = ApplyEffect::default();
        let touched = match *op {
            MutationOp::InsertEdge { src, dst } => {
                let row = inner.rows.entry(src).or_default();
                if let Some(i) = row.deletes.iter().position(|&d| d == dst) {
                    // Re-insert after delete: drop the tombstone.
                    row.deletes.swap_remove(i);
                    inner.pending_delta_edges -= 1;
                    effect.inserted = 1;
                } else if row.base(graph, src).contains(&dst) || row.inserts.contains(&dst) {
                    // Already present.
                } else {
                    row.inserts.push(dst);
                    inner.pending_delta_edges += 1;
                    effect.inserted = 1;
                }
                src
            }
            MutationOp::DeleteEdge { src, dst } => {
                let row = inner.rows.entry(src).or_default();
                if let Some(i) = row.inserts.iter().position(|&d| d == dst) {
                    // Deleting an overlay insert cancels it.
                    row.inserts.swap_remove(i);
                    inner.pending_delta_edges -= 1;
                    effect.deleted = 1;
                } else if row.base(graph, src).contains(&dst) && !row.deletes.contains(&dst) {
                    row.deletes.push(dst);
                    inner.pending_delta_edges += 1;
                    effect.deleted = 1;
                }
                src
            }
            MutationOp::ChurnVertex { v } => {
                let row = inner.rows.entry(v).or_default();
                effect.deleted = row.merged_len(graph, v) as u64;
                let pending = row.pending();
                // The churned row's effective base becomes empty.
                *row = DeltaRow {
                    compacted: Some(Vec::new()),
                    ..DeltaRow::default()
                };
                inner.pending_delta_edges -= pending;
                v
            }
        };
        if effect.changed() && self.mark_dirty(touched) {
            effect.newly_dirty = 1;
        }
        effect
    }

    /// Whether edge `src -> dst` exists in the merged view.
    pub fn edge_present(&self, graph: &CsrGraph, src: VertexId, dst: VertexId) -> bool {
        if !self.is_dirty(src) {
            return graph.neighbors(src).contains(&dst);
        }
        let inner = self.inner.borrow();
        match inner.rows.get(&src) {
            Some(row) => {
                row.inserts.contains(&dst)
                    || (row.base(graph, src).contains(&dst) && !row.deletes.contains(&dst))
            }
            None => graph.neighbors(src).contains(&dst),
        }
    }

    /// Merged out-degree of `v`.
    pub fn merged_degree(&self, graph: &CsrGraph, v: VertexId) -> usize {
        if !self.is_dirty(v) {
            return graph.degree(v) as usize;
        }
        let inner = self.inner.borrow();
        match inner.rows.get(&v) {
            Some(row) => row.merged_len(graph, v),
            None => graph.degree(v) as usize,
        }
    }

    /// Fills `out` with the merged adjacency of `v` (clears it first).
    ///
    /// Order: effective base order with tombstoned entries dropped,
    /// then overlay inserts in application order. Clean vertices copy
    /// the base slice — callers on the hot path should check
    /// [`Self::is_dirty`] first and keep clean rows zero-copy.
    pub fn merge_into(&self, graph: &CsrGraph, v: VertexId, out: &mut Vec<VertexId>) {
        if !self.is_dirty(v) {
            out.clear();
            out.extend_from_slice(graph.neighbors(v));
            return;
        }
        let inner = self.inner.borrow();
        match inner.rows.get(&v) {
            Some(row) => row.merge_into(graph, v, out),
            None => {
                out.clear();
                out.extend_from_slice(graph.neighbors(v));
            }
        }
    }

    /// Folds every row with pending deltas into a contiguous
    /// `compacted` vector (the merged view), clearing its insert list
    /// and tombstones. Returns the number of rows folded; rows without
    /// pending deltas are untouched and clean rows stay zero-copy on
    /// the base CSR. A fold changes nothing about the merged view —
    /// only the representation.
    pub fn compact(&self, graph: &CsrGraph) -> usize {
        let mut inner = self.inner.borrow_mut();
        let mut folded = 0usize;
        for (&v, row) in inner.rows.iter_mut().filter(|(_, row)| row.pending() > 0) {
            let mut merged = Vec::with_capacity(row.merged_len(graph, v));
            row.merge_into(graph, v, &mut merged);
            *row = DeltaRow {
                compacted: Some(merged),
                ..DeltaRow::default()
            };
            folded += 1;
        }
        inner.pending_delta_edges = 0;
        if folded > 0 {
            self.compactions.set(self.compactions.get() + 1);
        }
        folded
    }

    /// Materializes the full merged graph as a fresh CSR with sorted,
    /// validated rows — the from-scratch rebuild the overlay must stay
    /// equivalent to (used by correctness spot-checks and proptests).
    pub fn rebuild_csr(&self, graph: &CsrGraph) -> CsrGraph {
        let n = self.num_vertices;
        let mut row_offsets = Vec::with_capacity(n + 1);
        row_offsets.push(0u64);
        let mut col_indices = Vec::with_capacity(graph.num_edges());
        let mut buf = Vec::new();
        for v in 0..n as VertexId {
            self.merge_into(graph, v, &mut buf);
            buf.sort_unstable();
            col_indices.extend_from_slice(&buf);
            row_offsets.push(col_indices.len() as u64);
        }
        CsrGraph::from_parts(row_offsets, col_indices).expect("merged rows form a valid CSR")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::GraphBuilder;

    fn line_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId - 1 {
            b.push_edge(v, v + 1);
        }
        b.build()
    }

    fn ring_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            b.push_edge(v, (v + 1) % n as VertexId);
            b.push_edge(v, (v + 3) % n as VertexId);
        }
        b.build()
    }

    #[test]
    fn clean_vertex_is_not_dirty_and_merges_to_base() {
        let g = ring_graph(16);
        let ov = DeltaOverlay::new(16);
        assert!(!ov.is_dirty(5));
        let mut buf = Vec::new();
        ov.merge_into(&g, 5, &mut buf);
        assert_eq!(&buf[..], g.neighbors(5));
        assert_eq!(ov.dirty_rows(), 0);
    }

    #[test]
    fn insert_appears_delete_disappears() {
        let g = line_graph(8);
        let ov = DeltaOverlay::new(8);
        let e = ov.apply(&g, &MutationOp::InsertEdge { src: 0, dst: 5 });
        assert_eq!((e.inserted, e.deleted, e.newly_dirty), (1, 0, 1));
        assert!(ov.edge_present(&g, 0, 5));
        assert!(ov.is_dirty(0));

        let e = ov.apply(&g, &MutationOp::DeleteEdge { src: 0, dst: 1 });
        assert_eq!((e.inserted, e.deleted, e.newly_dirty), (0, 1, 0));
        assert!(!ov.edge_present(&g, 0, 1));

        let mut buf = Vec::new();
        ov.merge_into(&g, 0, &mut buf);
        assert_eq!(buf, vec![5]);
        assert_eq!(ov.merged_degree(&g, 0), 1);
    }

    #[test]
    fn duplicate_and_absent_ops_are_noops() {
        let g = line_graph(8);
        let ov = DeltaOverlay::new(8);
        // Insert an edge that already exists in the base.
        let e = ov.apply(&g, &MutationOp::InsertEdge { src: 2, dst: 3 });
        assert!(!e.changed());
        assert!(!ov.is_dirty(2), "no-op must not dirty the row");
        // Delete an edge that does not exist.
        let e = ov.apply(&g, &MutationOp::DeleteEdge { src: 2, dst: 7 });
        assert!(!e.changed());
        // Double-insert through the overlay.
        assert!(ov
            .apply(&g, &MutationOp::InsertEdge { src: 2, dst: 6 })
            .changed());
        assert!(!ov
            .apply(&g, &MutationOp::InsertEdge { src: 2, dst: 6 })
            .changed());
    }

    #[test]
    fn reinsert_after_delete_restores_edge() {
        let g = line_graph(8);
        let ov = DeltaOverlay::new(8);
        assert!(ov
            .apply(&g, &MutationOp::DeleteEdge { src: 3, dst: 4 })
            .changed());
        assert!(!ov.edge_present(&g, 3, 4));
        assert!(ov
            .apply(&g, &MutationOp::InsertEdge { src: 3, dst: 4 })
            .changed());
        assert!(ov.edge_present(&g, 3, 4));
        assert_eq!(ov.pending_delta_edges(), 0, "tombstone cancelled");
    }

    #[test]
    fn churn_empties_row_and_allows_reinserts() {
        let g = ring_graph(12);
        let ov = DeltaOverlay::new(12);
        let deg = g.degree(4);
        let e = ov.apply(&g, &MutationOp::ChurnVertex { v: 4 });
        assert_eq!(e.deleted, deg);
        assert_eq!(ov.merged_degree(&g, 4), 0);
        assert!(ov
            .apply(&g, &MutationOp::InsertEdge { src: 4, dst: 9 })
            .changed());
        let mut buf = Vec::new();
        ov.merge_into(&g, 4, &mut buf);
        assert_eq!(buf, vec![9]);
        // Churning the now-emptied-then-refilled row again drops 1.
        assert_eq!(ov.apply(&g, &MutationOp::ChurnVertex { v: 4 }).deleted, 1);
        assert_eq!(ov.apply(&g, &MutationOp::ChurnVertex { v: 4 }).deleted, 0);
    }

    #[test]
    fn compaction_preserves_merged_view_and_resets_pending() {
        let g = ring_graph(32);
        let ov = DeltaOverlay::new(32);
        for i in 0..10u32 {
            ov.apply(
                &g,
                &MutationOp::InsertEdge {
                    src: i,
                    dst: (i + 7) % 32,
                },
            );
            ov.apply(
                &g,
                &MutationOp::DeleteEdge {
                    src: i,
                    dst: (i + 1) % 32,
                },
            );
        }
        assert!(ov.pending_delta_edges() > 0);
        let before = ov.rebuild_csr(&g);
        let folded = ov.compact(&g);
        assert!(folded > 0);
        assert_eq!(ov.pending_delta_edges(), 0);
        assert_eq!(ov.compactions(), 1);
        let after = ov.rebuild_csr(&g);
        assert_eq!(before, after);
        // A second compact with nothing pending folds nothing.
        assert_eq!(ov.compact(&g), 0);
        assert_eq!(ov.compactions(), 1);
    }

    #[test]
    fn generate_is_deterministic_and_valid() {
        let g = ring_graph(64);
        let cfg = ChurnConfig::default();
        let a = MutationLog::generate(&g, &cfg, 42, 0.01);
        let b = MutationLog::generate(&g, &cfg, 42, 0.01);
        assert_eq!(a, b, "same seed must generate the same stream");
        let c = MutationLog::generate(&g, &cfg, 43, 0.01);
        assert_ne!(a, c, "different seed must diverge");
        assert!(!a.is_empty(), "10ms at 10k ops/s should emit ops");

        // Every op is valid against the stream-so-far.
        let ov = DeltaOverlay::new(64);
        let mut last = 0.0;
        for m in &a.ops {
            assert!(m.at >= last, "timestamps must be non-decreasing");
            last = m.at;
            let effect = ov.apply(&g, &m.op);
            assert!(effect.changed(), "generated op {:?} was a no-op", m.op);
        }
    }

    #[test]
    fn log_json_roundtrip_is_lossless() {
        let g = ring_graph(64);
        let log = MutationLog::generate(&g, &ChurnConfig::default(), 11, 0.005);
        let json = serde_json::to_string(&log).unwrap();
        let back: MutationLog = serde_json::from_str(&json).unwrap();
        assert_eq!(log, back);
        let json2 = serde_json::to_string(&back).unwrap();
        assert_eq!(json, json2, "re-serialization must be byte-identical");
    }

    #[test]
    fn source_resolve_generate_matches_replay() {
        let g = ring_graph(64);
        let cfg = ChurnConfig::default();
        let gen = MutationSource::Generate(cfg.clone());
        let (log, thr) = gen.resolve(&g, 5, 0.01);
        let replay = MutationSource::Replay {
            log: Rc::clone(&log),
            compact_threshold: thr,
        };
        let (log2, thr2) = replay.resolve(&g, 999, 123.0);
        assert_eq!(*log, *log2);
        assert_eq!(thr, thr2);
        assert_eq!(thr, cfg.compact_threshold);
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        let ok = ChurnConfig::default();
        assert!(ok.validate().is_ok());
        assert!(ChurnConfig {
            ops_per_sec: 0.0,
            ..ok
        }
        .validate()
        .is_err());
    }
}
