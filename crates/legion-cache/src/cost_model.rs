//! The PCIe-traffic cost model (§4.3.2, Equations 2–8).
//!
//! Given a cache plan `(B, α)` for one NVLink clique, the model predicts
//! the PCIe traffic of the training phase:
//!
//! * topology cache size `m_T = B * α`; walking the clique topology order
//!   `Q_T` until Equation 3's cumulative CSR bytes reach `m_T` yields the
//!   cached set; Equation 4 gives the hotness-weighted reduction `R_T`
//!   and Equation 5 the residual sampling traffic
//!   `N_T = N_TSUM * (1 - R_T)`. Each cached row saves transactions in
//!   proportion to its hotness and costs its Equation 3 bytes, so
//!   training's `Q_T` is ranked by hotness per byte ([`mod@crate::cslp`]):
//!   each prefix is then the greedy knapsack answer for its bytes;
//! * feature cache size `m_F = B * (1 - α)`; Equations 6–8 give the
//!   residual feature traffic
//!   `N_F = ceil(D * s_float32 / CLS) * U_F`;
//! * `N_total = N_T + N_F` (Equation 2).
//!
//! Following §4.3.3, the model precomputes inclusive prefix sums of
//! topology byte sizes (`S_Tsum`) and hotness (`A_Tsum`, `A_Fsum`) along
//! `Q_T` / `Q_F`, so evaluating one plan is a binary search, a division
//! and O(1) lookups. Feature rows are all one size, so `S_Fsum`'s `i`-th
//! entry is `(i + 1)·row_bytes` and is not stored.
//!
//! # Three-tier extension (out-of-core store)
//!
//! [`CostModel::evaluate_tiered`] adds a second transfer term for an
//! NVMe-backed feature tier below host DRAM. The HBM plan `(B, α)` is
//! evaluated exactly as above; the feature rows that miss HBM then
//! split by the same hotness order `Q_F` under a separate DRAM budget:
//! the next-hottest prefix stays DRAM-resident (the legacy PCIe miss
//! path, already priced by `N_F`), and the remainder lives on the SSD,
//! adding `N_NVME = ceil(D * s_float32 / BLK) * U_SSD` block
//! transactions on top of its PCIe crossing. `best_plan_tiered`
//! minimizes `N_T + N_F + w * N_NVME`, where `w` weights an NVMe block
//! against a PCIe cache line (the bandwidth ratio of the two links).
//! Placement is a pair of prefixes of `Q_F`, so it is monotone in
//! hotness by construction: a hotter vertex never lands in a colder
//! tier. With an unbounded DRAM budget the SSD prefix is empty and the
//! evaluation degenerates to the two-tier model exactly.

use legion_graph::{feature_bytes_for_dim, topology_bytes_for_degree, CsrGraph, VertexId};

/// Immutable per-clique cost model, built once per pre-sampling round.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Inclusive prefix sums of Equation 3 byte sizes along `Q_T`.
    topo_bytes_prefix: Vec<u64>,
    /// Inclusive prefix sums of topology hotness along `Q_T`.
    topo_hotness_prefix: Vec<u64>,
    /// Inclusive prefix sums of feature hotness along `Q_F`; its `i`-th
    /// prefix takes `(i + 1)·feat_row_bytes`, every row being one size.
    feat_hotness_prefix: Vec<u64>,
    /// `N_TSUM`: pre-sampling's sampling PCIe transactions, in the unit
    /// of the hotness vectors.
    n_tsum: u64,
    /// Equation 8's per-vertex feature transaction count
    /// `ceil(D * s_float32 / CLS)`.
    feat_tx_per_vertex: u64,
    /// Bytes of one feature row (`D * s_float32`), for tier boundaries.
    feat_row_bytes: u64,
}

/// The prediction for one cache plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEvaluation {
    /// Topology share of the budget.
    pub alpha: f64,
    /// Topology cache bytes `m_T`.
    pub m_t: u64,
    /// Feature cache bytes `m_F`.
    pub m_f: u64,
    /// Number of vertices whose topology fits (`|V_Tcache|`, a prefix of
    /// `Q_T`).
    pub topo_cached_vertices: usize,
    /// Number of vertices whose features fit (`|V_Fcache|`).
    pub feat_cached_vertices: usize,
    /// Predicted sampling PCIe transactions `N_T` (Equation 5).
    pub n_t: f64,
    /// Predicted feature PCIe transactions `N_F` (Equation 8).
    pub n_f: f64,
}

impl PlanEvaluation {
    /// `N_total` (Equation 2).
    pub fn n_total(&self) -> f64 {
        self.n_t + self.n_f
    }
}

/// The prediction for one three-tier plan: the HBM evaluation plus the
/// DRAM/SSD split of the feature rows that missed HBM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TieredPlanEvaluation {
    /// The HBM plan — identical to the two-tier [`CostModel::evaluate`].
    pub plan: PlanEvaluation,
    /// Feature rows resident in host DRAM: the next-hottest prefix of
    /// `Q_F` after the HBM boundary that fits the DRAM budget.
    pub dram_feat_vertices: usize,
    /// Feature rows relegated to the SSD (the tail of `Q_F`).
    pub ssd_feat_vertices: usize,
    /// Predicted NVMe block transactions `N_NVME`: hotness-weighted SSD
    /// accesses times blocks per row.
    pub n_nvme: f64,
}

impl TieredPlanEvaluation {
    /// The weighted objective `N_T + N_F + ssd_penalty * N_NVME`. The
    /// penalty converts NVMe blocks into PCIe-transaction equivalents —
    /// the bandwidth ratio of the two links is the natural choice.
    pub fn weighted_total(&self, ssd_penalty: f64) -> f64 {
        self.plan.n_total() + ssd_penalty * self.n_nvme
    }
}

impl CostModel {
    /// Builds the model for one clique.
    ///
    /// * `graph` — the full graph (for `nc(v)`),
    /// * `q_t` / `q_f` — clique-level cache orders from CSLP (`q_t` by
    ///   hotness per byte when pre-sampling sized `H_T`'s rows),
    /// * `a_t` / `a_f` — accumulated hotness vectors indexed by vertex
    ///   (`a_t` may be empty with `q_t`: a model that caches no topology),
    /// * `n_tsum` — pre-sampling's sampling transactions, in the unit of
    ///   `a_t` / `a_f` (the predictions come out in it too),
    /// * `feature_dim` — `D`,
    /// * `cls` — transferred cache line size.
    ///
    /// # Panics
    ///
    /// Panics if order/hotness lengths are inconsistent with the graph or
    /// `cls == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &CsrGraph,
        q_t: &[VertexId],
        a_t: &[u64],
        q_f: &[VertexId],
        a_f: &[u64],
        n_tsum: u64,
        feature_dim: usize,
        cls: u64,
    ) -> Self {
        let n = graph.num_vertices();
        assert!(
            a_t.len() == n || q_t.is_empty(),
            "topology hotness length mismatch"
        );
        assert_eq!(a_f.len(), n, "feature hotness length mismatch");
        assert!(q_t.len() <= n && q_f.len() <= n, "order longer than graph");
        assert!(cls > 0, "cache line size must be positive");

        let mut topo_bytes_prefix = Vec::with_capacity(q_t.len());
        let mut topo_hotness_prefix = Vec::with_capacity(q_t.len());
        let mut bytes_acc = 0u64;
        let mut hot_acc = 0u64;
        for &v in q_t {
            bytes_acc += topology_bytes_for_degree(graph.degree(v));
            hot_acc += a_t[v as usize];
            topo_bytes_prefix.push(bytes_acc);
            topo_hotness_prefix.push(hot_acc);
        }

        let row_bytes = feature_bytes_for_dim(feature_dim as u64);
        let mut feat_hotness_prefix = Vec::with_capacity(q_f.len());
        let mut fhot_acc = 0u64;
        for &v in q_f {
            fhot_acc += a_f[v as usize];
            feat_hotness_prefix.push(fhot_acc);
        }

        Self {
            topo_bytes_prefix,
            topo_hotness_prefix,
            feat_hotness_prefix,
            n_tsum,
            feat_tx_per_vertex: row_bytes.div_ceil(cls),
            feat_row_bytes: row_bytes,
        }
    }

    /// Total feature hotness `sum_{v in V} a_F(v)` — but restricted to the
    /// vertices present in `Q_F`: all of `V` for a CSLP order; a truncated
    /// order must keep every vertex with non-zero hotness for Equations 4
    /// and 7 to see the true totals.
    fn total_feat_hotness(&self) -> u64 {
        *self.feat_hotness_prefix.last().unwrap_or(&0)
    }

    fn total_topo_hotness(&self) -> u64 {
        *self.topo_hotness_prefix.last().unwrap_or(&0)
    }

    /// `N_TSUM` as provided at construction.
    pub fn n_tsum(&self) -> u64 {
        self.n_tsum
    }

    /// Largest prefix of `prefix_bytes` fitting in `budget` (binary
    /// search on the inclusive prefix-sum array).
    fn boundary(prefix_bytes: &[u64], budget: u64) -> usize {
        prefix_bytes.partition_point(|&b| b <= budget)
    }

    /// Largest prefix of `Q_F` whose rows fit in `budget` bytes.
    fn feat_boundary(&self, budget: u64) -> usize {
        let rows = self.feat_hotness_prefix.len();
        budget
            .checked_div(self.feat_row_bytes)
            .map_or(rows, |fit| fit.min(rows as u64) as usize)
    }

    /// Evaluates one cache plan `(budget, alpha)`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn evaluate(&self, budget: u64, alpha: f64) -> PlanEvaluation {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let m_t = (budget as f64 * alpha).floor() as u64;
        let m_f = budget - m_t;
        // Topology side: Equations 3-5.
        let t_boundary = Self::boundary(&self.topo_bytes_prefix, m_t);
        let cached_t_hot = if t_boundary == 0 {
            0
        } else {
            self.topo_hotness_prefix[t_boundary - 1]
        };
        let total_t = self.total_topo_hotness();
        let r_t = if total_t == 0 {
            0.0
        } else {
            cached_t_hot as f64 / total_t as f64
        };
        let n_t = self.n_tsum as f64 * (1.0 - r_t);
        // Feature side: Equations 6-8.
        let f_boundary = self.feat_boundary(m_f);
        let cached_f_hot = if f_boundary == 0 {
            0
        } else {
            self.feat_hotness_prefix[f_boundary - 1]
        };
        let u_f = self.total_feat_hotness() - cached_f_hot;
        let n_f = (self.feat_tx_per_vertex * u_f) as f64;
        PlanEvaluation {
            alpha,
            m_t,
            m_f,
            topo_cached_vertices: t_boundary,
            feat_cached_vertices: f_boundary,
            n_t,
            n_f,
        }
    }

    /// Sweeps `alpha` from 0 to 1 in steps of `delta_alpha` (§4.3.3; the
    /// paper's default interval is 0.01) and returns every evaluation.
    ///
    /// Each point is two binary searches over the prefix sums, so the
    /// whole sweep (101 points at the paper's interval) is a plain loop.
    pub fn sweep(&self, budget: u64, delta_alpha: f64) -> Vec<PlanEvaluation> {
        assert!(
            delta_alpha > 0.0 && delta_alpha <= 1.0,
            "delta alpha must be in (0, 1]"
        );
        // Integer-indexed steps: accumulating `a += delta_alpha` drifts
        // (0.01 is not exact in binary), which can emit a near-1.0
        // duplicate of the endpoint or skip it entirely.
        let n = (1.0 / delta_alpha).round() as u64;
        let mut alphas: Vec<f64> = (0..=n).map(|i| (i as f64 * delta_alpha).min(1.0)).collect();
        if *alphas.last().expect("at least alpha=0") < 1.0 {
            alphas.push(1.0);
        }
        alphas.dedup();
        alphas
            .into_iter()
            .map(|a| self.evaluate(budget, a))
            .collect()
    }

    /// The plan with minimal predicted `N_total` over the sweep. Ties
    /// break toward the smaller `alpha` (less topology cache).
    pub fn best_plan(&self, budget: u64, delta_alpha: f64) -> PlanEvaluation {
        self.sweep(budget, delta_alpha)
            .into_iter()
            .min_by(|a, b| {
                a.n_total()
                    .partial_cmp(&b.n_total())
                    .expect("traffic is finite")
                    .then(a.alpha.partial_cmp(&b.alpha).expect("alpha finite"))
            })
            .expect("sweep is non-empty")
    }

    /// Evaluates one three-tier plan: the HBM plan `(hbm_budget, alpha)`
    /// exactly as [`evaluate`](Self::evaluate), then the feature rows
    /// that missed HBM split along `Q_F` under `dram_budget` — the
    /// next-hottest prefix stays in DRAM, the tail goes to the SSD and
    /// pays `ceil(row_bytes / nvme_block_bytes)` block transactions per
    /// hotness-weighted access.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or `nvme_block_bytes == 0`.
    pub fn evaluate_tiered(
        &self,
        hbm_budget: u64,
        dram_budget: u64,
        alpha: f64,
        nvme_block_bytes: u64,
    ) -> TieredPlanEvaluation {
        assert!(nvme_block_bytes > 0, "block size must be positive");
        let plan = self.evaluate(hbm_budget, alpha);
        let hbm_bytes = plan.feat_cached_vertices as u64 * self.feat_row_bytes;
        let d_boundary = self
            .feat_boundary(hbm_bytes.saturating_add(dram_budget))
            .max(plan.feat_cached_vertices);
        let resident_hot = if d_boundary == 0 {
            0
        } else {
            self.feat_hotness_prefix[d_boundary - 1]
        };
        let u_ssd = self.total_feat_hotness() - resident_hot;
        let blocks_per_vertex = self.feat_row_bytes.div_ceil(nvme_block_bytes);
        TieredPlanEvaluation {
            plan,
            dram_feat_vertices: d_boundary - plan.feat_cached_vertices,
            ssd_feat_vertices: self.feat_hotness_prefix.len() - d_boundary,
            n_nvme: (blocks_per_vertex * u_ssd) as f64,
        }
    }

    /// Sweeps `alpha` over the three-tier objective, mirroring
    /// [`sweep`](Self::sweep).
    pub fn sweep_tiered(
        &self,
        hbm_budget: u64,
        dram_budget: u64,
        delta_alpha: f64,
        nvme_block_bytes: u64,
    ) -> Vec<TieredPlanEvaluation> {
        self.sweep(hbm_budget, delta_alpha)
            .into_iter()
            .map(|e| self.evaluate_tiered(hbm_budget, dram_budget, e.alpha, nvme_block_bytes))
            .collect()
    }

    /// The three-tier plan minimizing `N_T + N_F + ssd_penalty * N_NVME`
    /// over the alpha sweep. Ties break toward the smaller `alpha`.
    pub fn best_plan_tiered(
        &self,
        hbm_budget: u64,
        dram_budget: u64,
        delta_alpha: f64,
        nvme_block_bytes: u64,
        ssd_penalty: f64,
    ) -> TieredPlanEvaluation {
        assert!(ssd_penalty >= 0.0, "penalty must be non-negative");
        self.sweep_tiered(hbm_budget, dram_budget, delta_alpha, nvme_block_bytes)
            .into_iter()
            .min_by(|a, b| {
                a.weighted_total(ssd_penalty)
                    .partial_cmp(&b.weighted_total(ssd_penalty))
                    .expect("traffic is finite")
                    .then(
                        a.plan
                            .alpha
                            .partial_cmp(&b.plan.alpha)
                            .expect("alpha finite"),
                    )
            })
            .expect("sweep is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::GraphBuilder;

    /// A small fixture: star-ish graph, hotness concentrated on vertex 0.
    fn fixture() -> (CsrGraph, Vec<VertexId>, Vec<u64>, Vec<VertexId>, Vec<u64>) {
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.push_edge(0, v);
        }
        b.push_edge(1, 2);
        let g = b.build();
        // Hotness: v0 very hot, then decreasing.
        let a_t = vec![100, 40, 20, 10, 5, 1];
        let a_f = vec![90, 50, 25, 10, 5, 2];
        let q: Vec<VertexId> = vec![0, 1, 2, 3, 4, 5];
        (g, q.clone(), a_t, q, a_f)
    }

    fn model() -> CostModel {
        let (g, q_t, a_t, q_f, a_f) = fixture();
        CostModel::new(&g, &q_t, &a_t, &q_f, &a_f, 1000, 4, 64)
    }

    #[test]
    fn alpha_zero_means_feature_only() {
        let m = model();
        let e = m.evaluate(1000, 0.0);
        assert_eq!(e.m_t, 0);
        assert_eq!(e.topo_cached_vertices, 0);
        // No topology cache: all N_TSUM remains.
        assert_eq!(e.n_t, 1000.0);
        assert!(e.feat_cached_vertices > 0);
    }

    #[test]
    fn alpha_one_means_topology_only() {
        let m = model();
        let e = m.evaluate(1000, 1.0);
        assert_eq!(e.m_f, 0);
        assert_eq!(e.feat_cached_vertices, 0);
        // All feature hotness must cross PCIe: U_F = 182, tx/vertex = 1
        // (D=4 floats = 16 bytes, CLS=64 -> ceil=1).
        assert_eq!(e.n_f, 182.0);
    }

    #[test]
    fn huge_budget_caches_everything() {
        let m = model();
        let e = m.evaluate(1 << 30, 0.5);
        assert_eq!(e.topo_cached_vertices, 6);
        assert_eq!(e.feat_cached_vertices, 6);
        assert_eq!(e.n_t, 0.0);
        assert_eq!(e.n_f, 0.0);
        assert_eq!(e.n_total(), 0.0);
    }

    #[test]
    fn equation3_boundary_is_exact() {
        let (g, q_t, a_t, q_f, a_f) = fixture();
        let m = CostModel::new(&g, &q_t, &a_t, &q_f, &a_f, 100, 4, 64);
        // Vertex 0 costs 5*4 + 8 = 28 bytes; vertex 1 costs 1*4 + 8 = 12.
        // A 28-byte topology budget caches exactly vertex 0.
        let e = m.evaluate(28, 1.0);
        assert_eq!(e.topo_cached_vertices, 1);
        // 27 bytes caches nothing; 40 caches v0 and v1.
        assert_eq!(m.evaluate(27, 1.0).topo_cached_vertices, 0);
        assert_eq!(m.evaluate(40, 1.0).topo_cached_vertices, 2);
    }

    #[test]
    fn equation5_uses_hotness_ratio() {
        let m = model();
        // Cache exactly vertex 0's topology: R_T = 100/176.
        let e = m.evaluate(28, 1.0);
        let expected = 1000.0 * (1.0 - 100.0 / 176.0);
        assert!((e.n_t - expected).abs() < 1e-9, "n_t {}", e.n_t);
    }

    #[test]
    fn equation8_transaction_factor() {
        let (g, q_t, a_t, q_f, a_f) = fixture();
        // D = 128 floats = 512 bytes -> 8 transactions per vertex.
        let m = CostModel::new(&g, &q_t, &a_t, &q_f, &a_f, 0, 128, 64);
        let e = m.evaluate(0, 0.0);
        assert_eq!(e.n_f, 8.0 * 182.0);
    }

    #[test]
    fn n_t_monotone_nonincreasing_in_alpha() {
        let m = model();
        let evals = m.sweep(200, 0.05);
        for w in evals.windows(2) {
            assert!(w[1].n_t <= w[0].n_t + 1e-9);
            assert!(w[1].n_f + 1e-9 >= w[0].n_f);
        }
    }

    #[test]
    fn sweep_includes_endpoints_and_matches_evaluate() {
        let m = model();
        let evals = m.sweep(100, 0.25);
        assert_eq!(evals.first().map(|e| e.alpha), Some(0.0));
        assert_eq!(evals.last().map(|e| e.alpha), Some(1.0));
        for e in &evals {
            let direct = m.evaluate(100, e.alpha);
            assert_eq!(e, &direct);
        }
    }

    #[test]
    fn sweep_steps_are_strictly_increasing_with_single_endpoint() {
        let m = model();
        // 0.01 and 0.07 are not exactly representable in binary; the old
        // accumulating sweep drifted enough to duplicate or miss alpha=1.
        for delta in [0.01, 0.05, 0.07, 0.25, 0.3, 1.0] {
            let evals = m.sweep(100, delta);
            for w in evals.windows(2) {
                assert!(
                    w[1].alpha > w[0].alpha,
                    "alphas not strictly increasing at delta={delta}: \
                     {} then {}",
                    w[0].alpha,
                    w[1].alpha
                );
            }
            let ones = evals.iter().filter(|e| e.alpha == 1.0).count();
            assert_eq!(
                ones, 1,
                "alpha=1.0 must appear exactly once (delta={delta})"
            );
            assert_eq!(evals.first().map(|e| e.alpha), Some(0.0));
        }
    }

    #[test]
    fn best_plan_minimizes_total() {
        let m = model();
        let best = m.best_plan(120, 0.01);
        for e in m.sweep(120, 0.01) {
            assert!(best.n_total() <= e.n_total() + 1e-9);
        }
    }

    #[test]
    fn zero_budget_all_traffic_remains() {
        let m = model();
        let e = m.evaluate(0, 0.5);
        assert_eq!(e.n_t, 1000.0);
        assert_eq!(e.n_f, 182.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn evaluate_rejects_bad_alpha() {
        let _ = model().evaluate(10, 1.5);
    }

    #[test]
    fn empty_graph_model() {
        let g = GraphBuilder::new(0).build();
        let m = CostModel::new(&g, &[], &[], &[], &[], 5, 4, 64);
        let e = m.evaluate(100, 0.5);
        assert_eq!(e.n_t, 5.0);
        assert_eq!(e.n_f, 0.0);
    }

    #[test]
    fn infinite_dram_budget_degenerates_to_two_tiers() {
        let m = model();
        for alpha in [0.0, 0.25, 0.5, 1.0] {
            let tiered = m.evaluate_tiered(100, u64::MAX, alpha, 4096);
            assert_eq!(tiered.plan, m.evaluate(100, alpha));
            assert_eq!(tiered.ssd_feat_vertices, 0);
            assert_eq!(tiered.n_nvme, 0.0);
            assert_eq!(
                tiered.weighted_total(4.0),
                tiered.plan.n_total(),
                "no SSD rows, no NVMe term"
            );
        }
    }

    #[test]
    fn tier_split_partitions_the_feature_order() {
        let m = model();
        // Rows are 16 bytes (D=4): HBM feature side of (64, alpha=0)
        // holds 4 rows; a 16-byte DRAM budget holds 1 more; 1 on SSD.
        let t = m.evaluate_tiered(64, 16, 0.0, 4096);
        assert_eq!(t.plan.feat_cached_vertices, 4);
        assert_eq!(t.dram_feat_vertices, 1);
        assert_eq!(t.ssd_feat_vertices, 1);
        // The SSD tail is the coldest vertex (hotness 2), one block.
        assert_eq!(t.n_nvme, 2.0);
    }

    #[test]
    fn n_nvme_counts_whole_blocks() {
        let (g, q_t, a_t, q_f, a_f) = fixture();
        // D = 2048 floats = 8192 bytes -> 2 blocks of 4096 per row.
        let m = CostModel::new(&g, &q_t, &a_t, &q_f, &a_f, 0, 2048, 64);
        let t = m.evaluate_tiered(0, 0, 0.0, 4096);
        assert_eq!(t.ssd_feat_vertices, 6);
        assert_eq!(t.n_nvme, 2.0 * 182.0);
    }

    #[test]
    fn tiered_placement_is_monotone_in_hotness() {
        let m = model();
        for dram in [0u64, 16, 48, 1 << 20] {
            let t = m.evaluate_tiered(64, dram, 0.0, 4096);
            // Tiers are prefixes of Q_F: HBM before DRAM before SSD.
            assert!(t.plan.feat_cached_vertices + t.dram_feat_vertices + t.ssd_feat_vertices == 6);
        }
        // More DRAM never moves a vertex to a colder tier.
        let mut prev_ssd = usize::MAX;
        for dram in [0u64, 16, 32, 48, 64] {
            let t = m.evaluate_tiered(64, dram, 0.0, 4096);
            assert!(t.ssd_feat_vertices <= prev_ssd);
            prev_ssd = t.ssd_feat_vertices;
        }
    }

    #[test]
    fn best_plan_tiered_minimizes_weighted_total() {
        let m = model();
        let best = m.best_plan_tiered(120, 32, 0.01, 4096, 4.0);
        for e in m.sweep_tiered(120, 32, 0.01, 4096) {
            assert!(best.weighted_total(4.0) <= e.weighted_total(4.0) + 1e-9);
        }
    }

    #[test]
    fn ssd_penalty_steers_alpha_toward_features() {
        let m = model();
        // With a crushing penalty, the planner should not spend HBM on
        // topology while feature rows would fall to the SSD.
        let cheap = m.best_plan_tiered(64, 16, 0.25, 4096, 0.0);
        let costly = m.best_plan_tiered(64, 16, 0.25, 4096, 1.0e6);
        assert!(costly.ssd_feat_vertices <= cheap.ssd_feat_vertices);
        assert!(costly.plan.alpha <= cheap.plan.alpha);
    }
}
