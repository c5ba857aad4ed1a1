//! Automatic cache management (§4.3): pick `(B, α)` per NVLink clique.
//!
//! `B` "is by default set as the total multi-GPU memory minus the size of
//! GPU memory reserved for GNN models and intermediate buffers in an
//! NVLink clique" (§4.3). The planner computes that default budget, runs
//! the cost-model sweep, and returns the plan with minimal predicted PCIe
//! traffic.

use crate::cost_model::{CostModel, PlanEvaluation};

/// The paper's default search interval `Δα = 0.01` (§4.3.3 footnote).
pub const DEFAULT_DELTA_ALPHA: f64 = 0.01;

/// Planner knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Bytes reserved per GPU for the GNN model, activations and
    /// intermediate buffers (subtracted from the cache budget).
    pub reserved_per_gpu: u64,
    /// Search interval for `α`.
    pub delta_alpha: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            reserved_per_gpu: 2 * 1024 * 1024 * 1024,
            delta_alpha: DEFAULT_DELTA_ALPHA,
        }
    }
}

/// A chosen cache plan for one NVLink clique.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachePlan {
    /// Clique-level cache budget `B` in bytes.
    pub budget: u64,
    /// Fraction of `B` given to the topology cache.
    pub alpha: f64,
    /// The cost model's prediction for this plan.
    pub evaluation: PlanEvaluation,
}

impl CachePlan {
    /// Topology cache bytes (`m_T`).
    pub fn topology_bytes(&self) -> u64 {
        self.evaluation.m_t
    }

    /// Feature cache bytes (`m_F`).
    pub fn feature_bytes(&self) -> u64 {
        self.evaluation.m_f
    }
}

impl PlannerConfig {
    /// Clique cache budget: per-GPU free memory minus the training
    /// reservation, summed over the clique's GPUs.
    ///
    /// Returns 0 when the reservation exceeds the GPU memory.
    pub fn clique_budget(&self, gpu_memory: u64, gpus_in_clique: usize) -> u64 {
        gpu_memory.saturating_sub(self.reserved_per_gpu) * gpus_in_clique as u64
    }

    /// Runs the §4.3.3 search within `budget` bytes: sweep `α`, pick the
    /// minimal-`N_total` plan. The budget is
    /// [`clique_budget`](Self::clique_budget) for training, and fixed by
    /// the Figure 13 experiment (10 GB / 8 GB).
    pub fn plan_with_budget(&self, model: &CostModel, budget: u64) -> CachePlan {
        let evaluation = model.best_plan(budget, self.delta_alpha);
        CachePlan {
            budget,
            alpha: evaluation.alpha,
            evaluation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::{GraphBuilder, VertexId};

    fn skewed_model(n_tsum: u64) -> CostModel {
        // 8 vertices; topology hotness heavily skewed, feature hotness
        // moderately skewed.
        let mut b = GraphBuilder::new(8);
        for v in 1..8 {
            b.push_edge(0, v);
            b.push_edge(v, 0);
        }
        let g = b.build();
        let q: Vec<VertexId> = (0..8).collect();
        let a_t = vec![500, 60, 30, 20, 10, 5, 2, 1];
        let a_f = vec![100, 90, 80, 70, 60, 50, 40, 30];
        CostModel::new(&g, &q, &a_t, &q, &a_f, n_tsum, 4, 64)
    }

    #[test]
    fn budget_subtracts_reservation() {
        let cfg = PlannerConfig {
            reserved_per_gpu: 100,
            delta_alpha: 0.1,
        };
        assert_eq!(cfg.clique_budget(1000, 4), 3600);
        // Reservation exceeding capacity saturates to zero.
        assert_eq!(cfg.clique_budget(50, 4), 0);
    }

    #[test]
    fn plan_prefers_topology_when_sampling_dominates() {
        let cfg = PlannerConfig {
            reserved_per_gpu: 0,
            delta_alpha: 0.01,
        };
        // Huge sampling traffic: worth spending cache on topology.
        let hot = cfg.plan_with_budget(&skewed_model(1_000_000), 60);
        // Zero sampling traffic: all cache should go to features.
        let cold = cfg.plan_with_budget(&skewed_model(0), 60);
        assert!(
            hot.alpha > cold.alpha,
            "hot {} cold {}",
            hot.alpha,
            cold.alpha
        );
        assert_eq!(cold.alpha, 0.0);
    }

    #[test]
    fn plan_evaluation_is_consistent() {
        let cfg = PlannerConfig {
            reserved_per_gpu: 0,
            delta_alpha: 0.05,
        };
        let model = skewed_model(1000);
        let plan = cfg.plan_with_budget(&model, cfg.clique_budget(100, 2));
        assert_eq!(plan.budget, 200);
        assert_eq!(plan.topology_bytes() + plan.feature_bytes(), plan.budget);
        assert_eq!(plan.evaluation.alpha, plan.alpha);
    }

    #[test]
    fn zero_budget_plan_is_all_traffic() {
        let cfg = PlannerConfig {
            reserved_per_gpu: 1 << 40,
            delta_alpha: 0.5,
        };
        let model = skewed_model(77);
        let plan = cfg.plan_with_budget(&model, cfg.clique_budget(100, 8));
        assert_eq!(plan.budget, 0);
        assert_eq!(plan.evaluation.n_t, 77.0);
    }
}
