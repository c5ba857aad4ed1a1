//! System-wide configuration.

use legion_baselines::BuildContext;
use legion_graph::Dataset;
use legion_hw::MultiGpuServer;
use legion_partition::{
    HashPartitioner, LabelPropPartitioner, LdgPartitioner, MultilevelPartitioner, Partitioner,
};

/// Which inter-clique (S2) partitioner Legion uses.
///
/// The paper's default is XtraPulp, a scalable streaming partitioner —
/// [`PartitionerKind::Ldg`] is its stand-in here. The multilevel
/// (METIS-like) option gives slightly better cuts at higher cost; the
/// ablation experiment compares all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Streaming Linear Deterministic Greedy (XtraPulp stand-in; default).
    Ldg,
    /// Multilevel heavy-edge-matching partitioner (METIS stand-in).
    Multilevel,
    /// Balanced label propagation.
    LabelProp,
    /// Hash (no locality; ablation control).
    Hash,
}

impl PartitionerKind {
    /// Instantiates the partitioner with the given seed.
    pub fn build(self, seed: u64) -> Box<dyn Partitioner> {
        match self {
            PartitionerKind::Ldg => Box::new(LdgPartitioner::default()),
            PartitionerKind::Multilevel => Box::new(MultilevelPartitioner { seed }),
            PartitionerKind::LabelProp => Box::new(LabelPropPartitioner { seed }),
            PartitionerKind::Hash => Box::new(HashPartitioner),
        }
    }
}

/// Configuration shared by Legion and the baselines.
#[derive(Debug, Clone)]
pub struct LegionConfig {
    /// Sampling fan-outs, outermost first (paper: `[25, 10]`).
    pub fanouts: Vec<usize>,
    /// Mini-batch size (paper: 8000; scale down with the dataset).
    pub batch_size: usize,
    /// Pre-sampling epochs for hotness estimation.
    pub presample_epochs: usize,
    /// When set, caps every per-GPU cache budget (fixed-cache-ratio
    /// experiments).
    pub cache_budget_override: Option<u64>,
    /// Cost-model search interval `Δα` (paper default: 0.01).
    pub delta_alpha: f64,
    /// Hidden dimension of the trained model (paper: 256).
    pub hidden_dim: usize,
    /// Inter-clique partitioner (paper default: XtraPulp -> LDG here).
    pub partitioner: PartitionerKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LegionConfig {
    fn default() -> Self {
        Self {
            fanouts: vec![25, 10],
            batch_size: 1000,
            presample_epochs: 1,
            cache_budget_override: None,
            delta_alpha: 0.01,
            hidden_dim: 256,
            partitioner: PartitionerKind::Ldg,
            seed: 0x1e910,
        }
    }
}

impl LegionConfig {
    /// A small configuration for tests and doc examples.
    pub fn small() -> Self {
        Self {
            fanouts: vec![5, 5],
            batch_size: 64,
            hidden_dim: 16,
            ..Default::default()
        }
    }

    /// Builds the [`BuildContext`] handed to setup builders. It reserves
    /// no GPU memory for model weights; an experiment that needs a
    /// reservation (Fig. 12's replicated topology) raises the context's.
    pub fn build_context<'a>(
        &self,
        dataset: &'a Dataset,
        server: &'a MultiGpuServer,
    ) -> BuildContext<'a> {
        BuildContext {
            dataset,
            server,
            fanouts: self.fanouts.clone(),
            batch_size: self.batch_size,
            presample_epochs: self.presample_epochs,
            reserved_per_gpu: 0,
            cache_budget_override: self.cache_budget_override,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LegionConfig::default();
        assert_eq!(c.fanouts, vec![25, 10]);
        assert_eq!(c.hidden_dim, 256);
        assert!((c.delta_alpha - 0.01).abs() < 1e-12);
    }

    #[test]
    fn small_shrinks_fanouts() {
        let c = LegionConfig::small();
        assert_eq!(c.fanouts.len(), 2);
        assert!(c.batch_size <= 128);
    }
}
