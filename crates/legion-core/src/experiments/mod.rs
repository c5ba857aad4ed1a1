//! Drivers regenerating every table and figure of the paper's evaluation.
//!
//! Each submodule implements one figure/table and returns serializable
//! result rows; the `legion-bench` binaries print them in the paper's
//! layout. EXPERIMENTS.md records the measured outputs next to the
//! paper's numbers.
//!
//! All drivers follow the same scaling rule (DESIGN.md): datasets are
//! instantiated at `paper_vertices / divisor`, and the server's GPU and
//! host memory are divided by the *same* divisor, so every capacity
//! ratio — and therefore every OOM outcome and cache-fit crossover — is
//! preserved.

pub mod ablation;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod policies;
pub mod table03;

use legion_graph::Dataset;
use legion_hw::ServerSpec;

/// Scales a Table 1 server spec down by `divisor`: GPU and host memory
/// shrink with the dataset; topology, PCIe generation and GPU count stay.
pub fn scaled_server(spec: &ServerSpec, divisor: u64) -> ServerSpec {
    let mut s = spec.clone();
    s.gpu_memory = (s.gpu_memory / divisor).max(1 << 16);
    s.cpu_memory = (s.cpu_memory / divisor).max(1 << 20);
    s
}

/// Feature rows corresponding to a paper-style "cache ratio = r % |V| on
/// every GPU".
pub fn rows_for_ratio(dataset: &Dataset, ratio: f64) -> usize {
    ((dataset.graph.num_vertices() as f64) * ratio).round() as usize
}

/// A batch size that keeps every GPU's tablet several batches long even
/// at the sweep's maximum GPU count. In the paper the training set dwarfs
/// the 8000-seed batch, so per-batch neighborhood dedup is identical at
/// every GPU count; at simulation scale a too-large batch would make
/// dedup vary with the tablet size and distort the scalability curves.
pub fn policy_batch_size(
    dataset: &Dataset,
    max_gpus: usize,
    config: &crate::LegionConfig,
) -> usize {
    let per_gpu = dataset.train_vertices.len() / max_gpus.max(1);
    // Cap at 32 seeds: the paper's 8000-seed batches touch a small
    // fraction of a billion-scale graph per batch; keeping the per-batch
    // footprint small relative to |V| preserves that access skew at
    // simulation scale.
    (per_gpu / 4).clamp(8, config.batch_size.max(8)).min(32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::dataset::spec_by_name;

    #[test]
    fn scaled_server_divides_memory() {
        let s = scaled_server(&ServerSpec::dgx_v100(), 1000);
        assert_eq!(s.num_gpus, 8);
        assert_eq!(s.gpu_memory, 16 * legion_hw::GIB / 1000);
        assert!(s.nvlink.matrix()[3], "GPUs 0 and 3 share a clique");
    }

    #[test]
    fn ratio_helpers() {
        let ds = spec_by_name("PR").unwrap().instantiate(1000, 1);
        let rows = rows_for_ratio(&ds, 0.05);
        assert_eq!(
            rows,
            (ds.graph.num_vertices() as f64 * 0.05).round() as usize
        );
    }
}
