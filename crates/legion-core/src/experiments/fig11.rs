//! Figure 11 — model convergence: local vs. global shuffling.
//!
//! Legion shuffles batch seeds only within each GPU's tablet (local
//! shuffling); GNNLab/Quiver shuffle globally. The paper shows local
//! shuffling "could catch up with the convergence speed of global
//! shuffling" on GraphSAGE and GCN over PR on the Siton server (NV2).
//!
//! This driver trains *real* models (via `legion-tensor`) in synchronous
//! data-parallel fashion: at every step each GPU computes gradients on
//! its own mini-batch and the averaged gradient updates the shared model
//! — exactly the setup whose convergence the shuffling scope could hurt.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use legion_gnn::model::argmax_rows;
use legion_gnn::{GnnModel, ModelKind};
use legion_graph::{Dataset, VertexId};
use legion_hw::ServerSpec;
use legion_partition::{hierarchical_partition, MultilevelPartitioner};
use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
use legion_sampling::batch::{make_generators, ShuffleMode};
use legion_sampling::extract::extract_features;
use legion_sampling::KHopSampler;
use legion_tensor::{Adam, Matrix, Optimizer, Tape};

use crate::config::LegionConfig;

/// One epoch's convergence measurements.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Point {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Accuracy on the held-out test vertices.
    pub test_accuracy: f64,
}

/// One (model, shuffle mode) curve.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Curve {
    /// "GraphSAGE" or "GCN".
    pub model: String,
    /// "local" or "global".
    pub shuffle: String,
    /// Per-epoch points.
    pub points: Vec<Fig11Point>,
}

/// Trains one configuration and records its convergence curve.
#[allow(clippy::too_many_arguments)]
pub fn train_curve(
    dataset: &Dataset,
    tablets: &[Vec<VertexId>],
    mode: ShuffleMode,
    kind: ModelKind,
    config: &LegionConfig,
    epochs: usize,
    test_vertices: &[VertexId],
    seed: u64,
) -> Fig11Curve {
    let labels = dataset
        .labels
        .as_ref()
        .expect("convergence experiment needs a labeled dataset");
    let num_classes = (*labels.iter().max().expect("non-empty labels") + 1) as usize;
    let server = ServerSpec::custom(tablets.len(), 1 << 40, 1).build();
    let layout = CacheLayout::none(tablets.len());
    let engine = AccessEngine::new(
        &dataset.graph,
        &dataset.features,
        &layout,
        &server,
        TopologyPlacement::CpuUva,
    );
    let sampler = KHopSampler::new(config.fanouts.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = GnnModel::new(
        kind,
        dataset.features.dim(),
        config.hidden_dim,
        num_classes,
        config.fanouts.len(),
        &mut rng,
    );
    let mut opt = Adam::new(0.01);
    let mut points = Vec::with_capacity(epochs);
    for epoch in 1..=epochs {
        // Regenerate the per-GPU seed streams each epoch (global mode
        // re-deals the pool; local mode reshuffles within tablets).
        let mut generators = make_generators(tablets, config.batch_size, mode, &mut rng);
        let mut per_gpu_batches: Vec<Vec<Vec<VertexId>>> =
            generators.iter_mut().map(|g| g.epoch(&mut rng)).collect();
        let steps = per_gpu_batches.iter().map(|b| b.len()).max().unwrap_or(0);
        let mut loss_sum = 0.0f64;
        let mut loss_count = 0usize;
        for step in 0..steps {
            // Synchronous data-parallel step: average gradients over the
            // GPUs that still have a batch.
            let mut grad_sum: Option<Vec<Matrix>> = None;
            let mut contributors = 0usize;
            for (gpu, batches) in per_gpu_batches.iter_mut().enumerate() {
                let Some(batch) = batches.get(step) else {
                    continue;
                };
                if batch.is_empty() {
                    continue;
                }
                let sample = sampler.sample_batch(&engine, gpu, batch, &mut rng, None);
                let inputs = sample.input_vertices().to_vec();
                let feats = extract_features(&engine, gpu, &inputs);
                let x = Matrix::from_flat(feats.num_rows(), feats.dim(), feats.to_vec());
                let y: Vec<u32> = batch.iter().map(|&v| labels[v as usize]).collect();
                let mut tape = Tape::new();
                let (pids, logits) = model.forward(&mut tape, x, &sample);
                let loss = tape.cross_entropy_mean(logits, &y);
                tape.backward(loss);
                loss_sum += tape.value(loss).get(0, 0) as f64;
                loss_count += 1;
                let grads: Vec<Matrix> = pids.iter().map(|&p| tape.grad(p)).collect();
                match &mut grad_sum {
                    None => grad_sum = Some(grads),
                    Some(acc) => {
                        for (a, g) in acc.iter_mut().zip(&grads) {
                            a.add_assign(g);
                        }
                    }
                }
                contributors += 1;
            }
            if let Some(mut grads) = grad_sum {
                let inv = 1.0 / contributors as f32;
                for g in &mut grads {
                    g.scale_assign(inv);
                }
                let mut params = model.params();
                opt.step(&mut params, &grads);
                model.set_params(&params);
            }
        }
        // Test accuracy.
        let mut correct = 0usize;
        for chunk in test_vertices.chunks(config.batch_size) {
            let sample = sampler.sample_batch(&engine, 0, chunk, &mut rng, None);
            let inputs = sample.input_vertices().to_vec();
            let feats = extract_features(&engine, 0, &inputs);
            let x = Matrix::from_flat(feats.num_rows(), feats.dim(), feats.to_vec());
            let logits = model.predict(x, &sample);
            correct += argmax_rows(&logits)
                .iter()
                .zip(chunk)
                .filter(|(p, &v)| **p == labels[v as usize])
                .count();
        }
        points.push(Fig11Point {
            epoch,
            train_loss: if loss_count == 0 {
                0.0
            } else {
                loss_sum / loss_count as f64
            },
            test_accuracy: correct as f64 / test_vertices.len().max(1) as f64,
        });
    }
    Fig11Curve {
        model: match kind {
            ModelKind::GraphSage => "GraphSAGE",
            ModelKind::Gcn => "GCN",
        }
        .to_string(),
        shuffle: match mode {
            ShuffleMode::Local => "local",
            ShuffleMode::Global => "global",
        }
        .to_string(),
        points,
    }
}

/// Full Figure 11: both models x both shuffle modes on PR / Siton (NV2).
pub fn run(divisor: u64, config: &LegionConfig, epochs: usize) -> Vec<Fig11Curve> {
    let dataset = legion_graph::dataset::spec_by_name("PR")
        .expect("PR registered")
        .instantiate(divisor, config.seed);
    // Hierarchical tablets on a Siton-like NV2 topology (8 GPUs).
    let topo = ServerSpec::siton().nvlink;
    let plan = hierarchical_partition(
        &dataset.graph,
        &dataset.train_vertices,
        &topo,
        &MultilevelPartitioner::default(),
    );
    // Held-out test set: vertices not in the training set.
    let train_set: std::collections::HashSet<VertexId> =
        dataset.train_vertices.iter().copied().collect();
    let test: Vec<VertexId> = (0..dataset.graph.num_vertices() as VertexId)
        .filter(|v| !train_set.contains(v))
        .step_by(7)
        .take(600)
        .collect();
    let mut out = Vec::new();
    for kind in [ModelKind::GraphSage, ModelKind::Gcn] {
        for mode in [ShuffleMode::Local, ShuffleMode::Global] {
            out.push(train_curve(
                &dataset,
                &plan.tablets,
                mode,
                kind,
                config,
                epochs,
                &test,
                config.seed ^ 0xf16,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_shuffling_matches_global_convergence() {
        let mut config = LegionConfig::small();
        config.batch_size = 48;
        let curves = run(4000, &config, 5);
        assert_eq!(curves.len(), 4);
        for model in ["GraphSAGE", "GCN"] {
            let local = curves
                .iter()
                .find(|c| c.model == model && c.shuffle == "local")
                .unwrap();
            let global = curves
                .iter()
                .find(|c| c.model == model && c.shuffle == "global")
                .unwrap();
            let la = local.points.last().unwrap().test_accuracy;
            let ga = global.points.last().unwrap().test_accuracy;
            // Both learn far beyond the 1/16 random baseline...
            assert!(la > 0.3, "{model} local accuracy {la}");
            assert!(ga > 0.3, "{model} global accuracy {ga}");
            // ...and local shuffling keeps pace with global shuffling.
            assert!(
                la > ga - 0.12,
                "{model}: local {la} lags global {ga} too much"
            );
            // Loss decreased over training.
            assert!(
                local.points.last().unwrap().train_loss < local.points.first().unwrap().train_loss
            );
        }
    }
}
