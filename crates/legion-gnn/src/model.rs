//! GNN model definitions: layer stacks over message-flow blocks.

use rand::Rng;

use legion_sampling::MiniBatchSample;
use legion_tensor::{Matrix, Tape, VarId};

/// Which aggregation the layers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// GraphSAGE: `h' = relu([h_self | mean(h_neigh)] W + b)`.
    GraphSage,
    /// GCN (mean with self-loop): `h' = relu((h_self + mean(h_neigh))/2 W + b)`.
    Gcn,
}

/// One layer's parameters.
#[derive(Debug, Clone)]
struct Layer {
    weight: Matrix,
    bias: Matrix,
}

/// A multi-layer GNN classifier.
///
/// Layer `l` consumes the activations of hop `L - l` sources and produces
/// activations for hop `L - l - 1` destinations; the last layer emits
/// logits for the batch seeds (no ReLU).
#[derive(Debug, Clone)]
pub struct GnnModel {
    kind: ModelKind,
    layers: Vec<Layer>,
    in_dim: usize,
}

impl GnnModel {
    /// Builds a model with `num_layers` layers: `in_dim -> hidden -> ...
    /// -> num_classes`.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0`.
    pub fn new<R: Rng + ?Sized>(
        kind: ModelKind,
        in_dim: usize,
        hidden_dim: usize,
        num_classes: usize,
        num_layers: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_layers > 0, "need at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        for l in 0..num_layers {
            let d_in = if l == 0 { in_dim } else { hidden_dim };
            let d_out = if l == num_layers - 1 {
                num_classes
            } else {
                hidden_dim
            };
            let w_rows = match kind {
                ModelKind::GraphSage => 2 * d_in,
                ModelKind::Gcn => d_in,
            };
            layers.push(Layer {
                weight: Matrix::xavier(w_rows, d_out, rng),
                bias: Matrix::zeros(1, d_out),
            });
        }
        Self {
            kind,
            layers,
            in_dim,
        }
    }

    /// Flat parameter list (weights and biases interleaved per layer).
    pub fn params(&self) -> Vec<Matrix> {
        self.layers
            .iter()
            .flat_map(|l| [l.weight.clone(), l.bias.clone()])
            .collect()
    }

    /// Overwrites parameters from a flat list (inverse of [`params`](Self::params)).
    ///
    /// # Panics
    ///
    /// Panics on length or shape mismatch.
    pub fn set_params(&mut self, params: &[Matrix]) {
        assert_eq!(params.len(), self.layers.len() * 2, "param count mismatch");
        for (l, chunk) in self.layers.iter_mut().zip(params.chunks(2)) {
            assert_eq!(
                (chunk[0].rows(), chunk[0].cols()),
                (l.weight.rows(), l.weight.cols()),
                "weight shape mismatch"
            );
            l.weight = chunk[0].clone();
            l.bias = chunk[1].clone();
        }
    }

    /// Estimated forward+backward FLOPs for a batch (used by the pipeline
    /// time model): ~6 * sum(rows_l * w_rows_l * w_cols_l) per layer.
    pub fn training_flops(&self, sample: &MiniBatchSample) -> f64 {
        let mut flops = 0.0;
        for (l, layer) in self.layers.iter().enumerate() {
            let block = &sample.blocks[sample.blocks.len() - 1 - l];
            let rows = block.num_dst as f64;
            flops += 6.0 * rows * layer.weight.rows() as f64 * layer.weight.cols() as f64;
            // Aggregation cost: one add per edge per channel.
            flops += 2.0 * block.num_edges() as f64 * layer.weight.cols() as f64;
        }
        flops
    }

    /// Estimated forward-only FLOPs for a batch — the inference cost a
    /// serving deployment pays per micro-batch. Same per-layer shape math
    /// as [`Self::training_flops`] but without the 3x forward+backward
    /// factor: 2 FLOPs per multiply-accumulate in the layer matmul plus
    /// one aggregation pass over the block edges.
    pub fn inference_flops(&self, sample: &MiniBatchSample) -> f64 {
        let mut flops = 0.0;
        for (l, layer) in self.layers.iter().enumerate() {
            let block = &sample.blocks[sample.blocks.len() - 1 - l];
            let rows = block.num_dst as f64;
            flops += 2.0 * rows * layer.weight.rows() as f64 * layer.weight.cols() as f64;
            flops += 2.0 * block.num_edges() as f64 * layer.weight.cols() as f64;
        }
        flops
    }

    /// Builds the forward pass on `tape`, registering parameters and
    /// returning `(param_ids, logits)`. `input_features` must contain one
    /// row per vertex of the deepest block's `src_vertices`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the sample's hop count differs from the layer count, or
    /// the feature matrix has the wrong shape.
    pub fn forward(
        &self,
        tape: &mut Tape,
        input_features: Matrix,
        sample: &MiniBatchSample,
    ) -> (Vec<VarId>, VarId) {
        assert_eq!(
            sample.blocks.len(),
            self.layers.len(),
            "model depth must match sampled hops"
        );
        assert_eq!(
            input_features.rows(),
            sample.input_vertices().len(),
            "one feature row per input vertex"
        );
        assert_eq!(input_features.cols(), self.in_dim, "feature dim mismatch");
        let mut param_ids = Vec::with_capacity(self.layers.len() * 2);
        let mut h = tape.constant(input_features);
        for (l, layer) in self.layers.iter().enumerate() {
            let block = &sample.blocks[sample.blocks.len() - 1 - l];
            let w = tape.param(layer.weight.clone());
            let b = tape.param(layer.bias.clone());
            param_ids.push(w);
            param_ids.push(b);
            let h_self = tape.slice_rows(h, block.num_dst);
            let h_agg = tape.edge_mean(h, &block.edge_src, &block.edge_dst, block.num_dst);
            let combined = match self.kind {
                ModelKind::GraphSage => tape.concat_cols(h_self, h_agg),
                ModelKind::Gcn => {
                    let sum = tape.add(h_self, h_agg);
                    tape.scale(sum, 0.5)
                }
            };
            let lin = tape.matmul(combined, w);
            let lin = tape.add_row(lin, b);
            h = if l + 1 < self.layers.len() {
                tape.relu(lin)
            } else {
                lin
            };
        }
        (param_ids, h)
    }

    /// Forward pass without gradients; returns seed logits.
    pub fn predict(&self, input_features: Matrix, sample: &MiniBatchSample) -> Matrix {
        let mut tape = Tape::new();
        let (_, logits) = self.forward(&mut tape, input_features, sample);
        tape.value(logits).clone()
    }
}

/// Argmax class per row of `logits`.
pub fn argmax_rows(logits: &Matrix) -> Vec<u32> {
    (0..logits.rows())
        .map(|r| {
            let row = logits.row(r);
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_graph::builder::from_edges;
    use legion_graph::FeatureTable;
    use legion_hw::ServerSpec;
    use legion_sampling::access::{AccessEngine, CacheLayout, TopologyPlacement};
    use legion_sampling::extract::extract_features;
    use legion_sampling::KHopSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_sample(hops: usize) -> (MiniBatchSample, Matrix) {
        let g = from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (1, 5)]);
        let f = FeatureTable::random(6, 4, &mut StdRng::seed_from_u64(0));
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 30, 1).build();
        let engine = AccessEngine::new(&g, &f, &layout, &server, TopologyPlacement::CpuUva);
        let sampler = KHopSampler::new(vec![3; hops]);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = sampler.sample_batch(&engine, 0, &[0, 1], &mut rng, None);
        let inputs = sample.input_vertices().to_vec();
        let feats = extract_features(&engine, 0, &inputs);
        let m = Matrix::from_flat(feats.num_rows(), feats.dim(), feats.to_vec());
        (sample, m)
    }

    #[test]
    fn forward_shapes_sage_and_gcn() {
        let (sample, feats) = make_sample(2);
        let mut rng = StdRng::seed_from_u64(2);
        for kind in [ModelKind::GraphSage, ModelKind::Gcn] {
            let model = GnnModel::new(kind, 4, 8, 3, 2, &mut rng);
            let logits = model.predict(feats.clone(), &sample);
            assert_eq!(logits.rows(), 2, "one logit row per seed");
            assert_eq!(logits.cols(), 3);
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = GnnModel::new(ModelKind::GraphSage, 4, 8, 3, 2, &mut rng);
        let mut p = model.params();
        assert_eq!(p.len(), 4);
        p[0].scale_assign(0.0);
        model.set_params(&p);
        assert!(model.params()[0].as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn training_reduces_loss_on_tiny_task() {
        use legion_tensor::{Adam, Optimizer};
        let (sample, feats) = make_sample(2);
        let labels = vec![0u32, 1u32];
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = GnnModel::new(ModelKind::GraphSage, 4, 8, 2, 2, &mut rng);
        let mut opt = Adam::new(0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let (pids, logits) = model.forward(&mut tape, feats.clone(), &sample);
            let loss = tape.cross_entropy_mean(logits, &labels);
            tape.backward(loss);
            last = tape.value(loss).get(0, 0);
            first.get_or_insert(last);
            let grads: Vec<Matrix> = pids.iter().map(|&p| tape.grad(p)).collect();
            let mut params = model.params();
            opt.step(&mut params, &grads);
            model.set_params(&params);
        }
        assert!(last < 0.3 * first.unwrap(), "first {:?} last {last}", first);
    }

    #[test]
    fn gcn_differs_from_sage() {
        let (sample, feats) = make_sample(2);
        let mut rng = StdRng::seed_from_u64(5);
        let sage = GnnModel::new(ModelKind::GraphSage, 4, 8, 3, 2, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(5);
        let gcn = GnnModel::new(ModelKind::Gcn, 4, 8, 3, 2, &mut rng2);
        assert_ne!(
            sage.predict(feats.clone(), &sample),
            gcn.predict(feats, &sample)
        );
    }

    #[test]
    fn argmax_rows_basics() {
        let m = Matrix::from_flat(2, 2, vec![0.1, 0.9, 5.0, -1.0]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "model depth")]
    fn depth_mismatch_panics() {
        let (sample, feats) = make_sample(2);
        let mut rng = StdRng::seed_from_u64(6);
        let model = GnnModel::new(ModelKind::Gcn, 4, 8, 3, 1, &mut rng);
        let _ = model.predict(feats, &sample);
    }

    #[test]
    fn flops_positive_and_scale_with_depth() {
        let (s2, _) = make_sample(2);
        let mut rng = StdRng::seed_from_u64(7);
        let m2 = GnnModel::new(ModelKind::GraphSage, 4, 8, 3, 2, &mut rng);
        assert!(m2.training_flops(&s2) > 0.0);
    }

    #[test]
    fn inference_is_cheaper_than_training() {
        let (s2, _) = make_sample(2);
        let mut rng = StdRng::seed_from_u64(8);
        let m = GnnModel::new(ModelKind::GraphSage, 4, 8, 3, 2, &mut rng);
        let infer = m.inference_flops(&s2);
        let train = m.training_flops(&s2);
        assert!(infer > 0.0);
        // Forward-only is strictly cheaper; the matmul term alone is 3x
        // smaller, so the total must be well under half of training.
        assert!(infer < train / 2.0, "infer {infer} train {train}");
    }
}
