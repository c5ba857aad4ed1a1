//! Link prediction — the second GNN task of the paper's Table 3.
//!
//! A [`GnnModel`] is used as an *encoder*: its output layer produces an
//! embedding per seed vertex, edges are scored by the dot product of
//! their endpoint embeddings, and training minimizes binary cross-entropy
//! against positive (real) and negative (random) edges. Table 3 sizes the
//! LP training set at 80% of the graph's edges, which is why one LP epoch
//! costs minutes where a node-classification epoch costs seconds.

use std::collections::HashMap;

use rand::Rng;

use legion_graph::{CsrGraph, VertexId};
use legion_hw::GpuId;
use legion_sampling::access::AccessEngine;
use legion_sampling::extract::extract_features;
use legion_sampling::KHopSampler;
use legion_tensor::{Adam, Matrix, Optimizer, Tape};

use crate::model::GnnModel;

/// One mini-batch of edges to score: positives from the graph, negatives
/// with a random destination.
#[derive(Debug, Clone)]
pub struct LinkBatch {
    /// Source endpoint per example.
    pub src: Vec<VertexId>,
    /// Destination endpoint per example.
    pub dst: Vec<VertexId>,
    /// 1.0 for a real edge, 0.0 for a negative sample.
    pub labels: Vec<f32>,
}

impl LinkBatch {
    /// All distinct endpoints, sorted (the seeds handed to the sampler).
    pub fn seeds(&self) -> Vec<VertexId> {
        let mut s: Vec<VertexId> = self.src.iter().chain(&self.dst).copied().collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Samples `num_pos` uniform positive edges plus `neg_per_pos` negatives
/// each (uniform random destination; collisions with real edges are rare
/// on sparse graphs and tolerated, as in standard LP training).
///
/// # Panics
///
/// Panics if the graph has no edges while positives are requested.
pub fn sample_link_batch<R: Rng + ?Sized>(
    graph: &CsrGraph,
    num_pos: usize,
    neg_per_pos: usize,
    rng: &mut R,
) -> LinkBatch {
    assert!(
        graph.num_edges() > 0 || num_pos == 0,
        "cannot sample positive edges from an empty graph"
    );
    let n = graph.num_vertices() as VertexId;
    let mut src = Vec::with_capacity(num_pos * (1 + neg_per_pos));
    let mut dst = Vec::with_capacity(src.capacity());
    let mut labels = Vec::with_capacity(src.capacity());
    let offsets = graph.row_offsets();
    for _ in 0..num_pos {
        // Uniform edge: pick a random edge index, binary-search its row.
        let e = rng.gen_range(0..graph.num_edges() as u64);
        let u = offsets.partition_point(|&o| o <= e) as VertexId - 1;
        let v = graph.col_indices()[e as usize];
        src.push(u);
        dst.push(v);
        labels.push(1.0);
        for _ in 0..neg_per_pos {
            src.push(u);
            dst.push(rng.gen_range(0..n));
            labels.push(0.0);
        }
    }
    LinkBatch { src, dst, labels }
}

/// Scores a batch: encodes the seed vertices, gathers endpoint embedding
/// rows (via single-edge `edge_mean`, which is an exact differentiable
/// gather), and returns the dot-product logits plus the parameter ids.
fn score_batch(
    encoder: &GnnModel,
    tape: &mut Tape,
    input_features: Matrix,
    sample: &legion_sampling::MiniBatchSample,
    batch: &LinkBatch,
) -> (Vec<legion_tensor::VarId>, legion_tensor::VarId) {
    let (pids, embeddings) = encoder.forward(tape, input_features, sample);
    // Seed row index per vertex.
    let index: HashMap<VertexId, u32> = sample
        .seeds
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let gather = |tape: &mut Tape, emb, endpoints: &[VertexId]| {
        let edge_src: Vec<u32> = endpoints.iter().map(|v| index[v]).collect();
        let edge_dst: Vec<u32> = (0..endpoints.len() as u32).collect();
        tape.edge_mean(emb, &edge_src, &edge_dst, endpoints.len())
    };
    let src_emb = gather(tape, embeddings, &batch.src);
    let dst_emb = gather(tape, embeddings, &batch.dst);
    let scores = tape.rowwise_dot(src_emb, dst_emb);
    (pids, scores)
}

/// Trains one LP step; returns the batch loss.
#[allow(clippy::too_many_arguments)]
pub fn train_link_batch<R: Rng + ?Sized>(
    encoder: &mut GnnModel,
    engine: &AccessEngine<'_>,
    gpu: GpuId,
    sampler: &KHopSampler,
    batch: &LinkBatch,
    optimizer: &mut Adam,
    rng: &mut R,
) -> f32 {
    if batch.is_empty() {
        return 0.0;
    }
    let seeds = batch.seeds();
    let sample = sampler.sample_batch(engine, gpu, &seeds, rng, None);
    let inputs = sample.input_vertices().to_vec();
    let feats = extract_features(engine, gpu, &inputs);
    let x = Matrix::from_flat(feats.num_rows(), feats.dim(), feats.as_slice().to_vec());
    let mut tape = Tape::new();
    let (pids, scores) = score_batch(encoder, &mut tape, x, &sample, batch);
    let loss = tape.bce_with_logits_mean(scores, &batch.labels);
    tape.backward(loss);
    let value = tape.value(loss).get(0, 0);
    let grads: Vec<Matrix> = pids.iter().map(|&p| tape.grad(p)).collect();
    let mut params = encoder.params();
    optimizer.step(&mut params, &grads);
    encoder.set_params(&params);
    value
}

/// Scores a batch without training; returns the raw logits.
pub fn predict_links<R: Rng + ?Sized>(
    encoder: &GnnModel,
    engine: &AccessEngine<'_>,
    gpu: GpuId,
    sampler: &KHopSampler,
    batch: &LinkBatch,
    rng: &mut R,
) -> Vec<f32> {
    if batch.is_empty() {
        return Vec::new();
    }
    let seeds = batch.seeds();
    let sample = sampler.sample_batch(engine, gpu, &seeds, rng, None);
    let inputs = sample.input_vertices().to_vec();
    let feats = extract_features(engine, gpu, &inputs);
    let x = Matrix::from_flat(feats.num_rows(), feats.dim(), feats.as_slice().to_vec());
    let mut tape = Tape::new();
    let (_, scores) = score_batch(encoder, &mut tape, x, &sample, batch);
    tape.value(scores).as_slice().to_vec()
}

/// Area under the ROC curve of `scores` against 0/1 `labels` — the
/// standard LP quality metric. 0.5 = random.
pub fn auc(scores: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "one label per score");
    let mut pairs: Vec<(f32, f32)> = scores.iter().copied().zip(labels.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
    let mut rank_sum = 0.0f64;
    let mut positives = 0u64;
    for (rank, (_, label)) in pairs.iter().enumerate() {
        if *label > 0.5 {
            rank_sum += (rank + 1) as f64;
            positives += 1;
        }
    }
    let negatives = (pairs.len() as u64).saturating_sub(positives);
    if positives == 0 || negatives == 0 {
        return 0.5;
    }
    (rank_sum - (positives * (positives + 1)) as f64 / 2.0) / (positives as f64 * negatives as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use legion_graph::generate::SbmConfig;
    use legion_graph::GraphBuilder;
    use legion_hw::ServerSpec;
    use legion_sampling::access::{CacheLayout, TopologyPlacement};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn link_batch_shapes_and_seeds() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = SbmConfig {
            num_vertices: 100,
            num_communities: 2,
            ..Default::default()
        }
        .generate(&mut rng)
        .graph;
        let b = sample_link_batch(&g, 10, 2, &mut rng);
        assert_eq!(b.len(), 30);
        assert_eq!(b.labels.iter().filter(|&&l| l > 0.5).count(), 10);
        // Every positive is a real edge.
        for i in (0..30).step_by(3) {
            assert!(g.neighbors(b.src[i]).contains(&b.dst[i]));
        }
        let seeds = b.seeds();
        assert!(seeds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn auc_metric_basics() {
        // Perfect separation.
        assert!((auc(&[0.1, 0.2, 0.8, 0.9], &[0.0, 0.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // Inverted.
        assert!(auc(&[0.9, 0.8, 0.1], &[0.0, 0.0, 1.0]) < 0.01);
        // Degenerate: all one class.
        assert_eq!(auc(&[0.5, 0.6], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn link_prediction_learns_on_sbm() {
        let mut rng = StdRng::seed_from_u64(2);
        let sbm = SbmConfig {
            num_vertices: 400,
            num_communities: 4,
            avg_degree: 12,
            intra_prob: 0.95,
            feature_dim: 16,
            feature_separation: 2.0,
            feature_noise: 0.2,
            hub_exponent: 0.0,
        }
        .generate(&mut rng);
        let layout = CacheLayout::none(1);
        let server = ServerSpec::custom(1, 1 << 40, 1).build();
        let engine = AccessEngine::new(
            &sbm.graph,
            &sbm.features,
            &layout,
            &server,
            TopologyPlacement::CpuUva,
        );
        let sampler = KHopSampler::new(vec![5, 5]);
        let mut encoder = GnnModel::new(ModelKind::GraphSage, 16, 32, 16, 2, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..40 {
            let batch = sample_link_batch(&sbm.graph, 32, 1, &mut rng);
            last_loss = train_link_batch(
                &mut encoder,
                &engine,
                0,
                &sampler,
                &batch,
                &mut opt,
                &mut rng,
            );
            first_loss.get_or_insert(last_loss);
        }
        assert!(
            last_loss < 0.8 * first_loss.unwrap(),
            "loss {first_loss:?} -> {last_loss}"
        );
        // Held-out AUC well above random.
        let test = sample_link_batch(&sbm.graph, 100, 1, &mut rng);
        let scores = predict_links(&encoder, &engine, 0, &sampler, &test, &mut rng);
        let a = auc(&scores, &test.labels);
        assert!(a > 0.7, "AUC {a}");
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = GraphBuilder::new(4).build();
        let batch = sample_link_batch(&g, 0, 3, &mut rng);
        assert!(batch.is_empty());
        assert_eq!(auc(&[], &[]), 0.5);
    }
}
