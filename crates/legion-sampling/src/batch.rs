//! Mini-batch seed generation with local or global shuffling.
//!
//! Legion "assigns training vertices of each tablet to a corresponding GPU
//! as the batch seeds, which will then be shuffled locally to generate
//! mini-batches" (§4.1 S4). The global-shuffling alternative (GNNLab,
//! Quiver) draws every batch from the entire training set; Figure 11
//! compares the two on model convergence.

use rand::Rng;

use legion_graph::VertexId;
use legion_hw::GpuId;
use legion_telemetry::{Counter, Registry};

/// Shuffle scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleMode {
    /// Shuffle only within the GPU's own tablet (Legion).
    Local,
    /// Shuffle across the full training set (GNNLab/Quiver-style).
    Global,
}

/// Per-epoch mini-batch generator over one GPU's seed list.
#[derive(Debug, Clone)]
pub struct BatchGenerator {
    seeds: Vec<VertexId>,
    batch_size: usize,
    /// `batch.gpu{g}.batches` / `batch.gpu{g}.seeds` counters, when bound
    /// to a registry via [`Self::with_telemetry`].
    meters: Option<(Counter, Counter)>,
}

impl BatchGenerator {
    /// A generator over `seeds` with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn new(seeds: Vec<VertexId>, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            seeds,
            batch_size,
            meters: None,
        }
    }

    /// Binds `batch.gpu{gpu}.batches` and `batch.gpu{gpu}.seeds` counters
    /// in `registry`; every emitted batch is then metered.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry, gpu: GpuId) -> Self {
        self.meters = Some((
            registry.counter(&format!("batch.gpu{gpu}.batches")),
            registry.counter(&format!("batch.gpu{gpu}.seeds")),
        ));
        self
    }

    /// Number of batches per epoch (last batch may be smaller).
    pub fn batches_per_epoch(&self) -> usize {
        self.seeds.len().div_ceil(self.batch_size)
    }

    /// Shuffles the seeds and returns the epoch's batches.
    pub fn epoch<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<Vec<VertexId>> {
        let n = self.seeds.len();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            self.seeds.swap(i, j);
        }
        if let Some((batches, seeds)) = &self.meters {
            batches.add(self.batches_per_epoch() as u64);
            seeds.add(n as u64);
        }
        self.seeds
            .chunks(self.batch_size)
            .map(|c| c.to_vec())
            .collect()
    }
}

/// Builds per-GPU generators for one epoch.
///
/// * `Local` — each tablet becomes one generator (tablet order preserved).
/// * `Global` — all tablets are pooled, shuffled once, and re-dealt evenly
///   round-robin across GPUs, modelling the global shuffle of
///   GNNLab/Quiver.
pub fn make_generators<R: Rng + ?Sized>(
    tablets: &[Vec<VertexId>],
    batch_size: usize,
    mode: ShuffleMode,
    rng: &mut R,
) -> Vec<BatchGenerator> {
    match mode {
        ShuffleMode::Local => tablets
            .iter()
            .map(|t| BatchGenerator::new(t.clone(), batch_size))
            .collect(),
        ShuffleMode::Global => {
            let mut pool: Vec<VertexId> = tablets.iter().flatten().copied().collect();
            let n = pool.len();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                pool.swap(i, j);
            }
            let k = tablets.len();
            let mut dealt: Vec<Vec<VertexId>> = vec![Vec::new(); k];
            for (i, v) in pool.into_iter().enumerate() {
                dealt[i % k].push(v);
            }
            dealt
                .into_iter()
                .map(|t| BatchGenerator::new(t, batch_size))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epoch_covers_all_seeds_once() {
        let mut gen = BatchGenerator::new((0..103).collect(), 10);
        let mut rng = StdRng::seed_from_u64(0);
        let batches = gen.epoch(&mut rng);
        assert_eq!(batches.len(), 11);
        assert_eq!(batches.last().unwrap().len(), 3);
        let mut all: Vec<VertexId> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn epochs_differ_in_order() {
        let mut gen = BatchGenerator::new((0..50).collect(), 50);
        let mut rng = StdRng::seed_from_u64(1);
        let e1 = gen.epoch(&mut rng);
        let e2 = gen.epoch(&mut rng);
        assert_ne!(e1, e2, "shuffling should change batch order");
    }

    #[test]
    fn local_mode_preserves_tablet_ownership() {
        let tablets = vec![vec![0, 1, 2], vec![10, 11]];
        let mut rng = StdRng::seed_from_u64(2);
        let mut gens = make_generators(&tablets, 2, ShuffleMode::Local, &mut rng);
        let b0: Vec<VertexId> = gens[0].epoch(&mut rng).into_iter().flatten().collect();
        assert_eq!(b0.len(), 3);
        assert!(b0.iter().all(|v| tablets[0].contains(v)));
    }

    #[test]
    fn global_mode_mixes_tablets() {
        let tablets = vec![(0..100).collect::<Vec<_>>(), (100..200).collect()];
        let mut rng = StdRng::seed_from_u64(3);
        let gens = make_generators(&tablets, 10, ShuffleMode::Global, &mut rng);
        // Even re-deal.
        assert_eq!(gens[0].seeds.len(), 100);
        assert_eq!(gens[1].seeds.len(), 100);
        // With global shuffling, GPU 0's seeds are (almost surely) not all
        // from tablet 0.
        let mut g0 = gens[0].clone();
        let seeds: Vec<VertexId> = g0.epoch(&mut rng).into_iter().flatten().collect();
        assert!(seeds.iter().any(|&v| v >= 100));
    }

    #[test]
    fn empty_tablet_yields_zero_batches() {
        let gen = BatchGenerator::new(vec![], 8);
        assert_eq!(gen.batches_per_epoch(), 0);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_panics() {
        let _ = BatchGenerator::new(vec![1], 0);
    }
}
