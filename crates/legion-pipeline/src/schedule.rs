//! Epoch-time combinators for the three execution designs the paper
//! compares.

/// One mini-batch's stage durations on one GPU. `prep` is the sampling
//  server's work (sampling + extraction + construction, already
/// intra-batch overlapped); `train` is the backend's forward/backward.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Sampling-server seconds (data preparation).
    pub prep: f64,
    /// Training-backend seconds.
    pub train: f64,
}

impl BatchCost {
    /// Intra-batch overlap (§5): "graph sampling and graph construction
    /// can be overlapped with feature extraction" — the prep stage is the
    /// max of the two, not their sum.
    pub fn overlapped(sample: f64, extract: f64, train: f64) -> Self {
        Self {
            prep: sample.max(extract),
            train,
        }
    }

    /// No intra-batch overlap: prep is the sum.
    pub fn serial(sample: f64, extract: f64, train: f64) -> Self {
        Self {
            prep: sample + extract,
            train,
        }
    }
}

/// Legion's inter-batch pipeline: "the training of batch `B_i` can be
/// overlapped with the sampling and feature extraction of batch `B_{i+1}`"
/// (§5, Figure 7). Classic two-stage pipeline makespan.
pub fn epoch_time_pipelined(batches: &[BatchCost]) -> f64 {
    if batches.is_empty() {
        return 0.0;
    }
    // Stage-1 (prep) finish time and stage-2 (train) finish time.
    let mut prep_done = 0.0f64;
    let mut train_done = 0.0f64;
    for b in batches {
        prep_done += b.prep;
        train_done = prep_done.max(train_done) + b.train;
    }
    train_done
}

/// Fully serial execution (DGL-style: prepare, then train, per batch).
pub fn epoch_time_serial(batches: &[BatchCost]) -> f64 {
    batches.iter().map(|b| b.prep + b.train).sum()
}

/// GNNLab's factored design: `samplers` GPUs do nothing but prep,
/// `trainers` GPUs do nothing but train, connected by a queue. With
/// balanced queues the epoch time is the bottleneck side's aggregate
/// work (plus one pipeline fill of the first batch's prep).
///
/// # Panics
///
/// Panics if either group is empty while there is work for it.
pub fn epoch_time_factored(batches: &[BatchCost], samplers: usize, trainers: usize) -> f64 {
    if batches.is_empty() {
        return 0.0;
    }
    assert!(samplers > 0, "factored design needs sampling GPUs");
    assert!(trainers > 0, "factored design needs training GPUs");
    let prep_work: f64 = batches.iter().map(|b| b.prep).sum();
    let train_work: f64 = batches.iter().map(|b| b.train).sum();
    let prep_rate = prep_work / samplers as f64;
    let train_rate = train_work / trainers as f64;
    let fill = batches[0].prep;
    fill + prep_rate.max(train_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, prep: f64, train: f64) -> Vec<BatchCost> {
        vec![BatchCost { prep, train }; n]
    }

    #[test]
    fn pipelined_hides_shorter_stage() {
        // Train-dominated: epoch ~ first prep + n * train.
        let b = uniform(10, 1.0, 3.0);
        let t = epoch_time_pipelined(&b);
        assert!((t - (1.0 + 30.0)).abs() < 1e-9);
        // Prep-dominated: epoch ~ n * prep + last train.
        let b = uniform(10, 3.0, 1.0);
        let t = epoch_time_pipelined(&b);
        assert!((t - (30.0 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn pipelined_never_beats_bottleneck_or_exceeds_serial() {
        let b = vec![
            BatchCost {
                prep: 2.0,
                train: 1.0,
            },
            BatchCost {
                prep: 0.5,
                train: 4.0,
            },
            BatchCost {
                prep: 3.0,
                train: 0.2,
            },
        ];
        let pipe = epoch_time_pipelined(&b);
        let serial = epoch_time_serial(&b);
        let prep_total: f64 = b.iter().map(|x| x.prep).sum();
        let train_total: f64 = b.iter().map(|x| x.train).sum();
        assert!(pipe <= serial);
        assert!(pipe >= prep_total.max(train_total));
    }

    #[test]
    fn serial_is_plain_sum() {
        let b = uniform(4, 1.5, 2.5);
        assert!((epoch_time_serial(&b) - 16.0).abs() < 1e-12);
    }

    #[test]
    fn empty_epoch_is_free() {
        assert_eq!(epoch_time_pipelined(&[]), 0.0);
        assert_eq!(epoch_time_serial(&[]), 0.0);
        assert_eq!(epoch_time_factored(&[], 1, 1), 0.0);
    }

    #[test]
    fn factored_balances_by_split() {
        // prep-heavy workload: more samplers help.
        let b = uniform(100, 4.0, 1.0);
        let fast = epoch_time_factored(&b, 6, 2);
        let slow = epoch_time_factored(&b, 2, 6);
        assert!(fast < slow);
    }

    #[test]
    fn overlapped_batchcost_takes_max() {
        let b = BatchCost::overlapped(2.0, 5.0, 1.0);
        assert_eq!(b.prep, 5.0);
        let s = BatchCost::serial(2.0, 5.0, 1.0);
        assert_eq!(s.prep, 7.0);
    }
}
