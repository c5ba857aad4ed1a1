//! Dynamic micro-batching policy.
//!
//! GNN inference amortizes beautifully — one batch shares the sampling
//! and extraction PCIe time across all its seeds — but waiting for a big
//! batch costs tail latency. The classic compromise is a two-knob
//! policy: close the batch as soon as `max_batch` requests are pending,
//! or when the oldest pending request has waited `max_wait` simulated
//! seconds, whichever comes first (and never before the GPU is free).

use legion_router::ClassedQueue;

use crate::workload::Request;

/// The close-batch policy: size trigger plus age trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Close as soon as this many requests are pending (and the GPU is
    /// free).
    pub max_batch: usize,
    /// Close once the oldest pending request is this old, in simulated
    /// seconds.
    pub max_wait: f64,
}

impl BatchPolicy {
    /// A policy with the given knobs.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or `max_wait` is negative or not
    /// finite.
    pub fn new(max_batch: usize, max_wait: f64) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(max_wait >= 0.0, "max_wait must be non-negative");
        assert!(max_wait.is_finite(), "max_wait must be finite");
        Self {
            max_batch,
            max_wait,
        }
    }

    /// The earliest simulated time at which the next batch launches given
    /// the queue state and the time the GPU becomes free, or `None` when
    /// nothing is pending.
    ///
    /// * full batch — launch when the GPU is free and the `max_batch`-th
    ///   request in drain order has arrived (under QoS the drain order
    ///   may differ from arrival order);
    /// * partial batch — launch when the truly oldest request's wait
    ///   expires, clamped to the GPU-free time.
    pub fn launch_time(&self, queue: &ClassedQueue<Request>, free_at: f64) -> Option<f64> {
        if queue.len() >= self.max_batch {
            let filled_at = queue
                .filled_at(self.max_batch)
                .expect("queue holds at least max_batch requests");
            Some(free_at.max(filled_at))
        } else {
            queue
                .oldest_arrival()
                .map(|oldest| free_at.max(oldest + self.max_wait))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_router::PriorityClass;

    fn queue_with(arrivals: &[f64]) -> ClassedQueue<Request> {
        let mut q = ClassedQueue::new_fifo(64);
        for (i, &a) in arrivals.iter().enumerate() {
            q.offer(Request {
                id: i as u64,
                arrival: a,
                target: 0,
                class: PriorityClass::Standard,
            });
        }
        q
    }

    #[test]
    fn empty_queue_never_launches() {
        let p = BatchPolicy::new(4, 0.5);
        assert_eq!(p.launch_time(&queue_with(&[]), 0.0), None);
    }

    #[test]
    fn partial_batch_waits_for_age_trigger() {
        let p = BatchPolicy::new(4, 0.5);
        let q = queue_with(&[1.0, 1.2]);
        // Oldest arrival 1.0 + max_wait 0.5 = 1.5; GPU free earlier.
        assert_eq!(p.launch_time(&q, 0.0), Some(1.5));
    }

    #[test]
    fn busy_gpu_clamps_the_age_trigger() {
        let p = BatchPolicy::new(4, 0.5);
        let q = queue_with(&[1.0]);
        assert_eq!(p.launch_time(&q, 9.0), Some(9.0));
    }

    #[test]
    fn full_batch_launches_when_filled_and_free() {
        let p = BatchPolicy::new(2, 10.0);
        let q = queue_with(&[1.0, 1.3, 1.4]);
        // The 2nd-oldest request arrived at 1.3: no need to wait out
        // max_wait once the size trigger fires.
        assert_eq!(p.launch_time(&q, 0.0), Some(1.3));
        assert_eq!(p.launch_time(&q, 2.0), Some(2.0));
    }

    #[test]
    fn zero_wait_launches_immediately() {
        let p = BatchPolicy::new(8, 0.0);
        let q = queue_with(&[3.0]);
        assert_eq!(p.launch_time(&q, 1.0), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_batch_rejected() {
        let _ = BatchPolicy::new(0, 0.1);
    }

    #[test]
    #[should_panic(expected = "max_wait must be finite")]
    fn infinite_wait_rejected() {
        let _ = BatchPolicy::new(4, f64::INFINITY);
    }

    /// Under a QoS queue the age trigger follows the truly-oldest
    /// request (even a low-priority one that drains last), and the size
    /// trigger follows the drain-order prefix.
    #[test]
    fn qos_queue_launch_uses_true_age_and_drain_prefix() {
        let mut q: ClassedQueue<Request> = ClassedQueue::new_qos(16, [0.5, 0.3, 0.2]);
        q.offer(Request {
            id: 0,
            arrival: 1.0,
            target: 0,
            class: PriorityClass::Batch,
        });
        q.offer(Request {
            id: 1,
            arrival: 1.4,
            target: 0,
            class: PriorityClass::Interactive,
        });
        let p = BatchPolicy::new(4, 0.5);
        // Age trigger: oldest is the Batch request at 1.0.
        assert_eq!(p.launch_time(&q, 0.0), Some(1.5));
        // Size trigger: a 2-batch became available at the Interactive
        // arrival (1.4), which drains first but arrived last.
        let p2 = BatchPolicy::new(2, 10.0);
        assert_eq!(p2.launch_time(&q, 0.0), Some(1.4));
    }
}
