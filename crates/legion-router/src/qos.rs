//! Classed admission queue with weighted quotas and inverse-priority
//! shedding.
//!
//! [`ClassedQueue`] is the serving tier's bounded admission queue: FIFO
//! deques under a single shared capacity, drained front to back in
//! deque order. It runs in one of two modes:
//!
//! * **FIFO mode** (`qos = false`) files every request in one deque, so
//!   drain order is arrival order, and a full queue sheds the arrival,
//!   whatever its class.
//! * **QoS mode** (`qos = true`) keeps one deque per [`PriorityClass`]
//!   and so drains in strict priority order (FIFO within a class); it
//!   sheds in strict *inverse* priority order: a
//!   full queue evicts the newest request of the lowest-priority class
//!   that is over its weighted quota, so `Batch` drains first and
//!   `Interactive` tail latency survives overload. Quotas are floors,
//!   not caps — an under-quota class is protected from eviction, and
//!   spare capacity is work-conserving (any class may use it until a
//!   higher-priority arrival reclaims it).
//!
//! Strict priority drain can starve `Batch` indefinitely under
//! sustained `Interactive` overload: as long as a higher class keeps at
//! least `k` requests queued, `take(k)` never reaches the lower deques.
//! [`ClassedQueue::with_service_floors`] installs weighted-fair minimum
//! *service* shares: each `take(k)` first reserves
//! `ceil(floor[c] * k)` slots for every floored class (lowest priority
//! first, capped by what the class has pending), then fills the rest in
//! strict priority order. Zero floors (the default) reproduce the
//! strict drain bit-for-bit; floors are work-conserving — slots a class
//! cannot fill go back to the priority fill.
//!
//! Accounting invariant: every offered request is counted exactly once
//! as either admitted or shed — an admitted-then-evicted request moves
//! from the admitted count to its class's shed count, so
//! `admitted() + shed_total()` always equals the number of offers.

use std::collections::VecDeque;

use crate::class::{PriorityClass, QueuedRequest, CLASS_COUNT};

/// Outcome of [`ClassedQueue::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request was enqueued.
    Admitted,
    /// The request was enqueued after evicting the newest queued
    /// request of the given lower-priority class.
    AdmittedEvicting(PriorityClass),
    /// The queue was full and the request was dropped.
    Shed,
}

/// Bounded per-class admission queue for one GPU.
#[derive(Debug, Clone)]
pub struct ClassedQueue<R: QueuedRequest> {
    deques: [VecDeque<R>; CLASS_COUNT],
    capacity: usize,
    quotas: [usize; CLASS_COUNT],
    floors: [f64; CLASS_COUNT],
    qos: bool,
    admitted: u64,
    shed: [u64; CLASS_COUNT],
}

impl<R: QueuedRequest> ClassedQueue<R> {
    /// A FIFO queue: arrival-order drain, shed-the-arrival when full.
    pub fn new_fifo(capacity: usize) -> Self {
        ClassedQueue {
            deques: std::array::from_fn(|_| VecDeque::new()),
            capacity,
            quotas: [0; CLASS_COUNT],
            floors: [0.0; CLASS_COUNT],
            qos: false,
            admitted: 0,
            shed: [0; CLASS_COUNT],
        }
    }

    /// A QoS queue with per-class quota floors `floor(weights[c] *
    /// capacity)`. Weights should sum to at most 1 so the floors are
    /// jointly satisfiable; this is validated by the serving config,
    /// not here.
    pub fn new_qos(capacity: usize, weights: [f64; CLASS_COUNT]) -> Self {
        let quotas = std::array::from_fn(|c| (weights[c] * capacity as f64).floor() as usize);
        ClassedQueue {
            deques: std::array::from_fn(|_| VecDeque::new()),
            capacity,
            quotas,
            floors: [0.0; CLASS_COUNT],
            qos: true,
            admitted: 0,
            shed: [0; CLASS_COUNT],
        }
    }

    /// Installs weighted-fair minimum service shares for the QoS drain:
    /// every [`take`](Self::take) of `k` requests reserves
    /// `ceil(floors[c] * k)` slots for class `c` (capped by what the
    /// class has pending) before the strict-priority fill runs, so a
    /// floored class cannot be starved by sustained higher-priority
    /// load. Floors should sum to at most 1 (validated by the serving
    /// config). All-zero floors (the default) leave the strict priority
    /// drain byte-identical. Has no effect in FIFO mode.
    pub fn with_service_floors(mut self, floors: [f64; CLASS_COUNT]) -> Self {
        self.floors = floors;
        self
    }

    /// Total queued requests across all classes.
    pub fn len(&self) -> usize {
        self.deques.iter().map(VecDeque::len).sum()
    }

    /// Whether no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.deques.iter().all(VecDeque::is_empty)
    }

    /// Queued requests of one class (QoS mode; a FIFO queue files every
    /// request under the first class).
    #[cfg(test)]
    fn class_len(&self, c: PriorityClass) -> usize {
        self.deques[c.index()].len()
    }

    /// Peeks up to `k` queued requests without draining them, in drain
    /// order (ignoring [service floors](Self::with_service_floors)):
    /// arrival order in FIFO mode, priority order across classes and
    /// FIFO within each in QoS mode. Lookahead prefetchers use this to
    /// see what the next batches will ask for; it never mutates the
    /// queue.
    pub fn peek_upto(&self, k: usize) -> impl Iterator<Item = &R> {
        self.deques.iter().flat_map(VecDeque::iter).take(k)
    }

    /// Requests admitted so far (and not later evicted).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests shed so far for one class (arrival drops plus
    /// evictions).
    pub fn shed(&self, c: PriorityClass) -> u64 {
        self.shed[c.index()]
    }

    /// Requests shed so far across all classes.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Offer an arriving request.
    pub fn offer(&mut self, r: R) -> Admission {
        let class = r.class();
        if self.len() < self.capacity {
            let filed = if self.qos { class.index() } else { 0 };
            self.deques[filed].push_back(r);
            self.admitted += 1;
            return Admission::Admitted;
        }
        if !self.qos {
            self.shed[class.index()] += 1;
            return Admission::Shed;
        }
        // Full queue: evict the newest request of the lowest-priority
        // class that is strictly below the arrival AND over its quota
        // floor. If every lower class is within quota, the arrival is
        // shed instead.
        for victim_idx in (class.index() + 1..CLASS_COUNT).rev() {
            if self.deques[victim_idx].len() > self.quotas[victim_idx] {
                self.deques[victim_idx].pop_back();
                self.shed[victim_idx] += 1;
                self.admitted -= 1;
                self.deques[class.index()].push_back(r);
                self.admitted += 1;
                return Admission::AdmittedEvicting(PriorityClass::from_index(victim_idx));
            }
        }
        self.shed[class.index()] += 1;
        Admission::Shed
    }

    /// Remove and return up to `k` requests in drain order.
    ///
    /// Drain order is deque order, FIFO within a deque, except that
    /// classes with a non-zero [service floor](Self::with_service_floors)
    /// are first reserved their minimum share of the batch; the emitted
    /// batch is always in deque order regardless of which pass claimed
    /// each slot.
    pub fn take(&mut self, k: usize) -> Vec<R> {
        let n = k.min(self.len());
        let mut out = Vec::with_capacity(n);
        // Pass 1: reserve minimum service shares, lowest priority
        // first, so the strict fill cannot consume a floored class's
        // slots. A class never reserves more than it has pending;
        // unused reservations fall through to pass 2.
        let mut claim = [0usize; CLASS_COUNT];
        let mut remaining = n;
        for c in (0..CLASS_COUNT).rev() {
            if self.floors[c] > 0.0 {
                let want = (self.floors[c] * n as f64).ceil() as usize;
                let got = want.min(self.deques[c].len()).min(remaining);
                claim[c] = got;
                remaining -= got;
            }
        }
        // Pass 2: deque order for everything unreserved.
        for (c, claimed) in claim.iter_mut().enumerate() {
            let extra = remaining.min(self.deques[c].len() - *claimed);
            *claimed += extra;
            remaining -= extra;
        }
        // Emit in deque order, FIFO within a deque — with zero floors
        // this is exactly the strict drain.
        for (c, dq) in self.deques.iter_mut().enumerate() {
            for _ in 0..claim[c] {
                out.push(dq.pop_front().expect("claim bounded by class len"));
            }
        }
        out
    }

    /// Earliest arrival time among all pending requests (independent of
    /// drain order — the age trigger protects even the lowest class
    /// from waiting forever).
    pub fn oldest_arrival(&self) -> Option<f64> {
        self.deques
            .iter()
            .filter_map(|dq| dq.front())
            .map(QueuedRequest::arrival)
            .fold(None, |acc: Option<f64>, a| {
                Some(acc.map_or(a, |b| b.min(a)))
            })
    }

    /// Latest arrival among the first `k` requests in drain order — the
    /// time at which a size-`k` batch became available — or `None` when
    /// fewer than `k` (or zero) requests are pending.
    pub fn filled_at(&self, k: usize) -> Option<f64> {
        if k == 0 || self.len() < k {
            return None;
        }
        let latest = self
            .peek_upto(k)
            .map(QueuedRequest::arrival)
            .fold(f64::NEG_INFINITY, f64::max);
        Some(latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct TestReq {
        seq: u64,
        arrival: f64,
        class: PriorityClass,
    }

    impl QueuedRequest for TestReq {
        fn arrival(&self) -> f64 {
            self.arrival
        }
        fn class(&self) -> PriorityClass {
            self.class
        }
    }

    fn req(seq: u64, class: PriorityClass) -> TestReq {
        TestReq {
            seq,
            arrival: seq as f64 * 1e-3,
            class,
        }
    }

    #[test]
    fn fifo_mode_drains_in_arrival_order_across_classes() {
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_fifo(8);
        for (seq, class) in [
            (0, PriorityClass::Batch),
            (1, PriorityClass::Interactive),
            (2, PriorityClass::Standard),
            (3, PriorityClass::Batch),
            (4, PriorityClass::Interactive),
        ] {
            assert_eq!(q.offer(req(seq, class)), Admission::Admitted);
        }
        let taken: Vec<u64> = q.take(4).iter().map(|r| r.seq).collect();
        assert_eq!(taken, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.take(4).len(), 1);
        assert!(q.is_empty());
    }

    /// The store's lookahead prefetcher reads `peek_upto`: on a
    /// multi-class FIFO queue it must see the requests the next batch
    /// drains, not the class-ordered ones.
    #[test]
    fn fifo_peek_yields_the_next_take() {
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_fifo(8);
        for (seq, class) in [
            (0, PriorityClass::Batch),
            (1, PriorityClass::Interactive),
            (2, PriorityClass::Standard),
            (3, PriorityClass::Batch),
        ] {
            q.offer(req(seq, class));
        }
        let peeked: Vec<u64> = q.peek_upto(3).map(|r| r.seq).collect();
        let taken: Vec<u64> = q.take(3).iter().map(|r| r.seq).collect();
        assert_eq!(peeked, taken);
    }

    #[test]
    fn fifo_mode_sheds_the_arrival_when_full() {
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_fifo(2);
        q.offer(req(0, PriorityClass::Batch));
        q.offer(req(1, PriorityClass::Batch));
        assert_eq!(q.offer(req(2, PriorityClass::Interactive)), Admission::Shed);
        assert_eq!(q.shed(PriorityClass::Interactive), 1);
        assert_eq!(q.shed(PriorityClass::Batch), 0);
        assert_eq!(q.admitted(), 2);
    }

    #[test]
    fn qos_drain_is_priority_ordered_fifo_within_class() {
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_qos(8, [0.5, 0.3, 0.2]);
        q.offer(req(0, PriorityClass::Batch));
        q.offer(req(1, PriorityClass::Standard));
        q.offer(req(2, PriorityClass::Interactive));
        q.offer(req(3, PriorityClass::Interactive));
        q.offer(req(4, PriorityClass::Batch));
        let peeked: Vec<u64> = q.peek_upto(5).map(|r| r.seq).collect();
        let taken: Vec<u64> = q.take(5).iter().map(|r| r.seq).collect();
        assert_eq!(taken, vec![2, 3, 1, 0, 4]);
        assert_eq!(peeked, taken);
    }

    #[test]
    fn zero_floors_leave_strict_priority_drain_unchanged() {
        let mut q: ClassedQueue<TestReq> =
            ClassedQueue::new_qos(8, [0.5, 0.3, 0.2]).with_service_floors([0.0; CLASS_COUNT]);
        q.offer(req(0, PriorityClass::Batch));
        q.offer(req(1, PriorityClass::Standard));
        q.offer(req(2, PriorityClass::Interactive));
        q.offer(req(3, PriorityClass::Interactive));
        q.offer(req(4, PriorityClass::Batch));
        let taken: Vec<u64> = q.take(5).iter().map(|r| r.seq).collect();
        assert_eq!(taken, vec![2, 3, 1, 0, 4]);
    }

    #[test]
    fn service_floor_reserves_batch_slots_under_interactive_pressure() {
        // 25% Batch floor: a take(4) must include ceil(0.25 * 4) = 1
        // Batch request even though Interactive could fill the batch.
        let mut q: ClassedQueue<TestReq> =
            ClassedQueue::new_qos(16, [0.5, 0.3, 0.2]).with_service_floors([0.0, 0.0, 0.25]);
        for seq in 0..6 {
            q.offer(req(seq, PriorityClass::Interactive));
        }
        q.offer(req(6, PriorityClass::Batch));
        q.offer(req(7, PriorityClass::Batch));
        let taken: Vec<u64> = q.take(4).iter().map(|r| r.seq).collect();
        // Emission stays in class order: three Interactive, then the
        // oldest Batch request in the reserved slot.
        assert_eq!(taken, vec![0, 1, 2, 6]);
        let again: Vec<u64> = q.take(4).iter().map(|r| r.seq).collect();
        assert_eq!(again, vec![3, 4, 5, 7]);
    }

    #[test]
    fn service_floor_is_work_conserving_when_the_class_is_empty() {
        let mut q: ClassedQueue<TestReq> =
            ClassedQueue::new_qos(8, [0.5, 0.3, 0.2]).with_service_floors([0.0, 0.0, 0.5]);
        for seq in 0..4 {
            q.offer(req(seq, PriorityClass::Interactive));
        }
        // No Batch pending: the reservation falls through and the take
        // is pure strict priority.
        let taken: Vec<u64> = q.take(4).iter().map(|r| r.seq).collect();
        assert_eq!(taken, vec![0, 1, 2, 3]);
    }

    #[test]
    fn service_floor_caps_at_what_the_class_has_pending() {
        let mut q: ClassedQueue<TestReq> =
            ClassedQueue::new_qos(8, [0.5, 0.3, 0.2]).with_service_floors([0.0, 0.0, 0.75]);
        for seq in 0..5 {
            q.offer(req(seq, PriorityClass::Interactive));
        }
        q.offer(req(5, PriorityClass::Batch));
        // Floor wants ceil(0.75 * 4) = 3 slots but only one Batch
        // request exists; the other two slots go to Interactive.
        let taken: Vec<u64> = q.take(4).iter().map(|r| r.seq).collect();
        assert_eq!(taken, vec![0, 1, 2, 5]);
    }

    #[test]
    fn qos_full_queue_evicts_batch_strictly_before_interactive() {
        // Shed-order pin: all capacity held by Batch; arriving
        // Interactive evicts Batch (newest first), never the reverse.
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_qos(4, [0.5, 0.3, 0.0]);
        for seq in 0..4 {
            assert_eq!(q.offer(req(seq, PriorityClass::Batch)), Admission::Admitted);
        }
        for seq in 4..8 {
            assert_eq!(
                q.offer(req(seq, PriorityClass::Interactive)),
                Admission::AdmittedEvicting(PriorityClass::Batch)
            );
        }
        assert_eq!(q.shed(PriorityClass::Batch), 4);
        assert_eq!(q.shed(PriorityClass::Interactive), 0);
        assert_eq!(q.class_len(PriorityClass::Interactive), 4);
        assert_eq!(q.class_len(PriorityClass::Batch), 0);
        // The evicted Batch requests were the newest ones.
        let taken: Vec<u64> = q.take(4).iter().map(|r| r.seq).collect();
        assert_eq!(taken, vec![4, 5, 6, 7]);
    }

    #[test]
    fn quota_floor_protects_an_under_quota_class() {
        // capacity 4, quotas: interactive 2, standard 1, batch 2.
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_qos(4, [0.5, 0.25, 0.5]);
        q.offer(req(0, PriorityClass::Batch));
        q.offer(req(1, PriorityClass::Batch));
        q.offer(req(2, PriorityClass::Standard));
        q.offer(req(3, PriorityClass::Standard));
        // Batch is at its quota floor (2 <= 2); Standard is over its
        // floor (2 > 1), so Standard's newest is the victim.
        assert_eq!(
            q.offer(req(4, PriorityClass::Interactive)),
            Admission::AdmittedEvicting(PriorityClass::Standard)
        );
        assert_eq!(q.shed(PriorityClass::Standard), 1);
        assert_eq!(q.shed(PriorityClass::Batch), 0);
    }

    #[test]
    fn lowest_class_arrival_is_shed_not_evicting() {
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_qos(2, [0.5, 0.5, 0.0]);
        q.offer(req(0, PriorityClass::Interactive));
        q.offer(req(1, PriorityClass::Standard));
        assert_eq!(q.offer(req(2, PriorityClass::Batch)), Admission::Shed);
        assert_eq!(q.shed(PriorityClass::Batch), 1);
    }

    #[test]
    fn window_views_track_drain_order_and_true_age() {
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_qos(8, [0.5, 0.3, 0.2]);
        assert_eq!(q.oldest_arrival(), None);
        assert_eq!(q.filled_at(1), None);
        q.offer(req(0, PriorityClass::Batch));
        q.offer(req(1, PriorityClass::Interactive));
        q.offer(req(2, PriorityClass::Standard));
        // True age: the Batch request is oldest even though it drains
        // last.
        assert_eq!(q.oldest_arrival(), Some(0.0));
        // First two in drain order are Interactive (1e-3) then Standard
        // (2e-3): the pair is complete at 2e-3.
        assert_eq!(q.filled_at(2), Some(2e-3));
        assert_eq!(q.filled_at(3), Some(2e-3));
        assert_eq!(q.filled_at(4), None);

        let mut fifo: ClassedQueue<TestReq> = ClassedQueue::new_fifo(8);
        fifo.offer(req(0, PriorityClass::Batch));
        fifo.offer(req(1, PriorityClass::Interactive));
        assert_eq!(fifo.filled_at(2), Some(1e-3));
        assert_eq!(fifo.oldest_arrival(), Some(0.0));
    }

    #[test]
    fn accounting_conserves_offers() {
        let mut q: ClassedQueue<TestReq> = ClassedQueue::new_qos(3, [0.4, 0.3, 0.0]);
        let mut offered = 0u64;
        for seq in 0..10 {
            let class = PriorityClass::from_index((seq % 3) as usize);
            q.offer(req(seq, class));
            offered += 1;
        }
        assert_eq!(q.admitted() + q.shed_total(), offered);
        let taken = q.take(10);
        assert_eq!(taken.len() as u64, q.admitted());
    }
}
