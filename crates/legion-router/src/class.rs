//! Request priority classes.
//!
//! Serving traffic is not uniform: an interactive recommendation lookup
//! has a tight tail-latency budget, a background re-scoring job has
//! none. The class attached to each request drives three mechanisms
//! downstream: which Zipf head its target is drawn from (workload
//! generation), its per-class SLO accounting, and — under overload —
//! the order in which the admission queue sheds
//! ([`ClassedQueue`](crate::qos::ClassedQueue)): lower priority drains
//! first, so `Batch` is always shed strictly before `Interactive`.

/// Number of priority classes.
pub const CLASS_COUNT: usize = 3;

/// A request's priority class, highest priority first.
///
/// The discriminant order is the priority order: `Interactive` is
/// served first and shed last, `Batch` is served last and shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Latency-critical foreground traffic.
    Interactive,
    /// Ordinary request traffic (the single implicit class of older
    /// configs).
    Standard,
    /// Throughput-oriented background traffic; first to shed.
    Batch,
}

impl PriorityClass {
    /// All classes in priority order (highest first).
    pub const ALL: [PriorityClass; CLASS_COUNT] = [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Batch,
    ];

    /// Zero-based index in priority order (0 = `Interactive`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The class at priority index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= CLASS_COUNT`.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// Stable lowercase name used in metrics and JSON rows.
    pub fn as_str(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Batch => "batch",
        }
    }
}

/// What the classed queue and dispatcher need to know about a request.
///
/// `legion-serve`'s `Request` implements this; keeping it a trait lets
/// the queue live below the crate that defines the request type.
pub trait QueuedRequest: Copy {
    /// Arrival time in simulated seconds.
    fn arrival(&self) -> f64;
    /// The request's priority class.
    fn class(&self) -> PriorityClass;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_is_interactive_first() {
        assert!(PriorityClass::Interactive < PriorityClass::Standard);
        assert!(PriorityClass::Standard < PriorityClass::Batch);
        assert_eq!(PriorityClass::Interactive.index(), 0);
        assert_eq!(PriorityClass::Batch.index(), CLASS_COUNT - 1);
    }

    #[test]
    fn index_roundtrips() {
        for (i, c) in PriorityClass::ALL.iter().enumerate() {
            assert_eq!(PriorityClass::from_index(i), *c);
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(PriorityClass::Interactive.as_str(), "interactive");
        assert_eq!(PriorityClass::Standard.as_str(), "standard");
        assert_eq!(PriorityClass::Batch.as_str(), "batch");
    }
}
