//! Clique-aware replica routing and priority-class QoS for the serving
//! tier.
//!
//! `legion-serve`'s original front end sprayed requests blind
//! round-robin across GPUs, so a request routinely landed on a clique
//! whose cache held none of its neighborhood, and under overload every
//! request class shed equally. This crate sits between workload
//! generation and the per-GPU admission queues and closes both gaps:
//!
//! * [`residency`] — a compact per-route-group residency index
//!   ([`ResidencyIndex`]): one bitset per NVLink clique recording which
//!   vertices the clique's cache holds, cheap to rebuild whenever a
//!   plan commits;
//! * [`dispatch`] — the residency-aware dispatcher ([`Dispatcher`]):
//!   scores candidate cliques by expected cached-neighborhood coverage
//!   of the request's target and a deterministic probe of its first
//!   neighbors, picks within a clique (and breaks coverage ties) in
//!   batch-filling order — the fullest open micro-batch first — and
//!   spills to the globally least-loaded GPU when the best clique's
//!   queues are saturated;
//! * [`class`] — the request priority classes
//!   ([`PriorityClass::Interactive`] / [`Standard`](PriorityClass::Standard)
//!   / [`Batch`](PriorityClass::Batch)) and the [`QueuedRequest`] trait
//!   the queue and dispatcher are generic over;
//! * [`qos`] — the classed admission queue ([`ClassedQueue`]): weighted
//!   per-class admission quotas with work-conserving borrowing, strict
//!   inverse-priority eviction (a full queue sheds `Batch` strictly
//!   before `Interactive`), priority-ordered drain, and optional
//!   weighted-fair minimum service shares
//!   ([`ClassedQueue::with_service_floors`]) so sustained
//!   `Interactive` overload cannot starve `Batch`.
//!
//! Everything here is deterministic and RNG-free: routing scores, load
//! tie-breaks and shed decisions depend only on the request stream and
//! queue states, so a seeded serving run reproduces byte-identical
//! metric snapshots.

pub mod class;
pub mod dispatch;
pub mod qos;
pub mod residency;

pub use class::{PriorityClass, QueuedRequest, CLASS_COUNT};
pub use dispatch::{fill_probe, Dispatcher, RouteDecision, RouterConfig, RouterPolicy};
pub use qos::{Admission, ClassedQueue};
pub use residency::ResidencyIndex;
