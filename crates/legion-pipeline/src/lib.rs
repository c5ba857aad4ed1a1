//! The fine-grained GNN training pipeline (§5, Figure 7) as a
//! discrete-event time model.
//!
//! Legion overlaps, per GPU, the sampling server's work (batch generation,
//! neighbor sampling, feature extraction, subgraph construction) with the
//! training backend's work (forward/backward) across consecutive batches.
//! On the simulator, each batch's stage *durations* are derived from the
//! metered traffic (bytes / payload-dependent effective bandwidth) and a
//! FLOP count (FLOPs / device throughput); the schedules in [`schedule`]
//! then combine them exactly as the paper's inter-batch/intra-batch
//! pipeline, a serial baseline (DGL), or GNNLab's factored design would.
//!
//! * [`TimeModel`] — stage durations from traffic and FLOPs; defined in
//!   `legion-hw` (`legion_hw::time_model`) and re-exported here,
//! * [`schedule`] — pipelined / serial / factored epoch-time combinators.
//!
//! # Examples
//!
//! ```
//! use legion_pipeline::{epoch_time_pipelined, epoch_time_serial, BatchCost};
//!
//! // Four batches where preparation and training each take 1s.
//! let batches = vec![BatchCost { prep: 1.0, train: 1.0 }; 4];
//! // Serial: 8s. Pipelined: the train of batch i overlaps the prep of
//! // batch i+1, so only the first prep is exposed: 5s.
//! assert_eq!(epoch_time_serial(&batches), 8.0);
//! assert_eq!(epoch_time_pipelined(&batches), 5.0);
//! ```

pub mod schedule;
pub mod stage;

pub use legion_hw::TimeModel;
pub use schedule::{epoch_time_factored, epoch_time_pipelined, epoch_time_serial, BatchCost};
pub use stage::{QueueDepthMeter, StageRecorder};
