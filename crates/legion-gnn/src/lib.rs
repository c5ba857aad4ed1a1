//! GraphSAGE and GCN models over sampled mini-batches.
//!
//! The paper trains "two sampling-based GNN models: GraphSAGE and GCN,
//! which both adopt a 2-hop random neighbor sampling. The sampling
//! fan-outs are 25 and 10. The dimension of the hidden layers in both
//! models is set to 256" (§6.1). This crate implements both models over
//! the message-flow blocks produced by `legion-sampling`, with real
//! gradients via `legion-tensor`. The training loop of the convergence
//! experiment (Figure 11) is `legion-core`'s `fig11::train_curve`.

pub mod model;

pub use model::{GnnModel, ModelKind};
