//! # hyscale-gnn
//!
//! GNN models under the aggregate-update paradigm (paper §II-A, Eq. 1–2):
//!
//! ```text
//! a_v^l = AGGREGATE(h_u^{l-1} : u ∈ N(v) ∪ {v})
//! h_v^l = φ(UPDATE(a_v^l, W^l))
//! ```
//!
//! Two models from the paper's evaluation:
//! * **GCN** (Eq. 3) — degree-normalised sum with self-loop.
//! * **GraphSAGE** (Eq. 4) — `h_v ‖ mean(h_u)` concatenation.
//!
//! Both run over sampled [`hyscale_sampler::MiniBatch`] blocks with
//! hand-derived backward passes verified against finite differences
//! ([`gradcheck`]). Gradients are produced per trainer and averaged by
//! the synchronizer (synchronous SGD, paper §II-B); [`grads::Gradients`]
//! supports the *size-weighted* average that keeps unequal hybrid batch
//! splits semantically identical to one large batch.

#![warn(missing_docs)]

pub mod aggregate;
pub mod gradcheck;
pub mod grads;
pub mod model;

pub use aggregate::{
    aggregate, aggregate_gcn, aggregate_gcn_backward, aggregate_mean, aggregate_mean_backward,
    GcnCoefficients,
};
pub use grads::Gradients;
pub use model::{GnnKind, GnnModel, StepOutput};
