//! # hyscale-tensor
//!
//! Dense `f32` linear-algebra substrate for the HyScale-GNN reproduction.
//!
//! The paper's GNN trainers (paper §II-A) reduce to three kernel families:
//!
//! * **GEMM** — the feature-update stage (`h = φ(a·W + b)`) and its
//!   backward transposes. [`gemm`] provides cache-blocked, Rayon-parallel
//!   `NN`/`TN`/`NT` multiplies, each also as a slice-based accumulating
//!   kernel (`C += op(A)·op(B)`) for split-weight updates.
//! * **Element-wise ops** — ReLU and friends ([`ops`]).
//! * **Loss** — softmax cross-entropy with fused gradient ([`loss`]).
//!
//! Plus the training-side pieces: Xavier/Glorot initialisation ([`init`])
//! and SGD/Adam optimizers ([`optim`]).
//!
//! Everything is deterministic given a seed; parallel reductions are
//! arranged so that thread count does not change results (parallelism is
//! over independent output rows), which the semantics-preservation tests
//! in the workspace rely on.

#![warn(missing_docs)]

pub mod gemm;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod quant;

pub use gemm::{gemm_nn, gemm_nn_acc, gemm_nt, gemm_nt_acc, gemm_tn, gemm_tn_acc, Gemm};
pub use init::{xavier_uniform, Initializer};
pub use loss::{accuracy, softmax_cross_entropy, LossOutput};
pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Sgd};
pub use quant::Precision;
