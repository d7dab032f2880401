//! # hyscale-core
//!
//! The HyScale-GNN training system (the paper's primary contribution):
//!
//! * [`sync`] — the Synchronizer: size-weighted gradient all-reduce
//!   (gather → average → broadcast, paper §III-A).
//! * [`drm`] — the Dynamic Resource Management engine (paper
//!   Algorithm 1): a bottleneck-guided optimizer with `balance_work`
//!   and `balance_thread` moves.
//! * [`perf_model`] — the design-time performance model (paper §V,
//!   Eq. 5–13) used for the initial task mapping and the scalability
//!   study.
//! * [`stages`] — the pipeline-stage vocabulary plus
//!   [`StageWorkers`]: the live, resizable worker
//!   pools (sampler / loader / trainer) through which DRM
//!   `balance_thread` decisions steer the *real* pipeline.
//! * [`prefetch`] — Task-level Feature Prefetching as a *real*
//!   pipeline (paper §IV-B): one background producer thread samples
//!   (under the sampler pool) and gathers features in one loader
//!   dispatch — accelerator batches straight from the
//!   wire-precision feature view — into a queue overlapped with GNN
//!   propagation. One prefetch credit per live iteration bounds the
//!   producer; buffers are recycled per trainer role. The producer runs
//!   the DRM step itself right after sampling, so it prepares every
//!   iteration under the mapping the consumer will train it with,
//!   bitwise-identical to serial execution. Device-side staging stays a
//!   model: Algorithm 1's `max(T_Tran, T_TA)` bundle in [`stages`].
//! * [`executor`] — the hybrid trainer: 4-stage pipeline (Sampling →
//!   Feature Loading → Data Transfer → GNN Propagation) with Two-stage
//!   Feature Prefetching (paper §IV-B), functional training plus
//!   simulated device timing and measured per-stage wall-clock. It runs
//!   the Processor–Accelerator Training Protocol (paper §III-C,
//!   Listing 1) as one fork-join dispatch per iteration: a trainer's
//!   item returning its gradients is its DONE, the all-reduce after the
//!   join is the synchronizer, and the join is the ACK.
//!
//! The [`executor::HybridTrainer`] is the public entry point; see the
//! workspace `examples/` for end-to-end usage and the repository's
//! `ARCHITECTURE.md` for the pipeline diagram and where the DRM plans.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod drm;
pub mod executor;
pub mod metrics;
pub mod perf_model;
pub mod pipeline;
pub mod prefetch;
pub mod report;
pub mod stages;
pub mod sync;

pub use config::{AcceleratorKind, OptFlags, PlatformConfig, SystemConfig, TrainConfig};
pub use drm::{
    DrmEngine, IterationPlan, IterationPlanner, ScriptedDrm, ScriptedDrmEvent, ThreadAlloc,
    WorkloadSplit,
};
pub use executor::HybridTrainer;
pub use perf_model::PerfModel;
pub use prefetch::{Credits, IterationFeed, MatrixPool, PrepareCtx, PreparedIteration};
pub use report::{EpochReport, IterationReport, WallStageTimes};
pub use stages::{StageTimes, StageWorkers};
