//! # hyscale-sampler
//!
//! Mini-batch production for HyScale-GNN (paper Fig. 3 "Mini-batch
//! Sampler").
//!
//! * [`neighbor::NeighborSampler`] — GraphSAGE-style fanout sampling
//!   (paper §VI-A2: batch 1024, fanouts (25, 10)), producing layered
//!   [`minibatch::MiniBatch`]es with dst-nodes-prefix-of-src layout.
//! * [`walk::RandomWalkSampler`] — GraphSAINT-style random-walk subgraph
//!   sampling (the second sampling algorithm the paper cites, \[29]).
//! * [`batcher::EpochBatcher`] — shuffled seed scheduling with *per-trainer
//!   batch quotas*, the knob the DRM engine's `balance_work` turns.
//! * [`estimate`] — closed-form expected workload per batch, used by the
//!   design-time performance model (paper §V estimates sampling cost
//!   offline).
//!
//! Sampling is deterministic given `(seed, epoch, iteration, trainer)` so
//! hybrid runs are reproducible and semantics-preservation is testable.

#![warn(missing_docs)]

pub mod batcher;
pub mod estimate;
pub mod minibatch;
pub mod neighbor;
pub mod saint;
pub mod walk;

pub use batcher::EpochBatcher;
pub use estimate::expected_workload;
pub use minibatch::{Block, MiniBatch, WorkloadStats};
pub use neighbor::{NeighborSampler, SampleScratch};
pub use saint::{EdgeSampler, NodeSampler};
pub use walk::RandomWalkSampler;
