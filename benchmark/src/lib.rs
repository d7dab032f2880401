//! The repository benchmark for the HyScale-GNN reproduction.
//!
//! One process runs one [`workload`] for one seed. An untraced run
//! through `HybridTrainer` ([`run`]) gives the end-to-end metrics; with
//! tracing on, a single-thread replay of the same iterations through
//! each layer's public functions ([`replay`]) gives the per-layer
//! metrics ([`metrics`]). `README.md` in this directory says why each
//! workload exists and how to read a run.

pub mod cli;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod workload;
