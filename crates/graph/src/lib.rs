//! # hyscale-graph
//!
//! Graph substrate for the HyScale-GNN reproduction.
//!
//! The paper trains on ogbn-products, ogbn-papers100M and MAG240M (homo)
//! — graphs with up to 1.6 B edges that live in *CPU memory* (paper §I,
//! §III-B). This crate provides:
//!
//! * [`csr::CsrGraph`] — compressed sparse row adjacency, the layout the
//!   samplers and the FPGA kernel walk.
//! * [`builder::GraphBuilder`] — edge-list ingestion with sorting/dedup.
//! * [`generator`] — seeded synthetic generators (R-MAT, preferential
//!   attachment, Erdős–Rényi, stochastic block model). The SBM plants
//!   learnable community labels so convergence tests train on real signal.
//! * [`dataset`] — Table III dataset specs with full-scale statistics and
//!   scaled-down functional materialization.
//! * [`features`] — CPU-resident feature matrix + label synthesis, and
//!   the Feature Loader's gather.

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod dataset;
pub mod degree;
pub mod features;
pub mod generator;
pub mod io;
pub mod stats;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dataset::{Dataset, DatasetSpec};
pub use types::{EdgeCount, GraphError, VertexId};
