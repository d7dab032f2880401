//! # hyscale-device
//!
//! Simulated heterogeneous devices — the substitution for the paper's
//! physical testbed (2× EPYC 7763 + 4× RTX A5000 / 4× Alveo U250).
//!
//! Two layers:
//!
//! * **Functional** — [`fpga`] simulates the scatter-gather + systolic
//!   kernel of paper §IV-C edge-for-edge (bit-accurate aggregation plus
//!   cycle/traffic counts).
//! * **Analytical** — [`timing`] implements the per-trainer propagation
//!   time models (paper Eq. 10–12) with the ⊕ operator selected per
//!   device (pipelined `max` on FPGA, serial `sum` on CPU/GPU), and
//!   [`stage`] models the CPU-side pipeline stages (sampling, feature
//!   loading) whose thread counts the DRM engine tunes.
//!
//! [`spec`] carries the Table II device specifications; [`pcie`] models
//! effective-bandwidth links (Eq. 8, 13) — device-side staging buffers
//! are not modeled per link, the core crate's Algorithm 1 bundle
//! `max(T_Tran, T_TA)` stands for them; [`memory`] checks placement
//! feasibility (the paper's motivation: large graphs do not fit device
//! memory); [`calib`] centralizes every constant that is not in the
//! paper, each justified in its own doc comment.

#![warn(missing_docs)]

pub mod calib;
pub mod fpga;
pub mod memory;
pub mod pcie;
pub mod spec;
pub mod stage;
pub mod timing;

pub use pcie::PcieLink;
pub use spec::{DeviceKind, DeviceSpec, ALVEO_U250, EPYC_7763, RTX_A5000};
pub use timing::{CpuTiming, FpgaTiming, GpuTiming, TrainerTiming};
