//! Calibration constants not specified in the paper.
//!
//! Every simulator constant that the paper does not give is defined here,
//! once, with its justification in its doc comment. Experiments never tune
//! these per-row; they are global properties of the simulated platform.

/// Effective PCIe bandwidth in GB/s for *pinned* burst transfers (paper
/// Eq. 8 uses "effective bandwidth of performing burst data
/// transactions"). PCIe 4.0 ×16 peaks at 32 GB/s; measured pinned-memory
/// bursts on EPYC hosts reach ~22 GB/s.
pub const PCIE_EFF_BW_GBS: f64 = 22.0;

/// Effective PCIe bandwidth for *pageable* (unpinned) transfers — what a
/// stock PyTorch `cudaMemcpy` from a fresh tensor achieves. Used by the
/// PyG baseline, which does not pre-pin mini-batch buffers.
pub const PCIE_UNPINNED_BW_GBS: f64 = 6.0;

/// Per-transfer PCIe latency (seconds): DMA setup + doorbell.
pub const PCIE_LATENCY_S: f64 = 10e-6;

/// GPU DRAM efficiency on *random row gathers* (the aggregation read
/// pattern). Paper §VI-E1 (citing \[33]): "traditional cache policies
/// fail to capture the data access pattern in GNN training"; measured
/// GNN gather kernels reach 10–20 % of peak GDDR bandwidth.
pub const GPU_GATHER_BW_EFF: f64 = 0.15;

/// GPU DRAM efficiency on streaming (coalesced) access.
pub const GPU_STREAM_BW_EFF: f64 = 0.8;

/// GPU achievable fraction of peak FLOPS on mini-batch-sized GEMMs.
pub const GPU_GEMM_EFFICIENCY: f64 = 0.45;

/// Per-iteration overhead of a PyTorch-stack GPU trainer: Python
/// dispatch, per-op kernel launches (a 2-layer GNN step issues hundreds
/// of kernels), allocator sync. The paper implements both the multi-GPU
/// baseline *and* its CPU-GPU design in PyTorch (§VI-A1), so this applies
/// to both; the FPGA path is a single fused HLS kernel and pays only
/// [`FPGA_LAUNCH_OVERHEAD_S`]. This constant is the main reason the
/// paper's CPU-FPGA design outruns the CPU-GPU design 5–6× (§VI-E1)
/// despite the A5000's 46× FLOPS advantage.
pub const GPU_FRAMEWORK_OVERHEAD_S: f64 = 30e-3;

/// Per-iteration overhead of a PyTorch-stack *CPU* trainer. The paper's
/// CPU-GPU design is implemented in PyTorch (§VI-A1), so its CPU trainer
/// pays Python dispatch like the GPU one; the CPU-FPGA design's CPU
/// trainer is native Pthreads+MKL (§III-C programming layer) and pays
/// nothing.
pub const PYTORCH_CPU_TRAINER_OVERHEAD_S: f64 = 15e-3;

/// CPU achievable fraction of peak FLOPS on GNN training steps. Far
/// below dense-GEMM efficiency: the update GEMMs are skinny, aggregation
/// is scatter-bound, and the trainer shares DRAM with the Feature
/// Loader. Calibrated so hybrid training adds ~10 % over accelerator-only
/// on the 4-FPGA node, matching the paper's Fig. 11 ("Hybrid (static)"
/// ≤ 1.13×).
pub const CPU_GEMM_EFFICIENCY: f64 = 0.15;

/// Fraction of peak DRAM bandwidth reachable by gather-dominated access.
pub const CPU_GATHER_BW_FRACTION: f64 = 0.6;

/// FPGA kernel enqueue overhead via OpenCL (single fused kernel per
/// iteration).
pub const FPGA_LAUNCH_OVERHEAD_S: f64 = 100e-6;

/// Pipeline flush overhead per epoch edge, in iterations — one of the two
/// unmodelled §VI-C latencies (filling/draining the 4-stage pipeline).
pub const PIPELINE_FLUSH_ITERS: f64 = 3.0;

/// Single-thread feature-gather throughput in GB/s (random row copies
/// from CPU DRAM); loader throughput = threads × this, capped by
/// [`CPU_GATHER_BW_FRACTION`] × socket bandwidth.
pub const GATHER_PER_THREAD_GBS: f64 = 3.0;

/// Single CPU thread neighbour-sampling rate, edges/second.
pub const CPU_SAMPLE_EPS_PER_THREAD: f64 = 4.0e6;

/// GPU on-device sampling rate, edges/second per device.
pub const GPU_SAMPLE_EPS: f64 = 400.0e6;

/// FPGA on-device sampling rate, edges/second per device (sampling is a
/// poor fit for the static datapath; modelled slower than GPU).
pub const FPGA_SAMPLE_EPS: f64 = 150.0e6;

/// FPGA aggregation vector lanes per scatter-PE (512-bit AXI / 32-bit).
pub const FPGA_VEC_LANES: usize = 16;

/// NIC bandwidth for the multi-node baselines (100 GbE), GB/s.
pub const NIC_BW_GBS: f64 = 12.5;
/// NIC message latency (seconds).
pub const NIC_LATENCY_S: f64 = 2e-6;

#[cfg(test)]
mod tests {
    #[test]
    #[allow(clippy::assertions_on_constants)] // documents calibration invariants
    fn constants_are_sane() {
        use super::*;
        assert!(PCIE_UNPINNED_BW_GBS < PCIE_EFF_BW_GBS);
        assert!(PCIE_EFF_BW_GBS < 32.0);
        assert!(GPU_GATHER_BW_EFF < GPU_STREAM_BW_EFF);
        assert!(CPU_GATHER_BW_FRACTION <= 1.0);
        assert!(GATHER_PER_THREAD_GBS > 0.0);
        assert!(GPU_FRAMEWORK_OVERHEAD_S > 100.0 * FPGA_LAUNCH_OVERHEAD_S);
    }
}
