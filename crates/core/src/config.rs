//! System configuration: platform description, optimization flags, and
//! training hyper-parameters.

use hyscale_device::pcie::PcieLink;
use hyscale_device::spec::{DeviceSpec, ALVEO_U250, EPYC_7763, RTX_A5000};
use hyscale_device::timing::{FpgaTiming, GpuTiming, TrainerTiming};
use hyscale_gnn::GnnKind;
use hyscale_tensor::Precision;
use std::sync::Arc;

/// Which accelerator family populates the node (paper evaluates CPU-GPU
/// and CPU-FPGA; `Custom` covers "AI-specific accelerators", §III-C).
#[derive(Clone)]
pub enum AcceleratorKind {
    /// GPUs driven through a PyTorch-style stack.
    Gpu(DeviceSpec),
    /// FPGAs with the fused scatter-gather/systolic kernel.
    Fpga(DeviceSpec),
    /// Any accelerator with a caller-supplied timing model — the protocol
    /// is defined at the application layer and is device-agnostic.
    Custom(Arc<dyn TrainerTiming>),
}

impl AcceleratorKind {
    /// The paper's CPU-GPU setup: RTX A5000.
    pub fn a5000() -> Self {
        AcceleratorKind::Gpu(RTX_A5000)
    }

    /// The paper's CPU-FPGA setup: Alveo U250, Table IV kernel config.
    pub fn u250() -> Self {
        AcceleratorKind::Fpga(ALVEO_U250)
    }

    /// Build the timing model for this accelerator.
    pub fn timing(&self) -> Arc<dyn TrainerTiming> {
        match self {
            AcceleratorKind::Gpu(spec) => Arc::new(GpuTiming::new(*spec)),
            AcceleratorKind::Fpga(spec) => {
                if *spec == ALVEO_U250 {
                    Arc::new(FpgaTiming::u250())
                } else {
                    Arc::new(FpgaTiming::new(*spec, 8, 2048))
                }
            }
            AcceleratorKind::Custom(t) => Arc::clone(t),
        }
    }

    /// Device spec of the accelerator.
    pub fn spec(&self) -> DeviceSpec {
        match self {
            AcceleratorKind::Gpu(s) | AcceleratorKind::Fpga(s) => *s,
            AcceleratorKind::Custom(t) => *t.spec(),
        }
    }

    /// Short display name.
    pub fn label(&self) -> &'static str {
        match self {
            AcceleratorKind::Gpu(_) => "GPU",
            AcceleratorKind::Fpga(_) => "FPGA",
            AcceleratorKind::Custom(_) => "ACCEL",
        }
    }

    /// Per-iteration overhead of the *CPU trainer* under this
    /// accelerator's software stack: the paper's CPU-GPU design is
    /// PyTorch end-to-end (§VI-A1) so its CPU trainer pays Python
    /// dispatch; the CPU-FPGA design drives the CPU trainer natively via
    /// Pthreads+MKL (§III-C).
    pub fn cpu_stack_overhead(&self) -> f64 {
        match self {
            AcceleratorKind::Gpu(_) => hyscale_device::calib::PYTORCH_CPU_TRAINER_OVERHEAD_S,
            AcceleratorKind::Fpga(_) | AcceleratorKind::Custom(_) => 0.0,
        }
    }
}

/// The heterogeneous node (paper Fig. 2).
#[derive(Clone)]
pub struct PlatformConfig {
    /// Host CPU spec (per socket).
    pub cpu: DeviceSpec,
    /// Socket count.
    pub sockets: usize,
    /// Worker threads available to CPU-resident stages.
    pub total_threads: usize,
    /// Accelerator family.
    pub accelerator: AcceleratorKind,
    /// Number of attached accelerators.
    pub num_accelerators: usize,
    /// Per-accelerator PCIe link.
    pub pcie: PcieLink,
}

impl PlatformConfig {
    /// The paper's evaluation node: dual EPYC 7763 + `n` accelerators.
    pub fn paper_node(accelerator: AcceleratorKind, num_accelerators: usize) -> Self {
        Self {
            cpu: EPYC_7763,
            sockets: 2,
            total_threads: 128,
            accelerator,
            num_accelerators,
            pcie: PcieLink::default(),
        }
    }

    /// NUMA domains of the CPU-memory-resident feature matrix: one per
    /// socket (the paper's dual-socket node keeps `X` interleaved across
    /// two memory controllers). The Feature Loader's socket-sharded
    /// gather partitions `X`'s rows into this many contiguous domains
    /// and pins each domain's copies to that socket's share of the
    /// loader worker group.
    pub fn numa_domains(&self) -> usize {
        self.sockets.max(1)
    }
}

/// Optimization toggles — the knobs of the paper's ablation (Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptFlags {
    /// CPU trainers participate (hybrid training). Off = pure offload
    /// ("Baseline" bar in Fig. 11).
    pub hybrid: bool,
    /// Dynamic Resource Management engine active.
    pub drm: bool,
    /// Two-stage Feature Prefetching (pipelined stages).
    pub tfp: bool,
}

impl OptFlags {
    /// Everything on — the full HyScale-GNN system.
    pub fn full() -> Self {
        Self {
            hybrid: true,
            drm: true,
            tfp: true,
        }
    }

    /// Pure offload baseline (Fig. 11 "Baseline").
    pub fn baseline() -> Self {
        Self {
            hybrid: false,
            drm: false,
            tfp: false,
        }
    }

    /// Hybrid with static mapping (Fig. 11 "Hybrid (Static)").
    pub fn hybrid_static() -> Self {
        Self {
            hybrid: true,
            drm: false,
            tfp: false,
        }
    }

    /// Hybrid + DRM, no prefetching (Fig. 11 "Hybrid+DRM").
    pub fn hybrid_drm() -> Self {
        Self {
            hybrid: true,
            drm: true,
            tfp: false,
        }
    }
}

/// Optimizer selection for the synchronous-SGD update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain SGD (the evaluation default).
    Sgd,
    /// SGD with momentum.
    Momentum(f32),
    /// Adam.
    Adam,
}

impl OptimizerKind {
    /// Instantiate the optimizer at the given learning rate.
    pub fn build(self, lr: f32) -> Box<dyn hyscale_tensor::Optimizer + Send> {
        match self {
            OptimizerKind::Sgd => Box::new(hyscale_tensor::Sgd::new(lr)),
            OptimizerKind::Momentum(m) => Box::new(hyscale_tensor::Sgd::with_momentum(lr, m)),
            OptimizerKind::Adam => Box::new(hyscale_tensor::Adam::new(lr)),
        }
    }
}

/// Training hyper-parameters (paper §VI-A2 defaults).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// GNN model family.
    pub model: GnnKind,
    /// Per-trainer mini-batch size (paper: 1024).
    pub batch_per_trainer: usize,
    /// Neighbor-sampling fanouts, seed-side first (paper: (25, 10)).
    pub fanouts: Vec<usize>,
    /// Hidden dimension (paper: 256).
    pub hidden_dim: usize,
    /// Learning rate for the shared optimizer.
    pub learning_rate: f32,
    /// Which optimizer performs the synchronized update.
    pub optimizer: OptimizerKind,
    /// RNG seed governing init, sampling, and shuffling.
    pub seed: u64,
    /// Cap on functional iterations per epoch (timing is extrapolated to
    /// the full-scale iteration count); `None` = run the whole epoch.
    pub max_functional_iters: Option<usize>,
    /// Wire precision of mini-batch features on the PCIe transfer —
    /// the paper's §VIII data-quantization extension. Features are
    /// really quantized/dequantized in the functional path, so accuracy
    /// effects are measurable: accelerator trainers read their features
    /// from a view of the feature matrix built once at this precision.
    pub transfer_precision: Precision,
    /// Task-level Feature Prefetching depth `d` (paper §IV-B) for the
    /// *real* executor pipeline: how many iterations' features may be
    /// alive at once — being gathered, queued, or in propagation. The
    /// background producer samples the next iteration freely, then takes
    /// one of `d` prefetch credits before it gathers; the credit comes
    /// back when the iteration is recycled after propagation. So `1`
    /// overlaps only sampling with propagation, `2` also gathers batch
    /// `i+1` while batch `i` computes (double buffering), and `0`
    /// executes every stage serially on the consumer thread. Any depth
    /// produces bitwise-identical training to `0` — prefetching is pure
    /// wall-clock overlap (enforced by `tests/equivalence.rs`).
    pub prefetch_depth: usize,
}

impl TrainConfig {
    /// The paper's defaults for a given model.
    pub fn paper_default(model: GnnKind) -> Self {
        Self {
            model,
            batch_per_trainer: 1024,
            fanouts: vec![25, 10],
            hidden_dim: 256,
            learning_rate: 0.05,
            optimizer: OptimizerKind::Sgd,
            seed: 42,
            max_functional_iters: Some(8),
            transfer_precision: Precision::F32,
            prefetch_depth: 2,
        }
    }

    /// Layer dimensions for a dataset with input width `f0` and `classes`
    /// outputs: `[f0, hidden, ..., classes]` with `fanouts.len()` layers.
    pub fn layer_dims(&self, f0: usize, classes: usize) -> Vec<usize> {
        let mut dims = vec![f0];
        for _ in 1..self.fanouts.len() {
            dims.push(self.hidden_dim);
        }
        dims.push(classes);
        dims
    }
}

/// Complete system configuration.
#[derive(Clone)]
pub struct SystemConfig {
    /// Node description.
    pub platform: PlatformConfig,
    /// Optimization toggles.
    pub opt: OptFlags,
    /// Training hyper-parameters.
    pub train: TrainConfig,
}

impl SystemConfig {
    /// Paper defaults: dual-EPYC node, 4 accelerators, all optimizations.
    pub fn paper_default(accelerator: AcceleratorKind, model: GnnKind) -> Self {
        Self {
            platform: PlatformConfig::paper_node(accelerator, 4),
            opt: OptFlags::full(),
            train: TrainConfig::paper_default(model),
        }
    }

    /// Trainer count: accelerators plus one CPU trainer when hybrid.
    pub fn num_trainers(&self) -> usize {
        self.platform.num_accelerators + usize::from(self.opt.hybrid)
    }

    /// Total seeds consumed per iteration (constant across DRM moves).
    pub fn total_batch(&self) -> usize {
        self.train.batch_per_trainer * self.num_trainers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_node_shape() {
        let p = PlatformConfig::paper_node(AcceleratorKind::u250(), 4);
        assert_eq!(p.num_accelerators, 4);
        assert_eq!(p.sockets, 2);
        assert_eq!(p.cpu.name, "AMD EPYC 7763");
    }

    #[test]
    fn total_batch_counts_cpu_trainer() {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::a5000(), GnnKind::Gcn);
        assert_eq!(cfg.num_trainers(), 5);
        assert_eq!(cfg.total_batch(), 5 * 1024);
        cfg.opt = OptFlags::baseline();
        assert_eq!(cfg.num_trainers(), 4);
        assert_eq!(cfg.total_batch(), 4 * 1024);
    }

    #[test]
    fn layer_dims_from_fanouts() {
        let t = TrainConfig::paper_default(GnnKind::Gcn);
        assert_eq!(t.layer_dims(100, 47), vec![100, 256, 47]);
        let mut t3 = t.clone();
        t3.fanouts = vec![15, 10, 5];
        assert_eq!(t3.layer_dims(128, 172), vec![128, 256, 256, 172]);
    }

    #[test]
    fn flags_presets() {
        assert!(OptFlags::full().tfp);
        assert!(!OptFlags::baseline().hybrid);
        assert!(OptFlags::hybrid_static().hybrid && !OptFlags::hybrid_static().drm);
        assert!(OptFlags::hybrid_drm().drm && !OptFlags::hybrid_drm().tfp);
    }

    #[test]
    fn custom_accelerator_timing() {
        use hyscale_device::timing::FpgaTiming;
        let custom = AcceleratorKind::Custom(Arc::new(FpgaTiming::u250()));
        assert_eq!(custom.label(), "ACCEL");
        assert_eq!(custom.spec().name, "Xilinx Alveo U250");
        assert!(custom.timing().pipelined());
    }
}
