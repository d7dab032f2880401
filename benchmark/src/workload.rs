//! The benchmark's two workloads.
//!
//! Both train one CPU trainer plus 4 × Alveo U250 (5 trainers)
//! with fanouts (25, 10), hidden width 32 and 512 seeds per trainer.
//! They differ in dataset, model, wire precision, prefetch depth and
//! whether DRM runs; `README.md` says why each exists, and why the
//! GraphSAGE task at prefetch depth 2 is not one of them.

use hyscale_core::{AcceleratorKind, OptFlags, SystemConfig};
use hyscale_gnn::GnnKind;
use hyscale_graph::dataset::{DatasetSpec, OGBN_PAPERS100M, OGBN_PRODUCTS};
use hyscale_graph::features::Splits;
use hyscale_graph::Dataset;
use hyscale_tensor::Precision;

/// Neighbor-sampling fanouts, seed side first.
pub const FANOUTS: [usize; 2] = [25, 10];
/// Hidden feature width.
pub const HIDDEN_DIM: usize = 32;
/// Share of the synthesized vertices labelled for training. The specs'
/// own OGB shares would leave two iterations per epoch at these scales.
const TRAIN_FRACTION: f64 = 0.6;
const VAL_FRACTION: f64 = 0.2;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Full-scale dataset the inputs are synthesized from.
    pub spec: DatasetSpec,
    /// Down-scale factor handed to `DatasetSpec::materialize`.
    pub scale: u64,
    /// GNN model.
    pub model: GnnKind,
    /// Wire precision of accelerator-bound features.
    pub precision: Precision,
    /// Task-level Feature Prefetching depth (0 = every stage inline).
    pub prefetch_depth: usize,
    /// Whether the DRM engine re-balances the trainers at run time.
    pub drm: bool,
    /// Seeds per trainer per iteration.
    pub batch_per_trainer: usize,
    /// Iterations per epoch (`max_functional_iters`).
    pub iters_per_epoch: usize,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sage-int8-serial",
        spec: OGBN_PRODUCTS,
        scale: 50,
        model: GnnKind::GraphSage,
        precision: Precision::Int8,
        prefetch_depth: 0,
        drm: false,
        batch_per_trainer: 512,
        iters_per_epoch: 6,
    },
    Workload {
        name: "gcn-f32-drm",
        spec: OGBN_PAPERS100M,
        scale: 400,
        model: GnnKind::Gcn,
        precision: Precision::F32,
        prefetch_depth: 2,
        drm: true,
        batch_per_trainer: 512,
        iters_per_epoch: 6,
    },
];

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The system configuration for `seed`: the paper's defaults with
    /// this workload's settings on top.
    pub fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), self.model);
        cfg.opt = OptFlags {
            hybrid: true,
            drm: self.drm,
            tfp: true,
        };
        let train = &mut cfg.train;
        train.fanouts = FANOUTS.to_vec();
        train.hidden_dim = HIDDEN_DIM;
        train.batch_per_trainer = self.batch_per_trainer;
        train.seed = seed;
        train.max_functional_iters = Some(self.iters_per_epoch);
        train.transfer_precision = self.precision;
        train.prefetch_depth = self.prefetch_depth;
        cfg
    }

    /// The synthesized dataset for `seed`.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let mut dataset = self.spec.materialize(self.scale, seed);
        dataset.splits = Splits::random(
            dataset.graph.num_vertices(),
            TRAIN_FRACTION,
            VAL_FRACTION,
            seed,
        );
        dataset
    }

    /// The same task with every stage inline (prefetch depth 0): the
    /// reference whose weights the workload must match bitwise.
    pub fn serial(&self) -> Workload {
        Workload {
            prefetch_depth: 0,
            ..*self
        }
    }
}
