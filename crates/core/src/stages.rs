//! Pipeline stages, their per-iteration timings, and the live worker
//! pools that execute the CPU-resident stages.
//!
//! HyScale-GNN decomposes training into four pipeline stages (paper
//! §III-B): Sampling, Feature Loading, Data Transfer, and GNN
//! Propagation. The DRM engine reasons about six measured times
//! (Algorithm 1's inputs): sampling on CPU/accelerator, loading,
//! transfer, and training on CPU/accelerator, plus synchronization.
//!
//! [`StageWorkers`] is where DRM decisions meet execution: one
//! [`rayon::WorkerGroup`] per CPU task (sampler / loader / trainer),
//! whose widths mirror the current [`ThreadAlloc`]
//! and are re-sized in place when a `balance_thread` move fires — so
//! thread re-allocations change *measured* stage walls, not only the
//! simulated [`StageTimes`].

use crate::drm::ThreadAlloc;
use rayon::WorkerGroup;

/// The tasks Algorithm 1 balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Mini-batch sampling on the CPUs (`T_SC`).
    SampleCpu,
    /// Mini-batch sampling on the accelerators (`T_SA`).
    SampleAccel,
    /// Feature Loading from CPU memory (`T_Load`) — CPU-only stage.
    Load,
    /// GNN propagation on the CPU trainer (`T_TC`).
    TrainCpu,
    /// Bundled Data Transfer + accelerator training (`T_Accel =
    /// max(T_Tran, T_TA)`, Algorithm 1 line 1).
    Accel,
}

impl Stage {
    /// Whether this task consumes CPU worker threads (candidates for
    /// `balance_thread`).
    pub fn is_cpu_task(self) -> bool {
        matches!(self, Stage::SampleCpu | Stage::Load | Stage::TrainCpu)
    }
}

/// The live CPU worker pools, one [`WorkerGroup`] per CPU-resident task.
///
/// This is the execution-side twin of [`ThreadAlloc`]: the DRM engine
/// mutates a `ThreadAlloc` (its model of the thread budget), and the
/// prefetch producer [`apply`](Self::apply)s each iteration's planned
/// allocation here before sampling it, so its dispatches — the
/// per-trainer sampling dispatch, the socket-sharded feature gather —
/// actually run at the budgeted widths. Widths are atomics inside each
/// group, so the CPU trainer on the consumer thread picks up a re-size
/// at its next dispatch (results are bitwise-independent of widths).
///
/// ```
/// use hyscale_core::stages::{Stage, StageWorkers};
/// use hyscale_core::ThreadAlloc;
///
/// let workers = StageWorkers::from_alloc(&ThreadAlloc { sampler: 4, loader: 8, trainer: 20 });
/// assert_eq!(workers.loader().width(), 8);
/// // a DRM balance_thread move lands:
/// workers.apply(&ThreadAlloc { sampler: 3, loader: 9, trainer: 20 });
/// assert_eq!(workers.observed(), ThreadAlloc { sampler: 3, loader: 9, trainer: 20 });
/// ```
pub struct StageWorkers {
    sampler: WorkerGroup,
    loader: WorkerGroup,
    trainer: WorkerGroup,
}

impl StageWorkers {
    /// Build the three pools at the widths of `alloc`.
    pub fn from_alloc(alloc: &ThreadAlloc) -> Self {
        Self {
            sampler: WorkerGroup::new("sampler", alloc.sampler),
            loader: WorkerGroup::new("loader", alloc.loader),
            trainer: WorkerGroup::new("trainer", alloc.trainer),
        }
    }

    /// Re-size every pool to `alloc`'s widths (a `balance_thread` move,
    /// or restoring a checkpointed mapping). Concurrent dispatchers pick
    /// the new widths up on their next dispatch.
    pub fn apply(&self, alloc: &ThreadAlloc) {
        self.sampler.set_width(alloc.sampler);
        self.loader.set_width(alloc.loader);
        self.trainer.set_width(alloc.trainer);
    }

    /// The current logical widths as a [`ThreadAlloc`] — what the
    /// producer actually observes, recorded per iteration in
    /// [`WallStageTimes`](crate::report::WallStageTimes).
    pub fn observed(&self) -> ThreadAlloc {
        ThreadAlloc {
            sampler: self.sampler.width(),
            loader: self.loader.width(),
            trainer: self.trainer.width(),
        }
    }

    /// The Mini-batch Sampler pool.
    pub fn sampler(&self) -> &WorkerGroup {
        &self.sampler
    }

    /// The Feature Loader pool.
    pub fn loader(&self) -> &WorkerGroup {
        &self.loader
    }

    /// The CPU GNN Trainer pool.
    pub fn trainer(&self) -> &WorkerGroup {
        &self.trainer
    }

    /// The pool executing `stage`, if it is a CPU task.
    pub fn group(&self, stage: Stage) -> Option<&WorkerGroup> {
        match stage {
            Stage::SampleCpu => Some(&self.sampler),
            Stage::Load => Some(&self.loader),
            Stage::TrainCpu => Some(&self.trainer),
            Stage::SampleAccel | Stage::Accel => None,
        }
    }
}

/// Measured (simulated) execution time of each stage for one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimes {
    /// Sampling on CPU, seconds.
    pub sample_cpu: f64,
    /// Sampling on accelerators, seconds.
    pub sample_accel: f64,
    /// Feature loading, seconds.
    pub load: f64,
    /// PCIe data transfer (max over parallel links), seconds.
    pub transfer: f64,
    /// CPU trainer propagation, seconds.
    pub train_cpu: f64,
    /// Accelerator trainer propagation (max over devices), seconds.
    pub train_accel: f64,
    /// Gradient all-reduce, seconds.
    pub sync: f64,
}

impl StageTimes {
    /// All-zero times.
    pub fn zero() -> Self {
        Self {
            sample_cpu: 0.0,
            sample_accel: 0.0,
            load: 0.0,
            transfer: 0.0,
            train_cpu: 0.0,
            train_accel: 0.0,
            sync: 0.0,
        }
    }

    /// Bundled accelerator time `T_Accel = max(T_Tran, T_TA)`
    /// (Algorithm 1 line 1: transfer and accelerator-training times are
    /// highly correlated). This is the paper's *perfect-overlap*
    /// assumption — equivalent to
    /// [`accel_with_visible`](Self::accel_with_visible) with the
    /// double-buffered visible share `(T_Tran - T_TA)⁺`.
    pub fn accel(&self) -> f64 {
        self.transfer.max(self.train_accel)
    }

    /// Overlap-aware accelerator time: propagation plus the *visible*
    /// (un-hidden) share of the wire transfer. Device-side staging hides
    /// transfer time behind accelerator compute only when it is double
    /// buffered (with TFP); no overlap, or a
    /// bandwidth-bound lane whose wire time exceeds its compute, leaves
    /// `visible` seconds on the accelerator's critical path — and that
    /// is what the DRM should balance against, not the optimistic
    /// `max(T_Tran, T_TA)` bundle. `visible = (T_Tran - T_TA)⁺`
    /// reproduces [`accel`](Self::accel) exactly.
    pub fn accel_with_visible(&self, visible_transfer: f64) -> f64 {
        self.train_accel + visible_transfer.max(0.0)
    }

    /// Combined sampling time (CPU and accelerator samplers run
    /// concurrently).
    pub fn sampling(&self) -> f64 {
        self.sample_cpu.max(self.sample_accel)
    }

    /// Combined propagation time (CPU and accelerator trainers run
    /// concurrently) plus synchronization.
    pub fn propagation(&self) -> f64 {
        self.train_cpu.max(self.train_accel) + self.sync
    }

    /// Pipelined iteration time with Two-stage Feature Prefetching
    /// (paper Eq. 6): stages run concurrently on different resources, so
    /// the steady-state iteration time is the slowest stage.
    pub fn pipelined_iteration(&self) -> f64 {
        self.sampling()
            .max(self.load)
            .max(self.transfer)
            .max(self.propagation())
    }

    /// Serial iteration time without TFP: communication stages do not
    /// overlap with compute (sampling → load → transfer → propagate →
    /// sync).
    pub fn serial_iteration(&self) -> f64 {
        self.sampling() + self.load + self.transfer + self.propagation()
    }

    /// The DRM view: `(stage, time)` pairs of Algorithm 1's five tasks.
    pub fn drm_tasks(&self) -> [(super::stages::Stage, f64); 5] {
        [
            (Stage::SampleCpu, self.sample_cpu),
            (Stage::SampleAccel, self.sample_accel),
            (Stage::Load, self.load),
            (Stage::TrainCpu, self.train_cpu),
            (Stage::Accel, self.accel()),
        ]
    }

    /// Element-wise running average helper: `self + (other - self)/n`.
    pub fn ewma_toward(&mut self, other: &StageTimes, alpha: f64) {
        let mix = |a: &mut f64, b: f64| *a += alpha * (b - *a);
        mix(&mut self.sample_cpu, other.sample_cpu);
        mix(&mut self.sample_accel, other.sample_accel);
        mix(&mut self.load, other.load);
        mix(&mut self.transfer, other.transfer);
        mix(&mut self.train_cpu, other.train_cpu);
        mix(&mut self.train_accel, other.train_accel);
        mix(&mut self.sync, other.sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> StageTimes {
        StageTimes {
            sample_cpu: 2.0,
            sample_accel: 1.0,
            load: 3.0,
            transfer: 4.0,
            train_cpu: 5.0,
            train_accel: 6.0,
            sync: 0.5,
        }
    }

    #[test]
    fn accel_bundles_transfer_and_training() {
        assert_eq!(t().accel(), 6.0);
        let mut x = t();
        x.transfer = 9.0;
        assert_eq!(x.accel(), 9.0);
    }

    #[test]
    fn accel_with_visible_generalizes_the_bundle() {
        let x = t(); // transfer 4, train_accel 6
                     // the perfect-overlap share reproduces the bundled max
        assert_eq!(
            x.accel_with_visible((x.transfer - x.train_accel).max(0.0)),
            x.accel()
        );
        // a fully-visible wire (no overlap) adds the whole transfer
        assert_eq!(x.accel_with_visible(x.transfer), 10.0);
        // a fully-hidden wire leaves only propagation
        assert_eq!(x.accel_with_visible(0.0), 6.0);
        // negative "visible" (measurement jitter) clamps to zero
        assert_eq!(x.accel_with_visible(-1.0), 6.0);
        let mut y = t();
        y.transfer = 9.0; // transfer-bound lane
        assert_eq!(
            y.accel_with_visible((y.transfer - y.train_accel).max(0.0)),
            y.accel()
        );
    }

    #[test]
    fn pipelined_is_max_serial_is_sum() {
        let x = t();
        // propagation = max(5,6)+0.5 = 6.5 -> pipeline bottleneck
        assert_eq!(x.pipelined_iteration(), 6.5);
        assert_eq!(x.serial_iteration(), 2.0 + 3.0 + 4.0 + 6.5);
        assert!(x.pipelined_iteration() <= x.serial_iteration());
    }

    #[test]
    fn drm_tasks_order_matches_algorithm_1() {
        let tasks = t().drm_tasks();
        assert_eq!(tasks[0].0, Stage::SampleCpu);
        assert_eq!(tasks[4].0, Stage::Accel);
        assert_eq!(tasks[4].1, 6.0);
    }

    #[test]
    fn cpu_task_classification() {
        assert!(Stage::SampleCpu.is_cpu_task());
        assert!(Stage::Load.is_cpu_task());
        assert!(Stage::TrainCpu.is_cpu_task());
        assert!(!Stage::SampleAccel.is_cpu_task());
        assert!(!Stage::Accel.is_cpu_task());
    }

    #[test]
    fn ewma_moves_toward_target() {
        let mut a = StageTimes::zero();
        a.ewma_toward(&t(), 0.5);
        assert_eq!(a.load, 1.5);
        a.ewma_toward(&t(), 1.0);
        assert_eq!(a.load, 3.0);
    }
}
