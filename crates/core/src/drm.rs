//! Dynamic Resource Management (paper §IV-A, Algorithm 1).
//!
//! A bottleneck-guided optimizer that runs once per training iteration.
//! It identifies the slowest of five tasks — CPU sampling, accelerator
//! sampling, feature loading, CPU training, and the bundled
//! transfer+accelerator-training task — and applies one of two moves:
//!
//! * **`balance_work`** — shift mini-batch seeds (or sampling share)
//!   between the CPUs and the accelerators. The total per-iteration
//!   seed count never changes, so synchronous-SGD semantics are
//!   preserved.
//! * **`balance_thread`** — move one CPU worker thread from the fastest
//!   CPU-resident task to the bottleneck CPU task.
//!
//! [`IterationPlanner`] runs the timing layer and one decision per
//! iteration. The prefetch producer calls it right after sampling, so
//! it decides the next iteration's mapping before slicing it.

use crate::config::{OptFlags, PlatformConfig, SystemConfig};
use crate::perf_model::{compute_stage_times, StageInputs};
use crate::stages::{Stage, StageTimes};
use hyscale_sampler::{MiniBatch, WorkloadStats};
use hyscale_tensor::Precision;

/// Per-iteration seed quotas: one CPU trainer plus `num_accelerators`
/// identical accelerator trainers. The invariant `cpu_quota +
/// Σ accel = total` holds across every DRM move.
///
/// ```
/// use hyscale_core::WorkloadSplit;
///
/// let mut split = WorkloadSplit::new(1024, 5120, 4);
/// assert_eq!(split.quotas(), vec![1024, 1024, 1024, 1024, 1024]);
/// split.shift_to_cpu(100); // a balance_work move
/// assert_eq!(split.cpu_quota, 1124);
/// assert_eq!(split.quotas().iter().sum::<usize>(), 5120); // invariant
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSplit {
    /// Seeds assigned to the CPU trainer each iteration.
    pub cpu_quota: usize,
    /// Total seeds per iteration (constant).
    pub total: usize,
    /// Number of accelerator trainers.
    pub num_accelerators: usize,
    /// Fraction of the sampling workload executed on accelerators.
    pub sampling_on_accel: f64,
}

impl WorkloadSplit {
    /// Split with `cpu_quota` seeds on the CPU and the rest spread over
    /// the accelerators.
    ///
    /// # Panics
    /// If `cpu_quota > total` or there are no accelerators.
    pub fn new(cpu_quota: usize, total: usize, num_accelerators: usize) -> Self {
        assert!(num_accelerators > 0, "need at least one accelerator");
        assert!(cpu_quota <= total, "cpu quota exceeds total batch");
        Self {
            cpu_quota,
            total,
            num_accelerators,
            sampling_on_accel: 0.0,
        }
    }

    /// Seeds assigned to accelerator `i` (even split, remainder to the
    /// lowest-indexed devices).
    pub fn accel_quota(&self, i: usize) -> usize {
        let pool = self.total - self.cpu_quota;
        let base = pool / self.num_accelerators;
        let rem = pool % self.num_accelerators;
        base + usize::from(i < rem)
    }

    /// All quotas in trainer order: `[cpu, accel_0, .., accel_{A-1}]`.
    pub fn quotas(&self) -> Vec<usize> {
        let mut q = Vec::with_capacity(1 + self.num_accelerators);
        q.push(self.cpu_quota);
        for i in 0..self.num_accelerators {
            q.push(self.accel_quota(i));
        }
        q
    }

    /// Move up to `n` seeds from the accelerator pool to the CPU trainer;
    /// returns the number actually moved.
    pub fn shift_to_cpu(&mut self, n: usize) -> usize {
        let pool = self.total - self.cpu_quota;
        // keep at least one seed per accelerator so every device trains
        let movable = pool.saturating_sub(self.num_accelerators);
        let moved = n.min(movable);
        self.cpu_quota += moved;
        moved
    }

    /// Move up to `n` seeds from the CPU trainer to the accelerator pool;
    /// returns the number actually moved.
    pub fn shift_to_accel(&mut self, n: usize) -> usize {
        let moved = n.min(self.cpu_quota);
        self.cpu_quota -= moved;
        moved
    }
}

/// CPU worker-thread allocation across the CPU-resident tasks.
///
/// This is the DRM's *model* of the thread budget; the executor mirrors
/// it into live [`StageWorkers`](crate::stages::StageWorkers) pools so a
/// `balance_thread` move re-sizes the partition widths the prefetch
/// producer actually dispatches on.
///
/// ```
/// use hyscale_core::ThreadAlloc;
///
/// let alloc = ThreadAlloc::default_for(128);
/// assert_eq!(alloc.total(), 128);
/// assert_eq!(alloc.trainer, 64); // 25% / 25% / 50% design-time split
/// ```
///
/// The all-zero [`Default`] means "unrecorded" in wall-clock reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadAlloc {
    /// Threads running the Mini-batch Sampler.
    pub sampler: usize,
    /// Threads running the Feature Loader.
    pub loader: usize,
    /// Threads running the CPU GNN Trainer.
    pub trainer: usize,
}

impl ThreadAlloc {
    /// Default design-time allocation over `total` worker threads:
    /// 25 % sampler, 25 % loader, 50 % trainer (at least one each).
    pub fn default_for(total: usize) -> Self {
        let total = total.max(3);
        let sampler = (total / 4).max(1);
        let loader = (total / 4).max(1);
        let trainer = total - sampler - loader;
        Self {
            sampler,
            loader,
            trainer,
        }
    }

    /// Total allocated threads.
    pub fn total(&self) -> usize {
        self.sampler + self.loader + self.trainer
    }

    /// Threads budgeted to `stage` (0 for non-CPU tasks).
    pub fn threads_for(&self, stage: Stage) -> usize {
        match stage {
            Stage::SampleCpu => self.sampler,
            Stage::Load => self.loader,
            Stage::TrainCpu => self.trainer,
            _ => 0,
        }
    }

    /// Move one thread from `from` to `to` (both CPU tasks), as a
    /// scripted `balance_thread` would. Returns `false` without moving
    /// anything when `from` has no thread to spare (≤ 1), when either
    /// stage is not a CPU task, or when `from == to` — so the total
    /// budget is conserved exactly.
    pub fn shift(&mut self, from: Stage, to: Stage) -> bool {
        if from == to || !from.is_cpu_task() || !to.is_cpu_task() || self.threads_for(from) <= 1 {
            return false;
        }
        self.add(from, -1);
        self.add(to, 1);
        true
    }

    fn add(&mut self, stage: Stage, delta: isize) {
        let slot = match stage {
            Stage::SampleCpu => &mut self.sampler,
            Stage::Load => &mut self.loader,
            Stage::TrainCpu => &mut self.trainer,
            _ => return,
        };
        *slot = (*slot as isize + delta).max(1) as usize;
    }
}

/// The action the DRM engine took this iteration (for traces and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DrmAction {
    /// Moved trainer seeds between CPU and accelerators.
    BalanceWork {
        /// Positive: seeds moved to the CPU; negative: to accelerators.
        to_cpu: isize,
    },
    /// Moved sampling share between CPU and accelerators.
    BalanceSampling {
        /// Positive: share moved to accelerators.
        to_accel: f64,
    },
    /// Moved one thread between CPU tasks.
    BalanceThread {
        /// Donor task.
        from: Stage,
        /// Recipient task.
        to: Stage,
    },
    /// No profitable move found.
    None,
}

/// One scripted DRM move, applied by the [`IterationPlanner`] after
/// iteration `iter` of epoch `epoch` — the deterministic stand-in for an
/// Algorithm 1 decision, used by the randomized DRM-schedule
/// equivalence harness to fire `balance_work` / `balance_thread` events
/// at chosen points without depending on the engine's bottleneck
/// heuristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedDrmEvent {
    /// Epoch the event fires in.
    pub epoch: u64,
    /// Iteration (within the epoch) after which the event fires.
    pub iter: usize,
    /// The move to apply.
    pub action: ScriptedDrm,
}

/// The move kinds a [`ScriptedDrmEvent`] can apply. The planner applies
/// them after the live [`DrmEngine`]'s decision for the same iteration,
/// through the same [`WorkloadSplit`] and [`ThreadAlloc`] moves, so a
/// scripted schedule steers the mapping exactly as engine decisions do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScriptedDrm {
    /// `balance_work`: shift up to `to_cpu.unsigned_abs()` seeds toward
    /// the CPU trainer (positive) or the accelerator pool (negative).
    /// The split clamps the move, so a scripted shift may move nothing.
    BalanceWork {
        /// Positive: seeds toward the CPU; negative: toward accelerators.
        to_cpu: isize,
    },
    /// `balance_thread`: move one thread `from` → `to` (clamped like
    /// [`ThreadAlloc::shift`]).
    BalanceThread {
        /// Donor CPU task.
        from: Stage,
        /// Recipient CPU task.
        to: Stage,
    },
}

/// The bottleneck-guided optimizer of Algorithm 1.
///
/// One [`adjust`](Self::adjust) call inspects the latest stage times and
/// mutates the mapping for the next iteration:
///
/// ```
/// use hyscale_core::{DrmEngine, ThreadAlloc, WorkloadSplit};
/// use hyscale_core::drm::DrmAction;
/// use hyscale_core::stages::StageTimes;
///
/// let engine = DrmEngine::new(true);
/// let mut split = WorkloadSplit::new(1024, 5120, 4);
/// let mut threads = ThreadAlloc::default_for(64);
/// // the bundled transfer + accelerator-training task is the bottleneck
/// let times = StageTimes {
///     sample_cpu: 0.1, sample_accel: 0.1, load: 0.2,
///     transfer: 0.5, train_cpu: 0.3, train_accel: 2.0, sync: 0.0,
/// };
/// let action = engine.adjust(&times, &mut split, &mut threads);
/// assert!(matches!(action, DrmAction::BalanceWork { to_cpu } if to_cpu > 0));
/// assert!(split.cpu_quota > 1024); // seeds moved toward the CPU trainer
/// ```
#[derive(Debug, Clone)]
pub struct DrmEngine {
    /// Hybrid training enabled (a CPU trainer exists to receive work).
    pub hybrid: bool,
}

/// Fraction of the total batch moved per `balance_work` call.
const WORK_STEP: f64 = 0.05;
/// Sampling-share step per `balance_sampling` call.
const SAMPLING_STEP: f64 = 0.1;

impl DrmEngine {
    /// Engine with a 5 % work step.
    pub fn new(hybrid: bool) -> Self {
        Self { hybrid }
    }

    /// One Algorithm 1 decision: inspect `times`, mutate `split` /
    /// `threads` for the next iteration, and report the action taken.
    ///
    /// Uses the paper's bundled `T_Accel = max(T_Tran, T_TA)` — the
    /// perfect-overlap assumption. To charge the accelerator task the
    /// wire time the modeled device staging leaves visible, use
    /// [`adjust_with_visible`](Self::adjust_with_visible) instead.
    pub fn adjust(
        &self,
        times: &StageTimes,
        split: &mut WorkloadSplit,
        threads: &mut ThreadAlloc,
    ) -> DrmAction {
        self.adjust_with_visible(times, times.visible_transfer(true), split, threads)
    }

    /// Overlap-aware Algorithm 1 decision: like [`adjust`](Self::adjust)
    /// but the bundled accelerator task is charged
    /// `T_TA + visible_transfer` ([`StageTimes::accel_with_visible`])
    /// instead of `max(T_Tran, T_TA)`. `visible_transfer` is the
    /// un-hidden share of the wire time — full `T_Tran` without TFP
    /// (nothing can hide), `(T_Tran - T_TA)⁺` under TFP's modeled
    /// double-buffered staging (reproducing `adjust` exactly); see
    /// [`StageTimes::visible_transfer`]. The
    /// [`IterationPlanner`] passes one of these two simulated shares,
    /// never a measured wall. A bandwidth-bound lane (no TFP, fat
    /// batches) thus inflates the accelerator task and biases
    /// `balance_work` toward moving seeds off the starved links.
    pub fn adjust_with_visible(
        &self,
        times: &StageTimes,
        visible_transfer: f64,
        split: &mut WorkloadSplit,
        threads: &mut ThreadAlloc,
    ) -> DrmAction {
        let accel_time = times.accel_with_visible(visible_transfer);
        let tasks = {
            let mut t = times.drm_tasks();
            t[4].1 = accel_time;
            t
        };
        let bottleneck = tasks
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("times are finite"))
            .expect("five tasks");
        let fastest = tasks
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are finite"))
            .expect("five tasks");
        // second-fastest (Sorted_list[3] in the paper's descending sort)
        let mut sorted = tasks;
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let second = sorted[1];

        // Damped, gap-proportional step: moves shrink as the system
        // approaches balance, preventing oscillation (implementation
        // refinement over the paper's fixed-step description).
        let gap_factor = |other: f64| {
            if bottleneck.1 <= 0.0 {
                0.0
            } else {
                ((bottleneck.1 - other) / bottleneck.1).clamp(0.0, 1.0)
            }
        };
        let total = split.total;
        let step = move |other: f64| {
            ((total as f64 * WORK_STEP * gap_factor(other)).round() as usize).max(1)
        };

        match bottleneck.0 {
            // line 11: accelerator sampler is the bottleneck -> move
            // sampling work to the CPU
            Stage::SampleAccel => {
                let f = gap_factor(times.sample_cpu);
                if f < 0.05 {
                    return DrmAction::None;
                }
                let delta = (SAMPLING_STEP * f).min(split.sampling_on_accel);
                split.sampling_on_accel -= delta;
                DrmAction::BalanceSampling { to_accel: -delta }
            }
            // line 13: transfer+accelerator training is the bottleneck ->
            // move trainer seeds to the CPU
            Stage::Accel => {
                if !self.hybrid || gap_factor(times.train_cpu) < 0.05 {
                    return DrmAction::None;
                }
                let moved = split.shift_to_cpu(step(times.train_cpu));
                if moved == 0 {
                    DrmAction::None
                } else {
                    DrmAction::BalanceWork {
                        to_cpu: moved as isize,
                    }
                }
            }
            // line 15: loader bottleneck -> re-assign threads from the
            // fastest CPU task
            Stage::Load => self.steal_thread(times, threads, Stage::Load),
            // line 17: CPU sampler bottleneck
            Stage::SampleCpu => {
                // the accelerator sampler is an attractive target either
                // when Algorithm 1's conditions name it, or when it has
                // substantial headroom (gross imbalance: thread-stealing
                // alone would take too many iterations to catch up)
                let accel_sampler_fast = fastest.0 == Stage::SampleAccel
                    || (fastest.0 == Stage::Accel && second.0 == Stage::SampleAccel)
                    || gap_factor(times.sample_accel) >= 0.3;
                if accel_sampler_fast && split.sampling_on_accel < 1.0 {
                    let f = gap_factor(times.sample_accel);
                    let delta = (SAMPLING_STEP * f).min(1.0 - split.sampling_on_accel);
                    split.sampling_on_accel += delta;
                    DrmAction::BalanceSampling { to_accel: delta }
                } else {
                    match self.steal_thread(times, threads, Stage::SampleCpu) {
                        // no donor threads left: fall back to offloading
                        // sampling if the accelerators can sample at all
                        DrmAction::None if split.sampling_on_accel < 1.0 => {
                            let delta = SAMPLING_STEP.min(1.0 - split.sampling_on_accel);
                            split.sampling_on_accel += delta;
                            DrmAction::BalanceSampling { to_accel: delta }
                        }
                        other => other,
                    }
                }
            }
            // line 25: CPU trainer bottleneck
            Stage::TrainCpu => {
                let accel_trainer_fast = fastest.0 == Stage::Accel
                    || (fastest.0 == Stage::SampleAccel && second.0 == Stage::Accel)
                    || gap_factor(accel_time) >= 0.3;
                let shift = |split: &mut WorkloadSplit| {
                    let moved = split.shift_to_accel(step(accel_time));
                    if moved == 0 {
                        DrmAction::None
                    } else {
                        DrmAction::BalanceWork {
                            to_cpu: -(moved as isize),
                        }
                    }
                };
                if accel_trainer_fast {
                    shift(split)
                } else {
                    match self.steal_thread(times, threads, Stage::TrainCpu) {
                        // donors exhausted: move work to the accelerators
                        // even though they are not the fastest task
                        DrmAction::None if gap_factor(accel_time) >= 0.05 => shift(split),
                        other => other,
                    }
                }
            }
        }
    }

    /// `balance_thread`: donate one thread from the fastest CPU task
    /// (that is not the bottleneck and still has threads to spare).
    fn steal_thread(&self, times: &StageTimes, threads: &mut ThreadAlloc, to: Stage) -> DrmAction {
        let cpu_tasks = [
            (Stage::SampleCpu, times.sample_cpu),
            (Stage::Load, times.load),
            (Stage::TrainCpu, times.train_cpu),
        ];
        let donor = cpu_tasks
            .iter()
            .filter(|(s, _)| *s != to && threads.threads_for(*s) > 1)
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        match donor {
            Some(&(from, _)) => {
                threads.add(from, -1);
                threads.add(to, 1);
                DrmAction::BalanceThread { from, to }
            }
            None => DrmAction::None,
        }
    }
}

/// The simulated timing of one iteration and the mapping the DRM
/// decided after it.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationPlan {
    /// Simulated stage times of the iteration's sampled batches.
    pub times: StageTimes,
    /// Simulated iteration latency (pipelined with TFP, serial without).
    pub iter_time_s: f64,
    /// Throughput in MTEPS (Eq. 5).
    pub mteps: f64,
    /// The engine's decision after the iteration.
    pub drm_action: DrmAction,
    /// The split the next iteration is sliced under: the engine's move
    /// and the iteration's scripted moves applied.
    pub split: WorkloadSplit,
    /// The thread budget the next iteration is prepared under.
    pub threads: ThreadAlloc,
}

/// The timing layer and Algorithm 1 step of one iteration.
///
/// A decision depends only on the mapping the iteration was prepared
/// under, the workload of its sampled batches, the configuration and
/// the scripted events — never on training results. So the producer
/// plans the next iteration's mapping as soon as it has sampled one,
/// and the serial path runs the same step inline: every prefetch depth
/// follows the same mapping trajectory by construction.
#[derive(Clone)]
pub struct IterationPlanner {
    platform: PlatformConfig,
    opt: OptFlags,
    dims: Vec<usize>,
    width_factor: usize,
    model_bytes: u64,
    precision: Precision,
    engine: DrmEngine,
    schedule: Vec<ScriptedDrmEvent>,
}

impl IterationPlanner {
    /// A planner for `cfg` training a model with layer widths `dims`
    /// whose all-reduce payload is `model_bytes`, applying `schedule`'s
    /// scripted moves after the engine's decision (when `cfg.opt.drm`).
    pub fn new(
        cfg: &SystemConfig,
        dims: Vec<usize>,
        model_bytes: u64,
        schedule: Vec<ScriptedDrmEvent>,
    ) -> Self {
        Self {
            platform: cfg.platform.clone(),
            opt: cfg.opt,
            dims,
            width_factor: cfg.train.model.update_width_factor(),
            model_bytes,
            precision: cfg.train.transfer_precision,
            engine: DrmEngine::new(cfg.opt.hybrid),
            schedule,
        }
    }

    /// Model iteration `iter` of `epoch` from its per-trainer `batches`
    /// (`None` for an idle trainer), prepared under `split` and
    /// `threads`, and decide the next iteration's mapping.
    pub fn plan(
        &self,
        epoch: u64,
        iter: usize,
        batches: &[Option<MiniBatch>],
        split: &WorkloadSplit,
        threads: &ThreadAlloc,
    ) -> IterationPlan {
        let zero = WorkloadStats::zero(self.dims.len() - 1);
        let stats_of = |slot: usize| {
            batches
                .get(slot)
                .and_then(Option::as_ref)
                .map_or_else(|| zero.clone(), MiniBatch::stats)
        };
        // Trainer slots follow `WorkloadSplit::quotas()`: the CPU first
        // (idle without a CPU trainer), then each accelerator.
        let cpu_stats = stats_of(0);
        let accel_stats: Vec<WorkloadStats> = (0..self.platform.num_accelerators)
            .map(|a| stats_of(1 + a))
            .collect();
        let inputs = StageInputs {
            cpu_stats: &cpu_stats,
            accel_stats: &accel_stats,
            dims: &self.dims,
            width_factor: self.width_factor,
            model_bytes: self.model_bytes,
            sampling_on_accel: split.sampling_on_accel,
            precision: self.precision,
        };
        let times = compute_stage_times(&self.platform, threads, &inputs, true);
        let iter_time_s = if self.opt.tfp {
            times.pipelined_iteration()
        } else {
            times.serial_iteration()
        };
        let edges: u64 = cpu_stats.total_edges()
            + accel_stats
                .iter()
                .map(WorkloadStats::total_edges)
                .sum::<u64>();

        // Overlap-aware accelerator estimate: the wire time left visible
        // on the accelerator's critical path, derived from the simulated
        // times and the configured overlap alone.
        let visible_transfer = times.visible_transfer(self.opt.tfp);
        let mut split = split.clone();
        let mut threads = *threads;
        let drm_action = if self.opt.drm {
            self.engine
                .adjust_with_visible(&times, visible_transfer, &mut split, &mut threads)
        } else {
            DrmAction::None
        };
        for ev in &self.schedule {
            if ev.epoch != epoch || ev.iter != iter {
                continue;
            }
            match ev.action {
                ScriptedDrm::BalanceWork { to_cpu } if to_cpu >= 0 => {
                    split.shift_to_cpu(to_cpu as usize);
                }
                ScriptedDrm::BalanceWork { to_cpu } => {
                    split.shift_to_accel(to_cpu.unsigned_abs());
                }
                ScriptedDrm::BalanceThread { from, to } => {
                    threads.shift(from, to);
                }
            }
        }
        IterationPlan {
            times,
            iter_time_s,
            mteps: edges as f64 / iter_time_s / 1e6,
            drm_action,
            split,
            threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split() -> WorkloadSplit {
        WorkloadSplit::new(1024, 5120, 4)
    }

    fn times(sc: f64, sa: f64, load: f64, tc: f64, trans: f64, ta: f64) -> StageTimes {
        StageTimes {
            sample_cpu: sc,
            sample_accel: sa,
            load,
            transfer: trans,
            train_cpu: tc,
            train_accel: ta,
            sync: 0.0,
        }
    }

    #[test]
    fn quota_invariant_under_all_moves() {
        let mut s = split();
        let total: usize = s.quotas().iter().sum();
        assert_eq!(total, 5120);
        s.shift_to_cpu(300);
        assert_eq!(s.quotas().iter().sum::<usize>(), 5120);
        s.shift_to_accel(1000);
        assert_eq!(s.quotas().iter().sum::<usize>(), 5120);
    }

    #[test]
    fn accel_quota_even_split_with_remainder() {
        let s = WorkloadSplit::new(1, 10, 3);
        // pool of 9 across 3 accels
        assert_eq!(s.accel_quota(0), 3);
        assert_eq!(s.accel_quota(1), 3);
        assert_eq!(s.accel_quota(2), 3);
        let s2 = WorkloadSplit::new(0, 11, 3);
        assert_eq!(s2.quotas(), vec![0, 4, 4, 3]);
    }

    #[test]
    fn accel_bottleneck_moves_work_to_cpu() {
        let engine = DrmEngine::new(true);
        let mut s = split();
        let mut th = ThreadAlloc::default_for(64);
        let t = times(0.1, 0.1, 0.2, 0.3, 0.5, 2.0);
        let action = engine.adjust(&t, &mut s, &mut th);
        assert!(matches!(action, DrmAction::BalanceWork { to_cpu } if to_cpu > 0));
        assert!(s.cpu_quota > 1024);
    }

    #[test]
    fn overlap_aware_visible_transfer_biases_work_off_the_wire() {
        // Transfer 1.8s, accelerator compute 0.5s, CPU trainer 1.2s.
        // Bundled view: T_Accel = 1.8 > T_TC = 1.2 -> move seeds to CPU.
        // With the wire fully hidden (visible 0), T_Accel = 0.5 < T_TC
        // -> the *CPU* becomes the bottleneck and seeds move the other
        // way. The visible transfer time flips the decision.
        let engine = DrmEngine::new(true);
        let t = times(0.1, 0.1, 0.2, 1.2, 1.8, 0.5);

        let mut bundled = split();
        let mut th = ThreadAlloc::default_for(64);
        let a = engine.adjust(&t, &mut bundled, &mut th);
        assert!(
            matches!(a, DrmAction::BalanceWork { to_cpu } if to_cpu > 0),
            "bundled max(T_Tran, T_TA) must see the accel task as bottleneck: {a:?}"
        );

        let mut hidden = split();
        let mut th2 = ThreadAlloc::default_for(64);
        let b = engine.adjust_with_visible(&t, 0.0, &mut hidden, &mut th2);
        assert!(
            matches!(b, DrmAction::BalanceWork { to_cpu } if to_cpu < 0),
            "a fully-hidden wire must expose the CPU trainer as bottleneck: {b:?}"
        );

        // no-overlap pessimism: the whole wire is visible, so the
        // accel task is charged compute + transfer and sheds even more
        // work toward the CPU than the bundled estimate.
        let mut ring1 = split();
        let mut th3 = ThreadAlloc::default_for(64);
        let c = engine.adjust_with_visible(&t, t.transfer, &mut ring1, &mut th3);
        assert!(matches!(c, DrmAction::BalanceWork { to_cpu } if to_cpu > 0));
        assert!(
            ring1.cpu_quota >= bundled.cpu_quota,
            "full visibility must bias at least as hard as the bundle: \
             {} vs {}",
            ring1.cpu_quota,
            bundled.cpu_quota
        );
    }

    #[test]
    fn adjust_equals_adjust_with_double_buffered_visible() {
        // adjust() is exactly adjust_with_visible at the perfect-overlap
        // share (T_Tran - T_TA)+ — for several profiles.
        let engine = DrmEngine::new(true);
        for t in [
            times(0.1, 0.1, 0.2, 0.3, 0.5, 2.0),
            times(0.5, 0.4, 0.6, 3.0, 0.05, 0.1),
            times(3.0, 0.01, 0.5, 0.6, 0.4, 0.4),
            times(0.05, 0.2, 3.0, 1.0, 0.5, 0.5),
        ] {
            let (mut s1, mut s2) = (split(), split());
            let (mut th1, mut th2) = (ThreadAlloc::default_for(64), ThreadAlloc::default_for(64));
            let a = engine.adjust(&t, &mut s1, &mut th1);
            let b = engine.adjust_with_visible(
                &t,
                (t.transfer - t.train_accel).max(0.0),
                &mut s2,
                &mut th2,
            );
            assert_eq!(a, b);
            assert_eq!(s1, s2);
            assert_eq!(th1, th2);
        }
    }

    #[test]
    fn cpu_trainer_bottleneck_moves_work_to_accel() {
        let engine = DrmEngine::new(true);
        let mut s = split();
        let mut th = ThreadAlloc::default_for(64);
        // fastest = Accel bundle
        let t = times(0.5, 0.4, 0.6, 3.0, 0.05, 0.1);
        let action = engine.adjust(&t, &mut s, &mut th);
        assert!(matches!(action, DrmAction::BalanceWork { to_cpu } if to_cpu < 0));
        assert!(s.cpu_quota < 1024);
    }

    #[test]
    fn loader_bottleneck_steals_thread_from_fastest_cpu_task() {
        let engine = DrmEngine::new(true);
        let mut s = split();
        let mut th = ThreadAlloc {
            sampler: 10,
            loader: 10,
            trainer: 44,
        };
        // CPU sampler is fastest CPU task
        let t = times(0.05, 0.2, 3.0, 1.0, 0.5, 0.5);
        let action = engine.adjust(&t, &mut s, &mut th);
        assert_eq!(
            action,
            DrmAction::BalanceThread {
                from: Stage::SampleCpu,
                to: Stage::Load
            }
        );
        assert_eq!(th.sampler, 9);
        assert_eq!(th.loader, 11);
        assert_eq!(th.total(), 64);
    }

    #[test]
    fn accel_sampler_bottleneck_shifts_sampling_to_cpu() {
        let engine = DrmEngine::new(true);
        let mut s = split();
        s.sampling_on_accel = 0.5;
        let mut th = ThreadAlloc::default_for(64);
        let t = times(0.1, 4.0, 0.2, 0.3, 0.2, 0.2);
        let action = engine.adjust(&t, &mut s, &mut th);
        assert!(matches!(action, DrmAction::BalanceSampling { to_accel } if to_accel < 0.0));
        assert!(s.sampling_on_accel < 0.5);
    }

    #[test]
    fn cpu_sampler_bottleneck_with_fast_accel_sampler_offloads_sampling() {
        let engine = DrmEngine::new(true);
        let mut s = split();
        let mut th = ThreadAlloc::default_for(64);
        // fastest = SampleAccel
        let t = times(3.0, 0.01, 0.5, 0.6, 0.4, 0.4);
        let action = engine.adjust(&t, &mut s, &mut th);
        assert!(matches!(action, DrmAction::BalanceSampling { to_accel } if to_accel > 0.0));
        assert!(s.sampling_on_accel > 0.0);
    }

    #[test]
    fn cpu_sampler_bottleneck_without_fast_accel_steals_threads() {
        let engine = DrmEngine::new(true);
        let mut s = split();
        let mut th = ThreadAlloc {
            sampler: 4,
            loader: 20,
            trainer: 40,
        };
        // fastest = Load (a CPU task): expect thread steal toward sampler
        let t = times(3.0, 2.9, 0.01, 0.5, 2.5, 2.5);
        let action = engine.adjust(&t, &mut s, &mut th);
        assert_eq!(
            action,
            DrmAction::BalanceThread {
                from: Stage::Load,
                to: Stage::SampleCpu
            }
        );
        assert_eq!(th.sampler, 5);
    }

    #[test]
    fn non_hybrid_accel_bottleneck_is_noop() {
        let engine = DrmEngine::new(false);
        let mut s = split();
        let mut th = ThreadAlloc::default_for(64);
        let t = times(0.1, 0.1, 0.2, 0.0, 0.5, 2.0);
        assert_eq!(engine.adjust(&t, &mut s, &mut th), DrmAction::None);
        assert_eq!(s.cpu_quota, 1024);
    }

    #[test]
    fn a_plan_without_a_cpu_trainer_models_every_accelerators_batch() {
        use crate::config::{AcceleratorKind, OptFlags, SystemConfig};
        use hyscale_gnn::GnnKind;
        use hyscale_graph::Dataset;
        use hyscale_sampler::NeighborSampler;

        // Without a CPU trainer slot 0 is idle, and accelerator `a`
        // trains slot `1 + a`, as `WorkloadSplit::quotas()` orders them.
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags::baseline();
        let ds = Dataset::toy(3);
        let sampler = NeighborSampler::new(vec![5, 3], 11);
        let seeds = &ds.splits.train;
        let b1 = sampler.sample(&ds.graph, &seeds[..40], 1);
        let b2 = sampler.sample(&ds.graph, &seeds[40..80], 2);
        let edges = (b1.stats().total_edges() + b2.stats().total_edges()) as f64;
        let dims = cfg.train.layer_dims(ds.spec.f0, ds.data.num_classes);
        let planner = IterationPlanner::new(&cfg, dims, 4096, Vec::new());
        let plan = planner.plan(
            0,
            0,
            &[None, Some(b1), Some(b2)],
            &WorkloadSplit::new(0, 80, 2),
            &ThreadAlloc::default_for(64),
        );
        assert!(plan.times.train_accel > 0.0, "{:?}", plan.times);
        assert!(plan.times.load > 0.0, "{:?}", plan.times);
        assert_eq!(plan.times.train_cpu, 0.0);
        assert!(plan.mteps.is_finite());
        let modeled = plan.mteps * plan.iter_time_s * 1e6;
        assert!(
            (modeled - edges).abs() < 1e-9 * edges,
            "the plan counted {modeled} edges, the two batches hold {edges}"
        );
    }

    #[test]
    fn drm_converges_on_synthetic_cost_model() {
        // Synthetic platform: accel processes seeds at 1.0 s per 1000,
        // CPU at 4.0 s per 1000 over 4 accels; optimum cpu share ~= 1/17
        // of the work per accel-equivalent. DRM should iterate toward a
        // split where |T_TC - T_Accel| is small.
        let engine = DrmEngine::new(true);
        let mut s = WorkloadSplit::new(2560, 5120, 4); // start badly: half on CPU
        let mut th = ThreadAlloc::default_for(64);
        let mut last_gap = f64::INFINITY;
        for _ in 0..60 {
            let accel_per = (s.total - s.cpu_quota) as f64 / 4.0;
            let t = times(
                0.01,
                0.01,
                0.05,
                s.cpu_quota as f64 * 4.0 / 1000.0,
                0.02,
                accel_per * 1.0 / 1000.0,
            );
            engine.adjust(&t, &mut s, &mut th);
            last_gap = (s.cpu_quota as f64 * 4.0 / 1000.0
                - ((s.total - s.cpu_quota) as f64 / 4.0) / 1000.0)
                .abs();
        }
        // balanced: T_TC == T_Accel at cpu_quota = total/17 ≈ 301
        assert!(
            s.cpu_quota < 700,
            "DRM failed to move work off the CPU: quota {}",
            s.cpu_quota
        );
        assert!(last_gap < 1.5, "residual imbalance {last_gap}");
    }

    #[test]
    fn thread_shift_conserves_budget_and_clamps() {
        let mut t = ThreadAlloc {
            sampler: 1,
            loader: 4,
            trainer: 8,
        };
        assert!(t.shift(Stage::Load, Stage::SampleCpu));
        assert_eq!((t.sampler, t.loader, t.trainer), (2, 3, 8));
        assert_eq!(t.total(), 13);
        // donor with a single thread refuses
        let before = t;
        t.sampler = 1;
        assert!(!t.shift(Stage::SampleCpu, Stage::Load));
        assert_eq!(t.loader, before.loader);
        // non-CPU tasks and self-moves refuse
        assert!(!t.shift(Stage::Accel, Stage::Load));
        assert!(!t.shift(Stage::Load, Stage::Load));
    }

    #[test]
    fn thread_alloc_defaults() {
        let t = ThreadAlloc::default_for(128);
        assert_eq!(t.total(), 128);
        assert!(t.trainer >= t.sampler);
        let tiny = ThreadAlloc::default_for(1);
        assert!(tiny.sampler >= 1 && tiny.loader >= 1 && tiny.trainer >= 1);
    }
}
