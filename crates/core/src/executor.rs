//! The hybrid trainer: functional training with *real* pipelined
//! execution plus simulated device timing.
//!
//! Implements the task mapping of paper Fig. 4: per iteration, `n`
//! mini-batches are sampled (CPU and/or accelerators), the Feature
//! Loader gathers `X'` from CPU memory, accelerator batches are
//! "transferred" over the PCIe model, and every trainer (one CPU trainer
//! when hybrid, plus one per accelerator) runs forward/backward
//! concurrently under the Processor–Accelerator Training Protocol. The
//! Synchronizer averages gradients (size-weighted) and every replica
//! applies the same update — so the functional math is *identical* to
//! sequential large-batch SGD regardless of the DRM's re-balancing.
//!
//! ## Real vs. simulated timing
//!
//! Two timing layers coexist, and the reports carry both:
//!
//! * **Simulated** ([`crate::perf_model`], `IterationReport::times`) —
//!   each stage's latency on the *modeled* hardware (EPYC + U250/A5000
//!   node), driven by the measured workload of that iteration's batches.
//!   With the TFP flag the steady-state iteration latency is the slowest
//!   stage (Eq. 6), without it the communication stages serialize. This
//!   is what the paper-reproduction figures use.
//! * **Measured** ([`crate::prefetch`], `IterationReport::wall`) — the
//!   host wall-clock actually spent in sampling, feature loading, and
//!   propagation. With
//!   `TrainConfig::prefetch_depth > 0` the producer stages execute on a
//!   background thread overlapped with propagation — the paper's
//!   Task-level Feature Prefetching as a real pipeline, not only a
//!   simulated one — and the measured epoch wall-clock shrinks toward
//!   the slowest-stage bound.

use crate::config::SystemConfig;
use crate::drm::{DrmAction, DrmEngine, ScriptedDrm, ScriptedDrmEvent, ThreadAlloc, WorkloadSplit};
use crate::perf_model::{compute_stage_times, PerfModel, StageInputs};
use crate::prefetch::{IterationFeed, MatrixPool, PrepareCtx, PreparedIteration, StagingRings};
use crate::protocol::{join_trainers, TrainingRound};
use crate::report::{EpochReport, IterationReport, WallStageTimes};
use crate::stages::StageWorkers;
use crate::sync::Synchronizer;
use hyscale_device::calib;
use hyscale_gnn::{GnnModel, Gradients};
use hyscale_graph::features::gather_features;
use hyscale_graph::Dataset;
use hyscale_sampler::{EpochBatcher, MiniBatch, NeighborSampler, WorkloadStats};
use hyscale_tensor::quant::WireFeatures;
use hyscale_tensor::{Matrix, Optimizer};
use std::sync::Arc;
use std::time::Instant;

/// The HyScale-GNN training system instance.
pub struct HybridTrainer {
    cfg: SystemConfig,
    dataset: Arc<Dataset>,
    dims: Vec<usize>,
    model: GnnModel,
    optimizer: Box<dyn Optimizer + Send>,
    sampler: NeighborSampler,
    batcher: EpochBatcher,
    split: WorkloadSplit,
    threads: ThreadAlloc,
    workers: Arc<StageWorkers>,
    drm: DrmEngine,
    sync: Synchronizer,
    pool: Arc<MatrixPool>,
    rings: Arc<StagingRings>,
    /// The accelerator-side feature view: the feature matrix at the
    /// wire precision, built once here so the §VIII round-trip costs
    /// set-up time instead of per-iteration host work.
    accel_features: Arc<WireFeatures>,
    next_epoch: u64,
    /// Scripted DRM moves applied after their `(epoch, iter)` slot —
    /// the deterministic injection point the randomized DRM-schedule
    /// equivalence harness drives (empty in production).
    drm_schedule: Vec<ScriptedDrmEvent>,
}

impl HybridTrainer {
    /// Build a trainer: design-time initial task mapping from the
    /// performance model (paper §IV-A "initialize the GNN training task
    /// mapping during compile time"), replicated model, seeded samplers,
    /// and the accelerator-side feature view at the wire precision.
    pub fn new(cfg: SystemConfig, dataset: Dataset) -> Self {
        let dims = cfg
            .train
            .layer_dims(dataset.spec.f0, dataset.data.num_classes);
        let model = GnnModel::new(cfg.train.model, &dims, cfg.train.seed);
        let optimizer = cfg.train.optimizer.build(cfg.train.learning_rate);
        let sampler = NeighborSampler::new(cfg.train.fanouts.clone(), cfg.train.seed ^ 0x5a5a);
        let batcher = EpochBatcher::new(dataset.splits.train.clone(), cfg.train.seed ^ 0xb00b);
        let pm = PerfModel::new(&cfg);
        let (split, threads) = pm.initial_mapping(&dataset.spec);
        let workers = Arc::new(StageWorkers::from_alloc(&threads));
        let drm = DrmEngine::new(cfg.opt.hybrid);
        let rings = Arc::new(StagingRings::new(
            cfg.platform.num_accelerators,
            cfg.train.staging_ring_depth,
        ));
        let accel_features = Arc::new(WireFeatures::build(
            cfg.train.transfer_precision,
            &dataset.data.features,
        ));
        Self {
            cfg,
            dataset: Arc::new(dataset),
            dims,
            model,
            optimizer,
            sampler,
            batcher,
            split,
            threads,
            workers,
            drm,
            sync: Synchronizer::new(),
            pool: Arc::new(MatrixPool::new()),
            rings,
            accel_features,
            next_epoch: 0,
            drm_schedule: Vec::new(),
        }
    }

    /// Install a scripted DRM schedule: each event fires after its
    /// `(epoch, iter)` iteration completes, *in addition to* whatever
    /// the live engine decides (tests usually run with `opt.drm` off so
    /// the script is the only source of re-mapping). Scripted
    /// `balance_work` moves are clamped by the split exactly like
    /// engine moves, so a scripted shift can legitimately land as a
    /// zero-diff re-map — the no-op invalidation path.
    pub fn set_drm_schedule(&mut self, schedule: Vec<ScriptedDrmEvent>) {
        self.drm_schedule = schedule;
    }

    /// Current workload split (inspectable for DRM traces).
    pub fn split(&self) -> &WorkloadSplit {
        &self.split
    }

    /// Current CPU thread allocation.
    pub fn thread_alloc(&self) -> &ThreadAlloc {
        &self.threads
    }

    /// Override the task mapping (e.g. to pin a split for equivalence
    /// testing, or to restore a checkpointed mapping).
    ///
    /// # Panics
    /// If the split's total or accelerator count disagrees with the
    /// configuration.
    pub fn set_mapping(&mut self, split: WorkloadSplit, threads: ThreadAlloc) {
        assert_eq!(split.total, self.split.total, "split total mismatch");
        assert_eq!(
            split.num_accelerators, self.cfg.platform.num_accelerators,
            "accelerator count mismatch"
        );
        self.split = split;
        self.threads = threads;
        self.workers.apply(&self.threads);
    }

    /// The live CPU worker pools (sampler / loader / trainer) the real
    /// pipeline dispatches on; widths mirror [`Self::thread_alloc`].
    pub fn workers(&self) -> &StageWorkers {
        &self.workers
    }

    /// The per-accelerator staging rings the prefetch producer
    /// double-buffers through (`TrainConfig::staging_ring_depth` slots
    /// each).
    pub fn rings(&self) -> &StagingRings {
        &self.rings
    }

    /// The replicated model (read access for evaluation).
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Capture a checkpoint of the model weights and settled mapping.
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        crate::checkpoint::Checkpoint::capture(
            self.next_epoch,
            self.model.flatten_params(),
            &self.split,
            &self.threads,
        )
    }

    /// Restore a checkpoint captured from an identically-configured
    /// trainer (same model dims, accelerator count, batch sizes).
    ///
    /// # Panics
    /// If the checkpoint's shapes disagree with this configuration.
    pub fn restore(&mut self, ckpt: &crate::checkpoint::Checkpoint) {
        self.model.load_flat_params(&ckpt.params);
        let split = ckpt.split();
        assert_eq!(
            split.total, self.split.total,
            "checkpoint batch total mismatch"
        );
        self.split = split;
        self.threads = ckpt.thread_alloc();
        self.workers.apply(&self.threads);
        self.next_epoch = ckpt.epoch;
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Evaluate accuracy on a vertex set (single forward pass).
    pub fn evaluate(&self, seeds: &[u32]) -> f32 {
        if seeds.is_empty() {
            return 0.0;
        }
        let mb = self
            .sampler
            .sample(&self.dataset.graph, seeds, u64::MAX / 2);
        let x = gather_features(&self.dataset.data.features, &mb.input_nodes);
        let logits = self.model.forward(&mb, &x);
        let labels: Vec<u32> = seeds
            .iter()
            .map(|&s| self.dataset.data.labels[s as usize])
            .collect();
        hyscale_tensor::accuracy(&logits, &labels)
    }

    /// Train `n` epochs, returning one report per epoch.
    pub fn train_epochs(&mut self, n: usize) -> Vec<EpochReport> {
        (0..n).map(|_| self.train_epoch()).collect()
    }

    /// Train up to `max_epochs`, evaluating on `val_seeds` after each
    /// epoch, stopping early after `patience` epochs without validation
    /// improvement. Returns the accumulated history.
    pub fn fit(
        &mut self,
        max_epochs: usize,
        val_seeds: &[u32],
        patience: Option<usize>,
    ) -> crate::metrics::TrainingHistory {
        let mut history = crate::metrics::TrainingHistory::new();
        let mut stopper = patience.map(|p| crate::metrics::EarlyStopping::new(p, 1e-4));
        for _ in 0..max_epochs {
            let report = self.train_epoch();
            let val = self.evaluate(val_seeds);
            history.record(&report, Some(val));
            if let Some(s) = stopper.as_mut() {
                if s.update(val) {
                    break;
                }
            }
        }
        history
    }

    /// Train one epoch.
    ///
    /// With `prefetch_depth > 0` the producer stages (sampling, feature
    /// loading) run on a background thread feeding a bounded queue,
    /// overlapped with GNN propagation here; DRM
    /// re-mapping events invalidate the queue before a split change
    /// takes effect, so training is bitwise-identical to `depth = 0`.
    pub fn train_epoch(&mut self) -> EpochReport {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let wall_start = Instant::now();

        let order = Arc::new(self.batcher.epoch_order(epoch));
        let total_batch = self.split.total;
        let scaled_iters = self.batcher.iterations(total_batch);
        let functional_iters = self
            .cfg
            .train
            .max_functional_iters
            .map_or(scaled_iters, |cap| scaled_iters.min(cap))
            .max(1);

        let prefetch_depth = self.cfg.train.prefetch_depth;
        let ctx = Arc::new(PrepareCtx {
            dataset: Arc::clone(&self.dataset),
            batcher: self.batcher.clone(),
            sampler: self.sampler.clone(),
            accel_features: Arc::clone(&self.accel_features),
            hybrid: self.cfg.opt.hybrid,
            workers: Arc::clone(&self.workers),
            numa_domains: self.cfg.platform.numa_domains(),
            rings: Arc::clone(&self.rings),
        });
        let mut feed = IterationFeed::new(
            Arc::clone(&ctx),
            Arc::clone(&order),
            epoch,
            functional_iters,
            prefetch_depth,
            Arc::clone(&self.pool),
            self.split.quotas(),
        );

        let mut trace = Vec::with_capacity(functional_iters);
        let mut last_loss = f32::NAN;
        let mut last_acc = 0.0f32;
        // Accelerator trainers' host numerics stand in for device
        // compute: they run at width 1, so the accelerator trainer
        // threads do not each spawn nested kernel threads (whose
        // per-thread malloc arenas grow the heap epoch over epoch). The
        // kernels give the same bits at any width; the CPU trainer keeps
        // the DRM's trainer pool.
        let device = rayon::WorkerGroup::new("accelerator", 1);

        for iter in 0..functional_iters {
            let iter_wall = Instant::now();
            // Salvage accounting snapshot: everything the feed salvages
            // or flushes during this iteration (stale-recovery inside
            // `obtain`, DRM/scripted invalidations below) lands in this
            // iteration's measured walls.
            let (salvaged0, flushed0) = feed.salvage_stats();
            let invalidation0 = feed.invalidation_wall_s();
            let quotas = self.split.quotas();
            // Sampling + Feature Loading (accelerator batches at wire
            // precision): prepared inline at depth 0, received from the
            // producer otherwise.
            let Some(prepared) = feed.obtain(iter, &quotas) else {
                break; // epoch seeds exhausted
            };
            let PreparedIteration {
                seed_sets,
                batches,
                features,
                sample_wall_s,
                load_wall_s,
                slots,
                threads: observed_threads,
                ..
            } = prepared;

            // --- Workload accounting for the timing layer ---
            let zero = WorkloadStats::zero(self.dims.len() - 1);
            let cpu_stats = if self.cfg.opt.hybrid {
                batches[0].as_ref().map_or(zero.clone(), |b| b.stats())
            } else {
                zero.clone()
            };
            let accel_offset = usize::from(self.cfg.opt.hybrid);
            let accel_stats: Vec<WorkloadStats> = (0..self.cfg.platform.num_accelerators)
                .map(|a| {
                    batches
                        .get(accel_offset + a)
                        .and_then(|b| b.as_ref())
                        .map_or(zero.clone(), |b| b.stats())
                })
                .collect();

            // --- GNN Propagation under the training protocol ---
            let train_wall = Instant::now();
            let labels_of = |seeds: &[u32]| -> Vec<u32> {
                seeds
                    .iter()
                    .map(|&s| self.dataset.data.labels[s as usize])
                    .collect()
            };
            let work: Vec<(usize, &MiniBatch, &Matrix, Vec<u32>)> = batches
                .iter()
                .zip(&features)
                .zip(&seed_sets)
                .enumerate()
                .filter_map(|(idx, ((b, f), seeds))| match (b.as_ref(), f.as_ref()) {
                    (Some(b), Some(f)) if !seeds.is_empty() => Some((idx, b, f, labels_of(seeds))),
                    _ => None,
                })
                .collect();

            let round = TrainingRound::new(work.len());
            let model = &self.model;
            let sync = &self.sync;
            let workers = &self.workers;
            let device = &device;
            let hybrid = self.cfg.opt.hybrid;
            let mut results: Vec<(usize, f32, f32, usize)> = Vec::with_capacity(work.len());
            let mut averaged: Option<Arc<Gradients>> = None;
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .iter()
                    .enumerate()
                    .map(|(slot, (idx, mb, x, labels))| {
                        let round = &round;
                        scope.spawn(move || {
                            // A panic below aborts the round instead of
                            // leaving the runtime and peers waiting.
                            let _abort = round.abort_on_panic();
                            // The CPU trainer's kernels run under the
                            // trainer pool's width, accelerator trainers
                            // at width 1.
                            let group = if hybrid && *idx == 0 {
                                workers.trainer()
                            } else {
                                device
                            };
                            let out = group.install(|| model.train_step(mb, x, labels));
                            let batch = labels.len();
                            let loss = out.loss;
                            let acc = out.accuracy;
                            // DONE++, wait for broadcast (Listing 1); a
                            // peer's failure ends this trainer quietly.
                            round.trainer_done(slot, out.grads).ok()?;
                            round.trainer_ack();
                            Some((*idx, loss, acc, batch))
                        })
                    })
                    .collect();
                // Runtime thread: synchronize + wait for ACKs. If a
                // trainer aborted the round, joining re-raises its panic.
                if let Ok(avg) = round.synchronize(sync) {
                    if round.runtime_wait_acks().is_ok() {
                        averaged = Some(avg);
                    }
                }
                results.extend(join_trainers(handles).into_iter().flatten());
            });
            let averaged = averaged.expect("no trainer failed, so the round completed");
            // Identical update applied to the (conceptually replicated)
            // model — replicas stay in lock-step.
            self.model
                .apply_gradients(&averaged, self.optimizer.as_mut());
            let train_wall_s = train_wall.elapsed().as_secs_f64();

            // Feature matrices go back for reuse — accelerator batches
            // to their lane's staging-ring free list, the CPU batch to
            // the shared pool — and mini-batches to their trainer's role:
            // steady-state iterations allocate no fresh ones.
            for (idx, (m, batch)) in features.into_iter().zip(batches).enumerate() {
                if let Some(m) = m {
                    ctx.release_buffer(idx, m, &self.pool);
                }
                if let Some(batch) = batch {
                    self.pool.release_batch(idx, batch);
                }
            }
            // Propagation done: free this batch's staging slots so the
            // producer can stage the next batch into them.
            drop(slots);

            let total_seeds: usize = results.iter().map(|r| r.3).sum();
            last_loss = results.iter().map(|r| r.1 * r.3 as f32).sum::<f32>() / total_seeds as f32;
            last_acc = results.iter().map(|r| r.2 * r.3 as f32).sum::<f32>() / total_seeds as f32;

            // --- Timing layer ---
            let inputs = StageInputs {
                cpu_stats: &cpu_stats,
                accel_stats: &accel_stats,
                dims: &self.dims,
                width_factor: self.cfg.train.model.update_width_factor(),
                model_bytes: self.model.nbytes() as u64,
                sampling_on_accel: self.split.sampling_on_accel,
                precision: self.cfg.train.transfer_precision,
            };
            let times = compute_stage_times(&self.cfg.platform, &self.threads, &inputs, true);
            let iter_time = if self.cfg.opt.tfp {
                times.pipelined_iteration()
            } else {
                times.serial_iteration()
            };
            let edges: u64 = cpu_stats.total_edges()
                + accel_stats
                    .iter()
                    .map(WorkloadStats::total_edges)
                    .sum::<u64>();
            let mteps = edges as f64 / iter_time / 1e6;

            // --- DRM fine-tuning for the next iteration ---
            // Overlap-aware accelerator estimate: how much wire time is
            // *visible* on the accelerator's critical path. Derived from
            // the pipeline configuration, not from measured walls — DRM
            // decisions must stay bitwise-identical across prefetch
            // depths and host core counts (the equivalence harness
            // compares trajectories), so the estimate may depend only on
            // the simulated times and the configured overlap machinery:
            // no TFP or a single staging slot can hide nothing (the
            // whole transfer rides the critical path, biasing
            // balance_work away from bandwidth-bound lanes); ring depth
            // ≥ 2 hides the wire behind accelerator compute, leaving
            // only the excess — Algorithm 1's max(T_Tran, T_TA) bundle.
            let visible_transfer = if !self.cfg.opt.tfp || self.cfg.train.staging_ring_depth <= 1 {
                times.transfer
            } else {
                (times.transfer - times.train_accel).max(0.0)
            };
            let action = if self.cfg.opt.drm {
                self.drm.adjust_with_visible(
                    &times,
                    visible_transfer,
                    &mut self.split,
                    &mut self.threads,
                )
            } else {
                DrmAction::None
            };
            // A balance_work move changed the per-trainer quotas: drain
            // the prefetch queue and restart the producer under the new
            // split before it takes effect (the determinism contract).
            // A balance_thread move only shifts the thread budget, so it
            // re-sizes the shared worker pools in place — the producer
            // picks the new widths up on its next dispatch and measured
            // stage walls shift without losing prepared iterations.
            match action {
                DrmAction::BalanceWork { .. } => feed.invalidate(iter + 1, self.split.quotas()),
                DrmAction::BalanceThread { .. } => feed.rebalance_threads(&self.threads),
                _ => {}
            }

            // Scripted DRM moves (test/bench injection) ride the exact
            // same invalidation paths as live engine decisions.
            for k in 0..self.drm_schedule.len() {
                let ev = self.drm_schedule[k];
                if ev.epoch != epoch || ev.iter != iter {
                    continue;
                }
                match ev.action {
                    ScriptedDrm::BalanceWork { to_cpu } => {
                        if to_cpu >= 0 {
                            self.split.shift_to_cpu(to_cpu as usize);
                        } else {
                            self.split.shift_to_accel(to_cpu.unsigned_abs());
                        }
                        feed.invalidate(iter + 1, self.split.quotas());
                    }
                    ScriptedDrm::BalanceThread { from, to } => {
                        if self.threads.shift(from, to) {
                            feed.rebalance_threads(&self.threads);
                        }
                    }
                    ScriptedDrm::Noop => feed.invalidate(iter + 1, self.split.quotas()),
                }
            }

            let (salvaged, flushed) = feed.salvage_stats();
            let invalidation_s = feed.invalidation_wall_s() - invalidation0;

            trace.push(IterationReport {
                iter,
                times,
                iter_time_s: iter_time,
                loss: last_loss,
                accuracy: last_acc,
                cpu_quota: self.split.cpu_quota,
                drm_action: action,
                mteps,
                wall: WallStageTimes {
                    sample_s: sample_wall_s,
                    load_s: load_wall_s,
                    train_s: train_wall_s,
                    iter_s: iter_wall.elapsed().as_secs_f64(),
                    batches_salvaged: salvaged - salvaged0,
                    batches_flushed: flushed - flushed0,
                    invalidation_s,
                    threads: observed_threads,
                },
            });
        }

        let prefetch_restarts = feed.restarts();
        feed.finish();

        // Steady-state iteration time: skip the first half of the trace
        // while the DRM is still settling from the coarse design-time
        // mapping (the paper measures warmed-up epochs).
        let executed = trace.len().max(1);
        let settled: Vec<f64> = if trace.len() >= 4 {
            trace[trace.len() / 2..]
                .iter()
                .map(|t| t.iter_time_s)
                .collect()
        } else {
            trace.iter().map(|t| t.iter_time_s).collect()
        };
        let mean_iter = if settled.is_empty() {
            0.0
        } else {
            settled.iter().sum::<f64>() / settled.len() as f64
        };
        let full_iters = self.dataset.full_scale_iterations(total_batch);
        let flush = if self.cfg.opt.tfp {
            calib::PIPELINE_FLUSH_ITERS * mean_iter
        } else {
            0.0
        };
        let epoch_time = full_iters as f64 * mean_iter + flush;
        let mteps = trace.iter().map(|t| t.mteps).sum::<f64>() / executed as f64;

        let wall_stages = WallStageTimes::mean_of(trace.iter().map(|t| &t.wall));

        EpochReport {
            epoch,
            epoch_time_s: epoch_time,
            mean_iter_time_s: mean_iter,
            full_scale_iters: full_iters,
            functional_iters: trace.len(),
            loss: last_loss,
            accuracy: last_acc,
            mteps,
            wall_s: wall_start.elapsed().as_secs_f64(),
            wall_stages,
            prefetch_depth,
            prefetch_restarts,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AcceleratorKind, OptFlags, PlatformConfig, SystemConfig, TrainConfig};
    use hyscale_gnn::GnnKind;

    fn toy_config(opt: OptFlags) -> SystemConfig {
        SystemConfig {
            platform: PlatformConfig::paper_node(AcceleratorKind::u250(), 2),
            opt,
            train: TrainConfig {
                model: GnnKind::Gcn,
                batch_per_trainer: 32,
                fanouts: vec![5, 3],
                hidden_dim: 16,
                learning_rate: 0.3,
                optimizer: crate::config::OptimizerKind::Sgd,
                seed: 7,
                max_functional_iters: Some(4),
                transfer_precision: hyscale_tensor::Precision::F32,
                prefetch_depth: 0,
                staging_ring_depth: 2,
            },
        }
    }

    #[test]
    fn epoch_runs_and_reports() {
        let ds = Dataset::toy(3);
        let mut t = HybridTrainer::new(toy_config(OptFlags::full()), ds);
        let r = t.train_epoch();
        assert!(r.functional_iters >= 1);
        assert!(r.epoch_time_s > 0.0);
        assert!(r.loss.is_finite());
        assert!(r.mteps > 0.0);
        assert_eq!(r.epoch, 0);
        let r2 = t.train_epoch();
        assert_eq!(r2.epoch, 1);
    }

    #[test]
    fn loss_decreases_across_epochs() {
        let ds = Dataset::toy(5);
        let mut cfg = toy_config(OptFlags::full());
        cfg.train.max_functional_iters = Some(6);
        let mut t = HybridTrainer::new(cfg, ds);
        let reports = t.train_epochs(6);
        let first = reports.first().unwrap().loss;
        let last = reports.last().unwrap().loss;
        assert!(
            last < first * 0.9,
            "training did not converge: {first} -> {last}"
        );
    }

    #[test]
    fn tfp_shortens_iterations() {
        let ds = Dataset::toy(9);
        let mut with = HybridTrainer::new(toy_config(OptFlags::full()), ds.clone());
        let mut cfg = toy_config(OptFlags::hybrid_drm());
        cfg.train.seed = 7;
        let mut without = HybridTrainer::new(cfg, ds);
        let a = with.train_epoch().mean_iter_time_s;
        let b = without.train_epoch().mean_iter_time_s;
        assert!(a < b, "TFP {a} should beat serial {b}");
    }

    #[test]
    fn baseline_has_no_cpu_trainer() {
        let ds = Dataset::toy(11);
        let mut t = HybridTrainer::new(toy_config(OptFlags::baseline()), ds);
        let r = t.train_epoch();
        assert_eq!(t.split().cpu_quota, 0);
        assert!(r.trace.iter().all(|it| it.times.train_cpu == 0.0));
    }

    #[test]
    fn drm_changes_mapping_when_enabled() {
        let ds = Dataset::toy(13);
        let mut cfg = toy_config(OptFlags::full());
        cfg.train.max_functional_iters = Some(8);
        let mut t = HybridTrainer::new(cfg, ds);
        let r = t.train_epoch();
        let acted = r.trace.iter().any(|it| it.drm_action != DrmAction::None);
        assert!(
            acted,
            "DRM never acted: {:?}",
            r.trace.iter().map(|i| i.drm_action).collect::<Vec<_>>()
        );
    }

    #[test]
    fn prefetch_depths_train_bitwise_identical_weights() {
        let run = |depth: usize| {
            let ds = Dataset::toy(21);
            let mut cfg = toy_config(OptFlags::full());
            cfg.train.prefetch_depth = depth;
            cfg.train.max_functional_iters = Some(6);
            let mut t = HybridTrainer::new(cfg, ds);
            t.train_epochs(2);
            t.model().flatten_params()
        };
        let serial = run(0);
        for depth in [1usize, 3] {
            assert_eq!(serial, run(depth), "depth {depth} diverged from serial");
        }
    }

    #[test]
    fn prefetch_reports_depth_and_measured_walls() {
        let ds = Dataset::toy(23);
        let mut cfg = toy_config(OptFlags::full());
        cfg.train.prefetch_depth = 2;
        let mut t = HybridTrainer::new(cfg, ds);
        let r = t.train_epoch();
        assert_eq!(r.prefetch_depth, 2);
        assert!(r.wall_stages.train_s > 0.0, "propagation wall unmeasured");
        assert!(
            r.trace.iter().all(|it| it.wall.iter_s > 0.0),
            "iteration wall unmeasured"
        );
        // buffers are primed for the next epoch: the CPU batch back in
        // the shared pool, accelerator batches on their lanes' rings
        assert!(
            t.pool.idle() > 0,
            "feature buffers were not returned to the pool"
        );
        assert_eq!(t.rings().in_flight_total(), 0, "staging slots leaked");
        assert!(
            (0..3).all(|trainer| t.pool.idle_batches(trainer) > 0),
            "a trainer role's mini-batches were not returned to the pool"
        );
        assert_eq!(t.rings().depth(), 2);
        assert!(
            (0..t.rings().num_rings()).any(|a| t.rings().ring(a).take_buffer().is_some()),
            "no lane-local buffer was recycled to a staging ring"
        );
    }

    #[test]
    fn a_seed_outside_the_graph_fails_the_epoch_with_its_vertex_named() {
        // One train vertex id equals |V|. Sampling must reject it loudly
        // through the sampler dispatch (five trainers), inline at depth 0
        // and on the producer thread at depth 2, within a bounded time.
        for depth in [0usize, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut ds = Dataset::toy(3);
                let n = ds.graph.num_vertices() as u32;
                ds.splits.train.truncate(40);
                ds.splits.train.push(n);
                let mut cfg = toy_config(OptFlags::full());
                cfg.platform = PlatformConfig::paper_node(AcceleratorKind::u250(), 4);
                cfg.train.prefetch_depth = depth;
                let mut t = HybridTrainer::new(cfg, ds);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    t.train_epoch().functional_iters
                }));
                let _ = tx.send((n, outcome.map_err(crate::prefetch::panic_text)));
            });
            let (n, outcome) = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("depth {depth}: the failing epoch never returned"));
            let message = outcome.expect_err("a bad seed must fail the epoch");
            let expected =
                format!("seed vertex {n} is out of range: the graph has |V| = {n} vertices");
            assert_eq!(message, expected, "depth {depth}");
        }
    }

    #[test]
    fn evaluation_accuracy_improves() {
        let ds = Dataset::toy(17);
        let test_seeds = ds.splits.test.clone();
        let mut cfg = toy_config(OptFlags::full());
        cfg.train.max_functional_iters = Some(6);
        let mut t = HybridTrainer::new(cfg, ds);
        let before = t.evaluate(&test_seeds);
        t.train_epochs(8);
        let after = t.evaluate(&test_seeds);
        assert!(
            after > before + 0.1,
            "test accuracy did not improve: {before} -> {after}"
        );
        // learnable SBM: should beat random guessing (4 classes) solidly
        assert!(after > 0.5, "final accuracy {after}");
    }
}
