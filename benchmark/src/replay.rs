//! The traced replay behind the per-layer metrics.
//!
//! It re-runs the untraced run's first epoch on the one driving thread,
//! calling each layer's public functions in turn and timing every call:
//! `NeighborSampler::sample`, `gather_features` and
//! `Precision::round_trip_in_place` per trainer, `GnnModel::train_step`
//! per trainer, then `Synchronizer::all_reduce` and
//! `GnnModel::apply_gradients`. Seeds are sliced with
//! `EpochBatcher::plan` over `WorkloadSplit::quotas()`, and the CPU
//! quota follows what the untraced run recorded, so DRM moves replay
//! too. After each timed iteration, outside its wall, every step's
//! `forward` is timed and [`decompose`] times the step's kernels on the
//! step's own blocks and weights.

use crate::run::{Untraced, ATTEMPTED};
use crate::workload::Workload;
use hyscale_core::sync::Synchronizer;
use hyscale_core::WorkloadSplit;
use hyscale_gnn::{
    aggregate_gcn, aggregate_gcn_backward, aggregate_mean, aggregate_mean_backward,
    GcnCoefficients, GnnKind, GnnModel, Gradients,
};
use hyscale_graph::features::gather_features;
use hyscale_sampler::{EpochBatcher, MiniBatch, NeighborSampler};
use hyscale_tensor::ops::{add_bias_inplace, bias_grad, relu_backward_inplace, relu_inplace};
use hyscale_tensor::{gemm_nn, gemm_nt, gemm_tn, softmax_cross_entropy, Matrix, Precision};
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Epochs replayed, from the first; the untraced run always trains at
/// least these.
pub const REPLAY_EPOCHS: usize = 1;

/// How `HybridTrainer::new` seeds its sampler and batcher from the
/// training seed. With these and [`stream_base`] the replay draws the
/// untraced run's batches; [`check`] fails the run if they no longer
/// match the trainer's.
const SAMPLER_SEED_MIX: u64 = 0x5a5a;
const BATCHER_SEED_MIX: u64 = 0xb00b;

/// The executor's sampler stream base for one iteration; trainers add
/// their rank among the non-empty slices, plus one.
fn stream_base(epoch: u64, iter: usize) -> u64 {
    epoch.wrapping_mul(1 << 20) + iter as u64 * 64
}

/// Sums over the replayed iterations; `metrics::per_layer` divides by
/// `iterations`. Per-layer vectors are indexed by GNN layer,
/// input-most first.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Iterations replayed.
    pub iterations: usize,
    /// Seeds sliced in each replayed iteration.
    pub seeds_per_iter: Vec<usize>,
    /// Each iteration's batch-weighted loss, as `HybridTrainer` reports it.
    pub losses: Vec<f32>,
    /// Wall of the timed iterations, from slicing to the optimizer step.
    pub wall_s: f64,
    /// `NeighborSampler::sample` time.
    pub sample_s: f64,
    /// Sampled edges over all layers and trainers.
    pub edges: f64,
    /// Input rows (`MiniBatch::input_nodes`) over all trainers.
    pub input_rows: f64,
    /// `gather_features` time.
    pub gather_s: f64,
    /// Bytes of gathered feature rows.
    pub gather_bytes: f64,
    /// `Precision::round_trip_in_place` time on accelerator trainers.
    pub round_trip_s: f64,
    /// Bytes the round-trip rewrote (0 when the wire is f32).
    pub round_trip_bytes: f64,
    /// `GnnModel::train_step` time over all trainers.
    pub train_step_s: f64,
    /// Sum over iterations of the slowest step over the mean step.
    pub imbalance: f64,
    /// `GnnModel::forward` time over all trainers.
    pub forward_s: f64,
    /// Forward aggregation time per layer.
    pub agg_fwd_s: Vec<f64>,
    /// Backward aggregation time per layer.
    pub agg_bwd_s: Vec<f64>,
    /// Edges the aggregation kernels walked, forward and backward.
    pub agg_edges: f64,
    /// `gemm_nn` (update) time per layer.
    pub gemm_nn_s: Vec<f64>,
    /// `gemm_tn` (weight gradient) time per layer.
    pub gemm_tn_s: Vec<f64>,
    /// `gemm_nt` (input gradient) time per layer.
    pub gemm_nt_s: Vec<f64>,
    /// Floating-point operations of all GEMMs.
    pub gemm_flops: f64,
    /// `softmax_cross_entropy` time.
    pub loss_s: f64,
    /// `Synchronizer::all_reduce` time.
    pub all_reduce_s: f64,
    /// Gradient bytes gathered by the all-reduce.
    pub all_reduce_bytes: f64,
    /// `GnnModel::apply_gradients` time.
    pub optimizer_s: f64,
}

impl Replay {
    /// Empty sums for a model of `layers` GNN layers.
    pub fn new(layers: usize) -> Self {
        Self {
            agg_fwd_s: vec![0.0; layers],
            agg_bwd_s: vec![0.0; layers],
            gemm_nn_s: vec![0.0; layers],
            gemm_tn_s: vec![0.0; layers],
            gemm_nt_s: vec![0.0; layers],
            ..Self::default()
        }
    }

    /// Producer stages: sampling, gathering, round-trip.
    pub fn producer_s(&self) -> f64 {
        self.sample_s + self.gather_s + self.round_trip_s
    }

    /// Consumer stages: train steps, all-reduce, optimizer.
    pub fn consumer_s(&self) -> f64 {
        self.train_step_s + self.all_reduce_s + self.optimizer_s
    }

    /// Seconds inside the timed spans of the replayed iterations.
    pub fn busy_s(&self) -> f64 {
        self.producer_s() + self.consumer_s()
    }

    /// Seconds of the kernels [`decompose`] timed.
    pub fn kernel_s(&self) -> f64 {
        [
            &self.agg_fwd_s,
            &self.agg_bwd_s,
            &self.gemm_nn_s,
            &self.gemm_tn_s,
            &self.gemm_nt_s,
        ]
        .into_iter()
        .flatten()
        .sum::<f64>()
            + self.loss_s
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Replay the first [`REPLAY_EPOCHS`] epochs of `untraced`.
pub fn replay(w: &Workload, seed: u64, untraced: &Untraced) -> Replay {
    let cfg = w.config(seed);
    let dataset = w.dataset(seed);
    let dims = cfg
        .train
        .layer_dims(dataset.spec.f0, dataset.data.num_classes);
    let mut model = GnnModel::new(cfg.train.model, &dims, seed);
    let mut optimizer = cfg.train.optimizer.build(cfg.train.learning_rate);
    let sampler = NeighborSampler::new(cfg.train.fanouts.clone(), seed ^ SAMPLER_SEED_MIX);
    let batcher = EpochBatcher::new(dataset.splits.train.clone(), seed ^ BATCHER_SEED_MIX);
    let precision = cfg.train.transfer_precision;
    let mut quotas_in_force = untraced.quota_schedule().into_iter();
    let mut r = Replay::new(model.num_layers());

    for epoch in 0..REPLAY_EPOCHS as u64 {
        let order = batcher.epoch_order(epoch);
        for iter in 0..w.iters_per_epoch {
            ATTEMPTED.fetch_add(1, Ordering::SeqCst);
            let cpu_quota = quotas_in_force
                .next()
                .expect("the untraced run trained every replayed iteration");
            let quotas =
                WorkloadSplit::new(cpu_quota, cfg.total_batch(), cfg.platform.num_accelerators)
                    .quotas();
            // The weights this iteration's steps see, for the kernel
            // pass after the optimizer has moved `model` on.
            let weights = model.clone();

            let wall = Instant::now();
            let (_, seed_sets) = batcher
                .plan(&order, iter, &quotas)
                .next()
                .expect("the epoch has seeds for every iteration");
            let mut batches = Vec::with_capacity(seed_sets.len());
            for (trainer, seeds) in seed_sets.iter().enumerate() {
                if seeds.is_empty() {
                    continue;
                }
                let stream = stream_base(epoch, iter) + batches.len() as u64 + 1;
                let start = Instant::now();
                let mb = sampler.sample(&dataset.graph, seeds, stream);
                r.sample_s += secs(start);
                r.edges += mb.total_edges() as f64;
                r.input_rows += mb.input_nodes.len() as f64;
                let start = Instant::now();
                let mut x = gather_features(&dataset.data.features, &mb.input_nodes);
                r.gather_s += secs(start);
                r.gather_bytes += x.nbytes() as f64;
                // Trainer 0 is the CPU trainer; the accelerators'
                // features cross the wire.
                if trainer > 0 {
                    let start = Instant::now();
                    precision.round_trip_in_place(&mut x);
                    r.round_trip_s += secs(start);
                    if precision != Precision::F32 {
                        r.round_trip_bytes += x.nbytes() as f64;
                    }
                }
                let labels: Vec<u32> = seeds
                    .iter()
                    .map(|&s| dataset.data.labels[s as usize])
                    .collect();
                batches.push((mb, x, labels));
            }
            let mut step_s = Vec::with_capacity(batches.len());
            let mut steps = Vec::with_capacity(batches.len());
            for (mb, x, labels) in &batches {
                let start = Instant::now();
                steps.push(model.train_step(mb, x, labels));
                step_s.push(secs(start));
            }
            let seeds: usize = batches.iter().map(|b| b.2.len()).sum();
            let loss = steps
                .iter()
                .zip(&batches)
                .map(|(s, b)| s.loss * b.2.len() as f32)
                .sum::<f32>()
                / seeds as f32;
            let grads: Vec<Gradients> = steps.into_iter().map(|s| s.grads).collect();
            let start = Instant::now();
            let averaged = Synchronizer::new().all_reduce(&grads);
            r.all_reduce_s += secs(start);
            let start = Instant::now();
            model.apply_gradients(&averaged, optimizer.as_mut());
            r.optimizer_s += secs(start);
            r.wall_s += secs(wall);

            r.all_reduce_bytes += grads.iter().map(Gradients::nbytes).sum::<usize>() as f64;
            let total_step_s: f64 = step_s.iter().sum();
            r.train_step_s += total_step_s;
            r.imbalance +=
                step_s.iter().copied().fold(0.0, f64::max) * step_s.len() as f64 / total_step_s;
            for (mb, x, labels) in &batches {
                let start = Instant::now();
                black_box(weights.forward(mb, x));
                r.forward_s += secs(start);
                decompose(&weights, mb, x, labels, &mut r);
            }
            r.seeds_per_iter.push(seeds);
            r.losses.push(loss);
            r.iterations += 1;
        }
    }
    r
}

/// Checks of a replay against its untraced run, one message per
/// failure: every replayed loss equals the untraced run's bitwise. A
/// replay that drifts from the batches `HybridTrainer` draws (its seed
/// mixing or sampler streams changed, say) fails here, so its layer
/// times are never reported for batches the program did not train.
pub fn check(untraced: &Untraced, r: &Replay) -> Vec<String> {
    r.losses
        .iter()
        .zip(&untraced.losses())
        .enumerate()
        .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
        .map(|(k, (a, b))| format!("replay iteration {k} lost {a}, the untraced run {b}"))
        .collect()
}

/// 2·m·k·n: the floating-point operations of an `m×k · k×n` product.
fn flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * m as f64 * k as f64 * n as f64
}

/// Recompute one `train_step` kernel by kernel — aggregation, update
/// GEMM and loss forward, then weight- and input-gradient GEMMs and
/// aggregation backward — timing each kernel into `r`. Returns the
/// loss, which equals `model.train_step(mb, x, labels).loss` bitwise.
pub fn decompose(
    model: &GnnModel,
    mb: &MiniBatch,
    x: &Matrix,
    labels: &[u32],
    r: &mut Replay,
) -> f32 {
    let params = model.flatten_params();
    let mut offset = 0;
    let mut weights = Vec::new();
    let mut biases = Vec::new();
    for (rows, cols) in model.weight_shapes() {
        weights.push(Matrix::from_vec(
            rows,
            cols,
            params[offset..offset + rows * cols].to_vec(),
        ));
        offset += rows * cols;
        biases.push(params[offset..offset + cols].to_vec());
        offset += cols;
    }
    let layers = weights.len();
    let kind = model.kind();

    let mut update_ins = Vec::with_capacity(layers);
    let mut pre_activations = Vec::with_capacity(layers);
    let mut coefs = Vec::with_capacity(layers);
    let mut h: Option<Matrix> = None;
    for (l, block) in mb.blocks.iter().enumerate() {
        let input = h.as_ref().unwrap_or(x);
        let start = Instant::now();
        let (agg, coef) = match kind {
            GnnKind::GraphSage => (aggregate_mean(block, input), None),
            GnnKind::Gcn | GnnKind::Gin => {
                let coef = if kind == GnnKind::Gcn {
                    GcnCoefficients::from_block(block)
                } else {
                    GcnCoefficients::gin(block, 0.0)
                };
                (aggregate_gcn(block, input, &coef), Some(coef))
            }
        };
        r.agg_fwd_s[l] += secs(start);
        r.agg_edges += block.num_edges() as f64;
        let update_in = if coef.is_none() {
            // SAGE: destination rows are the source prefix.
            let mut self_feats = Matrix::zeros(block.num_dst, input.cols());
            for d in 0..block.num_dst {
                self_feats.row_mut(d).copy_from_slice(input.row(d));
            }
            self_feats.hconcat(&agg)
        } else {
            agg
        };
        let start = Instant::now();
        let mut z = gemm_nn(&update_in, &weights[l]);
        r.gemm_nn_s[l] += secs(start);
        r.gemm_flops += flops(update_in.rows(), update_in.cols(), weights[l].cols());
        add_bias_inplace(&mut z, &biases[l]);
        let mut out = z.clone();
        if l + 1 < layers {
            relu_inplace(&mut out);
        }
        update_ins.push(update_in);
        pre_activations.push(z);
        coefs.push(coef);
        h = Some(out);
    }
    let logits = h.expect("a model has at least one layer");
    let start = Instant::now();
    let loss = softmax_cross_entropy(&logits, labels);
    r.loss_s += secs(start);

    let mut d_h = loss.grad;
    for l in (0..layers).rev() {
        let block = &mb.blocks[l];
        let mut d_z = d_h;
        if l + 1 < layers {
            relu_backward_inplace(&mut d_z, &pre_activations[l]);
        }
        let start = Instant::now();
        black_box(gemm_tn(&update_ins[l], &d_z));
        r.gemm_tn_s[l] += secs(start);
        black_box(bias_grad(&d_z));
        let start = Instant::now();
        let d_update_in = gemm_nt(&d_z, &weights[l]);
        r.gemm_nt_s[l] += secs(start);
        r.gemm_flops += 2.0 * flops(d_z.rows(), update_ins[l].cols(), d_z.cols());
        d_h = match &coefs[l] {
            Some(coef) => {
                let start = Instant::now();
                let d_src = aggregate_gcn_backward(block, &d_update_in, coef);
                r.agg_bwd_s[l] += secs(start);
                d_src
            }
            None => {
                let (d_self, d_mean) = d_update_in.hsplit(update_ins[l].cols() / 2);
                let start = Instant::now();
                let mut d_src = aggregate_mean_backward(block, &d_mean);
                r.agg_bwd_s[l] += secs(start);
                for d in 0..block.num_dst {
                    for (o, v) in d_src.row_mut(d).iter_mut().zip(d_self.row(d)) {
                        *o += *v;
                    }
                }
                d_src
            }
        };
        r.agg_edges += block.num_edges() as f64;
    }
    black_box(d_h);
    loss.loss
}
