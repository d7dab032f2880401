//! GCN and GraphSAGE models with hand-derived backward passes.
//!
//! Layer `l` (block `l`, input-most first) computes, for GCN (Eq. 3):
//!
//! ```text
//! agg = C_gcn · H_src            (num_dst × f_in)
//! z   = agg · W + b              (num_dst × f_out)
//! h   = ReLU(z)                  (hidden layers; the last layer emits z)
//! ```
//!
//! and for GraphSAGE (Eq. 4), with the stored weight `W = [W_self; W_neigh]`
//! (`2·f_in × f_out`):
//!
//! ```text
//! mean = mean(H_src)                                   (num_dst × f_in)
//! z    = H_src[..num_dst] · W_self + mean · W_neigh + b
//! h    = ReLU(z)
//! ```
//!
//! That is Eq. 4's `[H_src[..num_dst] ‖ mean] · W` without building the
//! concatenation. The update GEMM adds each output element's products in
//! ascending `k` order and Rust never fuses `a*b + c`, so accumulating
//! `mean · W_neigh` onto `H_src[..num_dst] · W_self` adds exactly the
//! same terms in exactly the same order as the concat product: the
//! result is bitwise equal. The weight gradient `[H_dstᵀ·∂z; meanᵀ·∂z]`
//! is written half by half into one `2·f_in × f_out` buffer, again bit
//! for bit what `catᵀ·∂z` gives, so checkpoints, the all-reduce payload
//! and [`GnnModel::weight_shapes`] keep the concat layout.
//!
//! Backward walks the same graph in reverse (paper Fig. 1: "Backward
//! propagation performs the same set of GNN operations ... in a reverse
//! direction"), producing `∂W`/`∂b` per layer. It stops after layer 0's
//! `∂W`/`∂b`: the gradient with respect to the input features (layer 0's
//! `∂z·Wᵀ` and its aggregation backward) would only feed parameters the
//! model does not have, since the features are not trainable.
//!
//! Every layer borrows its input: the gathered features for layer 0, the
//! previous layer's cached activation after that. Layer 0's input is a
//! [`WireRows`]: host f32 rows, or an accelerator batch still packed at
//! wire precision. The aggregation decodes packed elements as it reads
//! them, and SAGE decodes only the `num_dst` destination rows, once, for
//! its self half in the forward pass and in `∂W`; nothing else reads
//! layer 0's input, so a packed batch trains to the bits of its decoded
//! f32 copy. The ReLU mask reads the activation instead of a copy of
//! `z`: `ReLU(z) ≤ 0` exactly when `z ≤ 0`, so the mask is the same.

use crate::aggregate::{
    aggregate, aggregate_gcn_backward, aggregate_mean_backward, GcnCoefficients,
};
use crate::grads::Gradients;
use hyscale_sampler::{Block, MiniBatch};
use hyscale_tensor::ops::{add_bias_inplace, bias_grad, relu_backward_inplace, relu_inplace};
use hyscale_tensor::optim::Optimizer;
use hyscale_tensor::quant::WireRows;
use hyscale_tensor::{
    gemm_nn, gemm_nn_acc, gemm_nt, gemm_nt_acc, gemm_tn, gemm_tn_acc, softmax_cross_entropy,
    xavier_uniform, Matrix,
};

/// Which aggregate-update model to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GnnKind {
    /// Graph Convolutional Network (paper Eq. 3).
    Gcn,
    /// GraphSAGE with mean aggregator and concatenation (paper Eq. 4).
    GraphSage,
    /// Graph Isomorphism Network (GIN-0): unnormalised sum aggregation
    /// with self-loop. Not in the paper's evaluation, but the system
    /// claims to train "various GNN models" under the aggregate-update
    /// paradigm (§II-A) — GIN exercises that claim.
    Gin,
}

impl GnnKind {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            GnnKind::Gcn => "GCN",
            GnnKind::GraphSage => "GraphSAGE",
            GnnKind::Gin => "GIN",
        }
    }

    /// Width multiplier of the update's input (SAGE's weight stacks
    /// `W_self` over `W_neigh`, Eq. 4's self ‖ neighbour concatenation).
    pub fn update_width_factor(self) -> usize {
        match self {
            GnnKind::Gcn | GnnKind::Gin => 1,
            GnnKind::GraphSage => 2,
        }
    }

    /// The aggregation coefficients a block's mini-batch layer uses
    /// (None for SAGE's mean aggregator).
    pub(crate) fn block_coefficients(self, block: &Block) -> Option<GcnCoefficients> {
        match self {
            GnnKind::Gcn => Some(GcnCoefficients::from_block(block)),
            GnnKind::Gin => Some(GcnCoefficients::gin(block, 0.0)),
            GnnKind::GraphSage => None,
        }
    }
}

/// One GNN layer's parameters.
#[derive(Clone)]
struct LayerParams {
    w: Matrix,
    b: Vec<f32>,
}

impl LayerParams {
    /// `(W_self, W_neigh)`: the two `f_in × f_out` halves of a SAGE weight.
    fn sage_halves(&self) -> (&[f32], &[f32]) {
        self.w.as_slice().split_at(self.w.len() / 2)
    }
}

/// A multi-layer GNN model (replicated per trainer under synchronous SGD).
#[derive(Clone)]
pub struct GnnModel {
    kind: GnnKind,
    dims: Vec<usize>,
    layers: Vec<LayerParams>,
}

/// Output of a single forward+backward training step.
pub struct StepOutput {
    /// Mean cross-entropy loss over this trainer's seeds.
    pub loss: f32,
    /// Training accuracy over this trainer's seeds.
    pub accuracy: f32,
    /// Parameter gradients (mean over this trainer's batch).
    pub grads: Gradients,
}

impl GnnModel {
    /// Build a model with layer dimensions `dims = [f0, f1, ..., fL]`
    /// (paper Table III rows give `[f0, 256, f2]`), Xavier-initialised
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// If fewer than two dims are given.
    pub fn new(kind: GnnKind, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(l, w)| {
                let fan_in = w[0] * kind.update_width_factor();
                LayerParams {
                    w: xavier_uniform(fan_in, w[1], seed.wrapping_add(l as u64 * 7919)),
                    b: vec![0.0; w[1]],
                }
            })
            .collect();
        Self {
            kind,
            dims: dims.to_vec(),
            layers,
        }
    }

    /// Model kind.
    pub fn kind(&self) -> GnnKind {
        self.kind
    }

    /// Layer dimensions `[f0 .. fL]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of GNN layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Weight shapes, for building zero gradients.
    pub fn weight_shapes(&self) -> Vec<(usize, usize)> {
        self.layers.iter().map(|l| l.w.shape()).collect()
    }

    /// Total scalar parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Model size in bytes — Eq. 13's all-reduce payload.
    pub fn nbytes(&self) -> usize {
        self.num_params() * 4
    }

    /// Forward pass only: logits for the seed vertices.
    ///
    /// `x` holds the gathered input features (`mb.input_nodes` rows):
    /// a host matrix or a batch packed at wire precision.
    pub fn forward<'a>(&self, mb: &MiniBatch, x: impl Into<WireRows<'a>>) -> Matrix {
        self.forward_cached(mb, x.into()).logits
    }

    fn forward_cached(&self, mb: &MiniBatch, x: WireRows<'_>) -> ForwardCache {
        assert_eq!(
            mb.num_layers(),
            self.layers.len(),
            "mini-batch layer count mismatch"
        );
        assert_eq!(
            x.rows(),
            mb.input_nodes.len(),
            "feature rows must match input nodes"
        );
        assert_eq!(x.cols(), self.dims[0], "feature width must match f0");

        let layers = self.layers.len();
        let mut per_layer = Vec::with_capacity(layers);
        let mut activations: Vec<Matrix> = Vec::with_capacity(layers - 1);
        for (l, (block, params)) in mb.blocks.iter().zip(&self.layers).enumerate() {
            let h_src = activations.last().map_or(x, WireRows::F32);
            let gcn_coef = self.kind.block_coefficients(block);
            let agg = aggregate(block, h_src, gcn_coef.as_ref());
            let (mut z, dst_decoded) = match gcn_coef {
                Some(_) => (gemm_nn(&agg, &params.w), None),
                None => {
                    let dst_decoded = decode_dst_rows(block, h_src);
                    let dims = (block.num_dst, h_src.cols(), params.w.cols());
                    let (w_self, w_neigh) = params.sage_halves();
                    let mut z = Matrix::zeros(block.num_dst, params.w.cols());
                    let h_dst = dst_rows(block, h_src, dst_decoded.as_ref());
                    gemm_nn_acc(z.as_mut_slice(), h_dst, w_self, dims);
                    gemm_nn_acc(z.as_mut_slice(), agg.as_slice(), w_neigh, dims);
                    (z, dst_decoded)
                }
            };
            add_bias_inplace(&mut z, &params.b);
            per_layer.push(LayerCache {
                agg,
                gcn_coef,
                dst_decoded,
            });
            if l + 1 == layers {
                return ForwardCache {
                    per_layer,
                    activations,
                    logits: z,
                };
            }
            relu_inplace(&mut z);
            activations.push(z);
        }
        unreachable!("a model has at least one layer")
    }

    /// One training step: forward, loss, backward. Returns loss/accuracy
    /// and gradients (mean over this batch); does *not* update weights —
    /// the synchronizer averages first (paper Fig. 4 step "GNN
    /// Propagation" → "Synchronizer").
    ///
    /// `x` is layer 0's input, a host matrix or a batch packed at wire
    /// precision; a packed batch gives the bits of its decoded copy.
    pub fn train_step<'a>(
        &self,
        mb: &MiniBatch,
        x: impl Into<WireRows<'a>>,
        labels: &[u32],
    ) -> StepOutput {
        let x = x.into();
        let cache = self.forward_cached(mb, x);
        let loss_out = softmax_cross_entropy(&cache.logits, labels);
        let acc = hyscale_tensor::accuracy(&cache.logits, labels);

        let layers = self.layers.len();
        let mut d_weights: Vec<Matrix> = Vec::with_capacity(layers);
        let mut d_biases: Vec<Vec<f32>> = Vec::with_capacity(layers);
        let mut d_h = loss_out.grad; // ∂L/∂logits
        for l in (0..layers).rev() {
            let block = &mb.blocks[l];
            let params = &self.layers[l];
            let lc = &cache.per_layer[l];
            let h_src = if l == 0 {
                x
            } else {
                WireRows::F32(&cache.activations[l - 1])
            };
            let mut d_z = d_h;
            if l + 1 < layers {
                relu_backward_inplace(&mut d_z, &cache.activations[l]);
            }
            // update backward
            d_weights.push(match &lc.gcn_coef {
                Some(_) => gemm_tn(&lc.agg, &d_z),
                None => {
                    let dims = (h_src.cols(), block.num_dst, d_z.cols());
                    let mut d_w = Matrix::zeros(params.w.rows(), params.w.cols());
                    let (d_self, d_neigh) = d_w.as_mut_slice().split_at_mut(params.w.len() / 2);
                    let h_dst = dst_rows(block, h_src, lc.dst_decoded.as_ref());
                    gemm_tn_acc(d_self, h_dst, d_z.as_slice(), dims);
                    gemm_tn_acc(d_neigh, lc.agg.as_slice(), d_z.as_slice(), dims);
                    d_w
                }
            });
            d_biases.push(bias_grad(&d_z));
            if l == 0 {
                // The input features are not trainable: no ∂L/∂X.
                break;
            }
            // aggregate backward
            d_h = match &lc.gcn_coef {
                Some(coef) => aggregate_gcn_backward(block, &gemm_nt(&d_z, &params.w), coef),
                None => {
                    let dims = (block.num_dst, d_z.cols(), h_src.cols());
                    let (w_self, w_neigh) = params.sage_halves();
                    let mut d_mean = Matrix::zeros(block.num_dst, h_src.cols());
                    gemm_nt_acc(d_mean.as_mut_slice(), d_z.as_slice(), w_neigh, dims);
                    let mut d_src = aggregate_mean_backward(block, &d_mean);
                    let d_dst = &mut d_src.as_mut_slice()[..block.num_dst * h_src.cols()];
                    gemm_nt_acc(d_dst, d_z.as_slice(), w_self, dims);
                    d_src
                }
            };
        }
        d_weights.reverse();
        d_biases.reverse();

        StepOutput {
            loss: loss_out.loss,
            accuracy: acc,
            grads: Gradients {
                d_weights,
                d_biases,
                batch_size: mb.seeds.len(),
            },
        }
    }

    /// Apply (already averaged) gradients with the given optimizer.
    /// All replicas call this with identical inputs, keeping weights in
    /// lock-step.
    pub fn apply_gradients(&mut self, grads: &Gradients, opt: &mut dyn Optimizer) {
        assert_eq!(
            grads.num_layers(),
            self.layers.len(),
            "gradient layer mismatch"
        );
        for (l, (params, (dw, db))) in self
            .layers
            .iter_mut()
            .zip(grads.d_weights.iter().zip(&grads.d_biases))
            .enumerate()
        {
            opt.step(2 * l, &mut params.w, dw);
            let mut b = Matrix::from_vec(1, params.b.len(), params.b.clone());
            let db_m = Matrix::from_vec(1, db.len(), db.clone());
            opt.step(2 * l + 1, &mut b, &db_m);
            params.b.copy_from_slice(b.as_slice());
        }
    }

    /// Replace one layer's parameters (checkpoint loading, grad-check).
    ///
    /// # Panics
    /// On shape mismatch.
    pub fn set_layer_params(&mut self, layer: usize, w: Matrix, b: Vec<f32>) {
        let params = &mut self.layers[layer];
        assert_eq!(params.w.shape(), w.shape(), "weight shape mismatch");
        assert_eq!(params.b.len(), b.len(), "bias length mismatch");
        params.w = w;
        params.b = b;
    }

    /// Flatten all parameters (weights then bias per layer) for
    /// replica-consistency checks.
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            out.extend_from_slice(l.w.as_slice());
            out.extend_from_slice(&l.b);
        }
        out
    }
}

/// A packed layer input's destination rows (a block's destinations are
/// the prefix of its sources), decoded once for SAGE's self half; `None`
/// for f32 input, which [`dst_rows`] reads in place.
fn decode_dst_rows(block: &Block, h_src: WireRows<'_>) -> Option<Matrix> {
    match h_src {
        WireRows::F32(_) => None,
        packed => Some(packed.decode_prefix(block.num_dst)),
    }
}

/// The destination rows of a layer input as f32: borrowed from an f32
/// input, or the copy [`decode_dst_rows`] made of a packed one.
fn dst_rows<'a>(block: &Block, h_src: WireRows<'a>, decoded: Option<&'a Matrix>) -> &'a [f32] {
    match (decoded, h_src) {
        (Some(m), _) => m.as_slice(),
        (None, WireRows::F32(m)) => &m.as_slice()[..block.num_dst * m.cols()],
        (None, _) => unreachable!("a packed layer input's destination rows are decoded"),
    }
}

struct LayerCache {
    /// The aggregation the update consumed: `C·H_src` for GCN/GIN,
    /// `mean(H_src)` for SAGE.
    agg: Matrix,
    /// GCN/GIN coefficients (None for SAGE).
    gcn_coef: Option<GcnCoefficients>,
    /// SAGE on a packed layer-0 input: its destination rows, decoded.
    dst_decoded: Option<Matrix>,
}

struct ForwardCache {
    per_layer: Vec<LayerCache>,
    /// `ReLU(z)` of every hidden layer: layer `l + 1`'s input and layer
    /// `l`'s ReLU mask.
    activations: Vec<Matrix>,
    logits: Matrix,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate_gcn, aggregate_mean};
    use hyscale_graph::features::gather_features;
    use hyscale_graph::Dataset;
    use hyscale_sampler::NeighborSampler;
    use hyscale_tensor::quant::{HalfMatrix, QuantizedMatrix};
    use hyscale_tensor::Sgd;

    fn setup(kind: GnnKind) -> (Dataset, NeighborSampler, GnnModel) {
        let ds = Dataset::toy(7);
        let sampler = NeighborSampler::new(vec![8, 5], 3);
        let model = GnnModel::new(kind, &[16, 32, 4], 11);
        (ds, sampler, model)
    }

    fn labels_of(ds: &Dataset, seeds: &[u32]) -> Vec<u32> {
        seeds.iter().map(|&s| ds.data.labels[s as usize]).collect()
    }

    #[test]
    fn forward_shapes() {
        for kind in [GnnKind::Gcn, GnnKind::GraphSage] {
            let (ds, sampler, model) = setup(kind);
            let seeds: Vec<u32> = ds.splits.train[..32].to_vec();
            let mb = sampler.sample(&ds.graph, &seeds, 0);
            let x = gather_features(&ds.data.features, &mb.input_nodes);
            let logits = model.forward(&mb, &x);
            assert_eq!(logits.shape(), (32, 4));
            assert!(logits.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn train_step_reduces_loss_over_epochs() {
        for kind in [GnnKind::Gcn, GnnKind::GraphSage] {
            let (ds, sampler, mut model) = setup(kind);
            let mut opt = Sgd::new(0.3);
            let mut first = None;
            let mut last = 0.0;
            for step in 0..30 {
                let start = (step * 32) % 512;
                let seeds: Vec<u32> = ds.splits.train[start..start + 32].to_vec();
                let mb = sampler.sample(&ds.graph, &seeds, step as u64);
                let x = gather_features(&ds.data.features, &mb.input_nodes);
                let out = model.train_step(&mb, &x, &labels_of(&ds, &seeds));
                model.apply_gradients(&out.grads, &mut opt);
                if first.is_none() {
                    first = Some(out.loss);
                }
                last = out.loss;
            }
            let first = first.unwrap();
            assert!(
                last < first * 0.8,
                "{}: loss did not fall ({first} -> {last})",
                kind.name()
            );
        }
    }

    #[test]
    fn deterministic_step() {
        let (ds, sampler, model) = setup(GnnKind::GraphSage);
        let seeds: Vec<u32> = ds.splits.train[..16].to_vec();
        let mb = sampler.sample(&ds.graph, &seeds, 1);
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let l = labels_of(&ds, &seeds);
        let a = model.train_step(&mb, &x, &l);
        let b = model.train_step(&mb, &x, &l);
        assert_eq!(a.loss, b.loss);
        assert!(a.grads.approx_eq(&b.grads, 0.0));
    }

    #[test]
    fn param_accounting() {
        let model = GnnModel::new(GnnKind::Gcn, &[100, 256, 47], 1);
        assert_eq!(model.num_params(), 100 * 256 + 256 + 256 * 47 + 47);
        let sage = GnnModel::new(GnnKind::GraphSage, &[100, 256, 47], 1);
        assert_eq!(sage.num_params(), 200 * 256 + 256 + 512 * 47 + 47);
        assert_eq!(model.nbytes(), model.num_params() * 4);
    }

    #[test]
    fn three_layer_model_runs() {
        // DistDGLv2 comparison uses a 3-layer model (Table V fanout (15,10,5)).
        let ds = Dataset::toy(9);
        let sampler = NeighborSampler::new(vec![5, 4, 3], 2);
        let model = GnnModel::new(GnnKind::GraphSage, &[16, 32, 32, 4], 3);
        let seeds: Vec<u32> = ds.splits.train[..16].to_vec();
        let mb = sampler.sample(&ds.graph, &seeds, 0);
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let out = model.train_step(&mb, &x, &labels_of(&ds, &seeds));
        assert!(out.loss.is_finite());
        assert_eq!(out.grads.num_layers(), 3);
    }

    #[test]
    fn replicas_stay_in_lockstep() {
        let (ds, sampler, model) = setup(GnnKind::Gcn);
        let mut a = model.clone();
        let mut b = model;
        let mut opt_a = Sgd::with_momentum(0.1, 0.9);
        let mut opt_b = Sgd::with_momentum(0.1, 0.9);
        for step in 0..5 {
            let seeds: Vec<u32> = ds.splits.train[step * 16..(step + 1) * 16].to_vec();
            let mb = sampler.sample(&ds.graph, &seeds, step as u64);
            let x = gather_features(&ds.data.features, &mb.input_nodes);
            let l = labels_of(&ds, &seeds);
            let ga = a.train_step(&mb, &x, &l).grads;
            let gb = b.train_step(&mb, &x, &l).grads;
            let avg = Gradients::weighted_average(&[ga, gb]);
            a.apply_gradients(&avg, &mut opt_a);
            b.apply_gradients(&avg, &mut opt_b);
        }
        assert_eq!(a.flatten_params(), b.flatten_params());
    }

    /// The training step as it was before the split-weight rewrite:
    /// every layer clones its input, SAGE materializes
    /// `[H_src[..num_dst] ‖ mean]` and splits its input gradient with
    /// `hsplit`, `z` is kept beside its activation, and the backward pass
    /// runs through layer 0's input gradient. The pin test below demands
    /// the rewrite match it bit for bit.
    fn reference_step(
        model: &GnnModel,
        mb: &MiniBatch,
        x: &Matrix,
        labels: &[u32],
    ) -> (f32, Vec<Matrix>, Vec<Vec<f32>>) {
        struct RefCache {
            h_src: Matrix,
            update_in: Matrix,
            z: Matrix,
            coef: Option<GcnCoefficients>,
        }
        let layers = model.layers.len();
        let mut h = x.clone();
        let mut caches = Vec::new();
        for (l, (block, params)) in mb.blocks.iter().zip(&model.layers).enumerate() {
            let (update_in, coef) = match model.kind {
                GnnKind::GraphSage => {
                    let mean = aggregate_mean(block, &h);
                    let mut self_feats = Matrix::zeros(block.num_dst, h.cols());
                    for d in 0..block.num_dst {
                        self_feats.row_mut(d).copy_from_slice(h.row(d));
                    }
                    (self_feats.hconcat(&mean), None)
                }
                kind => {
                    let coef = kind.block_coefficients(block).unwrap();
                    (aggregate_gcn(block, &h, &coef), Some(coef))
                }
            };
            let mut z = gemm_nn(&update_in, &params.w);
            add_bias_inplace(&mut z, &params.b);
            let mut out = z.clone();
            if l + 1 < layers {
                relu_inplace(&mut out);
            }
            caches.push(RefCache {
                h_src: h,
                update_in,
                z,
                coef,
            });
            h = out;
        }
        let loss = softmax_cross_entropy(&h, labels);
        let (mut d_weights, mut d_biases) = (Vec::new(), Vec::new());
        let mut d_h = loss.grad;
        for l in (0..layers).rev() {
            let (block, lc) = (&mb.blocks[l], &caches[l]);
            let mut d_z = d_h;
            if l + 1 < layers {
                relu_backward_inplace(&mut d_z, &lc.z);
            }
            d_weights.push(gemm_tn(&lc.update_in, &d_z));
            d_biases.push(bias_grad(&d_z));
            let d_update_in = gemm_nt(&d_z, &model.layers[l].w);
            d_h = match &lc.coef {
                Some(coef) => aggregate_gcn_backward(block, &d_update_in, coef),
                None => {
                    let (d_self, d_mean) = d_update_in.hsplit(lc.h_src.cols());
                    let mut d_src = aggregate_mean_backward(block, &d_mean);
                    for d in 0..block.num_dst {
                        for (o, v) in d_src.row_mut(d).iter_mut().zip(d_self.row(d)) {
                            *o += *v;
                        }
                    }
                    d_src
                }
            };
        }
        d_weights.reverse();
        d_biases.reverse();
        (loss.loss, d_weights, d_biases)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn train_step_is_bitwise_the_reference_step() {
        let ds = Dataset::toy(7);
        let cases: [(&[usize], &[usize]); 4] = [
            (&[16, 32, 4], &[8, 5]),
            (&[16, 24, 32, 4], &[5, 4, 3]),
            // f0 > K_BLOCK: the concat GEMM's k-tiles straddle the
            // W_self/W_neigh boundary.
            (&[300, 32, 4], &[8, 5]),
            (&[300, 40, 24, 4], &[5, 4, 3]),
        ];
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin] {
            for (dims, fanouts) in cases {
                let sampler = NeighborSampler::new(fanouts.to_vec(), 3);
                let model = GnnModel::new(kind, dims, 11);
                let seeds: Vec<u32> = ds.splits.train[..24].to_vec();
                let mb = sampler.sample(&ds.graph, &seeds, 2);
                // every fifth input an exact zero, so the GEMMs'
                // `aik == 0.0` skip runs on the features as well as on
                // the ReLU zeros of the hidden layers
                let x = Matrix::from_fn(mb.input_nodes.len(), dims[0], |r, c| {
                    if (r + c) % 5 == 0 {
                        0.0
                    } else {
                        ((r * 37 + c * 11) as f32 * 0.013).sin()
                    }
                });
                let labels = labels_of(&ds, &seeds);
                let out = model.train_step(&mb, &x, &labels);
                let (loss, d_weights, d_biases) = reference_step(&model, &mb, &x, &labels);
                let case = format!("{} dims {dims:?}", kind.name());
                assert_eq!(out.loss.to_bits(), loss.to_bits(), "{case}: loss");
                for l in 0..dims.len() - 1 {
                    assert_eq!(
                        bits(out.grads.d_weights[l].as_slice()),
                        bits(d_weights[l].as_slice()),
                        "{case}: d_weights[{l}]"
                    );
                    assert_eq!(
                        bits(&out.grads.d_biases[l]),
                        bits(&d_biases[l]),
                        "{case}: d_biases[{l}]"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_layer_inputs_train_to_the_bits_of_their_decoded_copy() {
        let ds = Dataset::toy(7);
        // f0 > K_BLOCK as well, so the decoded SAGE self rows feed
        // k-tiles that straddle the W_self/W_neigh boundary
        let cases: [(&[usize], &[usize]); 3] = [
            (&[16, 32, 4], &[8, 5]),
            (&[300, 32, 4], &[8, 5]),
            (&[16, 24, 32, 4], &[5, 4, 3]),
        ];
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin] {
            for (dims, fanouts) in cases {
                let sampler = NeighborSampler::new(fanouts.to_vec(), 5);
                let model = GnnModel::new(kind, dims, 13);
                let seeds: Vec<u32> = ds.splits.train[..24].to_vec();
                let mb = sampler.sample(&ds.graph, &seeds, 4);
                let x = Matrix::from_fn(mb.input_nodes.len(), dims[0], |r, c| {
                    match (r + 2 * c) % 7 {
                        0 => 0.0,
                        1 => -0.0,
                        _ => ((r * 29 + c * 17) as f32 * 0.011).cos() * 3.0,
                    }
                });
                let labels = labels_of(&ds, &seeds);
                let int8 = QuantizedMatrix::quantize_int8(&x);
                let f16 = HalfMatrix::from_f32(&x);
                for packed in [WireRows::Int8(&int8), WireRows::F16(&f16)] {
                    let decoded = packed.decode();
                    let case = format!("{} {:?} dims {dims:?}", kind.name(), packed.precision());
                    let a = model.train_step(&mb, packed, &labels);
                    let b = model.train_step(&mb, &decoded, &labels);
                    assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{case}: loss");
                    for l in 0..dims.len() - 1 {
                        assert_eq!(
                            bits(a.grads.d_weights[l].as_slice()),
                            bits(b.grads.d_weights[l].as_slice()),
                            "{case}: d_weights[{l}]"
                        );
                        assert_eq!(
                            bits(&a.grads.d_biases[l]),
                            bits(&b.grads.d_biases[l]),
                            "{case}: d_biases[{l}]"
                        );
                    }
                    assert_eq!(
                        bits(model.forward(&mb, packed).as_slice()),
                        bits(model.forward(&mb, &decoded).as_slice()),
                        "{case}: logits"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mini-batch layer count mismatch")]
    fn rejects_wrong_layer_count() {
        let (ds, _, model) = setup(GnnKind::Gcn);
        let one_hop = NeighborSampler::new(vec![4], 0);
        let seeds: Vec<u32> = ds.splits.train[..8].to_vec();
        let mb = one_hop.sample(&ds.graph, &seeds, 0);
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let _ = model.forward(&mb, &x);
    }
}
