//! Full-graph layer-wise inference.
//!
//! Mini-batch sampling biases evaluation (each vertex sees a sampled
//! neighbourhood); the standard OGB protocol computes exact embeddings
//! layer by layer over the *full* graph instead, materializing every
//! layer's output for all vertices. Chunked over vertices so peak memory
//! stays bounded — the same reason the paper streams mini-batches.

use crate::aggregate::GcnCoefficients;
use crate::model::{GnnKind, GnnModel};
use hyscale_graph::CsrGraph;
use hyscale_sampler::Block;
use hyscale_tensor::ops::relu_inplace;
use hyscale_tensor::Matrix;

/// Exact logits for every vertex via layer-wise propagation.
///
/// `x` is the full `|V| × f0` feature matrix. Memory: two `|V| × f`
/// buffers. For chunked destination processing choose `chunk` (vertices
/// per block); results are identical for any chunk size.
pub fn full_graph_logits(model: &GnnModel, graph: &CsrGraph, x: &Matrix, chunk: usize) -> Matrix {
    assert_eq!(
        x.rows(),
        graph.num_vertices(),
        "feature rows must cover all vertices"
    );
    let chunk = chunk.max(1);
    let mut h = x.clone();
    for layer in 0..model.num_layers() {
        h = propagate_layer(model, graph, &h, layer, chunk);
    }
    h
}

/// One exact layer: for each destination chunk, build the full-neighbour
/// block and run the layer's aggregate-update.
fn propagate_layer(
    model: &GnnModel,
    graph: &CsrGraph,
    h: &Matrix,
    layer: usize,
    chunk: usize,
) -> Matrix {
    let n = graph.num_vertices();
    let f_out = model.dims()[layer + 1];
    let mut out = Matrix::zeros(n, f_out);
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        // Block over the chunk: dst = chunk vertices; src = dst prefix +
        // all their neighbours (global ids remapped densely).
        let mut src_nodes: Vec<u32> = (start as u32..end as u32).collect();
        let mut local = std::collections::HashMap::new();
        for (i, &v) in src_nodes.iter().enumerate() {
            local.insert(v, i as u32);
        }
        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        for (di, v) in (start..end).enumerate() {
            for &t in graph.neighbors(v as u32) {
                let next = src_nodes.len() as u32;
                let si = *local.entry(t).or_insert_with(|| {
                    src_nodes.push(t);
                    next
                });
                edge_src.push(si);
                edge_dst.push(di as u32);
            }
        }
        let block = Block {
            num_src: src_nodes.len(),
            num_dst: end - start,
            edge_src,
            edge_dst,
        };
        let h_src = h.gather_rows(&src_nodes);
        let coef = match model.kind() {
            GnnKind::Gcn => Some(global_gcn_coefficients(&block, &src_nodes, graph)),
            _ => None,
        };
        let z = model.layer_output(&block, &h_src, layer, coef.as_ref());
        for (i, row) in z.rows_iter().enumerate() {
            out.row_mut(start + i).copy_from_slice(row);
        }
        start = end;
    }
    out
}

/// GCN coefficients from *global* graph degrees — exact inference must
/// be independent of how destinations are chunked, so normalisation
/// cannot depend on the block (unlike mini-batch training, which uses
/// the in-batch approximation).
fn global_gcn_coefficients(block: &Block, src_global: &[u32], graph: &CsrGraph) -> GcnCoefficients {
    let norm = |v: u32| 1.0 / ((graph.out_degree(v) as f32 + 1.0).sqrt());
    let edge = block
        .edge_src
        .iter()
        .zip(&block.edge_dst)
        .map(|(&s, &d)| norm(src_global[s as usize]) * norm(src_global[d as usize]))
        .collect();
    let self_loop = (0..block.num_dst)
        .map(|v| {
            let n = norm(src_global[v]);
            n * n
        })
        .collect();
    GcnCoefficients { edge, self_loop }
}

impl GnnModel {
    /// Apply layer `layer`'s aggregate-update (and ReLU on hidden
    /// layers) to a block — the same per-layer forward training runs.
    /// `coef_override` replaces GCN's in-batch coefficients (exact
    /// inference normalises by global degrees); other kinds ignore it.
    pub fn layer_output(
        &self,
        block: &Block,
        h_src: &Matrix,
        layer: usize,
        coef_override: Option<&GcnCoefficients>,
    ) -> Matrix {
        let own;
        let coef = match (self.kind(), coef_override) {
            (GnnKind::Gcn, Some(coef)) => Some(coef),
            _ => {
                own = self.kind().block_coefficients(block);
                own.as_ref()
            }
        };
        let (_, mut z) = self.layer_forward(block, h_src, layer, coef);
        if layer + 1 < self.num_layers() {
            relu_inplace(&mut z);
        }
        z
    }
}

/// Exact full-graph accuracy over a vertex subset.
pub fn full_graph_accuracy(
    model: &GnnModel,
    graph: &CsrGraph,
    x: &Matrix,
    labels: &[u32],
    eval_set: &[u32],
    chunk: usize,
) -> f32 {
    let logits = full_graph_logits(model, graph, x, chunk);
    if eval_set.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for &v in eval_set {
        let row = logits.row(v as usize);
        let mut best = 0usize;
        for (c, &val) in row.iter().enumerate() {
            if val > row[best] {
                best = c;
            }
        }
        if best == labels[v as usize] as usize {
            correct += 1;
        }
    }
    correct as f32 / eval_set.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_graph::features::gather_features;
    use hyscale_graph::Dataset;
    use hyscale_sampler::NeighborSampler;
    use hyscale_tensor::Sgd;

    #[test]
    fn chunk_size_does_not_change_results() {
        let ds = Dataset::toy(61);
        let model = GnnModel::new(GnnKind::Gcn, &[16, 8, 4], 1);
        let a = full_graph_logits(&model, &ds.graph, &ds.data.features, 64);
        let b = full_graph_logits(&model, &ds.graph, &ds.data.features, 997);
        assert!(a.approx_eq(&b, 1e-5), "chunked inference diverges");
        assert_eq!(a.shape(), (1000, 4));
    }

    #[test]
    fn inference_uses_full_neighborhoods() {
        // with full fanout, sampled forward == exact inference on seeds
        let ds = Dataset::toy(62);
        let model = GnnModel::new(GnnKind::GraphSage, &[16, 8, 4], 2);
        let exact = full_graph_logits(&model, &ds.graph, &ds.data.features, 128);
        // sample with fanout >= max degree so nothing is dropped
        let max_deg = ds.graph.max_degree();
        let sampler = NeighborSampler::new(vec![max_deg, max_deg], 0);
        let seeds: Vec<u32> = (0..16).collect();
        let mb = sampler.sample(&ds.graph, &seeds, 0);
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let sampled = model.forward(&mb, &x);
        for (i, &s) in seeds.iter().enumerate() {
            let e = exact.row(s as usize);
            let got = sampled.row(i);
            for (a, b) in e.iter().zip(got) {
                assert!(
                    (a - b).abs() < 1e-3 * a.abs().max(1.0),
                    "vertex {s}: exact {a} vs sampled-full {b}"
                );
            }
        }
    }

    #[test]
    fn trained_model_beats_random_on_exact_eval() {
        let ds = Dataset::toy(63);
        let mut model = GnnModel::new(GnnKind::Gcn, &[16, 32, 4], 3);
        let sampler = NeighborSampler::new(vec![8, 4], 1);
        let mut opt = Sgd::new(0.3);
        for step in 0..30 {
            let start = (step * 32) % 512;
            let seeds: Vec<u32> = ds.splits.train[start..start + 32].to_vec();
            let mb = sampler.sample(&ds.graph, &seeds, step as u64);
            let x = gather_features(&ds.data.features, &mb.input_nodes);
            let labels: Vec<u32> = seeds.iter().map(|&s| ds.data.labels[s as usize]).collect();
            let out = model.train_step(&mb, &x, &labels);
            model.apply_gradients(&out.grads, &mut opt);
        }
        let acc = full_graph_accuracy(
            &model,
            &ds.graph,
            &ds.data.features,
            &ds.data.labels,
            &ds.splits.test,
            256,
        );
        assert!(acc > 0.7, "exact eval accuracy only {acc}");
    }
}
