//! The paper's headline workload at reduced scale: GraphSAGE on an
//! ogbn-products-like graph, comparing the multi-GPU organization
//! against hybrid CPU+GPU and hybrid CPU+FPGA (paper Fig. 10) — then
//! demonstrating the *real* task-level feature-prefetching pipeline:
//! identical training, measured wall-clock, serial vs. overlapped.
//!
//! ```sh
//! cargo run --release --example products_sage
//! ```

use hyscale::core::{AcceleratorKind, HybridTrainer, OptFlags, SystemConfig};
use hyscale::gnn::GnnKind;
use hyscale::graph::dataset::OGBN_PRODUCTS;
use hyscale::graph::features::Splits;
use hyscale::tensor::Precision;

fn main() {
    // Materialize products at 1/500 scale (~4.9k vertices) with a wide
    // train split so full mini-batches can be drawn.
    let mut dataset = OGBN_PRODUCTS.materialize(500, 1);
    dataset.splits = Splits::random(dataset.graph.num_vertices(), 0.6, 0.2, 2);
    println!(
        "dataset: {} @ 1/500 scale: {} vertices, {} edges (full scale: {} / {})\n",
        dataset.spec.name,
        dataset.graph.num_vertices(),
        dataset.graph.num_edges(),
        dataset.spec.num_vertices,
        dataset.spec.num_edges
    );

    let mut results = Vec::new();
    for (label, accel, opt) in [
        (
            "multi-GPU-style (offload, no overlap)",
            AcceleratorKind::a5000(),
            OptFlags::baseline(),
        ),
        (
            "hybrid CPU+GPU  (full HyScale-GNN)",
            AcceleratorKind::a5000(),
            OptFlags::full(),
        ),
        (
            "hybrid CPU+FPGA (full HyScale-GNN)",
            AcceleratorKind::u250(),
            OptFlags::full(),
        ),
    ] {
        let mut cfg = SystemConfig::paper_default(accel, GnnKind::GraphSage);
        cfg.opt = opt;
        cfg.train.batch_per_trainer = 256;
        cfg.train.max_functional_iters = Some(4);
        let mut trainer = HybridTrainer::new(cfg, dataset.clone());
        let reports = trainer.train_epochs(2);
        let last = reports.last().expect("two epochs");
        println!(
            "{label:<40} simulated epoch {:>8.3}s  ({:>8.1} MTEPS, loss {:.3})",
            last.epoch_time_s, last.mteps, last.loss
        );
        results.push((label, last.epoch_time_s));
    }

    let base = results[0].1;
    println!();
    for (label, t) in &results {
        println!("{label:<40} speedup vs multi-GPU: {:>5.2}x", base / t);
    }
    println!("\npaper Fig. 10 (products, SAGE): CPU+GPU 1.87x, CPU+FPGA 9.98x");

    real_pipeline_demo();
}

/// The real pipeline (paper §IV-B as wall-clock, not simulation):
/// producer stages on a background thread feeding a bounded queue,
/// overlapped with propagation. Training is bitwise-identical at every
/// depth; only the measured wall changes. Uses a larger materialization
/// and int8 wire precision — the PCIe-bound regime the paper's §VIII
/// quantization extension targets (accelerator batches are gathered
/// from the int8 feature view built at set-up).
fn real_pipeline_demo() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut dataset = OGBN_PRODUCTS.materialize(50, 1);
    dataset.splits = Splits::random(dataset.graph.num_vertices(), 0.6, 0.2, 2);
    println!(
        "\nreal prefetch pipeline: {} @ 1/50 scale on {cpus} cpu(s), int8 wire precision",
        dataset.spec.name
    );

    let run = |depth: usize| {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
        // Static mapping: the paper's TFP analysis (Eq. 6) is about the
        // settled steady state, not the DRM's settling from the
        // design-time mapping (live DRM under prefetching is covered by
        // tests/equivalence.rs).
        cfg.opt = OptFlags {
            hybrid: true,
            drm: false,
            tfp: true,
        };
        cfg.train.batch_per_trainer = 512;
        cfg.train.hidden_dim = 32;
        cfg.train.transfer_precision = Precision::Int8;
        cfg.train.max_functional_iters = Some(6);
        cfg.train.prefetch_depth = depth;
        let mut trainer = HybridTrainer::new(cfg, dataset.clone());
        let reports = trainer.train_epochs(2);
        let last = reports.last().expect("two epochs");
        let stages = &last.wall_stages;
        println!(
            "  depth {depth}: epoch wall {:>7.3}s  (stages s/l/p {:>6.1}/{:>5.1}/{:>6.1} ms, \
             overlap {:>4.2}x, loss {:.3})",
            last.wall_s,
            stages.sample_s * 1e3,
            stages.load_s * 1e3,
            stages.train_s * 1e3,
            stages.overlap_factor(),
            last.loss,
        );
        last.wall_s
    };

    let serial = run(0);
    let piped = run(2);
    println!(
        "  prefetch depth 2 speedup: {:.2}x{}",
        serial / piped,
        if cpus == 1 {
            "  (single core: nothing to overlap on, and DRM re-mapping makes \
             speculative prefetch pure overhead — run on a multi-core host)"
        } else {
            ""
        }
    );
}
