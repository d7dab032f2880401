//! Extension study (paper §VIII): data quantization to relieve PCIe
//! pressure. The paper names transfer-bound configurations (e.g.
//! products + GCN, Fig. 9 discussion) as its main limitation and proposes
//! quantization as future work — this binary quantifies that proposal.
//!
//! Timing: wire bytes shrink 2× (f16) or ~4× (int8). Functional: the
//! accelerator trainers really read their features through the
//! quantized feature view, so the accuracy cost is measured, not
//! assumed.

use hyscale_bench::{simulate_epoch, Table, DRM_SETTLE_ITERS};
use hyscale_core::config::AcceleratorKind;
use hyscale_core::{HybridTrainer, SystemConfig};
use hyscale_gnn::GnnKind;
use hyscale_graph::dataset::ALL_DATASETS;
use hyscale_graph::features::Splits;
use hyscale_graph::Dataset;
use hyscale_tensor::Precision;

fn main() {
    println!("Extension (paper §VIII): feature quantization on the PCIe transfer\n");
    println!("Epoch time (s), CPU + 4x U250, GCN:\n");
    let precisions = [Precision::F32, Precision::F16, Precision::Int8];
    let mut t = Table::new(&["Dataset", "f32", "f16", "int8", "int8 speedup"]);
    for ds in ALL_DATASETS {
        let mut epochs = Vec::new();
        for p in precisions {
            let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
            cfg.train.transfer_precision = p;
            epochs.push(simulate_epoch(&cfg, &ds, DRM_SETTLE_ITERS).epoch_time_s);
        }
        t.row(vec![
            ds.name.to_string(),
            format!("{:.3}", epochs[0]),
            format!("{:.3}", epochs[1]),
            format!("{:.3}", epochs[2]),
            format!("{:.2}x", epochs[0] / epochs[2]),
        ]);
    }
    t.print();

    // functional accuracy check: does quantization hurt convergence?
    println!("\nFunctional accuracy after 6 epochs (toy community dataset, GraphSAGE):\n");
    let mut acc_table = Table::new(&["precision", "test accuracy"]);
    for p in precisions {
        let dataset = Dataset::toy(77);
        let test = dataset.splits.test.clone();
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
        cfg.platform.num_accelerators = 2;
        cfg.train.batch_per_trainer = 96;
        cfg.train.fanouts = vec![8, 4];
        cfg.train.hidden_dim = 32;
        cfg.train.learning_rate = 0.3;
        cfg.train.max_functional_iters = Some(5);
        cfg.train.transfer_precision = p;
        let mut trainer = HybridTrainer::new(cfg, dataset);
        trainer.train_epochs(6);
        acc_table.row(vec![
            format!("{p:?}"),
            format!("{:.3}", trainer.evaluate(&test)),
        ]);
    }
    acc_table.print();

    // the limitation case: single FPGA on a transfer-bound config
    println!("\nTransfer-bound limitation case (products, 1 FPGA, no hybrid):\n");
    let mut lim = Table::new(&["precision", "iter (ms)", "transfer share"]);
    for p in precisions {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 1;
        cfg.opt.hybrid = false;
        cfg.opt.drm = false;
        cfg.train.transfer_precision = p;
        let run = simulate_epoch(&cfg, &ALL_DATASETS[0], 0);
        lim.row(vec![
            format!("{p:?}"),
            format!("{:.2}", run.iter_time_s * 1e3),
            format!("{:.0}%", run.times.transfer / run.iter_time_s * 100.0),
        ]);
    }
    lim.print();
    println!("\npaper §VIII: \"we plan to exploit techniques like data quantization to");
    println!("relieve the stress on the PCIe bandwidth\" — int8 removes the transfer");
    println!("bottleneck the DRM engine could not fix.");
    let _ = Splits::random(10, 0.5, 0.25, 1); // keep the import in one binary path
}
