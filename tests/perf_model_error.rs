//! §VI-C fidelity: the design-time performance model's prediction must
//! stay within a sane error band of the runtime simulation (the paper
//! reports 5–14 % average error on the FPGA platform), and the model's
//! qualitative predictions (Fig. 9 trends) must hold.

use hyscale::core::{AcceleratorKind, HybridTrainer, PerfModel, SystemConfig};
use hyscale::gnn::GnnKind;
use hyscale::graph::dataset::{DatasetSpec, MAG240M_HOMO, OGBN_PAPERS100M, OGBN_PRODUCTS};
use hyscale::graph::features::Splits;

#[test]
fn prediction_error_within_band_on_functional_run() {
    // scaled functional run vs prediction targeted at the same stand-in
    let mut dataset = MAG240M_HOMO.materialize(8000, 42);
    dataset.splits = Splits::random(dataset.graph.num_vertices(), 0.6, 0.2, 7);
    let spec_scaled = DatasetSpec {
        num_vertices: dataset.graph.num_vertices() as u64,
        num_edges: dataset.graph.num_edges(),
        ..MAG240M_HOMO
    };
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    cfg.train.batch_per_trainer = 256;
    cfg.train.max_functional_iters = Some(3);
    let pm = PerfModel::new(&cfg);
    let predicted = pm.predict_epoch_time(&spec_scaled);
    let mut trainer = HybridTrainer::new(cfg, dataset);
    let actual = trainer.train_epoch().epoch_time_s;
    let err = (predicted - actual).abs() / actual;
    assert!(
        err < 0.35,
        "perf-model error {:.1}% (predicted {predicted:.3}s, actual {actual:.3}s)",
        err * 100.0
    );
}

#[test]
fn scalability_trends_match_fig9() {
    let counts = [1usize, 2, 4, 8, 16];
    let gcn = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    let pm = PerfModel::new(&gcn);
    // products+GCN scales worst (PCIe-transfer bound, paper §VI-D)
    let s_products = pm.scalability(&OGBN_PRODUCTS, &counts);
    let s_papers = pm.scalability(&OGBN_PAPERS100M, &counts);
    let s_mag = pm.scalability(&MAG240M_HOMO, &counts);
    for s in [&s_products, &s_papers, &s_mag] {
        assert!((s[0].1 - 1.0).abs() < 1e-9);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.98, "speedup must not regress: {s:?}");
        }
        // saturation: 16 accelerators never reach linear speedup
        assert!(s[4].1 < 16.0);
    }
    let best16 = s_papers[4].1.max(s_mag[4].1);
    assert!(
        s_products[4].1 <= best16 * 1.15,
        "products+GCN should scale no better than the large graphs: {:.2} vs {:.2}",
        s_products[4].1,
        best16
    );
}

#[test]
fn throughput_metric_is_consistent() {
    // Eq. 5: MTEPS must equal edges/iteration / iteration-time
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
    let pm = PerfModel::new(&cfg);
    let mteps = pm.throughput_mteps(&OGBN_PAPERS100M);
    assert!(mteps > 1.0, "implausible throughput {mteps}");
    // more accelerators => more throughput
    let mut cfg8 = cfg.clone();
    cfg8.platform.num_accelerators = 8;
    let pm8 = PerfModel::new(&cfg8);
    assert!(pm8.throughput_mteps(&OGBN_PAPERS100M) > mteps);
}

#[test]
fn hidden_dim_raises_sync_and_model_cost() {
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    let pm = PerfModel::new(&cfg);
    let small = pm.model_bytes(&OGBN_PRODUCTS);
    cfg.train.hidden_dim = 512;
    let pm_big = PerfModel::new(&cfg);
    assert!(pm_big.model_bytes(&OGBN_PRODUCTS) > small);
}
