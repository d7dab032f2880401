//! Integration tests for the reproduction's extension features:
//! §VIII data quantization, the discrete-event pipeline simulator,
//! checkpointing, GIN, and the GraphSAINT sampler family.

use hyscale::core::pipeline::{simulate_pipeline, PipelineStageCosts};
use hyscale::core::{AcceleratorKind, HybridTrainer, PerfModel, SystemConfig};
use hyscale::gnn::{GnnKind, GnnModel};
use hyscale::graph::features::gather_features;
use hyscale::graph::Dataset;
use hyscale::sampler::{EdgeSampler, NodeSampler};
use hyscale::tensor::{Precision, Sgd};

fn toy_system(model: GnnKind) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), model);
    cfg.platform.num_accelerators = 2;
    cfg.train.batch_per_trainer = 96;
    cfg.train.fanouts = vec![8, 4];
    cfg.train.hidden_dim = 32;
    cfg.train.learning_rate = 0.3;
    cfg.train.max_functional_iters = Some(5);
    cfg
}

#[test]
fn quantized_transfer_shrinks_transfer_time() {
    let ds = hyscale::graph::dataset::OGBN_PAPERS100M;
    let time_at = |p: Precision| {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.train.transfer_precision = p;
        let pm = PerfModel::new(&cfg);
        let (split, threads) = pm.settled_mapping(&ds);
        pm.stage_times_runtime(&ds, &split, &threads).transfer
    };
    let f32_t = time_at(Precision::F32);
    let f16_t = time_at(Precision::F16);
    let i8_t = time_at(Precision::Int8);
    assert!(f16_t < f32_t * 0.7, "f16 transfer {f16_t} vs f32 {f32_t}");
    assert!(i8_t < f16_t, "int8 transfer {i8_t} vs f16 {f16_t}");
}

#[test]
fn quantized_training_still_converges() {
    for p in [Precision::F16, Precision::Int8] {
        let dataset = Dataset::toy(51);
        let test = dataset.splits.test.clone();
        let mut cfg = toy_system(GnnKind::GraphSage);
        cfg.train.transfer_precision = p;
        let mut trainer = HybridTrainer::new(cfg, dataset);
        trainer.train_epochs(8);
        let acc = trainer.evaluate(&test);
        assert!(acc > 0.85, "{p:?}: accuracy only {acc}");
    }
}

#[test]
fn quantization_changes_numerics_but_not_structure() {
    // int8 must actually perturb the computation (proves the functional
    // path quantizes for real, rather than only adjusting the clock)
    let run = |p: Precision| {
        let dataset = Dataset::toy(52);
        let mut cfg = toy_system(GnnKind::Gcn);
        cfg.opt.drm = false;
        cfg.train.transfer_precision = p;
        let mut t = HybridTrainer::new(cfg, dataset);
        t.train_epochs(2);
        t.model().flatten_params()
    };
    assert_ne!(run(Precision::F32), run(Precision::Int8));
}

#[test]
fn pipeline_simulator_agrees_with_analytic_model() {
    // steady-state gap of the event simulation == Eq. 6's max(stages)
    let ds = hyscale::graph::dataset::MAG240M_HOMO;
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
    let pm = PerfModel::new(&cfg);
    let (split, threads) = pm.settled_mapping(&ds);
    let times = pm.stage_times_runtime(&ds, &split, &threads);
    let costs = PipelineStageCosts::from_stage_times(&times);
    let run = simulate_pipeline(&costs, 60, 2);
    let analytic = times.pipelined_iteration();
    assert!(
        (run.steady_gap - analytic).abs() / analytic < 1e-9,
        "event sim {} vs analytic {}",
        run.steady_gap,
        analytic
    );
    // fill overhead bounded by one serial traversal (§VI-C flush source)
    let overhead = run.makespan - 60.0 * analytic;
    assert!(overhead >= 0.0 && overhead <= costs.serial());
}

#[test]
fn checkpoint_roundtrip_resumes_identically() {
    let dataset = Dataset::toy(53);
    let cfg = toy_system(GnnKind::Gcn);

    // train 3 epochs, checkpoint, train 2 more
    let mut a = HybridTrainer::new(cfg.clone(), dataset.clone());
    a.train_epochs(3);
    let ckpt = a.checkpoint();
    a.train_epochs(2);

    // restore into a fresh trainer and train the same 2 epochs
    let mut b = HybridTrainer::new(cfg, dataset);
    b.restore(&ckpt);
    b.train_epochs(2);

    assert_eq!(
        a.model().flatten_params(),
        b.model().flatten_params(),
        "resumed training diverged from the original run"
    );
}

#[test]
fn checkpoint_serialization_roundtrip() {
    let dataset = Dataset::toy(54);
    let mut t = HybridTrainer::new(toy_system(GnnKind::Gcn), dataset);
    t.train_epochs(1);
    let ckpt = t.checkpoint();
    let mut buf = Vec::new();
    ckpt.write(&mut buf).unwrap();
    let back = hyscale::core::checkpoint::Checkpoint::read(&buf[..]).unwrap();
    assert_eq!(ckpt, back);
}

#[test]
fn gin_trains_through_the_full_system() {
    let dataset = Dataset::toy(55);
    let test = dataset.splits.test.clone();
    let mut cfg = toy_system(GnnKind::Gin);
    // unnormalised sum aggregation scales activations with degree, so
    // GIN needs a far smaller step than the normalised models
    cfg.train.learning_rate = 0.01;
    let mut trainer = HybridTrainer::new(cfg, dataset);
    trainer.train_epochs(10);
    let acc = trainer.evaluate(&test);
    assert!(acc > 0.8, "GIN accuracy only {acc}");
}

#[test]
fn saint_samplers_train_gcn() {
    // subgraph-based training (the paper's second sampling family [29])
    let ds = Dataset::toy(56);
    let model_dims = [16usize, 32, 4];
    let mut model = GnnModel::new(GnnKind::Gcn, &model_dims, 3);
    let mut opt = Sgd::new(0.3);
    let node_sampler = NodeSampler::new(192, 2, 1);
    let edge_sampler = EdgeSampler::new(96, 2, 2);

    let mut first = None;
    let mut last = 0.0f32;
    for step in 0..40u64 {
        let mb = if step % 2 == 0 {
            node_sampler.sample(&ds.graph, step)
        } else {
            edge_sampler.sample(&ds.graph, step)
        };
        let x = gather_features(&ds.data.features, &mb.input_nodes);
        let labels: Vec<u32> = mb
            .seeds
            .iter()
            .map(|&s| ds.data.labels[s as usize])
            .collect();
        let out = model.train_step(&mb, &x, &labels);
        model.apply_gradients(&out.grads, &mut opt);
        if first.is_none() {
            first = Some(out.loss);
        }
        last = out.loss;
    }
    let first = first.unwrap();
    assert!(
        last < first * 0.6,
        "SAINT training stalled: {first} -> {last}"
    );
}
