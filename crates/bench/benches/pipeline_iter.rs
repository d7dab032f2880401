//! End-to-end functional hybrid-training iteration (sampling → loading →
//! protocol-coordinated propagation → weighted all-reduce → update), and
//! the design-time mapping cost itself.

use criterion::{criterion_group, criterion_main, Criterion};
use hyscale_core::config::{AcceleratorKind, OptFlags, PlatformConfig, SystemConfig, TrainConfig};
use hyscale_core::{HybridTrainer, PerfModel};
use hyscale_gnn::GnnKind;
use hyscale_graph::dataset::OGBN_PAPERS100M;
use hyscale_graph::Dataset;
use std::hint::black_box;

fn config() -> SystemConfig {
    SystemConfig {
        platform: PlatformConfig::paper_node(AcceleratorKind::u250(), 2),
        opt: OptFlags::full(),
        train: TrainConfig {
            model: GnnKind::GraphSage,
            batch_per_trainer: 64,
            fanouts: vec![10, 5],
            hidden_dim: 32,
            learning_rate: 0.1,
            optimizer: hyscale_core::config::OptimizerKind::Sgd,
            seed: 3,
            max_functional_iters: Some(1),
            transfer_precision: hyscale_tensor::Precision::F32,
            prefetch_depth: 0,
        },
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    let ds = Dataset::toy(1);
    g.bench_function("functional_iteration", |b| {
        let mut trainer = HybridTrainer::new(config(), ds.clone());
        b.iter(|| black_box(trainer.train_epoch()))
    });
    g.bench_function("perf_model_initial_mapping", |b| {
        let pm = PerfModel::new(&config());
        b.iter(|| black_box(pm.initial_mapping(&OGBN_PAPERS100M)))
    });
    g.finish();
}

/// Serial (`prefetch_depth = 0`) vs. really-prefetched epochs: same
/// batches, same weights, different wall-clock — the Task-level Feature
/// Prefetching win measured end to end rather than simulated.
fn bench_prefetch_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefetch_epoch");
    g.sample_size(10);
    let ds = Dataset::toy(2);
    let mut cfg = config();
    cfg.train.max_functional_iters = Some(4);
    for depth in [0usize, 1, 2, 4] {
        let mut cfg = cfg.clone();
        cfg.train.prefetch_depth = depth;
        let id = format!("depth_{depth}");
        g.bench_function(id.as_str(), |b| {
            let mut trainer = HybridTrainer::new(cfg.clone(), ds.clone());
            b.iter(|| black_box(trainer.train_epoch()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline, bench_prefetch_overlap);
criterion_main!(benches);
