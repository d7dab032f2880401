//! Measured serial-vs-prefetched training throughput, emitted as
//! `BENCH_pipeline.json` so the perf trajectory of the real pipeline is
//! tracked from PR to PR.
//!
//! Runs a products-like workload (ogbn-products at reduced scale,
//! GraphSAGE, hybrid CPU+FPGA organization, int8 wire precision — the
//! paper's PCIe-bound regime where §VIII proposes quantization) twice
//! with identical seeds: once fully serial (`prefetch_depth = 0`) and
//! once with task-level feature prefetching at depth 2 (the producer
//! gathers batch `i+1` while batch `i` computes). It reports measured
//! iterations/second and speedup, plus the discrete-event simulator's
//! predictions from the measured serial stage walls — both the
//! idealized steady-state bound and the walls with modeled staging
//! rings of depth 1 and 2. Accelerator batches are
//! gathered from the int8 feature view built at set-up, so the wire
//! stage has no host cost to measure. On a single-core container the
//! measured speedup degenerates to ~1x (there is no second core to
//! overlap on; `cpus` in the JSON tells you which case you are looking
//! at), while the predicted numbers remain meaningful.
//!
//! ```sh
//! cargo run --release -p hyscale-bench --bin bench_pipeline
//! ```
//!
//! Workload knobs (for experiments; defaults are the tracked config):
//! `BENCH_SCALE`, `BENCH_HIDDEN`, `BENCH_BATCH`, `BENCH_PRECISION`
//! (`int8`|`f16`|`f32`). `BENCH_SMOKE=1` shrinks the workload to a
//! CI-sized smoke run (same JSON schema).

use hyscale_core::config::AcceleratorKind;
use hyscale_core::drm::{DrmEngine, WorkloadSplit};
use hyscale_core::pipeline::{simulate_pipeline, PipelineStageCosts};
use hyscale_core::{
    EpochReport, HybridTrainer, OptFlags, SystemConfig, ThreadAlloc, WallStageTimes,
};
use hyscale_gnn::GnnKind;
use hyscale_graph::dataset::OGBN_PRODUCTS;
use hyscale_graph::features::Splits;
use hyscale_graph::Dataset;

const DEPTH: usize = 2;

/// Depth of the modeled device-side staging rings: double buffering.
const RING_DEPTH: usize = 2;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn epochs() -> usize {
    if smoke() {
        2
    } else {
        3
    }
}

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn dataset() -> Dataset {
    let scale = env_or("BENCH_SCALE", if smoke() { 400 } else { 50 }) as u64;
    let mut dataset = OGBN_PRODUCTS.materialize(scale, 1);
    dataset.splits = Splits::random(dataset.graph.num_vertices(), 0.6, 0.2, 2);
    dataset
}

fn config(prefetch_depth: usize) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
    // Static mapping: the tracked number is the settled steady state of
    // paper Eq. 6, not the DRM's settling from the design-time mapping
    // (live DRM under prefetching is exercised by tests/equivalence.rs).
    cfg.opt = OptFlags {
        hybrid: true,
        drm: false,
        tfp: true,
    };
    cfg.train.batch_per_trainer = env_or("BENCH_BATCH", if smoke() { 128 } else { 512 });
    cfg.train.hidden_dim = env_or("BENCH_HIDDEN", 32);
    cfg.train.max_functional_iters = Some(if smoke() { 3 } else { 6 });
    cfg.train.prefetch_depth = prefetch_depth;
    cfg.train.transfer_precision = match std::env::var("BENCH_PRECISION").as_deref() {
        Ok("f16") => hyscale_tensor::Precision::F16,
        Ok("f32") => hyscale_tensor::Precision::F32,
        _ => hyscale_tensor::Precision::Int8,
    };
    cfg
}

/// Train the configured epochs, returning the reports past the warm-up
/// epoch.
fn run(prefetch_depth: usize, dataset: &Dataset) -> Vec<EpochReport> {
    let mut trainer = HybridTrainer::new(config(prefetch_depth), dataset.clone());
    let mut reports = trainer.train_epochs(epochs());
    reports.remove(0); // warm-up: pool is cold, allocator untouched
    reports
}

fn functional_wall(reports: &[EpochReport]) -> f64 {
    reports.iter().map(|r| r.wall_s).sum()
}

/// Overlap-aware DRM scenario: replay one Algorithm 1 decision on the
/// settled simulated stage times, once with the paper's bundled
/// `max(T_Tran, T_TA)` estimate and once charging the accelerator task
/// the visible (un-hidden) transfer share the executor derives from the
/// configuration (TFP's modeled double-buffered staging hides the wire
/// behind accelerator compute, leaving only the excess). Returns
/// `(visible_ratio, quota_delta)` where `quota_delta` is how many more
/// seeds the overlap-aware engine parks on the CPU trainer than the
/// bundled one (positive = the visible wire time biased work away from
/// the bandwidth-bound lanes).
fn drm_overlap_scenario(prefetched: &[EpochReport], cfg: &SystemConfig) -> (f64, isize) {
    let last = prefetched
        .last()
        .and_then(|r| r.trace.last())
        .expect("prefetched trace");
    let times = last.times;
    let total = cfg.total_batch();
    let engine = DrmEngine::new(true);
    let make_split = || {
        WorkloadSplit::new(
            last.cpu_quota.min(total),
            total,
            cfg.platform.num_accelerators,
        )
    };

    let mut bundled = make_split();
    let mut th1 = ThreadAlloc::default_for(cfg.platform.total_threads);
    engine.adjust(&times, &mut bundled, &mut th1);

    let visible = if cfg.opt.tfp {
        (times.transfer - times.train_accel).max(0.0)
    } else {
        times.transfer
    };
    let visible_ratio = if times.transfer > 0.0 {
        (visible / times.transfer).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let mut aware = make_split();
    let mut th2 = ThreadAlloc::default_for(cfg.platform.total_threads);
    engine.adjust_with_visible(&times, times.transfer * visible_ratio, &mut aware, &mut th2);
    (
        visible_ratio,
        aware.cpu_quota as isize - bundled.cpu_quota as isize,
    )
}

fn iters(reports: &[EpochReport]) -> usize {
    reports.iter().map(|r| r.functional_iters).sum()
}

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cfg = config(DEPTH);
    let numa_domains = cfg.platform.numa_domains();
    let dataset = dataset();
    eprintln!(
        "bench_pipeline: {} @ 1/{} scale, {} epochs ({} warm-up), prefetch depth {DEPTH}, \
         modeled ring depth {RING_DEPTH}, {cpus} cpu(s){}",
        dataset.spec.name,
        dataset.scale,
        epochs(),
        1,
        if smoke() { " [smoke]" } else { "" },
    );

    let serial = run(0, &dataset);
    let prefetched = run(DEPTH, &dataset);

    let serial_wall = functional_wall(&serial);
    let prefetch_wall = functional_wall(&prefetched);
    let serial_iters = iters(&serial) as f64;
    let prefetch_iters = iters(&prefetched) as f64;
    let serial_ips = serial_iters / serial_wall;
    let prefetch_ips = prefetch_iters / prefetch_wall;
    let speedup = prefetch_ips / serial_ips;

    // The discrete-event pipeline model on the measured serial stage
    // walls: the steady-state speedup this stage balance supports at
    // depth `DEPTH` once enough cores exist to actually overlap, plus
    // the walls with modeled staging rings — depth-1 staging serializes
    // the transfer with propagation, depth-2 double-buffers it.
    let stage_means = WallStageTimes::mean_of(serial.iter().map(|r| &r.wall_stages));
    let costs = PipelineStageCosts::from_wall(&stage_means);
    let n = iters(&serial).max(2);
    let serial_sim = simulate_pipeline(&costs, n, 0, 0).makespan;
    let predicted = serial_sim / simulate_pipeline(&costs, n, DEPTH, 0).makespan;
    let ring1_wall = simulate_pipeline(&costs, n, DEPTH, 1).makespan;
    let ring2_wall = simulate_pipeline(&costs, n, DEPTH, 2).makespan;

    let prefetch_means = WallStageTimes::mean_of(prefetched.iter().map(|r| &r.wall_stages));
    let overlap = prefetch_means.overlap_factor();
    // Settled worker-pool widths the producer dispatched on (the logical
    // ThreadAlloc; effective threads are capped by `cpus`).
    let alloc = prefetch_means.threads;

    // Overlap-aware DRM scenario: one Algorithm 1 decision with the
    // visible-transfer share vs. the bundled assumption.
    let (drm_visible_ratio, drm_quota_delta) = drm_overlap_scenario(&prefetched, &cfg);

    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"dataset\": \"{}\",\n  \"scale\": {},\n  \
         \"cpus\": {},\n  \"smoke\": {},\n  \
         \"epochs_measured\": {},\n  \"iters_measured\": {},\n  \"prefetch_depth\": {},\n  \
         \"ring_depth\": {},\n  \
         \"serial_iters_per_sec\": {:.4},\n  \"prefetch_iters_per_sec\": {:.4},\n  \
         \"serial_iter_wall_s\": {:.6},\n  \"prefetch_iter_wall_s\": {:.6},\n  \
         \"serial_stage_walls_s\": {{\"sample\": {:.6}, \"load\": {:.6}, \
         \"train\": {:.6}}},\n  \
         \"speedup_vs_serial\": {:.4},\n  \"predicted_speedup\": {:.4},\n  \
         \"predicted_wall_ring1_s\": {:.6},\n  \"predicted_wall_ring2_s\": {:.6},\n  \
         \"overlap_factor\": {:.4},\n  \
         \"drm_overlap_visible_ratio\": {:.4},\n  \"drm_overlap_quota_delta\": {},\n  \
         \"numa_domains\": {},\n  \"thread_alloc\": {{\"sampler\": {}, \"loader\": {}, \
         \"trainer\": {}}}\n}}\n",
        dataset.spec.name,
        dataset.scale,
        cpus,
        smoke(),
        serial.len(),
        iters(&serial),
        DEPTH,
        RING_DEPTH,
        serial_ips,
        prefetch_ips,
        serial_wall / serial_iters,
        prefetch_wall / prefetch_iters,
        stage_means.sample_s,
        stage_means.load_s,
        stage_means.train_s,
        speedup,
        predicted,
        ring1_wall,
        ring2_wall,
        overlap,
        drm_visible_ratio,
        drm_quota_delta,
        numa_domains,
        alloc.sampler,
        alloc.loader,
        alloc.trainer,
    );
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    print!("{json}");
    eprintln!(
        "measured {speedup:.2}x vs serial on {cpus} cpu(s); stage balance supports \
         {predicted:.2}x at depth {DEPTH}; ring 1 -> 2 epoch wall {:.1} -> {:.1} ms \
         (predicted); overlap-aware DRM quota delta {drm_quota_delta}; wrote \
         BENCH_pipeline.json",
        ring1_wall * 1e3,
        ring2_wall * 1e3,
    );
}
