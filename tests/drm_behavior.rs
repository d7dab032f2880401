//! System-level DRM behaviour (paper §IV-A): starting from a bad task
//! mapping, Algorithm 1 must converge to a faster one while preserving
//! the per-iteration seed total and the CPU thread budget — and a move
//! decided after iteration `k` must land on exactly iteration `k+1` at
//! every prefetch depth: the producer plans the move itself, slices the
//! next iteration under the moved quotas and sets its pool widths.

use hyscale::core::drm::{DrmEngine, ScriptedDrm, ScriptedDrmEvent, ThreadAlloc, WorkloadSplit};
use hyscale::core::stages::Stage;
use hyscale::core::{
    AcceleratorKind, HybridTrainer, IterationReport, OptFlags, PerfModel, SystemConfig,
};
use hyscale::gnn::GnnKind;
use hyscale::graph::dataset::{OGBN_PAPERS100M, OGBN_PRODUCTS};
use hyscale::graph::Dataset;

fn settle(
    cfg: &SystemConfig,
    split: &mut WorkloadSplit,
    threads: &mut ThreadAlloc,
    iters: usize,
) -> (f64, f64) {
    let pm = PerfModel::new(cfg);
    let drm = DrmEngine::new(cfg.opt.hybrid);
    let first = pm
        .stage_times_runtime(&OGBN_PAPERS100M, split, threads)
        .pipelined_iteration();
    let mut best = first;
    for _ in 0..iters {
        let t = pm.stage_times_runtime(&OGBN_PAPERS100M, split, threads);
        drm.adjust(&t, split, threads);
        best = best.min(
            pm.stage_times_runtime(&OGBN_PAPERS100M, split, threads)
                .pipelined_iteration(),
        );
    }
    (first, best)
}

#[test]
fn drm_improves_bad_mapping() {
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    // pathological start: half the batch on the CPU trainer, starved
    // sampler threads
    let mut split = WorkloadSplit::new(2560, 5120, 4);
    let mut threads = ThreadAlloc {
        sampler: 2,
        loader: 2,
        trainer: 124,
    };
    let (first, best) = settle(&cfg, &mut split, &mut threads, 120);
    assert!(
        best < first * 0.7,
        "DRM failed to improve the mapping: {first:.5}s -> {best:.5}s"
    );
}

#[test]
fn drm_conserves_totals() {
    let cfg = SystemConfig::paper_default(AcceleratorKind::a5000(), GnnKind::GraphSage);
    let pm = PerfModel::new(&cfg);
    let drm = DrmEngine::new(true);
    let mut split = WorkloadSplit::new(1000, 5120, 4);
    let mut threads = ThreadAlloc::default_for(128);
    let thread_budget = threads.total();
    for _ in 0..60 {
        let t = pm.stage_times_runtime(&OGBN_PRODUCTS, &split, &threads);
        drm.adjust(&t, &mut split, &mut threads);
        assert_eq!(
            split.quotas().iter().sum::<usize>(),
            5120,
            "seed total changed — synchronous SGD semantics broken"
        );
        assert_eq!(threads.total(), thread_budget, "thread budget leaked");
        assert!(split.sampling_on_accel >= 0.0 && split.sampling_on_accel <= 1.0);
    }
}

#[test]
fn initial_mapping_is_coarse_but_sane() {
    // the paper's two-phase mapping story: the design-time mapping is
    // coarse; runtime DRM fine-tunes it. The coarse mapping should be
    // within a small factor of the settled optimum, and settling should
    // never make things worse.
    let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
    let pm = PerfModel::new(&cfg);
    let (mut split, mut threads) = pm.initial_mapping(&OGBN_PAPERS100M);
    let initial = pm
        .stage_times_runtime(&OGBN_PAPERS100M, &split, &threads)
        .pipelined_iteration();
    let (_, settled) = settle(&cfg, &mut split, &mut threads, 80);
    assert!(settled <= initial * 1.001, "DRM made the mapping worse");
    assert!(
        settled > initial * 0.2,
        "design-time mapping was absurdly far off: {initial:.5}s vs {settled:.5}s"
    );
}

#[test]
fn balance_thread_resizes_live_worker_pools() {
    // A DRM balance_thread decision must reach the rayon-shim worker
    // groups the real producer dispatches on — not only the simulated
    // StageTimes. Drive the engine with a loader-bottlenecked profile
    // and mirror its ThreadAlloc into StageWorkers, as the executor does.
    use hyscale::core::drm::DrmAction;
    use hyscale::core::stages::{StageTimes, StageWorkers};

    let engine = DrmEngine::new(true);
    let mut split = WorkloadSplit::new(1024, 5120, 4);
    let mut threads = ThreadAlloc {
        sampler: 10,
        loader: 10,
        trainer: 44,
    };
    let workers = StageWorkers::from_alloc(&threads);
    assert_eq!(workers.loader().width(), 10);

    // loader is the bottleneck, CPU sampler the fastest CPU task
    let times = StageTimes {
        sample_cpu: 0.05,
        sample_accel: 0.2,
        load: 3.0,
        transfer: 0.5,
        train_cpu: 1.0,
        train_accel: 0.5,
        sync: 0.0,
    };
    let action = engine.adjust(&times, &mut split, &mut threads);
    assert_eq!(
        action,
        DrmAction::BalanceThread {
            from: Stage::SampleCpu,
            to: Stage::Load
        }
    );
    workers.apply(&threads);
    assert_eq!(workers.loader().width(), 11, "loader pool not widened");
    assert_eq!(workers.sampler().width(), 9, "sampler pool not narrowed");
    assert_eq!(workers.observed(), threads);
    assert_eq!(
        workers.group(Stage::Load).unwrap().width(),
        threads.threads_for(Stage::Load)
    );
}

/// Train two epochs of a small hybrid configuration (a CPU trainer plus
/// two accelerators, 96 seeds per iteration, DRM engine off) at prefetch
/// `depth` under `schedule`. The run has its own thread and a 120 s
/// watchdog, so a lost wake-up fails the test instead of hanging it.
/// Returns the final weights and every iteration's report.
fn scripted_run(depth: usize, schedule: &[ScriptedDrmEvent]) -> (Vec<f32>, Vec<IterationReport>) {
    let schedule = schedule.to_vec();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: false, // the script is the only source of moves
            tfp: true,
        };
        cfg.train.batch_per_trainer = 32;
        cfg.train.fanouts = vec![4, 3];
        cfg.train.hidden_dim = 8;
        cfg.train.max_functional_iters = Some(6);
        cfg.train.prefetch_depth = depth;
        let mut t = HybridTrainer::new(cfg, Dataset::toy(43));
        t.set_mapping(WorkloadSplit::new(32, 96, 2), ThreadAlloc::default_for(16));
        t.set_drm_schedule(schedule);
        let trace: Vec<IterationReport> = t
            .train_epochs(2)
            .into_iter()
            .flat_map(|r| r.trace)
            .collect();
        let _ = tx.send((t.model().flatten_params(), trace));
    });
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("depth {depth}: the run failed or never returned"))
}

/// `balance_thread` semantics: the producer sets the worker pools to
/// each iteration's planned widths before sampling it, so a scripted
/// move after iteration `k` shows in the measured-wall widths of
/// exactly iteration `k+1` at every depth, while the iterations it
/// prepared ahead stay valid: nothing is discarded and the weights
/// equal serial's.
#[test]
fn balance_thread_keeps_prepared_iterations() {
    const K: usize = 2;
    let schedule = [ScriptedDrmEvent {
        epoch: 0,
        iter: K,
        action: ScriptedDrm::BalanceThread {
            from: Stage::TrainCpu,
            to: Stage::Load,
        },
    }];
    let before = ThreadAlloc::default_for(16);
    let after = ThreadAlloc {
        loader: before.loader + 1,
        trainer: before.trainer - 1,
        ..before
    };
    let (serial, _) = scripted_run(0, &schedule);
    for depth in 0..=3 {
        let (params, trace) = scripted_run(depth, &schedule);
        assert_eq!(trace.len(), 12, "depth {depth}: two epochs of 6 iterations");
        for (n, it) in trace.iter().enumerate() {
            let expected = if n <= K { before } else { after };
            assert_eq!(
                it.wall.threads, expected,
                "depth {depth}: iteration {n} ran at the wrong widths"
            );
        }
        assert_eq!(serial, params, "depth {depth} diverged from serial");
    }
}

/// Credit starvation: at prefetch depth 1 the consumer holds the only
/// credit while it trains, so the producer parks on the gate with the
/// next iteration sampled and planned. A schedule that slams nearly the
/// whole batch onto the CPU trainer (each accelerator keeps its 1-seed
/// floor) and back must neither deadlock nor change a bit: the quota
/// trajectory and the weights equal serial's.
#[test]
fn lane_starvation_survives_remap_without_deadlock() {
    let slam = |epoch: u64, iter: usize, to_cpu: isize| ScriptedDrmEvent {
        epoch,
        iter,
        action: ScriptedDrm::BalanceWork { to_cpu },
    };
    let schedule = [slam(0, 1, 96), slam(0, 3, -96), slam(1, 0, 96)];
    let quotas =
        |trace: &[IterationReport]| -> Vec<usize> { trace.iter().map(|it| it.cpu_quota).collect() };
    let (serial, serial_trace) = scripted_run(0, &schedule);
    assert_eq!(
        quotas(&serial_trace),
        [32, 94, 94, 0, 0, 0, 94, 94, 94, 94, 94, 94],
        "the script's moves, clamped by the split"
    );
    let (params, trace) = scripted_run(1, &schedule);
    assert_eq!(quotas(&serial_trace), quotas(&trace));
    assert_eq!(
        serial, params,
        "the starved depth-1 run diverged from serial"
    );
}

/// A single-credit pipeline (prefetch depth 1) serves every iteration —
/// the producer waits for each iteration's recycle before gathering the
/// next — and slices the iteration after a scripted `balance_work` under
/// the moved quotas: every iteration's simulated stage times, which are
/// modeled from its sampled batches, equal serial's.
#[test]
fn single_credit_feed_serves_and_reslices() {
    let schedule = [ScriptedDrmEvent {
        epoch: 0,
        iter: 2,
        action: ScriptedDrm::BalanceWork { to_cpu: 16 },
    }];
    let (serial, serial_trace) = scripted_run(0, &schedule);
    let (params, trace) = scripted_run(1, &schedule);
    assert_eq!(trace.len(), serial_trace.len());
    for (n, (a, b)) in serial_trace.iter().zip(&trace).enumerate() {
        assert_eq!(a.times, b.times, "iteration {n}'s batches differ");
        assert_eq!(a.cpu_quota, b.cpu_quota, "iteration {n}");
    }
    assert_eq!(trace[2].cpu_quota, 48, "the move lands after iteration 2");
    assert_ne!(
        trace[3].times.train_cpu, trace[2].times.train_cpu,
        "iteration 3 trains a larger CPU batch"
    );
    assert_eq!(serial, params, "depth 1 diverged from serial");
}
