//! System-level DRM behaviour (paper §IV-A): starting from a bad task
//! mapping, Algorithm 1 must converge to a faster one while preserving
//! the per-iteration seed total and the CPU thread budget — and its two
//! move kinds must have the right invalidation semantics on the
//! producer's queue: `balance_work` re-slices *only the trainers whose
//! share moved* (salvaging the untouched trainers' queued batches; a
//! zero-diff move flushes nothing), `balance_thread` flushes none.

use hyscale::core::drm::{DrmEngine, ThreadAlloc, WorkloadSplit};
use hyscale::core::{AcceleratorKind, PerfModel, SystemConfig};
use hyscale::gnn::GnnKind;
use hyscale::graph::dataset::{OGBN_PAPERS100M, OGBN_PRODUCTS};

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
    use hyscale::core::stages::{Stage, StageTimes, StageWorkers};

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

/// Build an [`IterationFeed`] over a toy dataset with `num_accel`
/// accelerator trainers and prefetch depth `depth`, plus the quotas it
/// was spawned under.
mod feed_fixture {
    use hyscale::core::drm::ThreadAlloc;
    use hyscale::core::stages::StageWorkers;
    use hyscale::core::{IterationFeed, MatrixPool, PrepareCtx};
    use hyscale::graph::Dataset;
    use hyscale::sampler::{EpochBatcher, NeighborSampler};
    use hyscale::tensor::quant::WireFeatures;
    use hyscale::tensor::Precision;
    use std::sync::Arc;

    pub fn feed(num_accel: usize, depth: usize) -> (IterationFeed, Arc<MatrixPool>, Vec<usize>) {
        feed_with_quotas(depth, vec![8usize; 1 + num_accel])
    }

    pub fn feed_with_quotas(
        depth: usize,
        quotas: Vec<usize>,
    ) -> (IterationFeed, Arc<MatrixPool>, Vec<usize>) {
        let dataset = Arc::new(Dataset::toy(5));
        let batcher = EpochBatcher::new(dataset.splits.train.clone(), 99);
        let order = Arc::new(batcher.epoch_order(0));
        let ctx = Arc::new(PrepareCtx {
            accel_features: Arc::new(WireFeatures::build(Precision::Int8, &dataset.data.features)),
            dataset,
            batcher,
            sampler: NeighborSampler::new(vec![4, 3], 17),
            hybrid: true,
            workers: Arc::new(StageWorkers::from_alloc(&ThreadAlloc::default_for(8))),
            numa_domains: 2,
        });
        let pool = Arc::new(MatrixPool::new());
        let feed = IterationFeed::new(
            ctx,
            order,
            0,
            usize::MAX,
            depth,
            Arc::clone(&pool),
            quotas.clone(),
        );
        (feed, pool, quotas)
    }

    /// Poll until the feed has at least `n` fully-prepared iterations
    /// buffered (salvage tests need a known amount of queued work
    /// before firing a re-map). Panics after ~5 s.
    pub fn wait_buffered(feed: &IterationFeed, n: usize) {
        for _ in 0..500 {
            if feed.buffered() >= n {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!(
            "producer never buffered {n} iterations (got {})",
            feed.buffered()
        );
    }

    /// Tear the feed down and check that no prefetch credit outlives it.
    pub fn finish(feed: IterationFeed) {
        let credits = Arc::clone(feed.credits());
        feed.finish();
        assert_eq!(credits.held(), 0, "credit held after finish");
    }
}

/// `balance_work` semantics are *surgical*: a quota change re-slices
/// only the trainers whose seed slice moved. Untouched lanes keep their
/// queued batches. (The re-slice itself is deferred to the next
/// `obtain`, where bursts coalesce.)
#[test]
fn balance_work_drains_only_changed_lanes() {
    let (mut feed, pool, quotas) = feed_fixture::feed(2, 2);
    let first = feed.obtain(0, &quotas).expect("first iteration");
    assert_eq!(
        first.features.iter().flatten().count(),
        3,
        "one feature batch per trainer"
    );
    first.recycle(&pool);
    feed_fixture::wait_buffered(&feed, 2);

    // the DRM moves 4 seeds from accel trainer 1 (lane 0) to the CPU
    // trainer; lane 1's slice (prefix 16, quota 8) is untouched
    let new_quotas = vec![12usize, 4, 8];
    feed.invalidate(1, new_quotas.clone());
    let second = feed.obtain(1, &new_quotas).expect("post-remap iteration");
    second.recycle(&pool);
    assert_eq!(feed.restarts(), 1, "balance_work must restart the producer");
    assert_eq!(
        feed.salvage_stats(),
        (2, 4),
        "both queued iterations keep lane 1 and re-slice the CPU and lane 0"
    );

    // the reverse move changes lane 0 again, and again spares lane 1
    feed_fixture::wait_buffered(&feed, 2);
    let newer_quotas = vec![8usize, 8, 8];
    feed.invalidate(2, newer_quotas.clone());
    let third = feed.obtain(2, &newer_quotas).expect("post-remap iteration");
    assert_eq!(third.quotas, newer_quotas);
    assert_eq!(feed.salvage_stats(), (4, 8));
    third.recycle(&pool);
    feed_fixture::finish(feed);
}

/// The ROADMAP coalescing follow-up, pinned: two back-to-back
/// `balance_work` moves of the *same* trainer (lane 0 donates seeds to
/// the CPU twice before the consumer's next obtain) must fold into ONE
/// re-slice against the final quotas — one producer restart, and the
/// queued iterations re-sliced once, not twice.
#[test]
fn burst_of_same_trainer_moves_reslices_once() {
    let old_quotas = vec![12usize, 8, 8, 8];
    let (mut feed, pool, _) = feed_fixture::feed_with_quotas(2, old_quotas.clone());
    let first = feed.obtain(0, &old_quotas).expect("first iteration");
    first.recycle(&pool);
    feed_fixture::wait_buffered(&feed, 2);
    let queued = feed.buffered();
    assert_eq!(
        queued, 2,
        "prefetch depth 2 caps the prepared look-ahead at 2"
    );

    // burst: [12,8,8,8] -> [14,6,8,8] -> [16,4,8,8], both moving seeds
    // from lane 0 to the CPU, recorded back-to-back between obtains
    feed.invalidate(1, vec![14usize, 6, 8, 8]);
    feed.invalidate(1, vec![16usize, 4, 8, 8]);
    assert_eq!(feed.remaps_coalesced(), 1, "second event must coalesce");

    let final_quotas = vec![16usize, 4, 8, 8];
    let second = feed.obtain(1, &final_quotas).expect("post-burst iteration");
    assert_eq!(second.quotas, final_quotas);
    assert_eq!(second.seed_sets[0].len(), 16);
    assert_eq!(second.seed_sets[1].len(), 4);
    second.recycle(&pool);

    // ONE re-slice for the whole burst: producer restarted once, and
    // each queued iteration's movers flushed exactly once
    assert_eq!(feed.restarts(), 1, "burst must pay a single restart");
    let (salvaged, flushed) = feed.salvage_stats();
    assert_eq!(
        salvaged,
        2 * queued,
        "lanes 1 and 2 of every queued iteration survive the burst"
    );
    assert_eq!(
        flushed,
        2 * queued,
        "CPU + lane 0 of every queued iteration re-sliced exactly once"
    );
    feed_fixture::finish(feed);
}

/// The headline salvage pin: with 3 accelerator lanes, a quota diff
/// touching the CPU trainer and lane 0 (prefixes and quotas of lanes 1
/// and 2 unchanged) salvages the queued batches of the untouched
/// trainers instead of flushing them.
#[test]
fn single_lane_quota_diff_salvages_untouched_trainers() {
    let old_quotas = vec![12usize, 8, 8, 8];
    let (mut feed, pool, _) = feed_fixture::feed_with_quotas(2, old_quotas.clone());
    let first = feed.obtain(0, &old_quotas).expect("first iteration");
    first.recycle(&pool);
    // Wait for the producer's *steady* fill: at prefetch depth 2 exactly
    // two iterations can be fully prepared (each holds a credit; the
    // third parks on the gate before gathering), so the buffered count
    // is stable at 2 and the salvage accounting below is deterministic.
    feed_fixture::wait_buffered(&feed, 2);
    let queued = feed.buffered();
    assert_eq!(
        queued, 2,
        "prefetch depth 2 caps the prepared look-ahead at 2"
    );

    // 4 seeds move from lane 0 to the CPU: [12,8,8,8] -> [16,4,8,8].
    // Lanes 1 and 2 keep both prefix (20, 28) and quota (8, 8).
    let new_quotas = vec![16usize, 4, 8, 8];
    feed.invalidate(1, new_quotas.clone());
    // deferred: the re-slice runs at the next obtain
    let second = feed.obtain(1, &new_quotas).expect("post-remap iteration");

    let (salvaged, flushed) = feed.salvage_stats();
    assert!(
        salvaged >= 2,
        "lanes 1 and 2 of every queued iteration must be salvaged (got {salvaged})"
    );
    assert_eq!(
        salvaged,
        2 * queued,
        "exactly the two untouched trainers per queued iteration survive"
    );
    assert_eq!(
        flushed,
        2 * queued,
        "exactly the CPU trainer and lane 0 per queued iteration are re-sliced"
    );
    assert!(
        feed.invalidation_wall_s() > 0.0,
        "re-mapping wall-clock must be accounted"
    );

    // the salvaged iterations are served under the new quotas
    assert_eq!(second.quotas, new_quotas);
    assert_eq!(second.seed_sets[0].len(), 16);
    assert_eq!(second.seed_sets[1].len(), 4);
    assert_eq!(second.seed_sets[2].len(), 8);
    assert_eq!(second.seed_sets[3].len(), 8);
    second.recycle(&pool);
    feed_fixture::finish(feed);
}

/// Regression for the latent zero-diff bug: a `balance_work` whose new
/// quotas equal the old used to pay a full drain + producer restart.
/// It must now be a complete no-op — nothing flushed, no restart — and
/// the feed keeps serving without a hiccup.
#[test]
fn zero_diff_balance_work_drains_nothing() {
    let (mut feed, pool, quotas) = feed_fixture::feed(3, 2);
    let first = feed.obtain(0, &quotas).expect("first iteration");
    first.recycle(&pool);

    feed.invalidate(1, quotas.clone());
    for iter in 1..=2 {
        let prep = feed.obtain(iter, &quotas).expect("iteration after no-op");
        assert_eq!(prep.iter, iter);
        prep.recycle(&pool);
    }
    assert_eq!(
        feed.restarts(),
        0,
        "zero-diff re-map restarted the producer"
    );
    assert_eq!(
        feed.salvage_stats(),
        (0, 0),
        "zero-diff re-map flushed work"
    );
    assert_eq!(
        feed.invalidation_wall_s(),
        0.0,
        "a no-op re-map must not charge invalidation time"
    );
    feed_fixture::finish(feed);
}

/// `balance_thread` semantics: re-sizing the worker pools must leave
/// the prepared iterations intact: no flush, no restart, queued batches
/// stay valid (widths change wall-clock, never bytes).
#[test]
fn balance_thread_keeps_prepared_iterations() {
    let (mut feed, pool, quotas) = feed_fixture::feed(2, 2);
    let first = feed.obtain(0, &quotas).expect("first iteration");
    first.recycle(&pool);

    let moved = ThreadAlloc {
        sampler: 2,
        loader: 4,
        trainer: 2,
    };
    feed.rebalance_threads(&moved);
    assert_eq!(feed.workers().observed(), moved);
    assert_eq!(feed.restarts(), 0, "balance_thread must not restart");

    // prepared iterations keep flowing, including across a second width
    // change mid-stream
    for iter in 1..=3 {
        if iter == 2 {
            feed.rebalance_threads(&ThreadAlloc {
                sampler: 2,
                loader: 1,
                trainer: 5,
            });
            assert_eq!(feed.workers().loader().width(), 1, "loader narrowed live");
        }
        let prep = feed.obtain(iter, &quotas).expect("post-move iteration");
        assert_eq!(prep.features.iter().flatten().count(), 3);
        prep.recycle(&pool);
    }
    assert_eq!(feed.restarts(), 0);
    assert_eq!(
        feed.salvage_stats(),
        (0, 0),
        "balance_thread must not flush prepared iterations"
    );
    feed_fixture::finish(feed);
}

/// Credit starvation: the consumer holds the only prefetch credit, so
/// the producer is parked on the gate with a sampled iteration in hand
/// — a DRM re-map fired in that state must neither deadlock nor corrupt
/// service.
#[test]
fn lane_starvation_survives_remap_without_deadlock() {
    // prefetch depth 1 + a held iteration: after iteration 0 is obtained
    // (and NOT recycled), its credit stays taken, so the producer samples
    // iteration 1 and parks before gathering it.
    let (mut feed, pool, quotas) = feed_fixture::feed(2, 1);
    let held = feed.obtain(0, &quotas).expect("first iteration");
    assert_eq!(
        feed.credits().held(),
        1,
        "iteration 0 holds the only credit"
    );
    // give the producer time to park on the gate
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(
        feed.buffered(),
        0,
        "nothing can be gathered while the credit is held"
    );

    // re-map while the producer is starved: lane 0's slice moves,
    // lane 1 settles
    let new_quotas = vec![10usize, 6, 8];
    feed.invalidate(1, new_quotas.clone());
    // return the credit only now — the apply path must cope with a
    // producer that was parked
    held.recycle(&pool);
    let next = feed
        .obtain(1, &new_quotas)
        .expect("post-starvation iteration");
    assert_eq!(next.quotas, new_quotas);
    assert_eq!(next.seed_sets[0].len(), 10);
    assert_eq!(next.seed_sets[1].len(), 6);
    assert_eq!(feed.restarts(), 1, "the re-map restarts the producer once");
    next.recycle(&pool);
    // the feed keeps serving normally afterwards
    let after = feed.obtain(2, &new_quotas).expect("steady service resumes");
    after.recycle(&pool);
    feed_fixture::finish(feed);
}

/// A single-credit feed (prefetch depth 1) still serves correctly — the
/// producer just waits for each iteration's recycle before gathering
/// the next — and re-slices under a re-map.
#[test]
fn single_credit_feed_serves_and_reslices() {
    let (mut feed, pool, quotas) = feed_fixture::feed(2, 1);
    for iter in 0..3 {
        let prep = feed.obtain(iter, &quotas).expect("iteration");
        assert_eq!(prep.features.iter().flatten().count(), 3);
        assert_eq!(feed.credits().held(), 1);
        prep.recycle(&pool);
    }
    let new_quotas = vec![10usize, 6, 8];
    feed.invalidate(3, new_quotas.clone());
    let next = feed.obtain(3, &new_quotas).expect("post-remap");
    // only lane 0's slice moved ([8..16] -> [10..16])
    assert_eq!(feed.restarts(), 1);
    assert_eq!(next.seed_sets[1].len(), 6);
    assert_eq!(next.seed_sets[2].len(), 8);
    next.recycle(&pool);
    feed_fixture::finish(feed);
}
