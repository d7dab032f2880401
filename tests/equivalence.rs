//! The paper's semantics-preservation claim (§IV): "these optimizations
//! do not alter the semantics of the GNN training algorithm; thus, the
//! convergence rate and model accuracy remain the same as the original
//! sequential algorithm."
//!
//! These tests make the claim mechanical:
//! * the round's *parallel* dispatch (one train step per trainer)
//!   followed by the weighted all-reduce produces exactly the gradients
//!   of a sequential reduction over the same batches;
//! * the timing-layer optimizations (TFP) change no numerics at all;
//! * the *real* prefetching pipeline (background producer + credit-gated
//!   queue, `prefetch_depth > 0`) trains bitwise-identical weights to
//!   serial execution, including across DRM re-mapping events;
//! * replicas stay in bitwise lock-step across iterations.

use hyscale::core::sync::Synchronizer;
use hyscale::core::{AcceleratorKind, HybridTrainer, OptFlags, SystemConfig};
use hyscale::gnn::{GnnKind, GnnModel, Gradients};
use hyscale::graph::features::gather_features;
use hyscale::graph::Dataset;
use hyscale::sampler::NeighborSampler;
use rayon::prelude::*;
use std::time::Duration;

/// The executor's round — one `collect` item per trainer, the items
/// finishing out of order — then the all-reduce == the sequential
/// weighted average, exactly.
#[test]
fn parallel_allreduce_matches_sequential() {
    let ds = Dataset::toy(3);
    let sampler = NeighborSampler::new(vec![6, 4], 5);
    let model = GnnModel::new(GnnKind::GraphSage, &[16, 32, 4], 9);

    // three trainers with deliberately unequal quotas (DRM-style split)
    let quotas = [60usize, 30, 10];
    let mut start = 0;
    let work: Vec<_> = quotas
        .iter()
        .map(|&q| {
            let seeds: Vec<u32> = ds.splits.train[start..start + q].to_vec();
            start += q;
            let mb = sampler.sample(&ds.graph, &seeds, q as u64);
            let x = gather_features(&ds.data.features, &mb.input_nodes);
            let labels: Vec<u32> = seeds.iter().map(|&s| ds.data.labels[s as usize]).collect();
            (mb, x, labels)
        })
        .collect();

    // sequential reference
    let seq_parts: Vec<Gradients> = work
        .iter()
        .map(|(mb, x, l)| model.train_step(mb, x, l).grads)
        .collect();
    let seq_avg = Gradients::weighted_average(&seq_parts);

    // parallel, as the executor trains a round: earlier items sleep
    // longer, so on several threads the items finish in reverse order
    let par_parts: Vec<Gradients> = work
        .par_iter()
        .enumerate()
        .map(|(i, (mb, x, l))| {
            std::thread::sleep(Duration::from_millis(20 * (quotas.len() - i) as u64));
            model.train_step(mb, x, l).grads
        })
        .collect();
    let par_avg = Synchronizer::new().all_reduce(&par_parts);

    assert_eq!(par_avg.batch_size, seq_avg.batch_size);
    for (a, b) in par_avg.d_weights.iter().zip(&seq_avg.d_weights) {
        assert_eq!(a.as_slice(), b.as_slice(), "parallel all-reduce diverged");
    }
    for (a, b) in par_avg.d_biases.iter().zip(&seq_avg.d_biases) {
        assert_eq!(a, b);
    }
}

/// The TFP optimization is pure timing: with the task mapping pinned,
/// identical final weights with it on or off.
#[test]
fn tfp_does_not_change_numerics() {
    use hyscale::core::drm::{ThreadAlloc, WorkloadSplit};
    let run = |tfp: bool| {
        let ds = Dataset::toy(11);
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: false,
            tfp,
        };
        cfg.train.batch_per_trainer = 64;
        cfg.train.fanouts = vec![6, 3];
        cfg.train.hidden_dim = 16;
        cfg.train.max_functional_iters = Some(4);
        let mut t = HybridTrainer::new(cfg, ds);
        t.set_mapping(
            WorkloadSplit::new(64, 192, 2),
            ThreadAlloc::default_for(128),
        );
        t.train_epochs(3);
        t.model().flatten_params()
    };
    assert_eq!(run(true), run(false), "TFP altered training numerics");
}

/// The accelerator *kind* is pure timing too: with the mapping pinned, a
/// GPU system and an FPGA system with identical algorithmic parameters
/// train identical weights.
#[test]
fn accelerator_kind_does_not_change_numerics() {
    use hyscale::core::drm::{ThreadAlloc, WorkloadSplit};
    let run = |accel: AcceleratorKind| {
        let ds = Dataset::toy(13);
        let mut cfg = SystemConfig::paper_default(accel, GnnKind::GraphSage);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: false,
            tfp: true,
        };
        cfg.train.batch_per_trainer = 48;
        cfg.train.fanouts = vec![5, 3];
        cfg.train.hidden_dim = 16;
        cfg.train.max_functional_iters = Some(3);
        let mut t = HybridTrainer::new(cfg, ds);
        t.set_mapping(
            WorkloadSplit::new(48, 144, 2),
            ThreadAlloc::default_for(128),
        );
        t.train_epochs(2);
        t.model().flatten_params()
    };
    assert_eq!(
        run(AcceleratorKind::u250()),
        run(AcceleratorKind::a5000()),
        "device choice altered training numerics"
    );
}

/// The real prefetching pipeline is pure wall-clock overlap: for every
/// prefetch depth in {1, 2, 3, 4}, final weights are bitwise-identical
/// to serial execution (`depth = 0`).
/// DRM is pinned off here so the whole epoch runs through an
/// uninterrupted producer queue.
#[test]
fn prefetch_depths_are_bitwise_identical_to_serial() {
    use hyscale::core::drm::{ThreadAlloc, WorkloadSplit};
    let run = |depth: usize| {
        let ds = Dataset::toy(29);
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: false,
            tfp: true,
        };
        cfg.train.batch_per_trainer = 48;
        cfg.train.fanouts = vec![6, 3];
        cfg.train.hidden_dim = 16;
        cfg.train.max_functional_iters = Some(5);
        cfg.train.prefetch_depth = depth;
        let mut t = HybridTrainer::new(cfg, ds);
        t.set_mapping(
            WorkloadSplit::new(48, 144, 2),
            ThreadAlloc::default_for(128),
        );
        t.train_epochs(3);
        t.model().flatten_params()
    };
    let serial = run(0);
    for depth in [1usize, 2, 3, 4] {
        assert_eq!(
            serial,
            run(depth),
            "prefetch depth {depth} altered training numerics"
        );
    }
}

/// Same bitwise contract with the DRM engine *live*: its balance_work
/// moves change per-trainer quotas mid-epoch, and the producer, which
/// plans each move itself, slices the next iteration under them — the
/// weights must still match serial execution exactly, with the
/// re-mapping events themselves identical.
#[test]
fn prefetch_is_bitwise_identical_across_drm_remapping() {
    use hyscale::core::drm::DrmAction;
    let run = |depth: usize| {
        let ds = Dataset::toy(31);
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: true,
            tfp: true,
        };
        cfg.train.batch_per_trainer = 64;
        cfg.train.fanouts = vec![6, 3];
        cfg.train.hidden_dim = 16;
        cfg.train.max_functional_iters = Some(8);
        cfg.train.prefetch_depth = depth;
        let mut t = HybridTrainer::new(cfg, ds);
        let reports = t.train_epochs(2);
        let remap_events: Vec<(usize, usize)> = reports
            .iter()
            .flat_map(|r| r.trace.iter())
            .map(|it| (it.iter, it.cpu_quota))
            .collect();
        // balance_work moves the prefetched iteration after them sees
        let mid_epoch_moves = reports
            .iter()
            .flat_map(|r| r.trace.iter().map(move |it| (it, r.functional_iters)))
            .filter(|(it, iters)| {
                it.iter + 1 < *iters && matches!(it.drm_action, DrmAction::BalanceWork { .. })
            })
            .count();
        (t.model().flatten_params(), remap_events, mid_epoch_moves)
    };
    let (serial_params, serial_events, serial_moves) = run(0);
    for depth in [1usize, 2, 4] {
        let (params, events, moves) = run(depth);
        assert_eq!(
            serial_events, events,
            "depth {depth} saw different DRM re-mapping trajectory"
        );
        assert_eq!(serial_moves, moves);
        assert_eq!(
            serial_params, params,
            "prefetch depth {depth} diverged from serial across DRM re-mapping"
        );
    }
    assert!(
        serial_moves > 0,
        "DRM never moved work mid-epoch — the re-mapping path went unexercised"
    );
}

/// Worker-pool widths are pure wall-clock: with the task mapping pinned,
/// two deliberately different `ThreadAlloc` settings (sampler-heavy and
/// loader-heavy) train bitwise-identical weights and losses to each
/// other and to serial execution, at prefetch depths {1, 2}. This is
/// what licenses the producer to re-size the live pools, the CPU
/// trainer's included, while earlier iterations are still in flight.
#[test]
fn thread_allocs_are_bitwise_identical_across_depths() {
    use hyscale::core::drm::{ThreadAlloc, WorkloadSplit};
    let run = |depth: usize, alloc: ThreadAlloc| {
        let ds = Dataset::toy(37);
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::GraphSage);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: false,
            tfp: true,
        };
        cfg.train.batch_per_trainer = 48;
        cfg.train.fanouts = vec![6, 3];
        cfg.train.hidden_dim = 16;
        cfg.train.max_functional_iters = Some(4);
        cfg.train.prefetch_depth = depth;
        let mut t = HybridTrainer::new(cfg, ds);
        t.set_mapping(WorkloadSplit::new(48, 144, 2), alloc);
        let reports = t.train_epochs(2);
        let losses: Vec<f32> = reports.iter().map(|r| r.loss).collect();
        // the producer must have dispatched under exactly this alloc
        for r in &reports {
            assert_eq!(r.wall_stages.threads, alloc, "producer ignored ThreadAlloc");
        }
        (t.model().flatten_params(), losses)
    };
    let sampler_heavy = ThreadAlloc {
        sampler: 96,
        loader: 16,
        trainer: 16,
    };
    let loader_heavy = ThreadAlloc {
        sampler: 8,
        loader: 104,
        trainer: 16,
    };
    let (reference, ref_losses) = run(0, ThreadAlloc::default_for(128));
    for depth in [1usize, 2] {
        for alloc in [sampler_heavy, loader_heavy] {
            let (params, losses) = run(depth, alloc);
            assert_eq!(
                reference, params,
                "depth {depth} under {alloc:?} diverged from serial"
            );
            assert_eq!(
                ref_losses, losses,
                "depth {depth} under {alloc:?} changed the loss trajectory"
            );
        }
    }
}

/// Live DRM with both move kinds firing mid-epoch: `balance_work`
/// re-maps quotas and `balance_thread` re-sizes the worker pools, both
/// planned by the producer for the iteration it prepares next —
/// weights, losses, and the DRM trajectory itself must stay
/// bitwise-identical to serial at prefetch depths {1, 2, 3, 4}, and the
/// measured-wall trace must show the thread shift landing on the same
/// iterations at every depth. Prefetch depth never steers the
/// trajectory: every depth reproduces the one serial trajectory bitwise.
#[test]
fn thread_rebalance_mid_epoch_is_bitwise_identical() {
    use hyscale::core::drm::DrmAction;
    let run = |depth: usize| {
        let ds = Dataset::toy(31);
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: true,
            tfp: true,
        };
        cfg.train.batch_per_trainer = 64;
        cfg.train.fanouts = vec![6, 3];
        cfg.train.hidden_dim = 16;
        cfg.train.max_functional_iters = Some(8);
        cfg.train.prefetch_depth = depth;
        let mut t = HybridTrainer::new(cfg, ds);
        let reports = t.train_epochs(2);
        let thread_moves: usize = reports
            .iter()
            .flat_map(|r| r.trace.iter())
            .filter(|it| matches!(it.drm_action, DrmAction::BalanceThread { .. }))
            .count();
        let actions: Vec<(usize, DrmAction, usize)> = reports
            .iter()
            .flat_map(|r| r.trace.iter())
            .map(|it| (it.iter, it.drm_action, it.cpu_quota))
            .collect();
        let observed_allocs: Vec<_> = reports
            .iter()
            .flat_map(|r| r.trace.iter())
            .map(|it| it.wall.threads)
            .collect();
        let losses: Vec<f32> = reports.iter().map(|r| r.loss).collect();
        (
            t.model().flatten_params(),
            losses,
            actions,
            thread_moves,
            observed_allocs,
        )
    };
    let (serial_params, serial_losses, serial_actions, serial_moves, serial_allocs) = run(0);
    assert!(
        serial_moves >= 1,
        "config never triggered a balance_thread move — the re-allocation path went unexercised"
    );
    assert!(
        serial_actions
            .iter()
            .any(|(_, a, _)| matches!(a, DrmAction::BalanceWork { .. })),
        "config never triggered a balance_work move — the quota re-map went unexercised"
    );
    // The wall-clock trace shows the re-allocation land: the producer's
    // observed widths change across the epoch.
    let distinct: std::collections::HashSet<_> = serial_allocs
        .iter()
        .map(|a| (a.sampler, a.loader, a.trainer))
        .collect();
    assert!(
        distinct.len() >= 2,
        "balance_thread never shifted the widths the producer observed: {serial_allocs:?}"
    );
    for depth in [1usize, 2, 3, 4] {
        let (params, losses, actions, moves, allocs) = run(depth);
        assert_eq!(
            serial_actions, actions,
            "depth {depth} saw a different DRM trajectory"
        );
        assert_eq!(
            serial_allocs, allocs,
            "depth {depth} prepared iterations at different widths"
        );
        assert_eq!(serial_moves, moves);
        assert_eq!(
            serial_params, params,
            "depth {depth} diverged from serial across live DRM moves"
        );
        assert_eq!(serial_losses, losses);
    }
}

/// DRM re-partitions batches (a different but equally-valid sync-SGD
/// trajectory) — it must not hurt convergence.
#[test]
fn drm_preserves_convergence() {
    let run = |drm: bool| {
        let ds = Dataset::toy(17);
        let test = ds.splits.test.clone();
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm,
            tfp: true,
        };
        cfg.train.batch_per_trainer = 96;
        cfg.train.fanouts = vec![8, 4];
        cfg.train.hidden_dim = 32;
        cfg.train.learning_rate = 0.3;
        cfg.train.max_functional_iters = Some(5);
        let mut t = HybridTrainer::new(cfg, ds);
        t.train_epochs(8);
        t.evaluate(&test)
    };
    let with_drm = run(true);
    let without = run(false);
    assert!(with_drm > 0.85, "DRM run accuracy {with_drm}");
    assert!(without > 0.85, "static run accuracy {without}");
    assert!(
        (with_drm - without).abs() < 0.1,
        "DRM changed accuracy band: {with_drm} vs {without}"
    );
}
