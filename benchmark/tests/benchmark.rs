//! Workload shapes, the strict command line, metric names against
//! `BENCHMARK.json`, and replay fidelity on shrunk workloads.

use hyscale_benchmark::cli;
use hyscale_benchmark::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use hyscale_benchmark::replay::{self, decompose, Replay, REPLAY_EPOCHS};
use hyscale_benchmark::run;
use hyscale_benchmark::workload::{Workload, FANOUTS, HIDDEN_DIM, WORKLOADS};
use hyscale_gnn::{GnnKind, GnnModel};
use hyscale_graph::features::gather_features;
use hyscale_graph::Dataset;
use hyscale_sampler::NeighborSampler;
use hyscale_tensor::Precision;
use std::collections::HashSet;
use std::process::Command;

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// The string `field` of every entry listed under `key` in
/// `BENCHMARK.json`.
fn listed(key: &str, field: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let open = start + json[start..].find('[').expect("a list follows the key");
    let close = open + json[open..].find(']').expect("the list ends");
    json[open..close]
        .split(&format!("\"{field}\":"))
        .skip(1)
        .map(|rest| {
            let quoted = rest.trim_start().trim_start_matches('"');
            quoted.split('"').next().unwrap_or_default().to_string()
        })
        .collect()
}

#[test]
fn workloads_build_the_stated_shapes() {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ["sage-int8-serial", "gcn-f32-drm"]);
    let expected = [
        (GnnKind::GraphSage, Precision::Int8, 0, false, 100, 48_980),
        (GnnKind::Gcn, Precision::F32, 2, true, 128, 277_649),
    ];
    for (w, (model, precision, depth, drm, f0, vertices)) in WORKLOADS.iter().zip(expected) {
        let cfg = w.config(7);
        assert_eq!(cfg.num_trainers(), 5, "{}", w.name);
        assert_eq!(cfg.platform.num_accelerators, 4, "{}", w.name);
        assert!(cfg.opt.hybrid && cfg.opt.tfp, "{}", w.name);
        assert_eq!(cfg.opt.drm, drm, "{}", w.name);
        assert_eq!(cfg.train.model, model, "{}", w.name);
        assert_eq!(cfg.train.transfer_precision, precision, "{}", w.name);
        assert_eq!(cfg.train.prefetch_depth, depth, "{}", w.name);
        assert_eq!(cfg.train.fanouts, FANOUTS, "{}", w.name);
        assert_eq!(cfg.train.hidden_dim, HIDDEN_DIM, "{}", w.name);
        assert_eq!(cfg.train.batch_per_trainer, 512, "{}", w.name);
        assert_eq!(cfg.train.seed, 7, "{}", w.name);
        assert_eq!(w.spec.f0, f0, "{}", w.name);
        assert_eq!(w.spec.num_vertices / w.scale, vertices, "{}", w.name);
        assert_eq!(w.serial().config(7).train.prefetch_depth, 0, "{}", w.name);
    }
}

#[test]
fn the_command_line_takes_exactly_the_four_flags() {
    let ok = cli::parse(args(
        "--workload gcn-f32-drm --seed 3 --seconds 10 --trace 1",
    ))
    .expect("a full command line");
    assert_eq!(
        (ok.workload.name, ok.seed, ok.seconds, ok.trace),
        ("gcn-f32-drm", 3, 10, true)
    );
    let ok = cli::parse(args(
        "--trace 0 --seconds 1 --seed 18446744073709551615 --workload sage-int8-serial",
    ))
    .expect("flags in any order");
    assert_eq!((ok.seed, ok.trace), (u64::MAX, false));
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 0",
        "--workload gcn-f32-drm --seed 3x --seconds 10 --trace 0",
        "--workload gcn-f32-drm --seed -3 --seconds 10 --trace 0",
        "--workload gcn-f32-drm --seed +3 --seconds 10 --trace 0",
        "--workload gcn-f32-drm --seed 18446744073709551616 --seconds 10 --trace 0",
        "--workload gcn-f32-drm --seed 3 --seconds 0 --trace 0",
        "--workload gcn-f32-drm --seed 3 --seconds 61 --trace 0",
        "--workload gcn-f32-drm --seed 3 --seconds 10 --trace 2",
        "--workload gcn-f32-drm --seed 3 --seconds 10",
        "--workload gcn-f32-drm --seed 3 --seconds 10 --trace",
        "--workload gcn-f32-drm --seed 3 --seconds 10 --trace 0 --verbose",
        "--workload gcn-f32-drm --seed 3 --seed 4 --seconds 10 --trace 0",
        "",
    ] {
        assert!(cli::parse(args(bad)).is_err(), "accepted `{bad}`");
    }
}

#[test]
fn a_bad_command_line_exits_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hyscale-benchmark"))
        .args(args("--workload nope --seed 1 --seconds 1 --trace 0"))
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    for (key, spec) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<&str> = spec.iter().map(|&(n, _)| n).collect();
        let units: Vec<&str> = spec.iter().map(|&(_, u)| u).collect();
        assert_eq!(listed(key, "name"), names, "{key} names");
        assert_eq!(listed(key, "unit"), units, "{key} units");
        for &(name, unit) in spec {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
    }
    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .collect();
    assert_eq!(
        all.iter().collect::<HashSet<_>>().len(),
        all.len(),
        "a name repeats"
    );
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed("workloads", "name"), workloads);
    assert!(END_TO_END.contains(&("setup_s", "s")));
    let agg_layers = PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("gnn.agg_fwd_s.l"))
        .count();
    assert_eq!(agg_layers, FANOUTS.len(), "one name per GNN layer");
    for bad in ["", ".dot_first", "has space", "slash/no", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

/// A shrunk copy of a workload: the same settings on a small graph.
fn tiny(w: &Workload) -> Workload {
    Workload {
        scale: w.scale * 20,
        batch_per_trainer: 32,
        iters_per_epoch: 3,
        ..*w
    }
}

/// The shrunk workloads, plus the GraphSAGE task at prefetch depth 2,
/// whose weights must equal `sage-int8-serial`'s bitwise.
fn tiny_workloads() -> Vec<Workload> {
    let mut all: Vec<Workload> = WORKLOADS.iter().map(tiny).collect();
    all.push(Workload {
        name: "sage-int8-pipelined",
        prefetch_depth: 2,
        ..all[0]
    });
    all
}

#[test]
fn the_replay_trains_the_untraced_batches() {
    for w in tiny_workloads() {
        let untraced = run::run_untraced(&w, 5, 0.0);
        let mut reference = run::reference(&w, 5);
        let failures = run::check(&w, &untraced, &reference);
        assert!(failures.is_empty(), "{}: {failures:?}", w.name);
        reference.digest ^= 1;
        assert_eq!(
            run::check(&w, &untraced, &reference).len(),
            1,
            "{}: a wrong digest is caught",
            w.name
        );
        let r = replay::replay(&w, 5, &untraced);
        assert_eq!(
            r.iterations,
            REPLAY_EPOCHS * w.iters_per_epoch,
            "{}",
            w.name
        );
        assert!(
            r.seeds_per_iter.iter().all(|&s| s == untraced.total_batch),
            "{}: {:?}",
            w.name,
            r.seeds_per_iter
        );
        let failures = replay::check(&untraced, &r);
        assert!(failures.is_empty(), "{}: {failures:?}", w.name);
        let mut drifted = r.clone();
        drifted.losses[1] = f32::from_bits(drifted.losses[1].to_bits() ^ 1);
        assert_eq!(
            replay::check(&untraced, &drifted).len(),
            1,
            "{}: a replay that trained other batches is caught",
            w.name
        );
    }
}

#[test]
fn the_decomposition_recomputes_the_train_step_loss_bitwise() {
    let ds = Dataset::toy(3);
    let sampler = NeighborSampler::new(vec![5, 3], 1);
    let seeds = ds.splits.train[..24].to_vec();
    let mb = sampler.sample(&ds.graph, &seeds, 0);
    let x = gather_features(&ds.data.features, &mb.input_nodes);
    let labels: Vec<u32> = seeds.iter().map(|&s| ds.data.labels[s as usize]).collect();
    for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin] {
        let model = GnnModel::new(kind, &[16, 8, 4], 2);
        let mut r = Replay::new(2);
        let loss = decompose(&model, &mb, &x, &labels, &mut r);
        assert_eq!(loss, model.train_step(&mb, &x, &labels).loss, "{kind:?}");
        assert!(r.gemm_flops > 0.0 && r.agg_edges > 0.0, "{kind:?}");
    }
}
