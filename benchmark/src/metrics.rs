//! Metric names and units, how each is computed, and the result line.

use crate::replay::Replay;
use crate::run::{Reference, Untraced};
use crate::workload::Workload;
use hyscale_core::drm::DrmAction;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("seeds_per_s", "seeds/s"),
    ("epoch_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_epoch_s", "s"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`, as `(name, unit)`. All
/// are per iteration; `lN` is GNN layer N, input-most first.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampler.sample_s", "s"),
    ("sampler.edges", "count"),
    ("sampler.input_rows", "count"),
    ("graph.gather_s", "s"),
    ("graph.gather_bytes", "bytes"),
    ("tensor.round_trip_s", "s"),
    ("tensor.round_trip_bytes", "bytes"),
    ("gnn.forward_s", "s"),
    ("gnn.backward_s", "s"),
    ("gnn.train_step_s", "s"),
    ("gnn.agg_fwd_s.l0", "s"),
    ("gnn.agg_fwd_s.l1", "s"),
    ("gnn.agg_bwd_s.l0", "s"),
    ("gnn.agg_bwd_s.l1", "s"),
    ("gnn.agg_edges", "count"),
    ("tensor.gemm_nn_s.l0", "s"),
    ("tensor.gemm_nn_s.l1", "s"),
    ("tensor.gemm_tn_s.l0", "s"),
    ("tensor.gemm_tn_s.l1", "s"),
    ("tensor.gemm_nt_s.l0", "s"),
    ("tensor.gemm_nt_s.l1", "s"),
    ("tensor.gemm_flops", "flop"),
    ("tensor.loss_s", "s"),
    ("gnn.layer0_input_grad_s", "s"),
    ("gnn.unattributed_s", "s"),
    ("core.all_reduce_s", "s"),
    ("core.all_reduce_bytes", "bytes"),
    ("core.optimizer_s", "s"),
    ("core.trainer_imbalance", "ratio"),
    ("core.drm_work_moves", "count"),
    ("core.drm_thread_moves", "count"),
    ("core.prefetch_restarts", "count"),
    ("core.overlap_factor", "ratio"),
    ("core.producer_wait_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.replay_gap", "ratio"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Whether `name` fits the metric-name grammar: a letter or digit, then
/// letters, digits, `_`, `.` or `-`, at most 64 in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the unit grammar: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Order `values` as `spec` lists them and attach the units. A missing,
/// extra or non-finite value is a bug in this benchmark and panics.
fn by_spec(
    spec: &'static [(&'static str, &'static str)],
    values: Vec<(String, f64)>,
) -> Vec<Metric> {
    let mut values: BTreeMap<String, f64> = values.into_iter().collect();
    let metrics = spec
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .remove(name)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            assert!(value.is_finite(), "metric {name} is {value}");
            Metric { name, unit, value }
        })
        .collect();
    assert!(
        values.is_empty(),
        "metrics missing from the list: {:?}",
        values.keys().collect::<Vec<_>>()
    );
    metrics
}

fn named(values: &[(&str, f64)]) -> Vec<(String, f64)> {
    values.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(u: &Untraced, success_rate: f64) -> Vec<Metric> {
    let check = u.check_epoch();
    by_spec(
        END_TO_END,
        named(&[
            ("seeds_per_s", u.seeds_per_s()),
            ("epoch_s_p50", median(u.measured_wall_s())),
            ("setup_s", median(&u.setup_s)),
            ("peak_rss_mb", peak_rss_mb()),
            ("sim_epoch_s", check.epoch_time_s),
            ("success_rate", success_rate),
        ]),
    )
}

/// The per-layer metrics of a replay, the untraced run it replayed and
/// that run's serial reference.
pub fn per_layer(w: &Workload, u: &Untraced, reference: &Reference, r: &Replay) -> Vec<Metric> {
    let n = r.iterations as f64;
    let trained = u.iterations() as f64;
    let untraced_iter_s = u.iter_wall_s();
    // With every stage inline the consumer thread runs the producer
    // stages too.
    let on_consumer = if w.prefetch_depth == 0 {
        r.busy_s()
    } else {
        r.consumer_s()
    };
    let work_moves = u.drm_actions(|a| matches!(a, DrmAction::BalanceWork { .. }));
    let thread_moves = u.drm_actions(|a| matches!(a, DrmAction::BalanceThread { .. }));
    let mut values = named(&[
        ("sampler.sample_s", r.sample_s / n),
        ("sampler.edges", r.edges / n),
        ("sampler.input_rows", r.input_rows / n),
        ("graph.gather_s", r.gather_s / n),
        ("graph.gather_bytes", r.gather_bytes / n),
        ("tensor.round_trip_s", r.round_trip_s / n),
        ("tensor.round_trip_bytes", r.round_trip_bytes / n),
        ("gnn.forward_s", r.forward_s / n),
        ("gnn.backward_s", (r.train_step_s - r.forward_s) / n),
        ("gnn.train_step_s", r.train_step_s / n),
        ("gnn.agg_edges", r.agg_edges / n),
        ("tensor.gemm_flops", r.gemm_flops / n),
        ("tensor.loss_s", r.loss_s / n),
        (
            "gnn.layer0_input_grad_s",
            (r.gemm_nt_s[0] + r.agg_bwd_s[0]) / n,
        ),
        ("gnn.unattributed_s", (r.train_step_s - r.kernel_s()) / n),
        ("core.all_reduce_s", r.all_reduce_s / n),
        ("core.all_reduce_bytes", r.all_reduce_bytes / n),
        ("core.optimizer_s", r.optimizer_s / n),
        ("core.trainer_imbalance", r.imbalance / n),
        ("core.drm_work_moves", work_moves as f64 / trained),
        ("core.drm_thread_moves", thread_moves as f64 / trained),
        (
            "core.prefetch_restarts",
            u.prefetch_restarts() as f64 / trained,
        ),
        ("core.overlap_factor", r.busy_s() / n / untraced_iter_s),
        (
            "core.producer_wait_s",
            (untraced_iter_s - on_consumer / n).max(0.0),
        ),
        ("trace.coverage", r.busy_s() / r.wall_s),
        (
            "trace.replay_gap",
            r.wall_s / n / reference.iter_wall_s - 1.0,
        ),
    ]);
    for (prefix, times) in [
        ("gnn.agg_fwd_s", &r.agg_fwd_s),
        ("gnn.agg_bwd_s", &r.agg_bwd_s),
        ("tensor.gemm_nn_s", &r.gemm_nn_s),
        ("tensor.gemm_tn_s", &r.gemm_tn_s),
        ("tensor.gemm_nt_s", &r.gemm_nt_s),
    ] {
        for (l, t) in times.iter().enumerate() {
            values.push((format!("{prefix}.l{l}"), t / n));
        }
    }
    by_spec(PER_LAYER, values)
}

/// The result object on one line, as the last line of stdout carries it.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable (the benchmark runs on Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status lists VmHWM in kB");
    kib / 1024.0
}
