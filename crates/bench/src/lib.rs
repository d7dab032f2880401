//! Benchmark harness utilities shared by the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper; the binary's name says which (`fig08_perf_model` is Fig. 8,
//! `tab02_platforms` is Table II). The heavy lifting here is
//! [`simulate_epoch`]: a timing-only run of the HyScale-GNN system —
//! design-time mapping from the performance model, then the DRM loop
//! over runtime-fidelity stage times until the mapping settles, exactly
//! what the functional executor does minus the f32 math.

#![warn(missing_docs)]

use hyscale_core::drm::DrmEngine;
use hyscale_core::{PerfModel, StageTimes, SystemConfig, ThreadAlloc, WorkloadSplit};
use hyscale_device::calib;
use hyscale_graph::DatasetSpec;

/// Result of a timing-only system simulation.
pub struct SimulatedRun {
    /// Steady-state iteration latency (after DRM settles), seconds.
    pub iter_time_s: f64,
    /// Full-scale epoch time, seconds.
    pub epoch_time_s: f64,
    /// Full-scale iterations per epoch.
    pub iterations: u64,
    /// Final workload split.
    pub split: WorkloadSplit,
    /// Final thread allocation.
    pub threads: ThreadAlloc,
    /// Final stage times.
    pub times: StageTimes,
    /// Training throughput in MTEPS (Eq. 5).
    pub mteps: f64,
}

/// Simulate an epoch of the configured system on `dataset`:
/// design-time initial mapping, `drm_iters` iterations of runtime DRM
/// fine-tuning over overhead-inclusive stage times, then extrapolation
/// to the full-scale iteration count (plus pipeline fill/flush when TFP
/// is on).
pub fn simulate_epoch(cfg: &SystemConfig, dataset: &DatasetSpec, drm_iters: usize) -> SimulatedRun {
    let pm = PerfModel::new(cfg);
    let (mut split, mut threads) = pm.initial_mapping(dataset);
    let drm = DrmEngine::new(cfg.opt.hybrid);
    let objective = |t: &StageTimes| {
        if cfg.opt.tfp {
            t.pipelined_iteration()
        } else {
            t.serial_iteration()
        }
    };
    let mut times = pm.stage_times_runtime(dataset, &split, &threads);
    if cfg.opt.drm {
        // The DRM engine explores; keep the best mapping it visits (the
        // steady state the runtime settles into).
        let mut best = (objective(&times), split.clone(), threads, times);
        for _ in 0..drm_iters {
            drm.adjust(&times, &mut split, &mut threads);
            times = pm.stage_times_runtime(dataset, &split, &threads);
            let obj = objective(&times);
            if obj < best.0 {
                best = (obj, split.clone(), threads, times);
            }
        }
        split = best.1;
        threads = best.2;
        times = best.3;
    }
    let iter_time = objective(&times);
    let iterations = dataset.train_vertices.div_ceil(split.total as u64);
    let flush = if cfg.opt.tfp {
        calib::PIPELINE_FLUSH_ITERS * iter_time
    } else {
        0.0
    };
    let epoch = iterations as f64 * iter_time + flush;
    // Eq. 5 numerator: edges traversed per iteration
    let edges: u64 = {
        let cpu = pm.analytic_workload(dataset, split.cpu_quota);
        let accel: u64 = (0..split.num_accelerators)
            .map(|i| {
                pm.analytic_workload(dataset, split.accel_quota(i))
                    .total_edges()
            })
            .sum();
        cpu.total_edges() + accel
    };
    SimulatedRun {
        iter_time_s: iter_time,
        epoch_time_s: epoch,
        iterations,
        split,
        threads,
        times,
        mteps: edges as f64 / iter_time / 1e6,
    }
}

/// Default DRM settling budget for harness runs.
pub const DRM_SETTLE_ITERS: usize = 40;

/// Fixed-width table printer for harness output.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with per-column padding.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Geometric mean of a slice of positive ratios.
pub fn geo_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_core::config::AcceleratorKind;
    use hyscale_gnn::GnnKind;
    use hyscale_graph::dataset::OGBN_PAPERS100M;

    #[test]
    fn simulate_epoch_produces_settled_run() {
        let cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        let run = simulate_epoch(&cfg, &OGBN_PAPERS100M, DRM_SETTLE_ITERS);
        assert!(run.iter_time_s > 0.0);
        assert!(run.epoch_time_s > run.iter_time_s);
        assert!(run.mteps > 0.0);
        assert_eq!(run.split.quotas().iter().sum::<usize>(), run.split.total);
    }

    #[test]
    fn fpga_beats_gpu_system_in_simulation() {
        let fpga = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        let gpu = SystemConfig::paper_default(AcceleratorKind::a5000(), GnnKind::Gcn);
        let f = simulate_epoch(&fpga, &OGBN_PAPERS100M, DRM_SETTLE_ITERS);
        let g = simulate_epoch(&gpu, &OGBN_PAPERS100M, DRM_SETTLE_ITERS);
        let ratio = g.epoch_time_s / f.epoch_time_s;
        assert!(
            (1.5..15.0).contains(&ratio),
            "CPU-FPGA/CPU-GPU epoch ratio {ratio:.2}"
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "metric"]);
        t.row(vec!["x".into(), "1.00".into()]);
        let s = t.render();
        assert!(s.contains("metric"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn geo_mean_basic() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
