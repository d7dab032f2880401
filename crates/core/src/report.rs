//! Training reports: per-iteration traces and per-epoch summaries.
//!
//! Two timing layers appear side by side: the *simulated* stage times
//! from the device models ([`StageTimes`], what the paper-reproduction
//! figures use) and the *measured* host wall-clock per stage
//! ([`WallStageTimes`], what the real prefetching pipeline actually
//! achieves on this machine).

use crate::drm::{DrmAction, ThreadAlloc};
use crate::stages::StageTimes;

/// Measured host wall-clock seconds per pipeline stage for one
/// iteration (or, in an [`EpochReport`], the per-iteration mean).
///
/// Under prefetching (`prefetch_depth > 0`) the producer stages
/// (`sample`/`load`) run on a background thread overlapped with
/// propagation, so `iter_s` approaches the slowest side rather than
/// the sum — compare [`WallStageTimes::serial_sum`] with `iter_s` to see
/// the realized overlap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallStageTimes {
    /// Mini-batch sampling (producer side).
    pub sample_s: f64,
    /// Feature gathering from CPU memory (producer side).
    pub load_s: f64,
    /// GNN propagation + synchronization + weight update (consumer side).
    pub train_s: f64,
    /// End-to-end iteration wall-clock on the consumer thread.
    pub iter_s: f64,
    /// The worker-pool widths the producer prepared this iteration
    /// under — the [`ThreadAlloc`] actually observed by the dispatches
    /// behind `sample_s`/`load_s`. A DRM `balance_thread`
    /// move shows up here as a shift in the recorded widths (the
    /// all-zero default means "unrecorded").
    pub threads: ThreadAlloc,
}

impl WallStageTimes {
    /// What the iteration would cost with no overlap at all.
    pub fn serial_sum(&self) -> f64 {
        self.sample_s + self.load_s + self.train_s
    }

    /// Realized overlap factor: serial cost over measured wall
    /// (`1.0` = fully serial, larger = pipelined). Returns 1.0 when the
    /// iteration time is unmeasured/zero.
    pub fn overlap_factor(&self) -> f64 {
        if self.iter_s > 0.0 {
            self.serial_sum() / self.iter_s
        } else {
            1.0
        }
    }

    /// Element-wise mean over a set of per-iteration measurements.
    pub fn mean_of<'a>(times: impl Iterator<Item = &'a WallStageTimes>) -> WallStageTimes {
        let mut acc = WallStageTimes::default();
        let mut n = 0usize;
        for t in times {
            acc.sample_s += t.sample_s;
            acc.load_s += t.load_s;
            acc.train_s += t.train_s;
            acc.iter_s += t.iter_s;
            // widths don't average meaningfully: keep the settled
            // (last-observed) allocation
            acc.threads = t.threads;
            n += 1;
        }
        if n > 0 {
            let inv = 1.0 / n as f64;
            acc.sample_s *= inv;
            acc.load_s *= inv;
            acc.train_s *= inv;
            acc.iter_s *= inv;
        }
        acc
    }
}

/// One iteration's record.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Iteration index within the epoch.
    pub iter: usize,
    /// Simulated stage times.
    pub times: StageTimes,
    /// Simulated iteration latency (pipelined or serial per config).
    pub iter_time_s: f64,
    /// Mean training loss across trainers (batch-weighted).
    pub loss: f32,
    /// Mean training accuracy across trainers (batch-weighted).
    pub accuracy: f32,
    /// CPU trainer seed quota at this iteration.
    pub cpu_quota: usize,
    /// DRM decision taken after this iteration.
    pub drm_action: DrmAction,
    /// Throughput in MTEPS (Eq. 5) for this iteration.
    pub mteps: f64,
    /// Measured host wall-clock per stage.
    pub wall: WallStageTimes,
}

/// One epoch's summary.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: u64,
    /// Simulated epoch time extrapolated to the full-scale dataset
    /// (iterations × mean iteration time + pipeline fill/flush).
    pub epoch_time_s: f64,
    /// Mean simulated iteration latency.
    pub mean_iter_time_s: f64,
    /// Full-scale iterations per epoch.
    pub full_scale_iters: u64,
    /// Functional iterations actually executed.
    pub functional_iters: usize,
    /// Final training loss of the epoch.
    pub loss: f32,
    /// Final training accuracy of the epoch.
    pub accuracy: f32,
    /// Mean throughput in MTEPS.
    pub mteps: f64,
    /// Host wall-clock seconds spent on the functional work.
    pub wall_s: f64,
    /// Mean measured host wall-clock per stage across the epoch's
    /// iterations.
    pub wall_stages: WallStageTimes,
    /// Task-level Feature Prefetching depth this epoch executed with
    /// (`0` = fully serial stages).
    pub prefetch_depth: usize,
    /// Always 0: the producer plans each DRM decision itself, so no
    /// prepared iteration is ever discarded and the producer never
    /// restarts. Kept for readers of earlier reports.
    pub prefetch_restarts: usize,
    /// Per-iteration traces.
    pub trace: Vec<IterationReport>,
}

impl EpochReport {
    /// Fixed-width summary line for harness output.
    pub fn summary_line(&self) -> String {
        format!(
            "epoch {:>3}  sim {:>9.3}s  iter {:>8.4}s  loss {:>7.4}  acc {:>6.3}  {:>9.1} MTEPS",
            self.epoch,
            self.epoch_time_s,
            self.mean_iter_time_s,
            self.loss,
            self.accuracy,
            self.mteps
        )
    }
}

impl std::fmt::Display for EpochReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.summary_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_formats() {
        let r = EpochReport {
            epoch: 2,
            epoch_time_s: 1.5,
            mean_iter_time_s: 0.005,
            full_scale_iters: 300,
            functional_iters: 8,
            loss: 1.23,
            accuracy: 0.78,
            mteps: 123.4,
            wall_s: 0.9,
            wall_stages: WallStageTimes::default(),
            prefetch_depth: 2,
            prefetch_restarts: 0,
            trace: Vec::new(),
        };
        let line = r.summary_line();
        assert!(line.contains("epoch   2"));
        assert!(line.contains("1.230"));
        assert!(line.contains("MTEPS"));
        assert_eq!(format!("{r}"), line);
    }

    #[test]
    fn wall_stage_means_and_overlap() {
        let a = WallStageTimes {
            sample_s: 1.0,
            load_s: 2.0,
            train_s: 4.0,
            iter_s: 4.0,
            ..Default::default()
        };
        let b = WallStageTimes {
            sample_s: 3.0,
            load_s: 4.0,
            train_s: 6.0,
            iter_s: 6.0,
            threads: ThreadAlloc {
                sampler: 2,
                loader: 3,
                trainer: 5,
            },
        };
        let b_threads = b.threads;
        let m = WallStageTimes::mean_of([a, b].iter());
        assert_eq!(m.sample_s, 2.0);
        assert_eq!(m.train_s, 5.0);
        // widths keep the settled (last-observed) allocation
        assert_eq!(m.threads, b_threads);
        assert_eq!(m.iter_s, 5.0);
        assert!((m.serial_sum() - 10.0).abs() < 1e-12);
        assert!((m.overlap_factor() - 2.0).abs() < 1e-12);
        assert_eq!(WallStageTimes::default().overlap_factor(), 1.0);
        assert_eq!(
            WallStageTimes::mean_of([].iter()),
            WallStageTimes::default()
        );
    }
}
