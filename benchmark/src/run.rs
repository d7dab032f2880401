//! The untraced run behind the end-to-end metrics, and the checks that
//! its training was correct.
//!
//! Set-up (dataset synthesis plus `HybridTrainer::new`) repeats
//! [`SETUP_REPEATS`] times. One warm-up epoch follows, then whole
//! epochs until the requested seconds of measured epochs have passed.
//! Each `train_epoch` call is timed from outside.

use crate::workload::Workload;
use hyscale_core::drm::DrmAction;
use hyscale_core::{EpochReport, HybridTrainer, PerfModel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Epochs trained before measuring: the first epoch fills the buffer
/// pools and touches the feature pages.
pub const WARMUP_EPOCHS: usize = 1;
/// Epochs after which the weights digest and `sim_epoch_s` are read: a
/// fixed point, so both are deterministic per seed however long the
/// run measures.
pub const CHECK_EPOCHS: usize = 1;
/// Fewest measured epochs, however short the run.
pub const MIN_MEASURED_EPOCHS: usize = 2;

/// Training iterations this process has started (untraced run,
/// reference run and replay): the run's `attempted` count, readable
/// even after a panic.
pub static ATTEMPTED: AtomicUsize = AtomicUsize::new(0);

/// What the untraced run recorded.
pub struct Untraced {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// CPU trainer quota of the design-time mapping.
    pub initial_cpu_quota: usize,
    /// Seeds per iteration over all trainers.
    pub total_batch: usize,
    /// Every epoch's report, warm-up first.
    pub epochs: Vec<EpochReport>,
    /// Host wall seconds of each `train_epoch` call.
    pub epoch_wall_s: Vec<f64>,
    /// Digest of the weights after [`CHECK_EPOCHS`] epochs.
    pub digest: u64,
}

impl Untraced {
    /// Wall seconds of the measured epochs.
    pub fn measured_wall_s(&self) -> &[f64] {
        &self.epoch_wall_s[WARMUP_EPOCHS..]
    }

    fn measured_iters(&self) -> usize {
        self.epochs[WARMUP_EPOCHS..]
            .iter()
            .map(|e| e.functional_iters)
            .sum()
    }

    /// Seeds trained per host second over the measured epochs.
    pub fn seeds_per_s(&self) -> f64 {
        (self.measured_iters() * self.total_batch) as f64
            / self.measured_wall_s().iter().sum::<f64>()
    }

    /// Mean host wall seconds of one measured iteration.
    pub fn iter_wall_s(&self) -> f64 {
        self.measured_wall_s().iter().sum::<f64>() / self.measured_iters() as f64
    }

    /// The report of the epoch the deterministic figures are read from.
    pub fn check_epoch(&self) -> &EpochReport {
        &self.epochs[CHECK_EPOCHS - 1]
    }

    /// Iterations trained over all epochs.
    pub fn iterations(&self) -> usize {
        self.epochs.iter().map(|e| e.functional_iters).sum()
    }

    /// Iterations, over all epochs, after which DRM took an action
    /// `matches` accepts.
    pub fn drm_actions(&self, matches: impl Fn(&DrmAction) -> bool) -> usize {
        self.epochs
            .iter()
            .flat_map(|e| &e.trace)
            .filter(|t| matches(&t.drm_action))
            .count()
    }

    /// Producer restarts over all epochs.
    pub fn prefetch_restarts(&self) -> usize {
        self.epochs.iter().map(|e| e.prefetch_restarts).sum()
    }

    /// The CPU trainer quota each iteration trained under, in order: the
    /// design-time mapping first, then whatever DRM left after the
    /// iteration before (a report records the quota after its decision).
    pub fn quota_schedule(&self) -> Vec<usize> {
        let mut schedule = vec![self.initial_cpu_quota];
        schedule.extend(
            self.epochs
                .iter()
                .flat_map(|e| e.trace.iter().map(|t| t.cpu_quota)),
        );
        schedule.pop();
        schedule
    }

    /// Every iteration's loss, in training order.
    pub fn losses(&self) -> Vec<f32> {
        self.epochs
            .iter()
            .flat_map(|e| e.trace.iter().map(|t| t.loss))
            .collect()
    }
}

/// Set up `w`, warm up, and train whole epochs until `seconds` of
/// measured epochs have passed.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Untraced {
    let cfg = w.config(seed);
    let initial_cpu_quota = PerfModel::new(&cfg).initial_mapping(&w.spec).0.cpu_quota;
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut trainer = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous copy first, so peak memory holds one dataset.
        drop(trainer.take());
        let start = Instant::now();
        trainer = Some(HybridTrainer::new(cfg.clone(), w.dataset(seed)));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut trainer = trainer.expect("SETUP_REPEATS is positive");

    let mut epochs = Vec::new();
    let mut epoch_wall_s = Vec::new();
    let mut digest = 0;
    loop {
        ATTEMPTED.fetch_add(w.iters_per_epoch, Ordering::SeqCst);
        let start = Instant::now();
        let report = trainer.train_epoch();
        epoch_wall_s.push(start.elapsed().as_secs_f64());
        epochs.push(report);
        if epochs.len() == CHECK_EPOCHS {
            digest = params_digest(&trainer.model().flatten_params());
        }
        let measured = &epoch_wall_s[WARMUP_EPOCHS.min(epoch_wall_s.len())..];
        if epochs.len() >= CHECK_EPOCHS
            && measured.len() >= MIN_MEASURED_EPOCHS
            && measured.iter().sum::<f64>() >= seconds
        {
            break;
        }
    }
    Untraced {
        setup_s,
        initial_cpu_quota,
        total_batch: cfg.total_batch(),
        epochs,
        epoch_wall_s,
        digest,
    }
}

/// What the reference run, `w`'s serial twin trained from scratch for
/// [`CHECK_EPOCHS`] epochs, recorded.
pub struct Reference {
    /// Digest of its weights. It equals the run's own digest exactly
    /// when training repeats bit for bit and prefetching changes no bit.
    pub digest: u64,
    /// Mean host wall seconds of one of its iterations: the batches of
    /// the first [`CHECK_EPOCHS`] epochs with every stage inline, as
    /// the replay trains them.
    pub iter_wall_s: f64,
}

/// Train `w`'s serial twin from scratch for [`CHECK_EPOCHS`] epochs.
pub fn reference(w: &Workload, seed: u64) -> Reference {
    let serial = w.serial();
    let mut trainer = HybridTrainer::new(serial.config(seed), serial.dataset(seed));
    let mut wall_s = 0.0;
    let mut iters = 0;
    for _ in 0..CHECK_EPOCHS {
        ATTEMPTED.fetch_add(serial.iters_per_epoch, Ordering::SeqCst);
        let start = Instant::now();
        iters += trainer.train_epoch().functional_iters;
        wall_s += start.elapsed().as_secs_f64();
    }
    Reference {
        digest: params_digest(&trainer.model().flatten_params()),
        iter_wall_s: wall_s / iters as f64,
    }
}

/// FNV-1a over the parameters' bit patterns: any bitwise difference
/// shows.
pub fn params_digest(params: &[f32]) -> u64 {
    params
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The correctness checks of an untraced run, one message per failure:
/// every epoch trained all its iterations, every loss is finite, the
/// last loss is below the first, and the weights digest matches the
/// serial reference.
pub fn check(w: &Workload, u: &Untraced, reference: &Reference) -> Vec<String> {
    let mut failures = Vec::new();
    for e in &u.epochs {
        if e.functional_iters != w.iters_per_epoch {
            failures.push(format!(
                "epoch {} trained {} of {} iterations",
                e.epoch, e.functional_iters, w.iters_per_epoch
            ));
        }
    }
    let losses = u.losses();
    if let Some(bad) = losses.iter().find(|l| !l.is_finite()) {
        failures.push(format!("non-finite loss {bad}"));
    }
    match (losses.first(), losses.last()) {
        (Some(first), Some(last)) if last < first => {}
        (first, last) => {
            failures.push(format!("loss did not fall: first {first:?}, last {last:?}"))
        }
    }
    if u.digest != reference.digest {
        failures.push(format!(
            "weights digest {:016x} differs from the serial reference {:016x}",
            u.digest, reference.digest
        ));
    }
    failures
}
