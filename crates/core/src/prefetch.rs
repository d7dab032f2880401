//! Task-level Feature Prefetching — the *real* pipeline.
//!
//! The paper's headline optimization (§IV-B, Fig. 7) overlaps the
//! CPU-side producer stages — Mini-batch Sampling and Feature Loading,
//! whose accelerator batches arrive at wire precision — with GNN
//! Propagation. [`crate::pipeline`] *simulates* that overlap with a
//! discrete-event model; this module *executes* it: a background
//! producer walks the epoch's batch plan, prepares iterations, and
//! feeds them through a bounded channel of depth `d`
//! (`TrainConfig::prefetch_depth`) to the consuming trainer.
//!
//! ## One producer thread, staging rings, and the wire view
//!
//! The producer is one thread: **sample → take staging slots → gather
//! → queue**. Accelerator trainers' feature rows are gathered straight
//! from the accelerator-side feature view ([`PrepareCtx::accel_features`],
//! a [`WireFeatures`] built once per trainer in `HybridTrainer::new`),
//! so a gathered accelerator batch already holds the wire-precision
//! values the §VIII quantized transfer would deliver; the CPU trainer
//! gathers from host memory. The round-trip commutes with the gather
//! bit for bit (see `hyscale_tensor::quant`), so no per-iteration wire
//! work is left on the host.
//!
//! Each accelerator owns a [`StagingRing`] of
//! `TrainConfig::staging_ring_depth` slots. Before gathering an
//! iteration the producer takes one slot per accelerator batch, and the
//! consumer frees it by dropping the batch's [`SlotToken`] after
//! propagation. A batch is gathered into the slot it holds, so a
//! producer waiting for a slot holds no gathered features. At ring depth 2 the producer can stage batch `i+1`
//! while batch `i` computes (double buffering); at ring depth 1 it
//! waits for batch `i`'s propagation first, exactly like the
//! `ring_depth = 1` case of `hyscale_device::stage::StagingModel` and
//! [`crate::pipeline::simulate_pipeline_ringed`].
//!
//! ## Determinism contract
//!
//! A prepared iteration is a pure function of `(epoch_order, epoch,
//! iter, quotas)`: seed slicing comes from
//! [`EpochBatcher::plan`](hyscale_sampler::EpochBatcher) and every
//! sampler draw is keyed by `(seed, epoch, iter, trainer)` streams, so a
//! batch prepared three iterations ahead on a worker thread is
//! bitwise-identical to one prepared inline, and staging rings only
//! re-time when a prepared batch is handed over.
//! The one hazard is the DRM engine re-balancing `quotas` mid-epoch:
//! prepared iterations carry the quotas *and the quota epoch* (re-map
//! generation counter) they were built under, so a straggler from an
//! outdated plan is rejected at receive time rather than globally
//! flushed. Invalidation itself is **surgical and coalesced**
//! ([`IterationFeed::invalidate`]): a burst of `balance_work` events is
//! folded into one re-slice against the final quotas, which re-slices
//! only the trainers whose seed slice actually moved — settled
//! trainers keep their queued batches, pooled matrices, and staging
//! slots — and drains only the rings of changed lanes; a zero-diff
//! re-map (including a burst that cancels out) is a no-op, and only
//! missed-event recovery pays the full flush (`drain_all`).
//! `tests/equivalence.rs` and the randomized DRM-schedule harness in
//! `tests/proptest_invariants.rs` pin weights bitwise across prefetch
//! depths {0, 1, 2, 4} × ring depths {1, 2} × wire precisions
//! {F32, Int8}, including across re-mapping events.
//!
//! ## Allocation discipline
//!
//! Producer buffers are recycled by trainer role, at every point where
//! an iteration's batches end — after propagation, or discarded by a
//! re-map, a re-slice or teardown:
//!
//! * a feature matrix goes back with ring-aware reuse: an accelerator
//!   batch's buffer to that accelerator's [`StagingRing`] free list (so
//!   each accelerator re-gathers into the buffer it last used), the CPU
//!   trainer's to the shared [`MatrixPool`];
//! * a sampled [`MiniBatch`] goes back to its trainer's free list in the
//!   [`MatrixPool`], and the next sampling refills it in place
//!   ([`NeighborSampler::sample_into`]). The sampler's scratch (its
//!   remap table and draw buffers) is pooled across roles, one per
//!   sampling thread; each pooled scratch grows to the largest batch.
//!
//! No feature matrix or mini-batch grows to another role's batch size,
//! and steady-state iterations allocate no feature matrices and no
//! sampler memory.
//!
//! ## Thread budget (DRM `balance_thread`)
//!
//! The producer runs each stage as one dispatch on the shared
//! [`StageWorkers`] pools. Sampling hands the trainers' batches out one
//! at a time, in trainer order, to the sampler pool's threads, so the
//! CPU trainer's large batch starts first and the others fill in around
//! it. Loading gathers all trainers' rows as one concatenated range,
//! split by row count across the loader pool and sharded across the
//! feature matrix's NUMA row domains. A DRM `balance_thread` move
//! re-sizes the pools in place ([`IterationFeed::rebalance_threads`]);
//! widths only change wall-clock, so the queue keeps its prepared
//! iterations, staging rings keep their occupied slots, and each
//! [`PreparedIteration`] records the [`ThreadAlloc`] it was built under
//! so traces show the shift land.

use crate::drm::{QuotaDiff, ThreadAlloc};
use crate::stages::StageWorkers;
use hyscale_graph::features::{gather_jobs_numa_into, GatherJob};
use hyscale_graph::Dataset;
use hyscale_sampler::{EpochBatcher, MiniBatch, NeighborSampler, SampleScratch};
use hyscale_tensor::quant::WireFeatures;
use hyscale_tensor::Matrix;
use parking_lot::{Condvar, Mutex};
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A recycling pool of producer buffers shared between the producer
/// thread and the consuming trainer: feature matrices (one shared free
/// list), sampled mini-batches (one free list per trainer, so each
/// trainer's sampling refills buffers already sized to its own batch),
/// and sampler scratch (one per sampling thread that has run at once).
///
/// ```
/// use hyscale_core::MatrixPool;
///
/// let pool = MatrixPool::new();
/// let mut x = pool.acquire();      // arbitrary shape — overwrite before reading
/// x.resize(128, 16);
/// pool.release(x);                 // back to the pool after propagation
/// assert_eq!(pool.idle(), 1);
/// assert_eq!(pool.acquire().shape(), (128, 16)); // allocation reused
/// ```
#[derive(Default)]
pub struct MatrixPool {
    free: Mutex<Vec<Matrix>>,
    /// Indexed by trainer.
    batches: Mutex<Vec<Vec<MiniBatch>>>,
    scratch: Mutex<Vec<SampleScratch>>,
}

impl MatrixPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a buffer (arbitrary shape/contents) or mint an empty one.
    /// Callers must `resize`/overwrite before reading — `gather_features_into`
    /// does both.
    pub fn acquire(&self) -> Matrix {
        self.free
            .lock()
            .pop()
            .unwrap_or_else(|| Matrix::uninit(0, 0))
    }

    /// Return a buffer for reuse.
    pub fn release(&self, m: Matrix) {
        self.free.lock().push(m);
    }

    /// Number of buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }

    /// A returned mini-batch of trainer `trainer`'s role, or an empty
    /// one. Its contents are stale: refill it with
    /// `NeighborSampler::sample_into`.
    pub(crate) fn take_batch(&self, trainer: usize) -> MiniBatch {
        self.batches
            .lock()
            .get_mut(trainer)
            .and_then(Vec::pop)
            .unwrap_or_default()
    }

    /// Return trainer `trainer`'s mini-batch for its role's next sampling.
    pub(crate) fn release_batch(&self, trainer: usize, batch: MiniBatch) {
        let mut roles = self.batches.lock();
        if roles.len() <= trainer {
            roles.resize_with(trainer + 1, Vec::new);
        }
        roles[trainer].push(batch);
    }

    /// Mini-batches currently idle in trainer `trainer`'s role.
    #[cfg(test)]
    pub(crate) fn idle_batches(&self, trainer: usize) -> usize {
        self.batches.lock().get(trainer).map_or(0, Vec::len)
    }

    /// A returned sampler scratch, or an empty one. Scratch is shared by
    /// all roles, one per sampling thread that has run at once. Any
    /// scratch may serve the largest batch, so over time each grows to
    /// that batch's size.
    fn take_scratch(&self) -> SampleScratch {
        self.scratch.lock().pop().unwrap_or_default()
    }

    fn release_scratch(&self, scratch: SampleScratch) {
        self.scratch.lock().push(scratch);
    }
}

/// One accelerator's device-side staging buffer, modeled as a bounded
/// slot counter plus a lane-local free list of recycled feature buffers.
///
/// A slot is *occupied* from the moment the producer starts gathering a
/// batch into it until the consumer finishes that batch's propagation
/// (and drops its [`SlotToken`]). With `depth = 2` the ring is a classic
/// double buffer: while the accelerator computes on batch `i`'s slot,
/// batch `i+1` is staged into the second slot. With `depth = 1` there
/// is nowhere to stage ahead, so staging and compute serialize.
///
/// ```
/// use hyscale_core::prefetch::StagingRing;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let ring = StagingRing::new(2);           // double buffer
/// let stop = AtomicBool::new(false);
/// assert!(ring.acquire(&stop));             // batch i staged
/// assert!(ring.acquire(&stop));             // batch i+1 staged while i computes
/// assert_eq!(ring.in_flight(), 2);
/// stop.store(true, Ordering::Release);
/// assert!(!ring.acquire(&stop));            // full ring + stop: refuse, don't block
/// ring.release_slot();                      // batch i propagation done
/// assert_eq!(ring.in_flight(), 1);
/// ```
pub struct StagingRing {
    depth: usize,
    state: Mutex<RingState>,
    cv: Condvar,
    drains: AtomicUsize,
}

#[derive(Default)]
struct RingState {
    in_flight: usize,
    free: Vec<Matrix>,
}

impl StagingRing {
    /// A ring of `depth` staging slots (clamped ≥ 1).
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            state: Mutex::new(RingState::default()),
            cv: Condvar::new(),
            drains: AtomicUsize::new(0),
        }
    }

    /// Number of staging slots.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Slots currently occupied by a staged or computing batch.
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight
    }

    /// Times this ring has been drained by a DRM re-mapping event.
    pub fn drains(&self) -> usize {
        self.drains.load(Ordering::Relaxed)
    }

    /// Occupy a slot, blocking while the ring is full. Returns `false`
    /// (without occupying) once `stop` is raised — a producer being shut
    /// down must not wedge on a slot that will never free.
    pub fn acquire(&self, stop: &AtomicBool) -> bool {
        let mut st = self.state.lock();
        loop {
            if stop.load(Ordering::Acquire) {
                return false;
            }
            if st.in_flight < self.depth {
                st.in_flight += 1;
                return true;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Occupy a slot only if one is free right now — never blocks.
    /// This is the salvage path's acquire: while the consumer re-slices
    /// queued iterations there is no producer running to free slots, so
    /// blocking here could deadlock; a newly-activated lane that cannot
    /// stage immediately makes the iteration unsalvageable instead.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        if st.in_flight < self.depth {
            st.in_flight += 1;
            true
        } else {
            false
        }
    }

    /// Free a slot (the batch's propagation completed, or it was
    /// abandoned) and wake a producer blocked on a full ring.
    pub fn release_slot(&self) {
        {
            let mut st = self.state.lock();
            st.in_flight = st.in_flight.saturating_sub(1);
        }
        self.cv.notify_all();
    }

    /// Take a lane-local recycled buffer, if any.
    pub fn take_buffer(&self) -> Option<Matrix> {
        self.state.lock().free.pop()
    }

    /// Return a buffer to this lane's free list for ring-aware reuse.
    pub fn put_buffer(&self, m: Matrix) {
        self.state.lock().free.push(m);
    }

    /// Record a DRM drain event (the staged batches this lane held
    /// were discarded or re-sliced by a re-mapping that moved this
    /// lane's share). Buffers stay on the free list — a drain
    /// invalidates *contents*, not allocations.
    fn drain(&self) {
        self.drains.fetch_add(1, Ordering::Relaxed);
        self.interrupt();
    }

    /// Wake any waiter so it can observe a raised stop flag. The notify
    /// happens *under the state mutex*: `acquire` checks the stop flag
    /// and parks while holding that lock, so an unlocked notify could
    /// slot between its check and its park and be lost — leaving the
    /// producer asleep on a ring whose slots will never free (the
    /// shutdown path joins that very thread).
    fn interrupt(&self) {
        let _guard = self.state.lock();
        self.cv.notify_all();
    }
}

/// The per-accelerator staging rings of one trainer instance (shared by
/// the producer, the executor, and the DRM drain path).
pub struct StagingRings {
    rings: Vec<StagingRing>,
    depth: usize,
}

impl StagingRings {
    /// One ring of `depth` slots per accelerator.
    pub fn new(num_accelerators: usize, depth: usize) -> Self {
        let depth = depth.max(1);
        Self {
            rings: (0..num_accelerators)
                .map(|_| StagingRing::new(depth))
                .collect(),
            depth,
        }
    }

    /// Number of accelerator lanes.
    pub fn num_rings(&self) -> usize {
        self.rings.len()
    }

    /// Slots per ring.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Accelerator `a`'s ring.
    ///
    /// # Panics
    /// If `a >= num_rings()`.
    pub fn ring(&self, a: usize) -> &StagingRing {
        &self.rings[a]
    }

    /// Total occupied slots across all rings.
    pub fn in_flight_total(&self) -> usize {
        self.rings.iter().map(StagingRing::in_flight).sum()
    }

    /// Total DRM drain events across all rings.
    pub fn drains_total(&self) -> usize {
        self.rings.iter().map(StagingRing::drains).sum()
    }

    /// Record a full re-map drain on every ring. This survives only for
    /// `set_mapping`-style full re-maps (and the missed-event recovery
    /// path): a surgical `balance_work` drains per lane via
    /// [`drain_lanes`](Self::drain_lanes) instead.
    pub(crate) fn drain_all(&self) {
        for r in &self.rings {
            r.drain();
        }
    }

    /// Record a DRM `balance_work` drain on exactly the lanes whose
    /// quota share moved (`mask[a]` true). Untouched lanes keep their
    /// drain count — the pinned "surgical" invariant.
    pub(crate) fn drain_lanes(&self, mask: &[bool]) {
        for (r, &changed) in self.rings.iter().zip(mask) {
            if changed {
                r.drain();
            }
        }
    }

    /// Occupy a slot on ring `a` without blocking; `None` when the ring
    /// is full. Used by the salvage path when a re-map activates a lane
    /// that held no slot in the queued iteration.
    pub fn try_acquire_token(self: &Arc<Self>, a: usize) -> Option<SlotToken> {
        if self.rings[a].try_acquire() {
            Some(SlotToken {
                rings: Arc::clone(self),
                accel: a,
            })
        } else {
            None
        }
    }

    /// Wake every slot waiter (producer shutdown).
    fn interrupt_all(&self) {
        for r in &self.rings {
            r.interrupt();
        }
    }

    /// Occupy a slot on ring `a`, returning an RAII token that frees the
    /// slot on drop. `None` once `stop` is raised.
    pub fn acquire_token(self: &Arc<Self>, a: usize, stop: &AtomicBool) -> Option<SlotToken> {
        if self.rings[a].acquire(stop) {
            Some(SlotToken {
                rings: Arc::clone(self),
                accel: a,
            })
        } else {
            None
        }
    }
}

/// RAII occupancy of one staging slot: held from the moment a batch is
/// staged until its propagation completes; dropping the token frees the
/// slot and wakes the producer.
pub struct SlotToken {
    rings: Arc<StagingRings>,
    accel: usize,
}

impl SlotToken {
    /// The accelerator lane this token occupies a slot on.
    pub fn accel(&self) -> usize {
        self.accel
    }
}

impl Drop for SlotToken {
    fn drop(&mut self) {
        self.rings.ring(self.accel).release_slot();
    }
}

/// Everything the producer needs to prepare iterations without touching
/// the trainer's mutable state.
pub struct PrepareCtx {
    /// Shared dataset (graph + CPU-resident features + labels).
    pub dataset: Arc<Dataset>,
    /// Epoch seed scheduler (pure slicing; cheap clone of the trainer's).
    pub batcher: EpochBatcher,
    /// Seeded neighbor sampler (streams keyed per (epoch, iter, trainer)).
    pub sampler: NeighborSampler,
    /// The accelerator-side feature view: the dataset's feature matrix
    /// at the wire precision, built once per trainer. Accelerator
    /// batches are gathered from it; the CPU trainer reads host memory.
    pub accel_features: Arc<WireFeatures>,
    /// Whether trainer 0 is the CPU trainer (reads host memory directly,
    /// not the wire view).
    pub hybrid: bool,
    /// Live worker pools whose widths mirror the DRM's [`ThreadAlloc`].
    /// Shared with the executor: a `balance_thread` move re-sizes these
    /// in place and the producer observes the new widths on its next
    /// dispatch — no queue invalidation needed, because prepared
    /// iterations are bitwise-independent of pool widths.
    pub workers: Arc<StageWorkers>,
    /// NUMA domains of the CPU feature matrix (one per socket): the
    /// gather is sharded so each socket's rows are copied by that
    /// socket's share of the loader pool, weighted by the sampled rows'
    /// ownership histogram.
    pub numa_domains: usize,
    /// Per-accelerator staging rings: the producer takes a slot per
    /// accelerator batch, the executor frees it after propagation.
    pub rings: Arc<StagingRings>,
}

impl PrepareCtx {
    /// Accelerator (staging-ring) index serving trainer `trainer_idx`,
    /// or `None` for the CPU trainer (which, when hybrid, occupies
    /// trainer index 0 and never stages). The single source of truth
    /// for the trainer→lane mapping.
    pub(crate) fn accel_of(&self, trainer_idx: usize) -> Option<usize> {
        let offset = usize::from(self.hybrid);
        if trainer_idx >= offset && trainer_idx - offset < self.rings.num_rings() {
            Some(trainer_idx - offset)
        } else {
            None
        }
    }

    /// Sample one mini-batch per job `(trainer, seeds, stream)` into
    /// that trainer role's recycled batch: one dispatch on
    /// the sampler pool that hands out trainers one at a time, in order,
    /// so the largest batch (the CPU trainer's, first) starts at once and
    /// the other threads take the rest. Returns the batches in job order.
    fn sample_all(&self, jobs: &[(usize, &[u32], u64)], pool: &MatrixPool) -> Vec<MiniBatch> {
        self.workers.sampler().install(|| {
            jobs.par_iter()
                .map(|&(trainer, seeds, stream)| {
                    let mut batch = pool.take_batch(trainer);
                    let mut scratch = pool.take_scratch();
                    self.sampler.sample_into(
                        &self.dataset.graph,
                        seeds,
                        stream,
                        &mut batch,
                        &mut scratch,
                    );
                    pool.release_scratch(scratch);
                    batch
                })
                .collect()
        })
    }

    /// Gather each job `(trainer, input nodes, buffer)` into its buffer
    /// in one loader dispatch: all jobs' rows form one range, split by
    /// row count across the loader pool and sharded across the NUMA row
    /// domains of `X` with thread shares weighted by the rows' ownership
    /// histogram. Accelerator trainers read the wire view and the CPU
    /// trainer reads host memory, so accelerator batches arrive already
    /// at wire precision — bitwise what gathering and then round-tripping
    /// would give.
    fn gather_all(&self, jobs: &mut [(usize, &[u32], Matrix)]) {
        let mut gathers: Vec<GatherJob<'_>> = jobs
            .iter_mut()
            .map(|(trainer, indices, out)| GatherJob {
                wire: match self.accel_of(*trainer) {
                    Some(_) => self.accel_features.as_ref(),
                    None => &WireFeatures::Host,
                },
                out,
                indices,
            })
            .collect();
        gather_jobs_numa_into(
            &mut gathers,
            &self.dataset.data.features,
            self.numa_domains,
            self.workers.loader(),
        );
    }

    /// Return trainer `idx`'s feature buffer for reuse: an accelerator's
    /// to its ring's free list, the CPU trainer's to the shared pool. A
    /// buffer thus keeps serving one trainer role, and its capacity stays
    /// that role's size instead of growing to the largest batch any role
    /// has seen.
    pub(crate) fn release_buffer(&self, idx: usize, m: Matrix, pool: &MatrixPool) {
        match self.accel_of(idx) {
            Some(a) => self.rings.ring(a).put_buffer(m),
            None => pool.release(m),
        }
    }

    /// Discard an iteration: its buffers go back through
    /// [`release_buffer`](Self::release_buffer), its mini-batches to
    /// their roles in `pool`, its slots free on drop.
    fn recycle(&self, prep: PreparedIteration, pool: &MatrixPool) {
        for (idx, (m, batch)) in prep.features.into_iter().zip(prep.batches).enumerate() {
            if let Some(m) = m {
                self.release_buffer(idx, m, pool);
            }
            if let Some(batch) = batch {
                pool.release_batch(idx, batch);
            }
        }
    }

    /// A pooled buffer for trainer `idx`: its accelerator's ring free
    /// list first (lane-local reuse), then the shared pool.
    fn buffer(&self, idx: usize, pool: &MatrixPool) -> Matrix {
        self.accel_of(idx)
            .and_then(|a| self.rings.ring(a).take_buffer())
            .unwrap_or_else(|| pool.acquire())
    }
}

/// One fully-prepared training iteration: sampled mini-batches plus
/// gathered feature matrices (accelerator batches at wire precision),
/// with the producer-side wall-clock stage timings and the staging
/// slots the batch still occupies.
pub struct PreparedIteration {
    /// Iteration index within the epoch.
    pub iter: usize,
    /// The per-trainer seed quotas this iteration was prepared under —
    /// the consumer validates these against the live workload split.
    pub quotas: Vec<usize>,
    /// The quota epoch (re-map generation counter) this iteration was
    /// sliced under. [`IterationFeed`] bumps its counter on every
    /// re-map, so a batch prepared under an outdated plan is rejected
    /// at receive time by a counter compare — no global flush needed to
    /// defend against stragglers. Serial (inline) preparation always
    /// stamps 0.
    pub quota_epoch: u64,
    /// Per-trainer seed sets (empty for idle trainers).
    pub seed_sets: Vec<Vec<u32>>,
    /// Per-trainer sampled mini-batches (`None` for idle trainers).
    pub batches: Vec<Option<MiniBatch>>,
    /// Per-trainer gathered feature matrices, pool-backed.
    pub features: Vec<Option<Matrix>>,
    /// Wall-clock seconds spent sampling.
    pub sample_wall_s: f64,
    /// Wall-clock seconds of the loader dispatch (feature gathering).
    pub load_wall_s: f64,
    /// Staging slots this batch occupies, one per accelerator batch —
    /// released (by drop) when the consumer finishes propagation. Empty
    /// in serial execution, which stages nothing ahead.
    pub slots: Vec<SlotToken>,
    /// The worker-pool widths (the DRM [`ThreadAlloc`]) this iteration
    /// was prepared under — the measured-wall twin of the simulated
    /// thread model, surfaced in
    /// [`WallStageTimes`](crate::report::WallStageTimes).
    pub threads: ThreadAlloc,
}

impl PreparedIteration {
    /// Return every pooled buffer and mini-batch for reuse and free the
    /// staging slots.
    pub fn recycle(self, pool: &MatrixPool) {
        for m in self.features.into_iter().flatten() {
            pool.release(m);
        }
        for (idx, batch) in self.batches.into_iter().enumerate() {
            if let Some(batch) = batch {
                pool.release_batch(idx, batch);
            }
        }
        // self.slots dropped here: slot tokens release their rings
    }
}

/// The sampler stream of the trainer ranked `rank` among iteration
/// `iter`'s non-empty trainers.
fn sample_stream(epoch: u64, iter: usize, rank: usize) -> u64 {
    let base = epoch.wrapping_mul(1 << 20) + iter as u64 * 64;
    base.wrapping_add(rank as u64 + 1)
}

/// Prepare iteration `iter` of `epoch`: slice seeds under `quotas`,
/// sample one mini-batch per non-idle trainer, and gather features into
/// pooled buffers, staging nothing (no ring slots are taken). Returns
/// `None` once the epoch's seeds are exhausted.
///
/// This is the single implementation of the producer stages — the
/// serial (`depth = 0`) path calls it directly and the pipelined
/// producer thread runs its two halves with the staging slots taken in
/// between, which is what makes them bitwise-identical by construction.
pub fn prepare_iteration(
    ctx: &PrepareCtx,
    order: &[u32],
    epoch: u64,
    iter: usize,
    quotas: &[usize],
    pool: &MatrixPool,
) -> Option<PreparedIteration> {
    let mut prep = sample_iteration(ctx, order, epoch, iter, quotas, pool)?;
    load_iteration(ctx, &mut prep, pool);
    Some(prep)
}

/// The first half of [`prepare_iteration`]: slice the seeds and sample
/// one mini-batch per non-idle trainer, in one dispatch on the sampler
/// pool. No features are gathered yet.
fn sample_iteration(
    ctx: &PrepareCtx,
    order: &[u32],
    epoch: u64,
    iter: usize,
    quotas: &[usize],
    pool: &MatrixPool,
) -> Option<PreparedIteration> {
    let (plan_iter, seed_sets) = ctx.batcher.plan(order, iter, quotas).next()?;
    debug_assert_eq!(plan_iter, iter);
    // Pool widths as budgeted right now — recorded with the iteration so
    // the trace shows when a balance_thread move reached the producer.
    let threads = ctx.workers.observed();

    let sample_start = Instant::now();
    let jobs: Vec<(usize, &[u32], u64)> = seed_sets
        .iter()
        .enumerate()
        .filter(|(_, seeds)| !seeds.is_empty())
        .enumerate()
        .map(|(rank, (idx, seeds))| (idx, seeds.as_slice(), sample_stream(epoch, iter, rank)))
        .collect();
    let mut batches: Vec<Option<MiniBatch>> = seed_sets.iter().map(|_| None).collect();
    for (&(idx, ..), batch) in jobs.iter().zip(ctx.sample_all(&jobs, pool)) {
        batches[idx] = Some(batch);
    }
    let sample_wall_s = sample_start.elapsed().as_secs_f64();

    Some(PreparedIteration {
        iter,
        quotas: quotas.to_vec(),
        quota_epoch: 0,
        features: seed_sets.iter().map(|_| None).collect(),
        seed_sets,
        batches,
        sample_wall_s,
        load_wall_s: 0.0,
        slots: Vec::new(),
        threads,
    })
}

/// The second half of [`prepare_iteration`]: gather every sampled
/// trainer's features into a pooled buffer, in one dispatch on the
/// loader pool.
fn load_iteration(ctx: &PrepareCtx, prep: &mut PreparedIteration, pool: &MatrixPool) {
    let load_start = Instant::now();
    let mut loads: Vec<(usize, &[u32], Matrix)> = prep
        .batches
        .iter()
        .enumerate()
        .filter_map(|(idx, b)| {
            b.as_ref()
                .map(|mb| (idx, mb.input_nodes.as_slice(), ctx.buffer(idx, pool)))
        })
        .collect();
    ctx.gather_all(&mut loads);
    for (idx, _, x) in loads {
        prep.features[idx] = Some(x);
    }
    prep.load_wall_s = load_start.elapsed().as_secs_f64();
}

/// Per-trainer batch accounting of one `reslice_iteration` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResliceOutcome {
    /// Batches whose trainer's seed slice (and sampler stream) did not
    /// move: kept verbatim — sampled mini-batch, gathered features,
    /// and staging slot all survive.
    pub salvaged: usize,
    /// Batches discarded and (where the trainer stays active) redone
    /// under the new slicing.
    pub flushed: usize,
}

/// Re-map one queued iteration in place from the quotas it was sliced
/// under to `new_quotas` — the surgical core of DRM invalidation.
///
/// Trainers whose seed slice is byte-identical under the new quotas
/// *and* whose sampler stream rank (index among non-empty trainers) is
/// unchanged keep everything: sampled mini-batch, gathered feature
/// matrix, staging slot. Every other trainer is re-sliced: its old
/// batch is dropped, its buffer reused, and its mini-batch re-sampled
/// and re-gathered under exactly the streams a from-scratch producer
/// would use — so the result is bitwise-identical to serial preparation
/// under `new_quotas`.
///
/// Returns `None` (leaving the iteration unusable — the caller recycles
/// it) when the iteration does not exist under the new plan, the
/// trainer topology changed, or a newly-activated lane's staging ring
/// has no free slot (the salvage path never blocks on a slot: no
/// producer is running to free one).
fn reslice_iteration(
    ctx: &PrepareCtx,
    order: &[u32],
    epoch: u64,
    prep: &mut PreparedIteration,
    new_quotas: &[usize],
    pool: &MatrixPool,
) -> Option<ResliceOutcome> {
    let (plan_iter, new_seed_sets) = ctx.batcher.plan(order, prep.iter, new_quotas).next()?;
    debug_assert_eq!(plan_iter, prep.iter);
    if new_seed_sets.len() != prep.seed_sets.len() {
        return None; // trainer topology changed: nothing is salvageable
    }
    let n = new_seed_sets.len();
    // Sampler streams are assigned by rank among the iteration's
    // non-empty trainers, so a trainer is only salvageable if its rank
    // is stable too (a preceding trainer going empty/non-empty shifts
    // every later stream).
    let rank = |sets: &[Vec<u32>], t: usize| sets[..t].iter().filter(|s| !s.is_empty()).count();
    let keep: Vec<bool> = (0..n)
        .map(|t| {
            prep.seed_sets[t] == new_seed_sets[t]
                && rank(&prep.seed_sets, t) == rank(&new_seed_sets, t)
        })
        .collect();

    // --- Staging slots first (the only fallible step): keep tokens on
    // lanes that stay active, drop tokens on deactivated lanes, and
    // take a slot non-blockingly for newly-activated lanes.
    let mut held: Vec<Option<SlotToken>> = (0..ctx.rings.num_rings()).map(|_| None).collect();
    for tok in prep.slots.drain(..) {
        let a = tok.accel();
        held[a] = Some(tok);
    }
    let mut slots = Vec::new();
    for (t, seeds) in new_seed_sets.iter().enumerate() {
        if seeds.is_empty() {
            continue;
        }
        if let Some(a) = ctx.accel_of(t) {
            match held[a].take().or_else(|| ctx.rings.try_acquire_token(a)) {
                Some(tok) => slots.push(tok),
                None => return None, // lane full — unsalvageable without blocking
            }
        }
    }
    drop(held); // deactivated lanes' tokens release their slots here
    prep.slots = slots;

    // --- Per-trainer triage: count salvage, release changed trainers'
    // batches, and collect the ones that need rebuilding.
    let mut outcome = ResliceOutcome::default();
    let mut rebuild: Vec<usize> = Vec::new();
    for t in 0..n {
        if keep[t] {
            outcome.salvaged += usize::from(prep.batches[t].is_some());
            continue;
        }
        if let Some(batch) = prep.batches[t].take() {
            outcome.flushed += 1;
            pool.release_batch(t, batch);
        }
        if new_seed_sets[t].is_empty() {
            // trainer deactivated: its buffer goes back for reuse
            if let Some(m) = prep.features[t].take() {
                ctx.release_buffer(t, m, pool);
            }
        } else {
            rebuild.push(t);
        }
    }

    // --- Re-sample the rebuilt trainers under the producer's stream
    // derivation: the trainer's non-empty rank in the new slicing.
    let sample_start = Instant::now();
    let jobs: Vec<(usize, &[u32], u64)> = rebuild
        .iter()
        .map(|&t| {
            let stream = sample_stream(epoch, prep.iter, rank(&new_seed_sets, t));
            (t, new_seed_sets[t].as_slice(), stream)
        })
        .collect();
    let resampled = ctx.sample_all(&jobs, pool);
    prep.sample_wall_s += sample_start.elapsed().as_secs_f64();

    // --- Re-gather exactly like the producer, reusing each trainer's
    // existing buffer (then the lane free list, then the shared pool).
    let load_start = Instant::now();
    let mut loads: Vec<(usize, &[u32], Matrix)> = rebuild
        .iter()
        .zip(&resampled)
        .map(|(&t, mb)| {
            let buf = prep.features[t]
                .take()
                .unwrap_or_else(|| ctx.buffer(t, pool));
            (t, mb.input_nodes.as_slice(), buf)
        })
        .collect();
    ctx.gather_all(&mut loads);
    for (t, _, x) in loads {
        prep.features[t] = Some(x);
    }
    prep.load_wall_s += load_start.elapsed().as_secs_f64();
    for (&t, mb) in rebuild.iter().zip(resampled) {
        prep.batches[t] = Some(mb);
    }

    prep.seed_sets = new_seed_sets;
    prep.quotas = new_quotas.to_vec();
    Some(outcome)
}

/// Handle to one background producer run (one contiguous span of
/// iterations under fixed quotas): a single thread that prepares each
/// iteration, takes a staging slot per accelerator batch, and queues it
/// for the consumer.
struct Prefetcher {
    rx: Receiver<PreparedIteration>,
    stop: Arc<AtomicBool>,
    rings: Arc<StagingRings>,
    /// Prepared iterations currently sitting in the consumer queue
    /// (incremented by the producer on send, decremented on receive) —
    /// lets tests and benches wait for the queue to fill
    /// deterministically instead of sleeping.
    ready: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn a producer covering `start_iter..end_iter` under `quotas`
    /// (stamping `quota_epoch` on every item), buffering at most
    /// `depth` prepared iterations in the consumer queue.
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        ctx: Arc<PrepareCtx>,
        order: Arc<Vec<u32>>,
        epoch: u64,
        start_iter: usize,
        end_iter: usize,
        quotas: Vec<usize>,
        quota_epoch: u64,
        depth: usize,
        pool: Arc<MatrixPool>,
    ) -> Self {
        let (tx, rx) = sync_channel::<PreparedIteration>(depth.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        let rings = Arc::clone(&ctx.rings);
        let handle = {
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            std::thread::Builder::new()
                .name("hyscale-prefetch".into())
                .spawn(move || {
                    for iter in start_iter..end_iter {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Some(mut prep) =
                            sample_iteration(&ctx, &order, epoch, iter, &quotas, &pool)
                        else {
                            break; // epoch seeds exhausted
                        };
                        // The staging-slot gate, before gathering: one
                        // slot per accelerator batch, blocking while a
                        // ring's slots all hold batches still in compute
                        // — ring depth 1 serializes staging with compute,
                        // depth 2 double-buffers them. A batch is gathered
                        // into the slot it holds, so a blocked producer
                        // holds no gathered features and feature memory
                        // stays bounded by the ring depth however fast
                        // the producer runs. A raised stop refuses
                        // instead of blocking; the iteration is recycled.
                        let lanes: Vec<usize> = (0..prep.batches.len())
                            .filter(|&idx| prep.batches[idx].is_some())
                            .filter_map(|idx| ctx.accel_of(idx))
                            .collect();
                        for a in lanes {
                            match ctx.rings.acquire_token(a, &stop) {
                                Some(token) => prep.slots.push(token),
                                None => {
                                    ctx.recycle(prep, &pool);
                                    return;
                                }
                            }
                        }
                        load_iteration(&ctx, &mut prep, &pool);
                        prep.quota_epoch = quota_epoch;
                        // Count the item *before* committing it to the
                        // channel: a consumer receiving it concurrently
                        // must never observe its decrement before this
                        // increment (underflow), and `shutdown_collect`
                        // relies on the counter never under-reporting a
                        // committed item.
                        ready.fetch_add(1, Ordering::Release);
                        if let Err(rejected) = tx.send(prep) {
                            ready.fetch_sub(1, Ordering::Release);
                            ctx.recycle(rejected.0, &pool);
                            break;
                        }
                    }
                })
                .expect("spawn prefetch producer")
        };

        Self {
            rx,
            stop,
            rings,
            ready,
            handle: Some(handle),
        }
    }

    /// Blocking receive; `None` when the producer finished the epoch.
    /// A producer that died instead re-raises its panic here, on the
    /// consumer, so a failed gather can never pass for an exhausted
    /// epoch.
    fn recv(&mut self) -> Option<PreparedIteration> {
        match self.rx.recv() {
            Ok(prep) => {
                self.ready.fetch_sub(1, Ordering::AcqRel);
                Some(prep)
            }
            Err(_) => {
                join_producer(self.handle.take());
                None
            }
        }
    }

    /// Prepared iterations currently buffered in the consumer queue.
    fn buffered(&self) -> usize {
        self.ready.load(Ordering::Acquire)
    }

    /// Stop the producer, returning the contiguous run of fully-prepared
    /// iterations that were buffered in the consumer queue (front
    /// first) so the caller can salvage them. An iteration the producer
    /// was still preparing is recycled by the producer itself before it
    /// exits.
    fn shutdown_collect(mut self) -> Vec<PreparedIteration> {
        self.stop.store(true, Ordering::Release);
        // Wake a producer blocked on a full staging ring so it can
        // observe `stop` and bail out.
        self.rings.interrupt_all();
        // Drain whatever is buffered so a producer blocked on a full
        // channel can complete its send, observe `stop`, and exit. The
        // collected items keep their buffers and staging slots. The
        // `ready` counter is incremented before each send, so spin past
        // the (microseconds-wide) window where an item is committed but
        // not yet visible to `try_recv` — otherwise a race would
        // silently flush a salvageable iteration. Termination: with
        // `stop` raised the producer sends at most the one item already
        // counted, and if it dies the channel disconnects.
        let mut collected = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok(prep) => {
                    self.ready.fetch_sub(1, Ordering::AcqRel);
                    collected.push(prep);
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => {
                    if self.ready.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
                Err(std::sync::mpsc::TryRecvError::Disconnected) => break,
            }
        }
        // Close the channel: an in-flight send now errors out (the
        // producer recycles the rejected iteration's buffers itself).
        // Bounded wait: at most one in-flight iteration — the same work
        // the consumer would do inline anyway before it can proceed
        // under the new quotas.
        let handle = self.handle.take();
        drop(self.rx);
        join_producer(handle);
        collected
    }
}

/// Join a producer thread, re-raising its panic payload (if it
/// panicked) on the caller.
fn join_producer(handle: Option<JoinHandle<()>>) {
    if let Some(Err(payload)) = handle.map(JoinHandle::join) {
        std::panic::resume_unwind(payload);
    }
}

/// The executor's iteration source: serial preparation at `depth = 0`,
/// a background producer pipeline otherwise. When the consumer's quotas
/// change (DRM re-mapping) the invalidation is *surgical*: queued
/// iterations are re-sliced per trainer (`reslice_iteration`) so
/// settled trainers keep their prepared batches, and only the staging
/// rings of lanes whose share moved are drained. A zero-diff re-map is a no-op; only missed-event recovery
/// (a stale batch actually reaching the consumer) still pays the full
/// flush.
///
/// Re-maps are additionally **coalesced**: [`invalidate`](Self::invalidate)
/// only *records* the target quotas, and the re-slice runs once, at the
/// next [`obtain`](Self::obtain), against the final quotas — so a burst
/// of `balance_work` events between two iterations diffs oldest-kept
/// vs. newest and re-slices each trainer at most once (two moves of the
/// same trainer pay one re-slice; a burst that cancels out pays
/// nothing).
pub struct IterationFeed {
    ctx: Arc<PrepareCtx>,
    order: Arc<Vec<u32>>,
    epoch: u64,
    end_iter: usize,
    depth: usize,
    pool: Arc<MatrixPool>,
    pipeline: Option<Prefetcher>,
    /// Iterations salvaged across the last re-map, served before the
    /// restarted producer's output (they cover the iterations just
    /// after the re-map point).
    salvaged: VecDeque<PreparedIteration>,
    /// The quotas the live producer generation is slicing under.
    quotas: Vec<usize>,
    /// A recorded-but-unapplied `balance_work` re-map `(next_iter,
    /// final quotas)`: bursts of events overwrite it in place and the
    /// single re-slice runs at the next `obtain`.
    pending_remap: Option<(usize, Vec<usize>)>,
    /// Re-map generation counter; stamped on every produced batch so
    /// stragglers are rejected by a counter compare at receive time.
    quota_epoch: u64,
    restarts: usize,
    remaps_coalesced: usize,
    batches_salvaged: usize,
    batches_flushed: usize,
    invalidation_wall_s: f64,
}

impl IterationFeed {
    /// Create the feed for one epoch, spawning the producer at iteration
    /// 0 when `depth > 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: Arc<PrepareCtx>,
        order: Arc<Vec<u32>>,
        epoch: u64,
        end_iter: usize,
        depth: usize,
        pool: Arc<MatrixPool>,
        initial_quotas: Vec<usize>,
    ) -> Self {
        let mut feed = Self {
            ctx,
            order,
            epoch,
            end_iter,
            depth,
            pool,
            pipeline: None,
            salvaged: VecDeque::new(),
            quotas: initial_quotas,
            pending_remap: None,
            quota_epoch: 0,
            restarts: 0,
            remaps_coalesced: 0,
            batches_salvaged: 0,
            batches_flushed: 0,
            invalidation_wall_s: 0.0,
        };
        if depth > 0 {
            feed.pipeline = Some(feed.spawn_at(0));
        }
        feed
    }

    fn spawn_at(&self, start_iter: usize) -> Prefetcher {
        Prefetcher::spawn(
            Arc::clone(&self.ctx),
            Arc::clone(&self.order),
            self.epoch,
            start_iter,
            self.end_iter,
            self.quotas.clone(),
            self.quota_epoch,
            self.depth,
            Arc::clone(&self.pool),
        )
    }

    /// Discard a prepared iteration: count its batches as flushed and
    /// recycle its buffers/slots. The single accounting point behind
    /// `salvage_stats` — every flush path (stale recovery, unsalvageable
    /// re-slice, full restart) goes through here.
    fn flush_item(&mut self, prep: PreparedIteration) {
        self.batches_flushed += prep.batches.iter().flatten().count();
        self.ctx.recycle(prep, &self.pool);
    }

    /// Obtain iteration `iter` prepared under exactly `quotas`.
    /// Returns `None` once the epoch's seeds are exhausted; a panic in
    /// the producer thread is re-raised here with its original payload.
    ///
    /// Any re-maps recorded by [`invalidate`](Self::invalidate) since
    /// the last call are applied first, as a single coalesced re-slice.
    pub fn obtain(&mut self, iter: usize, quotas: &[usize]) -> Option<PreparedIteration> {
        if self.depth == 0 {
            return prepare_iteration(&self.ctx, &self.order, self.epoch, iter, quotas, &self.pool);
        }
        self.apply_pending_remap();
        // Salvaged survivors of the last re-map are served first.
        if let Some(front) = self.salvaged.front() {
            if front.iter == iter && front.quotas == quotas {
                return self.salvaged.pop_front();
            }
            // The consumer asked for something the salvage doesn't
            // cover (out-of-band re-map): flush the survivors and fall
            // through to a full restart below.
            while let Some(prep) = self.salvaged.pop_front() {
                self.flush_item(prep);
            }
            self.restart(iter, quotas.to_vec());
        }
        loop {
            let prep = self.pipeline.as_mut().expect("pipeline alive").recv();
            match prep {
                Some(prep)
                    if prep.quota_epoch == self.quota_epoch
                        && prep.iter == iter
                        && prep.quotas == quotas =>
                {
                    return Some(prep)
                }
                Some(stale) => {
                    // Produced under an outdated plan (missed DRM event or
                    // an out-of-band `set_mapping`): full flush and redo —
                    // the `drain_all` path survives exactly for this.
                    self.flush_item(stale);
                    self.restart(iter, quotas.to_vec());
                }
                None => return None,
            }
        }
    }

    /// Record a DRM `balance_work` re-mapping: the producer will serve
    /// iteration `next_iter` onward under `quotas`. The re-map is
    /// **deferred and coalesced** — nothing is drained here; the
    /// surgical re-slice runs once, at the next
    /// [`obtain`](Self::obtain), against the *final* quotas of whatever
    /// burst of events accumulated. Its semantics there:
    ///
    /// * a **zero-diff** outcome (final quotas equal the live
    ///   generation's — including a burst that cancels itself out) is a
    ///   complete no-op: no drain, no restart, nothing flushed;
    /// * otherwise queued iterations are re-sliced per trainer against
    ///   the oldest-kept → newest quota diff: settled trainers keep
    ///   their batches, buffers, and staging slots
    ///   (`reslice_iteration`), and only the *changed* lanes record a
    ///   ring drain;
    /// * the producer restarts after the salvaged run, under the new
    ///   quotas and a bumped quota epoch (stragglers from the old
    ///   generation are rejected at receive time by the epoch stamp).
    pub fn invalidate(&mut self, next_iter: usize, quotas: Vec<usize>) {
        if self.depth == 0 {
            // serial feeds prepare inline: nothing is speculative, the
            // quotas just take effect on the next inline preparation
            self.quotas = quotas;
            return;
        }
        if let Some((pending_iter, pending)) = self.pending_remap.take() {
            // burst: coalesce into one re-slice against the final quotas
            if pending != quotas {
                self.remaps_coalesced += 1;
            }
            self.pending_remap = Some((pending_iter.min(next_iter), quotas));
        } else {
            self.pending_remap = Some((next_iter, quotas));
        }
    }

    /// Run the single coalesced re-slice a burst of
    /// [`invalidate`](Self::invalidate) calls recorded, if any.
    fn apply_pending_remap(&mut self) {
        let Some((next_iter, quotas)) = self.pending_remap.take() else {
            return;
        };
        if quotas == self.quotas {
            return; // zero-diff balance_work: nothing moved, nothing to pay
        }
        let diff = QuotaDiff::between(&self.quotas, &quotas);
        self.quotas = quotas;
        let t0 = Instant::now();
        self.quota_epoch += 1;
        // Stop the old generation, keeping its queued iterations, and
        // fold in any survivors of a previous re-map still unserved.
        let queued = match self.pipeline.take() {
            Some(p) => p.shutdown_collect(),
            None => Vec::new(),
        };
        let pending: Vec<PreparedIteration> = self.salvaged.drain(..).chain(queued).collect();
        // Re-slice the contiguous run starting at `next_iter`; the
        // first unsalvageable item (and everything after it) is flushed.
        let mut expected = next_iter;
        let mut broken = false;
        for mut prep in pending {
            if !broken && prep.iter == expected {
                match reslice_iteration(
                    &self.ctx,
                    &self.order,
                    self.epoch,
                    &mut prep,
                    &self.quotas,
                    &self.pool,
                ) {
                    Some(out) => {
                        self.batches_salvaged += out.salvaged;
                        self.batches_flushed += out.flushed;
                        prep.quota_epoch = self.quota_epoch;
                        self.salvaged.push_back(prep);
                        expected += 1;
                        continue;
                    }
                    None => broken = true,
                }
            } else {
                broken = true;
            }
            self.flush_item(prep);
        }
        // Only the lanes whose slice moved record a ring drain.
        self.ctx
            .rings
            .drain_lanes(&diff.changed_lanes(self.ctx.hybrid, self.ctx.rings.num_rings()));
        self.restarts += 1;
        self.pipeline = Some(self.spawn_at(expected));
        self.invalidation_wall_s += t0.elapsed().as_secs_f64();
    }

    /// Apply a DRM `balance_thread` re-allocation: re-size the shared
    /// worker pools so the producer's next dispatch runs at the new
    /// widths. Unlike [`invalidate`](Self::invalidate) this is an
    /// immediate cross-thread atomic store, not a message through the
    /// queue — it is unordered with respect to in-flight iterations and
    /// deliberately drains nothing: not the queue, not the staging
    /// rings. Pool widths change wall-clock, never bytes, so
    /// already-prepared iterations remain valid (`tests/equivalence.rs`
    /// and the randomized DRM-schedule harness in
    /// `tests/proptest_invariants.rs` pin this bitwise).
    pub fn rebalance_threads(&self, alloc: &ThreadAlloc) {
        self.ctx.workers.apply(alloc);
    }

    /// `balance_work` bursts folded into an already-pending re-map (each
    /// counted event re-sliced nothing on its own — the final quotas
    /// paid one re-slice for the whole burst).
    pub fn remaps_coalesced(&self) -> usize {
        self.remaps_coalesced
    }

    /// The live worker pools this feed's producer dispatches on.
    pub fn workers(&self) -> &StageWorkers {
        &self.ctx.workers
    }

    /// The per-accelerator staging rings this feed's producer stages
    /// batches through.
    pub fn rings(&self) -> &Arc<StagingRings> {
        &self.ctx.rings
    }

    /// Full flush and restart — the `set_mapping`-style re-map: every
    /// queued batch is discarded and **every** ring records a drain.
    /// Reached only from the missed-event recovery path in
    /// [`obtain`](Self::obtain); ordinary `balance_work` moves go
    /// through the surgical [`invalidate`](Self::invalidate).
    fn restart(&mut self, start_iter: usize, quotas: Vec<usize>) {
        self.quotas = quotas;
        self.quota_epoch += 1;
        if let Some(p) = self.pipeline.take() {
            for prep in p.shutdown_collect() {
                self.flush_item(prep);
            }
        }
        // Count the drain on every ring: the staged batches died with
        // the producer generation that prepared them.
        self.ctx.rings.drain_all();
        self.restarts += 1;
        self.pipeline = Some(self.spawn_at(start_iter));
    }

    /// Number of producer restarts this epoch (DRM invalidations).
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Cumulative `(salvaged, flushed)` per-trainer batch counts across
    /// this epoch's re-mapping events: `salvaged` batches survived a
    /// `balance_work` move untouched, `flushed` were discarded (and,
    /// for still-active trainers, redone). Zero-diff re-maps contribute
    /// to neither.
    pub fn salvage_stats(&self) -> (usize, usize) {
        (self.batches_salvaged, self.batches_flushed)
    }

    /// Wall-clock seconds this feed has spent inside re-mapping events
    /// (producer shutdown + per-trainer re-slice + restart).
    pub fn invalidation_wall_s(&self) -> f64 {
        self.invalidation_wall_s
    }

    /// Fully-prepared iterations currently buffered ahead of the
    /// consumer (salvaged survivors plus the producer queue).
    pub fn buffered(&self) -> usize {
        self.salvaged.len() + self.pipeline.as_ref().map_or(0, Prefetcher::buffered)
    }

    /// Tear down the producer, recycling buffered iterations. A re-map
    /// still pending (recorded after the epoch's last `obtain`) is
    /// dropped unapplied — there is no speculative work left for it to
    /// invalidate, and the next epoch's feed starts from the live
    /// split's quotas anyway.
    pub fn finish(mut self) {
        self.pending_remap = None;
        let queued = self
            .pipeline
            .take()
            .map_or_else(Vec::new, Prefetcher::shutdown_collect);
        for prep in self.salvaged.drain(..).chain(queued) {
            self.ctx.recycle(prep, &self.pool);
        }
    }
}

/// The payload of a caught panic as text.
#[cfg(test)]
pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or_else(|_| "<non-text panic>".to_string(), |s| s.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_tensor::init::randn;
    use hyscale_tensor::Precision;

    fn ctx_over(
        dataset: Dataset,
        alloc: ThreadAlloc,
        ring_depth: usize,
    ) -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        let batcher = EpochBatcher::new(dataset.splits.train.clone(), 99);
        let order = Arc::new(batcher.epoch_order(0));
        let ctx = PrepareCtx {
            accel_features: Arc::new(WireFeatures::build(Precision::Int8, &dataset.data.features)),
            dataset: Arc::new(dataset),
            batcher,
            sampler: NeighborSampler::new(vec![4, 3], 17),
            hybrid: true,
            workers: Arc::new(StageWorkers::from_alloc(&alloc)),
            numa_domains: 2,
            rings: Arc::new(StagingRings::new(2, ring_depth)),
        };
        (Arc::new(ctx), order)
    }

    fn ctx_with_rings(ring_depth: usize) -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        ctx_over(Dataset::toy(5), ThreadAlloc::default_for(8), ring_depth)
    }

    fn ctx() -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        ctx_with_rings(2)
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool = MatrixPool::new();
        let mut m = pool.acquire();
        assert_eq!(pool.idle(), 0);
        m.resize(8, 4);
        pool.release(m);
        assert_eq!(pool.idle(), 1);
        let m2 = pool.acquire();
        assert_eq!(m2.shape(), (8, 4), "recycled buffer keeps its allocation");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn ring_slots_bound_in_flight_batches() {
        let rings = Arc::new(StagingRings::new(1, 2));
        let stop = AtomicBool::new(false);
        let t0 = rings.acquire_token(0, &stop).expect("slot 0");
        let t1 = rings.acquire_token(0, &stop).expect("slot 1");
        assert_eq!(rings.ring(0).in_flight(), 2);
        // full + stop raised: acquire refuses instead of blocking
        stop.store(true, Ordering::Release);
        assert!(rings.acquire_token(0, &stop).is_none());
        stop.store(false, Ordering::Release);
        drop(t0); // batch 0's propagation completed
        assert_eq!(rings.ring(0).in_flight(), 1);
        let t2 = rings.acquire_token(0, &stop).expect("slot freed by drop");
        assert_eq!(t2.accel(), 0);
        drop(t1);
        drop(t2);
        assert_eq!(rings.in_flight_total(), 0);
    }

    #[test]
    fn ring_free_list_is_lane_local() {
        let rings = StagingRings::new(2, 2);
        assert!(rings.ring(0).take_buffer().is_none());
        let mut m = Matrix::uninit(0, 0);
        m.resize(4, 3);
        rings.ring(0).put_buffer(m);
        assert!(rings.ring(1).take_buffer().is_none(), "lanes don't share");
        let back = rings.ring(0).take_buffer().expect("lane 0 buffer");
        assert_eq!(back.shape(), (4, 3));
    }

    #[test]
    fn blocked_producer_wakes_when_slot_frees() {
        // A producer blocked on a full ring must wake when the consumer
        // releases the slot (token drop), not spin or deadlock.
        let rings = Arc::new(StagingRings::new(1, 1));
        let stop = Arc::new(AtomicBool::new(false));
        let held = rings.acquire_token(0, &stop).expect("slot");
        let waiter = {
            let rings = Arc::clone(&rings);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || rings.acquire_token(0, &stop).is_some())
        };
        // give the waiter time to block, then release the slot
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().expect("waiter"), "waiter never acquired");
        // the waiter's token dropped with its thread: slot freed again
        assert_eq!(rings.in_flight_total(), 0);
    }

    #[test]
    fn prepare_is_deterministic_and_pool_independent() {
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let quotas = [16usize, 16, 16];
        let a = prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).unwrap();
        // poison the pool and the ring free lists with stale buffers
        pool.release(randn(200, 3, 1));
        pool.release(Matrix::full(1, 1, f32::NAN));
        ctx.rings.ring(0).put_buffer(Matrix::full(7, 7, f32::NAN));
        let b = prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).unwrap();
        assert_eq!(a.seed_sets, b.seed_sets);
        for (x, y) in a.features.iter().zip(&b.features) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.as_slice(), y.as_slice()),
                (None, None) => {}
                _ => panic!("feature presence diverged"),
            }
        }
        assert!(a.slots.is_empty(), "serial preparation must stage nothing");
    }

    #[test]
    fn prepare_ends_after_epoch_exhausted() {
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let n = order.len();
        let quotas = [n / 2 + 1, n / 2 + 1]; // 1 iteration consumes all
        assert!(prepare_iteration(&ctx, &order, 0, 0, &quotas, &pool).is_some());
        assert!(prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).is_none());
    }

    #[test]
    fn feed_pipelined_matches_serial_across_ring_depths() {
        for ring_depth in [1usize, 2] {
            let (serial_ctx, order) = ctx_with_rings(ring_depth);
            let (piped_ctx, _) = ctx_with_rings(ring_depth);
            let quotas = vec![8usize, 8, 8];
            let serial_pool = Arc::new(MatrixPool::new());
            let mut serial = IterationFeed::new(
                Arc::clone(&serial_ctx),
                Arc::clone(&order),
                0,
                usize::MAX,
                0,
                Arc::clone(&serial_pool),
                quotas.clone(),
            );
            let piped_pool = Arc::new(MatrixPool::new());
            let mut piped = IterationFeed::new(
                Arc::clone(&piped_ctx),
                Arc::clone(&order),
                0,
                usize::MAX,
                3,
                Arc::clone(&piped_pool),
                quotas.clone(),
            );
            let mut iter = 0;
            loop {
                let a = serial.obtain(iter, &quotas);
                let b = piped.obtain(iter, &quotas);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.iter, b.iter);
                        assert_eq!(a.seed_sets, b.seed_sets);
                        for (x, y) in a.features.iter().zip(&b.features) {
                            if let (Some(x), Some(y)) = (x, y) {
                                assert_eq!(x.as_slice(), y.as_slice());
                            }
                        }
                        // two accelerator batches -> two staging slots held
                        assert_eq!(b.slots.len(), 2, "ring depth {ring_depth}");
                        a.recycle(&serial_pool);
                        b.recycle(&piped_pool);
                    }
                    (None, None) => break,
                    _ => panic!("serial and pipelined feeds disagree on epoch length"),
                }
                iter += 1;
            }
            assert!(iter >= 2, "epoch too short to exercise the pipeline");
            piped.finish();
            serial.finish();
            assert_eq!(
                piped_ctx.rings.in_flight_total(),
                0,
                "staging slots leaked at ring depth {ring_depth}"
            );
        }
    }

    #[test]
    fn discarded_batches_return_buffers_to_their_roles() {
        // Queued iterations discarded by `finish` hand each accelerator
        // buffer back to its ring's free list and only the CPU trainer's
        // to the shared pool, so no buffer grows to another role's size.
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let feed = IterationFeed::new(
            Arc::clone(&ctx),
            order,
            0,
            usize::MAX,
            2,
            Arc::clone(&pool),
            quotas,
        );
        for _ in 0..500 {
            if feed.buffered() >= 2 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(feed.buffered(), 2, "producer never filled the queue");
        feed.finish();
        let lane_buffers =
            |a: usize| std::iter::from_fn(|| ctx.rings.ring(a).take_buffer()).count();
        let discarded = pool.idle();
        assert!(discarded >= 2, "queued iterations were not recycled");
        assert_eq!(lane_buffers(0), discarded);
        assert_eq!(lane_buffers(1), discarded);
        // each mini-batch went back to its own trainer's role: the queued
        // iterations' and, if the producer was waiting at the slot gate,
        // the one it had sampled but not yet gathered
        for trainer in 0..3 {
            let batches = pool.idle_batches(trainer);
            assert!(
                batches == discarded || batches == discarded + 1,
                "trainer {trainer}: {batches} batches for {discarded} queued iterations"
            );
            assert_eq!(batches, pool.idle_batches(0), "trainer {trainer}");
        }
    }

    #[test]
    fn recycled_batches_refill_bitwise_and_stay_with_their_role() {
        // Iterations prepared on recycled, dirty mini-batches equal ones
        // prepared from an empty pool; the CPU trainer's batch is never
        // handed to an accelerator trainer, whose batches are smaller.
        let (ctx, order) = ctx();
        let fresh = MatrixPool::new();
        let pool = MatrixPool::new();
        let quotas = [24usize, 4, 4];
        for iter in 0..3 {
            let a = prepare_iteration(&ctx, &order, 0, iter, &quotas, &fresh).unwrap();
            let b = prepare_iteration(&ctx, &order, 0, iter, &quotas, &pool).unwrap();
            for (t, (x, y)) in a.batches.iter().zip(&b.batches).enumerate() {
                let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
                assert_eq!(x.input_nodes, y.input_nodes, "iter {iter} trainer {t}");
                for (bx, by) in x.blocks.iter().zip(&y.blocks) {
                    assert_eq!(bx.edge_src, by.edge_src, "iter {iter} trainer {t}");
                    assert_eq!(bx.edge_dst, by.edge_dst, "iter {iter} trainer {t}");
                }
            }
            let cpu_nodes = b.batches[0].as_ref().unwrap().input_nodes.capacity();
            b.recycle(&pool);
            drop(a); // fresh pool: never reused
            let cpu = pool.take_batch(0);
            assert_eq!(
                cpu.input_nodes.capacity(),
                cpu_nodes,
                "CPU batch left its role"
            );
            pool.release_batch(0, cpu);
            for t in 1..3 {
                let accel = pool.take_batch(t);
                assert!(
                    accel.input_nodes.capacity() < cpu_nodes,
                    "trainer {t} got a CPU batch"
                );
                pool.release_batch(t, accel);
            }
        }
    }

    #[test]
    fn rebalance_resizes_pools_the_producer_observes() {
        // A balance_thread move must change the partition widths the
        // producer dispatches on — not only the simulated StageTimes —
        // and must leave the staging rings untouched.
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = IterationFeed::new(
            Arc::clone(&ctx),
            Arc::clone(&order),
            0,
            usize::MAX,
            1,
            Arc::clone(&pool),
            quotas.clone(),
        );
        let before = feed.obtain(0, &quotas).expect("first iteration");
        assert_eq!(before.threads, ThreadAlloc::default_for(8));
        before.recycle(&pool);

        // DRM moves two threads from the trainer pool to the loader pool.
        let moved = ThreadAlloc {
            sampler: 2,
            loader: 4,
            trainer: 2,
        };
        feed.rebalance_threads(&moved);
        assert_eq!(feed.workers().observed(), moved);
        assert_eq!(feed.workers().loader().width(), 4);

        // Subsequent prepared iterations carry (and ran under) the new
        // widths, without the queue having been invalidated. At depth 1
        // up to a few iterations (buffered or in flight across the two
        // producer stages) may predate the re-size; the move must land
        // within a few more.
        let mut landed = false;
        for iter in 1..=6 {
            let prep = feed
                .obtain(iter, &quotas)
                .expect("post-rebalance iteration");
            let threads = prep.threads;
            prep.recycle(&pool);
            if threads == moved {
                landed = true;
                break;
            }
        }
        assert!(landed, "producer never observed the balance_thread move");
        assert_eq!(feed.restarts(), 0, "thread moves must not drain the queue");
        assert_eq!(
            feed.rings().drains_total(),
            0,
            "thread moves must not drain the staging rings"
        );
        feed.finish();
    }

    #[test]
    fn feed_restarts_on_quota_change_and_drains_changed_lanes() {
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = IterationFeed::new(
            Arc::clone(&ctx),
            Arc::clone(&order),
            0,
            usize::MAX,
            2,
            Arc::clone(&pool),
            quotas.clone(),
        );
        let first = feed.obtain(0, &quotas).expect("first iteration");
        first.recycle(&pool);
        assert_eq!(feed.rings().drains_total(), 0);
        // consumer re-balances: 4 seeds move from trainer 1 (lane 0) to
        // trainer 0 (the CPU). Lane 1's slice is untouched — surgical
        // invalidation drains only lane 0's ring (the re-slice itself
        // is deferred to the next obtain, where it coalesces bursts).
        let new_quotas = vec![12usize, 4, 8];
        feed.invalidate(1, new_quotas.clone());
        let second = feed.obtain(1, &new_quotas).expect("post-remap iteration");
        assert_eq!(
            feed.rings().ring(0).drains(),
            1,
            "the changed lane must record the drain"
        );
        assert_eq!(
            feed.rings().ring(1).drains(),
            0,
            "an untouched lane must not be drained"
        );
        assert_eq!(second.quotas, new_quotas);
        assert_eq!(second.seed_sets[0].len(), 12);
        assert_eq!(second.seed_sets[1].len(), 4);
        // bitwise identical to preparing serially under the new quotas
        let reference =
            prepare_iteration(&ctx, &order, 0, 1, &new_quotas, &pool).expect("reference");
        assert_eq!(second.seed_sets, reference.seed_sets);
        for (x, y) in second.features.iter().zip(&reference.features) {
            if let (Some(x), Some(y)) = (x, y) {
                assert_eq!(x.as_slice(), y.as_slice());
            }
        }
        assert!(feed.restarts() >= 1);
        second.recycle(&pool);
        reference.recycle(&pool);
        feed.finish();
        assert_eq!(ctx.rings.in_flight_total(), 0, "slots leaked after finish");
    }

    #[test]
    fn zero_diff_invalidate_is_a_noop() {
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = IterationFeed::new(
            Arc::clone(&ctx),
            Arc::clone(&order),
            0,
            usize::MAX,
            2,
            Arc::clone(&pool),
            quotas.clone(),
        );
        let first = feed.obtain(0, &quotas).expect("first iteration");
        first.recycle(&pool);
        // a balance_work whose quotas equal the old ones must cost
        // nothing — also after the deferred re-slice runs at obtain
        feed.invalidate(1, quotas.clone());
        let second = feed.obtain(1, &quotas).expect("second iteration");
        assert_eq!(second.iter, 1);
        assert_eq!(feed.restarts(), 0, "zero-diff re-map restarted producer");
        assert_eq!(feed.rings().drains_total(), 0, "zero-diff re-map drained");
        assert_eq!(feed.salvage_stats(), (0, 0), "zero-diff re-map flushed");
        second.recycle(&pool);
        feed.finish();
    }

    #[test]
    fn cancelling_burst_coalesces_to_a_noop() {
        // two opposite balance_work moves recorded between obtains must
        // fold into a zero-diff re-map: one coalesce, zero re-slices
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let mut feed = IterationFeed::new(
            Arc::clone(&ctx),
            Arc::clone(&order),
            0,
            usize::MAX,
            2,
            Arc::clone(&pool),
            quotas.clone(),
        );
        let first = feed.obtain(0, &quotas).expect("first iteration");
        first.recycle(&pool);
        feed.invalidate(1, vec![12, 4, 8]);
        feed.invalidate(1, quotas.clone()); // moves back: burst cancels
        assert_eq!(feed.remaps_coalesced(), 1);
        let second = feed.obtain(1, &quotas).expect("second iteration");
        assert_eq!(second.iter, 1);
        assert_eq!(feed.restarts(), 0, "cancelled burst restarted producer");
        assert_eq!(feed.rings().drains_total(), 0, "cancelled burst drained");
        assert_eq!(feed.salvage_stats(), (0, 0), "cancelled burst flushed");
        second.recycle(&pool);
        feed.finish();
    }

    #[test]
    fn producer_panic_reaches_the_consumer() {
        // A feature matrix with fewer rows than the graph has vertices:
        // the gather of any batch reaching past row 0 panics. With one
        // loader thread the gather runs on the producer thread itself,
        // so its panic is the producer's.
        let mut dataset = Dataset::toy(5);
        let cols = dataset.data.features.cols();
        dataset.data.features = Matrix::zeros(1, cols);
        let alloc = ThreadAlloc {
            sampler: 1,
            loader: 1,
            trainer: 1,
        };
        let (ctx, order) = ctx_over(dataset, alloc, 2);
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
        let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prepare_iteration(&ctx, &order, 0, 0, &quotas, &pool).map(|p| p.iter)
        }));
        let gather_message = panic_text(inline.expect_err("the gather must fail"));
        let mut feed = IterationFeed::new(
            Arc::clone(&ctx),
            order,
            0,
            usize::MAX,
            2,
            Arc::clone(&pool),
            quotas.clone(),
        );
        let piped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            feed.obtain(0, &quotas).map(|p| p.iter)
        }));
        let message =
            panic_text(piped.expect_err("a dead producer must not read as the epoch's end"));
        assert_eq!(message, gather_message);
    }

    #[test]
    fn try_acquire_never_blocks() {
        let rings = Arc::new(StagingRings::new(1, 1));
        let t0 = rings.try_acquire_token(0).expect("free slot");
        assert!(
            rings.try_acquire_token(0).is_none(),
            "full ring must refuse"
        );
        drop(t0);
        assert!(rings.try_acquire_token(0).is_some());
    }

    #[test]
    fn reslice_salvages_settled_trainers_bitwise() {
        // 3 trainers (CPU + 2 lanes): move 4 seeds from lane 0 to the
        // CPU while lane 1's slice stays put — the salvage must keep
        // lane 1's batch verbatim and rebuild only the movers.
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let old_quotas = [8usize, 8, 8];
        let new_quotas = [12usize, 4, 8];
        let mut prep = prepare_iteration(&ctx, &order, 0, 1, &old_quotas, &pool).unwrap();
        let lane1_before = prep.features[2].as_ref().unwrap().as_slice().to_vec();
        let out =
            reslice_iteration(&ctx, &order, 0, &mut prep, &new_quotas, &pool).expect("salvage");
        assert_eq!(out.salvaged, 1, "lane 1's batch survives");
        assert_eq!(out.flushed, 2, "CPU + lane 0 are re-sliced");
        // bitwise-identical to a from-scratch preparation under the new
        // quotas — including the untouched trainer
        let reference = prepare_iteration(&ctx, &order, 0, 1, &new_quotas, &pool).unwrap();
        assert_eq!(prep.seed_sets, reference.seed_sets);
        assert_eq!(prep.quotas, reference.quotas);
        for (t, (x, y)) in prep.features.iter().zip(&reference.features).enumerate() {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.as_slice(), y.as_slice(), "trainer {t}"),
                (None, None) => {}
                _ => panic!("feature presence diverged at trainer {t}"),
            }
        }
        assert_eq!(
            prep.features[2].as_ref().unwrap().as_slice(),
            lane1_before.as_slice(),
            "salvaged buffer was rewritten"
        );
        for (a, b) in prep.batches.iter().zip(&reference.batches) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.seeds, b.seeds);
                    assert_eq!(a.input_nodes, b.input_nodes);
                }
                (None, None) => {}
                _ => panic!("batch presence diverged"),
            }
        }
        prep.recycle(&pool);
        reference.recycle(&pool);
    }

    #[test]
    fn reslice_rejects_exhausted_iterations() {
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let n = order.len();
        let old_quotas = [8usize, 8, 8];
        let mut prep = prepare_iteration(&ctx, &order, 0, 0, &old_quotas, &pool).unwrap();
        // under huge quotas iteration 0 still exists but this salvage
        // targets an iteration past the epoch's end
        prep.iter = n; // beyond any plan
        assert!(reslice_iteration(&ctx, &order, 0, &mut prep, &old_quotas, &pool).is_none());
        prep.recycle(&pool);
    }
}
