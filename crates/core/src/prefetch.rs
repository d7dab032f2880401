//! Task-level Feature Prefetching — the *real* pipeline.
//!
//! The paper's headline optimization (§IV-B, Fig. 7) overlaps the
//! CPU-side producer stages — Mini-batch Sampling and Feature Loading,
//! whose accelerator batches arrive at wire precision — with GNN
//! Propagation. [`crate::pipeline`] *simulates* that overlap with a
//! discrete-event model; this module *executes* it: a background
//! producer walks the epoch's batch plan, prepares iterations, and
//! queues them for the consuming trainer.
//!
//! ## One producer thread, one prefetch credit gate, and the wire view
//!
//! The producer is one thread: **sample → take a credit → gather →
//! queue**. Accelerator trainers' feature rows are gathered straight
//! from the accelerator-side feature view ([`PrepareCtx::accel_features`],
//! a [`WireFeatures`] built once per trainer in `HybridTrainer::new`),
//! so a gathered accelerator batch already holds the wire-precision
//! values the §VIII quantized transfer would deliver; the CPU trainer
//! gathers from host memory. The round-trip commutes with the gather
//! bit for bit (see `hyscale_tensor::quant`), so no per-iteration wire
//! work is left on the host.
//!
//! The prefetch depth `d` (`TrainConfig::prefetch_depth`) is the number
//! of iterations whose features may be alive at once — being gathered,
//! queued, or in propagation. The feed owns `d` [`Credits`]. The producer
//! samples iteration `i+1` freely, then takes one credit before it
//! gathers; the credit rides in the [`PreparedIteration`] and is
//! released when the iteration is recycled (after propagation, on a
//! discard or re-map flush, at `finish`, or while a panic unwinds). So a
//! producer parked on the gate holds no gathered features, and feature
//! memory stays bounded by `d` however fast the producer runs. At
//! `d = 2` the producer gathers batch `i+1` while batch `i` computes;
//! at `d = 1` it waits for batch `i`'s propagation first. Device-side
//! staging buffers are a hardware effect and stay a *model*
//! (`hyscale_device::stage::StagingModel`,
//! [`crate::pipeline::simulate_pipeline`]'s `ring_depth`).
//!
//! ## Determinism contract
//!
//! A prepared iteration is a pure function of `(epoch_order, epoch,
//! iter, quotas)`: seed slicing comes from
//! [`EpochBatcher::plan`](hyscale_sampler::EpochBatcher) and every
//! sampler draw is keyed by `(seed, epoch, iter, trainer)` streams, so a
//! batch prepared three iterations ahead on a worker thread is
//! bitwise-identical to one prepared inline, and the credit gate only
//! re-times when a prepared batch is handed over.
//! The one hazard is the DRM engine re-balancing `quotas` mid-epoch:
//! prepared iterations carry the quotas *and the quota epoch* (re-map
//! generation counter) they were built under, so a straggler from an
//! outdated plan is rejected at receive time rather than globally
//! flushed. Invalidation itself is **surgical and coalesced**
//! ([`IterationFeed::invalidate`]): a burst of `balance_work` events is
//! folded into one re-slice against the final quotas, which re-slices
//! only the trainers whose seed slice actually moved — settled
//! trainers keep their queued batches and pooled matrices, and a
//! re-sliced iteration keeps its one credit. A zero-diff re-map
//! (including a burst that cancels out) is a no-op, and only
//! missed-event recovery pays the full flush.
//! `tests/equivalence.rs` and the randomized DRM-schedule harness in
//! `tests/proptest_invariants.rs` pin weights bitwise across prefetch
//! depths {0, 1, 2, 3, 4} × wire precisions {F32, Int8}, including
//! across re-mapping events.
//!
//! ## Allocation discipline
//!
//! Producer buffers are recycled by trainer role in the [`MatrixPool`],
//! through one path ([`PreparedIteration::recycle`]) at every point
//! where an iteration's batches end — after propagation, or discarded
//! by a re-map, a re-slice or teardown:
//!
//! * a feature matrix goes back to its trainer's feature free list, so
//!   each trainer re-gathers into a buffer already sized to its batch;
//! * a sampled [`MiniBatch`] goes back to its trainer's batch free list,
//!   and the next sampling refills it in place
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
//! iterations and their credits, and each [`PreparedIteration`] records
//! the [`ThreadAlloc`] it was built under so traces show the shift land.

use crate::drm::ThreadAlloc;
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
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A recycling pool of producer buffers shared between the producer
/// thread and the consuming trainer: feature matrices and sampled
/// mini-batches (one free list per trainer each, so a trainer's gather
/// and sampling refill buffers already sized to its own batch), and
/// sampler scratch (one per sampling thread that has run at once).
///
/// ```
/// use hyscale_core::MatrixPool;
///
/// let pool = MatrixPool::new();
/// let mut x = pool.acquire(1);     // arbitrary shape — overwrite before reading
/// x.resize(128, 16);
/// pool.release(1, x);              // back to trainer 1's role after propagation
/// assert_eq!(pool.idle(1), 1);
/// assert_eq!(pool.idle(0), 0);     // roles don't share
/// assert_eq!(pool.acquire(1).shape(), (128, 16)); // allocation reused
/// ```
#[derive(Default)]
pub struct MatrixPool {
    /// Indexed by trainer.
    features: Mutex<Vec<Vec<Matrix>>>,
    /// Indexed by trainer.
    batches: Mutex<Vec<Vec<MiniBatch>>>,
    scratch: Mutex<Vec<SampleScratch>>,
}

/// Pop from trainer `trainer`'s free list.
fn take_role<T>(roles: &Mutex<Vec<Vec<T>>>, trainer: usize) -> Option<T> {
    roles.lock().get_mut(trainer).and_then(Vec::pop)
}

/// Push onto trainer `trainer`'s free list.
fn put_role<T>(roles: &Mutex<Vec<Vec<T>>>, trainer: usize, item: T) {
    let mut roles = roles.lock();
    if roles.len() <= trainer {
        roles.resize_with(trainer + 1, Vec::new);
    }
    roles[trainer].push(item);
}

impl MatrixPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a feature buffer of trainer `trainer`'s role (arbitrary
    /// shape/contents) or mint an empty one. Callers must
    /// `resize`/overwrite before reading — the gather does both.
    pub fn acquire(&self, trainer: usize) -> Matrix {
        take_role(&self.features, trainer).unwrap_or_else(|| Matrix::uninit(0, 0))
    }

    /// Return trainer `trainer`'s feature buffer for its role's next
    /// gather.
    pub fn release(&self, trainer: usize, m: Matrix) {
        put_role(&self.features, trainer, m);
    }

    /// Feature buffers currently idle in trainer `trainer`'s role.
    pub fn idle(&self, trainer: usize) -> usize {
        self.features.lock().get(trainer).map_or(0, Vec::len)
    }

    /// A returned mini-batch of trainer `trainer`'s role, or an empty
    /// one. Its contents are stale: refill it with
    /// `NeighborSampler::sample_into`.
    pub(crate) fn take_batch(&self, trainer: usize) -> MiniBatch {
        take_role(&self.batches, trainer).unwrap_or_default()
    }

    /// Return trainer `trainer`'s mini-batch for its role's next sampling.
    pub(crate) fn release_batch(&self, trainer: usize, batch: MiniBatch) {
        put_role(&self.batches, trainer, batch);
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

/// The prefetch gate of one [`IterationFeed`]: `depth` credits, one
/// held by every iteration whose features are alive (being gathered,
/// queued, or in propagation).
pub struct Credits {
    depth: usize,
    free: Mutex<usize>,
    cv: Condvar,
}

impl Credits {
    fn new(depth: usize) -> Self {
        Self {
            depth,
            free: Mutex::new(depth),
            cv: Condvar::new(),
        }
    }

    /// Credits currently held by live iterations.
    pub fn held(&self) -> usize {
        self.depth - *self.free.lock()
    }

    /// Take a credit, parking while none is free. Returns `None` once
    /// `stop` is raised — a producer being shut down must not wedge on a
    /// credit that will never come back.
    fn take(self: &Arc<Self>, stop: &AtomicBool) -> Option<Credit> {
        let mut free = self.free.lock();
        loop {
            if stop.load(Ordering::Acquire) {
                return None;
            }
            if *free > 0 {
                *free -= 1;
                return Some(Credit(Arc::clone(self)));
            }
            self.cv.wait(&mut free);
        }
    }

    /// Wake a producer parked on the gate so it can observe a raised
    /// stop flag. The notify happens *under the counter's lock*: `take`
    /// checks the stop flag and parks while holding that lock, so an
    /// unlocked notify could slip between its check and its park and be
    /// lost — leaving the producer asleep on a gate whose credits may
    /// never come back (the shutdown path joins that very thread).
    fn interrupt(&self) {
        let _guard = self.free.lock();
        self.cv.notify_all();
    }
}

/// One prefetch credit: held by a [`PreparedIteration`] from before its
/// gather until it is recycled; dropping it wakes a parked producer.
struct Credit(Arc<Credits>);

impl Drop for Credit {
    fn drop(&mut self) {
        *self.0.free.lock() += 1;
        self.0.cv.notify_all();
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
}

impl PrepareCtx {
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
    /// trainer (trainer 0, when hybrid) reads host memory, so accelerator
    /// batches arrive already at wire precision — bitwise what gathering
    /// and then round-tripping would give.
    fn gather_all(&self, jobs: &mut [(usize, &[u32], Matrix)]) {
        let mut gathers: Vec<GatherJob<'_>> = jobs
            .iter_mut()
            .map(|(trainer, indices, out)| GatherJob {
                wire: if self.hybrid && *trainer == 0 {
                    &WireFeatures::Host
                } else {
                    self.accel_features.as_ref()
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
}

/// One fully-prepared training iteration: sampled mini-batches plus
/// gathered feature matrices (accelerator batches at wire precision),
/// with the producer-side wall-clock stage timings and the prefetch
/// credit it holds until it is recycled.
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
    /// The worker-pool widths (the DRM [`ThreadAlloc`]) this iteration
    /// was prepared under — the measured-wall twin of the simulated
    /// thread model, surfaced in
    /// [`WallStageTimes`](crate::report::WallStageTimes).
    pub threads: ThreadAlloc,
    /// The prefetch credit this iteration holds (none when prepared
    /// inline); released when the iteration is recycled or dropped.
    credit: Option<Credit>,
}

impl PreparedIteration {
    /// Return every feature buffer and mini-batch to its trainer's role
    /// in `pool` and release the prefetch credit — the one path by which
    /// an iteration's batches end, whether after propagation or
    /// discarded.
    pub fn recycle(self, pool: &MatrixPool) {
        for (idx, (m, batch)) in self.features.into_iter().zip(self.batches).enumerate() {
            if let Some(m) = m {
                pool.release(idx, m);
            }
            if let Some(batch) = batch {
                pool.release_batch(idx, batch);
            }
        }
        // self.credit drops here, waking a producer parked on the gate
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
/// pooled buffers, holding no credit. Returns `None` once the epoch's
/// seeds are exhausted.
///
/// This is the single implementation of the producer stages — the
/// serial (`depth = 0`) path calls it directly and the pipelined
/// producer thread runs its two halves with a credit taken in between,
/// which is what makes them bitwise-identical by construction.
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
        threads,
        credit: None,
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
                .map(|mb| (idx, mb.input_nodes.as_slice(), pool.acquire(idx)))
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
    /// move: kept verbatim — sampled mini-batch and gathered features
    /// both survive.
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
/// unchanged keep everything: sampled mini-batch and gathered feature
/// matrix. Every other trainer is re-sliced: its old batch is dropped,
/// its buffer reused, and its mini-batch re-sampled and re-gathered
/// under exactly the streams a from-scratch producer would use — so the
/// result is bitwise-identical to serial preparation under
/// `new_quotas`. The iteration keeps its one credit whichever trainers
/// the re-map activates.
///
/// Returns `None` (leaving the iteration unusable — the caller recycles
/// it) when the iteration does not exist under the new plan or the
/// trainer topology changed.
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
                pool.release(t, m);
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
    // existing buffer (then its role's free list).
    let load_start = Instant::now();
    let mut loads: Vec<(usize, &[u32], Matrix)> = rebuild
        .iter()
        .zip(&resampled)
        .map(|(&t, mb)| {
            let buf = prep.features[t].take().unwrap_or_else(|| pool.acquire(t));
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
/// iterations under fixed quotas): a single thread that samples each
/// iteration, takes a prefetch credit, gathers, and queues it for the
/// consumer. Dropping the handle stops the producer.
struct Prefetcher {
    rx: Receiver<PreparedIteration>,
    stop: Arc<AtomicBool>,
    credits: Arc<Credits>,
    /// Prepared iterations currently sitting in the consumer queue
    /// (incremented by the producer on send, decremented on receive) —
    /// lets tests and benches wait for the queue to fill
    /// deterministically instead of sleeping.
    ready: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn a producer covering `start_iter..end_iter` under `quotas`
    /// (stamping `quota_epoch` on every item), gated by `credits`.
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        ctx: Arc<PrepareCtx>,
        order: Arc<Vec<u32>>,
        epoch: u64,
        start_iter: usize,
        end_iter: usize,
        quotas: Vec<usize>,
        quota_epoch: u64,
        credits: Arc<Credits>,
        pool: Arc<MatrixPool>,
    ) -> Self {
        // Unbounded: the credit gate is the only bound on the queue.
        let (tx, rx) = channel::<PreparedIteration>();
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let ready = Arc::clone(&ready);
            let credits = Arc::clone(&credits);
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
                        // The prefetch gate, before gathering: a parked
                        // producer holds sampled batches but no gathered
                        // features. A raised stop refuses instead of
                        // parking; the iteration is recycled.
                        match credits.take(&stop) {
                            Some(credit) => prep.credit = Some(credit),
                            None => {
                                prep.recycle(&pool);
                                return;
                            }
                        }
                        load_iteration(&ctx, &mut prep, &pool);
                        prep.quota_epoch = quota_epoch;
                        // Count the item *before* committing it to the
                        // channel: a consumer receiving it concurrently
                        // must never observe its decrement before this
                        // increment (underflow).
                        ready.fetch_add(1, Ordering::Release);
                        if let Err(rejected) = tx.send(prep) {
                            ready.fetch_sub(1, Ordering::Release);
                            rejected.0.recycle(&pool);
                            break;
                        }
                    }
                })
                .expect("spawn prefetch producer")
        };

        Self {
            rx,
            stop,
            credits,
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

    /// Raise the stop flag and wake a producer parked on the gate.
    fn halt(&self) {
        self.stop.store(true, Ordering::Release);
        self.credits.interrupt();
    }

    /// Stop the producer, returning the contiguous run of fully-prepared
    /// iterations it queued (front first), credits and all, so the
    /// caller can salvage them. An iteration the producer had sampled
    /// but not yet gathered is recycled by the producer itself before it
    /// exits. The wait is bounded: the producer never blocks on the
    /// unbounded channel, and the halt wakes it from the gate, so it
    /// finishes at most the one stage it is running.
    fn shutdown_collect(mut self) -> Vec<PreparedIteration> {
        self.halt();
        join_producer(self.handle.take());
        // The producer is gone, so the queue holds all it ever sent.
        self.rx.try_iter().collect()
    }
}

impl Drop for Prefetcher {
    /// A feed dropped mid-epoch (the consumer is unwinding from a
    /// trainer's panic) must not leave its producer parked on the gate:
    /// halt it and wait for it, which is bounded as in
    /// [`shutdown_collect`](Self::shutdown_collect). A producer panic is
    /// not re-raised here — a panic in `drop` while unwinding aborts —
    /// so teardown that must surface it goes through `shutdown_collect`.
    fn drop(&mut self) {
        self.halt();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
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
/// a background producer pipeline gated by `depth` prefetch credits
/// otherwise. When the consumer's quotas change (DRM re-mapping) the
/// invalidation is *surgical*: queued iterations are re-sliced per
/// trainer (`reslice_iteration`) so settled trainers keep their prepared
/// batches. A zero-diff re-map is a no-op; only missed-event recovery
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
    credits: Arc<Credits>,
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
    /// 0 when `depth > 0`. At most `depth` iterations' features are
    /// alive at once, counting those the consumer holds.
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
            credits: Arc::new(Credits::new(depth)),
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
            Arc::clone(&self.credits),
            Arc::clone(&self.pool),
        )
    }

    /// Discard a prepared iteration: count its batches as flushed and
    /// recycle it. The single accounting point behind `salvage_stats` —
    /// every flush path (stale recovery, unsalvageable re-slice, full
    /// restart) goes through here.
    fn flush_item(&mut self, prep: PreparedIteration) {
        self.batches_flushed += prep.batches.iter().flatten().count();
        prep.recycle(&self.pool);
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
                    // an out-of-band `set_mapping`): full flush and redo.
                    self.flush_item(stale);
                    self.restart(iter, quotas.to_vec());
                }
                None => return None,
            }
        }
    }

    /// Record a DRM `balance_work` re-mapping: the producer will serve
    /// iteration `next_iter` onward under `quotas`. The re-map is
    /// **deferred and coalesced** — nothing is discarded here; the
    /// surgical re-slice runs once, at the next
    /// [`obtain`](Self::obtain), against the *final* quotas of whatever
    /// burst of events accumulated. Its semantics there:
    ///
    /// * a **zero-diff** outcome (final quotas equal the live
    ///   generation's — including a burst that cancels itself out) is a
    ///   complete no-op: no restart, nothing flushed;
    /// * otherwise queued iterations are re-sliced per trainer against
    ///   the oldest-kept → newest quota diff: settled trainers keep
    ///   their batches and buffers, and each iteration keeps its credit
    ///   (`reslice_iteration`);
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
        self.restarts += 1;
        self.pipeline = Some(self.spawn_at(expected));
        self.invalidation_wall_s += t0.elapsed().as_secs_f64();
    }

    /// Apply a DRM `balance_thread` re-allocation: re-size the shared
    /// worker pools so the producer's next dispatch runs at the new
    /// widths. Unlike [`invalidate`](Self::invalidate) this is an
    /// immediate cross-thread atomic store, not a message through the
    /// queue — it is unordered with respect to in-flight iterations and
    /// deliberately discards nothing. Pool widths change wall-clock,
    /// never bytes, so already-prepared iterations remain valid
    /// (`tests/equivalence.rs` and the randomized DRM-schedule harness
    /// in `tests/proptest_invariants.rs` pin this bitwise).
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

    /// The prefetch credits gating this feed's producer.
    pub fn credits(&self) -> &Arc<Credits> {
        &self.credits
    }

    /// Full flush and restart — the `set_mapping`-style re-map: every
    /// queued batch is discarded. Reached only from the missed-event
    /// recovery path in [`obtain`](Self::obtain); ordinary
    /// `balance_work` moves go through the surgical
    /// [`invalidate`](Self::invalidate).
    fn restart(&mut self, start_iter: usize, quotas: Vec<usize>) {
        self.quotas = quotas;
        self.quota_epoch += 1;
        if let Some(p) = self.pipeline.take() {
            for prep in p.shutdown_collect() {
                self.flush_item(prep);
            }
        }
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
            prep.recycle(&self.pool);
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
    use std::time::Duration;

    fn ctx_over(dataset: Dataset, alloc: ThreadAlloc) -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
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
        };
        (Arc::new(ctx), order)
    }

    fn ctx() -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        ctx_over(Dataset::toy(5), ThreadAlloc::default_for(8))
    }

    /// A pipelined feed over `ctx()` at `depth`, three trainers of 8
    /// seeds each (the CPU trainer plus two accelerators).
    fn feed_at(depth: usize) -> (IterationFeed, Arc<MatrixPool>, Vec<usize>) {
        let (ctx, order) = ctx();
        let pool = Arc::new(MatrixPool::new());
        let quotas = vec![8usize, 8, 8];
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

    /// Wait (bounded, ~5 s) until exactly `n` iterations are queued.
    fn wait_buffered(feed: &IterationFeed, n: usize) {
        for _ in 0..500 {
            if feed.buffered() == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("queue never reached {n} (at {})", feed.buffered());
    }

    /// Run `body` on its own thread, failing if it does not return
    /// within 60 s — a lost wake-up then fails the test instead of
    /// hanging the suite.
    fn with_watchdog(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            let _ = tx.send(outcome.map_err(panic_text));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(outcome) => outcome.unwrap_or_else(|message| panic!("{message}")),
            Err(_) => panic!("deadlock: the test body never returned"),
        }
    }

    #[test]
    fn pool_recycles_buffers_per_role() {
        let pool = MatrixPool::new();
        let mut m = pool.acquire(1);
        assert_eq!(pool.idle(1), 0);
        m.resize(8, 4);
        pool.release(1, m);
        assert_eq!(pool.idle(1), 1);
        assert_eq!(pool.acquire(2).shape(), (0, 0), "roles don't share buffers");
        let m2 = pool.acquire(1);
        assert_eq!(m2.shape(), (8, 4), "recycled buffer keeps its allocation");
        assert_eq!(pool.idle(1), 0);
    }

    #[test]
    fn credit_gate_bounds_alive_iterations() {
        // At depth d, with the consumer holding k iterations, the queue
        // settles at d - k: every credit is held, by the consumer or by
        // a queued iteration, and the producer parks with the next
        // iteration sampled but not gathered.
        for depth in [1usize, 2, 3] {
            let (mut feed, pool, quotas) = feed_at(depth);
            let mut held = Vec::new();
            for k in 0..=depth {
                if k > 0 {
                    held.push(feed.obtain(k - 1, &quotas).expect("iteration"));
                }
                wait_buffered(&feed, depth - k);
                std::thread::sleep(Duration::from_millis(30));
                assert_eq!(feed.buffered(), depth - k, "depth {depth}, holding {k}");
                assert_eq!(feed.credits().held(), depth, "depth {depth}, holding {k}");
            }
            for prep in held {
                prep.recycle(&pool);
            }
            let credits = Arc::clone(feed.credits());
            feed.finish();
            assert_eq!(
                credits.held(),
                0,
                "credits held after finish at depth {depth}"
            );
        }
    }

    #[test]
    fn recycle_and_remap_wake_the_parked_producer() {
        with_watchdog(|| {
            let (mut feed, pool, quotas) = feed_at(2);
            // The consumer holds both credits: the producer samples
            // iteration 2 and parks on the gate.
            let it0 = feed.obtain(0, &quotas).expect("iteration 0");
            let it1 = feed.obtain(1, &quotas).expect("iteration 1");
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(
                feed.buffered(),
                0,
                "nothing gathers while every credit is held"
            );
            // A recycle returns a credit and wakes the producer.
            it0.recycle(&pool);
            wait_buffered(&feed, 1);
            // The producer parks again, on iteration 3. A re-map stops
            // it: the shutdown must wake it from the gate, or the join
            // inside `obtain` never returns. Iteration 2 is re-sliced
            // under its own credit and served from the salvage.
            let new_quotas = vec![12usize, 4, 8];
            feed.invalidate(2, new_quotas.clone());
            let it2 = feed.obtain(2, &new_quotas).expect("post-remap iteration");
            assert_eq!(it2.quotas, new_quotas);
            assert_eq!(feed.restarts(), 1);
            assert_eq!(feed.credits().held(), 2);
            it1.recycle(&pool);
            it2.recycle(&pool);
            let credits = Arc::clone(feed.credits());
            feed.finish();
            assert_eq!(credits.held(), 0, "credits held after finish");
        });
    }

    #[test]
    fn prepare_is_deterministic_and_pool_independent() {
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let quotas = [16usize, 16, 16];
        let a = prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).unwrap();
        // poison the pool's feature roles with stale buffers
        pool.release(0, randn(200, 3, 1));
        pool.release(1, Matrix::full(1, 1, f32::NAN));
        pool.release(2, Matrix::full(7, 7, f32::NAN));
        let b = prepare_iteration(&ctx, &order, 0, 1, &quotas, &pool).unwrap();
        assert_eq!(a.seed_sets, b.seed_sets);
        for (x, y) in a.features.iter().zip(&b.features) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.as_slice(), y.as_slice()),
                (None, None) => {}
                _ => panic!("feature presence diverged"),
            }
        }
        assert!(a.credit.is_none(), "serial preparation must hold no credit");
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
    fn feed_pipelined_matches_serial_across_depths() {
        for depth in [1usize, 2, 3] {
            let (serial_ctx, order) = ctx();
            let quotas = vec![8usize, 8, 8];
            let serial_pool = Arc::new(MatrixPool::new());
            let mut serial = IterationFeed::new(
                serial_ctx,
                Arc::clone(&order),
                0,
                usize::MAX,
                0,
                Arc::clone(&serial_pool),
                quotas.clone(),
            );
            let (mut piped, piped_pool, _) = feed_at(depth);
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
                        assert!(b.credit.is_some(), "a pipelined iteration holds a credit");
                        a.recycle(&serial_pool);
                        b.recycle(&piped_pool);
                    }
                    (None, None) => break,
                    _ => panic!("serial and pipelined feeds disagree on epoch length"),
                }
                iter += 1;
            }
            assert!(iter >= 2, "epoch too short to exercise the pipeline");
            let credits = Arc::clone(piped.credits());
            piped.finish();
            serial.finish();
            assert_eq!(
                credits.held(),
                0,
                "credits held after finish at depth {depth}"
            );
        }
    }

    #[test]
    fn discarded_batches_return_buffers_to_their_roles() {
        // Queued iterations discarded by `finish` hand each feature buffer
        // and mini-batch back to its own trainer's role, so no buffer
        // grows to another role's size.
        let (feed, pool, _) = feed_at(2);
        wait_buffered(&feed, 2);
        feed.finish();
        for trainer in 0..3 {
            assert_eq!(pool.idle(trainer), 2, "trainer {trainer}'s feature buffers");
            // the queued iterations' batches and, if the producer was
            // parked at the gate, the one it had sampled but not gathered
            let batches = pool.idle_batches(trainer);
            assert!(
                batches == 2 || batches == 3,
                "trainer {trainer}: {batches} batches for 2 queued iterations"
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
        // and must leave the prepared iterations alone.
        let (mut feed, pool, quotas) = feed_at(1);
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
        assert_eq!(
            feed.restarts(),
            0,
            "thread moves must not restart the producer"
        );
        assert_eq!(feed.salvage_stats(), (0, 0), "thread moves must not flush");
        feed.finish();
    }

    #[test]
    fn feed_reslices_only_changed_trainers_on_quota_change() {
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
        wait_buffered(&feed, 2);
        // consumer re-balances: 4 seeds move from trainer 1 (lane 0) to
        // trainer 0 (the CPU). Lane 1's slice is untouched, so both
        // queued iterations keep its batch and re-slice the other two
        // (the re-slice itself is deferred to the next obtain, where it
        // coalesces bursts).
        let new_quotas = vec![12usize, 4, 8];
        feed.invalidate(1, new_quotas.clone());
        let second = feed.obtain(1, &new_quotas).expect("post-remap iteration");
        assert_eq!(feed.salvage_stats(), (2, 4), "(salvaged, flushed)");
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
        assert_eq!(feed.restarts(), 1);
        second.recycle(&pool);
        reference.recycle(&pool);
        let credits = Arc::clone(feed.credits());
        feed.finish();
        assert_eq!(credits.held(), 0, "credits held after finish");
    }

    #[test]
    fn zero_diff_invalidate_is_a_noop() {
        let (mut feed, pool, quotas) = feed_at(2);
        let first = feed.obtain(0, &quotas).expect("first iteration");
        first.recycle(&pool);
        // a balance_work whose quotas equal the old ones must cost
        // nothing — also after the deferred re-slice runs at obtain
        feed.invalidate(1, quotas.clone());
        let second = feed.obtain(1, &quotas).expect("second iteration");
        assert_eq!(second.iter, 1);
        assert_eq!(feed.restarts(), 0, "zero-diff re-map restarted producer");
        assert_eq!(feed.salvage_stats(), (0, 0), "zero-diff re-map flushed");
        second.recycle(&pool);
        feed.finish();
    }

    #[test]
    fn cancelling_burst_coalesces_to_a_noop() {
        // two opposite balance_work moves recorded between obtains must
        // fold into a zero-diff re-map: one coalesce, zero re-slices
        let (mut feed, pool, quotas) = feed_at(2);
        let first = feed.obtain(0, &quotas).expect("first iteration");
        first.recycle(&pool);
        feed.invalidate(1, vec![12, 4, 8]);
        feed.invalidate(1, quotas.clone()); // moves back: burst cancels
        assert_eq!(feed.remaps_coalesced(), 1);
        let second = feed.obtain(1, &quotas).expect("second iteration");
        assert_eq!(second.iter, 1);
        assert_eq!(feed.restarts(), 0, "cancelled burst restarted producer");
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
        let (ctx, order) = ctx_over(dataset, alloc);
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
