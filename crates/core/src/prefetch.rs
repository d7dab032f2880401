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
//! The producer is one thread: **sample → plan → take a credit →
//! gather → queue**. Accelerator trainers' feature rows are gathered
//! straight from the accelerator-side feature view
//! ([`PrepareCtx::accel_features`], a [`WireFeatures`] built once per
//! trainer in `HybridTrainer::new`), so a gathered accelerator batch
//! already holds the wire-precision values the §VIII quantized transfer
//! would deliver; the CPU trainer gathers from host memory. The
//! round-trip commutes with the gather bit for bit (see
//! `hyscale_tensor::quant`), so no per-iteration wire work is left on
//! the host.
//!
//! The prefetch depth `d` (`TrainConfig::prefetch_depth`) is the number
//! of iterations whose features may be alive at once — being gathered,
//! queued, or in propagation. The feed owns `d` [`Credits`]. The producer
//! samples iteration `i+1` freely, then takes one credit before it
//! gathers; the credit rides in the [`PreparedIteration`] and is
//! released when the iteration is recycled (after propagation, at
//! `finish`, or while a panic unwinds). So a producer parked on the gate
//! holds no gathered features, and feature memory stays bounded by `d`
//! however fast the producer runs. At `d = 2` the producer gathers batch
//! `i+1` while batch `i` computes; at `d = 1` it waits for batch `i`'s
//! propagation first. Device-side staging buffers are a hardware effect
//! and stay a *model* (`hyscale_device::stage::StagingModel`,
//! [`crate::pipeline::simulate_pipeline`]'s `ring_depth`).
//!
//! ## The producer plans the DRM
//!
//! A DRM decision (paper Algorithm 1) depends only on the mapping an
//! iteration was prepared under, the workload of its sampled batches,
//! the configuration and the scripted events — never on training
//! results. So right after sampling iteration `i` the producer runs the
//! timing layer and the DRM step ([`IterationPlanner`]), slices
//! iteration `i+1` under the quotas it just planned, and sets the
//! worker pools to the planned widths before sampling it. Each
//! [`PreparedIteration`] carries its [`IterationPlan`]; the consumer
//! adopts the plan of every iteration it trains. Nothing the producer
//! prepares can go stale, so one producer runs per epoch, from its first
//! iteration to its last, and the consumer only ever receives the next
//! iteration.
//!
//! ## Determinism contract
//!
//! A prepared iteration is a pure function of `(epoch_order, epoch,
//! iter, mapping)`: seed slicing comes from
//! [`EpochBatcher::plan`](hyscale_sampler::EpochBatcher) and every
//! sampler draw is keyed by `(seed, epoch, iter, trainer)` streams. The
//! mapping of iteration `i+1` is the plan of iteration `i`, and the
//! serial (`depth = 0`) path runs the same sample → plan → gather steps
//! inline, so the mapping trajectory and every batch are the same at
//! every depth by construction; the credit gate only re-times when a
//! prepared batch is handed over. `tests/equivalence.rs` and the
//! randomized DRM-schedule harness in `tests/proptest_invariants.rs`
//! pin weights bitwise across prefetch depths {0, 1, 2, 3, 4} × wire
//! precisions {F32, Int8}, including under live and scripted DRM moves.
//!
//! ## Allocation discipline
//!
//! Producer buffers are recycled by trainer role in the [`MatrixPool`],
//! through one path ([`PreparedIteration::recycle`]) at every point
//! where an iteration's batches end — after propagation, or discarded
//! at teardown:
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
//! feature matrix's NUMA row domains. The producer applies each
//! iteration's planned [`ThreadAlloc`] to the pools before sampling it,
//! so a `balance_thread` move decided after iteration `k` shows in
//! exactly iteration `k+1`'s recorded widths at every depth. Widths
//! change wall-clock, never bits: a CPU trainer already running when
//! the producer re-sizes its pool keeps the width it started with.

use crate::drm::{IterationPlan, IterationPlanner, ThreadAlloc, WorkloadSplit};
use crate::stages::StageWorkers;
use hyscale_graph::features::{gather_jobs_numa_into, GatherJob};
use hyscale_graph::Dataset;
use hyscale_sampler::{EpochBatcher, MiniBatch, NeighborSampler, SampleScratch};
use hyscale_tensor::quant::WireFeatures;
use hyscale_tensor::Matrix;
use parking_lot::{Condvar, Mutex};
use rayon::prelude::*;
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
    /// Live worker pools, shared with the executor. The producer sets
    /// them to each iteration's planned [`ThreadAlloc`] before sampling
    /// it.
    pub workers: Arc<StageWorkers>,
    /// NUMA domains of the CPU feature matrix (one per socket): the
    /// gather is sharded so each socket's rows are copied by that
    /// socket's share of the loader pool, weighted by the sampled rows'
    /// ownership histogram.
    pub numa_domains: usize,
    /// The timing layer and DRM step run after each iteration's
    /// sampling.
    pub planner: IterationPlanner,
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
/// the plan for the next iteration, the producer-side wall-clock stage
/// timings, and the prefetch credit it holds until it is recycled.
pub struct PreparedIteration {
    /// Iteration index within the epoch.
    pub iter: usize,
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
    /// The simulated timing of this iteration and the mapping the DRM
    /// decided after it, which the next iteration is prepared under.
    pub plan: IterationPlan,
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

/// The first half of the producer stages for iteration `iter` of
/// `epoch`: set the pools to `threads`, slice the seeds under `split`,
/// sample one mini-batch per non-idle trainer in one dispatch on the
/// sampler pool, and plan the next iteration's mapping. No features are
/// gathered yet. Returns `None` once the epoch's seeds are exhausted.
///
/// The serial (`depth = 0`) feed runs this and [`load_iteration`] back
/// to back and the producer thread runs them with a credit taken in
/// between, which is what makes the two bitwise-identical by
/// construction.
fn sample_iteration(
    ctx: &PrepareCtx,
    order: &[u32],
    epoch: u64,
    iter: usize,
    split: &WorkloadSplit,
    threads: &ThreadAlloc,
    pool: &MatrixPool,
) -> Option<PreparedIteration> {
    let quotas = split.quotas();
    let (plan_iter, seed_sets) = ctx.batcher.plan(order, iter, &quotas).next()?;
    debug_assert_eq!(plan_iter, iter);
    ctx.workers.apply(threads);

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

    let plan = ctx.planner.plan(epoch, iter, &batches, split, threads);
    Some(PreparedIteration {
        iter,
        features: seed_sets.iter().map(|_| None).collect(),
        seed_sets,
        batches,
        sample_wall_s,
        load_wall_s: 0.0,
        threads: ctx.workers.observed(),
        plan,
        credit: None,
    })
}

/// The second half of the producer stages: gather every sampled
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

/// The producer stages of one epoch: walks its iterations in order, each
/// prepared under the mapping planned after the one before.
struct Producer {
    ctx: Arc<PrepareCtx>,
    order: Arc<Vec<u32>>,
    epoch: u64,
    next_iter: usize,
    end_iter: usize,
    split: WorkloadSplit,
    threads: ThreadAlloc,
}

impl Producer {
    /// Sample and plan the next iteration (no features gathered yet) and
    /// adopt its plan for the one after; `None` once the epoch is done.
    fn sample_next(&mut self, pool: &MatrixPool) -> Option<PreparedIteration> {
        if self.next_iter >= self.end_iter {
            return None;
        }
        let prep = sample_iteration(
            &self.ctx,
            &self.order,
            self.epoch,
            self.next_iter,
            &self.split,
            &self.threads,
            pool,
        )?;
        self.next_iter += 1;
        self.split.clone_from(&prep.plan.split);
        self.threads = prep.plan.threads;
        Some(prep)
    }
}

/// Handle to the background producer of one epoch: a single thread that
/// samples and plans each iteration, takes a prefetch credit, gathers,
/// and queues it for the consumer. Dropping the handle stops the
/// producer.
struct Prefetcher {
    rx: Receiver<PreparedIteration>,
    stop: Arc<AtomicBool>,
    credits: Arc<Credits>,
    /// Prepared iterations currently sitting in the consumer queue
    /// (incremented by the producer on send, decremented on receive) —
    /// lets tests wait for the queue to fill deterministically instead
    /// of sleeping.
    ready: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawn a thread running `producer` to the end of its epoch, gated
    /// by `credits`.
    fn spawn(mut producer: Producer, credits: Arc<Credits>, pool: Arc<MatrixPool>) -> Self {
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
                    while !stop.load(Ordering::Acquire) {
                        let Some(mut prep) = producer.sample_next(&pool) else {
                            break; // epoch done
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
                        load_iteration(&producer.ctx, &mut prep, &pool);
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

    /// Stop the producer, re-raising its panic if it died, and recycle
    /// the iterations it queued. An iteration it had sampled but not yet
    /// gathered is recycled by the producer itself before it exits. The
    /// wait is bounded: the producer never blocks on the unbounded
    /// channel, and the halt wakes it from the gate, so it finishes at
    /// most the one stage it is running.
    fn shutdown(mut self, pool: &MatrixPool) {
        self.halt();
        join_producer(self.handle.take());
        // The producer is gone, so the queue holds all it ever sent.
        for prep in self.rx.try_iter() {
            prep.recycle(pool);
        }
    }
}

impl Drop for Prefetcher {
    /// A feed dropped mid-epoch (the consumer is unwinding from a
    /// trainer's panic) must not leave its producer parked on the gate:
    /// halt it and wait for it, which is bounded as in
    /// [`shutdown`](Self::shutdown). A producer panic is not re-raised
    /// here — a panic in `drop` while unwinding aborts — so teardown
    /// that must surface it goes through `shutdown`.
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

/// Where a feed's iterations are prepared.
enum Source {
    /// `depth = 0`: inline, on the consumer's thread.
    Inline(Producer),
    /// Ahead of the consumer, on one producer thread.
    Thread(Prefetcher),
}

/// The executor's iteration source for one epoch: serial preparation at
/// `depth = 0`, otherwise one background producer spawned at the start
/// of the epoch and gated by `depth` prefetch credits. Either way the
/// iterations arrive in order, each prepared under the mapping planned
/// after the one before, so the consumer only ever asks for the next.
pub struct IterationFeed {
    pool: Arc<MatrixPool>,
    credits: Arc<Credits>,
    source: Source,
}

impl IterationFeed {
    /// Create the feed for iterations `0..end_iter` of one epoch, the
    /// first prepared under `split` and `threads`, spawning the producer
    /// when `depth > 0`. At most `depth` iterations' features are alive
    /// at once, counting those the consumer holds.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: Arc<PrepareCtx>,
        order: Arc<Vec<u32>>,
        epoch: u64,
        end_iter: usize,
        depth: usize,
        pool: Arc<MatrixPool>,
        split: WorkloadSplit,
        threads: ThreadAlloc,
    ) -> Self {
        let credits = Arc::new(Credits::new(depth));
        let producer = Producer {
            ctx,
            order,
            epoch,
            next_iter: 0,
            end_iter,
            split,
            threads,
        };
        let source = if depth == 0 {
            Source::Inline(producer)
        } else {
            Source::Thread(Prefetcher::spawn(
                producer,
                Arc::clone(&credits),
                Arc::clone(&pool),
            ))
        };
        Self {
            pool,
            credits,
            source,
        }
    }

    /// The epoch's next iteration, or `None` once its seeds (or its
    /// iteration cap) are exhausted. A panic in the producer thread is
    /// re-raised here with its original payload.
    pub fn obtain(&mut self) -> Option<PreparedIteration> {
        match &mut self.source {
            Source::Inline(producer) => {
                let mut prep = producer.sample_next(&self.pool)?;
                load_iteration(&producer.ctx, &mut prep, &self.pool);
                Some(prep)
            }
            Source::Thread(prefetcher) => prefetcher.recv(),
        }
    }

    /// The prefetch credits gating this feed's producer.
    pub fn credits(&self) -> &Arc<Credits> {
        &self.credits
    }

    /// Fully-prepared iterations currently queued ahead of the consumer.
    pub fn buffered(&self) -> usize {
        match &self.source {
            Source::Inline(_) => 0,
            Source::Thread(prefetcher) => prefetcher.buffered(),
        }
    }

    /// Tear down the producer, recycling queued iterations.
    pub fn finish(self) {
        if let Source::Thread(prefetcher) = self.source {
            prefetcher.shutdown(&self.pool);
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
    use crate::config::{AcceleratorKind, OptFlags, SystemConfig};
    use crate::drm::{ScriptedDrm, ScriptedDrmEvent};
    use crate::stages::Stage;
    use hyscale_gnn::GnnKind;
    use hyscale_tensor::init::randn;
    use hyscale_tensor::Precision;
    use std::time::Duration;

    /// The planner of the toy feeds below: a CPU trainer plus two
    /// accelerators with the engine off, so only `schedule` moves the
    /// mapping.
    fn planner(schedule: Vec<ScriptedDrmEvent>) -> IterationPlanner {
        let mut cfg = SystemConfig::paper_default(AcceleratorKind::u250(), GnnKind::Gcn);
        cfg.platform.num_accelerators = 2;
        cfg.opt = OptFlags {
            hybrid: true,
            drm: false,
            tfp: true,
        };
        IterationPlanner::new(&cfg, vec![16, 8, 4], 0, schedule)
    }

    fn ctx_over(
        dataset: Dataset,
        alloc: ThreadAlloc,
        schedule: Vec<ScriptedDrmEvent>,
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
            planner: planner(schedule),
        };
        (Arc::new(ctx), order)
    }

    fn ctx() -> (Arc<PrepareCtx>, Arc<Vec<u32>>) {
        ctx_over(Dataset::toy(5), ThreadAlloc::default_for(8), Vec::new())
    }

    /// Three trainers (the CPU trainer plus two accelerators) of `q`
    /// seeds each.
    fn even(q: usize) -> WorkloadSplit {
        WorkloadSplit::new(q, 3 * q, 2)
    }

    /// A feed over `ctx` at `depth`, three trainers of 8 seeds each.
    fn feed_over(
        ctx: Arc<PrepareCtx>,
        order: Arc<Vec<u32>>,
        depth: usize,
    ) -> (IterationFeed, Arc<MatrixPool>) {
        let pool = Arc::new(MatrixPool::new());
        let feed = IterationFeed::new(
            ctx,
            order,
            0,
            usize::MAX,
            depth,
            Arc::clone(&pool),
            even(8),
            ThreadAlloc::default_for(8),
        );
        (feed, pool)
    }

    fn feed_at(depth: usize) -> (IterationFeed, Arc<MatrixPool>) {
        let (ctx, order) = ctx();
        feed_over(ctx, order, depth)
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

    /// Both halves of the producer stages back to back, holding no
    /// credit: what the serial feed does for each iteration.
    fn prepare_iteration(
        ctx: &PrepareCtx,
        order: &[u32],
        epoch: u64,
        iter: usize,
        split: &WorkloadSplit,
        threads: &ThreadAlloc,
        pool: &MatrixPool,
    ) -> Option<PreparedIteration> {
        let mut prep = sample_iteration(ctx, order, epoch, iter, split, threads, pool)?;
        load_iteration(ctx, &mut prep, pool);
        Some(prep)
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
            let (mut feed, pool) = feed_at(depth);
            let mut held = Vec::new();
            for k in 0..=depth {
                if k > 0 {
                    held.push(feed.obtain().expect("iteration"));
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
    fn recycle_and_finish_wake_the_parked_producer() {
        with_watchdog(|| {
            let (mut feed, pool) = feed_at(2);
            // The consumer holds both credits: the producer samples
            // iteration 2 and parks on the gate.
            let it0 = feed.obtain().expect("iteration 0");
            let it1 = feed.obtain().expect("iteration 1");
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(
                feed.buffered(),
                0,
                "nothing gathers while every credit is held"
            );
            // A recycle returns a credit and wakes the producer.
            it0.recycle(&pool);
            wait_buffered(&feed, 1);
            // The producer parks again, on iteration 3, while the
            // consumer still holds iteration 1. `finish` must wake it
            // from the gate, or its join never returns.
            let credits = Arc::clone(feed.credits());
            feed.finish();
            assert_eq!(credits.held(), 1, "only the consumer's credit is left");
            it1.recycle(&pool);
            assert_eq!(credits.held(), 0, "credits held after finish");
        });
    }

    #[test]
    fn prepare_is_deterministic_and_pool_independent() {
        let (ctx, order) = ctx();
        let pool = MatrixPool::new();
        let threads = ThreadAlloc::default_for(8);
        let a = prepare_iteration(&ctx, &order, 0, 1, &even(16), &threads, &pool).unwrap();
        // poison the pool's feature roles with stale buffers
        pool.release(0, randn(200, 3, 1));
        pool.release(1, Matrix::full(1, 1, f32::NAN));
        pool.release(2, Matrix::full(7, 7, f32::NAN));
        let b = prepare_iteration(&ctx, &order, 0, 1, &even(16), &threads, &pool).unwrap();
        assert_eq!(a.seed_sets, b.seed_sets);
        assert_eq!(a.plan, b.plan);
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
        let threads = ThreadAlloc::default_for(8);
        let q = order.len() / 2 + 1;
        let split = WorkloadSplit::new(q, 2 * q, 1); // 1 iteration consumes all
        assert!(prepare_iteration(&ctx, &order, 0, 0, &split, &threads, &pool).is_some());
        assert!(prepare_iteration(&ctx, &order, 0, 1, &split, &threads, &pool).is_none());
    }

    #[test]
    fn feed_pipelined_matches_serial_across_depths() {
        // A scripted balance_work after iteration 0 and a balance_thread
        // after iteration 1: the producer prepares iteration 1 under the
        // moved quotas and iteration 2 at the moved widths, at every
        // depth exactly as inline.
        let schedule = vec![
            ScriptedDrmEvent {
                epoch: 0,
                iter: 0,
                action: ScriptedDrm::BalanceWork { to_cpu: 4 },
            },
            ScriptedDrmEvent {
                epoch: 0,
                iter: 1,
                action: ScriptedDrm::BalanceThread {
                    from: Stage::TrainCpu,
                    to: Stage::Load,
                },
            },
        ];
        let feed = |depth: usize| {
            let (ctx, order) = ctx_over(
                Dataset::toy(5),
                ThreadAlloc::default_for(8),
                schedule.clone(),
            );
            feed_over(ctx, order, depth)
        };
        for depth in [1usize, 2, 3] {
            let (mut serial, serial_pool) = feed(0);
            let (mut piped, piped_pool) = feed(depth);
            let mut iter = 0;
            loop {
                match (serial.obtain(), piped.obtain()) {
                    (Some(a), Some(b)) => {
                        assert_eq!((a.iter, b.iter), (iter, iter));
                        assert_eq!(a.seed_sets, b.seed_sets);
                        assert_eq!(a.threads, b.threads);
                        assert_eq!(a.plan, b.plan);
                        for (x, y) in a.features.iter().zip(&b.features) {
                            if let (Some(x), Some(y)) = (x, y) {
                                assert_eq!(x.as_slice(), y.as_slice());
                            }
                        }
                        assert_eq!(a.seed_sets[0].len(), if iter == 0 { 8 } else { 12 });
                        assert_eq!(b.threads.loader, if iter < 2 { 2 } else { 3 });
                        assert!(b.credit.is_some(), "a pipelined iteration holds a credit");
                        a.recycle(&serial_pool);
                        b.recycle(&piped_pool);
                    }
                    (None, None) => break,
                    _ => panic!("serial and pipelined feeds disagree on epoch length"),
                }
                iter += 1;
            }
            assert!(iter >= 3, "epoch too short to exercise the pipeline");
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
        let (feed, pool) = feed_at(2);
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
        let split = WorkloadSplit::new(24, 32, 2); // quotas [24, 4, 4]
        let threads = ThreadAlloc::default_for(8);
        for iter in 0..3 {
            let a = prepare_iteration(&ctx, &order, 0, iter, &split, &threads, &fresh).unwrap();
            let b = prepare_iteration(&ctx, &order, 0, iter, &split, &threads, &pool).unwrap();
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
        let (ctx, order) = ctx_over(dataset, alloc, Vec::new());
        let pool = MatrixPool::new();
        let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prepare_iteration(&ctx, &order, 0, 0, &even(8), &alloc, &pool).map(|p| p.iter)
        }));
        let gather_message = panic_text(inline.expect_err("the gather must fail"));
        let (mut feed, _pool) = feed_over(ctx, order, 2);
        let piped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            feed.obtain().map(|p| p.iter)
        }));
        let message =
            panic_text(piped.expect_err("a dead producer must not read as the epoch's end"));
        assert_eq!(message, gather_message);
    }
}
