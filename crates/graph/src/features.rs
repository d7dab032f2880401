//! CPU-resident vertex features and labels.
//!
//! The feature matrix `X` is stored in CPU memory (paper §III-B step 2:
//! "an input feature matrix X is too large to fit in the device memory
//! for large-scale graphs"). The Feature Loader gathers sampled rows into
//! the mini-batch matrix `X'`.

use crate::csr::CsrGraph;
use hyscale_tensor::init::randn;
use hyscale_tensor::quant::{WireBatch, WireFeatures};
use hyscale_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Vertex features plus labels, the trainable payload of a dataset.
#[derive(Clone)]
pub struct VertexData {
    /// `|V| × f0` feature matrix, row `v` = features of vertex `v`.
    pub features: Matrix,
    /// Class label per vertex.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
}

impl VertexData {
    /// Pure-noise features with uniform random labels (stress testing).
    pub fn random(num_vertices: usize, feat_dim: usize, num_classes: usize, seed: u64) -> Self {
        let features = randn(num_vertices, feat_dim, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let labels = (0..num_vertices)
            .map(|_| rng.gen_range(0..num_classes) as u32)
            .collect();
        Self {
            features,
            labels,
            num_classes,
        }
    }

    /// Features correlated with planted community labels: class `c` gets a
    /// distinct random mean vector, vertices get `mean[label] + noise`.
    /// This is what makes the convergence tests meaningful — the signal is
    /// recoverable, like the community structure in ogbn-products.
    pub fn from_labels(
        labels: &[u32],
        num_classes: usize,
        feat_dim: usize,
        signal: f32,
        seed: u64,
    ) -> Self {
        let means = randn(num_classes, feat_dim, seed);
        let noise = randn(labels.len(), feat_dim, seed ^ 0xabcd_ef01);
        let mut features = noise;
        features
            .as_mut_slice()
            .par_chunks_mut(feat_dim)
            .zip(labels.par_iter())
            .for_each(|(row, &label)| {
                let mean = means.row(label as usize);
                for (v, m) in row.iter_mut().zip(mean) {
                    *v += signal * *m;
                }
            });
        Self {
            features,
            labels: labels.to_vec(),
            num_classes,
        }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.features.rows()
    }

    /// Feature dimension `f0`.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// Size of the feature matrix in bytes (CPU-memory footprint).
    pub fn nbytes(&self) -> usize {
        self.features.nbytes() + self.labels.len() * 4
    }
}

/// Train/validation/test vertex splits.
#[derive(Clone, Debug)]
pub struct Splits {
    /// Training vertex ids.
    pub train: Vec<u32>,
    /// Validation vertex ids.
    pub val: Vec<u32>,
    /// Test vertex ids.
    pub test: Vec<u32>,
}

impl Splits {
    /// Deterministic shuffled split by fractions (must sum to ≤ 1).
    ///
    /// # Panics
    /// If fractions are negative or sum above 1.
    pub fn random(num_vertices: usize, train_frac: f64, val_frac: f64, seed: u64) -> Self {
        assert!(train_frac >= 0.0 && val_frac >= 0.0 && train_frac + val_frac <= 1.0);
        let mut ids: Vec<u32> = (0..num_vertices as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        // Fisher-Yates
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        let n_train = (num_vertices as f64 * train_frac).round() as usize;
        let n_val = (num_vertices as f64 * val_frac).round() as usize;
        let train = ids[..n_train].to_vec();
        let val = ids[n_train..(n_train + n_val).min(ids.len())].to_vec();
        let test = ids[(n_train + n_val).min(ids.len())..].to_vec();
        Self { train, val, test }
    }
}

/// Parallel feature gather: `X' = X[indices, :]` using Rayon over output
/// rows. This is the *Feature Loading* stage kernel (paper Fig. 4 stage 2);
/// its measured byte volume drives Eq. 7 of the performance model.
pub fn gather_features(x: &Matrix, indices: &[u32]) -> Matrix {
    let dim = x.cols();
    let mut out = Matrix::uninit(indices.len(), dim);
    out.as_mut_slice()
        .par_chunks_mut(dim)
        .zip(indices.par_iter())
        .for_each(|(dst, &src)| {
            dst.copy_from_slice(x.row(src as usize));
        });
    out
}

/// One output of [`gather_jobs_into`]: rows `indices` of `wire`'s
/// view of `X`, written into `out` as `wire` stores them.
pub struct GatherJob<'a> {
    /// Reshaped to `indices.len() × f0` at `wire`'s precision and
    /// overwritten.
    pub out: &'a mut WireBatch,
    /// The view the rows are copied from.
    pub wire: &'a WireFeatures,
    /// Source rows, in output order.
    pub indices: &'a [u32],
}

/// Gather several outputs from wire views in one dispatch: each job's
/// `out` receives rows `indices` of its `wire` view of `x`, copied as
/// stored. [`WireFeatures::Host`] copies f32 rows of `x`; an int8 view
/// copies the packed int8 rows with their per-row `(scale, offset)`, and
/// an f16 view its binary16 bits. Nothing is decoded: layer 0 decodes
/// each element as its aggregation reads it (see `hyscale_tensor::quant`),
/// which gives bitwise what gathering from `x` and then running
/// `Precision::round_trip_in_place` on the result gives.
///
/// The jobs' rows are treated as one concatenated row range that
/// `group` splits contiguously by count, so its threads share the rows
/// of all outputs instead of taking whole outputs each. Every output row
/// is written exactly once, so the result is the same for any group
/// width and any grouping of the jobs into calls.
///
/// # Panics
/// If an index lies past the end of `x`.
pub fn gather_jobs_into(jobs: &mut [GatherJob<'_>], x: &Matrix, group: &rayon::WorkerGroup) {
    let dim = x.cols();
    let views: Vec<_> = jobs.iter().map(|job| job.wire.view(x)).collect();
    // starts[j] is job j's first row in the concatenated range
    let mut starts = Vec::with_capacity(jobs.len() + 1);
    let mut total = 0;
    for (job, view) in jobs.iter_mut().zip(&views) {
        job.out.reshape(view.precision(), job.indices.len(), dim);
        starts.push(total);
        total += job.indices.len();
    }
    starts.push(total);
    let indices: Vec<&[u32]> = jobs.iter().map(|job| job.indices).collect();
    let fills: Vec<_> = jobs.iter_mut().map(|job| job.out.row_fill()).collect();
    group.run(total, |s, e| {
        let mut j = starts.partition_point(|&start| start <= s) - 1;
        let mut row = s;
        while row < e {
            let end = e.min(starts[j + 1]);
            for (r, &src) in indices[j][row - starts[j]..end - starts[j]]
                .iter()
                .enumerate()
            {
                // SAFETY: output row `row - starts[j] + r` of job `j` is
                // concatenated row `row + r`, which lies in exactly one
                // dispatched sub-range, so it has a unique writer.
                unsafe { fills[j].copy_row(row - starts[j] + r, views[j], src as usize) };
            }
            row = end;
            j += 1;
        }
    });
}

/// Sanity check: every vertex with at least one edge has a feature row.
pub fn check_coverage(graph: &CsrGraph, data: &VertexData) -> bool {
    graph.num_vertices() == data.num_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that set `HYSCALE_RAYON_THREADS`.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Holds `HYSCALE_RAYON_THREADS` set until dropped, then restores
    /// the value it had before (such as one set for the whole run).
    struct HostThreads {
        previous: Option<std::ffi::OsString>,
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for HostThreads {
        fn drop(&mut self) {
            match self.previous.take() {
                Some(value) => std::env::set_var("HYSCALE_RAYON_THREADS", value),
                None => std::env::remove_var("HYSCALE_RAYON_THREADS"),
            }
        }
    }

    /// Force `rayon::host_threads() == n` until the returned guard drops.
    fn host_threads_override(n: usize) -> HostThreads {
        let lock = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let previous = std::env::var_os("HYSCALE_RAYON_THREADS");
        std::env::set_var("HYSCALE_RAYON_THREADS", n.to_string());
        HostThreads {
            previous,
            _lock: lock,
        }
    }

    /// [`gather_jobs_into`] with a single job.
    fn gather_one(
        out: &mut WireBatch,
        wire: &WireFeatures,
        x: &Matrix,
        indices: &[u32],
        group: &rayon::WorkerGroup,
    ) {
        let mut jobs = [GatherJob { out, wire, indices }];
        gather_jobs_into(&mut jobs, x, group);
    }

    #[test]
    fn random_data_shapes() {
        let d = VertexData::random(50, 16, 4, 1);
        assert_eq!(d.num_vertices(), 50);
        assert_eq!(d.feat_dim(), 16);
        assert!(d.labels.iter().all(|&l| l < 4));
    }

    #[test]
    fn from_labels_is_separable() {
        let labels: Vec<u32> = (0..100).map(|i| (i % 2) as u32).collect();
        let d = VertexData::from_labels(&labels, 2, 8, 3.0, 7);
        // class means should differ: compare centroid distance to noise scale
        let mut c0 = vec![0.0f32; 8];
        let mut c1 = vec![0.0f32; 8];
        for (v, &label) in labels.iter().enumerate() {
            let row = d.features.row(v);
            let c = if label == 0 { &mut c0 } else { &mut c1 };
            for (acc, x) in c.iter_mut().zip(row) {
                *acc += x / 50.0;
            }
        }
        let dist: f32 = c0
            .iter()
            .zip(&c1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "class centroids too close: {dist}");
    }

    #[test]
    fn splits_partition_vertices() {
        let s = Splits::random(100, 0.6, 0.2, 3);
        assert_eq!(s.train.len(), 60);
        assert_eq!(s.val.len(), 20);
        assert_eq!(s.test.len(), 20);
        let mut all: Vec<u32> = s
            .train
            .iter()
            .chain(&s.val)
            .chain(&s.test)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn splits_deterministic() {
        let a = Splits::random(50, 0.5, 0.25, 9);
        let b = Splits::random(50, 0.5, 0.25, 9);
        assert_eq!(a.train, b.train);
    }

    #[test]
    fn gather_matches_serial() {
        let x = randn(40, 6, 2);
        let idx = vec![5, 0, 39, 5];
        let g = gather_features(&x, &idx);
        let serial = x.gather_rows(&idx);
        assert_eq!(g.as_slice(), serial.as_slice());
    }

    #[test]
    fn job_gather_matches_gather_features_at_every_width() {
        let x = randn(97, 9, 11);
        let idx: Vec<u32> = (0..300).map(|i| (i * 31) % 97).collect();
        let reference = gather_features(&x, &idx);
        for width in [1usize, 2, 5, 16] {
            let group = rayon::WorkerGroup::new("loader", width);
            let mut out = WireBatch::F32(Matrix::full(10, 2, f32::NAN)); // stale shape + contents
            gather_one(&mut out, &WireFeatures::Host, &x, &idx, &group);
            assert_eq!(
                out,
                WireBatch::F32(reference.clone()),
                "gather diverged at width {width}"
            );
        }
    }

    #[test]
    fn wire_gather_equals_round_trip_of_a_gather() {
        use hyscale_tensor::Precision;
        let mut x = randn(61, 9, 17);
        x.row_mut(3)[4] = f32::NAN;
        x.row_mut(10)[0] = f32::INFINITY;
        x.row_mut(11)[8] = f32::NEG_INFINITY;
        x.row_mut(20).fill(-1.25);
        x.row_mut(40).fill(0.0);
        x.row_mut(41)[2] = -0.0;
        let mut idx: Vec<u32> = (0..200).map(|i| (i * 29) % 61).collect();
        idx.extend([3, 3, 10, 11, 20, 40, 41, 41]); // repeats and awkward rows
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            let wire = WireFeatures::build(p, &x);
            let mut expected = gather_features(&x, &idx);
            p.round_trip_in_place(&mut expected);
            for width in [1usize, 4] {
                let group = rayon::WorkerGroup::new("loader", width);
                // stale shape, contents and precision
                let mut out = WireBatch::F32(Matrix::full(5, 2, f32::NAN));
                gather_one(&mut out, &wire, &x, &idx, &group);
                assert_eq!(out.view().precision(), p, "the batch stays packed");
                assert_eq!(
                    bits(&out.view().decode()),
                    bits(&expected),
                    "{p:?} view gather diverged at width {width}"
                );
            }
        }
    }

    #[test]
    fn a_row_past_the_matrix_panics_on_the_loader_worker_with_its_message() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let text = |payload: Box<dyn std::any::Any + Send>| match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(String::new, |msg| msg.to_string()),
        };
        let x = randn(4, 3, 1);
        // what reading source row 9 raises on the calling thread
        let expected =
            text(catch_unwind(|| gather_features(&x, &[9])).expect_err("row 9 is missing"));
        // 16 rows on 4 real threads: rows 12..16 run on the last spawned
        // worker, so the panic must cross the join to reach the caller.
        let _threads = host_threads_override(4);
        let mut idx: Vec<u32> = (0..16).map(|i| i % 4).collect();
        idx[14] = 9;
        let group = rayon::WorkerGroup::new("loader", 4);
        let mut out = WireBatch::default();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            gather_one(&mut out, &WireFeatures::Host, &x, &idx, &group)
        }))
        .expect_err("a row past the matrix must not be skipped");
        assert_eq!(text(payload), expected);
        assert_ne!(expected, "a scoped thread panicked");
    }

    #[test]
    fn gather_matches_under_forced_concurrency() {
        // On a 1-core host every dispatch degrades to the inline path;
        // force 4 real threads so the disjoint-write SAFETY argument is
        // actually exercised concurrently. Sibling tests are
        // width-independent, so the transient override is harmless.
        let _threads = host_threads_override(4);
        let x = randn(256, 7, 23);
        let idx: Vec<u32> = (0..1200).map(|i| (i * 53) % 256).collect();
        let group = rayon::WorkerGroup::new("loader", 4);
        let mut out = WireBatch::default();
        gather_one(&mut out, &WireFeatures::Host, &x, &idx, &group);
        assert_eq!(out, WireBatch::F32(gather_features(&x, &idx)));
    }

    #[test]
    fn one_dispatch_over_many_jobs_matches_separate_gathers() {
        use hyscale_tensor::Precision;
        let _threads = host_threads_override(3);
        let x = randn(90, 5, 41);
        let int8 = WireFeatures::build(Precision::Int8, &x);
        // uneven jobs with an empty one among them
        let index_sets: Vec<Vec<u32>> = vec![
            (0..700).map(|i| (i * 17) % 90).collect(),
            Vec::new(),
            (0..31).map(|i| (i * 5) % 40).collect(),
            vec![89, 0, 89],
            (0..260).map(|i| (i * 11) % 45).collect(),
        ];
        let wires = [
            &int8,
            &WireFeatures::Host,
            &int8,
            &WireFeatures::Host,
            &int8,
        ];
        let expected: Vec<WireBatch> = index_sets
            .iter()
            .zip(wires)
            .map(|(idx, wire)| {
                let mut m = WireBatch::default();
                let group = rayon::WorkerGroup::new("loader", 1);
                gather_one(&mut m, wire, &x, idx, &group);
                m
            })
            .collect();
        for width in [1usize, 2, 3, 8] {
            let group = rayon::WorkerGroup::new("loader", width);
            let mut outs: Vec<WireBatch> = (0..5)
                .map(|k| WireBatch::F32(Matrix::full(k + 2, 3, f32::NAN)))
                .collect();
            let mut jobs: Vec<GatherJob<'_>> = outs
                .iter_mut()
                .zip(&index_sets)
                .zip(wires)
                .map(|((out, indices), wire)| GatherJob { out, wire, indices })
                .collect();
            gather_jobs_into(&mut jobs, &x, &group);
            for (k, (got, want)) in outs.iter().zip(&expected).enumerate() {
                assert_eq!(got.shape(), want.shape(), "job {k}");
                let bits = |b: &WireBatch| {
                    let m = b.view().decode();
                    m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(got.view().precision(), want.view().precision(), "job {k}");
                assert_eq!(bits(got), bits(want), "job {k} diverged at width {width}");
            }
        }
    }

    #[test]
    fn gather_more_threads_than_rows() {
        let _threads = host_threads_override(8);
        let x = randn(3, 4, 5);
        let idx = vec![2, 0, 1, 2];
        let group = rayon::WorkerGroup::new("loader", 8);
        let mut out = WireBatch::default();
        gather_one(&mut out, &WireFeatures::Host, &x, &idx, &group);
        assert_eq!(out, WireBatch::F32(gather_features(&x, &idx)));
    }

    #[test]
    fn coverage_check() {
        let g = CsrGraph::empty(10);
        let d = VertexData::random(10, 4, 2, 0);
        assert!(check_coverage(&g, &d));
        let d2 = VertexData::random(9, 4, 2, 0);
        assert!(!check_coverage(&g, &d2));
    }
}
