//! CPU-resident vertex features and labels.
//!
//! The feature matrix `X` is stored in CPU memory (paper §III-B step 2:
//! "an input feature matrix X is too large to fit in the device memory
//! for large-scale graphs"). The Feature Loader gathers sampled rows into
//! the mini-batch matrix `X'`.

use crate::csr::CsrGraph;
use hyscale_tensor::init::randn;
use hyscale_tensor::quant::WireFeatures;
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
    let mut out = Matrix::uninit(indices.len(), x.cols());
    gather_features_into(&mut out, x, indices);
    out
}

/// Allocation-free variant of [`gather_features`]: reshape `out` (reusing
/// its buffer) and gather `X[indices, :]` into it. With a recycled
/// matrix pool, steady-state training iterations perform zero
/// feature-matrix allocations — the prefetching executor's hot path.
///
/// Produces bitwise-identical contents to [`gather_features`] for the
/// same `(x, indices)` regardless of the previous contents of `out`.
pub fn gather_features_into(out: &mut Matrix, x: &Matrix, indices: &[u32]) {
    let dim = x.cols();
    out.resize(indices.len(), dim);
    out.as_mut_slice()
        .par_chunks_mut(dim)
        .zip(indices.par_iter())
        .for_each(|(dst, &src)| {
            dst.copy_from_slice(x.row(src as usize));
        });
}

/// Row-ownership histogram of a gather: how many of `indices` fall in
/// each of `num_domains` contiguous row domains of `rows_per_domain`
/// source rows. This is the weight vector the NUMA gather hands to
/// [`rayon::WorkerGroup::run_sharded_weighted`] so each socket's thread
/// share matches the rows it actually serves — a cheap `O(n)` count
/// folded into the loading stage.
pub fn domain_histogram(indices: &[u32], rows_per_domain: usize, num_domains: usize) -> Vec<usize> {
    let mut hist = vec![0usize; num_domains];
    for &src in indices {
        let d = (src as usize / rows_per_domain).min(num_domains - 1);
        hist[d] += 1;
    }
    hist
}

/// NUMA-aware variant of [`gather_features_into`], read through a wire
/// view: `out = round_trip(X)[indices, :]`, each row decoded from
/// `wire` (built from `x`; [`WireFeatures::Host`] copies `x` as is) as
/// it is copied. The round-trip is per row, so this is bitwise what
/// gathering from `x` and then running `Precision::round_trip_in_place`
/// on the result gives (see `hyscale_tensor::quant`).
///
/// The source matrix `X` is modeled as range-partitioned across
/// `num_domains` sockets (contiguous row domains, the dual-socket layout
/// of the paper's evaluation node), and the gather is dispatched through
/// `group` so each socket's rows are copied by the worker threads pinned
/// to that socket — with per-socket thread shares weighted by the
/// sampled rows' ownership histogram ([`domain_histogram`] +
/// [`rayon::WorkerGroup::run_sharded_weighted`]), so a batch whose rows
/// skew heavily to one socket gives that socket's pool the threads
/// instead of idling the other socket's fair share.
///
/// Every owning domain's threads sweep the full output range but copy
/// only the rows whose *source* vertex lives in their domain (a domain
/// owning no sampled rows is skipped outright), so each output row is
/// written exactly once and the result is the same for any
/// `(num_domains, group width)` and any skew.
pub fn gather_wire_numa_into(
    out: &mut Matrix,
    wire: &WireFeatures,
    x: &Matrix,
    indices: &[u32],
    num_domains: usize,
    group: &rayon::WorkerGroup,
) {
    let dim = x.cols();
    out.resize(indices.len(), dim);
    if num_domains <= 1 {
        // Flat memory model: one parallel sweep at this group's width.
        group.install(|| {
            out.as_mut_slice()
                .par_chunks_mut(dim)
                .zip(indices.par_iter())
                .for_each(|(dst, &src)| wire.read_row(x, src as usize, dst));
        });
        return;
    }
    // Contiguous range partition of X's rows: socket d owns rows
    // [d*per, (d+1)*per).
    let per = x.rows().div_ceil(num_domains).max(1);
    let hist = domain_histogram(indices, per, num_domains);
    let base = out.as_mut_slice().as_mut_ptr() as usize;
    group.run_sharded_weighted(indices.len(), &hist, |d, s, e| {
        for (i, &src) in indices[s..e].iter().enumerate() {
            // clamped like the histogram, so an index past the matrix
            // reaches the last socket's `read_row` and panics there
            // instead of leaving its output row unwritten
            if (src as usize / per).min(num_domains - 1) != d {
                continue; // row owned by another socket's workers
            }
            // SAFETY: source vertex `src` belongs to exactly one domain
            // and output index `s + i` to exactly one sub-range of that
            // domain, so this row has a unique writer; `out` outlives
            // the scoped threads inside the dispatch.
            let dst = unsafe {
                std::slice::from_raw_parts_mut((base as *mut f32).add((s + i) * dim), dim)
            };
            wire.read_row(x, src as usize, dst);
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
    fn gather_into_reuses_buffer_and_matches() {
        let x = randn(64, 12, 4);
        let mut out = Matrix::full(200, 12, f32::NAN); // stale contents
        let cap = out.capacity();
        let idx: Vec<u32> = (0..150).map(|i| (i * 13) % 64).collect();
        gather_features_into(&mut out, &x, &idx);
        assert_eq!(
            out.capacity(),
            cap,
            "gather_into must not reallocate within capacity"
        );
        let fresh = gather_features(&x, &idx);
        assert_eq!(
            out.as_slice(),
            fresh.as_slice(),
            "stale buffer leaked into gather"
        );
    }

    #[test]
    fn numa_gather_matches_flat_for_all_domain_counts_and_widths() {
        let x = randn(97, 9, 11);
        let idx: Vec<u32> = (0..300).map(|i| (i * 31) % 97).collect();
        let reference = gather_features(&x, &idx);
        for domains in [1usize, 2, 3, 8] {
            for width in [1usize, 2, 5, 16] {
                let group = rayon::WorkerGroup::new("loader", width);
                let mut out = Matrix::full(10, 2, f32::NAN); // stale shape + contents
                gather_wire_numa_into(&mut out, &WireFeatures::Host, &x, &idx, domains, &group);
                assert_eq!(
                    out.as_slice(),
                    reference.as_slice(),
                    "NUMA gather diverged at {domains} domains, width {width}"
                );
            }
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
            for domains in [1usize, 2, 3] {
                for width in [1usize, 4] {
                    let group = rayon::WorkerGroup::new("loader", width);
                    let mut out = Matrix::full(5, 2, f32::NAN); // stale shape + contents
                    gather_wire_numa_into(&mut out, &wire, &x, &idx, domains, &group);
                    assert_eq!(
                        bits(&out),
                        bits(&expected),
                        "{p:?} view gather diverged at {domains} domains, width {width}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn numa_gather_rejects_indices_past_the_matrix() {
        // used to skip such rows silently, leaving stale output behind
        let x = randn(4, 3, 1);
        let group = rayon::WorkerGroup::new("loader", 1);
        let mut out = Matrix::uninit(0, 0);
        gather_wire_numa_into(&mut out, &WireFeatures::Host, &x, &[1, 9, 2], 2, &group);
    }

    #[test]
    fn numa_gather_matches_under_forced_concurrency() {
        // On a 1-core host every dispatch degrades to the inline path;
        // force 4 real threads so the disjoint-write SAFETY argument is
        // actually exercised concurrently. Sibling tests are
        // width-independent, so the transient override is harmless.
        std::env::set_var("HYSCALE_RAYON_THREADS", "4");
        let x = randn(256, 7, 23);
        let idx: Vec<u32> = (0..1200).map(|i| (i * 53) % 256).collect();
        let reference = gather_features(&x, &idx);
        for domains in [1usize, 2, 4] {
            let group = rayon::WorkerGroup::new("loader", 4);
            let mut out = Matrix::uninit(0, 0);
            gather_wire_numa_into(&mut out, &WireFeatures::Host, &x, &idx, domains, &group);
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "concurrent NUMA gather diverged at {domains} domains"
            );
        }
        std::env::remove_var("HYSCALE_RAYON_THREADS");
    }

    #[test]
    fn domain_histogram_pins_the_skewed_split() {
        // 97 source rows over 2 domains: per = 49, domain 0 = rows 0..49
        let skewed: Vec<u32> = (0..300).map(|i| (i * 7) % 49).collect();
        let hist = domain_histogram(&skewed, 49, 2);
        assert_eq!(hist, vec![300, 0], "all rows owned by socket 0");
        // the weighted split hands socket 0 every loader thread
        assert_eq!(rayon::weighted_shares(8, &hist), vec![8, 0]);
        // 3:1 skew pins a 3:1 thread share (the ROADMAP skew case)
        let mixed: Vec<u32> = (0..400)
            .map(|i| if i % 4 == 0 { 60 } else { i as u32 % 49 })
            .collect();
        let hist = domain_histogram(&mixed, 49, 2);
        assert_eq!(hist, vec![300, 100]);
        assert_eq!(rayon::weighted_shares(8, &hist), vec![6, 2]);
    }

    #[test]
    fn numa_gather_matches_flat_under_heavy_skew() {
        // Every sampled row lives on socket 0: the weighted dispatch
        // skips socket 1 entirely and must still be bitwise-identical.
        std::env::set_var("HYSCALE_RAYON_THREADS", "4");
        let x = randn(128, 6, 31);
        let skewed: Vec<u32> = (0..500).map(|i| (i * 13) % 64).collect(); // rows 0..64
        let reference = gather_features(&x, &skewed);
        for domains in [2usize, 4] {
            let group = rayon::WorkerGroup::new("loader", 4);
            let mut out = Matrix::full(3, 3, f32::NAN);
            gather_wire_numa_into(&mut out, &WireFeatures::Host, &x, &skewed, domains, &group);
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "skewed NUMA gather diverged at {domains} domains"
            );
        }
        std::env::remove_var("HYSCALE_RAYON_THREADS");
    }

    #[test]
    fn numa_gather_more_domains_than_rows() {
        let x = randn(3, 4, 5);
        let idx = vec![2, 0, 1, 2];
        let group = rayon::WorkerGroup::new("loader", 4);
        let mut out = Matrix::uninit(0, 0);
        gather_wire_numa_into(&mut out, &WireFeatures::Host, &x, &idx, 8, &group);
        assert_eq!(out.as_slice(), gather_features(&x, &idx).as_slice());
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
