//! Feature aggregation kernels over mini-batch blocks.
//!
//! Aggregation is a sparse linear operator `A = C · H_src` where `C` is
//! the (coefficient-weighted) incidence of the sampled bipartite layer;
//! its backward pass is the transpose `∂H_src = Cᵀ · ∂A`. Keeping both
//! directions as explicit kernels makes the semantics testable (the FPGA
//! kernel simulator must produce identical results) and mirrors the
//! paper's scatter-gather hardware design (§IV-C).
//!
//! ## The forward kernel
//!
//! Every forward aggregation — GCN, GIN and SAGE's mean, at every layer
//! — runs one destination-segmented kernel ([`aggregate`]). A stable
//! counting sort by `edge_dst` groups each destination's edges, in their
//! original order; the neighbor sampler already emits edges in that
//! order, so there the sort is the identity and copies nothing. The
//! kernel then walks one destination at a time, accumulating straight
//! into that destination's output row, and prefetches the source row a
//! fixed number of edges ahead: the source rows are random reads, and
//! aggregation is bound by them.
//!
//! Each output element sees the same rounded operations in the same
//! order as the edge-order scatter it replaced — the self-loop product
//! first (or `+0.0` for the mean), then one product and one add per
//! edge in edge order, then the mean's scale — so every layer, sampler
//! and edge order gives the scatter's bits. Like the GEMMs, the kernel
//! is compiled twice, portable and with AVX2 enabled, picked per call by
//! `is_x86_feature_detected!`; Rust never fuses a multiply and an add,
//! so both arms give the same bits. It takes a destination range, so a
//! caller can split the destinations across workers without touching the
//! inner loop.
//!
//! Layer 0 reads its input through [`WireRows`]: host f32 rows, or an
//! accelerator batch still packed at wire precision (int8 with per-row
//! `(scale, offset)`, or binary16). Packed elements are decoded inside
//! the accumulation loop by the shared decoders of `hyscale_tensor::quant`,
//! so the result is bitwise the aggregation of the decoded copy.

use hyscale_sampler::Block;
use hyscale_tensor::quant::{f16_to_f32, int8_decode, HalfMatrix, QuantizedMatrix, WireRows};
use hyscale_tensor::Matrix;
use std::borrow::Cow;
use std::ops::Range;

/// Edges ahead of the one being accumulated whose source row the
/// kernel prefetches. On sampled GraphSAGE layer-0 blocks (f0 = 100,
/// 320 and 1280 seeds, 2-vCPU VM) distances from 8 to 32 timed alike,
/// and no prefetch took about 1.4× as long.
const PREFETCH_AHEAD: usize = 32;

/// Pre-computed GCN normalisation coefficients for one block.
///
/// GCN (paper Eq. 3) weighs the contribution of `u → v` by
/// `1/√(D(v)·D(u))`. In mini-batch training the degrees are the
/// *in-batch sampled* degrees (plus one for the implicit self-loop),
/// the standard mini-batch approximation.
#[derive(Clone, Debug)]
pub struct GcnCoefficients {
    /// Per-edge coefficient, aligned with `block.edge_src/edge_dst`.
    pub edge: Vec<f32>,
    /// Per-destination self-loop coefficient.
    pub self_loop: Vec<f32>,
}

impl GcnCoefficients {
    /// Unnormalised sum aggregation with a weighted self-loop — the GIN
    /// aggregator (`a_v = (1+ε)·h_v + Σ h_u`, Xu et al. 2019). With
    /// `eps = 0` this is GIN-0.
    pub fn gin(block: &Block, eps: f32) -> Self {
        Self {
            edge: vec![1.0; block.num_edges()],
            self_loop: vec![1.0 + eps; block.num_dst],
        }
    }

    /// Compute symmetric-normalised coefficients from in-batch degrees.
    pub fn from_block(block: &Block) -> Self {
        let deg_dst = block.dst_in_degrees();
        let deg_src = block.src_out_degrees();
        let norm_dst: Vec<f32> = deg_dst
            .iter()
            .map(|&d| 1.0 / ((d as f32 + 1.0).sqrt()))
            .collect();
        let norm_src: Vec<f32> = deg_src
            .iter()
            .map(|&d| 1.0 / ((d as f32 + 1.0).sqrt()))
            .collect();
        let edge = block
            .edge_src
            .iter()
            .zip(&block.edge_dst)
            .map(|(&s, &d)| norm_src[s as usize] * norm_dst[d as usize])
            .collect();
        // self loop: treat v as its own source; v < num_dst <= num_src
        let self_loop = (0..block.num_dst)
            .map(|v| norm_src[v] * norm_dst[v])
            .collect();
        Self { edge, self_loop }
    }
}

/// GCN aggregation: `a_d = c_self(d)·h_d + Σ_{(s,d)∈E} c(s,d)·h_s`.
///
/// Accumulation is in edge order, matching the FPGA simulator, so results
/// are bit-identical across devices.
///
/// # Panics
/// If shapes disagree with the block.
pub fn aggregate_gcn(block: &Block, h_src: &Matrix, coef: &GcnCoefficients) -> Matrix {
    aggregate(block, h_src.into(), Some(coef))
}

/// Mean aggregation: `m_d = (1/|N(d)|) Σ_{(s,d)∈E} h_s` (zero row when a
/// destination sampled no neighbours). The neighbour half of GraphSAGE
/// (paper Eq. 4).
///
/// # Panics
/// If shapes disagree with the block.
pub fn aggregate_mean(block: &Block, h_src: &Matrix) -> Matrix {
    aggregate(block, h_src.into(), None)
}

/// Forward aggregation of the layer input `src` over `block`: the
/// weighted sum with self-loop of [`aggregate_gcn`] when `coef` is given
/// (GCN, GIN), the mean of [`aggregate_mean`] when it is `None` (SAGE).
/// Packed wire rows are decoded element by element as they are read,
/// giving bitwise the aggregation of their decoded f32 copy.
///
/// # Panics
/// If shapes disagree with the block.
pub fn aggregate(block: &Block, src: WireRows<'_>, coef: Option<&GcnCoefficients>) -> Matrix {
    aggregate_on(Avx2::detect(), block, src, coef)
}

/// [`aggregate`] on the arm `avx2` selects.
fn aggregate_on(
    avx2: Option<Avx2>,
    block: &Block,
    src: WireRows<'_>,
    coef: Option<&GcnCoefficients>,
) -> Matrix {
    assert_eq!(src.rows(), block.num_src, "h_src rows must equal num_src");
    if let Some(coef) = coef {
        assert_eq!(coef.edge.len(), block.num_edges());
        assert_eq!(coef.self_loop.len(), block.num_dst);
    }
    let plan = Segments::of(block, coef);
    let mut out = Matrix::uninit(block.num_dst, src.cols());
    let dsts = 0..block.num_dst;
    let o = out.as_mut_slice();
    match src {
        WireRows::F32(m) => aggregate_dsts(avx2, m, &plan, dsts, o),
        WireRows::F16(h) => aggregate_dsts(avx2, h, &plan, dsts, o),
        WireRows::Int8(q) => aggregate_dsts(avx2, q, &plan, dsts, o),
    }
    out
}

/// A block's edges grouped by destination, each group in original edge
/// order (a stable counting sort by `edge_dst`): destination `d`'s
/// edges are positions `offsets[d]..offsets[d + 1]` of `srcs` (and of
/// the per-edge coefficients). Blocks whose edges already come in that
/// order — every neighbor-sampled block — borrow their arrays as they
/// are.
struct Segments<'a> {
    offsets: Vec<usize>,
    srcs: Cow<'a, [u32]>,
    /// GCN/GIN: per-edge and self-loop coefficients (None for the mean).
    coef: Option<(Cow<'a, [f32]>, &'a [f32])>,
}

impl<'a> Segments<'a> {
    fn of(block: &'a Block, coef: Option<&'a GcnCoefficients>) -> Self {
        let mut offsets = vec![0usize; block.num_dst + 1];
        let mut sorted = true;
        let mut prev = 0;
        for &d in &block.edge_dst {
            offsets[d as usize + 1] += 1;
            sorted &= d >= prev;
            prev = d;
        }
        for d in 0..block.num_dst {
            offsets[d + 1] += offsets[d];
        }
        let order = (!sorted).then(|| {
            let mut next = offsets.clone();
            let mut order = vec![0u32; block.num_edges()];
            for (e, &d) in block.edge_dst.iter().enumerate() {
                order[next[d as usize]] = e as u32;
                next[d as usize] += 1;
            }
            order
        });
        Self {
            srcs: permuted(&block.edge_src, order.as_deref()),
            coef: coef.map(|c| (permuted(&c.edge, order.as_deref()), &c.self_loop[..])),
            offsets,
        }
    }
}

/// `per_edge` in the order `order` gives (as it is when `None`).
fn permuted<'a, T: Copy>(per_edge: &'a [T], order: Option<&[u32]>) -> Cow<'a, [T]> {
    match order {
        None => Cow::Borrowed(per_edge),
        Some(order) => Cow::Owned(order.iter().map(|&e| per_edge[e as usize]).collect()),
    }
}

/// Proof that the CPU has AVX2: only [`Avx2::detect`] makes one.
#[derive(Clone, Copy)]
struct Avx2(());

impl Avx2 {
    fn detect() -> Option<Self> {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }
}

/// The kernel over destinations `dsts`, writing their rows into `out`
/// (`dsts.len()` rows). Runs the AVX2 arm when `avx2` is given, else
/// the portable one; both give the same bits.
fn aggregate_dsts<S: SourceRows>(
    avx2: Option<Avx2>,
    src: S,
    plan: &Segments<'_>,
    dsts: Range<usize>,
    out: &mut [f32],
) {
    match avx2 {
        // SAFETY: an `Avx2` token exists only when `Avx2::detect` saw
        // `is_x86_feature_detected!("avx2")` return true.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Some(_) => unsafe { aggregate_dsts_avx2(src, plan, dsts, out) },
        _ => aggregate_dsts_body(src, plan, dsts, out),
    }
}

/// [`aggregate_dsts_body`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn aggregate_dsts_avx2<S: SourceRows>(
    src: S,
    plan: &Segments<'_>,
    dsts: Range<usize>,
    out: &mut [f32],
) {
    aggregate_dsts_body(src, plan, dsts, out);
}

/// Both arms of [`aggregate_dsts`]: per destination, start from the
/// self-loop term (`+0.0` for the mean), add each edge's term in edge
/// order, then scale the mean.
#[inline(always)]
fn aggregate_dsts_body<S: SourceRows>(
    src: S,
    plan: &Segments<'_>,
    dsts: Range<usize>,
    out: &mut [f32],
) {
    let f = src.cols();
    if f == 0 {
        return;
    }
    let last = plan.offsets[dsts.end];
    let srcs = &plan.srcs[..];
    for (d, row) in dsts.zip(out.chunks_exact_mut(f)) {
        let edges = plan.offsets[d]..plan.offsets[d + 1];
        match &plan.coef {
            Some((_, self_loop)) => src.scale_into(d, self_loop[d], row),
            None => row.fill(0.0),
        }
        for p in edges.clone() {
            if p + PREFETCH_AHEAD < last {
                src.prefetch(srcs[p + PREFETCH_AHEAD] as usize);
            }
            let s = srcs[p] as usize;
            match &plan.coef {
                Some((edge, _)) => src.axpy(s, edge[p], row),
                None => src.add(s, row),
            }
        }
        if plan.coef.is_none() && !edges.is_empty() {
            let inv = 1.0 / edges.len() as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// Layer-input rows as the kernel reads them: every element passes
/// through the shared decoder of its precision on its way into a
/// product or a sum.
trait SourceRows: Copy {
    /// Row width.
    fn cols(self) -> usize;
    /// `out = c·x_r`.
    fn scale_into(self, r: usize, c: f32, out: &mut [f32]);
    /// `out += c·x_r`.
    fn axpy(self, r: usize, c: f32, out: &mut [f32]);
    /// `out += x_r`.
    fn add(self, r: usize, out: &mut [f32]);
    /// Ask the cache for row `r`.
    fn prefetch(self, r: usize);
}

impl SourceRows for &Matrix {
    #[inline(always)]
    fn cols(self) -> usize {
        Matrix::cols(self)
    }
    #[inline(always)]
    fn scale_into(self, r: usize, c: f32, out: &mut [f32]) {
        for (o, &x) in out.iter_mut().zip(self.row(r)) {
            *o = c * x;
        }
    }
    #[inline(always)]
    fn axpy(self, r: usize, c: f32, out: &mut [f32]) {
        for (o, &x) in out.iter_mut().zip(self.row(r)) {
            *o += c * x;
        }
    }
    #[inline(always)]
    fn add(self, r: usize, out: &mut [f32]) {
        for (o, &x) in out.iter_mut().zip(self.row(r)) {
            *o += x;
        }
    }
    #[inline(always)]
    fn prefetch(self, r: usize) {
        let f = Matrix::cols(self);
        prefetch_bytes(self.as_slice().as_ptr().wrapping_add(r * f).cast(), f * 4);
    }
}

impl SourceRows for &HalfMatrix {
    #[inline(always)]
    fn cols(self) -> usize {
        HalfMatrix::cols(self)
    }
    #[inline(always)]
    fn scale_into(self, r: usize, c: f32, out: &mut [f32]) {
        for (o, &b) in out.iter_mut().zip(self.row(r)) {
            *o = c * f16_to_f32(b);
        }
    }
    #[inline(always)]
    fn axpy(self, r: usize, c: f32, out: &mut [f32]) {
        for (o, &b) in out.iter_mut().zip(self.row(r)) {
            *o += c * f16_to_f32(b);
        }
    }
    #[inline(always)]
    fn add(self, r: usize, out: &mut [f32]) {
        for (o, &b) in out.iter_mut().zip(self.row(r)) {
            *o += f16_to_f32(b);
        }
    }
    #[inline(always)]
    fn prefetch(self, r: usize) {
        let f = HalfMatrix::cols(self);
        prefetch_bytes(self.as_slice().as_ptr().wrapping_add(r * f).cast(), f * 2);
    }
}

impl SourceRows for &QuantizedMatrix {
    #[inline(always)]
    fn cols(self) -> usize {
        QuantizedMatrix::cols(self)
    }
    #[inline(always)]
    fn scale_into(self, r: usize, c: f32, out: &mut [f32]) {
        let (data, (scale, offset)) = self.row(r);
        for (o, &q) in out.iter_mut().zip(data) {
            *o = c * int8_decode(q, scale, offset);
        }
    }
    #[inline(always)]
    fn axpy(self, r: usize, c: f32, out: &mut [f32]) {
        let (data, (scale, offset)) = self.row(r);
        for (o, &q) in out.iter_mut().zip(data) {
            *o += c * int8_decode(q, scale, offset);
        }
    }
    #[inline(always)]
    fn add(self, r: usize, out: &mut [f32]) {
        let (data, (scale, offset)) = self.row(r);
        for (o, &q) in out.iter_mut().zip(data) {
            *o += int8_decode(q, scale, offset);
        }
    }
    #[inline(always)]
    fn prefetch(self, r: usize) {
        let f = QuantizedMatrix::cols(self);
        prefetch_bytes(self.values().as_ptr().wrapping_add(r * f).cast(), f);
        prefetch_bytes(self.params().as_ptr().wrapping_add(r).cast(), 8);
    }
}

/// Prefetch the cache lines of `len` bytes at `p` into L1. A hint only:
/// it never faults, whatever the address, and changes no value.
#[inline(always)]
fn prefetch_bytes(p: *const u8, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let mut off = 0;
        while off < len {
            // SAFETY: SSE is part of the x86-64 baseline, and a
            // prefetch reads nothing the program can observe.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(off).cast()) };
            off += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (p, len);
}

/// Transpose of [`aggregate_gcn`]: `∂h_s = Σ_{(s,d)} c(s,d)·∂a_d`
/// (+ self-loop term for the dst prefix).
pub fn aggregate_gcn_backward(block: &Block, d_agg: &Matrix, coef: &GcnCoefficients) -> Matrix {
    assert_eq!(d_agg.rows(), block.num_dst, "d_agg rows must equal num_dst");
    let f = d_agg.cols();
    let mut out = Matrix::zeros(block.num_src, f);
    for d in 0..block.num_dst {
        let c = coef.self_loop[d];
        scatter_add(&mut out, d, d_agg.row(d), c, f);
    }
    for (i, (&s, &d)) in block.edge_src.iter().zip(&block.edge_dst).enumerate() {
        let c = coef.edge[i];
        scatter_add(&mut out, s as usize, d_agg.row(d as usize), c, f);
    }
    out
}

/// Transpose of [`aggregate_mean`]: `∂h_s = Σ_{(s,d)} ∂m_d / |N(d)|`.
pub fn aggregate_mean_backward(block: &Block, d_mean: &Matrix) -> Matrix {
    assert_eq!(
        d_mean.rows(),
        block.num_dst,
        "d_mean rows must equal num_dst"
    );
    let f = d_mean.cols();
    let deg = block.dst_in_degrees();
    let mut out = Matrix::zeros(block.num_src, f);
    for (&s, &d) in block.edge_src.iter().zip(&block.edge_dst) {
        let dd = d as usize;
        if deg[dd] > 0 {
            scatter_add(
                &mut out,
                s as usize,
                d_mean.row(dd),
                1.0 / deg[dd] as f32,
                f,
            );
        }
    }
    out
}

#[inline]
fn scatter_add(out: &mut Matrix, row: usize, src: &[f32], coef: f32, f: usize) {
    debug_assert_eq!(src.len(), f);
    let dst = out.row_mut(row);
    for (o, x) in dst.iter_mut().zip(src) {
        *o += coef * *x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyscale_graph::Dataset;
    use hyscale_sampler::NeighborSampler;
    use hyscale_tensor::quant::Precision;

    /// The edge-order scatter [`aggregate_gcn`] replaced: every self
    /// loop first, then one scatter per edge in edge order.
    fn reference_gcn(block: &Block, h_src: &Matrix, coef: &GcnCoefficients) -> Matrix {
        let f = h_src.cols();
        let mut out = Matrix::zeros(block.num_dst, f);
        for d in 0..block.num_dst {
            let c = coef.self_loop[d];
            let src_row = h_src.row(d);
            let dst_row = out.row_mut(d);
            for (o, x) in dst_row.iter_mut().zip(src_row) {
                *o = c * *x;
            }
        }
        for (i, (&s, &d)) in block.edge_src.iter().zip(&block.edge_dst).enumerate() {
            let c = coef.edge[i];
            scatter_add(&mut out, d as usize, h_src.row(s as usize), c, f);
        }
        out
    }

    /// The edge-order scatter [`aggregate_mean`] replaced: scatter every
    /// edge into a zeroed output, then scale each row by its degree.
    fn reference_mean(block: &Block, h_src: &Matrix) -> Matrix {
        let f = h_src.cols();
        let deg = block.dst_in_degrees();
        let mut out = Matrix::zeros(block.num_dst, f);
        for (&s, &d) in block.edge_src.iter().zip(&block.edge_dst) {
            scatter_add(&mut out, d as usize, h_src.row(s as usize), 1.0, f);
        }
        for (d, &deg_d) in deg.iter().enumerate() {
            if deg_d > 0 {
                let inv = 1.0 / deg_d as f32;
                for v in out.row_mut(d) {
                    *v *= inv;
                }
            }
        }
        out
    }

    fn arms() -> Vec<Option<Avx2>> {
        let mut arms = vec![None];
        if let Some(avx2) = Avx2::detect() {
            arms.push(Some(avx2));
        }
        arms
    }

    fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A deterministic xorshift stream.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A block with edges in random order: repeated edges, destinations
    /// that sampled nothing (every third one), sources out of order.
    fn random_block(num_src: usize, num_dst: usize, edges: usize, seed: u64) -> Block {
        let mut next = stream(seed | 1);
        let live: Vec<u32> = (0..num_dst as u32).filter(|d| d % 3 != 1).collect();
        let mut edge_src = Vec::with_capacity(edges + 2);
        let mut edge_dst = Vec::with_capacity(edges + 2);
        for _ in 0..edges {
            edge_src.push((next() % num_src as u64) as u32);
            edge_dst.push(live[(next() % live.len() as u64) as usize]);
        }
        // one edge twice, and out of destination order
        if let (Some(&s), Some(&d)) = (edge_src.first(), edge_dst.first()) {
            edge_src.extend([s, s]);
            edge_dst.extend([d, 0]);
        }
        Block {
            num_src,
            num_dst,
            edge_src,
            edge_dst,
        }
    }

    /// Layer inputs with signed zeros and wide magnitudes.
    fn features(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut next = stream(seed | 1);
        Matrix::from_fn(rows, cols, |_, _| match next() % 11 {
            0 => 0.0,
            1 => -0.0,
            k => ((next() % 20_000) as f32 / 1000.0 - 10.0) * (k as f32).powi(3),
        })
    }

    /// Neighbor-sampled blocks of both layers, and random unsorted ones.
    fn oracle_blocks() -> Vec<Block> {
        let ds = Dataset::toy(3);
        let sampler = NeighborSampler::new(vec![10, 6], 9);
        let seeds: Vec<u32> = ds.splits.train[..40].to_vec();
        let mut blocks = sampler.sample(&ds.graph, &seeds, 1).blocks;
        blocks.push(random_block(50, 20, 300, 7));
        blocks.push(random_block(9, 9, 40, 8));
        blocks.push(random_block(30, 12, 0, 9)); // no edges at all
        blocks
    }

    #[test]
    fn each_arm_matches_the_reference_scatter_bitwise() {
        for (b, block) in oracle_blocks().iter().enumerate() {
            for f in [1usize, 7, 16, 100, 131] {
                let x = features(block.num_src, f, (b * 131 + f) as u64);
                let int8 = hyscale_tensor::quant::QuantizedMatrix::quantize_int8(&x);
                let f16 = HalfMatrix::from_f32(&x);
                let sources = [
                    WireRows::F32(&x),
                    WireRows::Int8(&int8),
                    WireRows::F16(&f16),
                ];
                let coefs = [
                    ("gcn", Some(GcnCoefficients::from_block(block))),
                    ("gin", Some(GcnCoefficients::gin(block, 0.0))),
                    ("gin eps", Some(GcnCoefficients::gin(block, 0.25))),
                    ("mean", None),
                ];
                for src in sources {
                    let decoded = src.decode();
                    for (name, coef) in &coefs {
                        let want = match coef {
                            Some(c) => reference_gcn(block, &decoded, c),
                            None => reference_mean(block, &decoded),
                        };
                        for avx2 in arms() {
                            let got = aggregate_on(avx2, block, src, coef.as_ref());
                            assert_eq!(
                                bits_of(&got),
                                bits_of(&want),
                                "block {b}, f {f}, {name}, {:?} rows, avx2 {}",
                                src.precision(),
                                avx2.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn split_destination_ranges_give_the_whole_range_bits() {
        for block in oracle_blocks() {
            let x = features(block.num_src, 13, 5);
            let coef = GcnCoefficients::from_block(&block);
            for c in [Some(&coef), None] {
                let whole = aggregate(&block, (&x).into(), c);
                let plan = Segments::of(&block, c);
                let mut pieces = Matrix::full(block.num_dst, 13, f32::NAN);
                let mid = block.num_dst / 3;
                for avx2 in arms() {
                    let (lo, hi) = pieces.as_mut_slice().split_at_mut(mid * 13);
                    aggregate_dsts(avx2, &x, &plan, 0..mid, lo);
                    aggregate_dsts(avx2, &x, &plan, mid..block.num_dst, hi);
                    assert_eq!(bits_of(&pieces), bits_of(&whole));
                }
            }
        }
    }

    #[test]
    fn sampled_blocks_are_already_segmented() {
        // The neighbor sampler emits each destination's edges together,
        // in destination order, so the counting sort copies nothing.
        let ds = Dataset::toy(4);
        let sampler = NeighborSampler::new(vec![7, 4, 3], 2);
        let mb = sampler.sample(&ds.graph, &ds.splits.train[..64], 3);
        for block in &mb.blocks {
            let plan = Segments::of(block, None);
            assert!(
                matches!(plan.srcs, Cow::Borrowed(_)),
                "a sampled block was permuted"
            );
        }
        let unsorted = random_block(20, 10, 50, 3);
        assert!(matches!(Segments::of(&unsorted, None).srcs, Cow::Owned(_)));
    }

    #[test]
    fn packed_rows_decode_like_the_round_trip() {
        let x = features(40, 23, 11);
        for p in [Precision::F16, Precision::Int8] {
            let wire = hyscale_tensor::quant::WireFeatures::build(p, &x);
            assert_eq!(
                bits_of(&wire.view(&x).decode()),
                bits_of(&p.round_trip(&x)),
                "{p:?}"
            );
        }
    }

    /// 3 src, 2 dst; edges: (0→0) (2→0) (1→1) (2→1)
    fn block() -> Block {
        Block {
            num_src: 3,
            num_dst: 2,
            edge_src: vec![0, 2, 1, 2],
            edge_dst: vec![0, 0, 1, 1],
        }
    }

    fn h() -> Matrix {
        Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn mean_aggregation_values() {
        let m = aggregate_mean(&block(), &h());
        // dst0: mean(h0, h2) = (3, 4); dst1: mean(h1, h2) = (4, 5)
        assert_eq!(m.row(0), &[3.0, 4.0]);
        assert_eq!(m.row(1), &[4.0, 5.0]);
    }

    #[test]
    fn mean_zero_degree_stays_zero() {
        let b = Block {
            num_src: 2,
            num_dst: 2,
            edge_src: vec![0],
            edge_dst: vec![0],
        };
        let x = Matrix::from_vec(2, 1, vec![5.0, 7.0]);
        let m = aggregate_mean(&b, &x);
        assert_eq!(m.row(0), &[5.0]);
        assert_eq!(m.row(1), &[0.0]);
    }

    #[test]
    fn gcn_self_loop_only() {
        let b = Block {
            num_src: 1,
            num_dst: 1,
            edge_src: vec![],
            edge_dst: vec![],
        };
        let x = Matrix::from_vec(1, 2, vec![2.0, 4.0]);
        let coef = GcnCoefficients::from_block(&b);
        let a = aggregate_gcn(&b, &x, &coef);
        // deg_dst = 0, deg_src = 0 => coef = 1
        assert_eq!(a.row(0), &[2.0, 4.0]);
    }

    #[test]
    fn gcn_coefficients_symmetric_normalisation() {
        let b = block();
        let coef = GcnCoefficients::from_block(&b);
        // dst0 in-degree 2, src2 out-degree 2 -> edge (2->0): 1/sqrt(3*3)
        assert!((coef.edge[1] - 1.0 / 3.0).abs() < 1e-6);
        // self loop of dst0: src0 out-degree 1 -> 1/sqrt(2*3)
        assert!((coef.self_loop[0] - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
    }

    /// The adjoint identity <C x, y> == <x, Cᵀ y> for random tensors; this
    /// is the property the backward pass must satisfy for gradients to be
    /// exact.
    #[test]
    fn gcn_backward_is_adjoint() {
        let b = block();
        let coef = GcnCoefficients::from_block(&b);
        let x = h();
        let y = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]);
        let cx = aggregate_gcn(&b, &x, &coef);
        let cty = aggregate_gcn_backward(&b, &y, &coef);
        let lhs: f32 = cx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(cty.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn mean_backward_is_adjoint() {
        let b = block();
        let x = h();
        let y = Matrix::from_vec(2, 2, vec![1.0, 0.0, -0.5, 2.0]);
        let cx = aggregate_mean(&b, &x);
        let cty = aggregate_mean_backward(&b, &y);
        let lhs: f32 = cx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(cty.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    #[should_panic(expected = "h_src rows")]
    fn shape_checked() {
        let b = block();
        let _ = aggregate_mean(&b, &Matrix::zeros(5, 2));
    }
}
