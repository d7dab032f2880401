//! Cache-blocked, Rayon-parallel GEMM kernels.
//!
//! The update stage of a GNN layer (paper Eq. 2) is a GEMM against the
//! weight matrix; its backward pass needs the `Aᵀ·B` and `A·Bᵀ` variants.
//! Parallelism is over disjoint *output row blocks*, so results are
//! bitwise independent of the number of worker threads — a property the
//! workspace's semantics-preservation tests rely on.
//!
//! `A·B` and `Aᵀ·B` share one register-blocked micro-kernel. Per
//! `K_BLOCK` strip of `k` it packs `R` rows of `op(A)` into a small
//! panel (the only place the two variants differ) and then keeps an
//! `R × NC` tile of `C` in locals while it walks the strip. Every output
//! element starts from its existing value, adds its products in
//! ascending `k` order and skips exactly the terms whose `A` entry is
//! `== 0.0`, one rounded multiply and one rounded add per term, so any
//! tiling gives the bits of the plain triple loop. The kernel is
//! compiled twice, portable and with AVX2 enabled, and
//! `is_x86_feature_detected!` picks the arm on every call; hosts without
//! AVX2 run the portable arm. Rust never fuses a separate multiply and
//! add into an FMA, so both arms give the same bits.

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Rows per parallel task. Small enough to load-balance mini-batch sized
/// matrices (a few thousand rows), large enough to amortize task overhead.
const ROW_BLOCK: usize = 64;
/// Parallel tasks of `Aᵀ·B`. Its output is a weight gradient with only
/// `f_in` rows (100–128 in the workloads), and every task streams all of
/// `B`, so it gets the fewest tasks the rayon shim still runs in
/// parallel (`rayon::SEQ_THRESHOLD`).
const TN_TASKS: usize = 4;
/// Columns of the shared operand kept hot in L1/L2 per inner tile.
const K_BLOCK: usize = 256;
/// Output rows per register tile of the micro-kernel.
const R: usize = 2;
/// Output columns per register tile of the micro-kernel.
const NC: usize = 32;

/// How the micro-kernel reads `op(A)`.
#[derive(Clone, Copy)]
enum OpA {
    /// `A` is `m×k`, element `(r, kk)` at `a[r·k + kk]`.
    Plain,
    /// `A` is `k×m` and read transposed, element `(r, kk)` at `a[kk·m + r]`.
    Transposed,
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

/// `C += op(A)·B` over `c`, the output rows `r0..` of the product, with
/// `dims = (m, k, n)` of the whole product. Runs the AVX2 arm when
/// `avx2` is given, else the portable one; both give the same bits.
fn block_acc(
    avx2: Option<Avx2>,
    op: OpA,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    r0: usize,
    dims: (usize, usize, usize),
) {
    match avx2 {
        // SAFETY: an `Avx2` token exists only when `Avx2::detect` saw
        // `is_x86_feature_detected!("avx2")` return true.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Some(_) => unsafe { block_acc_avx2(op, c, a, b, r0, dims) },
        _ => block_acc_body(op, c, a, b, r0, dims),
    }
}

/// [`block_acc_body`] compiled with AVX2 enabled.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn block_acc_avx2(
    op: OpA,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    r0: usize,
    dims: (usize, usize, usize),
) {
    block_acc_body(op, c, a, b, r0, dims);
}

/// Both arms of [`block_acc`]: tile `c` and run the micro-kernel on
/// every tile, strip by strip.
#[inline(always)]
fn block_acc_body(
    op: OpA,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    r0: usize,
    dims: (usize, usize, usize),
) {
    let (m, k, n) = dims;
    let rows = c.len() / n;
    let mut panel = [[0.0f32; R]; K_BLOCK];
    for k0 in (0..k).step_by(K_BLOCK) {
        let k1 = (k0 + K_BLOCK).min(k);
        let panel = &mut panel[..k1 - k0];
        let b_strip = &b[k0 * n..k1 * n];
        for i in (0..rows).step_by(R) {
            let tr = R.min(rows - i);
            for (p, kk) in panel.iter_mut().zip(k0..k1) {
                for (r, v) in p.iter_mut().enumerate().take(tr) {
                    let row = r0 + i + r;
                    *v = match op {
                        OpA::Plain => a[row * k + kk],
                        OpA::Transposed => a[kk * m + row],
                    };
                }
            }
            let c_tile = &mut c[i * n..(i + tr) * n];
            for j in (0..n).step_by(NC) {
                let tc = NC.min(n - j);
                // Full tiles get constant bounds, so the tile stays in
                // registers; edge tiles take the same code with runtime
                // bounds.
                if tr == R && tc == NC {
                    tile_acc(c_tile, n, j, panel, b_strip, R, NC);
                } else {
                    tile_acc(c_tile, n, j, panel, b_strip, tr, tc);
                }
            }
        }
    }
}

/// The micro-kernel: `C[..tr, j..j + tc] += panel · B_strip[.., j..j + tc]`,
/// where `panel[kk][r]` is `op(A)` row `r` at strip column `kk`.
#[inline(always)]
fn tile_acc(
    c: &mut [f32],
    n: usize,
    j: usize,
    panel: &[[f32; R]],
    b_strip: &[f32],
    tr: usize,
    tc: usize,
) {
    let mut acc = [[0.0f32; NC]; R];
    for (r, acc_row) in acc.iter_mut().enumerate().take(tr) {
        acc_row[..tc].copy_from_slice(&c[r * n + j..r * n + j + tc]);
    }
    for (p, b_row) in panel.iter().zip(b_strip.chunks_exact(n)) {
        let b_row = &b_row[j..j + tc];
        for (&av, acc_row) in p.iter().zip(acc.iter_mut()).take(tr) {
            if av == 0.0 {
                continue;
            }
            for (cv, bv) in acc_row[..tc].iter_mut().zip(b_row) {
                *cv += av * *bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(tr) {
        c[r * n + j..r * n + j + tc].copy_from_slice(&acc_row[..tc]);
    }
}

/// `C = alpha * op_a(A) · op_b(B) + beta * C` dispatcher.
///
/// Convenience wrapper so callers can select the transpose variant at
/// runtime (the trainers pick variants per backward step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gemm {
    /// `A · B`
    NN,
    /// `Aᵀ · B`
    TN,
    /// `A · Bᵀ`
    NT,
}

impl Gemm {
    /// Execute the selected variant: returns `op_a(A) · op_b(B)`.
    pub fn run(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Gemm::NN => gemm_nn(a, b),
            Gemm::TN => gemm_tn(a, b),
            Gemm::NT => gemm_nt(a, b),
        }
    }
}

/// `C = A·B` for row-major `A (m×k)`, `B (k×n)`.
///
/// # Panics
/// On inner-dimension mismatch.
pub fn gemm_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm_nn inner dimension mismatch: {k} vs {kb}");
    let mut c = Matrix::zeros(m, n);
    gemm_nn_acc(c.as_mut_slice(), a.as_slice(), b.as_slice(), (m, k, n));
    c
}

/// `C += A·B` on row-major slices: `a` is `m×k`, `b` is `k×n`, `c` is
/// `m×n`, with `dims = (m, k, n)`.
///
/// Every output element adds its `k` products in ascending `k` order,
/// whatever the tiling, so splitting `A = [A₁ ‖ A₂]`, `B = [B₁; B₂]` and
/// accumulating `A₁·B₁` then `A₂·B₂` into one `C` gives the same bits as
/// one product over the concatenation.
///
/// # Panics
/// If a slice length disagrees with `dims`.
pub fn gemm_nn_acc(c: &mut [f32], a: &[f32], b: &[f32], dims: (usize, usize, usize)) {
    let (m, k, n) = dims;
    check_lens("gemm_nn_acc", c, a, b, (m * n, m * k, k * n));
    let avx2 = Avx2::detect();
    c.par_chunks_mut(ROW_BLOCK * n)
        .enumerate()
        .for_each(|(blk, c_block)| {
            block_acc(avx2, OpA::Plain, c_block, a, b, blk * ROW_BLOCK, dims);
        });
}

/// `C = Aᵀ·B` for row-major `A (k×m)`, `B (k×n)` → `C (m×n)`.
///
/// This is the weight-gradient GEMM (`∂L/∂W = aggᵀ · ∂L/∂h`).
///
/// # Panics
/// On inner-dimension mismatch.
pub fn gemm_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "gemm_tn inner dimension mismatch: {k} vs {kb}");
    let mut c = Matrix::zeros(m, n);
    gemm_tn_acc(c.as_mut_slice(), a.as_slice(), b.as_slice(), (m, k, n));
    c
}

/// `C += Aᵀ·B` on row-major slices: `a` is `k×m`, `b` is `k×n`, `c` is
/// `m×n`, with `dims = (m, k, n)`.
///
/// Output row `r` depends only on column `r` of `A`, so the rows of
/// `Aᵀ·B` for `A = [A₁ ‖ A₂]` are those of `A₁ᵀ·B` stacked on `A₂ᵀ·B`,
/// bit for bit.
///
/// # Panics
/// If a slice length disagrees with `dims`.
pub fn gemm_tn_acc(c: &mut [f32], a: &[f32], b: &[f32], dims: (usize, usize, usize)) {
    let (m, k, n) = dims;
    check_lens("gemm_tn_acc", c, a, b, (m * n, k * m, k * n));
    if n == 0 {
        return;
    }
    // Parallelize over output rows (columns of A). Each task reads all of
    // A and B but owns a disjoint slice of C.
    let avx2 = Avx2::detect();
    let rows = m.div_ceil(TN_TASKS).next_multiple_of(R).max(R);
    c.par_chunks_mut(rows * n)
        .enumerate()
        .for_each(|(blk, c_block)| {
            block_acc(avx2, OpA::Transposed, c_block, a, b, blk * rows, dims);
        });
}

/// `C = A·Bᵀ` for row-major `A (m×k)`, `B (n×k)` → `C (m×n)`.
///
/// This is the input-gradient GEMM (`∂L/∂agg = ∂L/∂h · Wᵀ`).
///
/// # Panics
/// On inner-dimension mismatch.
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "gemm_nt inner dimension mismatch: {k} vs {kb}");
    let mut c = Matrix::zeros(m, n);
    gemm_nt_acc(c.as_mut_slice(), a.as_slice(), b.as_slice(), (m, k, n));
    c
}

/// `C += A·Bᵀ` on row-major slices: `a` is `m×k`, `b` is `n×k`, `c` is
/// `m×n`, with `dims = (m, k, n)`.
///
/// Each output element gets one dot product, summed from `+0.0` and
/// then added, so the columns of `A·Bᵀ` for `B = [B₁; B₂]` are those of
/// `A·B₁ᵀ` beside `A·B₂ᵀ`, bit for bit. A sum started at `+0.0` is never
/// `-0.0`, so accumulating straight onto an existing `C` gives the same
/// bits as computing `A·Bᵀ` into a zeroed buffer and adding that.
///
/// # Panics
/// If a slice length disagrees with `dims`.
pub fn gemm_nt_acc(c: &mut [f32], a: &[f32], b: &[f32], dims: (usize, usize, usize)) {
    let (m, k, n) = dims;
    check_lens("gemm_nt_acc", c, a, b, (m * n, m * k, n * k));
    c.par_chunks_mut(ROW_BLOCK * n)
        .enumerate()
        .for_each(|(blk, c_block)| {
            let r0 = blk * ROW_BLOCK;
            for (ri, c_row) in c_block.chunks_exact_mut(n).enumerate() {
                let a_row = &a[(r0 + ri) * k..(r0 + ri + 1) * k];
                for (j, cv) in c_row.iter_mut().enumerate() {
                    // dot(a_row, b_row_j)
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (av, bv) in a_row.iter().zip(b_row) {
                        acc += av * bv;
                    }
                    *cv += acc;
                }
            }
        });
}

fn check_lens(name: &str, c: &[f32], a: &[f32], b: &[f32], want: (usize, usize, usize)) {
    assert_eq!(
        (c.len(), a.len(), b.len()),
        want,
        "{name} slice lengths (c, a, b) disagree with dims"
    );
}

/// Number of multiply-accumulate operations in `A(m×k)·B(k×n)`.
///
/// The FPGA/GPU update-time models (paper Eq. 12) count MACs.
pub fn gemm_macs(m: usize, k: usize, n: usize) -> u64 {
    m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nn(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[(i, kk)] * b[(kk, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    fn test_mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 17) as f32 * 0.01 + seed).sin()
        })
    }

    #[test]
    fn nn_matches_naive() {
        let a = test_mat(70, 33, 0.1);
        let b = test_mat(33, 41, 0.2);
        assert!(gemm_nn(&a, &b).approx_eq(&naive_nn(&a, &b), 1e-4));
    }

    #[test]
    fn nn_identity() {
        let a = test_mat(9, 9, 0.4);
        let eye = Matrix::from_fn(9, 9, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(gemm_nn(&a, &eye).approx_eq(&a, 1e-6));
        assert!(gemm_nn(&eye, &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn tn_matches_transpose_then_nn() {
        let a = test_mat(33, 21, 0.3);
        let b = test_mat(33, 18, 0.4);
        let expect = naive_nn(&a.transpose(), &b);
        assert!(gemm_tn(&a, &b).approx_eq(&expect, 1e-4));
    }

    #[test]
    fn nt_matches_transpose_then_nn() {
        let a = test_mat(21, 33, 0.5);
        let b = test_mat(18, 33, 0.6);
        let expect = naive_nn(&a, &b.transpose());
        assert!(gemm_nt(&a, &b).approx_eq(&expect, 1e-4));
    }

    #[test]
    fn dispatcher_selects_variants() {
        let a = test_mat(8, 6, 0.7);
        let b = test_mat(6, 5, 0.8);
        assert!(Gemm::NN.run(&a, &b).approx_eq(&gemm_nn(&a, &b), 0.0));
        let c = test_mat(8, 5, 0.1);
        assert!(Gemm::TN.run(&a, &c).approx_eq(&gemm_tn(&a, &c), 0.0));
        let d = test_mat(5, 6, 0.2);
        let nt = Gemm::NT.run(&b.transpose(), &d);
        assert!(nt.approx_eq(&gemm_nt(&b.transpose(), &d), 0.0));
        assert_eq!(nt.shape(), (5, 5));
    }

    #[test]
    fn empty_dimensions() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let c = gemm_nn(&a, &b);
        assert_eq!(c.shape(), (0, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn nn_rejects_mismatch() {
        let _ = gemm_nn(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Row-block ownership means any pool size yields identical bits.
        let a = test_mat(130, 64, 0.9);
        let b = test_mat(64, 48, 0.11);
        let reference = gemm_nn(&a, &b);
        // m = 100 output rows, as in the layer-0 weight gradient.
        let at = sparse_mat(300, 100, 0.2);
        let bt = test_mat(300, 40, 0.3);
        let reference_tn = gemm_tn(&at, &bt);
        for width in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let nn = pool.install(|| gemm_nn(&a, &b));
            assert_eq!(bits(&reference), bits(&nn), "gemm_nn at width {width}");
            let tn = pool.install(|| gemm_tn(&at, &bt));
            assert_eq!(bits(&reference_tn), bits(&tn), "gemm_tn at width {width}");
        }
    }

    /// The loops `gemm_nn_acc` ran before the micro-kernel: the bitwise
    /// reference for both of its arms.
    fn reference_nn_acc(c: &mut [f32], a: &[f32], b: &[f32], (_m, k, n): (usize, usize, usize)) {
        for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
            let a_row = &a[i * k..(i + 1) * k];
            for (kk, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aik * *bv;
                }
            }
        }
    }

    /// The loops `gemm_tn_acc` ran before the micro-kernel.
    fn reference_tn_acc(c: &mut [f32], a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) {
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (c_row, &aik) in c.chunks_exact_mut(n).zip(a_row) {
                if aik == 0.0 {
                    continue;
                }
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += aik * *bv;
                }
            }
        }
    }

    /// Operands that probe the kernel's contract, for `op(A)` `m×k`:
    /// every fifth column of `op(A)` is an exact zero (alternating
    /// `0.0`/`-0.0`) and faces a row of NaN/±inf in `B`; every fourth
    /// row of `op(A)` is all zeros, so its `C` row must keep its bits;
    /// `C` starts with `-0.0` and NaN among finite values. Returns
    /// `(a, b, c)` with `a` laid out for `op`.
    fn contract_operands(
        op: OpA,
        (m, k, n): (usize, usize, usize),
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let op_a = |r: usize, kk: usize| {
            if kk.is_multiple_of(5) || r % 4 == 3 {
                if (r + kk).is_multiple_of(2) {
                    0.0
                } else {
                    -0.0
                }
            } else {
                ((r * 31 + kk * 17) as f32 * 0.01 + 0.3).sin()
            }
        };
        let a = match op {
            OpA::Plain => (0..m * k).map(|i| op_a(i / k, i % k)).collect(),
            OpA::Transposed => (0..k * m).map(|i| op_a(i % m, i / m)).collect(),
        };
        let b = (0..k * n)
            .map(|i| match (i / n % 5, i % 3) {
                (0, 0) => f32::NAN,
                (0, 1) => f32::INFINITY,
                (0, _) => f32::NEG_INFINITY,
                _ => (i as f32 * 0.37 + 0.1).sin(),
            })
            .collect();
        let c = (0..m * n)
            .map(|i| match i % 7 {
                0 => -0.0,
                1 => f32::NAN,
                _ => (i as f32 * 0.73).cos(),
            })
            .collect();
        (a, b, c)
    }

    /// Shapes around the tiling: `m < R`, `n < NC`, `k ∈ {0, 1}`,
    /// `k > K_BLOCK`, and sizes that are multiples of nothing.
    const CONTRACT_SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (1, 0, 5),
        (3, 1, 7),
        (R - 1, 7, NC - 1),
        (7, 300, 45),
        (5, 513, 33),
        (9, 257, 2 * NC),
        (2 * R, K_BLOCK, NC + 1),
        (13, 17, 100),
    ];

    /// Every arm this CPU can run: the portable arm always, AVX2 when
    /// detected.
    fn arms() -> Vec<Option<Avx2>> {
        let mut arms = vec![None];
        if let Some(avx2) = Avx2::detect() {
            arms.push(Some(avx2));
        }
        arms
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn each_arm_matches_the_reference_loops_bitwise() {
        for op in [OpA::Plain, OpA::Transposed] {
            let reference = match op {
                OpA::Plain => reference_nn_acc,
                OpA::Transposed => reference_tn_acc,
            };
            for dims in CONTRACT_SHAPES {
                let (a, b, c0) = contract_operands(op, dims);
                let mut expect = c0.clone();
                reference(&mut expect, &a, &b, dims);
                for arm in arms() {
                    let mut c = c0.clone();
                    block_acc(arm, op, &mut c, &a, &b, 0, dims);
                    assert_eq!(
                        bits_of(&c),
                        bits_of(&expect),
                        "{} arm, {} at {dims:?}",
                        if arm.is_some() { "AVX2" } else { "portable" },
                        if matches!(op, OpA::Plain) {
                            "A·B"
                        } else {
                            "Aᵀ·B"
                        },
                    );
                }
            }
        }
    }

    #[test]
    fn public_kernels_match_the_reference_loops_bitwise() {
        // The parallel row blocks of the public kernels, on the detected arm.
        for dims @ (m, k, n) in [(130, 300, 45), (100, 513, 33), (3, 1, 7)] {
            let (a, b, c0) = contract_operands(OpA::Plain, dims);
            let (mut c, mut expect) = (c0.clone(), c0);
            gemm_nn_acc(&mut c, &a, &b, dims);
            reference_nn_acc(&mut expect, &a, &b, (m, k, n));
            assert_eq!(bits_of(&c), bits_of(&expect), "gemm_nn_acc at {dims:?}");

            let (a, b, c0) = contract_operands(OpA::Transposed, dims);
            let (mut c, mut expect) = (c0.clone(), c0);
            gemm_tn_acc(&mut c, &a, &b, dims);
            reference_tn_acc(&mut expect, &a, &b, dims);
            assert_eq!(bits_of(&c), bits_of(&expect), "gemm_tn_acc at {dims:?}");
        }
    }

    /// `test_mat` with every third entry an exact zero, so the kernels'
    /// `aik == 0.0` skip runs.
    fn sparse_mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        let mut m = test_mat(rows, cols, seed);
        for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        m
    }

    #[test]
    fn nn_split_accumulation_is_bitwise_the_concat_product() {
        // k1 = 300 > K_BLOCK, so the concat product's k-tiles straddle
        // the A₁/A₂ boundary.
        let (m, k1, k2, n) = (70, 300, 300, 19);
        let a1 = sparse_mat(m, k1, 0.1);
        let a2 = sparse_mat(m, k2, 0.2);
        let b1 = test_mat(k1, n, 0.3);
        let b2 = test_mat(k2, n, 0.4);
        let concat = gemm_nn(&a1.hconcat(&a2), &b1.vstack(&b2));

        let mut c = Matrix::zeros(m, n);
        gemm_nn_acc(c.as_mut_slice(), a1.as_slice(), b1.as_slice(), (m, k1, n));
        gemm_nn_acc(c.as_mut_slice(), a2.as_slice(), b2.as_slice(), (m, k2, n));
        assert_eq!(bits(&c), bits(&concat));
    }

    #[test]
    fn tn_split_halves_are_bitwise_the_concat_product() {
        let (k, m1, m2, n) = (90, 300, 300, 17);
        let a1 = sparse_mat(k, m1, 0.5);
        let a2 = sparse_mat(k, m2, 0.6);
        let b = test_mat(k, n, 0.7);
        let concat = gemm_tn(&a1.hconcat(&a2), &b);

        let mut c = Matrix::zeros(m1 + m2, n);
        let (top, bottom) = c.as_mut_slice().split_at_mut(m1 * n);
        gemm_tn_acc(top, a1.as_slice(), b.as_slice(), (m1, k, n));
        gemm_tn_acc(bottom, a2.as_slice(), b.as_slice(), (m2, k, n));
        assert_eq!(bits(&c), bits(&concat));
    }

    #[test]
    fn nt_split_halves_are_bitwise_the_concat_product() {
        let (m, k, n1, n2) = (70, 23, 40, 40);
        let a = sparse_mat(m, k, 0.8);
        let b1 = test_mat(n1, k, 0.9);
        let b2 = test_mat(n2, k, 0.15);
        let (left, right) = gemm_nt(&a, &b1.vstack(&b2)).hsplit(n1);
        let mut c1 = Matrix::zeros(m, n1);
        gemm_nt_acc(c1.as_mut_slice(), a.as_slice(), b1.as_slice(), (m, k, n1));
        let mut c2 = Matrix::zeros(m, n2);
        gemm_nt_acc(c2.as_mut_slice(), a.as_slice(), b2.as_slice(), (m, k, n2));
        assert_eq!(bits(&c1), bits(&left));
        assert_eq!(bits(&c2), bits(&right));
    }

    #[test]
    #[should_panic(expected = "disagree with dims")]
    fn acc_rejects_wrong_slice_lengths() {
        let mut c = vec![0.0; 6];
        gemm_nn_acc(&mut c, &[0.0; 6], &[0.0; 5], (2, 3, 3));
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        bits_of(m.as_slice())
    }

    #[test]
    fn macs_counted() {
        assert_eq!(gemm_macs(2, 3, 4), 24);
    }
}
