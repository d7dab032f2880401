//! Element-wise operations used by the GNN update stage.
//!
//! The paper's update stage is `h = φ(a·W + b)` with `φ = ReLU`
//! (paper Eq. 3–4); backward needs the ReLU mask and the bias-gradient
//! column reduction.

use crate::matrix::Matrix;

/// In-place ReLU: `x = max(x, 0)`.
///
/// Written as a select rather than a conditional store, so it compiles
/// without a branch (about half the activations are negative, which a
/// branch mispredicts). Same predicate, so `-0.0` and NaN pass through.
pub fn relu_inplace(x: &mut Matrix) {
    for v in x.as_mut_slice() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// ReLU backward: zero the gradient wherever the *pre-activation* was
/// non-positive. `grad` and `pre_activation` must have equal shapes.
///
/// # Panics
/// On shape mismatch.
pub fn relu_backward_inplace(grad: &mut Matrix, pre_activation: &Matrix) {
    assert_eq!(
        grad.shape(),
        pre_activation.shape(),
        "relu_backward shape mismatch"
    );
    // A select, not a conditional store: see `relu_inplace`.
    for (g, &z) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pre_activation.as_slice())
    {
        *g = if z <= 0.0 { 0.0 } else { *g };
    }
}

/// Broadcast-add a bias row vector to every row of `x`.
///
/// # Panics
/// If `bias.len() != x.cols()`.
pub fn add_bias_inplace(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(bias.len(), x.cols(), "bias width mismatch");
    let cols = x.cols();
    for row in x.as_mut_slice().chunks_exact_mut(cols) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += *b;
        }
    }
}

/// Column-sum of `grad` — the bias gradient for a broadcast-added bias.
pub fn bias_grad(grad: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0f32; grad.cols()];
    for row in grad.rows_iter() {
        for (o, v) in out.iter_mut().zip(row) {
            *o += *v;
        }
    }
    out
}

/// Row-wise L2 normalisation (`x_i / max(‖x_i‖₂, eps)`), a common output
/// embedding post-process for SAGE-style models.
pub fn l2_normalize_rows_inplace(x: &mut Matrix, eps: f32) {
    let cols = x.cols();
    for row in x.as_mut_slice().chunks_exact_mut(cols) {
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(eps);
        for v in row.iter_mut() {
            *v /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_by_preactivation() {
        let pre = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, 3.0]);
        let mut g = Matrix::from_vec(1, 4, vec![5.0, 5.0, 5.0, 5.0]);
        relu_backward_inplace(&mut g, &pre);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 5.0, 5.0]);
    }

    /// Values where a ReLU's bits could differ: signed zeros, NaN,
    /// infinities, subnormals and the extremes.
    const EDGE_VALUES: [f32; 12] = [
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 2.0,
        f32::MAX,
        f32::MIN,
        1.5,
        -1.5,
    ];

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn relu_select_matches_the_branch_form_bitwise() {
        let mut m = Matrix::from_vec(1, EDGE_VALUES.len(), EDGE_VALUES.to_vec());
        relu_inplace(&mut m);
        let mut expect = EDGE_VALUES;
        for v in &mut expect {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        assert_eq!(bits(m.as_slice()), bits(&expect));
    }

    #[test]
    fn relu_backward_select_matches_the_branch_form_bitwise() {
        // Every gradient value against every pre-activation value.
        let n = EDGE_VALUES.len();
        let pre: Vec<f32> = (0..n * n).map(|i| EDGE_VALUES[i / n]).collect();
        let grad: Vec<f32> = (0..n * n).map(|i| EDGE_VALUES[i % n]).collect();
        let mut g = Matrix::from_vec(n, n, grad.clone());
        relu_backward_inplace(&mut g, &Matrix::from_vec(n, n, pre.clone()));
        let mut expect = grad;
        for (e, &z) in expect.iter_mut().zip(&pre) {
            if z <= 0.0 {
                *e = 0.0;
            }
        }
        assert_eq!(bits(g.as_slice()), bits(&expect));
    }

    #[test]
    fn bias_roundtrip() {
        let mut x = Matrix::zeros(3, 2);
        add_bias_inplace(&mut x, &[1.0, -2.0]);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        let g = bias_grad(&x);
        assert_eq!(g, vec![3.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "bias width mismatch")]
    fn bias_rejects_wrong_width() {
        let mut x = Matrix::zeros(1, 3);
        add_bias_inplace(&mut x, &[0.0; 2]);
    }

    #[test]
    fn l2_normalize_unit_rows() {
        let mut x = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        l2_normalize_rows_inplace(&mut x, 1e-12);
        assert!((x.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((x.row(0)[1] - 0.8).abs() < 1e-6);
        // zero row stays finite
        assert!(x.row(1).iter().all(|v| v.is_finite()));
    }
}
