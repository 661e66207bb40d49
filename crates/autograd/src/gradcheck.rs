//! Finite-difference gradient checking.
//!
//! Every op's backward rule in this crate is verified against a central
//! finite difference by this test-only checker.

use crate::{Graph, ParamId, ParamSet};
use dota_tensor::Matrix;

/// Relative tolerance used by [`check_gradients`].
const DEFAULT_TOLERANCE: f32 = 2e-2;

/// Checks analytic gradients of `build` against central finite differences.
///
/// `build` receives a fresh [`Graph`] and one [`Var`](crate::Var) per input
/// matrix (registered as trainable parameters) and must return a scalar
/// (1×1) loss node. Every element of every input is perturbed by `±h` and
/// the numeric derivative is compared to the analytic one.
///
/// # Panics
///
/// Panics (test-style assert) if any gradient deviates beyond a combined
/// absolute/relative tolerance.
pub(crate) fn check_gradients(
    inputs: &[Matrix],
    build: impl Fn(&mut Graph, &[crate::Var]) -> crate::Var,
) {
    check_gradients_with(inputs, DEFAULT_TOLERANCE, build);
}

/// [`check_gradients`] with an explicit tolerance.
///
/// # Panics
///
/// Panics if any gradient deviates beyond the tolerance.
pub(crate) fn check_gradients_with(
    inputs: &[Matrix],
    tol: f32,
    build: impl Fn(&mut Graph, &[crate::Var]) -> crate::Var,
) {
    let mut params = ParamSet::new();
    let ids: Vec<ParamId> = inputs
        .iter()
        .enumerate()
        .map(|(i, m)| params.add(&format!("input{i}"), m.clone()))
        .collect();

    // Analytic gradients.
    let mut g = Graph::new();
    let vars: Vec<crate::Var> = ids.iter().map(|&id| g.param(&params, id)).collect();
    let loss = build(&mut g, &vars);
    assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
    g.backward(loss);
    let analytic: Vec<Matrix> = ids
        .iter()
        .map(|&id| {
            g.param_grad(id)
                .unwrap_or_else(|| Matrix::zeros(params.value(id).rows(), params.value(id).cols()))
        })
        .collect();

    let eval = |params: &ParamSet| -> f32 {
        let mut g = Graph::new();
        let vars: Vec<crate::Var> = ids.iter().map(|&id| g.param(params, id)).collect();
        let loss = build(&mut g, &vars);
        g.value(loss)[(0, 0)]
    };

    let h = 1e-3f32;
    for (pi, &id) in ids.iter().enumerate() {
        let shape = params.value(id).shape();
        for r in 0..shape.0 {
            for c in 0..shape.1 {
                let orig = params.value(id)[(r, c)];
                params.value_mut(id)[(r, c)] = orig + h;
                let f_plus = eval(&params);
                params.value_mut(id)[(r, c)] = orig - h;
                let f_minus = eval(&params);
                params.value_mut(id)[(r, c)] = orig;
                let numeric = (f_plus - f_minus) / (2.0 * h);
                let got = analytic[pi][(r, c)];
                let denom = numeric.abs().max(got.abs()).max(1.0);
                assert!(
                    (numeric - got).abs() / denom <= tol,
                    "grad mismatch input {pi} at ({r},{c}): numeric {numeric}, analytic {got}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dota_tensor::rng::SeededRng;

    #[test]
    fn passes_on_correct_gradient() {
        let mut rng = SeededRng::new(1);
        let x = rng.normal_matrix(2, 2, 1.0);
        check_gradients(&[x.clone(), x], |g, vars| g.mse(vars[0], vars[1]));
    }

    #[test]
    #[should_panic(expected = "grad mismatch")]
    fn detects_discontinuous_landscape() {
        // relu has a kink at 0: the analytic rule reports the one-sided
        // derivative 0 while the central difference straddling the kink
        // measures 0.5, so a tight tolerance must flag a mismatch.
        let a = Matrix::filled(1, 1, 0.0);
        check_gradients_with(&[a], 1e-9, |g, vars| g.relu(vars[0]));
    }
}
