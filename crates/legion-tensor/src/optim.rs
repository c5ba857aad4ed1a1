//! The Adam optimizer over flat parameter lists.

use crate::matrix::Matrix;

/// A first-order optimizer stepping a list of parameters given gradients.
pub trait Optimizer {
    /// Applies one update step. `params[i]` is updated using `grads[i]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths or shapes mismatch.
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]);
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard defaults and the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "one grad per param");
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "optimizer state mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            for ((pi, &gi), (mi, vi)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *pi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes `f(x) = (x - 3)^2` and checks convergence.
    fn quadratic_grad(x: &Matrix) -> Matrix {
        let mut g = x.clone();
        for v in g.as_mut_slice() {
            *v = 2.0 * (*v - 3.0);
        }
        g
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = vec![Matrix::from_rows(&[&[0.0f32]])];
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            let g = quadratic_grad(&params[0]);
            opt.step(&mut params, &[g]);
        }
        assert!((params[0].get(0, 0) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_is_scale_invariant_early() {
        // Adam's step size is bounded by lr regardless of gradient scale.
        let mut small = vec![Matrix::from_rows(&[&[0.0f32]])];
        let mut large = vec![Matrix::from_rows(&[&[0.0f32]])];
        let mut o1 = Adam::new(0.1);
        let mut o2 = Adam::new(0.1);
        o1.step(&mut small, &[Matrix::from_rows(&[&[1e-3f32]])]);
        o2.step(&mut large, &[Matrix::from_rows(&[&[1e3f32]])]);
        let s1 = small[0].get(0, 0).abs();
        let s2 = large[0].get(0, 0).abs();
        assert!((s1 - s2).abs() < 1e-3, "{s1} vs {s2}");
    }

    #[test]
    #[should_panic(expected = "one grad per param")]
    fn mismatched_lengths_panic() {
        let mut params = vec![Matrix::zeros(1, 1)];
        Adam::new(0.1).step(&mut params, &[]);
    }
}
