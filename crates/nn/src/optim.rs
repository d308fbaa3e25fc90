//! First-order optimisers over collections of parameter tensors.
//!
//! The hyperparameter search in the paper (Table 3) covers Adam, SGD and
//! RMSProp and settles on Adam with lr 5e-4. Adam is the one provided:
//! PPO, encoder pretraining, the neural censors and the white-box
//! baselines all use it.

use crate::matrix::Matrix;
use crate::tensor::Tensor;

/// Common optimiser interface.
pub trait Optimizer {
    /// Applies one update using the accumulated gradients.
    fn step(&mut self);
    /// Clears accumulated gradients on all managed parameters.
    fn zero_grad(&self);
    /// Managed parameters.
    fn params(&self) -> &[Tensor];
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Rescales gradients in place so their global L2 norm is at most
/// `max_norm`. Returns the pre-clipping norm.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        let g = p.grad();
        total += g.as_slice().iter().map(|x| x * x).sum::<f32>();
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.scale_grad(scale);
        }
    }
    norm
}

/// Adam [Kingma & Ba 2014] with bias correction.
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// Adam's step count and moment estimates, apart from the parameters
/// they belong to. They are plain matrices, so the state is `Send`: it
/// can move to another thread, drive an [`Adam`] over a copy of the
/// parameters there, and come back.
#[derive(Debug)]
pub struct AdamState {
    /// Steps taken (the bias-correction exponent).
    pub t: u64,
    /// First-moment estimates, one per parameter.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, one per parameter.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// A copy of the step count and moment estimates.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Replaces the step count and moment estimates, for example with
    /// [`Adam::state`] of an optimiser over a copy of these parameters.
    ///
    /// # Panics
    /// Panics if a moment's count or shape differs from the parameters'.
    pub fn set_state(&mut self, state: AdamState) {
        let shapes = |ms: &[Matrix]| ms.iter().map(Matrix::shape).collect::<Vec<_>>();
        let want: Vec<_> = self.params.iter().map(Tensor::shape).collect();
        assert_eq!(shapes(&state.m), want, "Adam::set_state: first moments");
        assert_eq!(shapes(&state.v), want, "Adam::set_state: second moments");
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    /// Adam with the paper's defaults (`beta1=0.9`, `beta2=0.999`, `eps=1e-8`).
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Self::with_betas(params, lr, 0.9, 0.999, 1e-8)
    }

    /// Fully parameterised constructor.
    pub fn with_betas(params: Vec<Tensor>, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        let zeros: Vec<Matrix> = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Self {
            params,
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: zeros.clone(),
            v: zeros,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in self
            .params
            .iter()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            let g = p.grad();
            *m = m.scale(self.beta1);
            m.add_scaled_assign(&g, 1.0 - self.beta1);
            *v = v.scale(self.beta2);
            let g2 = g.map(|x| x * x);
            v.add_scaled_assign(&g2, 1.0 - self.beta2);
            let lr = self.lr;
            let eps = self.eps;
            let mh = m.scale(1.0 / bc1);
            let vh = v.scale(1.0 / bc2);
            p.update_value(|val, _| {
                let mut out = val.clone();
                let upd = mh.zip(&vh, |mi, vi| mi / (vi.sqrt() + eps));
                out.add_scaled_assign(&upd, -lr);
                out
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 and check convergence.
    fn quadratic_descent(make: impl Fn(Vec<Tensor>) -> Box<dyn Optimizer>) -> f32 {
        let x = Tensor::parameter(Matrix::from_vec(1, 1, vec![-2.0]));
        let mut opt = make(vec![x.clone()]);
        for _ in 0..600 {
            opt.zero_grad();
            let target = Matrix::from_vec(1, 1, vec![3.0]);
            let loss = x.mse_loss(&target);
            loss.backward();
            opt.step();
        }
        x.value()[(0, 0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let v = quadratic_descent(|p| Box::new(Adam::new(p, 0.05)));
        assert!((v - 3.0).abs() < 1e-2, "v={v}");
    }

    #[test]
    fn clip_grad_norm_bounds_norm() {
        let p = Tensor::parameter(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let loss = p.scale(100.0).sum();
        loss.backward();
        let before = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!(before > 100.0);
        let g = p.grad();
        assert!((g.norm() - 1.0).abs() < 1e-4, "norm={}", g.norm());
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let p = Tensor::parameter(Matrix::zeros(1, 1));
        let mut opt = Adam::new(vec![p], 0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
