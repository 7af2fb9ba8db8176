//! Adam optimiser over flat parameter/gradient slices.

use crate::linear::{Kernel, Pass};
use adas_codec::{Encode, Writer};

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub eps: f64,
    /// Gradient-norm clip applied before the update (0 disables).
    pub grad_clip: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: 5.0,
        }
    }
}

impl Encode for AdamConfig {
    fn encode(&self, w: &mut Writer) {
        let Self {
            lr,
            beta1,
            beta2,
            eps,
            grad_clip,
        } = *self;
        for v in [lr, beta1, beta2, eps, grad_clip] {
            w.f64(v);
        }
    }
}

/// Optimiser state for one parameter tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    /// `beta1^t` and `beta2^t` after `t` steps, kept as running products
    /// (one multiply per step, the same bits on every platform).
    beta1_t: f64,
    beta2_t: f64,
}

impl Adam {
    /// State for a tensor of `len` parameters.
    #[must_use]
    pub fn new(len: usize, config: AdamConfig) -> Self {
        Self {
            config,
            m: vec![0.0; len],
            v: vec![0.0; len],
            beta1_t: 1.0,
            beta2_t: 1.0,
        }
    }

    /// Applies one update step: `params -= lr * m̂ / (sqrt(v̂) + eps)`, the
    /// element-wise update on `kernel`'s build. The gradient norm is summed
    /// in element order and the update touches each element alone, so
    /// both builds give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths mismatch the optimiser state.
    pub fn step(&mut self, kernel: Kernel, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grads.len(), self.m.len());
        let c = self.config;
        self.beta1_t *= c.beta1;
        self.beta2_t *= c.beta2;

        let clip = if c.grad_clip > 0.0 {
            let norm = grads.iter().map(|g| g * g).sum::<f64>().sqrt();
            if norm > c.grad_clip {
                c.grad_clip / norm
            } else {
                1.0
            }
        } else {
            1.0
        };

        kernel.run(Update {
            config: c,
            clip,
            bc1: 1.0 - self.beta1_t,
            bc2: 1.0 - self.beta2_t,
            params,
            grads,
            m: &mut self.m,
            v: &mut self.v,
        });
    }
}

/// The element-wise Adam update of one tensor: a zipped loop with no
/// indexing, so a build with wider vectors vectorises it.
struct Update<'a> {
    config: AdamConfig,
    clip: f64,
    /// The bias corrections `1 − βᵗ`.
    bc1: f64,
    bc2: f64,
    params: &'a mut [f64],
    grads: &'a [f64],
    m: &'a mut [f64],
    v: &'a mut [f64],
}

impl Pass for Update<'_> {
    #[inline(always)]
    fn run(self) {
        let Update {
            config: c,
            clip,
            bc1,
            bc2,
            params,
            grads,
            m,
            v,
        } = self;
        for (((p, g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            let g = g * clip;
            *m = c.beta1 * *m + (1.0 - c.beta1) * g;
            *v = c.beta2 * *v + (1.0 - c.beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= c.lr * mhat / (vhat.sqrt() + c.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimises_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let mut adam = Adam::new(1, AdamConfig::default());
        let mut x = [0.0_f64];
        for _ in 0..2000 {
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(Kernel::detect(), &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn gradient_clipping_bounds_step() {
        let cfg = AdamConfig {
            grad_clip: 1.0,
            ..AdamConfig::default()
        };
        let mut adam = Adam::new(2, cfg);
        let mut x = [0.0, 0.0];
        adam.step(Kernel::detect(), &mut x, &[1e9, 1e9]);
        // With clipping the first step is bounded by ~lr.
        assert!(x[0].abs() < 0.1);
    }

    #[test]
    fn zero_gradient_is_stationary() {
        let mut adam = Adam::new(3, AdamConfig::default());
        let mut x = [1.0, -2.0, 0.5];
        adam.step(Kernel::detect(), &mut x, &[0.0, 0.0, 0.0]);
        assert_eq!(x, [1.0, -2.0, 0.5]);
    }

    #[test]
    fn bias_correction_tracks_the_running_beta_products() {
        let cfg = AdamConfig::default();
        let mut adam = Adam::new(1, cfg);
        let (mut b1, mut b2) = (1.0f64, 1.0f64);
        let mut x = [0.0];
        for _ in 0..50 {
            adam.step(Kernel::detect(), &mut x, &[1.0]);
            b1 *= cfg.beta1;
            b2 *= cfg.beta2;
        }
        assert_eq!(adam.beta1_t.to_bits(), b1.to_bits());
        assert_eq!(adam.beta2_t.to_bits(), b2.to_bits());
    }

    #[test]
    fn both_kernel_builds_update_bit_identically() {
        let grads: Vec<f64> = (0..37).map(|i| f64::from(i) * 0.37 - 6.0).collect();
        let start: Vec<f64> = (0..37).map(|i| f64::from(i).sqrt() - 3.0).collect();
        let run = |kernel| {
            let mut adam = Adam::new(grads.len(), AdamConfig::default());
            let mut x = start.clone();
            for _ in 0..5 {
                adam.step(kernel, &mut x, &grads);
            }
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(Kernel::PORTABLE), run(Kernel::detect()));
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut adam = Adam::new(2, AdamConfig::default());
        let mut x = [0.0];
        adam.step(Kernel::detect(), &mut x, &[1.0]);
    }
}
