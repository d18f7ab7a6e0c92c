//! Dense affine layer and small MLP stacks.

use ist_autograd::{ops, Param, Var};
use ist_tensor::rng::SeedRng;

use crate::init;
use crate::module::Module;
use crate::Ctx;

/// `y = x·W + b` with `W: [in, out]`, `b: [out]`.
pub struct Linear {
    /// Weight matrix `[in_dim, out_dim]`.
    pub weight: Param,
    /// Optional bias `[out_dim]`.
    pub bias: Option<Param>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Xavier-initialised layer with bias.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut SeedRng) -> Self {
        Self::with_bias(name, in_dim, out_dim, true, rng)
    }

    /// Xavier-initialised layer; `bias` selects whether a bias is learned.
    pub fn with_bias(
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut SeedRng,
    ) -> Self {
        let weight = Param::new(
            format!("{name}.weight"),
            init::xavier_uniform(&[in_dim, out_dim], rng),
        );
        let bias = bias.then(|| Param::new(format!("{name}.bias"), init::zeros(&[out_dim])));
        Linear {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `x: [rows, in_dim]`.
    pub fn forward(&self, ctx: &Ctx, x: &Var) -> Var {
        debug_assert_eq!(x.shape().last(), Some(&self.in_dim));
        let y = ops::matmul_param(x, &self.weight);
        match &self.bias {
            Some(b) => ops::add(&y, &b.leaf(&ctx.tape)),
            None => y,
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<Param> {
        let mut ps = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            ps.push(b.clone());
        }
        ps
    }
}

/// A stack of `Linear` layers with ReLU between (not after) them.
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[64, 32, 1]` makes
    /// `64→32→1` with one hidden ReLU.
    pub fn new(name: &str, widths: &[usize], rng: &mut SeedRng) -> Self {
        assert!(widths.len() >= 2, "MLP needs at least in/out widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass with inter-layer ReLU and optional dropout.
    pub fn forward(&self, ctx: &mut Ctx, x: &Var, dropout_p: f32) -> Var {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(ctx, &h);
            if i < last {
                h = ops::relu(&h);
                h = crate::ctx::dropout(ctx, &h, dropout_p);
            }
        }
        h
    }
}

impl Module for Mlp {
    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::SeedRngExt as _;
    use ist_tensor::Tensor;

    #[test]
    fn linear_shapes_and_bias() {
        let mut rng = SeedRng::seed(1);
        let l = Linear::new("l", 4, 3, &mut rng);
        let ctx = Ctx::eval();
        let x = ctx.tape.leaf(Tensor::ones(&[5, 4]));
        let y = l.forward(&ctx, &x);
        assert_eq!(y.shape(), vec![5, 3]);
        assert_eq!(l.params().len(), 2);
        let l2 = Linear::with_bias("l2", 4, 3, false, &mut rng);
        assert_eq!(l2.params().len(), 1);
    }

    #[test]
    fn linear_learns_identity_direction() {
        // One gradient step on loss = Σ(y)² must reduce the loss.
        let mut rng = SeedRng::seed(2);
        let l = Linear::new("l", 3, 2, &mut rng);
        let loss_at = |l: &Linear| {
            let ctx = Ctx::eval();
            let x = ctx.tape.leaf(Tensor::ones(&[4, 3]));
            let y = l.forward(&ctx, &x);
            let loss = ops::sum_squares(&y);
            (ctx, loss)
        };
        let (ctx, loss) = loss_at(&l);
        let before = loss.value().item();
        ctx.tape.backward(&loss);
        for p in l.params() {
            p.update(|v, g| ist_tensor::ops::axpy(v, -0.01, g));
        }
        let (_, loss) = loss_at(&l);
        assert!(loss.value().item() < before);
    }

    #[test]
    fn mlp_stack() {
        let mut rng = SeedRng::seed(3);
        let m = Mlp::new("m", &[6, 8, 2], &mut rng);
        assert_eq!(m.params().len(), 4);
        let mut ctx = Ctx::train(0);
        let x = ctx.tape.leaf(Tensor::ones(&[3, 6]));
        let y = m.forward(&mut ctx, &x, 0.0);
        assert_eq!(y.shape(), vec![3, 2]);
    }
}
