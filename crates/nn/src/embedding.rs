//! Embedding tables: plain row lookup and bag-of-rows sums (Eq. 1's
//! concept-embedding term), plus learned positional embeddings.

use ist_autograd::{ops, Param, Var};
use ist_tensor::rng::SeedRng;

use crate::init;
use crate::module::Module;
use crate::Ctx;

/// A learnable `[vocab, dim]` lookup table.
pub struct Embedding {
    /// The table itself.
    pub table: Param,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// `N(0, 0.02²)`-initialised table.
    pub fn new(name: &str, vocab: usize, dim: usize, rng: &mut SeedRng) -> Self {
        let table = Param::new(name, init::normal(&[vocab, dim], 0.02, rng));
        Embedding { table, vocab, dim }
    }

    /// Looks up `indices`, producing `[len, dim]`.
    ///
    /// On a `no_grad` tape nothing routes a gradient back to the table, so
    /// the rows are gathered straight from a borrow of the parameter
    /// instead of first cloning the whole table onto the tape: serving a
    /// batch reads a few dozen rows of a catalog-sized table. Same gather,
    /// same values.
    pub fn forward(&self, ctx: &Ctx, indices: &[usize]) -> Var {
        debug_assert!(indices.iter().all(|&i| i < self.vocab));
        if ctx.tape.grad_enabled() {
            ops::index_select_rows(&self.table.leaf(&ctx.tape), indices)
        } else {
            ctx.constant(self.table.with_value(|t| t.index_select_rows(indices)))
        }
    }

    /// Sums the rows of each bag: `out[r] = Σ_{i∈bags[r]} table[i]`.
    ///
    /// Empty bags yield zero rows. This is the "sum of concept embeddings
    /// of the item" term of Eq. (1).
    pub fn forward_bags(&self, ctx: &Ctx, bags: &[Vec<usize>]) -> Var {
        ops::bag_select_sum(&self.table.leaf(&ctx.tape), bags)
    }

    /// The full table as a variable (for output-layer weight tying, Eq. 12).
    pub fn full(&self, ctx: &Ctx) -> Var {
        self.table.leaf(&ctx.tape)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Module for Embedding {
    fn params(&self) -> Vec<Param> {
        vec![self.table.clone()]
    }
}

/// Learned absolute positional embeddings for sequences of length ≤ `max_len`.
pub struct PositionalEmbedding {
    inner: Embedding,
    max_len: usize,
}

impl PositionalEmbedding {
    /// New table over `max_len` positions.
    pub fn new(name: &str, max_len: usize, dim: usize, rng: &mut SeedRng) -> Self {
        PositionalEmbedding {
            inner: Embedding::new(name, max_len, dim, rng),
            max_len,
        }
    }

    /// Embeddings for positions `0..len` repeated for each of `batch`
    /// sequences: `[batch·len, dim]`, batch-major (matching flattened
    /// `[B, T]` layouts).
    pub fn forward(&self, ctx: &Ctx, batch: usize, len: usize) -> Var {
        assert!(
            len <= self.max_len,
            "sequence length {len} exceeds max {}",
            self.max_len
        );
        let mut idx = Vec::with_capacity(batch * len);
        for _ in 0..batch {
            idx.extend(0..len);
        }
        self.inner.forward(ctx, &idx)
    }
}

impl Module for PositionalEmbedding {
    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::SeedRngExt as _;

    #[test]
    fn lookup_shapes() {
        let mut rng = SeedRng::seed(1);
        let e = Embedding::new("e", 10, 4, &mut rng);
        let ctx = Ctx::eval();
        let v = e.forward(&ctx, &[1, 1, 3]);
        assert_eq!(v.shape(), vec![3, 4]);
        // Repeated index yields identical rows.
        let val = v.value();
        assert_eq!(&val.data()[0..4], &val.data()[4..8]);
    }

    #[test]
    fn inference_lookup_matches_the_tape_lookup() {
        let mut rng = SeedRng::seed(5);
        let e = Embedding::new("e", 10, 4, &mut rng);
        let idx = [9, 0, 3, 3];
        let taped = e.forward(&Ctx::eval(), &idx).value();
        let ctx = Ctx::inference();
        let v = e.forward(&ctx, &idx);
        assert_eq!(v.value().data(), taped.data());
        assert_eq!(ctx.tape.len(), 1, "one gathered constant, no table copy");
    }

    #[test]
    fn bags_sum_rows() {
        let mut rng = SeedRng::seed(2);
        let e = Embedding::new("e", 5, 3, &mut rng);
        let ctx = Ctx::eval();
        let bags = vec![vec![0, 1], vec![]];
        let v = e.forward_bags(&ctx, &bags).value();
        let table = e.table.value();
        for j in 0..3 {
            let expect = table.at2(0, j) + table.at2(1, j);
            assert!((v.at2(0, j) - expect).abs() < 1e-6);
            assert_eq!(v.at2(1, j), 0.0);
        }
    }

    #[test]
    fn positional_layout_is_batch_major() {
        let mut rng = SeedRng::seed(3);
        let p = PositionalEmbedding::new("p", 8, 2, &mut rng);
        let ctx = Ctx::eval();
        let v = p.forward(&ctx, 2, 3).value();
        assert_eq!(v.shape(), &[6, 2]);
        // Position 0 of both batch elements must match.
        assert_eq!(&v.data()[0..2], &v.data()[6..8]);
    }

    #[test]
    fn embedding_gradient_reaches_table() {
        let mut rng = SeedRng::seed(4);
        let e = Embedding::new("e", 6, 2, &mut rng);
        let ctx = Ctx::eval();
        let v = e.forward(&ctx, &[2, 2]);
        let loss = ops::sum_squares(&v);
        ctx.tape.backward(&loss);
        let g = e.table.grad();
        // Only row 2 received gradient; twice.
        assert!(g.row(2).norm2() > 0.0);
        assert_eq!(g.row(0).norm2(), 0.0);
    }
}
