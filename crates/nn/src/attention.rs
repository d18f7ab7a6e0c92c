//! Multi-head self-attention and transformer encoder blocks (Eq. 3–4).
//!
//! Layout convention: activations are `[B·T, d]` (batch-major flattening of
//! `[B, T, d]`); attention internally reshapes to `[B, T, ·]` and uses
//! batched matmuls. Each head owns its `[d, d_h]` projections, and the
//! output projection is decomposed per head (`Concat(heads)·Wo ≡
//! Σ_h head_h·Wo_h`), avoiding 4-D permutes entirely.
//!
//! Query rows: the mask's middle extent `Q` selects how many query rows an
//! attention or block forward computes — the *last* `Q` positions of each
//! sequence. `Q = T` is ordinary self-attention; `Q = 1` (see
//! [`TransformerEncoder::forward_last`]) computes only the newest position,
//! while keys and values still cover all `T`. Every stage is row-wise and
//! `bmm` runs the same blocked GEMM per batch element as `matmul`, so a
//! query row's output does not depend on how many other rows are computed.

use ist_autograd::{fused, ops, Param, Var};
use ist_tensor::pool;
use ist_tensor::rng::SeedRng;
use ist_tensor::Tensor;

use crate::ctx::dropout;
use crate::init;
use crate::linear::Linear;
use crate::module::Module;
use crate::norm::LayerNorm;
use crate::Ctx;

/// Large negative used as the additive mask "−∞".
const NEG_INF: f32 = -1e9;

/// Aggregate attention timing (env-gated; see `ist-obs`). Units are tokens
/// (`B·T`), so the summary reports tokens-per-second forward throughput.
static ATTN_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("nn.attention", "tok");

/// Position-wise feed-forward timing for the transformer block, mirroring
/// [`ATTN_TIMER`] so the chrome-trace timeline separates the two halves of
/// each block.
static FFN_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("nn.ffn", "tok");

/// Builds the additive attention mask `[B, T, T]`.
///
/// `pad[b·T + k] == true` marks position `k` of sequence `b` as padding:
/// nobody may attend *to* it. With `causal`, query `q` may only attend to
/// keys `k ≤ q` (the footnote-2 constraint of the paper).
pub fn attention_mask(batch: usize, len: usize, pad: &[bool], causal: bool) -> Tensor {
    assert_eq!(pad.len(), batch * len);
    let mut m = vec![0.0f32; batch * len * len];
    let fill = |b0: usize, chunk: &mut [f32]| {
        for (i, sq) in chunk.chunks_mut(len * len).enumerate() {
            let b = b0 + i;
            for q in 0..len {
                for k in 0..len {
                    let blocked = (causal && k > q) || pad[b * len + k];
                    if blocked {
                        sq[q * len + k] = NEG_INF;
                    }
                }
            }
        }
    };
    // One pool task per batch-block; each sequence's mask square is written
    // by exactly one task, so the pool size never changes the result.
    if pool::should_parallelize(m.len(), pool::ELEM_GRAIN) && batch > 1 {
        let per = batch.div_ceil(pool::global().threads()).max(1);
        pool::parallel_chunks_mut(&mut m, per * len * len, |ci, chunk| fill(ci * per, chunk));
    } else {
        fill(0, &mut m);
    }
    Tensor::from_vec(m, &[batch, len, len])
}

/// The last `rows` positions of each sequence of `x: [B·T, d]`, as
/// `[B·rows, d]` (`x` itself when `rows == T`).
fn last_positions(x: &Var, batch: usize, len: usize, rows: usize) -> Var {
    if rows == len {
        return x.clone();
    }
    let idx: Vec<usize> = (0..batch)
        .flat_map(|b| (b + 1) * len - rows..(b + 1) * len)
        .collect();
    ops::index_select_rows(x, &idx)
}

/// The newest-position query row of each sequence of a `[B, T, T]` mask,
/// as the `[B, 1, T]` mask of a last-row-only forward.
fn last_query_mask(mask: &Tensor) -> Tensor {
    let (batch, len) = (mask.shape()[0], mask.shape()[2]);
    let rows: Vec<f32> = (0..batch)
        .flat_map(|b| &mask.data()[((b + 1) * len - 1) * len..(b + 1) * len * len])
        .copied()
        .collect();
    Tensor::from_vec(rows, &[batch, 1, len])
}

/// Multi-head scaled-dot-product self-attention.
pub struct MultiHeadSelfAttention {
    wq: Vec<Param>,
    wk: Vec<Param>,
    wv: Vec<Param>,
    wo: Vec<Param>,
    heads: usize,
    d: usize,
    dh: usize,
}

impl MultiHeadSelfAttention {
    /// `heads` must divide `d`.
    pub fn new(name: &str, d: usize, heads: usize, rng: &mut SeedRng) -> Self {
        assert!(
            heads >= 1 && d.is_multiple_of(heads),
            "heads {heads} must divide d {d}"
        );
        let dh = d / heads;
        let make = |tag: &str, rows: usize, cols: usize, rng: &mut SeedRng| {
            (0..heads)
                .map(|h| {
                    Param::new(
                        format!("{name}.{tag}{h}"),
                        init::xavier_uniform(&[rows, cols], rng),
                    )
                })
                .collect::<Vec<_>>()
        };
        MultiHeadSelfAttention {
            wq: make("wq", d, dh, rng),
            wk: make("wk", d, dh, rng),
            wv: make("wv", d, dh, rng),
            wo: make("wo", dh, d, rng),
            heads,
            d,
            dh,
        }
    }

    /// Attends over `x: [B·T, d]` under the additive `mask: [B, Q, T]`,
    /// for the last `Q` positions of each sequence (see the module docs):
    /// returns `[B·Q, d]`.
    pub fn forward(
        &self,
        ctx: &mut Ctx,
        x: &Var,
        batch: usize,
        len: usize,
        mask: &Tensor,
        attn_dropout: f32,
    ) -> Var {
        let queries = mask.shape()[1];
        debug_assert_eq!(x.shape(), vec![batch * len, self.d]);
        debug_assert_eq!(mask.shape(), &[batch, queries, len]);
        let _timing = ATTN_TIMER.start_with((batch * queries) as u64);
        let mask_var = ctx.tape.constant(mask.clone());
        let scale = 1.0 / (self.dh as f32).sqrt();
        let xq = last_positions(x, batch, len, queries);

        let mut out: Option<Var> = None;
        for h in 0..self.heads {
            let q = ops::matmul_param(&xq, &self.wq[h]);
            let k = ops::matmul_param(x, &self.wk[h]);
            let v = ops::matmul_param(x, &self.wv[h]);
            let q3 = ops::reshape(&q, &[batch, queries, self.dh]);
            let k3 = ops::reshape(&k, &[batch, len, self.dh]);
            let v3 = ops::reshape(&v, &[batch, len, self.dh]);

            let scores = ops::scale(&ops::bmm(&q3, &ops::transpose_last2(&k3)), scale);
            let masked = ops::add(&scores, &mask_var);
            let attn = fused::softmax_lastdim(&masked);
            let attn = dropout(ctx, &attn, attn_dropout);

            let ctx_h = ops::bmm(&attn, &v3); // [B, Q, dh]
            let flat = ops::reshape(&ctx_h, &[batch * queries, self.dh]);
            let proj = ops::matmul_param(&flat, &self.wo[h]);
            out = Some(match out {
                Some(acc) => ops::add(&acc, &proj),
                None => proj,
            });
        }
        out.expect("at least one head")
    }
}

impl Module for MultiHeadSelfAttention {
    fn params(&self) -> Vec<Param> {
        self.wq
            .iter()
            .chain(&self.wk)
            .chain(&self.wv)
            .chain(&self.wo)
            .cloned()
            .collect()
    }
}

/// One transformer encoder block: post-LN residual attention + position-wise
/// feed-forward (Eq. 3–4 with the paper's dropout/residual/layer-norm note).
pub struct TransformerBlock {
    attn: MultiHeadSelfAttention,
    ffn1: Linear,
    ffn2: Linear,
    ln1: LayerNorm,
    ln2: LayerNorm,
    dropout_p: f32,
}

impl TransformerBlock {
    /// Block over model width `d` with `heads` attention heads.
    pub fn new(name: &str, d: usize, heads: usize, dropout_p: f32, rng: &mut SeedRng) -> Self {
        TransformerBlock {
            attn: MultiHeadSelfAttention::new(&format!("{name}.attn"), d, heads, rng),
            ffn1: Linear::new(&format!("{name}.ffn1"), d, d, rng),
            ffn2: Linear::new(&format!("{name}.ffn2"), d, d, rng),
            ln1: LayerNorm::new(&format!("{name}.ln1"), d),
            ln2: LayerNorm::new(&format!("{name}.ln2"), d),
            dropout_p,
        }
    }

    /// Applies the block to `x: [B·T, d]` under `mask: [B, Q, T]`,
    /// computing the last `Q` positions of each sequence (`[B·Q, d]`).
    pub fn forward(&self, ctx: &mut Ctx, x: &Var, batch: usize, len: usize, mask: &Tensor) -> Var {
        let queries = mask.shape()[1];
        let a = self.attn.forward(ctx, x, batch, len, mask, self.dropout_p);
        let a = dropout(ctx, &a, self.dropout_p);
        let residual = last_positions(x, batch, len, queries);
        let s = self.ln1.forward(ctx, &ops::add(&residual, &a));

        let _timing = FFN_TIMER.start_with((batch * queries) as u64);
        let f = self.ffn1.forward(ctx, &s);
        let f = ops::relu(&f);
        let f = dropout(ctx, &f, self.dropout_p);
        let f = self.ffn2.forward(ctx, &f);
        let f = dropout(ctx, &f, self.dropout_p);
        self.ln2.forward(ctx, &ops::add(&s, &f))
    }
}

impl Module for TransformerBlock {
    fn params(&self) -> Vec<Param> {
        let mut ps = self.attn.params();
        ps.extend(self.ffn1.params());
        ps.extend(self.ffn2.params());
        ps.extend(self.ln1.params());
        ps.extend(self.ln2.params());
        ps
    }
}

/// A stack of [`TransformerBlock`]s.
pub struct TransformerEncoder {
    blocks: Vec<TransformerBlock>,
}

impl TransformerEncoder {
    /// `layers` blocks of width `d` with `heads` heads each.
    pub fn new(
        name: &str,
        layers: usize,
        d: usize,
        heads: usize,
        dropout_p: f32,
        rng: &mut SeedRng,
    ) -> Self {
        let blocks = (0..layers)
            .map(|l| TransformerBlock::new(&format!("{name}.block{l}"), d, heads, dropout_p, rng))
            .collect();
        TransformerEncoder { blocks }
    }

    /// Runs all blocks over `x: [B·T, d]` under `mask: [B, T, T]`.
    pub fn forward(&self, ctx: &mut Ctx, x: &Var, batch: usize, len: usize, mask: &Tensor) -> Var {
        let mut h = x.clone();
        for block in &self.blocks {
            h = block.forward(ctx, &h, batch, len, mask);
        }
        h
    }

    /// The newest position of each sequence only, `[B, d]`: row `T-1` of
    /// every sequence of [`TransformerEncoder::forward`], bit for bit.
    ///
    /// Earlier blocks run over all positions (they feed the final block's
    /// keys and values); the final block computes queries, the output
    /// projection, both layer norms and the FFN for the newest row alone.
    pub fn forward_last(
        &self,
        ctx: &mut Ctx,
        x: &Var,
        batch: usize,
        len: usize,
        mask: &Tensor,
    ) -> Var {
        let Some((last, rest)) = self.blocks.split_last() else {
            return last_positions(x, batch, len, 1);
        };
        let mut h = x.clone();
        for block in rest {
            h = block.forward(ctx, &h, batch, len, mask);
        }
        last.forward(ctx, &h, batch, len, &last_query_mask(mask))
    }
}

impl Module for TransformerEncoder {
    fn params(&self) -> Vec<Param> {
        self.blocks.iter().flat_map(|b| b.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::{uniform, SeedRngExt as _};

    #[test]
    fn mask_semantics() {
        let pad = vec![true, false, false, false, false, false]; // b0: pos0 padded
        let m = attention_mask(2, 3, &pad, true);
        // b0: q=1 cannot see k=2 (causal) nor k=0 (pad).
        assert_eq!(m.at3(0, 1, 2), NEG_INF);
        assert_eq!(m.at3(0, 1, 0), NEG_INF);
        assert_eq!(m.at3(0, 1, 1), 0.0);
        // b1 has no pads: only causal structure.
        assert_eq!(m.at3(1, 2, 0), 0.0);
        assert_eq!(m.at3(1, 0, 2), NEG_INF);
    }

    #[test]
    fn attention_shapes_and_causality() {
        let mut rng = SeedRng::seed(1);
        let d = 8;
        let attn = MultiHeadSelfAttention::new("a", d, 2, &mut rng);
        let (b, t) = (2, 4);
        let mask = attention_mask(b, t, &vec![false; b * t], true);

        let run = |x: Tensor| {
            let mut ctx = Ctx::eval();
            let xv = ctx.tape.leaf(x);
            attn.forward(&mut ctx, &xv, b, t, &mask, 0.0).value()
        };
        let mut rng2 = SeedRng::seed(2);
        let x0 = uniform(&[b * t, d], -1.0, 1.0, &mut rng2);
        let y0 = run(x0.clone());
        assert_eq!(y0.shape(), &[b * t, d]);

        // Causality: perturbing the LAST position must not change outputs at
        // earlier positions.
        let mut x1 = x0.clone();
        for j in 0..d {
            x1.data_mut()[(t - 1) * d + j] += 1.0; // batch 0, last position
        }
        let y1 = run(x1);
        for pos in 0..t - 1 {
            for j in 0..d {
                assert!(
                    (y0.at2(pos, j) - y1.at2(pos, j)).abs() < 1e-5,
                    "future leaked into position {pos}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_mask_lets_information_flow_backward() {
        let mut rng = SeedRng::seed(3);
        let d = 8;
        let attn = MultiHeadSelfAttention::new("a", d, 1, &mut rng);
        let (b, t) = (1, 3);
        let mask = attention_mask(b, t, &[false; 3], false);
        let mut rng2 = SeedRng::seed(4);
        let x0 = uniform(&[t, d], -1.0, 1.0, &mut rng2);
        let mut x1 = x0.clone();
        x1.data_mut()[2 * d] += 1.0; // perturb last position
        let run = |x: Tensor| {
            let mut ctx = Ctx::eval();
            let xv = ctx.tape.leaf(x);
            attn.forward(&mut ctx, &xv, b, t, &mask, 0.0).value()
        };
        let (y0, y1) = (run(x0), run(x1));
        // Position 0 must change under a bidirectional mask.
        let delta: f32 = (0..d).map(|j| (y0.at2(0, j) - y1.at2(0, j)).abs()).sum();
        assert!(
            delta > 1e-6,
            "bidirectional attention should see the future"
        );
    }

    #[test]
    fn last_row_encoder_matches_full_forward_bitwise() {
        // Left-padded sequences of different real lengths, 1 and 2 blocks:
        // the last-row forward (on either tape kind) must reproduce row
        // T-1 of the full forward exactly.
        let d = 8;
        let (b, t) = (3, 5);
        let pad: Vec<bool> = [3usize, 0, 4]
            .iter()
            .flat_map(|&p| (0..t).map(move |i| i < p))
            .collect();
        let mask = attention_mask(b, t, &pad, true);
        let mut rng2 = SeedRng::seed(8);
        let x = uniform(&[b * t, d], -1.0, 1.0, &mut rng2);
        for layers in [1, 2] {
            let mut rng = SeedRng::seed(7);
            let enc = TransformerEncoder::new("enc", layers, d, 2, 0.1, &mut rng);
            let mut ctx = Ctx::eval();
            let xv = ctx.tape.leaf(x.clone());
            let full = enc.forward(&mut ctx, &xv, b, t, &mask).value();
            for mut ctx in [Ctx::eval(), Ctx::inference()] {
                let xv = ctx.tape.leaf(x.clone());
                let last = enc.forward_last(&mut ctx, &xv, b, t, &mask).value();
                assert_eq!(last.shape(), &[b, d]);
                for bi in 0..b {
                    let want = &full.data()[(bi * t + t - 1) * d..(bi * t + t) * d];
                    let got = &last.data()[bi * d..(bi + 1) * d];
                    let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(got), bits(want), "layers {layers}, sequence {bi}");
                }
            }
        }
    }

    #[test]
    fn encoder_trains() {
        let mut rng = SeedRng::seed(5);
        let d = 8;
        let enc = TransformerEncoder::new("enc", 2, d, 2, 0.1, &mut rng);
        assert!(enc.num_parameters() > 0);
        let (b, t) = (2, 3);
        let mask = attention_mask(b, t, &vec![false; b * t], true);
        let mut ctx = Ctx::train(0);
        let mut rng2 = SeedRng::seed(6);
        let x = ctx.tape.leaf(uniform(&[b * t, d], -1.0, 1.0, &mut rng2));
        let y = enc.forward(&mut ctx, &x, b, t, &mask);
        let loss = ops::sum_squares(&y);
        ctx.tape.backward(&loss);
        // Every block parameter participates.
        let with_grad = enc
            .params()
            .iter()
            .filter(|p| p.grad().norm2() > 0.0)
            .count();
        assert!(
            with_grad > enc.params().len() / 2,
            "{with_grad} params with grads"
        );
    }
}
