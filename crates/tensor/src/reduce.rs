//! Reductions (sum/mean/max), softmax family, row norms and argmax.
//!
//! "Last-dim" variants treat a rank-R tensor as a stack of rows of length
//! `shape[R-1]` — the layout every sequence model in this workspace uses.
//!
//! Large reductions run on the shared worker pool ([`crate::pool`]).
//! Row-wise variants partition over whole rows, and the global [`sum`]
//! accumulates fixed-size chunk partials combined in order, so every
//! result is bitwise identical for every pool size.

use crate::pool;
use crate::simd;
use crate::Tensor;

/// Aggregate timing for the two row-reduction hot paths (env-gated; see
/// `ist-obs`). Units are elements processed, so the summary reports an
/// elements-per-second throughput.
static SOFTMAX_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("tensor.softmax", "elem");
static ROWSUM_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("tensor.row_sum", "elem");

/// Fixed partial-sum chunk length for [`sum`]. Independent of the pool
/// size by design: the serial and parallel paths produce the exact same
/// sequence of partials, so changing `IST_THREADS` cannot change the sum.
const SUM_CHUNK: usize = 4096;

/// Sum of all elements.
///
/// Always accumulated as in-order partials over [`SUM_CHUNK`]-sized chunks
/// (whether or not the pool is used), so the result is deterministic
/// across thread counts.
pub fn sum(t: &Tensor) -> f32 {
    let data = t.data();
    if pool::should_parallelize(data.len(), pool::ELEM_GRAIN) {
        pool::parallel_map_chunks(data, SUM_CHUNK, |c| c.iter().sum::<f32>())
            .into_iter()
            .sum()
    } else {
        data.chunks(SUM_CHUNK).map(|c| c.iter().sum::<f32>()).sum()
    }
}

/// Runs `fill(first_row, out_rows)` over `out` split into row blocks, on
/// the pool when the total work is large enough. `row_len` is the output
/// elements per row. Row-partitioned, so results never depend on the
/// pool size.
fn for_row_blocks(
    out: &mut [f32],
    row_len: usize,
    work: usize,
    fill: impl Fn(usize, &mut [f32]) + Sync,
) {
    let rows = out.len() / row_len.max(1);
    if pool::should_parallelize(work, pool::ELEM_GRAIN) && rows > 1 {
        let rows_per = rows.div_ceil(pool::global().threads()).max(1);
        pool::parallel_chunks_mut(out, rows_per * row_len, |ci, chunk| {
            fill(ci * rows_per, chunk);
        });
    } else {
        fill(0, out);
    }
}

/// Mean of all elements (0 for empty tensors).
pub fn mean(t: &Tensor) -> f32 {
    if t.is_empty() {
        0.0
    } else {
        sum(t) / t.len() as f32
    }
}

/// Maximum element. Panics on empty tensors.
pub fn max(t: &Tensor) -> f32 {
    t.data().iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Splits the flat buffer into rows of the last-axis length.
fn rows_of(t: &Tensor) -> (usize, usize) {
    let r = t.rank();
    assert!(r >= 1, "last-dim reduction requires rank ≥ 1");
    let n = t.shape()[r - 1];
    (t.len() / n.max(1), n)
}

/// Sums along the last axis: `[..., n] → [...]` (kept as `[rows]`-shaped
/// tensor with the leading shape preserved).
pub fn sum_lastdim(t: &Tensor) -> Tensor {
    let (rows, n) = rows_of(t);
    let _timing = ROWSUM_TIMER.start_with(t.len() as u64);
    let data = t.data();
    let mut out = vec![0.0f32; rows];
    for_row_blocks(&mut out, 1, t.len(), |r0, slots| {
        for (i, slot) in slots.iter_mut().enumerate() {
            let r = r0 + i;
            *slot = simd::row_sum(&data[r * n..(r + 1) * n]);
        }
    });
    let mut shape = t.shape().to_vec();
    shape.pop();
    Tensor::from_vec(out, &shape)
}

/// Means along the last axis.
pub fn mean_lastdim(t: &Tensor) -> Tensor {
    let (_, n) = rows_of(t);
    let s = sum_lastdim(t);
    crate::ops::scale(&s, 1.0 / n as f32)
}

/// Row-wise numerically stable softmax along the last axis.
pub fn softmax_lastdim(t: &Tensor) -> Tensor {
    let (_, n) = rows_of(t);
    let _timing = SOFTMAX_TIMER.start_with(t.len() as u64);
    let data = t.data();
    let mut out = vec![0.0f32; t.len()];
    for_row_blocks(&mut out, n, t.len(), |r0, chunk| {
        for (i, dst) in chunk.chunks_mut(n).enumerate() {
            let r = r0 + i;
            let row = &data[r * n..(r + 1) * n];
            // Lane-structured max/sum and SIMD normalisation; the exp fill
            // itself stays scalar (`exp` has no vector counterpart with
            // identical rounding).
            let m = simd::row_max(row);
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = (v - m).exp();
            }
            let inv = 1.0 / simd::row_sum(dst);
            simd::scale_in_place(dst, inv);
        }
    });
    Tensor::from_vec(out, t.shape())
}

/// Row-wise log-softmax along the last axis (stable: `x - m - ln Σ e^{x-m}`).
pub fn log_softmax_lastdim(t: &Tensor) -> Tensor {
    let (_, n) = rows_of(t);
    let data = t.data();
    let mut out = vec![0.0f32; t.len()];
    for_row_blocks(&mut out, n, t.len(), |r0, chunk| {
        for (i, dst) in chunk.chunks_mut(n).enumerate() {
            let r = r0 + i;
            let row = &data[r * n..(r + 1) * n];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln() + m;
            for (d, &v) in dst.iter_mut().zip(row) {
                *d = v - lse;
            }
        }
    });
    Tensor::from_vec(out, t.shape())
}

/// Row-wise log-sum-exp along the last axis.
pub fn logsumexp_lastdim(t: &Tensor) -> Tensor {
    let (rows, n) = rows_of(t);
    let mut out = vec![0.0f32; rows];
    for (r, slot) in out.iter_mut().enumerate() {
        let row = &t.data()[r * n..(r + 1) * n];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        *slot = row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln() + m;
    }
    let mut shape = t.shape().to_vec();
    shape.pop();
    Tensor::from_vec(out, &shape)
}

/// Index of the maximum *finite* value in each last-axis row; NaN/±∞
/// entries are skipped deterministically (see [`crate::order`]), an
/// all-non-finite row yields index 0. Ties resolve to the lower index.
pub fn argmax_lastdim(t: &Tensor) -> Vec<usize> {
    let (rows, n) = rows_of(t);
    (0..rows)
        .map(|r| {
            let row = &t.data()[r * n..(r + 1) * n];
            crate::order::argmax_finite(row).unwrap_or(0)
        })
        .collect()
}

/// Indices of the `k` largest values in each last-axis row, descending.
/// Ties are broken by the lower index; NaN entries rank last
/// (deterministic — see [`crate::order::nan_last_desc`]).
pub fn topk_lastdim(t: &Tensor, k: usize) -> Vec<Vec<usize>> {
    let (rows, n) = rows_of(t);
    assert!(k <= n, "topk k={} exceeds row length {}", k, n);
    (0..rows)
        .map(|r| {
            let row = &t.data()[r * n..(r + 1) * n];
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| crate::order::nan_last_desc(row[a], row[b]).then(a.cmp(&b)));
            idx.truncate(k);
            idx
        })
        .collect()
}

/// L2 norm of each last-axis row: `[..., n] → [...]`.
pub fn norm2_lastdim(t: &Tensor) -> Tensor {
    let (rows, n) = rows_of(t);
    let data = t.data();
    let mut out = vec![0.0f32; rows];
    for_row_blocks(&mut out, 1, t.len(), |r0, slots| {
        for (i, slot) in slots.iter_mut().enumerate() {
            let row = &data[(r0 + i) * n..(r0 + i + 1) * n];
            *slot = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        }
    });
    let mut shape = t.shape().to_vec();
    shape.pop();
    Tensor::from_vec(out, &shape)
}

/// Row-wise cosine similarity between every row of `x` (`[m, d]`) and every
/// row of `c` (`[k, d]`), producing `[m, k]`. Rows with zero norm yield 0.
///
/// This is Eq. (6) of the ISRec paper vectorised over positions/concepts.
pub fn cosine_similarity_rows(x: &Tensor, c: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 2);
    assert_eq!(c.rank(), 2);
    assert_eq!(x.shape()[1], c.shape()[1], "feature dims disagree");
    let dots = crate::matmul::matmul(x, &c.t());
    let nx = norm2_lastdim(x);
    let nc = norm2_lastdim(c);
    let (m, k) = (x.shape()[0], c.shape()[0]);
    let mut out = vec![0.0f32; m * k];
    for i in 0..m {
        for j in 0..k {
            let denom = nx.data()[i] * nc.data()[j];
            out[i * k + j] = if denom > 0.0 {
                dots.data()[i * k + j] / denom
            } else {
                0.0
            };
        }
    }
    Tensor::from_vec(out, &[m, k])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn scalar_reductions() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        assert_eq!(sum(&t), 10.0);
        assert_eq!(mean(&t), 2.5);
        assert_eq!(max(&t), 4.0);
    }

    #[test]
    fn lastdim_sums_and_means() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(sum_lastdim(&t).data(), &[6., 15.]);
        assert_close(mean_lastdim(&t).data(), &[2., 5.], 1e-6);
        assert_eq!(sum_lastdim(&t).shape(), &[2]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_shift_invariant() {
        let t = Tensor::from_vec(vec![1., 2., 3., -5., 0., 5.], &[2, 3]);
        let s = softmax_lastdim(&t);
        for r in 0..2 {
            let rowsum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((rowsum - 1.0).abs() < 1e-6);
        }
        let shifted = softmax_lastdim(&crate::ops::add_scalar(&t, 100.0));
        assert_close(shifted.data(), s.data(), 1e-5);
    }

    #[test]
    fn log_softmax_consistency() {
        let t = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]);
        let ls = log_softmax_lastdim(&t);
        let s = softmax_lastdim(&t);
        assert_close(ls.data(), &crate::ops::ln(&s).into_vec(), 1e-5);
        let lse = logsumexp_lastdim(&t);
        assert!(
            (lse.data()[0] - (0.5f32.exp() + (-1.0f32).exp() + 2.0f32.exp()).ln()).abs() < 1e-5
        );
    }

    #[test]
    fn argmax_and_topk() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 3.0, -1.0, 2.0], &[2, 3]);
        assert_eq!(argmax_lastdim(&t), vec![1, 0]);
        let tk = topk_lastdim(&t, 2);
        assert_eq!(tk[0], vec![1, 2]);
        assert_eq!(tk[1], vec![0, 2]);
    }

    #[test]
    fn topk_tie_break_deterministic() {
        let t = Tensor::from_vec(vec![1.0, 1.0, 1.0, 0.0], &[1, 4]);
        assert_eq!(topk_lastdim(&t, 2)[0], vec![0, 1]);
    }

    #[test]
    fn argmax_and_topk_are_nan_safe() {
        // A NaN in a score row must neither panic nor win the ranking.
        let t = Tensor::from_vec(
            vec![0.5, f32::NAN, 0.9, f32::NAN, f32::NAN, f32::NAN],
            &[2, 3],
        );
        assert_eq!(argmax_lastdim(&t), vec![2, 0]); // all-NaN row falls back to 0
        let tk = topk_lastdim(&t, 3);
        assert_eq!(tk[0], vec![2, 0, 1]); // NaN ranks last
        assert_eq!(tk[1], vec![0, 1, 2]); // all-NaN: index order
    }

    #[test]
    fn row_norms() {
        let t = Tensor::from_vec(vec![3., 4., 0., 0.], &[2, 2]);
        assert_close(norm2_lastdim(&t).data(), &[5., 0.], 1e-6);
    }

    #[test]
    fn cosine_rows() {
        let x = Tensor::from_vec(vec![1., 0., 2., 0.], &[2, 2]);
        let c = Tensor::from_vec(vec![1., 0., 0., 1., 1., 1.], &[3, 2]);
        let s = cosine_similarity_rows(&x, &c);
        assert_eq!(s.shape(), &[2, 3]);
        // Both x rows point along e1: cos = 1, 0, 1/√2; scale-invariant.
        let inv_sqrt2 = 1.0 / 2f32.sqrt();
        assert_close(s.data(), &[1., 0., inv_sqrt2, 1., 0., inv_sqrt2], 1e-5);
    }

    #[test]
    fn cosine_zero_row_is_zero() {
        let x = Tensor::zeros(&[1, 2]);
        let c = Tensor::ones(&[1, 2]);
        assert_eq!(cosine_similarity_rows(&x, &c).data(), &[0.0]);
    }
}
