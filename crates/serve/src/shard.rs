//! Column-sharded catalog scoring.
//!
//! The single-GEMM scoring path hits a cliff at large catalogs: one
//! `[m,d]·[d,|I|]` matmul materialises the full `m×|I|` score matrix
//! (cold by the time top-K rescans it) and, at serving batch sizes
//! (`m` is often 1), never crosses `matmul`'s row-parallel gate — the
//! whole catalog is scored serially whatever the pool size. Sharding
//! splits the transposed item table into contiguous *column blocks*
//! (one per pool worker in the engine), scores each block with
//! [`ist_tensor::matmul::gemm_cols`] (a view — no copy of the table),
//! ranks the block with a bounded heap while its scores are still
//! cache-hot, and merges the per-block lists with the same comparator
//! the heap uses ([`crate::topk::merge_top_k`]).
//!
//! ## Determinism
//!
//! Results are bitwise identical for every block count:
//!
//! 1. `gemm_cols` accumulates each output element in the same order as
//!    the full-width GEMM (KC panels ascending, depth ascending), and its
//!    zero-row skip depends only on the representation matrix — so block
//!    scores are bit-equal to the corresponding slice of the unsharded
//!    score row.
//! 2. Per-block top-K and the k-way merge share one total rank order
//!    (score descending, item id ascending), and blocks cover disjoint
//!    id ranges — so the merged list is exactly what a single global
//!    heap would keep, ties included.
//!
//! The CI serve gate enforces this end to end: `scores_crc` must match
//! across `IST_THREADS=1/2/3/4`, i.e. across 1–4 blocks.

use std::time::Instant;

use ist_tensor::matmul::gemm_cols;
use ist_tensor::{pool, Tensor};

use crate::engine::Recommendation;
use crate::topk::{merge_top_k, top_k_range};

/// Per-block GEMM+rank work, aggregated (units = multiply-adds ×2).
static SHARD_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("serve.shard", "flop");

/// Partitions `0..num_items` into `blocks` contiguous `[start, end)`
/// ranges of near-equal width (widths differ by at most one, wider blocks
/// first). The count is clamped to `[1, num_items]` (an empty catalog
/// gets one empty block), so asking for more blocks than items degrades
/// to one item per block rather than producing empty blocks.
fn block_bounds(num_items: usize, blocks: usize) -> Vec<(usize, usize)> {
    let s = blocks.clamp(1, num_items.max(1));
    let width = num_items / s;
    let rem = num_items % s;
    let mut bounds = Vec::with_capacity(s);
    let mut at = 0usize;
    for si in 0..s {
        let w = width + usize::from(si < rem);
        bounds.push((at, at + w));
        at += w;
    }
    debug_assert_eq!(at, num_items);
    bounds
}

/// One request row's ranked result: its top-K list, or the message of
/// the first (lowest item range) block that hit a non-finite score.
pub type RowRanking = Result<Vec<Recommendation>, String>;

/// Wall-clock split of one [`score_sharded_timed`] call, feeding the
/// per-request stage breakdown (`score` = block fan-out GEMM + per-block
/// top-K, `merge` = the k-way merge of the per-block lists).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardTiming {
    /// Block fan-out: GEMM + per-block bounded-heap top-K.
    pub score: std::time::Duration,
    /// K-way merge of the per-block lists.
    pub merge: std::time::Duration,
}

/// Scores every representation row in `reprs` (`[m, d]`) against the
/// transposed item table `table_t` (`[d, num_items]`) in `blocks`
/// contiguous column blocks and returns each row's top-`ks[row]` items,
/// best first. The engine passes the pool size; the result is bitwise
/// identical for every count.
///
/// Each block is one `gemm_cols` GEMM into an `m×width` buffer followed
/// immediately by per-row bounded-heap top-K over that buffer — the
/// block is ranked while still cache-resident, instead of materialising
/// the full `m×num_items` score matrix and rescanning it cold. With more
/// than one block and more than one pool worker, blocks fan out on the
/// shared `ist_tensor` pool. Per-row errors (non-finite scores) fail only
/// that row; the lowest-numbered failing block's message wins,
/// deterministically.
pub fn score_sharded(
    reprs: &Tensor,
    table_t: &Tensor,
    ks: &[usize],
    blocks: usize,
) -> Vec<RowRanking> {
    score_sharded_timed(reprs, table_t, ks, blocks).0
}

/// [`score_sharded`] plus a [`ShardTiming`] wall-clock split of the
/// fan-out and merge phases, for the request-level stage breakdown. The
/// timing is measurement only — rankings are bitwise identical to
/// [`score_sharded`]'s.
pub fn score_sharded_timed(
    reprs: &Tensor,
    table_t: &Tensor,
    ks: &[usize],
    blocks: usize,
) -> (Vec<RowRanking>, ShardTiming) {
    let m = reprs.shape()[0];
    let d = reprs.shape()[1];
    let num_items = table_t.shape()[1];
    debug_assert_eq!(table_t.shape()[0], d);
    debug_assert_eq!(ks.len(), m);
    let bounds = block_bounds(num_items, blocks);

    let shard_one = |&(b0, b1): &(usize, usize)| -> Vec<RowRanking> {
        let width = b1 - b0;
        let _timing = SHARD_TIMER.start_with(2 * (m * d * width) as u64);
        let mut block = vec![0.0f32; m * width];
        gemm_cols(
            reprs.data(),
            table_t.data(),
            &mut block,
            m,
            d,
            num_items,
            b0,
            width,
        );
        (0..m)
            .map(|r| top_k_range(&block[r * width..(r + 1) * width], b0, ks[r]))
            .collect()
    };

    let pool = pool::global();
    let fanout_started = Instant::now();
    let per_shard: Vec<Vec<RowRanking>> = if bounds.len() > 1 && pool.threads() > 1 {
        // Slot-per-block fan-out on the shared pool (help-while-wait, so
        // this nests safely under any caller already on the pool).
        let mut slots: Vec<Option<Vec<RowRanking>>> = bounds.iter().map(|_| None).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .zip(&bounds)
            .map(|(slot, bounds)| {
                let shard_one = &shard_one;
                Box::new(move || *slot = Some(shard_one(bounds))) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(tasks);
        slots
            .into_iter()
            .map(|s| s.expect("pool.run completed every block task"))
            .collect()
    } else {
        bounds.iter().map(shard_one).collect()
    };
    let score_dur = fanout_started.elapsed();

    let merge_started = Instant::now();
    let merged = (0..m)
        .map(|r| {
            // First failing block (lowest item range) wins, so the error a
            // caller sees is independent of execution order.
            let mut lists = Vec::with_capacity(per_shard.len());
            for shard_rows in &per_shard {
                match &shard_rows[r] {
                    Ok(list) => lists.push(list.clone()),
                    Err(e) => return Err(e.clone()),
                }
            }
            Ok(merge_top_k(&lists, ks[r]))
        })
        .collect();
    (
        merged,
        ShardTiming {
            score: score_dur,
            merge: merge_started.elapsed(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ist_tensor::rng::{uniform, SeedRng, SeedRngExt as _};

    #[test]
    fn plan_covers_catalog_contiguously() {
        for (n, s) in [(10usize, 3usize), (7, 7), (7, 20), (1, 4), (100, 1)] {
            let bounds = block_bounds(n, s);
            assert!(bounds.len() <= n.max(1));
            let mut at = 0usize;
            for &(b0, b1) in &bounds {
                assert_eq!(b0, at);
                assert!(b1 > b0, "empty block in {bounds:?}");
                at = b1;
            }
            assert_eq!(at, n);
            // Near-equal widths: max and min differ by at most one.
            let widths: Vec<usize> = bounds.iter().map(|&(a, b)| b - a).collect();
            let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn plan_handles_empty_catalog() {
        assert_eq!(block_bounds(0, 4), [(0, 0)]);
    }

    #[test]
    fn sharded_scoring_matches_unsharded_bitwise() {
        let mut rng = SeedRng::seed(23);
        let (m, d, n) = (3usize, 16usize, 157usize);
        let reprs = uniform(&[m, d], -1.0, 1.0, &mut rng);
        let table = uniform(&[d, n], -1.0, 1.0, &mut rng);
        let ks = [5usize, 1, 200]; // k > catalog on the last row
        let baseline = score_sharded(&reprs, &table, &ks, 1);
        for blocks in [2usize, 3, 8, n, n + 50] {
            let got = score_sharded(&reprs, &table, &ks, blocks);
            for (r, (g, b)) in got.iter().zip(&baseline).enumerate() {
                let (g, b) = (g.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(g.len(), b.len(), "blocks={blocks} row={r}");
                for (x, y) in g.iter().zip(b) {
                    assert_eq!(x.item, y.item, "blocks={blocks} row={r}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "blocks={blocks} row={r} item={}",
                        x.item
                    );
                }
            }
        }
    }

    #[test]
    fn non_finite_score_fails_only_its_row_deterministically() {
        // Row 0 reads the poisoned table row and must fail with the item
        // named; row 1's repr is zero there (the kernel skips zero
        // a-elements), so it keeps serving — and both outcomes must be
        // identical for every block count.
        let reprs = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let mut table = vec![0.5f32; 2 * 8];
        table[5] = f32::NAN; // table_t (d=0, item=5)
        let table = Tensor::from_vec(table, &[2, 8]);
        for blocks in [1usize, 4, 8] {
            let got = score_sharded(&reprs, &table, &[3, 3], blocks);
            let err = got[0].as_ref().unwrap_err();
            assert!(err.contains("item 5"), "blocks={blocks}: {err}");
            let ok = got[1].as_ref().unwrap();
            assert_eq!(ok.len(), 3, "blocks={blocks}");
            assert!(ok.iter().all(|r| r.score.is_finite()));
        }
    }
}
