//! Matrix multiplication: cache-blocked 2-D GEMM parallelised over the
//! shared worker pool, matrix–vector products, and batched 3-D `bmm`.
//!
//! The production kernel ([`gemm_blocked`]) tiles over N (`NC` columns) and
//! K (`KC` rows of `b`), packing each `b` panel into this thread's grow-only
//! workspace ([`crate::pool::with_workspace`] — zero allocations once the
//! buffers reach their high-water size) so the innermost loops stream over
//! cache-resident memory, and processes four rows of `a` per pass through
//! the runtime-dispatched SIMD micro-kernel ([`crate::simd::gemm_kernel`];
//! bitwise identical output at every dispatch level). All-zero rows of `a`
//! — padded sequence positions, which are common in this workload — are
//! detected once and skipped. The unblocked `i-k-j` kernel
//! ([`gemm_serial`]) is kept as the reference implementation for tests and
//! benchmarks.
//!
//! Parallelism: row blocks of the output are dealt to the persistent pool
//! ([`crate::pool`]); no threads are spawned per call. Every output element
//! is computed by exactly one task with a fixed k-accumulation order, so
//! results are bitwise identical for every pool size. The serial/parallel
//! crossover is derived from the pool size and the per-worker grain
//! ([`crate::pool::GEMM_GRAIN`]), plus a measured small-size serial cutoff
//! ([`crate::pool::GEMM_SERIAL_CUTOFF`]) below which fan-out overhead
//! always loses to the single-threaded blocked kernel.

use crate::pool;
use crate::simd::{self, PanelGeom, NR};
use crate::Tensor;

/// Aggregate GEMM telemetry: total multiply-add work feeds a GFLOP/s rate
/// in the `ist-obs` summary (near-zero cost while `IST_METRICS` is unset).
static GEMM_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("tensor.gemm", "flop");
static BMM_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("tensor.bmm", "flop");
static MATVEC_TIMER: ist_obs::Timer = ist_obs::Timer::with_unit("tensor.matvec", "flop");

/// Output-buffer allocation volume per hot op (memory accounting: these
/// three are the dominant transient allocators in training).
static GEMM_OUT_BYTES: ist_obs::Counter = ist_obs::Counter::new("tensor.gemm.alloc_bytes");
static BMM_OUT_BYTES: ist_obs::Counter = ist_obs::Counter::new("tensor.bmm.alloc_bytes");
static MATVEC_OUT_BYTES: ist_obs::Counter = ist_obs::Counter::new("tensor.matvec.alloc_bytes");

/// Packing-workspace telemetry: GEMM calls whose panel/row-zero scratch was
/// served entirely from this thread's grow-only workspace (no allocation),
/// and the bytes the workspaces did grow by. In steady state `pack_reuse`
/// tracks the GEMM call count while `pack_bytes` stays flat — the
/// regression test in `crates/tensor/tests/workspace_alloc.rs` pins this.
static GEMM_PACK_REUSE: ist_obs::Counter = ist_obs::Counter::new("tensor.gemm.pack_reuse");
static GEMM_PACK_BYTES: ist_obs::Counter = ist_obs::Counter::new("tensor.gemm.pack_bytes");

/// Columns of `b` packed per panel (`NC · KC` floats ≈ 64 KiB, L2-resident).
const NC: usize = 64;
/// Rows of `b` (depth) packed per panel.
const KC: usize = 256;

/// Snapshot of the packing-workspace counters as
/// `(pack_reuse, pack_bytes)` — test hook for the zero-alloc steady-state
/// guarantee. Counters only advance while `ist-obs` metrics are enabled.
pub fn pack_counters() -> (u64, u64) {
    (GEMM_PACK_REUSE.get(), GEMM_PACK_BYTES.get())
}

/// Reference serial `i-k-j` GEMM kernel: `out[m×n] += a[m×k] · b[k×n]`.
///
/// Unblocked; kept for correctness comparisons and as the baseline side of
/// the `bench_gemm` binary.
pub fn gemm_serial(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue; // masked/padded rows are common in this workload
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

/// Cache-blocked GEMM kernel: `out[m×n] += a[m×k] · b[k×n]`.
///
/// The k-accumulation order for each output element is `kk` ascending, the
/// same as [`gemm_serial`], so blocked and unblocked kernels agree to
/// floating-point rounding (≤ 1e-4 relative at this workspace's scales).
pub fn gemm_blocked(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(b.len(), k * n);
    gemm_blocked_view(a, b, n, 0, out, m, k, n);
}

/// Cache-blocked GEMM over a *column block* of `b`:
/// `out[m×ncols] += a[m×k] · b[:, col0 .. col0+ncols]`, where `b` is the
/// full row-major `k×n_full` matrix. Nothing is copied out of `b` beyond
/// the panel packing every GEMM already does, so callers can score
/// disjoint column shards of one shared table concurrently.
///
/// Bitwise contract: for every output element, the k-accumulation order
/// (KC panels ascending, depth ascending within a panel) and the zero-row
/// skip depend only on `a` and `k` — never on which columns are being
/// computed — so `out[i][j]` is bit-identical to column `col0 + j` of the
/// full [`gemm_blocked`] product. The serving layer's cross-shard CRC
/// identity rests on this.
#[allow(clippy::too_many_arguments)]
pub fn gemm_cols(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n_full: usize,
    col0: usize,
    ncols: usize,
) {
    debug_assert_eq!(b.len(), k * n_full);
    assert!(
        col0 + ncols <= n_full,
        "column block {col0}..{} exceeds table width {n_full}",
        col0 + ncols
    );
    gemm_blocked_view(a, b, n_full, col0, out, m, k, ncols);
}

/// Shared body of [`gemm_blocked`] and [`gemm_cols`]: `b`'s element
/// `(p, j)` is read at `b[p·b_stride + b_col0 + j]`, the output is a dense
/// `m×n` block. The micro-kernel is untouched — only panel packing knows
/// about the stride.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_view(
    a: &[f32],
    b: &[f32],
    b_stride: usize,
    b_col0: usize,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    // Resolve the SIMD micro-kernel once per call, not per panel.
    let kernel = simd::gemm_kernel();

    pool::with_workspace(|ws| {
        // Grow-only scratch: once `panel` and `row_zero` hit their
        // high-water sizes, steady-state calls allocate nothing.
        let mut grew = 0u64;
        if ws.panel.len() < NC * KC {
            grew += ((NC * KC - ws.panel.len()) * std::mem::size_of::<f32>()) as u64;
            ws.panel.resize(NC * KC, 0.0);
        }
        ws.row_zero.clear();
        if ws.row_zero.capacity() < m {
            grew += (m - ws.row_zero.capacity()) as u64;
            ws.row_zero.reserve(m);
        }
        if grew > 0 {
            GEMM_PACK_BYTES.add(grew);
        } else {
            GEMM_PACK_REUSE.add(1);
        }

        // Padded sequence positions show up as all-zero rows of `a`; find
        // them once (an O(m·k) scan against O(m·n·k) work) and skip them
        // everywhere.
        ws.row_zero
            .extend((0..m).map(|i| a[i * k..(i + 1) * k].iter().all(|&v| v == 0.0)));

        // Panel layout: `nblocks` NR-wide column blocks, each stored as
        // `[p][NR]` (depth-major), then one `tail`-wide block as
        // `[p][tail]`. The micro-kernel then streams each block
        // contiguously.
        let panel = &mut ws.panel[..NC * KC];
        for jj in (0..n).step_by(NC) {
            let nc = NC.min(n - jj);
            let nblocks = nc / NR;
            let tail = nc % NR;
            for kk in (0..k).step_by(KC) {
                let kc = KC.min(k - kk);
                for jb in 0..nblocks {
                    let dst = &mut panel[jb * kc * NR..(jb + 1) * kc * NR];
                    for p in 0..kc {
                        let col = (kk + p) * b_stride + b_col0 + jj + jb * NR;
                        dst[p * NR..(p + 1) * NR].copy_from_slice(&b[col..col + NR]);
                    }
                }
                if tail > 0 {
                    let dst = &mut panel[nblocks * kc * NR..];
                    for p in 0..kc {
                        let col = (kk + p) * b_stride + b_col0 + jj + nblocks * NR;
                        dst[p * tail..(p + 1) * tail].copy_from_slice(&b[col..col + tail]);
                    }
                }
                kernel.call(
                    a,
                    &ws.row_zero,
                    panel,
                    out,
                    PanelGeom {
                        m,
                        k,
                        n,
                        kk,
                        kc,
                        jj,
                        nblocks,
                        tail,
                    },
                );
            }
        }
    });
}

/// `a[m×k] · b[k×n] → [m×n]` on the global pool.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_in(pool::global(), a, b)
}

/// `a[m×k] · b[k×n] → [m×n]` on an explicit pool (benchmarks measure
/// scaling by passing pools of different sizes; everything else uses
/// [`matmul`]).
pub fn matmul_in(pool: &pool::ThreadPool, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul lhs must be 2-D, got {:?}", a.shape());
    assert_eq!(b.rank(), 2, "matmul rhs must be 2-D, got {:?}", b.shape());
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(
        k,
        k2,
        "inner dims disagree: {:?} · {:?}",
        a.shape(),
        b.shape()
    );

    let mut out = vec![0.0f32; m * n];
    GEMM_OUT_BYTES.add((m * n * 4) as u64);
    let flops = m * n * k;
    let _timing = GEMM_TIMER.start_with(2 * flops as u64);
    let threads = pool.threads();
    // Two gates: enough work per worker (grain) AND enough total work to
    // amortise the fan-out itself (serial cutoff — see `GEMM_SERIAL_CUTOFF`
    // for the measured small-size crossover).
    let parallel = threads > 1
        && flops >= pool::GEMM_SERIAL_CUTOFF
        && flops >= pool::GEMM_GRAIN.saturating_mul(threads)
        && m >= 2;
    if !parallel {
        gemm_blocked(a.data(), b.data(), &mut out, m, k, n);
        return Tensor::from_vec(out, &[m, n]);
    }

    let rows_per = m.div_ceil(threads).max(1);
    let a_data = a.data();
    let b_data = b.data();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(rows_per * n)
        .enumerate()
        .map(|(chunk_idx, out_chunk)| {
            let row0 = chunk_idx * rows_per;
            let rows = out_chunk.len() / n;
            let a_block = &a_data[row0 * k..(row0 + rows) * k];
            Box::new(move || {
                gemm_blocked(a_block, b_data, out_chunk, rows, k, n);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(tasks);
    Tensor::from_vec(out, &[m, n])
}

/// `a[m×k] · x[k] → [m]`, row blocks dealt to the pool for large inputs.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2);
    assert_eq!(x.rank(), 1);
    let (m, k) = (a.shape()[0], a.shape()[1]);
    assert_eq!(k, x.shape()[0]);
    let mut out = vec![0.0f32; m];
    MATVEC_OUT_BYTES.add((m * 4) as u64);
    let _timing = MATVEC_TIMER.start_with(2 * (m * k) as u64);
    let a_data = a.data();
    let x_data = x.data();
    let dot_rows = |row0: usize, out_chunk: &mut [f32]| {
        for (i, slot) in out_chunk.iter_mut().enumerate() {
            let row = &a_data[(row0 + i) * k..(row0 + i + 1) * k];
            *slot = simd::dot(row, x_data);
        }
    };
    if pool::should_parallelize(m * k, pool::GEMM_GRAIN) {
        let rows_per = m.div_ceil(pool::global().threads()).max(1);
        pool::parallel_chunks_mut(&mut out, rows_per, |chunk_idx, out_chunk| {
            dot_rows(chunk_idx * rows_per, out_chunk);
        });
    } else {
        dot_rows(0, &mut out);
    }
    Tensor::from_vec(out, &[m])
}

/// Batched matmul: `a[B×m×k] · b[B×k×n] → [B×m×n]`, batch blocks dealt to
/// the pool.
pub fn bmm(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 3, "bmm lhs must be 3-D, got {:?}", a.shape());
    assert_eq!(b.rank(), 3, "bmm rhs must be 3-D, got {:?}", b.shape());
    let (ba, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
    let (bb, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
    assert_eq!(ba, bb, "bmm batch dims disagree");
    assert_eq!(k, k2, "bmm inner dims disagree");

    let mut out = vec![0.0f32; ba * m * n];
    BMM_OUT_BYTES.add((ba * m * n * 4) as u64);
    let pool = pool::global();
    let threads = pool.threads();
    let flops = ba * m * n * k;
    let _timing = BMM_TIMER.start_with(2 * flops as u64);
    let a_data = a.data();
    let b_data = b.data();
    let run_batches = |b0: usize, out_chunk: &mut [f32]| {
        for (j, o) in out_chunk.chunks_mut(m * n).enumerate() {
            let bi = b0 + j;
            gemm_blocked(
                &a_data[bi * m * k..(bi + 1) * m * k],
                &b_data[bi * k * n..(bi + 1) * k * n],
                o,
                m,
                k,
                n,
            );
        }
    };
    let parallel = threads > 1 && ba > 1 && flops >= pool::GEMM_GRAIN.saturating_mul(threads);
    if !parallel {
        run_batches(0, &mut out);
        return Tensor::from_vec(out, &[ba, m, n]);
    }

    let batches_per = ba.div_ceil(threads).max(1);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
        .chunks_mut(batches_per * m * n)
        .enumerate()
        .map(|(chunk_idx, out_chunk)| {
            let run_batches = &run_batches;
            Box::new(move || run_batches(chunk_idx * batches_per, out_chunk))
                as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run(tasks);
    Tensor::from_vec(out, &[ba, m, n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::{uniform, SeedRng, SeedRngExt as _};

    #[test]
    fn matmul_hand_case() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SeedRng::seed(7);
        let a = uniform(&[5, 5], -1.0, 1.0, &mut rng);
        let i = Tensor::eye(5);
        assert_close(matmul(&a, &i).data(), a.data(), 1e-6);
        assert_close(matmul(&i, &a).data(), a.data(), 1e-6);
    }

    #[test]
    fn matmul_matches_transpose_identity() {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let mut rng = SeedRng::seed(11);
        let a = uniform(&[4, 6], -1.0, 1.0, &mut rng);
        let b = uniform(&[6, 3], -1.0, 1.0, &mut rng);
        let lhs = matmul(&a, &b).t();
        let rhs = matmul(&b.t(), &a.t());
        assert_close(lhs.data(), rhs.data(), 1e-5);
    }

    #[test]
    fn parallel_path_matches_serial() {
        let mut rng = SeedRng::seed(3);
        // Big enough to cross the parallel threshold on any pool size.
        let a = uniform(&[256, 128], -1.0, 1.0, &mut rng);
        let b = uniform(&[128, 256], -1.0, 1.0, &mut rng);
        let par = matmul(&a, &b);
        let mut serial = vec![0.0f32; 256 * 256];
        gemm_serial(a.data(), b.data(), &mut serial, 256, 128, 256);
        assert_close(par.data(), &serial, 1e-4);
    }

    #[test]
    fn explicit_pools_agree_bitwise_across_sizes() {
        let mut rng = SeedRng::seed(13);
        let a = uniform(&[96, 200], -1.0, 1.0, &mut rng);
        let b = uniform(&[200, 96], -1.0, 1.0, &mut rng);
        let one = pool::ThreadPool::new(1);
        let four = pool::ThreadPool::new(4);
        let c1 = matmul_in(&one, &a, &b);
        let c4 = matmul_in(&four, &a, &b);
        assert_eq!(c1.data(), c4.data(), "thread count changed GEMM bits");
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = SeedRng::seed(5);
        let a = uniform(&[4, 3], -1.0, 1.0, &mut rng);
        let x = uniform(&[3], -1.0, 1.0, &mut rng);
        let mv = matvec(&a, &x);
        let mm = matmul(&a, &x.reshape(&[3, 1]));
        assert_close(mv.data(), mm.data(), 1e-6);
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let mut rng = SeedRng::seed(9);
        let a = uniform(&[3, 2, 4], -1.0, 1.0, &mut rng);
        let b = uniform(&[3, 4, 5], -1.0, 1.0, &mut rng);
        let c = bmm(&a, &b);
        for bi in 0..3 {
            let a2 = Tensor::from_vec(a.data()[bi * 8..(bi + 1) * 8].to_vec(), &[2, 4]);
            let b2 = Tensor::from_vec(b.data()[bi * 20..(bi + 1) * 20].to_vec(), &[4, 5]);
            let c2 = matmul(&a2, &b2);
            assert_close(&c.data()[bi * 10..(bi + 1) * 10], c2.data(), 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn dimension_mismatch_panics() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// Column-block GEMM must reproduce the full product's columns bit for
    /// bit — the serving layer's cross-shard CRC identity depends on it.
    #[test]
    fn gemm_cols_matches_full_gemm_bitwise() {
        let mut rng = SeedRng::seed(17);
        let (m, k, n) = (5, 48, 203); // n not a multiple of NC or NR
        let a = uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
        let mut full = vec![0.0f32; m * n];
        gemm_blocked(a.data(), b.data(), &mut full, m, k, n);

        // Uneven split covering NC-boundary-crossing and 1-wide blocks.
        for &(col0, ncols) in &[(0usize, 70usize), (70, 1), (71, 64), (135, 68)] {
            let mut block = vec![0.0f32; m * ncols];
            gemm_cols(a.data(), b.data(), &mut block, m, k, n, col0, ncols);
            for i in 0..m {
                for j in 0..ncols {
                    assert_eq!(
                        block[i * ncols + j].to_bits(),
                        full[i * n + col0 + j].to_bits(),
                        "col block ({col0},{ncols}) diverged at ({i},{j})"
                    );
                }
            }
        }
    }

    /// Zero-row skipping depends only on `a`, so it must behave identically
    /// under column restriction (padded positions are common in serving).
    #[test]
    fn gemm_cols_bitwise_with_zero_rows() {
        let mut rng = SeedRng::seed(19);
        let (m, k, n) = (4, 32, 100);
        let mut a = uniform(&[m, k], -1.0, 1.0, &mut rng).data().to_vec();
        a[k..2 * k].fill(0.0); // one all-zero row
        let b = uniform(&[k, n], -1.0, 1.0, &mut rng);
        let mut full = vec![0.0f32; m * n];
        gemm_blocked(&a, b.data(), &mut full, m, k, n);
        let (col0, ncols) = (33, 45);
        let mut block = vec![0.0f32; m * ncols];
        gemm_cols(&a, b.data(), &mut block, m, k, n, col0, ncols);
        for i in 0..m {
            for j in 0..ncols {
                assert_eq!(
                    block[i * ncols + j].to_bits(),
                    full[i * n + col0 + j].to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds table width")]
    fn gemm_cols_out_of_range_panics() {
        let a = vec![0.0f32; 2 * 3];
        let b = vec![0.0f32; 3 * 4];
        let mut out = vec![0.0f32; 2 * 2];
        gemm_cols(&a, &b, &mut out, 2, 3, 4, 3, 2);
    }
}
