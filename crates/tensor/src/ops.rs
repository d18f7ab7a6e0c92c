//! Element-wise arithmetic (with broadcasting) and transcendental maps.
//!
//! Large maps are dealt to the shared worker pool ([`crate::pool`]) in
//! contiguous chunks. Every element is computed independently, so the
//! result is identical for every pool size. The arithmetic entry points
//! (`add`/`sub`/`mul`/`div`, `axpy`, `scale`, …) route same-shape operands
//! through the runtime-dispatched SIMD kernels in [`crate::simd`].

use crate::pool;
use crate::shape::{broadcast_shapes, broadcast_source_index};
use crate::simd;
use crate::Tensor;

/// The single chunked-fill entry point for elementwise output buffers:
/// picks the pooled or serial path once, then hands `(base_index, chunk)`
/// pairs to `kernel`. The partition depends only on the length and pool
/// size gates — and since every kernel is elementwise, results are
/// identical however the buffer is split.
fn fill_chunks(out: &mut [f32], kernel: &(impl Fn(usize, &mut [f32]) + Sync)) {
    if pool::should_parallelize(out.len(), pool::ELEM_GRAIN) {
        let chunk = out.len().div_ceil(pool::global().threads()).max(1);
        pool::parallel_chunks_mut(out, chunk, |ci, o| kernel(ci * chunk, o));
    } else {
        kernel(0, out);
    }
}

/// Same-shape binary arithmetic through one SIMD slice kernel. Shape
/// equality is the caller's check; lengths then agree by construction.
fn binary_same_shape(a: &Tensor, b: &Tensor, kernel: fn(&[f32], &[f32], &mut [f32])) -> Tensor {
    let (xs, ys) = (a.data(), b.data());
    let mut data = vec![0.0f32; xs.len()];
    fill_chunks(&mut data, &|base, out| {
        let end = base + out.len();
        kernel(&xs[base..end], &ys[base..end], out);
    });
    Tensor::from_vec(data, a.shape())
}

/// Applies `f` to every element, producing a new tensor.
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let src = t.data();
    let mut data = vec![0.0f32; src.len()];
    fill_chunks(&mut data, &|base, out| {
        for (o, &v) in out.iter_mut().zip(&src[base..]) {
            *o = f(v);
        }
    });
    Tensor::from_vec(data, t.shape())
}

/// Applies `f(a_i, b_i)` pairwise with NumPy broadcasting.
///
/// Panics when the shapes are not broadcast-compatible.
pub fn zip_map(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    if a.shape() == b.shape() {
        // Hot path: identical shapes need no index arithmetic.
        let (xs, ys) = (a.data(), b.data());
        let mut data = vec![0.0f32; xs.len()];
        fill_chunks(&mut data, &|base, out| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = f(xs[base + i], ys[base + i]);
            }
        });
        return Tensor::from_vec(data, a.shape());
    }
    // Fast paths for the two broadcast patterns every layer hits: a
    // trailing-suffix operand (bias rows: [..., n] op [n]) and a
    // last-axis-1 operand (gating: [..., n] op [..., 1]).
    if let Some(out) = suffix_broadcast(a, b, &f, false) {
        return out;
    }
    if let Some(out) = suffix_broadcast(b, a, &f, true) {
        return out;
    }
    if let Some(out) = lastdim1_broadcast(a, b, &f, false) {
        return out;
    }
    if let Some(out) = lastdim1_broadcast(b, a, &f, true) {
        return out;
    }
    let out_dims = broadcast_shapes(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!(
            "incompatible shapes for zip_map: {:?} vs {:?}",
            a.shape(),
            b.shape()
        )
    });
    let mut data = vec![0.0f32; out_dims.iter().product()];
    for (flat, slot) in data.iter_mut().enumerate() {
        let ia = broadcast_source_index(flat, &out_dims, a.shape());
        let ib = broadcast_source_index(flat, &out_dims, b.shape());
        *slot = f(a.data()[ia], b.data()[ib]);
    }
    Tensor::from_vec(data, &out_dims)
}

/// `big: [..., suffix…] op small: [suffix…]` where `small`'s shape is a
/// suffix of `big`'s — the bias-broadcast pattern. `swapped` flips the
/// argument order fed to `f`.
fn suffix_broadcast(
    big: &Tensor,
    small: &Tensor,
    f: &impl Fn(f32, f32) -> f32,
    swapped: bool,
) -> Option<Tensor> {
    let (bs, ss) = (big.shape(), small.shape());
    if ss.is_empty() || ss.len() >= bs.len() || !bs.ends_with(ss) {
        return None;
    }
    let n = small.len();
    let mut data = Vec::with_capacity(big.len());
    for chunk in big.data().chunks_exact(n) {
        for (&x, &y) in chunk.iter().zip(small.data()) {
            data.push(if swapped { f(y, x) } else { f(x, y) });
        }
    }
    Some(Tensor::from_vec(data, bs))
}

/// `big: [..., n] op small: [..., 1]` with identical leading dims — the
/// row-gate pattern used by intent masking.
fn lastdim1_broadcast(
    big: &Tensor,
    small: &Tensor,
    f: &impl Fn(f32, f32) -> f32,
    swapped: bool,
) -> Option<Tensor> {
    let (bs, ss) = (big.shape(), small.shape());
    if bs.len() != ss.len() || bs.is_empty() {
        return None;
    }
    let r = bs.len();
    if ss[r - 1] != 1 || bs[..r - 1] != ss[..r - 1] {
        return None;
    }
    let n = bs[r - 1];
    let mut data = Vec::with_capacity(big.len());
    for (row, &y) in big.data().chunks_exact(n).zip(small.data()) {
        for &x in row {
            data.push(if swapped { f(y, x) } else { f(x, y) });
        }
    }
    Some(Tensor::from_vec(data, bs))
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    if a.shape() == b.shape() {
        return binary_same_shape(a, b, simd::vadd);
    }
    zip_map(a, b, |x, y| x + y)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    if a.shape() == b.shape() {
        return binary_same_shape(a, b, simd::vsub);
    }
    zip_map(a, b, |x, y| x - y)
}

/// Element-wise `a * b` with broadcasting (Hadamard product).
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    if a.shape() == b.shape() {
        return binary_same_shape(a, b, simd::vmul);
    }
    zip_map(a, b, |x, y| x * y)
}

/// Element-wise `a / b` with broadcasting.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    if a.shape() == b.shape() {
        return binary_same_shape(a, b, simd::vdiv);
    }
    zip_map(a, b, |x, y| x / y)
}

/// `t + s` for a scalar `s`.
pub fn add_scalar(t: &Tensor, s: f32) -> Tensor {
    let src = t.data();
    let mut data = vec![0.0f32; src.len()];
    fill_chunks(&mut data, &|base, out| {
        simd::add_scalar_into(&src[base..base + out.len()], s, out);
    });
    Tensor::from_vec(data, t.shape())
}

/// `t * s` for a scalar `s`.
pub fn scale(t: &Tensor, s: f32) -> Tensor {
    let src = t.data();
    let mut data = vec![0.0f32; src.len()];
    fill_chunks(&mut data, &|base, out| {
        simd::scale_into(&src[base..base + out.len()], s, out);
    });
    Tensor::from_vec(data, t.shape())
}

/// In-place `a += b` (same shape only; the hot accumulation path).
pub fn add_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "add_assign requires identical shapes");
    simd::add_assign(a.data_mut(), b.data());
}

/// In-place `a += s * b` (axpy).
pub fn axpy(a: &mut Tensor, s: f32, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "axpy requires identical shapes");
    simd::axpy(a.data_mut(), s, b.data());
}

/// Rectified linear unit.
pub fn relu(t: &Tensor) -> Tensor {
    map(t, |v| v.max(0.0))
}

/// Logistic sigmoid, computed in a numerically stable branch-free-ish form.
pub fn sigmoid(t: &Tensor) -> Tensor {
    map(t, |v| {
        if v >= 0.0 {
            1.0 / (1.0 + (-v).exp())
        } else {
            let e = v.exp();
            e / (1.0 + e)
        }
    })
}

/// Hyperbolic tangent.
pub fn tanh(t: &Tensor) -> Tensor {
    map(t, f32::tanh)
}

/// Element-wise natural exponential.
pub fn exp(t: &Tensor) -> Tensor {
    map(t, f32::exp)
}

/// Element-wise natural logarithm.
pub fn ln(t: &Tensor) -> Tensor {
    map(t, f32::ln)
}

/// Element-wise square root.
pub fn sqrt(t: &Tensor) -> Tensor {
    map(t, f32::sqrt)
}

/// Element-wise square.
pub fn square(t: &Tensor) -> Tensor {
    map(t, |v| v * v)
}

/// Element-wise negation.
pub fn neg(t: &Tensor) -> Tensor {
    map(t, |v| -v)
}

/// Clamps every element into `[lo, hi]`.
pub fn clamp(t: &Tensor, lo: f32, hi: f32) -> Tensor {
    map(t, |v| v.clamp(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn arithmetic_same_shape() {
        let a = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        let b = Tensor::from_vec(vec![4., 5., 6.], &[3]);
        assert_eq!(add(&a, &b).data(), &[5., 7., 9.]);
        assert_eq!(sub(&b, &a).data(), &[3., 3., 3.]);
        assert_eq!(mul(&a, &b).data(), &[4., 10., 18.]);
        assert_eq!(div(&b, &a).data(), &[4., 2.5, 2.]);
    }

    #[test]
    fn arithmetic_broadcast() {
        let m = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let row = Tensor::from_vec(vec![10., 20., 30.], &[3]);
        let col = Tensor::from_vec(vec![100., 200.], &[2, 1]);
        assert_eq!(add(&m, &row).data(), &[11., 22., 33., 14., 25., 36.]);
        assert_eq!(add(&m, &col).data(), &[101., 102., 103., 204., 205., 206.]);
        // Broadcasting is symmetric for +.
        assert_eq!(add(&row, &m).data(), add(&m, &row).data());
    }

    #[test]
    fn scalar_ops_and_axpy() {
        let a = Tensor::from_vec(vec![1., 2.], &[2]);
        assert_eq!(add_scalar(&a, 1.0).data(), &[2., 3.]);
        assert_eq!(scale(&a, 3.0).data(), &[3., 6.]);
        let mut acc = Tensor::zeros(&[2]);
        axpy(&mut acc, 2.0, &a);
        assert_eq!(acc.data(), &[2., 4.]);
        add_assign(&mut acc, &a);
        assert_eq!(acc.data(), &[3., 6.]);
    }

    #[test]
    fn nonlinearities() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]);
        assert_eq!(relu(&t).data(), &[0., 0., 1.]);
        assert_close(sigmoid(&t).data(), &[0.26894143, 0.5, 0.7310586], 1e-5);
        assert_close(tanh(&t).data(), &[-0.7615942, 0.0, 0.7615942], 1e-5);
        // Stable sigmoid matches at extremes.
        let big = Tensor::from_vec(vec![-50.0, 50.0], &[2]);
        let s = sigmoid(&big);
        assert!(s.data()[0] < 1e-20 && (s.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transcendentals() {
        let t = Tensor::from_vec(vec![1.0, 4.0], &[2]);
        assert_close(sqrt(&t).data(), &[1.0, 2.0], 1e-6);
        assert_close(square(&t).data(), &[1.0, 16.0], 1e-6);
        assert_close(exp(&ln(&t)).data(), t.data(), 1e-5);
        assert_eq!(neg(&t).data(), &[-1.0, -4.0]);
        assert_eq!(clamp(&t, 0.0, 2.0).data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "incompatible shapes")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        add(&a, &b);
    }
}
