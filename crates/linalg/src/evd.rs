//! Symmetric eigendecomposition.
//!
//! The workspace's replacement for LAPACK `dsyevx` (used by the paper for the
//! SVD-via-Gram step, §5). Both LAPACK-style solvers start from one
//! Householder tridiagonalization `A = Q·T·Qᵀ` (`dsytd2`-style: it reads the
//! lower triangle column by column, keeps the reflectors in place and never
//! forms `Q` unless asked to):
//!
//! * [`sym_evd_top`] — the range-limited solver behind
//!   [`crate::leading_from_gram`]: all eigenvalues of `T` from a root-free
//!   QL/QR pass (`dsterf`), inverse iteration for only the `k` wanted
//!   eigenvectors (`dstein`: a pivoted LU of `T − λI` per vector, solves
//!   until the growth test passes plus one more, shifts inside a cluster
//!   nudged at least `10ε‖T‖` apart and reorthogonalized against the
//!   cluster), and a back-transform of those `k` vectors through the stored
//!   reflectors. About `4/3·n³ + 2n²k` flops where the full spectrum costs
//!   about `9n³`. If inverse iteration fails to converge on some vector it
//!   falls back to [`sym_evd`] and keeps the leading `k` columns; that is
//!   its only second path.
//! * [`sym_evd`] — the full spectrum: `Q` formed by back-transforming the
//!   identity, then the implicit-shift QL iteration (`tql2`) accumulating
//!   into it.
//! * [`jacobi_evd`] — cyclic Jacobi rotations. Slower but extremely robust;
//!   used in tests as an independent cross-check of both.
//!
//! All return eigenvalues sorted in **descending** order (the Tucker code
//! always wants the leading subspace) with a deterministic eigenvector sign
//! convention: the component of largest magnitude in each eigenvector is
//! positive (ties go to the first index). The convention makes results
//! reproducible across the sequential and distributed engines so they can be
//! compared elementwise.

use crate::matrix::Matrix;
use crate::syrk::symmetrize;

/// Result of a symmetric eigendecomposition: `A = V · diag(λ) · Vᵀ`.
#[derive(Clone, Debug)]
pub struct SymEvd {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as columns, ordered to match `eigenvalues`.
    pub eigenvectors: Matrix,
}

impl SymEvd {
    /// The leading `k` eigenvectors as an `n x k` matrix.
    ///
    /// # Panics
    /// Panics if `k` exceeds the number of eigenvectors held.
    pub fn leading(&self, k: usize) -> Matrix {
        self.eigenvectors.clone().truncate_cols(k)
    }
}

/// Maximum QL iterations per eigenvalue before declaring failure.
const MAX_QL_ITERS: usize = 50;

/// Relative machine precision `2⁻⁵³` (LAPACK `dlamch('E')`).
const ULP: f64 = f64::EPSILON * 0.5;

/// Symmetric EVD (full spectrum) via Householder tridiagonalization + `Q`
/// formed from the reflectors + implicit-shift QL. Reads the lower triangle.
///
/// # Panics
/// Panics if `a` is not square, or if the QL iteration fails to converge
/// (which does not happen for finite symmetric input).
pub fn sym_evd(a: &Matrix) -> SymEvd {
    let (n, m) = a.shape();
    assert_eq!(n, m, "sym_evd needs a square matrix");
    if n == 0 {
        return SymEvd {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        };
    }

    let mut t = Tridiagonal::reduce(a, false);
    let mut z = Matrix::identity(n);
    t.back_transform(z.as_mut_slice(), true);
    tql2(&mut t.d, &mut t.e, &mut z);
    for l in &mut t.d {
        *l /= t.scale;
    }
    sort_descending_and_fix_signs(t.d, z)
}

/// The `k` largest eigenpairs of a symmetric matrix (a range-limited
/// `dsyevx`), descending, with the module's sign convention. Reads the lower
/// triangle.
///
/// Tridiagonalizes once, takes every eigenvalue of `T` from a root-free QL
/// pass, then runs inverse iteration for the top `k` only and back-transforms
/// those `k` vectors. When inverse iteration does not converge on a vector,
/// the result comes from [`sym_evd`] truncated to `k` columns instead.
///
/// # Panics
/// Panics if `a` is not square, `k` exceeds its order, or an entry is not
/// finite (the message names the first one).
pub fn sym_evd_top(a: &Matrix, k: usize) -> SymEvd {
    assert_finite(a, "matrix");
    top_k(a, k, false)
}

/// [`sym_evd_top`] of `(A + Aᵀ)/2`, formed entry by entry as the reduction
/// copies its lower triangle: the Gram leaf's entry point. `a` must be
/// finite.
pub(crate) fn sym_evd_top_symmetrized(a: &Matrix, k: usize) -> SymEvd {
    top_k(a, k, true)
}

fn top_k(a: &Matrix, k: usize, mirror: bool) -> SymEvd {
    let (n, m) = a.shape();
    assert_eq!(n, m, "sym_evd_top needs a square matrix");
    assert!(k <= n, "cannot take {k} eigenpairs of an order-{n} matrix");
    try_top_k(a, k, mirror).unwrap_or_else(|| {
        let full = if mirror {
            let mut s = a.clone();
            symmetrize(&mut s);
            sym_evd(&s)
        } else {
            sym_evd(a)
        };
        SymEvd {
            eigenvalues: full.eigenvalues[..k].to_vec(),
            eigenvectors: full.eigenvectors.truncate_cols(k),
        }
    })
}

/// Panic unless every entry of `a` is finite, naming the first offending
/// entry in storage (column-major) order. `what` names the matrix.
pub(crate) fn assert_finite(a: &Matrix, what: &str) {
    let n = a.nrows().max(1);
    if let Some(p) = a.as_slice().iter().position(|v| !v.is_finite()) {
        panic!(
            "non-finite {what} entry {} at ({}, {})",
            a.as_slice()[p],
            p % n,
            p / n
        );
    }
}

/// `A = Q·T·Qᵀ` with `Q = H(0)·H(1)···H(n−2)` and `H(i) = I − τᵢ·vᵢ·vᵢᵀ`
/// (LAPACK `dsytd2`, lower). `vᵢ` is zero above row `i + 1`, one at row
/// `i + 1`, and stored below it in column `i` of `refl`. The input is
/// scaled by a power of two (`scale`) so its largest entry lies in
/// `[1, 2)`; `d` and `e` describe the scaled `T`, and eigenvalues are
/// divided by `scale` on the way out (exactly).
struct Tridiagonal {
    n: usize,
    /// Column-major `n × n`; column `i` holds `vᵢ` below its unit entry.
    refl: Vec<f64>,
    tau: Vec<f64>,
    /// Diagonal of `T`.
    d: Vec<f64>,
    /// `e[i] = T(i + 1, i)`; `e[n − 1] = 0`.
    e: Vec<f64>,
    scale: f64,
}

impl Tridiagonal {
    /// Householder reduction of the lower triangle of `a` (of `(A + Aᵀ)/2`
    /// with `mirror`). Every inner loop runs down a column: the trailing
    /// update is a lower-triangle `symv` followed by a rank-2 `syr2`.
    fn reduce(a: &Matrix, mirror: bool) -> Tridiagonal {
        let n = a.nrows();
        let mut refl = vec![0.0; n * n];
        for j in 0..n {
            let col = &mut refl[j * n + j..(j + 1) * n];
            col.copy_from_slice(&a.col(j)[j..]);
            if mirror {
                for (i, o) in col.iter_mut().enumerate().skip(1) {
                    *o = 0.5 * (*o + a[(j, j + i)]);
                }
            }
        }
        let amax = refl.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let scale = if amax > 0.0 && amax.is_finite() {
            2f64.powi(-(amax.log2().floor() as i32).clamp(-1020, 1020))
        } else {
            1.0
        };
        for v in &mut refl {
            *v *= scale;
        }

        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        let mut tau = vec![0.0; n];
        let mut w = vec![0.0; n];
        for i in 0..n.saturating_sub(1) {
            let m = n - i - 1;
            let (left, right) = refl.split_at_mut((i + 1) * n);
            let v = &mut left[i * n + i + 1..];
            let (beta, t) = householder(v);
            e[i] = beta;
            tau[i] = t;
            if t != 0.0 {
                v[0] = 1.0;
                let v = &*v;
                let w = &mut w[..m];
                // w = τ·A₂₂·v over the lower triangle of the trailing block.
                w.fill(0.0);
                for jj in 0..m {
                    let col = &right[jj * n + i + 1 + jj..(jj + 1) * n];
                    let vj = v[jj];
                    w[jj] += col[0] * vj + dot(&col[1..], &v[jj + 1..]);
                    for (wr, &c) in w[jj + 1..].iter_mut().zip(&col[1..]) {
                        *wr += c * vj;
                    }
                }
                for x in w.iter_mut() {
                    *x *= t;
                }
                // w ← w − ½τ(wᵀv)·v, then A₂₂ ← A₂₂ − v·wᵀ − w·vᵀ.
                let alpha = -0.5 * t * dot(w, v);
                for (x, &vr) in w.iter_mut().zip(v) {
                    *x += alpha * vr;
                }
                for jj in 0..m {
                    let col = &mut right[jj * n + i + 1 + jj..(jj + 1) * n];
                    let (vj, wj) = (v[jj], w[jj]);
                    for ((c, &vr), &wr) in col.iter_mut().zip(&v[jj..]).zip(&w[jj..]) {
                        *c -= vr * wj + wr * vj;
                    }
                }
            }
            d[i] = left[i * n + i];
        }
        d[n - 1] = refl[n * n - 1];
        Tridiagonal {
            n,
            refl,
            tau,
            d,
            e,
            scale,
        }
    }

    /// `Z ← Q·Z` for the column-major `n × (z.len() / n)` block `z`. With
    /// `identity`, `z` must hold the identity; reflector `i` then skips the
    /// columns `≤ i` it cannot reach, which forms `Q` in `4/3·n³` flops.
    fn back_transform(&self, z: &mut [f64], identity: bool) {
        let n = self.n;
        if n == 0 {
            return;
        }
        let k = z.len() / n;
        for i in (0..n.saturating_sub(1)).rev() {
            let t = self.tau[i];
            if t == 0.0 {
                continue;
            }
            let v = &self.refl[i * n + i + 2..(i + 1) * n];
            let first = if identity { i + 1 } else { 0 };
            for col in z.chunks_exact_mut(n).take(k).skip(first) {
                let (head, tail) = col[i + 1..].split_first_mut().expect("reflector row");
                let s = t * (*head + dot(v, tail));
                *head -= s;
                for (x, &vr) in tail.iter_mut().zip(v) {
                    *x -= s * vr;
                }
            }
        }
    }
}

/// Generate `H = I − τ·v·vᵀ` with `H·[α; x] = [β; 0]` for `s = [α; x]`
/// (LAPACK `dlarfg`). On return `s[1..]` holds `v` below its unit head.
/// The reduction's power-of-two prescale keeps `α² + ‖x‖²` in range, so
/// no `hypot` is needed.
fn householder(s: &mut [f64]) -> (f64, f64) {
    let alpha = s[0];
    let x = &mut s[1..];
    let xnorm2 = dot(x, x);
    if xnorm2 == 0.0 {
        return (alpha, 0.0);
    }
    let beta = -(alpha * alpha + xnorm2).sqrt().copysign(alpha);
    let inv = 1.0 / (alpha - beta);
    for v in x.iter_mut() {
        *v *= inv;
    }
    (beta, (beta - alpha) / beta)
}

/// Maximum inverse-iteration solves per eigenvector (`dstein` `MAXITS`).
const MAX_INVERSE_ITERS: usize = 5;
/// Extra solves after the growth criterion is first met. `dstein` uses 2;
/// one keeps residuals within `c·n·ε·‖A‖` and orthogonality within 1e-12
/// (`tests/proptests_evd.rs`) at a third less cost per vector.
const EXTRA_INVERSE_ITERS: usize = 1;

/// The top-`k` path of [`sym_evd_top`]; `None` when inverse iteration (or
/// the eigenvalue pass) does not converge.
fn try_top_k(a: &Matrix, k: usize, mirror: bool) -> Option<SymEvd> {
    let n = a.nrows();
    if k == 0 {
        return Some(SymEvd {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(n, 0),
        });
    }
    let mut t = Tridiagonal::reduce(a, mirror);
    let (d, e) = (&t.d, &mut t.e);

    // Split T where an off-diagonal is negligible next to its neighbours
    // (the `dsterf` test); each unreduced block is solved on its own.
    for i in 0..n - 1 {
        if e[i].abs() <= d[i].abs().sqrt() * d[i + 1].abs().sqrt() * ULP {
            e[i] = 0.0;
        }
    }

    // All eigenvalues, block by block: `lam[i]` belongs to the block that
    // contains row `i`, whose first row is `start[i]`.
    let mut scratch = vec![0.0; 3 * n];
    let (lam, rest) = scratch.split_at_mut(n);
    let (e2, rest) = rest.split_at_mut(n);
    lam.copy_from_slice(d);
    e2.copy_from_slice(e);
    let mut index = vec![0usize; 2 * n + k];
    let (start, rest_idx) = index.split_at_mut(n);
    let (order, cols) = rest_idx.split_at_mut(n);
    let mut b = 0;
    while b < n {
        let mut end = b;
        while end + 1 < n && e[end] != 0.0 {
            end += 1;
        }
        if !sterf(&mut lam[b..=end], &mut e2[b..end]) {
            return None;
        }
        start[b..=end].fill(b);
        b = end + 1;
    }

    // The k largest (stable: ties keep the earlier block first), then
    // grouped by block with each block's share still descending.
    for (i, o) in order.iter_mut().enumerate() {
        *o = i;
    }
    order.sort_by(|&i, &j| lam[j].partial_cmp(&lam[i]).expect("NaN eigenvalue"));
    let order = &order[..k];
    for (c, o) in cols.iter_mut().enumerate() {
        *o = c;
    }
    cols.sort_by_key(|&c| start[order[c]]);

    let mut z = Matrix::zeros(n, k);
    let zs = z.as_mut_slice();
    let x = &mut rest[..n];
    let mut lu = ShiftedLu::new(n);
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;

    let mut p = 0;
    while p < k {
        let b1 = start[order[cols[p]]];
        let mut bn = b1;
        while bn + 1 < n && e[bn] != 0.0 {
            bn += 1;
        }
        let bs = bn - b1 + 1;
        let (db, eb) = (&d[b1..=bn], &e[b1..bn]);
        let onenrm = (0..bs)
            .map(|i| {
                db[i].abs()
                    + if i > 0 { eb[i - 1].abs() } else { 0.0 }
                    + if i + 1 < bs { eb[i].abs() } else { 0.0 }
            })
            .fold(0.0, f64::max);
        let ortol = 1e-3 * onenrm;
        let pertol = 10.0 * ULP * onenrm;
        let growth = (0.1 / bs as f64).sqrt();
        let mut cluster = p;
        let mut prev = 0.0;
        let first = p;
        while p < k && start[order[cols[p]]] == b1 {
            let c = cols[p];
            let x = &mut x[..bs];
            if bs == 1 {
                x[0] = 1.0;
            } else {
                // Shift, nudged at least 10ε‖T‖ below the previous one so
                // that no member of a tight cluster dominates every solve.
                let mut xj = lam[order[c]];
                if p > first {
                    if prev - xj < pertol {
                        xj = prev - pertol;
                    }
                    if (xj - prev).abs() > ortol {
                        cluster = p;
                    }
                }
                prev = xj;
                for v in x.iter_mut() {
                    *v = uniform(&mut rng);
                }
                lu.factor(db, eb, xj);
                let mut checks = 0;
                let mut iters = 0;
                let mut jmax = argmax_abs(x);
                while checks <= EXTRA_INVERSE_ITERS {
                    iters += 1;
                    if iters > MAX_INVERSE_ITERS {
                        return None;
                    }
                    let scl = bs as f64 * onenrm * ULP.max(lu.last_pivot().abs()) / x[jmax].abs();
                    for v in x.iter_mut() {
                        *v *= scl;
                    }
                    lu.solve(x);
                    // Modified Gram–Schmidt against this cluster's vectors.
                    for &q in &cols[cluster..p] {
                        let zq = &zs[q * n + b1..q * n + bn + 1];
                        let r = dot(x, zq);
                        for (v, &zv) in x.iter_mut().zip(zq) {
                            *v -= r * zv;
                        }
                    }
                    jmax = argmax_abs(x);
                    if x[jmax].abs() >= growth {
                        checks += 1;
                    }
                }
                let inv = 1.0 / dot(x, x).sqrt();
                for v in x.iter_mut() {
                    *v *= inv;
                }
            }
            zs[c * n + b1..c * n + bn + 1].copy_from_slice(x);
            p += 1;
        }
    }

    t.back_transform(zs, false);
    for col in zs.chunks_exact_mut(n) {
        fix_sign(col);
    }
    let eigenvalues = order.iter().map(|&i| lam[i] / t.scale).collect();
    Some(SymEvd {
        eigenvalues,
        eigenvectors: z,
    })
}

/// `xᵀy` with four independent partial sums. Against the crate's
/// eight-lane `unrolled_dot`, short vectors (the trailing columns of a
/// small Gram) stay out of its sequential remainder; measured over the
/// whole solver it is 1–4% faster at n ≤ 32 and about 10% at n = 128–192.
#[inline]
fn dot(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = [0.0f64; 4];
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (a, b) in (&mut xc).zip(&mut yc) {
        for l in 0..4 {
            acc[l] += a[l] * b[l];
        }
    }
    let mut s = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        s += a * b;
    }
    s
}

/// Uniform sample in `[−1, 1)` from a 64-bit xorshift stream: the start
/// vectors of inverse iteration, deterministic per call.
fn uniform(state: &mut u64) -> f64 {
    let mut s = *state;
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    *state = s;
    (s >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// Index of the first entry of largest magnitude.
fn argmax_abs(x: &[f64]) -> usize {
    let mut best = 0;
    let mut m = -1.0;
    for (i, v) in x.iter().enumerate() {
        if v.abs() > m {
            m = v.abs();
            best = i;
        }
    }
    best
}

/// All eigenvalues of the symmetric tridiagonal with diagonal `d` and
/// off-diagonal `e` (`e.len() == d.len() − 1`), left unsorted in `d`;
/// `e` is destroyed. Root-free QL/QR on the squared off-diagonals
/// (Pal–Walker–Kahan, LAPACK `dsterf`). Returns `false` if the iteration
/// budget (30 per eigenvalue) runs out.
fn sterf(d: &mut [f64], e: &mut [f64]) -> bool {
    let n = d.len();
    if n <= 1 {
        return true;
    }
    let eps2 = ULP * ULP;
    let max_iters = 30 * n;
    let mut iters = 0;
    let mut l1 = 0;
    while l1 < n {
        if l1 > 0 {
            e[l1 - 1] = 0.0;
        }
        let mut m = l1;
        while m < n - 1 {
            if e[m].abs() <= d[m].abs().sqrt() * d[m + 1].abs().sqrt() * ULP {
                e[m] = 0.0;
                break;
            }
            m += 1;
        }
        let (lsv, lendsv) = (l1, m);
        l1 = m + 1;
        if lendsv == lsv {
            continue;
        }
        for v in &mut e[lsv..lendsv] {
            *v *= *v;
        }
        // QL when the top of the block is the smaller end, QR otherwise.
        if d[lendsv].abs() >= d[lsv].abs() {
            let (mut l, lend) = (lsv, lendsv);
            while l <= lend {
                let mut m = lend;
                for mm in l..lend {
                    if e[mm].abs() <= eps2 * (d[mm] * d[mm + 1]).abs() {
                        m = mm;
                        break;
                    }
                }
                if m < lend {
                    e[m] = 0.0;
                }
                if m == l {
                    l += 1;
                    continue;
                }
                if m == l + 1 {
                    let (r1, r2) = lae2(d[l], e[l].sqrt(), d[l + 1]);
                    d[l] = r1;
                    d[l + 1] = r2;
                    e[l] = 0.0;
                    l += 2;
                    continue;
                }
                if iters == max_iters {
                    return false;
                }
                iters += 1;
                let sigma = shift(d[l], d[l + 1], e[l]);
                let (mut c, mut s) = (1.0, 0.0);
                let mut gamma = d[m] - sigma;
                let mut p = gamma * gamma;
                for i in (l..m).rev() {
                    let bb = e[i];
                    let r = p + bb;
                    if i != m - 1 {
                        e[i + 1] = s * r;
                    }
                    let oldc = c;
                    // γ²/c = γ²·r/p: both reciprocals issue at once.
                    let (rinv, pinv) = (1.0 / r, 1.0 / p);
                    c = p * rinv;
                    s = bb * rinv;
                    let oldgam = gamma;
                    let alpha = d[i];
                    gamma = c * (alpha - sigma) - s * oldgam;
                    d[i + 1] = oldgam + (alpha - gamma);
                    p = if c != 0.0 {
                        gamma * gamma * r * pinv
                    } else {
                        oldc * bb
                    };
                }
                e[l] = s * p;
                d[l] = sigma + gamma;
            }
        } else {
            let (mut l, lend) = (lendsv, lsv);
            loop {
                let mut m = lend;
                for mm in (lend + 1..=l).rev() {
                    if e[mm - 1].abs() <= eps2 * (d[mm] * d[mm - 1]).abs() {
                        m = mm;
                        break;
                    }
                }
                if m > lend {
                    e[m - 1] = 0.0;
                }
                if m == l {
                    if l == lend {
                        break;
                    }
                    l -= 1;
                    continue;
                }
                if m + 1 == l {
                    let (r1, r2) = lae2(d[l], e[l - 1].sqrt(), d[l - 1]);
                    d[l] = r1;
                    d[l - 1] = r2;
                    e[l - 1] = 0.0;
                    if l < lend + 2 {
                        break;
                    }
                    l -= 2;
                    continue;
                }
                if iters == max_iters {
                    return false;
                }
                iters += 1;
                let sigma = shift(d[l], d[l - 1], e[l - 1]);
                let (mut c, mut s) = (1.0, 0.0);
                let mut gamma = d[m] - sigma;
                let mut p = gamma * gamma;
                for i in m..l {
                    let bb = e[i];
                    let r = p + bb;
                    if i != m {
                        e[i - 1] = s * r;
                    }
                    let oldc = c;
                    let (rinv, pinv) = (1.0 / r, 1.0 / p);
                    c = p * rinv;
                    s = bb * rinv;
                    let oldgam = gamma;
                    let alpha = d[i + 1];
                    gamma = c * (alpha - sigma) - s * oldgam;
                    d[i] = oldgam + (alpha - gamma);
                    p = if c != 0.0 {
                        gamma * gamma * r * pinv
                    } else {
                        oldc * bb
                    };
                }
                e[l - 1] = s * p;
                d[l] = sigma + gamma;
            }
        }
    }
    true
}

/// Wilkinson-style shift for the root-free sweep: `p` is the end diagonal,
/// `q` its neighbour and `e2` their squared coupling.
fn shift(p: f64, q: f64, e2: f64) -> f64 {
    let rte = e2.sqrt();
    let sigma = (q - p) / (2.0 * rte);
    // √(σ² + 1) without `hypot`; beyond 1e150 the 1 is below rounding.
    let r = if sigma.abs() < 1e150 {
        (sigma * sigma + 1.0).sqrt()
    } else {
        sigma.abs()
    };
    p - rte / (sigma + r.copysign(sigma))
}

/// Eigenvalues of `[[a, b], [b, c]]`, larger magnitude first (`dlae2`).
fn lae2(a: f64, b: f64, c: f64) -> (f64, f64) {
    let sm = a + c;
    let adf = (a - c).abs();
    let ab = (b + b).abs();
    let (acmx, acmn) = if a.abs() > c.abs() { (a, c) } else { (c, a) };
    let rt = if adf > ab {
        adf * (1.0 + (ab / adf).powi(2)).sqrt()
    } else if adf < ab {
        ab * (1.0 + (adf / ab).powi(2)).sqrt()
    } else {
        ab * std::f64::consts::SQRT_2
    };
    if sm == 0.0 {
        return (0.5 * rt, -0.5 * rt);
    }
    let rt1 = 0.5 * (sm + rt.copysign(sm));
    (rt1, (acmx / rt1) * acmn - (b / rt1) * b)
}

/// `T − λI = P·L·U` for one unreduced block of the tridiagonal, with
/// partial pivoting (LAPACK `dlagtf`), and solves with it that perturb tiny
/// pivots instead of overflowing (`dlagts`, `job = −1`). The buffers are
/// sized once per call and reused for every vector.
struct ShiftedLu {
    /// Diagonal of `U`, then its reciprocals, then the first and second
    /// super-diagonals of `U`, then the multipliers of `L`: `cap` each.
    buf: Vec<f64>,
    /// `piv[k]`: rows `k` and `k + 1` were swapped.
    piv: Vec<bool>,
    cap: usize,
    len: usize,
    /// Pivot perturbation: ε times the largest entry of `U`.
    tol: f64,
}

impl ShiftedLu {
    fn new(cap: usize) -> ShiftedLu {
        ShiftedLu {
            buf: vec![0.0; 5 * cap],
            piv: vec![false; cap],
            cap,
            len: 0,
            tol: 0.0,
        }
    }

    /// `[a, inv, b, d, c]`: `U`'s diagonal, its reciprocals, `U`'s first and
    /// second super-diagonals and `L`'s multipliers, `len` long each.
    fn parts(buf: &mut [f64], cap: usize, len: usize) -> [&mut [f64]; 5] {
        let mut it = buf.chunks_exact_mut(cap).map(|p| &mut p[..len]);
        std::array::from_fn(|_| it.next().expect("five parts"))
    }

    /// The last diagonal entry of `U`.
    fn last_pivot(&self) -> f64 {
        self.buf[self.len - 1]
    }

    /// Factor `T − λI` for the block with diagonal `d` and off-diagonal
    /// `e` (`e.len() == d.len() − 1 ≥ 1`).
    fn factor(&mut self, d: &[f64], e: &[f64], lambda: f64) {
        let n = d.len();
        self.len = n;
        let [a, inv, b, dd, c] = Self::parts(&mut self.buf, self.cap, n);
        a.copy_from_slice(d);
        b[..n - 1].copy_from_slice(e);
        c[..n - 1].copy_from_slice(e);
        // The solve multiplies these by zeros; keep them finite.
        (b[n - 1], dd[n - 2], dd[n - 1]) = (0.0, 0.0, 0.0);
        a[0] -= lambda;
        let mut scale1 = a[0].abs() + b[0].abs();
        for k in 0..n - 1 {
            a[k + 1] -= lambda;
            let mut scale2 = c[k].abs() + a[k + 1].abs();
            if k + 2 < n {
                scale2 += b[k + 1].abs();
            }
            // No swap when |c|/scale2 ≤ |a|/scale1 (`dlagtf`'s pivot
            // ratios, cross-multiplied); a zero `a` always swaps.
            let keep = c[k] == 0.0 || (a[k] != 0.0 && c[k].abs() * scale1 <= a[k].abs() * scale2);
            self.piv[k] = !keep;
            if keep {
                scale1 = scale2;
                if c[k] != 0.0 {
                    c[k] /= a[k];
                    a[k + 1] -= c[k] * b[k];
                }
                if k + 2 < n {
                    dd[k] = 0.0;
                }
            } else {
                let mult = a[k] / c[k];
                a[k] = c[k];
                let temp = a[k + 1];
                a[k + 1] = b[k] - mult * temp;
                if k + 2 < n {
                    dd[k] = b[k + 1];
                    b[k + 1] = -mult * dd[k];
                }
                b[k] = temp;
                c[k] = mult;
            }
        }
        let mut umax = 0.0f64;
        for (((i, &a), &b), &d) in inv.iter_mut().zip(&*a).zip(&*b).zip(&*dd) {
            *i = 1.0 / a;
            umax = umax.max(a.abs()).max(b.abs()).max(d.abs());
        }
        self.tol = if umax == 0.0 { ULP } else { umax * ULP };
    }

    /// Solve `(T − λI)·x = y` in place.
    fn solve(&mut self, y: &mut [f64]) {
        const SFMIN: f64 = f64::MIN_POSITIVE;
        const BIGNUM: f64 = 1.0 / f64::MIN_POSITIVE;
        let (n, tol) = (self.len, self.tol);
        let piv = &self.piv[..n];
        let [a, inv, b, d, c] = Self::parts(&mut self.buf, self.cap, n);
        let y = &mut y[..n];
        // Forward: y ← L⁻¹·P·y, swaps as selects.
        let mut prev = y[0];
        for k in 1..n {
            let (top, bot) = if piv[k - 1] {
                (y[k], prev)
            } else {
                (prev, y[k])
            };
            y[k - 1] = top;
            prev = bot - c[k - 1] * top;
        }
        y[n - 1] = prev;
        // Backward: y ← U⁻¹·y, multiplying by the reciprocal wherever
        // `dlagts` would divide unperturbed.
        let (mut y1, mut y2) = (0.0, 0.0);
        for k in (0..n).rev() {
            let mut temp = y[k] - b[k] * y1 - d[k] * y2;
            let mut ak = a[k];
            let absak = ak.abs();
            y[k] = if absak >= SFMIN && (absak >= 1.0 || temp.abs() <= absak * BIGNUM) {
                temp * inv[k]
            } else {
                let mut pert = if ak < 0.0 { -tol } else { tol };
                loop {
                    let absak = ak.abs();
                    if absak < 1.0 {
                        if absak < SFMIN {
                            if absak == 0.0 || temp.abs() * SFMIN > absak {
                                ak += pert;
                                pert *= 2.0;
                                continue;
                            }
                            temp *= BIGNUM;
                            ak *= BIGNUM;
                        } else if temp.abs() > absak * BIGNUM {
                            ak += pert;
                            pert *= 2.0;
                            continue;
                        }
                    }
                    break;
                }
                temp / ak
            };
            (y1, y2) = (y[k], y1);
        }
    }
}

/// Implicit-shift QL iteration on the tridiagonal (`d`, `e` with
/// `e[i] = T(i + 1, i)`), accumulating rotations into `z`. (Port of EISPACK
/// `tql2`.)
fn tql2(d: &mut [f64], e: &mut [f64], z: &mut Matrix) {
    let n = d.len();
    if n <= 1 {
        return;
    }
    e[n - 1] = 0.0;

    // Deflation threshold: ε times the largest |d| + |e| seen so far, so a
    // run of (near-)zero diagonals still splits off.
    let mut tst1 = 0.0f64;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut iter = 0;
        loop {
            // Find a small sub-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                if e[m].abs() <= f64::EPSILON * tst1 {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(
                iter <= MAX_QL_ITERS,
                "tql2 failed to converge at eigenvalue {l}"
            );

            // Form implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate rotation into eigenvectors.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/// Cyclic Jacobi eigensolver. Robust `O(n³ · sweeps)` reference
/// implementation used to cross-check [`sym_evd`].
///
/// # Panics
/// Panics if `a` is not square or the sweep limit (30) is exhausted.
pub fn jacobi_evd(a: &Matrix) -> SymEvd {
    let (n, m) = a.shape();
    assert_eq!(n, m, "jacobi_evd needs a square matrix");
    let mut a = a.clone();
    let mut v = Matrix::identity(n);
    if n == 0 {
        return SymEvd {
            eigenvalues: vec![],
            eigenvectors: v,
        };
    }

    let mut off = off_diag_norm(&a);
    let threshold = f64::EPSILON * a.fro_norm().max(f64::MIN_POSITIVE);
    let mut sweeps = 0;
    while off > threshold {
        sweeps += 1;
        assert!(sweeps <= 30, "jacobi_evd failed to converge");
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() <= threshold * 1e-2 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation to rows/cols p,q of a.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
        off = off_diag_norm(&a);
    }

    let d: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
    sort_descending_and_fix_signs(d, v)
}

fn off_diag_norm(a: &Matrix) -> f64 {
    let n = a.nrows();
    let mut s = 0.0;
    for p in 0..n {
        for q in (p + 1)..n {
            s += 2.0 * a[(p, q)] * a[(p, q)];
        }
    }
    s.sqrt()
}

/// Sort eigenpairs by descending eigenvalue and apply the sign convention.
fn sort_descending_and_fix_signs(d: Vec<f64>, z: Matrix) -> SymEvd {
    let n = d.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).expect("NaN eigenvalue"));

    let eigenvalues = order.iter().map(|&src| d[src]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        let col = eigenvectors.col_mut(dst);
        col.copy_from_slice(z.col(src));
        fix_sign(col);
    }
    SymEvd {
        eigenvalues,
        eigenvectors,
    }
}

/// Deterministic sign: the largest-|component| entry made positive, ties
/// broken by the first index.
fn fix_sign(col: &mut [f64]) {
    if col.is_empty() || col[argmax_abs(col)] >= 0.0 {
        return;
    }
    for v in col.iter_mut() {
        *v = -*v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, Transpose};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_sym(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let b = Matrix::random(n, n, &dist, &mut rng);
        // A = (B + Bᵀ)/2 is symmetric.
        Matrix::from_fn(n, n, |i, j| 0.5 * (b[(i, j)] + b[(j, i)]))
    }

    fn check_reconstruction(a: &Matrix, evd: &SymEvd, tol: f64) {
        let n = a.nrows();
        assert!(
            evd.eigenvectors.has_orthonormal_columns(tol),
            "V not orthonormal"
        );
        // A V = V diag(λ)
        let av = gemm(a, Transpose::No, &evd.eigenvectors, Transpose::No, 1.0);
        for j in 0..n {
            for i in 0..n {
                let expect = evd.eigenvalues[j] * evd.eigenvectors[(i, j)];
                assert!(
                    (av[(i, j)] - expect).abs() < tol * (1.0 + evd.eigenvalues[j].abs()),
                    "A·v ≠ λ·v at ({i},{j})"
                );
            }
        }
        // Descending order.
        for w in evd.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "eigenvalues not descending");
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, -1.0, 0.0], &[0.0, 0.0, 7.0]]);
        let evd = sym_evd(&a);
        let expect = [7.0, 3.0, -1.0];
        for (got, want) in evd.eigenvalues.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12);
        }
        check_reconstruction(&a, &evd, 1e-10);
    }

    #[test]
    fn known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let evd = sym_evd(&a);
        assert!((evd.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((evd.eigenvalues[1] - 1.0).abs() < 1e-12);
        check_reconstruction(&a, &evd, 1e-12);
    }

    #[test]
    fn random_matrices_reconstruct() {
        for (n, seed) in [(1usize, 5u64), (2, 6), (5, 7), (24, 8), (60, 9)] {
            let a = rand_sym(n, seed);
            let evd = sym_evd(&a);
            check_reconstruction(&a, &evd, 1e-9);
        }
    }

    #[test]
    fn ql_and_jacobi_agree() {
        for (n, seed) in [(3usize, 21u64), (10, 22), (31, 23)] {
            let a = rand_sym(n, seed);
            let e1 = sym_evd(&a);
            let e2 = jacobi_evd(&a);
            for (l1, l2) in e1.eigenvalues.iter().zip(&e2.eigenvalues) {
                assert!((l1 - l2).abs() < 1e-9, "eigenvalue mismatch n={n}");
            }
            // With distinct eigenvalues the sign convention makes vectors
            // match elementwise.
            let gaps_ok = e1
                .eigenvalues
                .windows(2)
                .all(|w| (w[0] - w[1]).abs() > 1e-6);
            if gaps_ok {
                assert!(
                    e1.eigenvectors.max_abs_diff(&e2.eigenvectors) < 1e-7,
                    "eigenvector mismatch n={n}"
                );
            }
        }
    }

    #[test]
    fn rank_deficient_gram() {
        // A = x xᵀ has one nonzero eigenvalue = |x|².
        let x = [1.0, 2.0, 2.0];
        let a = Matrix::from_fn(3, 3, |i, j| x[i] * x[j]);
        let evd = sym_evd(&a);
        assert!((evd.eigenvalues[0] - 9.0).abs() < 1e-10);
        assert!(evd.eigenvalues[1].abs() < 1e-10);
        assert!(evd.eigenvalues[2].abs() < 1e-10);
        check_reconstruction(&a, &evd, 1e-9);
    }

    #[test]
    fn repeated_eigenvalues() {
        // 2*I has eigenvalue 2 with multiplicity 4; any orthonormal basis ok.
        let mut a = Matrix::identity(4);
        a.scale(2.0);
        let evd = sym_evd(&a);
        for l in &evd.eigenvalues {
            assert!((l - 2.0).abs() < 1e-12);
        }
        assert!(evd.eigenvectors.has_orthonormal_columns(1e-12));
    }

    #[test]
    fn leading_truncates() {
        let a = rand_sym(10, 40);
        let evd = sym_evd(&a);
        let lead = evd.leading(3);
        assert_eq!(lead.shape(), (10, 3));
        assert!(lead.has_orthonormal_columns(1e-9));
    }

    #[test]
    fn sign_convention_is_deterministic() {
        let a = rand_sym(12, 55);
        let e1 = sym_evd(&a);
        let e2 = sym_evd(&a);
        assert!(e1.eigenvectors.max_abs_diff(&e2.eigenvectors) == 0.0);
        // Pivot component positive in each column.
        for j in 0..12 {
            let col = e1.eigenvectors.col(j);
            let piv = col
                .iter()
                .cloned()
                .fold(0.0f64, |m, v| if v.abs() > m.abs() { v } else { m });
            assert!(piv >= 0.0);
        }
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(0, 0);
        let evd = sym_evd(&a);
        assert!(evd.eigenvalues.is_empty());
        assert!(sym_evd_top(&a, 0).eigenvalues.is_empty());
    }

    /// Rank-`r` Gram `X·Xᵀ`: `n − r` eigenvalues at round-off level.
    fn low_rank_gram(n: usize, r: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(-1.0, 1.0);
        let x = Matrix::random(n, r, &dist, &mut rng);
        let g = gemm(&x, Transpose::No, &x, Transpose::Yes, 1.0);
        Matrix::from_fn(n, n, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]))
    }

    /// Glued Wilkinson matrices: pairs of eigenvalues equal to many digits,
    /// the classic hard case for inverse iteration.
    fn glued_wilkinson(m: usize, blocks: usize, glue: f64) -> Matrix {
        let h = (m - 1) as f64 / 2.0;
        Matrix::from_fn(m * blocks, m * blocks, |i, j| {
            if i == j {
                ((i % m) as f64 - h).abs()
            } else if i.abs_diff(j) == 1 {
                if i / m == j / m {
                    1.0
                } else {
                    glue
                }
            } else {
                0.0
            }
        })
    }

    #[test]
    fn top_k_is_the_leading_part_of_the_full_spectrum() {
        for (n, k, seed) in [
            (1usize, 1usize, 3u64),
            (2, 1, 4),
            (9, 4, 5),
            (40, 7, 6),
            (64, 64, 7),
        ] {
            let a = rand_sym(n, seed);
            let full = sym_evd(&a);
            let top = sym_evd_top(&a, k);
            for (l, f) in top.eigenvalues.iter().zip(&full.eigenvalues) {
                assert!((l - f).abs() < 1e-12 * (1.0 + f.abs()), "n={n}: {l} vs {f}");
            }
            // Random spectra are gapped: same vectors, same signs.
            assert!(
                top.eigenvectors.max_abs_diff(&full.leading(k)) < 1e-9,
                "n={n} k={k}"
            );
        }
    }

    #[test]
    fn inverse_iteration_converges_on_hard_spectra() {
        let mut scaled = Matrix::identity(30);
        scaled.scale(2.5);
        let cases = [
            ("rank-deficient", low_rank_gram(60, 20, 1)),
            ("rank one", low_rank_gram(12, 1, 2)),
            ("identity", scaled),
            ("glued Wilkinson", glued_wilkinson(21, 4, 1e-12)),
            ("zero", Matrix::zeros(7, 7)),
        ];
        for (name, a) in &cases {
            let n = a.nrows();
            for k in [1, n / 2, n] {
                let top = try_top_k(a, k, false)
                    .unwrap_or_else(|| panic!("{name}: fell back at k = {k}"));
                assert!(
                    top.eigenvectors.has_orthonormal_columns(1e-12),
                    "{name} k={k}"
                );
                let av = gemm(a, Transpose::No, &top.eigenvectors, Transpose::No, 1.0);
                let tol = 1e-13 * (n as f64) * (1.0 + a.fro_norm());
                for j in 0..k {
                    for i in 0..n {
                        let r = av[(i, j)] - top.eigenvalues[j] * top.eigenvectors[(i, j)];
                        assert!(r.abs() < tol, "{name} k={k}: residual {r:e} at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn full_spectrum_deflates_round_off_eigenvalues() {
        // Many (near-)zero diagonals in T: the QL split test must still
        // deflate them instead of running out of iterations.
        let a = low_rank_gram(96, 16, 9);
        let evd = sym_evd(&a);
        check_reconstruction(&a, &evd, 1e-9);
    }

    #[test]
    fn symmetrized_entry_point_averages_the_triangles() {
        let mut a = rand_sym(11, 12);
        a[(7, 2)] += 1e-3; // a lower-triangle perturbation ...
        a[(2, 7)] -= 1e-3; // ... mirrored with the opposite sign
        let mut s = a.clone();
        crate::syrk::symmetrize(&mut s);
        let got = sym_evd_top_symmetrized(&a, 5);
        let want = sym_evd_top(&s, 5);
        assert_eq!(got.eigenvalues, want.eigenvalues);
        assert_eq!(got.eigenvectors, want.eigenvectors);
    }

    #[test]
    fn extreme_scales_are_exact_powers_of_two_apart() {
        // The reduction rescales by a power of two, so scaling the input by
        // one changes nothing but the eigenvalues, exactly.
        let a = low_rank_gram(20, 6, 13);
        let base = sym_evd_top(&a, 5);
        for p in [-900i32, -300, 300, 900] {
            let mut b = a.clone();
            b.scale(2f64.powi(p));
            let got = sym_evd_top(&b, 5);
            assert_eq!(got.eigenvectors, base.eigenvectors, "2^{p}");
            for (g, l) in got.eigenvalues.iter().zip(&base.eigenvalues) {
                assert_eq!(*g, l * 2f64.powi(p), "2^{p}");
            }
        }
    }
}
