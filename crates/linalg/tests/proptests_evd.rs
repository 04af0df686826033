//! Property tests for the range-limited eigensolver (`sym_evd_top`, the
//! solver behind `leading_from_gram`), against the cyclic Jacobi reference
//! `jacobi_evd` and the full-spectrum `sym_evd`.
//!
//! Inputs cover the spectra the Tucker leaf meets: random symmetric
//! matrices, rank-deficient Grams (many zero eigenvalues, like the last-mode
//! Gram of an out-of-core sweep), exact repeats (scaled identity, duplicated
//! diagonal blocks) and geometric decay down to 1e-12. Sizes run over
//! n ∈ {1, 2, 3, 16, 33, 128, 192} and k ∈ {1, n/2, n}. For every case:
//!
//! * each eigenvalue is within `c·n·ε·‖A‖` of Jacobi's,
//! * each residual `‖A·v − λ·v‖` is within `c·n·ε·‖A‖`,
//! * the columns are orthonormal to 1e-12,
//! * where the relative gap at `k` exceeds 1e-3 (the differential suites'
//!   `gapped()` audit), the kept subspace matches `sym_evd`'s to 1e-10.
//!
//! Non-finite input must panic with a message naming the first bad entry.
//!
//! Cases are generated deterministically from a fixed per-test seed (see
//! `vendor/proptest`); `PROPTEST_SEED` / `PROPTEST_CASES` explore other
//! streams or bound the case count.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tucker_linalg::syrk::symmetrize;
use tucker_linalg::{
    gemm, jacobi_evd, leading_from_gram, orthonormal_columns, sym_evd, sym_evd_top, Matrix, SymEvd,
    Transpose,
};

const SIZES: [usize; 7] = [1, 2, 3, 16, 33, 128, 192];
/// The constant `c` of the `c·n·ε·‖A‖` bounds.
const C: f64 = 4.0;

/// Deterministic hash noise in [-0.5, 0.5).
fn noise(seed: u64, i: usize) -> f64 {
    let x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = x ^ (x >> 29);
    (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

fn noise_mat(r: usize, c: usize, seed: u64) -> Matrix {
    Matrix::from_fn(r, c, |i, j| noise(seed, i + j * r))
}

fn random_symmetric(n: usize, seed: u64) -> Matrix {
    let b = noise_mat(n, n, seed);
    Matrix::from_fn(n, n, |i, j| b[(i, j)] + b[(j, i)])
}

/// The input families, by `kind`:
/// 0. random symmetric;
/// 1. rank-deficient Gram `X·Xᵀ` with `X` of rank ⌈n/3⌉;
/// 2. exact repeats: a scaled identity (even seeds) or a matrix of two
///    identical diagonal blocks (odd seeds);
/// 3. `Q·diag(λ)·Qᵀ` with `λᵢ` decaying geometrically from 1 to 1e-12.
fn input(kind: u8, n: usize, seed: u64) -> Matrix {
    match kind {
        0 => random_symmetric(n, seed),
        1 => {
            let x = noise_mat(n, n.div_ceil(3), seed);
            gemm(&x, Transpose::No, &x, Transpose::Yes, 1.0)
        }
        2 if seed.is_multiple_of(2) => {
            let mut a = Matrix::identity(n);
            a.scale(3.0);
            a
        }
        2 => {
            let h = n.div_ceil(2);
            let b = random_symmetric(h, seed);
            Matrix::from_fn(n, n, |i, j| match (i < h, j < h) {
                (true, true) => b[(i, j)],
                (false, false) => b[(i - h, j - h)],
                _ => 0.0,
            })
        }
        _ => {
            let q = orthonormal_columns(&noise_mat(n, n, seed));
            let step = if n > 1 { -12.0 / (n - 1) as f64 } else { 0.0 };
            let qd = Matrix::from_fn(n, n, |i, j| q[(i, j)] * 10f64.powf(step * j as f64));
            gemm(&qd, Transpose::No, &q, Transpose::Yes, 1.0)
        }
    }
}

fn ks(n: usize) -> [usize; 3] {
    [1, (n / 2).max(1), n]
}

/// Check one `sym_evd_top(a, k)` against the references; `Err` names the
/// first violated property.
fn check(a: &Matrix, k: usize, jac: &SymEvd, full: &SymEvd) -> Result<(), String> {
    let n = a.nrows();
    let top = sym_evd_top(a, k);
    if top.eigenvalues.len() != k || top.eigenvectors.shape() != (n, k) {
        return Err(format!("shape {:?} for k = {k}", top.eigenvectors.shape()));
    }
    let bound = C * n as f64 * f64::EPSILON * a.fro_norm().max(f64::MIN_POSITIVE);
    for (i, (l, r)) in top.eigenvalues.iter().zip(&jac.eigenvalues).enumerate() {
        if (l - r).abs() > bound {
            return Err(format!(
                "eigenvalue {i}: {l} vs Jacobi {r} (bound {bound:e})"
            ));
        }
    }
    let av = gemm(a, Transpose::No, &top.eigenvectors, Transpose::No, 1.0);
    for j in 0..k {
        let res: f64 = av
            .col(j)
            .iter()
            .zip(top.eigenvectors.col(j))
            .map(|(x, v)| (x - top.eigenvalues[j] * v).powi(2))
            .sum::<f64>()
            .sqrt();
        if res > bound {
            return Err(format!("residual of pair {j}: {res:e} (bound {bound:e})"));
        }
    }
    if !top.eigenvectors.has_orthonormal_columns(1e-12) {
        return Err("columns not orthonormal to 1e-12".into());
    }
    let gapped = k == n || {
        let scale = full.eigenvalues[0].abs().max(1e-300);
        (full.eigenvalues[k - 1] - full.eigenvalues[k]) / scale > 1e-3
    };
    if gapped {
        let dev = projector_gap(
            &top.eigenvectors,
            &full.eigenvectors.clone().truncate_cols(k),
        );
        if dev > 1e-10 {
            return Err(format!("subspace deviation {dev:e} from sym_evd"));
        }
    }
    Ok(())
}

/// `max |U·Uᵀ − V·Vᵀ|`: the distance between two spanned subspaces,
/// independent of the basis chosen inside them.
fn projector_gap(u: &Matrix, v: &Matrix) -> f64 {
    let pu = gemm(u, Transpose::No, u, Transpose::Yes, 1.0);
    let pv = gemm(v, Transpose::No, v, Transpose::Yes, 1.0);
    pu.max_abs_diff(&pv)
}

/// Every size × input family × k of the grid above, once.
#[test]
fn top_k_matches_references_on_the_full_grid() {
    for n in SIZES {
        for kind in 0..4u8 {
            for seed in [11u64, 12] {
                if kind != 2 && seed == 12 {
                    continue; // only the repeat family has two variants
                }
                let a = input(kind, n, seed);
                let (jac, full) = (jacobi_evd(&a), sym_evd(&a));
                for k in ks(n) {
                    if let Err(why) = check(&a, k, &jac, &full) {
                        panic!("n = {n}, kind = {kind}, seed = {seed}, k = {k}: {why}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random draws over the same space, small and medium sizes, with fresh
    /// seeds: the properties of `check` hold for every k.
    #[test]
    fn top_k_matches_references_on_random_inputs(
        n in prop::sample::select(vec![1usize, 2, 3, 5, 16, 33]),
        kind in 0u8..4,
        seed in 0u64..100_000,
    ) {
        let a = input(kind, n, seed);
        let (jac, full) = (jacobi_evd(&a), sym_evd(&a));
        for k in ks(n) {
            let r = check(&a, k, &jac, &full);
            prop_assert!(r.is_ok(), "n = {n}, kind = {kind}, k = {k}: {:?}", r);
        }
    }

    /// `leading_from_gram` is the top-k path on the symmetrized Gram: same
    /// vectors, square roots of the clamped eigenvalues.
    #[test]
    fn leading_from_gram_is_the_top_k_path(
        n in 1usize..=40,
        kind in 0u8..4,
        seed in 0u64..100_000,
    ) {
        let mut g = input(kind, n, seed);
        symmetrize(&mut g);
        let k = (n / 2).max(1);
        let svd = leading_from_gram(&g, k);
        let top = sym_evd_top(&g, k);
        prop_assert_eq!(svd.u.max_abs_diff(&top.eigenvectors), 0.0);
        for (s, l) in svd.singular_values.iter().zip(&top.eigenvalues) {
            prop_assert_eq!(*s, l.max(0.0).sqrt());
        }
    }
}

fn panic_message(f: impl FnOnce()) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(f)).err()?;
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
}

/// A NaN or infinite Gram panics up front, naming the first bad entry in
/// column-major order, instead of reaching the iterative solvers.
#[test]
fn non_finite_gram_panics_naming_the_first_bad_entry() {
    for (bad, at, also) in [
        (f64::NAN, (2usize, 1usize), (4usize, 3usize)),
        (f64::INFINITY, (0, 0), (5, 5)),
        (f64::NEG_INFINITY, (3, 4), (1, 5)),
    ] {
        let mut g = random_symmetric(6, 7);
        g[at] = bad;
        g[also] = f64::NAN;
        let msg = panic_message(|| {
            leading_from_gram(&g, 2);
        })
        .expect("non-finite Gram must panic");
        let want = format!("non-finite Gram entry {bad} at ({}, {})", at.0, at.1);
        assert!(msg.contains(&want), "message {msg:?} lacks {want:?}");
    }
}
