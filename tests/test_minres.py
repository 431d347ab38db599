"""Preconditioned MINRES recurrence, residual log, harmonic Ritz values and
the cluster-robust convergence-bound diagnostics."""

import csv

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from sdlab.assembly import PhysParams, assemble_system
from sdlab.mesh import BcConfig, build_coupled_mesh, stacked_domain, tag_boundaries
from sdlab.mms import ExactSolution
from sdlab.minres import (
    PreconditionerError,
    check_convergence_bound,
    compute_Fk,
    detect_plateaus,
    harmonic_ritz,
    minres_solve,
)
from sdlab.precond import build_preconditioner


def small_system(mu=3.0, K=0.5):
    m = build_coupled_mesh(stacked_domain(2), 0)
    tag_boundaries(m, BcConfig.NE)
    loads = ExactSolution(mu=mu, K=K, alpha_bjs=0.5).loads()
    return assemble_system(m, PhysParams(mu=mu, K=K, alpha_bjs=0.5), loads)


def test_matches_direct_solve():
    system = small_system()
    B = build_preconditioner(system)
    log = minres_solve(system.A, system.b, B.apply, reduction=1e-12, maxit=500)
    assert log.reason == "converged"
    x_ref = spla.spsolve(system.A.tocsc(), system.b)
    assert np.abs(log.x - x_ref).max() <= 1e-8 * np.abs(x_ref).max()


def test_residual_log_monotone_and_relative_target():
    system = small_system(mu=1.0, K=1e-3)
    B = build_preconditioner(system)
    log = minres_solve(system.A, system.b, B.apply, reduction=1e-10, maxit=500)
    r = log.residuals
    assert (np.diff(r) <= 1e-13 * r[0]).all()
    assert r[-1] <= 1e-10 * r[0]
    assert log.iterations == len(r) - 1


def test_indefinite_two_step():
    # one distinct eigenvalue pair: exact convergence in two steps
    A = np.diag([1.0, -1.0])
    b = np.array([1.0, 1.0])
    log = minres_solve(A, b, lambda r: r, reduction=1e-12)
    assert log.reason == "converged"
    assert log.iterations <= 2
    assert np.allclose(log.x, np.linalg.solve(A, b), atol=1e-12)


def test_zero_rhs_short_circuits():
    A = np.diag([2.0, 3.0])
    log = minres_solve(A, np.zeros(2), lambda r: r)
    assert log.reason == "converged"
    assert log.iterations == 0
    assert np.abs(log.x).max() == 0.0


def test_negative_inner_product_raises():
    A = np.diag([1.0, -1.0])
    b = np.array([0.3, 1.0])
    with pytest.raises(PreconditionerError):
        minres_solve(A, b, lambda r: -r)


def test_annihilated_residual_raises():
    # sign-flipping map gives (z, r) = 0 with a nonzero residual
    A = np.eye(2)
    b = np.array([1.0, 1.0])
    flip = lambda r: np.array([-r[1], r[0]])
    with pytest.raises(PreconditionerError):
        minres_solve(A, b, flip)


def test_harmonic_ritz_one_step_formula():
    # k = 1: theta = (alpha^2 + beta_2^2) / alpha
    alphas = [0.7]
    betas = [0.3]
    th = harmonic_ritz(alphas, betas, 1)
    assert len(th) == 1
    assert th[0] == pytest.approx((0.7**2 + 0.3**2) / 0.7, rel=1e-12)


def test_harmonic_ritz_converges_to_eigenvalues(rng):
    lam = np.array([-2.0, -0.5, 0.7, 1.3, 3.1])
    A = np.diag(lam)
    b = rng.standard_normal(5)
    log = minres_solve(A, b, lambda r: r, reduction=1e-13, diagnostic=True,
                       eigenvalues=lam)
    th = np.sort(harmonic_ritz(log.alphas, log.betas, log.iterations))
    assert np.abs(th - np.sort(lam)).max() < 1e-8


def _pencil_reference(alphas, betas, k, digits=50):
    """Harmonic Ritz values from their defining pencil (T'T + b^2 e_k e_k',
    T) at `digits` digits, sorted by magnitude."""
    with mpmath.workdps(digits):
        T = mpmath.matrix(k, k)
        for i in range(k):
            T[i, i] = alphas[i]
            if i + 1 < k:
                T[i, i + 1] = T[i + 1, i] = betas[i]
        G = T * T
        G[k - 1, k - 1] += mpmath.mpf(betas[k - 1]) ** 2
        theta = mpmath.eig(mpmath.inverse(T) * G, left=False, right=False)
        return sorted((mpmath.re(t) for t in theta), key=abs)


def test_harmonic_ritz_matches_extended_precision():
    # two tight clusters and an isolated eigenvalue 1e-7: after a plateau
    # the smallest harmonic Ritz value has found 1e-7, about 1e-7 * ||T||
    lam = np.concatenate([np.linspace(-1.3, -1.0, 20),
                          np.linspace(0.8, 1.1, 19), [1e-7]])
    k = 24
    log = minres_solve(np.diag(lam), np.ones(len(lam)), lambda r: r,
                       maxit=k, diagnostic=True)
    assert log.iterations == k
    ref = _pencil_reference(log.alphas, log.betas, k)
    theta = harmonic_ritz(log.alphas, log.betas, k)
    assert abs(float(ref[0]) / 1e-7 - 1.0) < 0.01
    err = [abs(t - float(r)) / abs(float(r)) for t, r in zip(theta, ref)]
    assert len(theta) == k and max(err) <= 1e-8


def test_harmonic_ritz_singular_tridiagonal():
    # T with diagonal (1, 2, 1) and off-diagonal (1, 1) has eigenvalues 0,
    # 1 and 3: its null direction has an infinite harmonic Ritz value, the
    # finite ones are the pencil's
    alphas, betas = [1.0, 2.0, 1.0], [1.0, 1.0, 0.5]
    T = np.diag(alphas) + np.diag(betas[:2], 1) + np.diag(betas[:2], -1)
    G = T @ T
    G[2, 2] += betas[2] ** 2
    w = sla.eigh(T, G, eigvals_only=True)
    finite = np.sort(1.0 / w[np.abs(w) > 1e-12])
    assert len(finite) == 2
    assert np.allclose(harmonic_ritz(alphas, betas, 3), finite, rtol=1e-12)
    assert len(harmonic_ritz([0.0], [0.3], 1)) == 0


def test_Fk_product_value():
    theta = np.array([0.02])
    lam = np.array([0.01, 1.0, 2.0])
    # (|theta1| / |lam1|) * max_i |lam1 - lam_i| / |theta1 - lam_i|
    assert compute_Fk(theta, lam) == pytest.approx(2.0 * 0.99 / 0.98, rel=1e-12)


def test_Fk_exact_ritz_value_is_neutral():
    # theta_1 landing on lam_1 means no degradation at all
    theta = np.array([0.01])
    lam = np.array([0.01, 1.0, 2.0])
    assert compute_Fk(theta, lam) == pytest.approx(1.0, rel=1e-10)


def test_Fk_collision_is_infinite():
    # theta_1 colliding with a different true eigenvalue blows the bound up
    theta = np.array([1.0])
    lam = np.array([0.01, 1.0, 2.0])
    assert np.isinf(compute_Fk(theta, lam))


def test_Fk_needs_enough_data():
    assert np.isnan(compute_Fk(np.array([]), np.array([1.0, 2.0])))
    assert np.isnan(compute_Fk(np.array([0.5]), np.array([1.0])))


def test_detect_plateaus_synthetic():
    # geometric decay: no plateau
    r = list(1.0 * 0.5 ** np.arange(30))
    assert detect_plateaus(r) == []
    # 15 stagnant values inside a decaying sequence: one window
    r = list(0.5 ** np.arange(10)) + [0.5**10] * 15 + list(
        0.5 ** np.arange(11, 20)
    )
    wins = detect_plateaus(r)
    assert len(wins) == 1
    lo, hi = wins[0]
    assert lo >= 9 and hi - lo >= 10
    # plateau running to the end is reported too
    r = list(0.5 ** np.arange(5)) + [0.5**5] * 12
    assert len(detect_plateaus(r)) == 1
    # shorter stagnation is ignored
    r = list(0.5 ** np.arange(5)) + [0.5**5] * 5 + list(0.5 ** np.arange(6, 15))
    assert detect_plateaus(r) == []


def test_diagnostic_reorthogonalization():
    system = small_system(mu=1.0, K=1e-2)
    B = build_preconditioner(system)
    log = minres_solve(system.A, system.b, B.apply, reduction=1e-10,
                       diagnostic=True, maxit=500)
    assert log.ortho_max is not None
    assert log.ortho_max <= 1e-8
    assert log.theta_min is not None


def test_solve_log_csv_format(tmp_path):
    lam = np.array([-1.5, -0.5, 1.0, 2.0])
    log = minres_solve(np.diag(lam), np.ones(4), lambda r: r,
                       reduction=1e-13, diagnostic=True, eigenvalues=lam)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "residual", "theta_min", "F_k"]
    assert len(rows) == len(log.residuals) + 1
    for k, row in enumerate(rows[1:]):
        assert int(row[0]) == k
        assert float(row[1]) == log.residuals[k]
    # iteration 0 has no Ritz data
    assert rows[1][2] == "" and rows[1][3] == ""


def test_convergence_bound_requires_diagnostics():
    A = np.diag([1.0, -1.0])
    log = minres_solve(A, np.array([1.0, 0.5]), lambda r: r)
    with pytest.raises(ValueError):
        check_convergence_bound(log, 0.5)


def test_convergence_bound_on_diagnostic_run(rng):
    lam = np.array([-2.0, -1.2, 0.8, 1.1, 1.9, 2.5])
    A = np.diag(lam)
    b = rng.standard_normal(6)
    log = minres_solve(A, b, lambda r: r, reduction=1e-13, diagnostic=True,
                       eigenvalues=lam)
    a, bb, c, d = -2.0, -1.2, 0.8, 2.5
    rho = (np.sqrt(abs(a * d)) - np.sqrt(abs(bb * c))) / (
        np.sqrt(abs(a * d)) + np.sqrt(abs(bb * c))
    )
    worst = check_convergence_bound(log, rho)
    assert np.isfinite(worst)
    assert worst <= 1.0


def test_nonfinite_preconditioner_stops():
    # max(nan, 0) is nan, so without a finiteness test the recurrence
    # would run on to maxit
    system = small_system()
    B = build_preconditioner(system)
    applies = []

    def poisoned(r):
        applies.append(1)
        z = B.apply(r)
        return z * np.nan if len(applies) == 2 else z

    log = minres_solve(system.A, system.b, poisoned, maxit=500)
    assert log.reason == "nonfinite"
    assert log.iterations <= 2
    assert np.all(np.isfinite(log.x)) and np.all(np.isfinite(log.residuals))
