"""Preconditioned MINRES recurrence, residual log, harmonic Ritz values and
the cluster-robust convergence-bound diagnostics."""

import csv
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sdlab.assembly import PhysParams, assemble_system
from sdlab.mesh import BcConfig, build_coupled_mesh, stacked_domain, tag_boundaries
from sdlab.mms import ExactSolution, mms_case
from sdlab import minres
from sdlab.minres import (
    FK_BLOCK_BYTES,
    check_convergence_bound,
    detect_plateaus,
    harmonic_ritz,
    minres_solve,
)
from sdlab.precond import DeflatedPreconditioner, build_deflation, build_preconditioner
from sdlab.spectrum import generalized_eigs


def small_system(mu=3.0, K=0.5):
    m = build_coupled_mesh(stacked_domain(2), 0)
    tag_boundaries(m, BcConfig.NE)
    loads = ExactSolution(mu=mu, K=K, alpha_bjs=0.5).loads()
    return assemble_system(m, PhysParams(mu=mu, K=K, alpha_bjs=0.5), loads)


def test_matches_direct_solve():
    system = small_system()
    B = build_preconditioner(system)
    log = minres_solve(system.A, system.b, B, reduction=1e-12, maxit=500)
    assert log.reason == "converged"
    x_ref = spla.spsolve(system.A.tocsc(), system.b)
    assert np.abs(log.x - x_ref).max() <= 1e-8 * np.abs(x_ref).max()


def test_residual_log_monotone_and_relative_target():
    system = small_system(mu=1.0, K=1e-3)
    B = build_preconditioner(system)
    log = minres_solve(system.A, system.b, B, reduction=1e-10, maxit=500)
    r = log.residuals
    assert (np.diff(r) <= 1e-13 * r[0]).all()
    assert r[-1] <= 1e-10 * r[0]
    assert log.iterations == len(r) - 1


class Counted:
    """An operator or preconditioner that counts its applications."""

    def __init__(self, apply):
        self.calls = 0
        self._apply = apply

    def __call__(self, v):
        self.calls += 1
        return self._apply(v)

    __matmul__ = __call__


@pytest.mark.parametrize("B", [None, lambda r: -r], ids=["spd", "negated"])
def test_log_counts_products_and_applies(B):
    # every product with A and every preconditioner apply, up to the last
    # one of an indefinite run's rejected step
    system = small_system()
    A = Counted(lambda v: system.A @ v)
    B = Counted(build_preconditioner(system) if B is None else B)
    log = minres_solve(A, system.b, B, reduction=1e-12, maxit=500)
    assert (log.a_matvecs, log.b_applies) == (A.calls, B.calls)
    if log.reason == "converged":
        assert log.a_matvecs == log.iterations
        assert log.b_applies == log.iterations + 1


def test_breakdown_on_a_singular_operator():
    # b's component in A's null space has norm 1, and no step reduces it:
    # the third step exhausts the Krylov space, and beta vanishes
    log = minres_solve(np.diag([2.0, 0.0, -1.0]), np.ones(3), lambda r: r)
    assert log.reason == "breakdown"
    assert log.iterations == 3
    assert log.residuals[-1] == 0.9999999999999998
    assert (log.a_matvecs, log.b_applies) == (3, 4)


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


def test_negative_inner_product_is_indefinite():
    A = np.diag([1.0, -1.0])
    b = np.array([0.3, 1.0])
    log = minres_solve(A, b, lambda r: -r)
    assert log.reason == "indefinite"
    assert log.iterations == 0 and np.abs(log.x).max() == 0.0
    assert np.isnan(log.residuals[0])


def test_annihilated_residual_is_indefinite():
    # sign-flipping map gives (z, r) = 0 with a nonzero residual
    A = np.eye(2)
    b = np.array([1.0, 1.0])
    flip = lambda r: np.array([-r[1], r[0]])
    log = minres_solve(A, b, flip)
    assert log.reason == "indefinite"
    assert log.iterations == 0 and np.abs(log.x).max() == 0.0


def test_indefinite_preconditioner_ends_log_at_last_good_step():
    # B = diag(1, 1, -1) is positive on b but not on every later residual:
    # the log keeps the good steps, x their iterate
    A = np.diag([1.0, 2.0, 3.0])
    b = np.array([1.0, 1.0, 0.1])
    sign = np.array([1.0, 1.0, -1.0])
    log = minres_solve(A, b, lambda r: sign * r, diagnostic=True)
    assert log.reason == "indefinite"
    k = log.iterations
    assert k >= 1
    assert len(log.alphas) == len(log.betas) == len(log.theta_min) - 1 == k
    ref = minres_solve(A, b, lambda r: sign * r, maxit=k)
    assert ref.reason == "maxit"
    assert np.array_equal(log.x, ref.x)
    assert np.array_equal(log.residuals, ref.residuals)


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


@pytest.mark.parametrize("k", [0, -1, 4, 400])
def test_harmonic_ritz_rejects_steps_outside_the_log(k):
    with pytest.raises(ValueError, match=r"outside 1\.\.3"):
        harmonic_ritz([1.0, 2.0, 1.0], [1.0, 1.0, 0.5], k)


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


def _fk(theta1, lam):
    """F_k at one theta_1, as the post-pass of minres_solve computes it."""
    return minres._fk_rows(np.array([theta1]),
                           *minres._split_smallest(np.asarray(lam)))[0]


def test_Fk_product_value():
    lam = np.array([0.01, 1.0, 2.0])
    # (|theta1| / |lam1|) * max_i |lam1 - lam_i| / |theta1 - lam_i|
    assert _fk(0.02, lam) == pytest.approx(2.0 * 0.99 / 0.98, rel=1e-12)


def test_Fk_exact_ritz_value_is_neutral():
    # theta_1 landing on lam_1 means no degradation at all
    assert _fk(0.01, [0.01, 1.0, 2.0]) == pytest.approx(1.0, rel=1e-10)


def test_Fk_collision_is_infinite():
    # theta_1 colliding with a different true eigenvalue blows the bound up
    assert np.isinf(_fk(1.0, [0.01, 1.0, 2.0]))


def test_Fk_needs_enough_data():
    # a step without a harmonic Ritz value has no F_k
    assert np.isnan(_fk(np.nan, [1.0, 2.0]))
    # nor has any step when fewer than two eigenvalues are known
    log = minres_solve(np.diag([1.0, 2.0]), np.ones(2), lambda r: r,
                       diagnostic=True, eigenvalues=np.array([1.0]))
    assert len(log.Fk) == len(log.residuals) and np.isnan(log.Fk).all()


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
    log = minres_solve(system.A, system.b, B, reduction=1e-10,
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
        z = B(r)
        return z * np.nan if len(applies) == 2 else z

    log = minres_solve(system.A, system.b, poisoned, maxit=500)
    assert log.reason == "nonfinite"
    assert log.iterations <= 2
    assert np.all(np.isfinite(log.x)) and np.all(np.isfinite(log.residuals))


def _reference_case(case, nref, mu, K, deflate):
    system = mms_case(nref, n0=4, exact=ExactSolution(mu=mu, K=K, alpha_bjs=0.5),
                      config=BcConfig(case))
    B = build_preconditioner(system)
    d = build_deflation(system) if deflate else None
    return system, d, (B if d is None else DeflatedPreconditioner(B, d))


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case,nref,mu,K,deflate,spectrum", [
    pytest.param("EN", 2, 1e-4, 1e-4, False, True, id="criterion5"),
    pytest.param("NE", 1, 1e-2, 1e4, True, True, id="deflated-NE"),
    pytest.param("NN", 1, 1.0, 1.0, False, False, id="NN-no-eigenvalues"),
])
def test_diagnostics_match_reference(case, nref, mu, K, deflate, spectrum):
    # the recurrences in place, the post-processing in direct LAPACK calls
    # with one blocked F_k pass, and the in-place Gram-Schmidt sweeps must
    # reproduce the fresh-array, scipy-wrapper loop with one F_k per step
    # bit for bit
    system, d, P = _reference_case(case, nref, mu, K, deflate)
    eigenvalues = None
    if spectrum:
        eigenvalues = generalized_eigs(system.A, system.N, len(system.essential),
                                       deflation=d).eigenvalues
    log = minres_solve(system.A, system.b, P, reduction=1e-12, maxit=3000,
                       diagnostic=True, eigenvalues=eigenvalues)
    assert log.reason == "converged"
    x, residuals, alphas, betas, theta_min, Fk, ortho_max = (
        oracles.reference_minres(system.A, system.b, P, reduction=1e-12,
                                 maxit=3000, eigenvalues=eigenvalues))
    for got, want in ((log.x, x), (log.residuals, residuals),
                      (log.alphas, alphas), (log.betas, betas),
                      (log.theta_min, theta_min), (log.Fk, Fk)):
        _assert_bitwise(got, want)
    assert log.ortho_max == ortho_max
    if case == "EN":
        # F_k spans more than one block, and crosses from plateau to 1
        assert len(log.Fk) > FK_BLOCK_BYTES // (8 * (len(eigenvalues) - 1))
        assert np.nanmax(log.Fk) > 10.0 and np.nanmin(log.Fk) < 1.5
    if not spectrum:
        assert np.isnan(log.Fk).all()


@pytest.mark.parametrize("case,nref,mu,K,deflate", [
    pytest.param("EN", 2, 1e-4, 1e-4, False, id="criterion5"),
    pytest.param("NE", 1, 1e-2, 1e4, True, id="deflated-NE"),
])
def test_plain_solve_matches_reference(case, nref, mu, K, deflate):
    # without diagnostics, the in-place recurrences give the fresh-array
    # loop's iterates and Lanczos coefficients bit for bit
    system, _, P = _reference_case(case, nref, mu, K, deflate)
    log = minres_solve(system.A, system.b, P, reduction=1e-12, maxit=3000)
    assert log.reason == "converged"
    x, residuals, alphas, betas = oracles.reference_minres(
        system.A, system.b, P, reduction=1e-12, maxit=3000,
        diagnostic=False)[:4]
    for got, want in ((log.x, x), (log.residuals, residuals),
                      (log.alphas, alphas), (log.betas, betas)):
        _assert_bitwise(got, want)


def test_recurrences_driven_in_turn_match_sequential_solves():
    # a plain and a deflated run over one BlockPreconditioner, advanced by
    # hand one step each in turn as a lockstep driver would, give the two
    # sequential solves' logs bit for bit
    system, _, deflated = _reference_case("NE", 1, 1e-2, 1e4, True)
    runs = []
    for P in (deflated.base, deflated):
        r = system.b.copy()
        y = P(r)
        beta1 = np.sqrt(float(r @ y))
        target = max(1e-12 * beta1, minres.ABS_FLOOR)
        x = np.zeros(len(r))
        runs.append(SimpleNamespace(
            P=P, steps=minres._recurrence(x, r, y, beta1, target), x=x,
            taken=[(np.nan, np.nan, beta1)], reason=None))
    while any(run.reason is None for run in runs):
        for run in runs:
            if run.reason is not None:
                continue
            try:
                r = run.steps.send(system.A @ next(run.steps))
                run.taken.append(run.steps.send(run.P(r)))
            except StopIteration as stop:
                run.reason = stop.value
    for run in runs:
        log = minres_solve(system.A, system.b, run.P, reduction=1e-12,
                           maxit=3000)
        assert run.reason == log.reason == "converged"
        alphas, betas, residuals = np.array(run.taken).T
        for got, want in ((run.x, log.x), (residuals, log.residuals),
                          (alphas[1:], log.alphas), (betas[1:], log.betas)):
            _assert_bitwise(np.ascontiguousarray(got), want)
    # the deflated run stops first, so the plain one ran on alone
    assert len(runs[1].taken) < len(runs[0].taken)


def test_Fk_blocks_match_per_step_reference(rng, monkeypatch):
    # blocks of 7 steps, the last one short; steps without theta_1, with
    # theta_1 on or within 1e-15 of an eigenvalue other than lam_1 (both
    # collisions), and on lam_1 itself
    lam = np.concatenate([[1e-3], rng.uniform(0.5, 2.0, 400),
                          -rng.uniform(0.5, 2.0, 399)])
    theta1 = rng.uniform(-2.5, 2.5, 40)
    theta1[[0, 9, 23]] = np.nan
    theta1[[4, 13]] = lam[[7, 500]]
    theta1[[20, 30]] = lam[[9, 600]] * (1.0 + 2.0 ** -52)
    theta1[35] = lam[0]
    monkeypatch.setattr(minres, "FK_BLOCK_BYTES", 7 * 8 * (len(lam) - 1))
    got = minres._fk_rows(theta1, *minres._split_smallest(lam))
    want = [oracles.reference_Fk(np.array([t]), lam) for t in theta1]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isinf(got[[4, 13, 20, 30]]).all() and got[35] == 1.0
    # one row at a time, as in a block of one step
    assert np.array_equal([_fk(t, lam) for t in theta1], want, equal_nan=True)


def test_Fk_takes_the_ritz_value_nearest_lam1():
    # lam_1 = -0.04 among two uneven clusters: on several steps the
    # smallest harmonic Ritz value is not the one nearest lam_1, and F_k
    # must be taken at the nearest one, as in the per-step reference
    rng = np.random.default_rng(9)
    lam = np.concatenate([[-0.04], rng.uniform(0.5, 2.0, 20),
                          -rng.uniform(0.3, 3.0, 20)])
    log = minres_solve(np.diag(lam), rng.standard_normal(len(lam)),
                       lambda r: r, reduction=1e-12, diagnostic=True,
                       eigenvalues=lam)
    apart = 0
    for k in range(1, log.iterations + 1):
        theta = harmonic_ritz(log.alphas, log.betas, k)
        apart += theta[0] != theta[np.argmin(np.abs(theta - lam[0]))]
        assert np.array_equal(log.Fk[k], oracles.reference_Fk(theta, lam),
                              equal_nan=True)
    assert apart >= 5


_COEFF = st.one_of(st.just(0.0), st.floats(1e-3, 1e2), st.floats(-1e2, -1e-3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 24).flatmap(lambda k: st.tuples(
    st.lists(_COEFF, min_size=k, max_size=k),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e2)),
             min_size=k, max_size=k))))
@example(([0.0], [0.3]))
@example(([0.7], [0.3]))
@example(([1.0, 2.0, 1.0], [1.0, 1.0, 0.5]))
@example(([0.0, 0.0], [1.0, 0.5]))
def test_harmonic_ritz_matches_reference(coefficients):
    # zero alphas make T_k singular; k = 1 takes the divide branch
    alphas, betas = coefficients
    k = len(alphas)
    got = harmonic_ritz(alphas, betas, k)
    want = oracles.reference_harmonic_ritz(alphas, betas, k)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert len(got) <= k
    assert (np.diff(np.abs(got)) >= 0).all()
