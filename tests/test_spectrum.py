"""Dense spectral analysis of the preconditioned pencil."""

import platform

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from sdlab.assembly import PhysParams, assemble_system
from sdlab.cli import floating_domain
from sdlab.mesh import BcConfig, build_coupled_mesh, stacked_domain, tag_boundaries
from sdlab.precond import build_deflation
from sdlab import spectrum
from sdlab.spectrum import (
    BudgetError,
    Spectrum,
    contraction_factor,
    generalized_eigs,
    two_interval_hull,
)


def spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_generalized_eigs_matches_direct(rng):
    n = 20
    A = rng.standard_normal((n, n))
    A = A + A.T
    N = spd(rng, n)
    spec = generalized_eigs(sp.csr_matrix(A), sp.csr_matrix(N))
    ref = sla.eigh(A, N, eigvals_only=True)
    assert np.abs(spec.eigenvalues - ref).max() < 1e-10
    assert (np.diff(spec.eigenvalues) >= 0).all()


@pytest.mark.parametrize("config", list(BcConfig), ids=lambda c: c.value)
def test_generalized_eigs_matches_scipy_on_every_layout(config):
    # the eliminated dofs are solved apart from the dense pencil; the
    # spectrum must not notice
    domain = (floating_domain(2, n0=1) if config is BcConfig.MULTI
              else stacked_domain(2))
    for nref in (0, 1):
        m = tag_boundaries(build_coupled_mesh(domain, nref), config)
        s = assemble_system(m, PhysParams(mu=0.3, K=2e-3, alpha_bjs=0.5))
        Ad, Nd = s.A.toarray(), s.N.toarray()
        ref = sla.eigh(Ad, Nd, eigvals_only=True)
        tol = 1e-12 * np.abs(ref).max()
        n_elim = len(s.essential)
        assert n_elim > 0
        for spec in (generalized_eigs(s.A, s.N),
                     generalized_eigs(s.A, s.N, n_elim),
                     generalized_eigs(Ad, Nd, n_eliminated=n_elim)):
            assert np.abs(spec.eigenvalues - ref).max() <= tol
        assert spec.n_eliminated == n_elim


def test_budget_guard(rng, monkeypatch):
    n = 8
    A = np.eye(n)
    monkeypatch.setattr(spectrum, "DENSE_BUDGET", 4)
    with pytest.raises(ValueError):
        generalized_eigs(A, A)


def test_kappa_and_effective():
    spec = Spectrum(eigenvalues=np.array([-2.0, -0.01, 0.5, 4.0]))
    assert spec.kappa() == pytest.approx(400.0)
    assert spec.kappa_eff(drop=1) == pytest.approx(8.0)
    assert spec.kappa_eff(drop=2) == pytest.approx(2.0)
    assert np.array_equal(np.abs(spec.by_magnitude),
                          np.sort(np.abs(spec.eigenvalues)))


def test_hull_filters_near_kernel_and_units():
    lam = np.array([-3.0, -1e-8, -0.5, 1.0, 1.0, 0.25, 2.0])
    # no filtering
    a, b, c, d = two_interval_hull(lam)
    assert (a, b, c, d) == (-3.0, -1e-8, 0.25, 2.0)
    # drop the near-kernel mode
    a, b, c, d = two_interval_hull(lam, drop=1)
    assert (a, b, c, d) == (-3.0, -0.5, 0.25, 2.0)
    # also remove the eliminated-dof unit eigenvalues
    a, b, c, d = two_interval_hull(lam, drop=1, n_unit=2)
    assert (a, b, c, d) == (-3.0, -0.5, 0.25, 2.0)
    # fewer unit eigenvalues than requested: nothing is removed
    a2 = two_interval_hull(lam, drop=1, n_unit=3)
    assert a2 == (a, b, c, d)


def test_hull_requires_indefinite():
    with pytest.raises(ValueError):
        two_interval_hull(np.array([0.5, 1.0, 2.0]))
    with pytest.raises(ValueError):
        two_interval_hull(np.array([-0.5, 1.0]), drop=1)


def test_contraction_factor_values():
    # sqrt(|a d|) = 4, sqrt(|b c|) = 1: rho = 3/5
    rho = contraction_factor((-4.0, -1.0, 1.0, 4.0))
    assert rho == pytest.approx(0.6, rel=1e-12)
    rho = contraction_factor((-4.0, -0.25, 1.0, 4.0))
    assert rho == pytest.approx((4.0 - 0.5) / (4.0 + 0.5), rel=1e-12)
    # tight clusters contract fast
    assert contraction_factor((-1.0, -0.99, 0.99, 1.0)) < 0.01


def test_deflated_pencil_matches_similarity(rng):
    m = build_coupled_mesh(stacked_domain(2), 0)
    tag_boundaries(m, BcConfig.NE)
    system = assemble_system(m, PhysParams(mu=1.0, K=1e-3, alpha_bjs=0.5))
    defl = build_deflation(system)
    spec = generalized_eigs(system.A, system.N, deflation=defl)
    # reference: eigenvalues of B_W A via the (nonsymmetric) product
    Nd = system.N.toarray()
    Ad = system.A.toarray()
    W, gamma = defl.W, defl.gamma
    E = W.T @ (Nd @ W) * gamma
    Bw = np.linalg.inv(Nd) + W @ np.linalg.solve(E, W.T)
    ref = np.sort(np.linalg.eigvals(Bw @ Ad).real)
    assert np.abs(np.sort(spec.eigenvalues) - ref).max() < 1e-7 * np.abs(ref).max()


def test_deflation_moves_near_kernel_mode():
    # large mu*K shrinks the constant-pressure mode of the plain pencil;
    # the rank-one deflation lifts it back into the cluster
    m = build_coupled_mesh(stacked_domain(2), 0)
    tag_boundaries(m, BcConfig.NE)
    system = assemble_system(m, PhysParams(mu=1.0, K=1e4, alpha_bjs=0.5))
    plain = generalized_eigs(system.A, system.N)
    defl = generalized_eigs(system.A, system.N,
                            deflation=build_deflation(system))
    lam_plain = np.abs(plain.by_magnitude)
    lam_defl = np.abs(defl.by_magnitude)
    assert lam_plain[0] < 1e-4
    assert lam_defl[0] > 0.05
    assert plain.kappa() > 1e4
    assert defl.kappa() < 50.0


def test_spectrum_kappa_and_kappa_eff():
    spec = Spectrum(eigenvalues=np.array([-1.5, 0.25, 1.0]))
    assert spec.kappa() == pytest.approx(6.0)
    assert spec.kappa_eff(1) == pytest.approx(1.5)


EDGE_CONFIGS = [BcConfig.NN, BcConfig.EE, BcConfig.NESTAR, BcConfig.ENSTAR,
                BcConfig.NE, BcConfig.EN]


@pytest.mark.parametrize("config", EDGE_CONFIGS, ids=lambda c: c.value)
def test_spectrum_depends_on_mu_times_K_only(config):
    # normwise, because EE has an exact zero eigenvalue
    for nref in (0, 1):
        m = build_coupled_mesh(stacked_domain(4), nref)
        tag_boundaries(m, config)
        spectra = []
        for mu, K in ((1.0, 1.0), (1e-2, 1e2), (1e4, 1e-4)):
            s = assemble_system(m, PhysParams(mu=mu, K=K, alpha_bjs=0.5))
            spectra.append(generalized_eigs(s.A, s.N).eigenvalues)
        ref = spectra[0]
        for lam in spectra[1:]:
            assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


def _system(config, nref, mu=1e-4, K=1e-4, n0=4):
    domain = (floating_domain(2, n0=1) if config is BcConfig.MULTI
              else stacked_domain(n0))
    m = tag_boundaries(build_coupled_mesh(domain, nref), config)
    return assemble_system(m, PhysParams(mu=mu, K=K, alpha_bjs=0.5))


def _reduced(A, N, deflation=None):
    """The saddle-point reduction's part of the spectrum of (A, N), or of
    (A, B_W^{-1}) for a `deflation`, or None where it does not apply, on
    the coupled dofs as `generalized_eigs` slices them."""
    A, N = sp.csr_matrix(A), sp.csr_matrix(N)
    coupled = spectrum._coupled(A) | spectrum._coupled(N)
    if deflation is not None:
        coupled |= deflation.W.any(axis=1)
    keep = np.flatnonzero(coupled)
    W, gamma = ((None, None) if deflation is None
                else (deflation.W[keep], deflation.gamma))
    return spectrum._saddle_eigs(A[keep][:, keep], N[keep][:, keep], W, gamma)


def _saddle_pencil(rng, n_u, n_p, rank, n_D=3):
    """A = [[A_uu, B'], [B, 0]] and N = diag(A_uu + B_D' N_DD^{-1} B_D,
    N_pp): random SPD A_uu, a B of the given rank, and N_pp the block
    diagonal of a random SPD block and the positive diagonal N_DD on the
    last n_D pressure dofs D."""
    B = rng.standard_normal((n_p, rank)) @ rng.standard_normal((rank, n_u))
    N_DD = rng.uniform(0.5, 2.0, n_D)
    A_uu = spd(rng, n_u)
    B_D = B[n_p - n_D:]
    A = np.block([[A_uu, B.T], [B, np.zeros((n_p, n_p))]])
    N = sla.block_diag(A_uu + B_D.T @ (B_D / N_DD[:, None]),
                       spd(rng, n_p - n_D), np.diag(N_DD))
    return A, N


def test_saddle_reduction_on_random_pencils(rng):
    for rank in (6, 4):         # full and deficient coupling rank
        A, N = _saddle_pencil(rng, 15, 6, rank)
        ref = sla.eigh(A, N, eigvals_only=True)
        lam = _reduced(A, N)
        assert lam is not None
        assert np.count_nonzero(lam == 1.0) >= 15 - 6
        assert np.abs(np.sort(lam) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("n_D, on_D",
                         ((5, None), (5, 0), (5, 3), (5, 5), (2, 2)),
                         ids=("no-W", "W-off-D", "W-on-some-of-D",
                              "W-on-all-of-D", "W-on-all-of-a-small-D"))
def test_saddle_reduction_eliminates_the_unit_eigenvalues(rng, n_D, on_D, m):
    # D is the last n_D pressure dofs.  W (None for none) lives on the
    # coupled pressure dofs and the first on_D of D, so it touches m_D =
    # min(m, on_D) directions of D, and the other n_D - m_D exact unit
    # eigenvalues (none where m = n_D = 2) are eliminated before the dense
    # eigensolve
    n_u, n_p = 20, 9
    A, N = _saddle_pencil(rng, n_u, n_p, n_p, n_D)
    W = gamma = None
    M, m_D = N, 0
    if on_D is not None:
        W = np.zeros((n_u + n_p, m))
        W[n_u:n_u + n_p - n_D + on_D] = rng.standard_normal(
            (n_p - n_D + on_D, m))
        gamma, m_D = 2.0, min(m, on_D)
        NW = N @ W
        M = N - NW @ np.linalg.solve((1.0 + gamma) * (W.T @ NW), NW.T)
    ref = sla.eigh(A, M, eigvals_only=True)
    lam = spectrum._saddle_eigs(sp.csr_matrix(A), sp.csr_matrix(N), W, gamma)
    assert lam is not None
    assert np.count_nonzero(lam == 1.0) >= n_u - n_p + n_D - m_D
    assert np.abs(np.sort(lam) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_saddle_reduction_declines_other_pencils(rng):
    A, N = _saddle_pencil(rng, 15, 6, 6)
    # N_uu - A_uu = B' S B with a dense S: no single pressure dofs carry it
    B = A[15:, :15]
    S = spd(rng, 6)
    N_S = sla.block_diag(A[:15, :15] + B.T @ S @ B, spd(rng, 6))
    # N_uu - A_uu leaves the range of the coupling: certificate fails
    N_off = N.copy()
    N_off[:15, :15] += 0.1 * spd(rng, 15)
    # a nonzero pressure block (its diagonal still zero), and N coupling
    # u and p
    A_pp = A.copy()
    A_pp[15, 16] = A_pp[16, 15] = 0.5
    N_up = N.copy()
    N_up[0, 15] = N_up[15, 0] = 0.01
    for A_, N_ in ((A, N_S), (A, N_off), (A_pp, N), (A, N_up)):
        assert _reduced(A_, N_) is None
        ref = sla.eigh(A_, N_, eigvals_only=True)
        lam = generalized_eigs(A_, N_).eigenvalues
        assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("config", list(BcConfig), ids=lambda c: c.value)
def test_saddle_reduction_applies_on_every_layout(config):
    # mu = K = 1e-4 and (1e4, 1e-4) leave Delta = 0 in the certified
    # identity, (3e-3, 7e2) and (1, 1e4) a nonzero Delta of roundoff size
    for nref in (0, 1):
        for mu, K in ((1e-4, 1e-4), (3e-3, 7e2), (1.0, 1e4), (1e4, 1e-4)):
            s = _system(config, nref, mu, K, n0=2)
            assert _reduced(s.A, s.N) is not None
            ref = sla.eigh(s.A.toarray(), s.N.toarray(), eigvals_only=True)
            lam = generalized_eigs(s.A, s.N).eigenvalues
            assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


def test_saddle_reduction_declines_a_perturbed_identity():
    # one u_D diagonal entry of N off by 1e-10 relative breaks
    # N_uu - A_uu = A_uD N_DD^{-1} A_Du far beyond roundoff
    s = _system(BcConfig.EN, 1, n0=2)
    u_D = s.layout.field_slice("u_D")
    i = np.setdiff1d(np.arange(u_D.start, u_D.stop), s.essential)[0]
    N = s.N.tolil()
    N[i, i] *= 1.0 + 1e-10
    N = N.tocsr()
    assert _reduced(s.A, N) is None
    ref = sla.eigh(s.A.toarray(), N.toarray(), eigvals_only=True)
    lam = generalized_eigs(s.A, N).eigenvalues
    assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


def test_declined_deflated_pencil_matches_dense_woodbury():
    # the perturbed identity above, deflated: the rank-m update of the
    # dense N that `sygv` then takes is B_W^{-1}; at mu*K = 1, because no
    # dense reference holds 1e-12 far out in mu*K (see below)
    s = _system(BcConfig.EN, 1, mu=1.0, K=1.0, n0=2)
    u_D = s.layout.field_slice("u_D")
    i = np.setdiff1d(np.arange(u_D.start, u_D.stop), s.essential)[0]
    N = s.N.tolil()
    N[i, i] *= 1.0 + 1e-10
    N = N.tocsr()
    defl = build_deflation(s)
    assert _reduced(s.A, N, defl) is None
    Nd = N.toarray()
    NW = Nd @ defl.W
    Bw_inv = Nd - NW @ np.linalg.solve(
        (1.0 + defl.gamma) * (defl.W.T @ NW), NW.T)
    ref = sla.eigh(s.A.toarray(), Bw_inv, eigvals_only=True)
    lam = generalized_eigs(s.A, N, deflation=defl).eigenvalues
    assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("config", [BcConfig.NE, BcConfig.EN, BcConfig.MULTI],
                         ids=lambda c: c.value)
def test_deflated_pencil_budgets_as_the_plain_one(config, monkeypatch):
    # the rank-m correction adds nothing the estimate has to count
    monkeypatch.setattr(spectrum, "DENSE_BUDGET", 1)
    for nref in (1, 2):
        s = _system(config, nref)
        with pytest.raises(BudgetError) as plain:
            generalized_eigs(s.A, s.N)
        with pytest.raises(BudgetError) as deflated:
            generalized_eigs(s.A, s.N, deflation=build_deflation(s))
        assert str(deflated.value) == str(plain.value)


@pytest.mark.parametrize("config", [BcConfig.EN, BcConfig.NN],
                         ids=lambda c: c.value)
def test_saddle_reduction_matches_dense_at_nref_2(config):
    s = _system(config, 2)
    assert _reduced(s.A, s.N) is not None
    ref = sla.eigh(s.A.toarray(), s.N.toarray(), eigvals_only=True,
                   driver="gv")
    lam = generalized_eigs(s.A, s.N).eigenvalues
    assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("config", [BcConfig.NE, BcConfig.EN, BcConfig.MULTI],
                         ids=lambda c: c.value)
def test_deflated_reduction_matches_dense_woodbury(config):
    # B_W^{-1} is as singular as min(gamma, 1/gamma) along W, so far out in
    # mu*K no dense reference holds 1e-12 (eigh and sygv differ by 7e-11 on
    # EN at mu*K = 1e-6); the sweep stays within two decades of 1
    for nref in (0, 1):
        for muK in (1e-2, 1.0, 1e2):
            s = _system(config, nref, mu=muK, K=1.0)
            defl = build_deflation(s)
            Nd = s.N.toarray()
            NW = Nd @ defl.W
            Bw_inv = Nd - NW @ np.linalg.solve(
                (1.0 + defl.gamma) * (defl.W.T @ NW), NW.T)
            ref = sla.eigh(s.A.toarray(), Bw_inv, eigvals_only=True)
            assert _reduced(s.A, s.N, defl) is not None
            lam = generalized_eigs(s.A, s.N, deflation=defl).eigenvalues
            assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


def test_pencil_off_the_coupling_range_takes_dense_path():
    # a small free-flow velocity mass in N: N_uu - A_uu leaves range(Y)
    s = _system(BcConfig.EN, 1)
    u_S = np.zeros(s.A.shape[0])
    u_S[s.layout.field_slice("u_S")] = 1e-3 * s.N.diagonal().mean()
    N = (s.N + sp.diags(u_S)).tocsr()
    assert _reduced(s.A, N) is None
    ref = sla.eigh(s.A.toarray(), N.toarray(), eigvals_only=True)
    lam = generalized_eigs(s.A, N).eigenvalues
    assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()


def test_heap_release_leaves_spectra_bitwise(monkeypatch):
    # handing freed heap back to the OS is a side effect only: where the C
    # library has no malloc_trim the helper does nothing, and the spectra
    # are bitwise those computed with it
    assert (spectrum._MALLOC_TRIM is not None) == (
        platform.libc_ver()[0] == "glibc")
    cases = [(_system(BcConfig.EN, 1), None)]
    s = _system(BcConfig.NE, 1)
    cases.append((s, build_deflation(s)))
    with_trim = [generalized_eigs(s.A, s.N, deflation=d).eigenvalues
                 for s, d in cases]
    monkeypatch.setattr(spectrum, "_MALLOC_TRIM", None)
    assert spectrum._release_heap() is None
    for (s, d), lam in zip(cases, with_trim):
        assert np.array_equal(
            generalized_eigs(s.A, s.N, deflation=d).eigenvalues, lam)


def test_heap_released_on_both_paths(monkeypatch):
    # before H is allocated and once the eigenvalues are in, on the
    # reduction; once the eigenvalues are in, on the dense path
    calls = []
    monkeypatch.setattr(spectrum, "_MALLOC_TRIM", calls.append)
    s = _system(BcConfig.EN, 1, n0=2)
    generalized_eigs(s.A, s.N)
    assert calls == [0, 0]
    # the pencil of test_pencil_off_the_coupling_range_takes_dense_path
    u_S = np.zeros(s.A.shape[0])
    u_S[s.layout.field_slice("u_S")] = 1e-3 * s.N.diagonal().mean()
    N = (s.N + sp.diags(u_S)).tocsr()
    calls.clear()
    generalized_eigs(s.A, N)
    assert calls == [0]
