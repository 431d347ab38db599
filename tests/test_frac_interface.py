"""Fractional interface operator: facet Laplacian, discrete eigenbasis and the
weighted sum of the -1/2 and +1/2 powers, and the preconditioner's inverse
of it."""

import itertools

import numpy as np
import pytest

from sdlab.assembly import (PhysParams, assemble_riesz, assemble_system,
                            build_layout)
from sdlab.frac_interface import (
    build_interface_basis,
    facet_laplacian,
    fractional_matrix,
    interface_operator,
)
from sdlab.mesh import (LAYOUTS, BcConfig, build_coupled_mesh, stacked_domain,
                        tag_boundaries)
from sdlab.cli import floating_domain
from sdlab.precond import build_preconditioner


def iface_mesh(nref, config=BcConfig.NE, n0=1):
    m = build_coupled_mesh(stacked_domain(n0), nref)
    tag_boundaries(m, config)
    return m


def test_endpoint_table():
    free = {"NEstar", "NE", "MultiInclusion"}
    zero = {"ENstar", "EN"}
    for cfg, row in LAYOUTS.items():
        if cfg.value in free:
            assert row.endpoints == ("free", "free")
        elif cfg.value in zero:
            assert row.endpoints == ("zero", "zero")
    assert LAYOUTS[BcConfig.NN].endpoints == ("free", "zero")
    assert LAYOUTS[BcConfig.EE].endpoints == ("zero", "free")


def test_two_facet_hand_values():
    # two facets of length 1/2: midpoint distance 1/2 gives coupling 2,
    # generalized eigenvalues of (L+M, M) are 1 and 9
    m = iface_mesh(1)
    L, lengths = facet_laplacian(m, "free")
    assert np.allclose(L, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-14)
    assert np.allclose(lengths, 0.5)
    basis = build_interface_basis(m, "free")
    assert np.allclose(np.sort(basis.eigenvalues), [1.0, 9.0], atol=1e-12)
    # mu = K = 1: entries (d^-1/2 + d^1/2) weighted by the mass matrix
    S = interface_operator(m, PhysParams(1.0, 1.0, 0.5))
    expect = [[4.0 / 3.0, -1.0 / 3.0], [-1.0 / 3.0, 4.0 / 3.0]]
    assert np.allclose(S, expect, atol=1e-12)


def test_single_facet_values():
    m = iface_mesh(0)
    # free endpoints: L = 0, single eigenvalue 1, S = 1/mu + K
    S = interface_operator(m, PhysParams(2.0, 5.0, 0.5))
    assert np.allclose(S, [[0.5 + 5.0]], atol=1e-14)
    # zero endpoints add 2/|F| at each end
    Lz, _ = facet_laplacian(m, "zero")
    assert np.allclose(Lz, [[4.0]], atol=1e-14)


def test_basis_orthonormal_in_mass_inner_product():
    m = iface_mesh(2, n0=2)
    for kind in ("free", "zero"):
        basis = build_interface_basis(m, kind)
        U, w = basis.vectors, basis.lengths
        G = U.T @ (w[:, None] * U)
        assert np.abs(G - np.eye(len(w))).max() < 1e-12
        L, _ = facet_laplacian(m, kind)
        # generalized eigenpairs: (L + M) U = M U diag(d)
        lhs = (L + np.diag(w)) @ U
        rhs = (w[:, None] * U) * basis.eigenvalues[None, :]
        assert np.abs(lhs - rhs).max() < 1e-10
        assert basis.eigenvalues.min() >= 1.0 - 1e-12


def test_zero_endpoints_raise_spectrum():
    # constraining the endpoints can only push eigenvalues up
    m = iface_mesh(3, n0=1)
    d_free = np.sort(build_interface_basis(m, "free").eigenvalues)
    d_zero = np.sort(build_interface_basis(m, "zero").eigenvalues)
    assert d_free[0] == pytest.approx(1.0, abs=1e-12)
    assert (d_zero >= d_free - 1e-10).all()
    assert d_zero[0] > 1.0 + 1e-6


def test_closed_loop_constant_mode():
    # an inclusion interface has no endpoints, so the constant survives
    m = build_coupled_mesh(floating_domain(1, 2), 0)
    tag_boundaries(m, BcConfig.MULTI)
    basis = build_interface_basis(m, "free")
    k = np.argmin(basis.eigenvalues)
    assert basis.eigenvalues[k] == pytest.approx(1.0, abs=1e-12)
    v = basis.vectors[:, k]
    assert np.abs(v - v.mean()).max() < 1e-10


def test_fractional_matrix_symmetric_consistent():
    m = iface_mesh(2)
    basis = build_interface_basis(m, "free")
    for p in (-0.5, 0.5):
        S = 2.0 * fractional_matrix(basis, p)
        assert np.abs(S - S.T).max() == 0.0
    # power 0 collapses to the facet mass matrix
    M0 = fractional_matrix(basis, 0.0)
    assert np.allclose(M0, np.diag(basis.lengths), atol=1e-12)


@pytest.mark.parametrize("config", list(BcConfig))
def test_inverse_round_trip(config, rng):
    if config is BcConfig.MULTI:
        m = tag_boundaries(build_coupled_mesh(floating_domain(2, 2), 0), config)
    else:
        m = iface_mesh(2, config=config, n0=2)
    for mu, K in itertools.product((1e-6, 1e-4, 1.0, 1e4, 1e6), repeat=2):
        params = PhysParams(mu, K, 0.5)
        S = interface_operator(m, params)
        r = rng.standard_normal(S.shape[0])
        x = build_preconditioner(assemble_system(m, params)).solve_block(
            "lam", r)
        assert np.abs(S @ x - r).max() <= 1e-10 * np.abs(r).max()
        # S is symmetric positive definite at every parameter pair
        assert np.abs(S - S.T).max() == 0.0
        assert np.linalg.eigvalsh(S).min() > 0


@pytest.mark.parametrize("config", list(BcConfig), ids=lambda c: c.value)
def test_mixed_endpoints_sum(config):
    # each power from the basis of its own endpoint condition (NN and EE
    # mix a free and a zero one), weighted 1/mu and K: interface_operator
    # and the lam block of N hold exactly this sum
    if config is BcConfig.MULTI:
        m = tag_boundaries(build_coupled_mesh(floating_domain(2, 2), 0), config)
    else:
        m = iface_mesh(2, config=config)
    mu, K = 3.0, 0.2
    params = PhysParams(mu, K, 0.5)
    lo, hi = LAYOUTS[config].endpoints
    want = ((1.0 / mu) * fractional_matrix(build_interface_basis(m, lo), -0.5)
            + K * fractional_matrix(build_interface_basis(m, hi), 0.5))
    lam = build_layout(m).field_slice("lam")
    for got in (interface_operator(m, params),
                assemble_riesz(m, params)[lam, lam].toarray()):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_parameter_scaling():
    # the two terms scale independently in 1/mu and K
    m = iface_mesh(1)
    S1 = interface_operator(m, PhysParams(1.0, 1.0, 0.5))
    Sa = interface_operator(m, PhysParams(10.0, 1.0, 0.5))
    Sb = interface_operator(m, PhysParams(1.0, 7.0, 0.5))
    basis = build_interface_basis(m, "free")
    neg = fractional_matrix(basis, -0.5)
    pos = fractional_matrix(basis, 0.5)
    assert np.allclose(S1, neg + pos, atol=1e-13)
    assert np.allclose(Sa, 0.1 * neg + pos, atol=1e-13)
    assert np.allclose(Sb, neg + 7.0 * pos, atol=1e-13)
