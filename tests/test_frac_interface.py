"""Fractional interface operator: facet Laplacian, the -1/2 and +1/2 powers
of the shifted Laplacian and their weighted sum, and the preconditioner's
inverse of it."""

import itertools

import numpy as np
import pytest

from sdlab.assembly import (PhysParams, assemble_riesz, assemble_system,
                            build_layout)
from sdlab.frac_interface import (facet_laplacian, fractional_pieces,
                                  interface_operator)
from sdlab.mesh import (LAYOUTS, BcConfig, build_coupled_mesh, stacked_domain,
                        tag_boundaries)
from sdlab.cli import floating_domain
from sdlab.precond import build_preconditioner

import oracles


def iface_mesh(nref, config=BcConfig.NE, n0=1):
    m = build_coupled_mesh(stacked_domain(n0), nref)
    tag_boundaries(m, config)
    return m


def min_eig(S):
    """Smallest eigenvalue of a symmetric matrix."""
    return np.linalg.eigvalsh(S).min()


def assert_close_rel(got, want, rtol):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


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
    # generalized eigenvalues of (L+M, M) are 1 and 9 with M-orthonormal
    # eigenvectors (1, 1) and (1, -1), so P(s) = M U diag(d**s) U' M is
    # ((1, 1) + 3**(2s) (1, -1)) / 4 in its first row
    m = iface_mesh(1)
    L, lengths = facet_laplacian(m, "free")
    assert np.allclose(L, [[2.0, -2.0], [-2.0, 2.0]], atol=1e-14)
    assert np.allclose(lengths, 0.5)
    pieces = fractional_pieces(m)
    assert np.allclose(pieces["lam_high"], [[1.0, -0.5], [-0.5, 1.0]],
                       atol=1e-12)
    assert np.allclose(pieces["lam_low"],
                       [[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]],
                       atol=1e-12)
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


def test_pieces_square_to_shifted_laplacian():
    # with U' M U = I and (L + M) U = M U diag(d): P(+1/2) M^-1 P(+1/2) is
    # L + M, and where both powers share the endpoint condition (free on
    # NE, zero on EN) P(-1/2) M^-1 P(+1/2) is P(0) = M; d >= 1 makes
    # P(+1/2) - M positive semidefinite
    for config, kind in ((BcConfig.NE, "free"), (BcConfig.EN, "zero")):
        m = iface_mesh(2, config=config, n0=2)
        L, w = facet_laplacian(m, kind)
        pieces = fractional_pieces(m)
        high_over_M = pieces["lam_high"] / w[:, None]
        assert np.abs(pieces["lam_high"] @ high_over_M
                      - (L + np.diag(w))).max() < 1e-10
        assert np.abs(pieces["lam_low"] @ high_over_M
                      - np.diag(w)).max() < 1e-12
        assert min_eig(pieces["lam_high"] - np.diag(w)) >= -1e-12


def test_zero_endpoints_raise_spectrum():
    # constraining the endpoints can only push the shifted Laplacian up:
    # P(+1/2) with zero endpoints (NN) minus P(+1/2) with free ones (EE) is
    # positive semidefinite on the same interface; free endpoints keep the
    # constant at d = 1 (P(+1/2) maps it to the facet lengths), zero ones
    # lift every d above 1
    m = iface_mesh(3, n0=1)
    zero = fractional_pieces(tag_boundaries(m, BcConfig.NN))["lam_high"]
    free = fractional_pieces(tag_boundaries(m, BcConfig.EE))["lam_high"]
    _, w = facet_laplacian(m, "free")
    assert min_eig(zero - free) >= -1e-10
    assert np.abs(free.sum(axis=1) - w).max() < 1e-12
    assert min_eig(zero - np.diag(w)) > 1e-6 * w.min()


def test_closed_loop_constant_mode():
    # an inclusion interface has no endpoints, so the constant survives as
    # the d = 1 mode: both powers map it to the facet lengths
    m = build_coupled_mesh(floating_domain(1, 2), 0)
    tag_boundaries(m, BcConfig.MULTI)
    _, w = facet_laplacian(m, "free")
    for piece in fractional_pieces(m).values():
        assert np.abs(piece @ np.ones(len(w)) - w).max() < 1e-12


def test_pieces_exactly_symmetric():
    m = iface_mesh(2)
    for piece in fractional_pieces(m).values():
        S = 2.0 * piece
        assert np.abs(S - S.T).max() == 0.0


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
    # each power with its own endpoint condition (NN and EE mix a free and
    # a zero one), weighted 1/mu and K: interface_operator and the lam
    # block of N hold exactly this sum, and each power agrees with the
    # oracle's fractional_matrix_power of its own facet Laplacian
    if config is BcConfig.MULTI:
        m = tag_boundaries(build_coupled_mesh(floating_domain(2, 2), 0), config)
    else:
        m = iface_mesh(2, config=config)
    mu, K = 3.0, 0.2
    params = PhysParams(mu, K, 0.5)
    pieces = fractional_pieces(m)
    want = (1.0 / mu) * pieces["lam_low"] + K * pieces["lam_high"]
    layout = build_layout(m)
    lo, hi = oracles.ORACLE_ENDPOINTS[config]
    for name, ep, power in (("lam_low", lo, -0.5), ("lam_high", hi, 0.5)):
        assert_close_rel(pieces[name], oracles.oracle_fractional_power(
            m, layout, ep, power), 1e-13)
    lam = layout.field_slice("lam")
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
    pieces = fractional_pieces(m)
    neg, pos = pieces["lam_low"], pieces["lam_high"]
    layout = build_layout(m)
    for got, power in ((neg, -0.5), (pos, 0.5)):
        assert_close_rel(got, oracles.oracle_fractional_power(
            m, layout, "free", power), 1e-13)
    assert np.allclose(S1, neg + pos, atol=1e-13)
    assert np.allclose(Sa, 0.1 * neg + pos, atol=1e-13)
    assert np.allclose(Sb, neg + 7.0 * pos, atol=1e-13)
