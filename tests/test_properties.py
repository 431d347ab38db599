"""Property tests over random lattice domains: the mesh, its tags, the
interface order and the dof layout equal their loop references, the
operator and Riesz map equal the quadrature oracle, the dof counts equal their
closed-form lattice counts, the assembled operator and Riesz map are
exactly symmetric, the pure-essential operator annihilates the constant
pressures, a mesh's per-mesh caches reproduce a fresh mesh's system at
every (mu, K), and the pencil spectrum equals its dense reference and
depends on (mu, K) only through mu*K.

Domains are drawn in lattice units of 1/n0: a free-flow rectangle with one
porous rectangle on any of its four sides, or with one to three porous
inclusions of random size and position.  Examples are derandomized, so
every run checks the same cases."""

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sdlab.assembly import (PhysParams, assemble_operator, assemble_riesz,
                            assemble_system)
from sdlab.mesh import (BcConfig, DomainSpec, build_coupled_mesh,
                        interface_chains, tag_boundaries)
from sdlab.mms import ExactSolution
from sdlab.precond import build_preconditioner
from sdlab.spaces import build_layout
from sdlab.spectrum import generalized_eigs

EDGE_CONFIGS = [c for c in BcConfig if c is not BcConfig.MULTI]
PROPERTIES = settings(derandomize=True, max_examples=40, deadline=None)


def _domain(n0, stokes, porous):
    return DomainSpec(tuple(v / n0 for v in stokes),
                      tuple(tuple(v / n0 for v in r) for r in porous), n0)


@st.composite
def edge_sharing(draw):
    """A free-flow rectangle and one porous rectangle on a whole side."""
    n0 = draw(st.integers(1, 2))
    w, h, depth = (draw(st.integers(1, 3)) for _ in range(3))
    x, y = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    porous = {"right": (x + w, y, x + w + depth, y + h),
              "left": (x - depth, y, x, y + h),
              "top": (x, y + h, x + w, y + h + depth),
              "bottom": (x, y - depth, x + w, y)}[
        draw(st.sampled_from(["right", "left", "top", "bottom"]))]
    return (_domain(n0, (x, y, x + w, y + h), [porous]),
            draw(st.sampled_from(EDGE_CONFIGS)))


@st.composite
def inclusions(draw):
    """A free-flow rectangle with one to three porous inclusions in a row,
    each of random size and height, none touching another or the border."""
    n0 = draw(st.integers(1, 2))
    porous, right, top = [], 0, 0
    for _ in range(draw(st.integers(1, 3))):
        x0, y0 = right + draw(st.integers(1, 2)), draw(st.integers(1, 2))
        right = x0 + draw(st.integers(1, 3))
        porous.append((x0, y0, right, y0 + draw(st.integers(1, 3))))
        top = max(top, porous[-1][3])
    stokes = (0, 0, right + draw(st.integers(1, 2)),
              top + draw(st.integers(1, 2)))
    return _domain(n0, stokes, porous), BcConfig.MULTI


def _check(case, nref):
    domain, config = case
    m = tag_boundaries(build_coupled_mesh(domain, nref), config)
    oracles.assert_same_tables(m, oracles.reference_tag_boundaries(
        oracles.reference_mesh(domain, nref), config))

    assert oracles.same_chains(interface_chains(m),
                               oracles.reference_interface_chains(m))

    lay, ref = build_layout(m), oracles.reference_layout(m)
    for name in oracles.LAYOUT_TABLES:
        assert np.array_equal(getattr(lay, name), getattr(ref, name)), name
    assert lay.sizes == ref.sizes and lay.offsets == ref.offsets

    params = PhysParams(mu=3.0, K=0.2, alpha_bjs=0.7)
    system = assemble_system(m, params)
    for M in (system.A, system.N):
        assert abs(M - M.T).max() == 0.0

    if nref == 0:       # the oracle loops over cells and points in Python
        for got, want in (
                (assemble_operator(m, params),
                 oracles.oracle_operator(m, lay, params)),
                (assemble_riesz(m, params),
                 oracles.oracle_riesz(m, lay, params))):
            scale = np.abs(want).max()
            assert np.abs(got.toarray() - want).max() <= 1e-12 * scale


@PROPERTIES
@given(edge_sharing(), st.integers(0, 1))
def test_edge_sharing_domains_match_references(case, nref):
    _check(case, nref)


@PROPERTIES
@given(inclusions(), st.integers(0, 1))
def test_inclusion_domains_match_references(case, nref):
    _check(case, nref)


def _squares(domain, nref):
    """The free-flow and porous rectangles of an edge-sharing domain in
    squares of the mesh at nref."""
    k = domain.base_divisions * 2 ** nref
    return [tuple(round(v * k) for v in r)
            for r in (domain.stokes_rect, domain.darcy_rects[0])]


@PROPERTIES
@given(edge_sharing(), st.integers(0, 2))
def test_edge_sharing_dof_counts_are_the_lattice_counts(case, nref):
    # a W x H rectangle of squares, each cut in two triangles, has
    # (W+1)(H+1) vertices and W(H+1) + H(W+1) + WH edges
    domain, config = case
    (sx0, sy0, sx1, sy1), (dx0, dy0, dx1, dy1) = _squares(domain, nref)
    W, H, Wd, Hd = sx1 - sx0, sy1 - sy0, dx1 - dx0, dy1 - dy0
    nv = (W + 1) * (H + 1)
    ne = W * (H + 1) + H * (W + 1) + W * H
    # the rectangles touch along one side: one overlap is 0, the other
    # is that side
    shared = (min(sx1, dx1) - max(sx0, dx0)) + (min(sy1, dy1) - max(sy0, dy0))
    lay = build_layout(tag_boundaries(build_coupled_mesh(domain, nref), config))
    assert lay.sizes == {"u_S": 2 * (nv + ne),
                         "u_D": Wd * (Hd + 1) + Hd * (Wd + 1) + Wd * Hd,
                         "p_S": nv, "p_D": 2 * Wd * Hd, "lam": shared}


@PROPERTIES
@given(edge_sharing(), st.integers(0, 1))
def test_ee_operator_annihilates_constant_pressures(case, nref):
    # criterion 7(v) on any edge-sharing domain: with every boundary
    # essential, z = 1 on p_S, p_D and lam is a null vector of A
    domain, _ = case
    m = tag_boundaries(build_coupled_mesh(domain, nref), BcConfig.EE)
    system = assemble_system(m, PhysParams(mu=3.0, K=0.2, alpha_bjs=0.7))
    z = np.zeros(system.layout.total_dofs)
    for name in ("p_S", "p_D", "lam"):
        z[system.layout.field_slice(name)] = 1.0
    assert np.abs(system.A @ z).max() <= 1e-12


def _system(m, mu, K):
    exact = ExactSolution(mu=mu, K=K, alpha_bjs=0.5)
    system = assemble_system(m, exact.params(), exact.loads())
    return system, build_preconditioner(system)


@settings(derandomize=True, max_examples=16, deadline=None)
@given(st.one_of(edge_sharing(), inclusions()), st.integers(0, 1),
       st.sampled_from([(1e-3, 1e3), (1e3, 0.5), (0.2, 1e-3)]))
def test_reused_mesh_assembles_like_a_fresh_mesh(case, nref, other):
    # pieces, load geometry, elimination maps and Riesz factors are built
    # at the first (mu, K) and serve the others: back at the first, the
    # system is a fresh mesh's bit for bit and so is, to roundoff, B
    domain, config = case
    m = tag_boundaries(build_coupled_mesh(domain, nref), config)
    for mu, K in ((3.0, 0.2), other, (3.0, 0.2)):
        system, B = _system(m, mu, K)
    fresh, B0 = _system(
        tag_boundaries(build_coupled_mesh(domain, nref), config), 3.0, 0.2)
    for name in ("A", "N"):
        got, want = getattr(system, name), getattr(fresh, name)
        for arr in ("indptr", "indices", "data"):
            assert getattr(got, arr).tobytes() == getattr(want, arr).tobytes()
    assert system.b.tobytes() == fresh.b.tobytes()
    r = np.random.default_rng(nref).standard_normal(len(system.b))
    z, z0 = B(r), B0(r)
    assert np.abs(z - z0).max() <= 1e-14 * np.abs(z0).max()


@settings(derandomize=True, max_examples=16, deadline=None)
@given(st.one_of(edge_sharing(), inclusions()),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_spectrum_matches_dense_and_depends_on_mu_times_K(case, muK):
    domain, config = case
    m = tag_boundaries(build_coupled_mesh(domain, 0), config)
    spectra = []
    for mu in (1.0, 1e-2):
        s = assemble_system(m, PhysParams(mu=mu, K=muK / mu, alpha_bjs=0.5))
        spectra.append(generalized_eigs(s.A, s.N).eigenvalues)
    ref = sla.eigh(s.A.toarray(), s.N.toarray(), eigvals_only=True)
    tol = 1e-12 * np.abs(ref).max()
    assert np.abs(spectra[1] - ref).max() <= tol
    assert np.abs(spectra[0] - spectra[1]).max() <= tol
