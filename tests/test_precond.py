"""Block-diagonal Riesz-map preconditioner and near-kernel deflation."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdlab import precond
from sdlab.assembly import SCALED_BLOCKS, PhysParams, assemble_system
from sdlab.mesh import (BcConfig, ConfigurationError, build_coupled_mesh,
                        stacked_domain, tag_boundaries)
from sdlab.precond import (
    BAND_ROWS,
    BandCholesky,
    DeflatedPreconditioner,
    _riesz_block,
    build_deflation,
    build_preconditioner,
    deflation_vectors,
    deflation_weight,
    factor,
    symmetric_lu,
)
from sdlab.cli import floating_domain
from sdlab.spaces import FIELDS


def make_system(config=BcConfig.NE, nref=0, n0=2, mu=3.0, K=0.2, alpha=0.5,
                domain=None):
    dom = stacked_domain(n0) if domain is None else domain
    m = build_coupled_mesh(dom, nref)
    tag_boundaries(m, config)
    return assemble_system(m, PhysParams(mu=mu, K=K, alpha_bjs=alpha))


@pytest.mark.parametrize("config", [BcConfig.NE, BcConfig.NN, BcConfig.EE])
def test_apply_inverts_riesz(config, rng):
    system = make_system(config=config)
    B = build_preconditioner(system)
    x = rng.standard_normal(system.layout.total_dofs)
    r = system.N @ x
    z = B(r)
    assert np.abs(z - x).max() <= 1e-10 * np.abs(x).max()


def test_apply_parameter_extremes(rng):
    for mu, K in [(1e-4, 1e4), (1e4, 1e-4), (1e-6, 1.0)]:
        system = make_system(mu=mu, K=K)
        B = build_preconditioner(system)
        x = rng.standard_normal(system.layout.total_dofs)
        assert np.abs(B(system.N @ x) - x).max() <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("config,mu,K", [
    (BcConfig.NE, 3.0, 0.2), (BcConfig.EN, 1e-4, 1e4), (BcConfig.NN, 1e4, 1e-4)])
def test_block_factors_match_dense_solve(config, mu, K, rng):
    # each block solve of the preconditioner (scaled or not) matches a
    # dense solve of its block of N, and a symmetric-mode factor of each
    # block (these all take the band) has no more fill than a
    # default-ordering splu of the same block
    system = make_system(config=config, nref=2, mu=mu, K=K)
    B = build_preconditioner(system)
    assert {name: kind for name, (kind, _) in B.factors.items()} == {
        "u_S": "band", "u_D": "band", "p_S": "band"}
    for name in B._solvers:
        s = system.layout.field_slice(name)
        blk = system.N[s, :][:, s]
        r = rng.standard_normal(blk.shape[0])
        expect = np.linalg.solve(blk.toarray(), r)
        got = B.solve_block(name, r)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        lu = symmetric_lu(blk)
        default = spla.splu(blk.tocsc())
        assert lu.L.nnz + lu.U.nnz <= default.L.nnz + default.U.nnz
    assert B.lu_fill == sum(lu.L.nnz + lu.U.nnz for lu in B._solvers.values())


def test_lu_fill_is_counted_once():
    # counting builds SuperLU's L and U as scipy matrices; the runs that
    # share a preconditioner read the first count, not the factors again
    B = build_preconditioner(make_system())
    fill = B.lu_fill
    B._solvers = {}
    assert B.lu_fill == fill > 0


def tagged(config, nref=1):
    domain = (floating_domain(2, 2) if config is BcConfig.MULTI
              else stacked_domain(2))
    return tag_boundaries(build_coupled_mesh(domain, nref), config)


@pytest.mark.parametrize("config", list(BcConfig), ids=lambda c: c.value)
def test_riesz_blocks_read_off_rows(config):
    # N is exactly symmetric, in values and pattern, and block diagonal, so
    # the CSR arrays of a block's rows are the block's CSC arrays
    system = assemble_system(tagged(config), PhysParams(mu=3.0, K=0.2))
    N, lay = system.N, system.layout
    assert (N - N.T).nnz == 0
    T = N.T.tocsr()
    assert np.array_equal(T.indptr, N.indptr)
    assert np.array_equal(T.indices, N.indices)
    for name in FIELDS:
        s = lay.field_slice(name)
        got, want = _riesz_block(N, lay, name), N[s, :][:, s]
        assert got.format == "csc" and got.shape == want.shape
        assert got.nnz == want.nnz == N[s, :].nnz
        assert (got - want).nnz == 0


@pytest.mark.parametrize("config", [BcConfig.NE, BcConfig.EN, BcConfig.MULTI],
                         ids=lambda c: c.value)
def test_scaled_factors_solve_their_blocks(config, rng):
    # the unit-weight factors are built once per mesh, at whichever (mu, K)
    # comes first, and solve the scaled block of every other (mu, K)
    m = tagged(config)
    first = build_preconditioner(assemble_system(m, PhysParams(mu=1.0, K=1.0)))
    for mu, K in [(1e-6, 1.0), (1.0, 1e-6), (1e6, 1.0), (1.0, 1e6)]:
        system = assemble_system(m, PhysParams(mu=mu, K=K))
        B = build_preconditioner(system)
        for name in SCALED_BLOCKS:
            assert B._solvers[name] is first._solvers[name]
            s = system.layout.field_slice(name)
            r = rng.standard_normal(s.stop - s.start)
            expect = np.linalg.solve(system.N[s, :][:, s].toarray(), r)
            got = B.solve_block(name, r)
            assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("nref", [0, 1, 2])
@pytest.mark.parametrize("config", list(BcConfig), ids=lambda c: c.value)
def test_band_and_lu_solve_each_block(config, nref, rng):
    # band Cholesky and symmetric LU of every sparse block, and the
    # preconditioner's solve of it, agree with a dense solve
    system = assemble_system(tagged(config, nref), PhysParams(mu=3.0, K=0.2))
    B = build_preconditioner(system)
    for name in ("u_S", *SCALED_BLOCKS):
        blk = _riesz_block(system.N, system.layout, name)
        r = rng.standard_normal(blk.shape[0])
        expect = np.linalg.solve(blk.toarray(), r)
        for got in (BandCholesky(blk, name).solve(r),
                    symmetric_lu(blk).solve(r), B.solve_block(name, r)):
            assert (np.linalg.norm(got - expect)
                    <= 1e-12 * np.linalg.norm(expect))


def grid_laplacian(n, width=64):
    """The 5-point Laplacian of n grid points numbered row by row, `width`
    to a row, shifted to be diagonally dominant: sparse SPD."""
    return sp.diags([-1.0, -1.0, 4.5, -1.0, -1.0], [-width, -1, 0, 1, width],
                    shape=(n, n), format="csc")


def test_band_rows_decides_before_any_ordering(monkeypatch, rng):
    # a block of BAND_ROWS rows takes the band, one more row symmetric LU,
    # decided by the row count before any ordering is computed
    small, large = grid_laplacian(BAND_ROWS), grid_laplacian(BAND_ROWS + 1)
    orderings = []
    real = precond.reverse_cuthill_mckee
    monkeypatch.setattr(precond, "reverse_cuthill_mckee",
                        lambda M, **kw: orderings.append(M) or real(M, **kw))
    band = factor(small, "small")
    assert isinstance(band, BandCholesky) and len(orderings) == 1
    lu = factor(large, "large")
    assert not isinstance(lu, BandCholesky) and len(orderings) == 1
    assert band._plan.width <= 64
    for f, M in ((band, small), (lu, large)):
        r = rng.standard_normal(M.shape[0])
        expect = spla.spsolve(M, r)
        got = f.solve(r)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_band_factor_refuses_indefinite_block():
    M = sp.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.4, 0.0],
                                [0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="u_D is not positive definite"):
        factor(M, "u_D")


def shuffled(rng, M):
    """M with its rows and columns in one random order."""
    q = rng.permutation(M.shape[0])
    return M.tocsr()[q][:, q].tocsc()


def random_band(rng, n, offsets=(1, 4)):
    """A random symmetric matrix with the given off-diagonals, diagonally
    dominant so SPD."""
    off = [rng.uniform(-1.0, 1.0, n - k) for k in offsets]
    d = np.full(n, 0.5)
    for k, v in zip(offsets, off):
        d[k:] += np.abs(v)
        d[:-k] += np.abs(v)
    return sp.diags([*off, d, *off], [*offsets, 0, *(-k for k in offsets)],
                    format="csc")


HALF_SOLVE_CASES = {
    "banded": lambda rng: shuffled(rng, random_band(rng, 40)),
    "two components": lambda rng: shuffled(rng, sp.block_diag(
        [random_band(rng, 25), random_band(rng, 15, (2,))])),
    "diagonal": lambda rng: sp.diags(rng.uniform(0.5, 2.0, 20), format="csc"),
    "dense": lambda rng: shuffled(rng, random_band(rng, 12, range(1, 12))),
}


@pytest.mark.parametrize("case", HALF_SOLVE_CASES)
def test_half_solve_is_a_half_factor_solve(case, rng):
    # H = L_u^{-1} X for some L_u L_u' = M, so H'H = X' M^{-1} X whatever
    # the row order of H; the byte count is the band's and its plan's
    M = HALF_SOLVE_CASES[case](rng)
    n = M.shape[0]
    f = BandCholesky(M, "M")
    X = rng.standard_normal((n, 3))
    H = f.half_solve(X)
    G = sla.solve_triangular(sla.cholesky(M.toarray(), lower=True), X,
                             lower=True)
    expect = G.T @ G
    assert np.linalg.norm(H.T @ H - expect) <= 1e-12 * np.linalg.norm(expect)
    plan = f._plan
    assert plan.width == {"diagonal": 0, "dense": n - 1}.get(case, plan.width)
    assert f.nbytes == 8 * (plan.width + 1) * n + sum(
        a.nbytes for a in (plan.order, plan.src, plan.dst))


def test_band_factor_names_the_block_that_is_not_positive_definite(rng):
    # the second of two components is indefinite
    bad = random_band(rng, 10)
    bad[3, 3] = -1.0
    M = shuffled(rng, sp.block_diag([random_band(rng, 20), bad]))
    with pytest.raises(ValueError, match="N_uu is not positive definite"):
        BandCholesky(M, "N_uu")


def test_u_s_band_plan_built_once_per_mesh(monkeypatch, rng):
    # the u_S order and band slots depend on its pattern alone: one plan
    # per mesh serves every (mu, K), and so do the unit factors' two
    plans = []
    real = precond._BandPlan.of
    monkeypatch.setattr(precond._BandPlan, "of",
                        classmethod(lambda cls, M: plans.append(M) or real(M)))
    m = tagged(BcConfig.EN)
    first = None
    for e in range(-6, 7):
        system = assemble_system(m, PhysParams(mu=10.0 ** e, K=1.0))
        B = build_preconditioner(system)
        first = first or B._solvers["u_S"]._plan
        assert B._solvers["u_S"]._plan is first
        blk = _riesz_block(system.N, system.layout, "u_S")
        r = rng.standard_normal(blk.shape[0])
        expect = np.linalg.solve(blk.toarray(), r)
        got = B.solve_block("u_S", r)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
    assert len(plans) == 1 + len(SCALED_BLOCKS)


def test_preconditioner_is_spd_form(rng):
    # (r1, B r2) defines a symmetric positive form
    system = make_system()
    B = build_preconditioner(system)
    for _ in range(5):
        r1 = rng.standard_normal(system.layout.total_dofs)
        r2 = rng.standard_normal(system.layout.total_dofs)
        assert abs(r1 @ B(r2) - r2 @ B(r1)) < 1e-10 * (
            np.abs(r1).max() * np.abs(r2).max()
        )
        assert r1 @ B(r1) > 0


def test_deflation_vectors_ne_en():
    system = make_system(config=BcConfig.NE)
    lay = system.layout
    W = deflation_vectors(system.mesh)
    assert W.shape == (lay.total_dofs, 1)
    w = W[:, 0]
    assert (w[lay.field_slice("p_D")] == 1.0).all()
    assert (w[lay.field_slice("lam")] == 1.0).all()
    assert (w[lay.field_slice("u_S")] == 0.0).all()
    assert (w[lay.field_slice("p_S")] == 0.0).all()
    assert (w[lay.field_slice("u_D")] == 0.0).all()

    system = make_system(config=BcConfig.EN)
    lay = system.layout
    W = deflation_vectors(system.mesh)
    assert W.shape == (lay.total_dofs, 1)
    w = W[:, 0]
    assert (w[lay.field_slice("p_S")] == 1.0).all()
    assert (w[lay.field_slice("lam")] == 1.0).all()
    assert (w[lay.field_slice("p_D")] == 0.0).all()
    assert (w[lay.field_slice("u_S")] == 0.0).all()
    assert (w[lay.field_slice("u_D")] == 0.0).all()


@pytest.mark.parametrize("config", list(BcConfig), ids=lambda c: c.value)
def test_deflation_vectors_exactly_where_gamma_defined(config):
    # one table decides both: a layout has indicator vectors exactly when
    # it has a deflation weight
    domain = floating_domain(2, 2) if config is BcConfig.MULTI else None
    system = make_system(config=config, domain=domain)
    W = deflation_vectors(system.mesh)
    try:
        gamma = deflation_weight(system.params, config)
    except ConfigurationError:
        gamma = None
    assert (W is None) == (gamma is None)
    assert (build_deflation(system) is None) == (gamma is None)


def test_deflation_vectors_multi_disjoint():
    system = make_system(config=BcConfig.MULTI, domain=floating_domain(2, 2))
    lay = system.layout
    W = deflation_vectors(system.mesh)
    assert W.shape[1] == 2
    # inclusion indicators cover disjoint dof sets
    assert np.abs(W[:, 0] * W[:, 1]).max() == 0.0
    for j in range(2):
        w = W[:, j]
        pd = w[lay.field_slice("p_D")]
        lam = w[lay.field_slice("lam")]
        assert pd.sum() == pd.astype(bool).sum() and pd.sum() > 0
        assert lam.sum() == 8
    # together they cover every porous pressure and multiplier dof
    s = W.sum(axis=1)
    assert (s[lay.field_slice("p_D")] == 1.0).all()
    assert (s[lay.field_slice("lam")] == 1.0).all()


def test_deflation_weight_scaling():
    # bitwise: gamma_mult times 1/(mu*K) on p_D, times mu*K on p_S
    mu, K = 10.0, 0.3
    p = PhysParams(mu=mu, K=K, alpha_bjs=0.5)
    for gamma_mult in (1.0, 0.3, 7e5):
        for config in (BcConfig.NE, BcConfig.MULTI):
            assert (deflation_weight(p, config, gamma_mult)
                    == gamma_mult * (1.0 / (mu * K)))
        assert (deflation_weight(p, BcConfig.EN, gamma_mult)
                == gamma_mult * (mu * K))
    for config in (BcConfig.NN, BcConfig.EE, BcConfig.NESTAR,
                   BcConfig.ENSTAR):
        with pytest.raises(ConfigurationError, match="no near-kernel"):
            deflation_weight(p, config)


def test_build_deflation_matches_dense(rng):
    system = make_system(config=BcConfig.NE, mu=1.0, K=1e-4)
    defl = build_deflation(system)
    assert defl.W.shape[1] == 1
    B = build_preconditioner(system)
    BW = DeflatedPreconditioner(B, defl)
    W, gamma = defl.W, defl.gamma
    E = W.T @ (system.N @ W) * gamma
    r = rng.standard_normal(system.layout.total_dofs)
    expect = B(r) + (W @ np.linalg.solve(E, W.T @ r))
    got = BW(r)
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_deflated_form_symmetric_positive(rng):
    system = make_system(config=BcConfig.NE, mu=1.0, K=1e-3)
    BW = DeflatedPreconditioner(build_preconditioner(system),
                                build_deflation(system))
    n = system.layout.total_dofs
    for _ in range(5):
        r1 = rng.standard_normal(n)
        r2 = rng.standard_normal(n)
        s = np.abs(r1).max() * np.abs(r2).max()
        assert abs(r1 @ BW(r2) - r2 @ BW(r1)) < 1e-9 * s
        assert r1 @ BW(r1) > 0


def test_build_deflation_none_for_uniform_configs():
    system = make_system(config=BcConfig.NN)
    assert build_deflation(system) is None


def test_gamma_mult_scales_correction(rng):
    system = make_system(config=BcConfig.NE, mu=1.0, K=1e-3)
    d1 = build_deflation(system, gamma_mult=1.0)
    d4 = build_deflation(system, gamma_mult=4.0)
    r = rng.standard_normal(system.layout.total_dofs)
    # E scales linearly with gamma, so the correction scales by 1/4
    assert np.allclose(d4.correction(r), d1.correction(r) / 4.0, atol=1e-12)


def test_deflation_correction_equals_cho_solve(rng):
    system = make_system(config=BcConfig.MULTI, domain=floating_domain(2, n0=1))
    defl = build_deflation(system)
    assert defl.W.shape[1] == 2
    r = rng.standard_normal(system.layout.total_dofs)
    expect = defl.W @ sla.cho_solve(defl.E, defl.W.T @ r)
    assert np.array_equal(defl.correction(r), expect)
