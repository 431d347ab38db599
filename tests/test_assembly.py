"""Block operator, Riesz map and rhs against an independent plain-loop oracle,
plus structural identities the discretization must satisfy."""

import collections
import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from sdlab import assembly, frac_interface
from sdlab.assembly import (
    LoadData,
    PhysParams,
    apply_essential,
    assemble_operator,
    assemble_rhs,
    assemble_riesz,
    assemble_system,
    build_layout,
)
from sdlab.cli import channel_loads, floating_domain
from sdlab.elements import affine_maps
from sdlab.mesh import (
    LAYOUTS,
    STOKES_NATURAL_TAGS,
    TAG_DARCY_ESSENTIAL,
    TAG_DARCY_NATURAL,
    BcConfig,
    build_coupled_mesh,
    side_by_side_domain,
    stacked_domain,
    tag_boundaries,
)
from sdlab.minres import minres_solve
from sdlab.mms import ExactSolution, compute_errors
from sdlab.precond import (DeflatedPreconditioner, build_deflation,
                           build_preconditioner)
from sdlab.spectrum import generalized_eigs

import oracles


PARAM_SETS = [
    PhysParams(mu=1.0, K=1.0, alpha_bjs=0.0),
    PhysParams(mu=3.0, K=0.2, alpha_bjs=0.7),
]


def coupled(domain, nref, config, jitter=0.0):
    """A tagged mesh and its layout.  With `jitter`, every vertex off the
    outer boundary and the interface first moves by up to jitter * spacing
    in each coordinate, so that the cells' Jacobians are general.  A lattice
    cell's Jacobian has equal diagonal entries and a power-of-two scale, so
    a swap of those entries, or products rounded in another order, would
    not show on it."""
    m = build_coupled_mesh(domain, nref)
    if jitter:
        cells = m.facet_cells
        outer = cells[:, 1] < 0
        sub = m.cell_subdomain[cells]
        fixed = np.unique(m.facets[outer | (sub[:, 0] != sub[:, 1])])
        free = np.setdiff1d(np.arange(len(m.vertices)), fixed)
        assert len(free)
        shift = np.random.default_rng(5).uniform(-1.0, 1.0, (len(free), 2))
        m.vertices[free] += jitter * m.spacing * shift
        _, _, det = affine_maps(m.cell_coords())
        assert det.min() > 0.0                  # still counterclockwise
    tag_boundaries(m, config)
    return m, build_layout(m)


OPERATOR_ORACLE_CASES = [
    pytest.param(domain, config, (0, 1), params, 0.0, id=f"{name}-{pid}")
    for name, domain, config in (("stacked", stacked_domain(1), BcConfig.NE),
                                 ("side", side_by_side_domain(1), BcConfig.EE))
    for pid, params in zip(("unit", "mixed"), PARAM_SETS)
] + [
    # the one interface whose normal turns along it, so a facet paired with
    # another facet's normal shows here
    pytest.param(floating_domain(1, n0=1), BcConfig.MULTI, (0,), PARAM_SETS[1],
                 0.0, id="floating-mixed"),
    # nref 1 is the first with a vertex inside each subdomain
    pytest.param(stacked_domain(1), BcConfig.NE, (1,), PARAM_SETS[1], 0.2,
                 id="stacked-mixed-jittered"),
]


@pytest.mark.parametrize("domain,config,nrefs,params,jitter",
                         OPERATOR_ORACLE_CASES)
def test_operator_matches_oracle(domain, config, nrefs, params, jitter):
    for nref in nrefs:
        m, lay = coupled(domain, nref, config, jitter)
        A = assemble_operator(m, params).toarray()
        A_ref = oracles.oracle_operator(m, lay, params)
        scale = np.abs(A_ref).max()
        assert np.abs(A - A_ref).max() <= 1e-12 * scale


def test_oracle_default_rule_is_exact():
    # the oracles' default rule integrates their degree-4 integrands
    # exactly, so a 10-point rule moves nothing beyond roundoff; the
    # jittered cells have general Jacobians
    m, lay = coupled(stacked_domain(1), 1, BcConfig.NE, 0.2)
    params = PARAM_SETS[1]
    for oracle, args in ((oracles.oracle_operator, (m, lay, params)),
                         (oracles.oracle_riesz, (m, lay, params))):
        fine = oracle(*args, nquad=10)
        default = oracle(*args)
        assert np.abs(default - fine).max() <= 1e-13 * np.abs(fine).max()


def test_operator_exactly_symmetric(stack4):
    tag_boundaries(stack4, BcConfig.NN)
    params = PhysParams(mu=3.0, K=0.5, alpha_bjs=0.5)
    A = assemble_operator(stack4, params)
    assert abs(A - A.T).max() == 0.0


@pytest.mark.parametrize("params", PARAM_SETS, ids=["unit", "mixed"])
def test_riesz_matches_oracle(params):
    # the oracle's multiplier block is its own: the facet Laplacian by a
    # loop over the chains, its endpoint table, scipy's fractional powers;
    # checked on every layout, as each has its own endpoint conditions
    for config in BcConfig:
        domain = (floating_domain(2, n0=2) if config is BcConfig.MULTI
                  else stacked_domain())
        m, lay = coupled(domain, 1, config)
        s = lay.field_slice("lam")
        block = assemble_riesz(m, params)[s, s].toarray()
        ref = oracles.oracle_multiplier_block(m, lay, params)
        assert np.abs(block - ref).max() <= 1e-12 * np.abs(ref).max()

    m, lay = coupled(stacked_domain(1), 1, BcConfig.NE)
    N = assemble_riesz(m, params).toarray()
    N_ref = oracles.oracle_riesz(m, lay, params)
    scale = np.abs(N_ref).max()
    assert np.abs(N - N_ref).max() <= 1e-12 * scale
    assert np.abs(N - N.T).max() == 0.0
    # positive semidefinite before elimination (rigid modes allowed),
    # strictly definite once the essential velocities are pinned
    w = np.linalg.eigvalsh(N_ref)
    assert w.min() >= -1e-12 * scale
    from sdlab.assembly import essential_dofs

    Ne, _ = apply_essential(sp.csr_matrix(N), None, essential_dofs(m, lay))
    we = np.linalg.eigvalsh(Ne.toarray())
    assert we.min() > 1e-8


def test_constant_pressure_null_vector_ee():
    # with both exterior velocities constrained, the constant
    # (0, 0, p_S=1, p_D=1, lam=1) state is annihilated by the
    # eliminated operator (divergence theorem on each subdomain)
    m = build_coupled_mesh(stacked_domain(4), 0)
    tag_boundaries(m, BcConfig.EE)
    params = PhysParams(mu=3.0, K=1.0, alpha_bjs=0.5)
    system = assemble_system(m, params)
    lay = system.layout
    z = np.zeros(lay.total_dofs)
    z[lay.field_slice("p_S")] = 1.0
    z[lay.field_slice("p_D")] = 1.0
    z[lay.field_slice("lam")] = 1.0
    assert np.abs(system.A @ z).max() <= 1e-12


def test_mass_row_scaling():
    # unit mass source integrates to cell areas on the porous pressure rows
    m, lay = coupled(stacked_domain(4), 0, BcConfig.NE)
    loads = LoadData(g_D=lambda p: np.ones(len(p)))
    b = assemble_rhs(m, loads)
    area = m.spacing**2 / 2.0
    rows = b[lay.field_slice("p_D")]
    assert np.allclose(rows, -area, atol=1e-14)
    assert np.abs(np.delete(b, lay.field_slice("p_D"))).max() == 0.0


def test_flux_defect_row_scaling():
    # unit interface flux defect integrates to facet lengths on the lam rows
    m, lay = coupled(stacked_domain(4), 0, BcConfig.NE)
    loads = LoadData(g_gamma=lambda p, n: np.ones(len(p)))
    b = assemble_rhs(m, loads)
    rows = b[lay.field_slice("lam")]
    assert np.allclose(rows, 0.25, atol=1e-14)


def test_interface_coupling_entries():
    # porous-side coupling column carries +/- the facet length
    m, lay = coupled(stacked_domain(4), 0, BcConfig.NE)
    params = PhysParams(mu=1.0, K=1.0, alpha_bjs=0.5)
    A = assemble_operator(m, params).tocsc()
    for j, f in enumerate(lay.interface_facets):
        col = A[:, lay.offsets["lam"] + j]
        block = col.toarray()[lay.field_slice("u_D")].ravel()
        nz = block[block != 0]
        assert len(nz) == 1
        assert abs(abs(nz[0]) - 0.25) < 1e-14


@pytest.mark.parametrize("params,jitter",
                         [(PARAM_SETS[0], 0.0), (PARAM_SETS[1], 0.0),
                          (PARAM_SETS[1], 0.2)],
                         ids=["unit", "mixed", "mixed-jittered"])
def test_rhs_matches_oracle(params, jitter):
    # fine enough that quadrature truncation sits below the gate
    m, lay = coupled(stacked_domain(4), 1, BcConfig.NE, jitter)
    exact = ExactSolution(mu=params.mu, K=params.K, alpha_bjs=params.alpha_bjs)
    loads = exact.loads()
    b = assemble_rhs(m, loads)
    b_ref = oracles.oracle_rhs(m, lay, params, loads)
    scale = np.abs(b_ref).max()
    assert np.abs(b - b_ref).max() <= 1e-10 * scale


EDGE_CONFIGS = [c for c in BcConfig if c is not BcConfig.MULTI]
FACET_LOAD_CASES = (
    [(name, config, 2) for name in ("stacked", "side") for config in EDGE_CONFIGS]
    + [("channel", BcConfig.MULTI, 1), ("floating", BcConfig.MULTI, 2)])


@pytest.mark.parametrize("name,config,nref", FACET_LOAD_CASES,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_facet_rhs_matches_oracle(name, config, nref):
    # interface, traction and porous-pressure loads on every layout; the
    # volume loads, which dominate the rhs, are left out.  The inclusions
    # turn the interface normal; "channel" is the floating command's load.
    params = PhysParams(mu=3.0, K=0.2, alpha_bjs=0.7)
    exact = ExactSolution(mu=params.mu, K=params.K, alpha_bjs=params.alpha_bjs)
    loads = dataclasses.replace(exact.loads(), f_S=None, g_D=None)
    if name == "channel":
        loads = channel_loads()
    elif name == "floating":
        loads.stokes_traction = channel_loads().stokes_traction
    domain = {"stacked": stacked_domain(), "side": side_by_side_domain(),
              "channel": floating_domain(2), "floating": floating_domain(2)}
    m, lay = coupled(domain[name], nref, config)
    b = assemble_rhs(m, loads)
    b_ref = oracles.oracle_rhs(m, lay, params, loads)
    scale = np.abs(b_ref).max()
    assert scale > 0
    assert np.abs(b - b_ref).max() <= 1e-10 * scale


def counted_loads(loads):
    """`loads` with each callable counting its calls in the returned Counter."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for f in dataclasses.fields(loads):
        fn = getattr(loads, f.name)
        if fn is not None:
            setattr(loads, f.name, counted(f.name, fn))
    return loads, calls


@pytest.mark.parametrize("config", list(BcConfig), ids=lambda c: c.value)
def test_load_callables_called_once_per_assembly(config):
    # each callable sees all its points at once, however fine the mesh;
    # the traction once per natural tag
    seen = []
    for nref in (0, 2):
        domain = (floating_domain(2, 2) if config is BcConfig.MULTI
                  else stacked_domain(2))
        m = tag_boundaries(build_coupled_mesh(domain, nref), config)
        loads, calls = counted_loads(ExactSolution().loads())
        assemble_system(m, PhysParams(), loads)
        seen.append(dict(calls))
    tags = set(m.facet_tags)
    expect = {"f_S": 1, "g_D": 1, "g_gamma": 1, "t_n": 1, "t_t": 1,
              "u_S_essential": 1,
              "stokes_traction": len(tags & STOKES_NATURAL_TAGS),
              "darcy_pressure": int(TAG_DARCY_NATURAL in tags),
              "u_D_essential": int(TAG_DARCY_ESSENTIAL in tags)}
    assert seen[0] == seen[1] == {k: v for k, v in expect.items() if v}


def test_apply_essential_structure(rng):
    n = 12
    M = rng.random((n, n))
    A = sp.csr_matrix(M + M.T + n * np.eye(n))
    b = rng.random(n)
    dofs = np.array([2, 5, 9])
    vals = np.array([1.5, -0.5, 2.0])
    x_full = np.linalg.solve(A.toarray(), b.copy())
    A2, b2 = apply_essential(A.copy(), b.copy(), dofs, vals)
    D = A2.toarray()
    for d, v in zip(dofs, vals):
        row = np.zeros(n)
        row[d] = 1.0
        assert np.array_equal(D[d], row)
        assert np.array_equal(D[:, d], row)
        assert b2[d] == v
    assert np.abs(D - D.T).max() == 0.0
    # constrained solve reproduces the pinned values
    x = np.linalg.solve(D, b2)
    assert np.allclose(x[dofs], vals)


@pytest.mark.parametrize("dofs,values", [
    (np.empty(0, dtype=int), np.empty(0)),
    # dof 5 is repeated: its last value wins
    (np.array([5, 2, 5, 9]), np.array([1.5, -0.5, 3.0, 2.0])),
    # no values: zeros
    (np.array([9, 2]), None),
], ids=["no-dofs", "repeated-dof", "no-values"])
def test_apply_essential_matches_dense_elimination(rng, dofs, values):
    n = 12
    M = rng.random((n, n))
    A = sp.csr_matrix(M @ M.T + n * np.eye(n))
    b = rng.random(n)
    x = np.zeros(n)
    if values is not None:
        x[dofs] = values
    at = np.unique(dofs)
    D = A.toarray()
    want = b - D[:, at] @ x[at]
    want[at] = x[at]
    D[at, :] = 0.0
    D[:, at] = 0.0
    D[at, at] = 1.0
    A2, b2 = apply_essential(A, b, dofs, values)
    assert np.array_equal(A2.toarray(), D)
    assert np.abs(b2 - want).max() <= 1e-13
    assert np.array_equal(b2[at], x[at])
    if not len(dofs):
        assert np.array_equal(b2, b)


def test_assemble_system_facade():
    m = build_coupled_mesh(stacked_domain(4), 0)
    tag_boundaries(m, BcConfig.NN)
    params = PhysParams(mu=3.0, K=1.0, alpha_bjs=0.5)
    exact = ExactSolution(mu=3.0, K=1.0, alpha_bjs=0.5)
    system = assemble_system(m, params, exact.loads())
    n = system.layout.total_dofs
    assert system.A.shape == (n, n)
    assert system.N.shape == (n, n)
    assert system.b.shape == (n,)
    assert len(system.essential) == len(system.essential_vals)
    # elimination left unit rows at the essential dofs
    D = system.A.tocsr()
    for d, v in zip(system.essential, system.essential_vals):
        row = D[d].toarray().ravel()
        assert row[d] == 1.0 and np.count_nonzero(row) == 1
        assert system.b[d] == v
    assert abs(system.A - system.A.T).max() == 0.0
    assert abs(system.N - system.N.T).max() == 0.0


# every layout, with mu*K at both ends of the swept range
CACHE_CONFIGS = list(BcConfig)
CACHE_PARAMS = [(1e-3, 1e-3), (1e3, 1e3), (3.0, 0.2)]


def tagged(config):
    domain = (floating_domain(2, 2) if config is BcConfig.MULTI
              else stacked_domain(4))
    m = build_coupled_mesh(domain, 0)
    tag_boundaries(m, config)
    return m


def mms_system(m, mu, K):
    exact = ExactSolution(mu=mu, K=K, alpha_bjs=0.5)
    return assemble_system(m, exact.params(), exact.loads())


def assert_same_system(got, want):
    """Equal patterns, entries within a relative 1e-14 of each other."""
    def close(a, b):
        assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b))

    for name in ("A", "N"):
        a, b = getattr(got, name).tocsr(), getattr(want, name).tocsr()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        close(a.data, b.data)
    close(got.b, want.b)
    r = np.linspace(-1.0, 2.0, got.layout.sizes["lam"])
    close(build_preconditioner(got).solve_block("lam", r),
          build_preconditioner(want).solve_block("lam", r))
    assert np.array_equal(got.essential, want.essential)


@pytest.mark.parametrize("config", CACHE_CONFIGS, ids=lambda c: c.value)
def test_reused_mesh_matches_fresh_mesh(config):
    # the per-mesh pieces built at one (mu, K) serve every other one
    m = tagged(config)
    mms_system(m, 1.0, 1.0)
    for mu, K in CACHE_PARAMS:
        assert_same_system(mms_system(m, mu, K),
                           mms_system(tagged(config), mu, K))


@pytest.mark.parametrize("config", CACHE_CONFIGS, ids=lambda c: c.value)
def test_eliminated_system_matches_dense_elimination(config):
    # the per-mesh index maps give the dense elimination of the full
    # operator and Riesz map, keeping every stored entry (explicit zeros
    # too) off the essential rows and columns
    m = tagged(config)
    params = PhysParams(mu=3.0, K=0.2, alpha_bjs=0.5)
    system = assemble_system(m, params)
    layout, dofs = system.layout, system.essential
    assert len(dofs)
    full = {"A": assemble_operator(m, params),
            "N": assemble_riesz(m, params)}
    free = np.ones(layout.total_dofs, dtype=bool)
    free[dofs] = False
    for name, F in full.items():
        D = F.toarray()
        D[dofs, :] = 0.0
        D[:, dofs] = 0.0
        D[dofs, dofs] = 1.0
        M = getattr(system, name)
        assert np.array_equal(M.toarray(), D)
        C = F.tocoo()
        assert M.nnz == np.count_nonzero(free[C.row] & free[C.col]) + len(dofs)


def arrays_of(x):
    """Every array in x, a dataclass, tuple or array, and in its fields."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for v in x:
            yield from arrays_of(v)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from arrays_of(getattr(x, f.name))


@pytest.mark.parametrize("config", [BcConfig.EN, BcConfig.MULTI],
                         ids=lambda c: c.value)
def test_shared_per_mesh_arrays_are_read_only(config):
    # every BlockSystem on the mesh shares the essential dofs, the layout
    # and the sampling points: a write would corrupt every later system
    m = tagged(config)
    system = mms_system(m, 1.0, 1.0)
    with pytest.raises(ValueError):
        system.essential[0] = 0
    shared = [*arrays_of(system.layout), *arrays_of(assembly._sampling(m))]
    assert len(shared) > 20
    for a in shared:
        with pytest.raises(ValueError):
            a[...] = a


@pytest.mark.parametrize("config", [BcConfig.EN, BcConfig.MULTI],
                         ids=lambda c: c.value)
def test_load_free_system_builds_no_sampling_record(config):
    # with no loads, or a LoadData whose every load is None, nothing is
    # sampled, so the per-mesh sampling record is not built, and the system
    # is that of a mesh that holds the record
    params = PhysParams(mu=3.0, K=0.2, alpha_bjs=0.5)
    for loads in (None, LoadData()):
        m = tagged(config)
        got = assemble_system(m, params, loads)
        assert "sampling" not in m._derived
        ref = tagged(config)
        assembly._sampling(ref)
        want = assemble_system(ref, params, loads)
        for name in ("A", "N"):
            a, b = getattr(got, name), getattr(want, name)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr))
        for name in ("b", "essential", "essential_vals"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert len(got.essential_vals) and not got.essential_vals.any()


def test_retagged_mesh_matches_fresh_mesh():
    # tags decide the essential dofs and the interface endpoints, so
    # re-tagging must drop the pieces of the previous layout
    m = build_coupled_mesh(stacked_domain(4), 0)
    for config in [c for c in BcConfig if c is not BcConfig.MULTI]:
        tag_boundaries(m, config)
        got = mms_system(m, 1e-3, 1e3)
        assert_same_system(got, mms_system(tagged(config), 1e-3, 1e3))


def test_velocity_block_assembled_once_per_tagged_mesh(monkeypatch):
    calls = []
    real = assembly._velocity_entries

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(assembly, "_velocity_entries", counted)
    m = tagged(BcConfig.NE)
    for mu, K in CACHE_PARAMS:
        mms_system(m, mu, K)
    assert len(calls) == 1
    tag_boundaries(m, BcConfig.EN)
    for mu, K in CACHE_PARAMS:
        mms_system(m, mu, K)
    assert len(calls) == 2


@pytest.mark.parametrize("config", CACHE_CONFIGS, ids=lambda c: c.value)
def test_multiplier_bases_built_once_per_tagged_mesh(config, monkeypatch):
    # the multiplier block's two powers are per-mesh pieces of N: a system
    # needs no separate multiplier matrix, and each endpoint condition's
    # facet Laplacian (and its eigensolve) is built once per tagged mesh,
    # not once per (mu, K)
    bases = []
    real = frac_interface.facet_laplacian

    def counted(mesh, endpoint):
        bases.append(endpoint)
        return real(mesh, endpoint)

    def apart(*args):
        raise AssertionError("the multiplier block was formed apart from N")

    monkeypatch.setattr(frac_interface, "facet_laplacian", counted)
    monkeypatch.setattr(frac_interface, "interface_operator", apart)
    endpoints = set(LAYOUTS[config].endpoints)
    assert len(endpoints) == (2 if config in (BcConfig.NN, BcConfig.EE) else 1)
    m = tagged(config)
    for tags in (1, 2):
        for mu, K in CACHE_PARAMS:
            mms_system(m, mu, K)
        assert sorted(bases) == sorted(tags * list(endpoints))
        tag_boundaries(m, config)


def test_mesh_freed_without_cyclic_collector():
    # the per-mesh pieces must not reach back to their mesh, or a dropped
    # mesh would keep them alive until the cyclic collector runs
    gc.disable()
    try:
        m = tagged(BcConfig.NE)
        mms_system(m, 1.0, 1.0)
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_mesh_freed_after_a_full_solve():
    # nor may anything that a solve keeps on the mesh or hands back: the
    # layout, the factors, the deflation, the load and error geometry
    gc.disable()
    try:
        m = tagged(BcConfig.NE)
        exact = ExactSolution(mu=3.0, K=0.2)
        system = assemble_system(m, exact.params(), exact.loads())
        # every system on the mesh shares its one layout
        assert system.layout is assembly._affine(m).layout
        B = DeflatedPreconditioner(build_preconditioner(system),
                                   build_deflation(system))
        log = minres_solve(system.A, system.b, B, maxit=50)
        compute_errors(system, log.x, exact)
        ref = weakref.ref(m)
        del m, system, B, log
        assert ref() is None
    finally:
        gc.enable()


# the pieces of A and of N, as assembly._weights states the two sums
A_PIECES = ("visc", "slip", "mass", "saddle")
N_PIECES = ("visc", "slip", "mass", "divdiv", "p1", "p0", "lam_low",
            "lam_high")
# every layout at nref 0-2, and the inclusion layout with one and three
# inclusions at nref 0-1
PATTERN_CASES = (
    [pytest.param(stacked_domain(4), c, nref, id=f"{c.value}-{nref}")
     for c in BcConfig if c is not BcConfig.MULTI for nref in (0, 1, 2)]
    + [pytest.param(floating_domain(m, 4), BcConfig.MULTI, nref,
                    id=f"multi{m}-{nref}")
       for m in (1, 3) for nref in (0, 1)])


def assert_bitwise(got, want):
    # bytes, not values: np.array_equal takes -0.0 for +0.0
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        assert_bitwise(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("domain,config,nref", PATTERN_CASES)
def test_patterns_match_sort_and_search(domain, config, nref):
    # the patterns joined from the block layout equal the sorted union of
    # the pieces' entries, array for array, and so do the systems on them
    m = build_coupled_mesh(domain, nref)
    tag_boundaries(m, config)
    exact = ExactSolution(mu=3.0, K=0.2, alpha_bjs=0.7)
    params = exact.params()
    system = assemble_system(m, params, exact.loads())
    aff = assembly._affine(m)
    lay, dofs = system.layout, system.essential
    pieces = assembly._pieces(m, lay)
    w = assembly._weights(params)
    for name, names in (("A", A_PIECES), ("N", N_PIECES)):
        ref = oracles.ReferencePattern({k: pieces[k] for k in names}, dofs)
        pattern = assembly._full_patterns(m)[name]
        assert_bitwise(pattern.indptr, ref.indptr)
        assert_bitwise(pattern.indices, ref.indices)
        assert pattern.pos.keys() == ref.pos.keys()
        for k in ref.pos:
            assert_bitwise(pattern.pos[k], ref.pos[k])
        e = getattr(aff, name)
        for got, want in ((e.indptr, ref.elim_indptr),
                          (e.indices, ref.elim_indices),
                          (e.units, ref.elim_units)):
            assert_bitwise(got, want)
        assert e.pos.keys() == ref.elim_pos.keys()
        for k in ref.elim_pos:
            assert_bitwise(e.pos[k], ref.elim_pos[k])
        # the row pieces and the units write each slot exactly once
        written = np.concatenate([e.pos[k] for k in e.rows] + [e.units])
        assert np.array_equal(np.sort(written), np.arange(len(e.indices)))
        full = ref.matrix({k: w[k] * pieces[k].data for k in names})
        assert_same_csr(getattr(system, name), ref.eliminated(full))
        if name == "A":
            assert_bitwise(aff.lift.indptr, ref.lift_indptr)
            assert_bitwise(aff.lift.indices, ref.lift_indices)
            assert aff.lift.pos.keys() == ref.lift_pos.keys()
            for k in ref.lift_pos:
                assert_bitwise(aff.lift.pos[k], ref.lift_pos[k])
            x = np.zeros(lay.total_dofs)
            x[dofs] = system.essential_vals
            b = assemble_rhs(m, exact.loads()) - full @ x
            b[dofs] = system.essential_vals
            assert_bitwise(system.b, b)


# every layout at nref 0-1, at mu*K at both ends of the swept range and
# in the middle
ONE_PASS_CASES = [
    pytest.param(c, nref, mu, K, id=f"{c.value}-{nref}-mu{mu:g}-K{K:g}")
    for c in LAYOUTS for nref in (0, 1)
    for mu, K in ((3.0, 0.2), (1e-8, 1e8), (1e4, 1e-2))]


def reference_sums(m, weights):
    """A and N at `weights` by the independent route of
    `oracles.ReferencePattern`: the sum of fresh `_pieces` on the sorted
    union of their entries, then its elimination; "full A" and "full N"
    are the sums before it."""
    lay = assembly._affine(m).layout
    dofs = assembly.essential_dofs(m, lay)
    pieces = assembly._pieces(m, lay)
    out = {}
    for name, names in (("A", A_PIECES), ("N", N_PIECES)):
        ref = oracles.ReferencePattern({k: pieces[k] for k in names}, dofs)
        full = ref.matrix({k: weights[k] * pieces[k].data for k in names})
        out[name] = ref.eliminated(full)
        out["full " + name] = full
    return out


@pytest.mark.parametrize("config,nref,mu,K", ONE_PASS_CASES)
def test_one_pass_system_matches_eliminated_full_operator(config, nref, mu,
                                                          K):
    # A and N written straight into their eliminated patterns, and b lifted
    # by A's entries in the essential columns, are byte for byte the sums
    # of the pieces on their sorted union, eliminated, explicit zeros and
    # the signs of zeros included
    domain = (floating_domain(2, 2) if config is BcConfig.MULTI
              else stacked_domain(4))
    m = tag_boundaries(build_coupled_mesh(domain, nref), config)
    exact = ExactSolution(mu=mu, K=K, alpha_bjs=0.5)
    params, loads = exact.params(), exact.loads()
    system = assemble_system(m, params, loads)
    dofs, vals = system.essential, system.essential_vals
    ref = reference_sums(m, assembly._weights(params))
    x = np.zeros(system.layout.total_dofs)
    x[dofs] = vals
    b = assemble_rhs(m, loads) - ref["full A"] @ x
    b[dofs] = vals
    assert_same_csr(system.A, ref["A"])
    assert_same_csr(system.N, ref["N"])
    assert_bitwise(system.b, b)


def test_full_system_route_matches_one_pass_system():
    # the full-system route, kept for callers outside the solve path:
    # apply_essential on the full operator gives the one-pass system
    m = tagged(BcConfig.EN)
    exact = ExactSolution(mu=3.0, K=0.2, alpha_bjs=0.5)
    params, loads = exact.params(), exact.loads()
    system = assemble_system(m, params, loads)
    dofs, vals = system.essential, system.essential_vals
    A, b = apply_essential(assemble_operator(m, params),
                           assemble_rhs(m, loads), dofs, vals)
    N, _ = apply_essential(assemble_riesz(m, params), None, dofs)
    assert_same_csr(system.A, A)
    assert_same_csr(system.N, N)
    assert_bitwise(system.b, b)


# the store's bytes at EN nref 2 (stacked, n0 4): the eliminated patterns
# with the kept entries' values and slots, and the lift (1,877,576 with
# every piece entry's value and slot kept, 3,335,568 with the full patterns
# kept too); array bytes do not depend on the host
STORE_BYTES_EN_NREF2 = 1_769_272


@pytest.mark.parametrize("config", [BcConfig.EN, BcConfig.NE],
                         ids=lambda c: c.value)
def test_solve_path_builds_no_full_pattern(config, monkeypatch):
    # a solve, its deflation and its spectrum read only the eliminated
    # patterns, so the full ones are never built for them
    def full(*args):
        raise AssertionError("the solve path built a full pattern")

    monkeypatch.setattr(assembly, "_full_patterns", full)
    m = tag_boundaries(build_coupled_mesh(stacked_domain(4), 1), config)
    exact = ExactSolution(mu=1e-2, K=1e2, alpha_bjs=0.5)
    system = assemble_system(m, exact.params(), exact.loads())
    B = build_preconditioner(system)
    d = build_deflation(system)
    spec = generalized_eigs(system.A, system.N, len(system.essential),
                            deflation=d)
    log = minres_solve(system.A, system.b, DeflatedPreconditioner(B, d),
                       reduction=1e-10, maxit=300,
                       eigenvalues=spec.eigenvalues, diagnostic=True)
    assert log.reason == "converged"


def test_store_holds_no_full_pattern():
    m = tag_boundaries(build_coupled_mesh(stacked_domain(4), 2), BcConfig.EN)
    assert assembly.store_bytes(m) <= STORE_BYTES_EN_NREF2
    aff = assembly._affine(m)
    for pattern in (aff.A, aff.N):
        assert len(pattern.units) == len(aff.essential)


def test_pattern_rejects_piece_out_of_block_order():
    # a saddle entry in a porous-velocity row whose column precedes that
    # row's diagonal block breaks the joined row's order
    m = tagged(BcConfig.EN)
    lay = build_layout(m)
    pieces = assembly._pieces(m, lay)
    saddle = pieces["saddle"].tolil()
    saddle[lay.offsets["u_D"], lay.offsets["u_S"]] = 1.0
    segments = {"visc": pieces["visc"], "mass": pieces["mass"],
                "saddle": saddle.tocsr()}
    with pytest.raises(ValueError, match="not strictly increasing"):
        assembly._Pattern.of(segments, segments, ())


def test_pattern_rejects_piece_off_its_host():
    m = tagged(BcConfig.EN)
    lay = build_layout(m)
    pieces = assembly._pieces(m, lay)
    slip = pieces["slip"].tolil()
    slip[0, lay.offsets["u_D"] - 1] = 1.0
    with pytest.raises(ValueError, match="outside its host"):
        assembly._places(pieces["visc"], slip.tocsr())


def test_places_of_an_empty_piece():
    # a piece with no entries (such as slip's entries in the essential
    # columns where no slip entry lies in one) has no places, whatever
    # its host's pattern
    m = tagged(BcConfig.EN)
    visc = assembly._pieces(m, build_layout(m))["visc"]
    empty = sp.csr_matrix(visc.shape)
    got = assembly._places(visc, empty)
    assert got.dtype == visc.indptr.dtype
    assert got.shape == (0,)


def test_riesz_pattern_must_be_block_diagonal():
    m = tagged(BcConfig.EN)
    lay = build_layout(m)
    pieces = assembly._pieces(m, lay)
    coupled_N = assembly._Pattern.of(pieces, ("visc", "mass", "saddle"), ())
    with pytest.raises(ValueError, match="not block diagonal"):
        assembly._block_diagonal(coupled_N, lay)
