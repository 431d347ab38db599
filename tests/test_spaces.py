"""Degree-of-freedom layout: Taylor-Hood + lowest-order Raviart-Thomas + facet
multiplier, essential dof selection, boundary interpolation."""

import numpy as np
import pytest

from oracles import (LAYOUT_TABLES, reference_essential_dofs,
                     reference_essential_values, reference_layout)
from sdlab.assembly import _sampling, essential_values
from sdlab.cli import floating_domain
from sdlab.mesh import (TAG_DARCY_ESSENTIAL, BcConfig, build_coupled_mesh,
                        side_by_side_domain, stacked_domain, tag_boundaries)
from sdlab.mms import ExactSolution
from sdlab.spaces import (
    FIELDS,
    build_layout,
    essential_dofs,
    global_facet_normal,
)


def make_layout(n0=4, nref=0, config=BcConfig.NE):
    m = build_coupled_mesh(stacked_domain(n0), nref)
    tag_boundaries(m, config)
    return m, build_layout(m)


def test_coarsest_layout_sizes():
    m, lay = make_layout(n0=1)
    assert lay.sizes == {"u_S": 18, "u_D": 5, "p_S": 4, "p_D": 2, "lam": 1}
    assert lay.offsets == {"u_S": 0, "u_D": 18, "p_S": 23, "p_D": 27, "lam": 29}
    assert FIELDS == ("u_S", "u_D", "p_S", "p_D", "lam")
    # blocks are contiguous
    total = 0
    for f in FIELDS:
        assert lay.offsets[f] == total
        total += lay.sizes[f]
    assert total == 30


def test_layout_counts_scale():
    m, lay = make_layout(n0=4, nref=0)
    nv_s = len(lay.stokes_vertices)
    ne_s = len(lay.stokes_edges)
    assert lay.sizes["u_S"] == 2 * (nv_s + ne_s)
    assert lay.sizes["p_S"] == nv_s
    assert lay.sizes["u_D"] == len(lay.darcy_facets)
    assert lay.sizes["p_D"] == (m.cell_subdomain == 1).sum()
    assert lay.sizes["lam"] == len(lay.interface_facets)
    assert lay.sizes["lam"] == 4


def test_layout_deterministic():
    _, a = make_layout()
    _, b = make_layout()
    assert np.array_equal(a.stokes_vertices, b.stokes_vertices)
    assert np.array_equal(a.stokes_edges, b.stokes_edges)
    assert np.array_equal(a.darcy_facets, b.darcy_facets)
    assert np.array_equal(a.darcy_cell_facets, b.darcy_cell_facets)
    assert np.array_equal(a.darcy_cell_signs, b.darcy_cell_signs)


def layout_meshes(domain, nref):
    """Every edge-sharing layout on the stacked or side-by-side domain, or
    three floating inclusions with MultiInclusion."""
    if domain == "floating":
        pairs = [(floating_domain(3), BcConfig.MULTI)]
    else:
        dom = stacked_domain() if domain == "stacked" else side_by_side_domain()
        pairs = [(dom, c) for c in BcConfig if c is not BcConfig.MULTI]
    meshes = []
    for dom, config in pairs:
        m = build_coupled_mesh(dom, nref)
        tag_boundaries(m, config)
        meshes.append(m)
    return meshes


@pytest.mark.parametrize("domain", ["stacked", "side", "floating"])
@pytest.mark.parametrize("nref", [0, 1, 2])
def test_layout_matches_loop_reference(domain, nref):
    for m in layout_meshes(domain, nref):
        lay, ref = build_layout(m), reference_layout(m)
        for name in LAYOUT_TABLES:
            got, want = getattr(lay, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert lay.sizes == ref.sizes and lay.offsets == ref.offsets
        got, want = essential_dofs(m, lay), reference_essential_dofs(m, ref)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_darcy_cell_tables():
    # each Darcy cell references its three facets with a sign that makes the
    # facet dof an outward flux when positive along the global normal
    meshes = [m for nref in range(3) for domain in ("stacked", "floating")
              for m in layout_meshes(domain, nref)]
    for m in meshes:
        lay = build_layout(m)
        for row, cell in enumerate(lay.darcy_cells):
            centroid = m.vertices[m.cells[cell]].mean(axis=0)
            for le in range(3):
                gf = lay.darcy_facets[lay.darcy_cell_facets[row, le]]
                n = global_facet_normal(m, gf)
                mid = m.facet_midpoints([gf])[0]
                sign = 1.0 if np.dot(n, mid - centroid) > 0 else -1.0
                assert lay.darcy_cell_signs[row, le] == sign


def test_essential_dofs_nn():
    m, lay = make_layout(config=BcConfig.NN)
    dofs = np.asarray(essential_dofs(m, lay))
    u_s = dofs[dofs < lay.offsets["u_D"]]
    u_d = dofs[(dofs >= lay.offsets["u_D"]) & (dofs < lay.offsets["p_S"])]
    assert len(u_s) == 18 and len(u_d) == 4 and len(dofs) == 22
    assert len(np.unique(dofs)) == len(dofs)


def test_essential_dofs_ee():
    # every outer facet constrained: 12 facets each side
    m, lay = make_layout(config=BcConfig.EE)
    dofs = np.asarray(essential_dofs(m, lay))
    u_s = dofs[dofs < lay.offsets["u_D"]]
    u_d = dofs[(dofs >= lay.offsets["u_D"]) & (dofs < lay.offsets["p_S"])]
    # 12 boundary facets touch 13 vertices (incl. the two interface corner
    # vertices) and 12 midpoints on the free-flow side
    assert len(u_s) == 2 * 25
    assert len(u_d) == 12


def test_essential_values_nodal():
    # P2 boundary interpolation is exact for quadratic data
    m, lay = make_layout(config=BcConfig.NN)
    dofs = np.asarray(essential_dofs(m, lay))
    f = lambda p: np.stack([p[:, 0] ** 2, p[:, 0] * p[:, 1]], axis=-1)
    vals = essential_values(m, u_S=f, u_D=lambda p: 0 * p)
    pts = lay.scalar_dof_points(m)
    for d, v in zip(dofs, vals):
        if d >= lay.offsets["u_D"]:
            continue
        comp, node = divmod(d, lay.num_scalar)
        assert abs(v - f(pts[node][None])[0, comp]) < 1e-14


def test_essential_values_facet_mean_flux():
    # RT dof = mean normal flux; for linear fields the midpoint value is exact
    m, lay = make_layout(config=BcConfig.NN)
    dofs = np.asarray(essential_dofs(m, lay))
    g = lambda p: np.stack([p[:, 1], 2.0 * p[:, 0]], axis=-1)
    vals = essential_values(m, u_S=lambda p: 0 * p, u_D=g)
    for d, v in zip(dofs, vals):
        if d < lay.offsets["u_D"]:
            continue
        gf = lay.darcy_facets[d - lay.offsets["u_D"]]
        n = global_facet_normal(m, gf)
        mid = m.facet_midpoints([gf])[0]
        assert abs(v - np.dot(g(mid[None])[0], n)) < 1e-13


def test_flux_dofs_follow_the_flux_facets():
    # the flux rule is read off the essential u_D dofs: its facets are the
    # essentially tagged porous boundary facets, in the order of those dofs
    for m in layout_meshes("stacked", 1) + layout_meshes("side", 0):
        lay = build_layout(m)
        dofs = essential_dofs(m, lay)
        facets = _sampling(m).flux.facets
        tagged = np.nonzero(m.facet_tags == TAG_DARCY_ESSENTIAL)[0]
        assert np.array_equal(facets, tagged)
        assert np.array_equal(lay.flux_dof(facets),
                              dofs[dofs >= lay.offsets["u_D"]])


@pytest.mark.parametrize("nref", [0, 1])
@pytest.mark.parametrize("domain", ["stacked", "floating"])
def test_essential_values_match_loop_reference(domain, nref):
    # worst difference measured: 2.8e-16 of the largest |value| (EN, nref 1)
    exact = ExactSolution(mu=3.0, K=0.2)
    for m in layout_meshes(domain, nref):
        dofs, want = reference_essential_values(m, reference_layout(m),
                                                exact.u_S, exact.u_D)
        got = essential_values(m, exact.u_S, exact.u_D)
        assert np.array_equal(dofs, essential_dofs(m, build_layout(m)))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
