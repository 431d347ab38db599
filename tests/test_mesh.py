"""Mesh construction, boundary tagging, interface chains, serialization."""

import collections
import json

import numpy as np
import pytest

from sdlab.mesh import (
    BcConfig,
    ConfigurationError,
    DomainSpec,
    build_coupled_mesh,
    interface_chains,
    load_mesh,
    save_mesh,
    side_by_side_domain,
    stacked_domain,
    tag_boundaries,
)
from sdlab.cli import floating_domain

import oracles


def tag_counts(mesh):
    return dict(
        collections.Counter(
            t for t in mesh.facet_tags if t not in ("", "interface")
        )
    )


def cell_areas(mesh):
    v = mesh.vertices[mesh.cells]
    return 0.5 * np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )


def test_coarsest_stack_counts(unit_stack):
    m = unit_stack
    assert len(m.cells) == 4
    assert len(m.vertices) == 6
    assert len(m.facets) == 9
    assert m.spacing == 1.0
    assert abs(m.h - np.sqrt(2.0)) < 1e-15


def test_refined_counts_euler():
    m = build_coupled_mesh(stacked_domain(1), 1)
    assert len(m.cells) == 16
    assert len(m.vertices) == 15
    # V - E + C = 1 for a triangulated disk
    assert len(m.vertices) - len(m.facets) + len(m.cells) == 1
    assert m.spacing == 0.5


def test_cell_areas_and_subdomains(stack4):
    areas = cell_areas(stack4)
    assert np.allclose(areas, stack4.spacing**2 / 2.0)
    assert abs(areas.sum() - 2.0) < 1e-13
    # each subdomain covers one unit square
    for sub in (0, 1):
        assert abs(areas[stack4.cell_subdomain == sub].sum() - 1.0) < 1e-13


def test_diagonal_direction(unit_stack):
    # squares are split along the lower-left to upper-right diagonal
    m = unit_stack
    found = False
    for cell in m.cells:
        pts = {tuple(m.vertices[v]) for v in cell}
        if (0.0, 0.0) in pts and (1.0, 1.0) in pts:
            found = True
    assert found


def test_facet_cells_ordering(stack4):
    fc = stack4.facet_cells
    interior = fc[:, 1] >= 0
    assert (fc[interior, 0] < fc[interior, 1]).all()
    assert (fc[~interior, 1] == -1).all()


def test_interface_facets_and_length():
    for nref in (0, 1):
        m = build_coupled_mesh(stacked_domain(4), nref)
        iface = np.concatenate([c.facets for c in interface_chains(m)])
        assert len(iface) == 4 * 2**nref
        pts = m.vertices[m.facets[iface]]
        lengths = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
        assert abs(lengths.sum() - 1.0) < 1e-13
        assert all(m.facet_tags[f] == "interface" for f in iface)
        # interface sits on y = 1
        assert np.allclose(pts[..., 1], 1.0)


def test_tag_tables_stacked():
    expect = {
        "NN": {"stokes_natural": 8, "stokes_essential": 4,
               "darcy_natural": 8, "darcy_essential": 4},
        "EE": {"stokes_essential": 12, "darcy_essential": 12},
        "NEstar": {"stokes_natural": 8, "stokes_essential": 4,
                   "darcy_natural": 4, "darcy_essential": 8},
        "ENstar": {"stokes_natural": 4, "stokes_essential": 8,
                   "darcy_natural": 8, "darcy_essential": 4},
        "NE": {"stokes_natural": 8, "stokes_essential": 4,
               "darcy_essential": 12},
        "EN": {"stokes_essential": 12, "darcy_natural": 8,
               "darcy_essential": 4},
    }
    for cfg, counts in expect.items():
        m = build_coupled_mesh(stacked_domain(4), 0)
        tag_boundaries(m, BcConfig(cfg))
        assert tag_counts(m) == counts, cfg
        assert m.config is BcConfig(cfg)


def test_tag_tables_side_by_side(side4):
    # tags depend on which edge is shared, not on the axis orientation
    tag_boundaries(side4, BcConfig.EN)
    assert tag_counts(side4) == {
        "stokes_essential": 12, "darcy_natural": 8, "darcy_essential": 4
    }


def test_retagging_overwrites(stack4):
    tag_boundaries(stack4, BcConfig.EE)
    tag_boundaries(stack4, BcConfig.NN)
    assert tag_counts(stack4) == {
        "stokes_natural": 8, "stokes_essential": 4,
        "darcy_natural": 8, "darcy_essential": 4,
    }


def test_chain_stacked_orientation(stack4):
    chains = interface_chains(stack4)
    assert len(chains) == 1
    ch = chains[0]
    assert not ch.closed
    assert len(ch.facets) == 4
    # free-flow region is below, so the interface normal points up
    assert np.allclose(ch.normals, [0.0, 1.0])
    # consecutive facets share a vertex
    for a, b in zip(ch.facets[:-1], ch.facets[1:]):
        assert set(stack4.facets[a]) & set(stack4.facets[b])


def test_chain_side_by_side_orientation(side4):
    ch = interface_chains(side4)[0]
    # free-flow region is on the left, normal points right
    assert np.allclose(ch.normals, [1.0, 0.0])


def test_floating_inclusion_chain():
    m = build_coupled_mesh(floating_domain(1, 4), 0)
    tag_boundaries(m, BcConfig.MULTI)
    chains = interface_chains(m)
    assert len(chains) == 1
    ch = chains[0]
    assert ch.closed
    assert len(ch.facets) == 16
    # normals point from the free-flow side into the inclusion
    mids = m.facet_midpoints(ch.facets)
    center = np.array([1.5, 1.5])
    inward = ((center - mids) * ch.normals).sum(axis=1)
    assert (inward > 0).all()
    assert tag_counts(m) == {"inflow": 12, "outflow": 12, "wall": 24}


def test_two_inclusions_components():
    m = build_coupled_mesh(floating_domain(2, 2), 0)
    tag_boundaries(m, BcConfig.MULTI)
    chains = interface_chains(m)
    assert len(chains) == 2
    assert sorted(ch.component for ch in chains) == [0, 1]
    assert all(ch.closed and len(ch.facets) == 8 for ch in chains)
    assert m.cell_component.max() == 1


def test_save_load_round_trip(tmp_path, stack4):
    tag_boundaries(stack4, BcConfig.NE)
    path = tmp_path / "mesh.json"
    save_mesh(stack4, path)
    m2 = load_mesh(path)
    assert np.array_equal(m2.vertices, stack4.vertices)
    assert np.array_equal(m2.cells, stack4.cells)
    assert np.array_equal(m2.facets, stack4.facets)
    assert np.array_equal(m2.facet_cells, stack4.facet_cells)
    assert list(m2.facet_tags) == list(stack4.facet_tags)
    assert np.array_equal(m2.cell_subdomain, stack4.cell_subdomain)
    assert m2.config is BcConfig.NE
    assert m2.spacing == stack4.spacing
    c1, c2 = interface_chains(stack4)[0], interface_chains(m2)[0]
    assert np.array_equal(c1.facets, c2.facets)
    assert np.array_equal(c1.normals, c2.normals)
    # the loaded mesh tags every layout as the original does
    for config in BcConfig:
        if config is not BcConfig.MULTI:
            tag_boundaries(stack4, config)
            tag_boundaries(m2, config)
            assert list(m2.facet_tags) == list(stack4.facet_tags)


@pytest.mark.parametrize("config", [BcConfig.NE, BcConfig.MULTI],
                         ids=lambda c: c.value)
def test_load_rejects_reversed_stored_chains(tmp_path, config):
    # load_mesh derives the chains as a fresh mesh does; a file whose
    # stored chains run the other way disagrees with them
    m = build_coupled_mesh(floating_domain(2, 2) if config is BcConfig.MULTI
                           else stacked_domain(4), 0)
    tag_boundaries(m, config)
    path = tmp_path / "mesh.json"
    save_mesh(m, path)
    doc = json.loads(path.read_text())
    for chain in doc["interface"]:
        chain["facets"].reverse()
        chain["normals"].reverse()
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="interface chains"):
        load_mesh(path)


def test_load_rejects_tampered_spacing(tmp_path, stack4):
    # h and the boundary tags follow from the spacing, so a file whose
    # spacing disagrees with its domain and nref is rejected
    tag_boundaries(stack4, BcConfig.NN)
    path = tmp_path / "mesh.json"
    save_mesh(stack4, path)
    doc = json.loads(path.read_text())
    doc["spacing"] *= 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="spacing"):
        load_mesh(path)


def test_refinement_nests_tags():
    # tagging commutes with refinement: same counts scale with 2^nref
    m = build_coupled_mesh(stacked_domain(2), 2)
    tag_boundaries(m, BcConfig.EN)
    assert tag_counts(m) == {
        "stokes_essential": 24, "darcy_natural": 16, "darcy_essential": 8
    }
    assert sum(len(c.facets) for c in interface_chains(m)) == 8


def test_bad_domains_raise():
    with pytest.raises(ConfigurationError):
        build_coupled_mesh(DomainSpec((0, 0, 1, 1), ((0, 1, 1, 1.7),), 2), 0)
    with pytest.raises(ConfigurationError):
        build_coupled_mesh(DomainSpec((0, 0, 1, 1), ((0, 1, 1, 1),), 2), 0)
    with pytest.raises(ConfigurationError):
        build_coupled_mesh(DomainSpec((0, 0, 1, 1), (), 2), 0)
    with pytest.raises(ConfigurationError):
        build_coupled_mesh(DomainSpec((0, 0, 1, 1), ((0, 1, 1, 2),), 0), 0)
    # detached porous rectangle
    with pytest.raises(ConfigurationError):
        build_coupled_mesh(DomainSpec((0, 0, 1, 1), ((0, 2, 1, 3),), 2), 0)
    # overlapping porous rectangles
    with pytest.raises(ConfigurationError):
        build_coupled_mesh(
            DomainSpec((0, 0, 3, 3), ((1, 1, 2, 2), (1.5, 1, 2.5, 2)), 2), 0
        )
    # the refinement level is a non-negative integer
    for nref in (-1, 1.5):
        with pytest.raises(ConfigurationError):
            build_coupled_mesh(stacked_domain(2), nref)


def test_bad_configs_raise(stack4):
    with pytest.raises(ConfigurationError):
        tag_boundaries(stack4, BcConfig.MULTI)
    m = build_coupled_mesh(floating_domain(1, 2), 0)
    with pytest.raises(ConfigurationError):
        tag_boundaries(m, BcConfig.NN)
    # inclusion touching the outer boundary is rejected at build time
    with pytest.raises(ConfigurationError):
        build_coupled_mesh(DomainSpec((0, 0, 3, 3), ((1, 0, 2, 1),), 2), 0)


REFERENCE_DOMAINS = {
    "stacked": stacked_domain(),
    "side": side_by_side_domain(),
    "stokes_right": DomainSpec((1.0, 0.0, 2.0, 1.0), ((0.0, 0.0, 1.0, 1.0),), 4),
    "darcy_below": DomainSpec((0.0, 1.0, 1.0, 2.0), ((0.0, 0.0, 1.0, 1.0),), 4),
    "floating": floating_domain(3),
}


@pytest.mark.parametrize("nref", [0, 1, 2])
@pytest.mark.parametrize("name", REFERENCE_DOMAINS)
def test_mesh_matches_loop_reference(name, nref):
    domain = REFERENCE_DOMAINS[name]
    m, ref = build_coupled_mesh(domain, nref), oracles.reference_mesh(domain, nref)
    oracles.assert_same_tables(m, ref)
    assert m.spacing == ref.spacing
    configs = ([BcConfig.MULTI] if name == "floating"
               else [c for c in BcConfig if c is not BcConfig.MULTI])
    for config in configs:
        tag_boundaries(m, config)
        oracles.reference_tag_boundaries(ref, config)
        oracles.assert_same_tables(m, ref)
        assert oracles.same_chains(interface_chains(m),
                                   oracles.reference_interface_chains(ref))
