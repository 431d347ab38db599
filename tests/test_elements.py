"""Reference-element and quadrature checks on the unit triangle."""

import numpy as np
import pytest

from sdlab.elements import (
    LOCAL_EDGES,
    OPPOSITE_VERTEX,
    affine_maps,
    p1_basis,
    p1_grads,
    p2_basis,
    p2_grads,
    physical_grads,
    physical_points,
    segment_rule,
    triangle_rule,
)

from oracles import duffy_rule, segment_rule_1d


def monomial_integral(a, b):
    # exact integral of x^a y^b over the unit triangle
    from math import factorial

    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_triangle_rule_weight_sum():
    for deg in (1, 2, 4, 6, 8):
        pts, wts = triangle_rule(deg)
        assert abs(wts.sum() - 0.5) < 1e-14
        assert pts.min() >= 0 and (pts.sum(axis=1) <= 1 + 1e-14).all()


def test_triangle_rule_polynomial_exactness():
    for deg in (2, 4, 6, 8):
        pts, wts = triangle_rule(deg)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                val = (wts * pts[:, 0] ** a * pts[:, 1] ** b).sum()
                assert abs(val - monomial_integral(a, b)) < 1e-13


def test_triangle_rule_matches_duffy_oracle():
    pts, wts = triangle_rule(6)
    opts, owts = duffy_rule(8)

    def poly(p):
        return 1.0 + p[:, 0] ** 3 * p[:, 1] ** 2 - 2.0 * p[:, 1] ** 4

    assert abs((wts * poly(pts)).sum() - (owts * poly(opts)).sum()) < 1e-13


def test_segment_rule_exactness():
    for deg in (1, 3, 5):
        pts, wts = segment_rule(deg)
        for k in range(deg + 1):
            assert abs((wts * pts**k).sum() - 1.0 / (k + 1)) < 1e-14
    opts, owts = segment_rule_1d(4)
    pts, wts = segment_rule(5)
    f = lambda x: 1.0 - 4.0 * x**3 + 7.0 * x**5
    assert abs((wts * f(pts)).sum() - (owts * f(opts)).sum()) < 1e-14


@pytest.mark.parametrize("rule", [segment_rule, triangle_rule])
def test_rules_are_memoized_and_read_only(rule):
    # every caller shares one rule per degree, so none may change it
    pts, wts = rule(5)
    assert rule(5)[0] is pts and rule(5)[1] is wts
    for a in (pts, wts):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_p2_nodal_basis():
    # value 1 at own node, 0 at the other five
    nodes = np.array(
        [[0, 0], [1, 0], [0, 1], [0.5, 0], [0.5, 0.5], [0, 0.5]], dtype=float
    )
    vals = p2_basis(nodes)
    assert np.allclose(vals, np.eye(6), atol=1e-14)


def test_p2_partition_of_unity(rng):
    pts = rng.random((40, 2)) * 0.5
    vals = p2_basis(pts)
    assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-13)
    grads = p2_grads(pts)
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-12)


def test_p1_nodal_and_unity(rng):
    nodes = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    assert np.allclose(p1_basis(nodes), np.eye(3), atol=1e-15)
    pts = rng.random((10, 2)) * 0.5
    assert np.allclose(p1_basis(pts).sum(axis=0), 1.0, atol=1e-14)
    assert np.allclose(p1_grads().sum(axis=0), 0.0, atol=1e-15)
    assert p1_grads().shape == (3, 2)


def test_affine_map_and_physical_grads(rng):
    coords = np.array([[[0.2, 0.1], [1.3, 0.4], [0.5, 1.7]]])
    _, inv, det = affine_maps(coords)
    area = 0.5 * abs(det[0])
    v = coords[0]
    exact = 0.5 * abs(
        (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1])
        - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1])
    )
    assert abs(area - exact) < 1e-14

    # gradient of an affine function is mapped exactly
    pts = rng.random((5, 2)) * 0.4
    phys = physical_points(coords, pts)[0]
    g = physical_grads(inv, p1_grads()[:, None, :])[0]
    f = lambda x: 2.0 * x[..., 0] - 3.0 * x[..., 1]
    nodal = f(coords[0])
    grad = (nodal[:, None, None] * g).sum(axis=0)
    assert np.allclose(grad, [[2.0, -3.0]], atol=1e-13)
    vals = (nodal[:, None] * p1_basis(pts)).sum(axis=0)
    assert np.allclose(vals, f(phys), atol=1e-13)


def test_edge_tables_consistent():
    for le, (a, b) in enumerate(LOCAL_EDGES):
        opp = OPPOSITE_VERTEX[le]
        assert {a, b, opp} == {0, 1, 2}
