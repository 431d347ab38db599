"""Reference elements and quadrature rules on triangles and segments.

Conventions used throughout the package:

* reference triangle with vertices (0,0), (1,0), (0,1),
* scalar quadratic (P2) local dofs ordered [v0, v1, v2, m01, m12, m02]
  (vertex values first, then edge-midpoint values),
* local edges of a cell ordered [(0,1), (1,2), (0,2)] with the opposite
  vertices [2, 0, 1]; lowest-order Raviart-Thomas dofs follow this order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

LOCAL_EDGES = ((0, 1), (1, 2), (0, 2))
OPPOSITE_VERTEX = (2, 0, 1)


def read_only(*arrays):
    """The arrays, made read-only: for data that several callers share."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def segment_rule(degree):
    """Gauss-Legendre rule on [0, 1], exact for polynomials of `degree`;
    memoized per degree, read-only."""
    n = degree // 2 + 1
    x, w = roots_legendre(n)
    return read_only(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Conical-product Gauss rule on the reference triangle.

    Tensorizes Gauss-Jacobi (weight 1-x) with Gauss-Legendre, mapped by
    (x, t) -> (x, t*(1-x)); exact for total polynomial degree <= `degree`.
    Memoized per degree, as every assembly asks for the same few; the
    arrays are read-only.
    """
    n = degree // 2 + 1
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
    xj = 0.5 * (xj + 1.0)
    wj = 0.25 * wj
    xl = 0.5 * (xl + 1.0)
    wl = 0.5 * wl
    x = np.repeat(xj, n)
    t = np.tile(xl, n)
    pts = np.column_stack([x, t * (1.0 - x)])
    wts = np.repeat(wj, n) * np.tile(wl, n)
    return read_only(pts, wts)


def p1_basis(pts):
    """P1 basis values, shape (3, nq)."""
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - x - y, x, y])


def p1_grads():
    """Constant P1 reference gradients, shape (3, 2)."""
    return np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def p2_basis(pts):
    """P2 basis values, shape (6, nq)."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    return np.stack([
        l0 * (2.0 * l0 - 1.0),
        l1 * (2.0 * l1 - 1.0),
        l2 * (2.0 * l2 - 1.0),
        4.0 * l0 * l1,
        4.0 * l1 * l2,
        4.0 * l0 * l2,
    ])


def p2_grads(pts):
    """P2 reference gradients, shape (6, nq, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    nq = len(x)
    l = np.stack([1.0 - x - y, x, y])
    dl = p1_grads()
    g = np.empty((6, nq, 2))
    for i in range(3):
        g[i] = (4.0 * l[i] - 1.0)[:, None] * dl[i]
    for k, (i, j) in enumerate(LOCAL_EDGES):
        g[3 + k] = 4.0 * (l[j][:, None] * dl[i] + l[i][:, None] * dl[j])
    return g


def affine_maps(coords):
    """Affine map data for a batch of triangles.

    `coords` has shape (nc, 3, 2).  Returns (jac, inv, det) where
    jac[c] = [v1-v0 | v2-v0] maps reference to physical coordinates,
    inv[c] is its inverse and det[c] the (signed) determinant.
    """
    jac = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=-1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return jac, inv, det


# Both maps below contract a length-2 axis for every cell at once, as one
# BLAS product with the cells' rows stacked.  BLAS may fuse one of the two
# products into their sum, so on a general mesh a value can differ from
# a*b + c*d in the last bit; where the products are exact, as on a lattice
# whose spacing is a power of two, it cannot.


def physical_points(coords, ref_pts):
    """Map reference points to physical points, shape (nc, nq, 2)."""
    jac, _, _ = affine_maps(coords)
    x = (jac.reshape(-1, 2) @ ref_pts.T).reshape(len(coords), 2, -1)
    return coords[:, None, 0, :] + x.transpose(0, 2, 1)


def physical_grads(inv, ref_grads):
    """Push reference gradients forward, shape (nc, nbasis, nq, 2).

    grad_x(phi) = inv^T grad_ref(phi) for each cell.  The result is a view
    whose memory is ordered (nc, 2, nbasis, nq), so that
    ``G.transpose(0, 3, 1, 2)`` is contiguous.
    """
    nb, nq, _ = ref_grads.shape
    g = inv.transpose(0, 2, 1).reshape(-1, 2) @ ref_grads.reshape(-1, 2).T
    return g.reshape(len(inv), 2, nb, nq).transpose(0, 2, 3, 1)
