"""Fractional-order interface operator for the multiplier block.

The multiplier is piecewise constant on the interface facets.  A
finite-volume Laplacian on the facet-midpoint graph (coupling 1/distance
between neighbouring midpoints) plus the facet-length mass matrix defines
a discrete shifted Laplacian; its generalized eigenbasis realizes the
fractional powers.  With M = diag(|F_i|) and (L + M) U = M U diag(d),
U' M U = I, a power s of the shifted Laplacian is the matrix
M U diag(d**s) U' M (s = 0 gives M, s = 1 gives L + M).

The multiplier block is (1/mu) * power(-1/2) + K * power(+1/2).  Endpoint
behaviour of the underlying Laplacian is one pair of conditions per row of
`mesh.LAYOUTS`: `free` endpoints get no extra term, `zero` endpoints add
the Dirichlet ghost coupling 2/|F_end| on the end facet's diagonal.
Closed interface loops have no endpoints.  The two powers are
parameter-free pieces of the Riesz map N, `lam_low` and `lam_high`;
`fractional_pieces` builds them with one eigensolve per distinct endpoint
condition of the layout (two when the terms use different ones).  Assembly
builds them once per tagged mesh with the other pieces and weights them
like the rest.  The block is dense; the preconditioner reads it off N and
factors it by dense Cholesky.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .mesh import LAYOUTS, interface_chains


def facet_laplacian(mesh, endpoint):
    """Finite-volume graph Laplacian L and facet lengths on the interface."""
    if endpoint not in ("free", "zero"):
        raise ValueError(f"unknown endpoint condition {endpoint!r}")
    chains = interface_chains(mesh)
    sizes = [len(c.facets) for c in chains]
    n = sum(sizes)
    L = np.zeros((n, n))
    lengths = np.empty(n)
    off = 0
    for chain, sz in zip(chains, sizes):
        fl = mesh.facet_lengths(chain.facets)
        mids = mesh.facet_midpoints(chain.facets)
        lengths[off:off + sz] = fl
        pairs = [(k, k + 1) for k in range(sz - 1)]
        if chain.closed:
            pairs.append((sz - 1, 0))
        for i, j in pairs:
            wij = 1.0 / np.linalg.norm(mids[i] - mids[j])
            L[off + i, off + i] += wij
            L[off + j, off + j] += wij
            L[off + i, off + j] -= wij
            L[off + j, off + i] -= wij
        if not chain.closed and endpoint == "zero":
            L[off, off] += 2.0 / fl[0]
            L[off + sz - 1, off + sz - 1] += 2.0 / fl[-1]
        off += sz
    return L, lengths


def fractional_pieces(mesh):
    """The pieces lam_low = power(-1/2) and lam_high = power(+1/2) of the
    mesh's layout, dense; one eigensolve per distinct endpoint condition."""
    ep_low, ep_high = LAYOUTS[mesh.config].endpoints
    eig = {}
    for ep in {ep_low, ep_high}:
        L, lengths = facet_laplacian(mesh, ep)
        M = np.diag(lengths)
        d, U = sla.eigh(L + M, M)
        eig[ep] = d, lengths[:, None] * U

    def power(ep, s):
        d, MU = eig[ep]
        S = (MU * d[None, :] ** s) @ MU.T
        # gemm rounding is not symmetric; make the certificate exact
        return 0.5 * (S + S.T)

    return {"lam_low": power(ep_low, -0.5), "lam_high": power(ep_high, +0.5)}


def interface_operator(mesh, params):
    """The dense SPD multiplier block for the mesh's layout: the lam block
    of the eliminated N's sum of its weighted pieces lam_low and lam_high.
    No lam dof is essential, so the elimination leaves the block as it is."""
    from .assembly import _affine, _weights

    aff, w = _affine(mesh), _weights(params)
    M = aff.N.matrix({k: w[k] for k in ("lam_low", "lam_high")})
    s = aff.layout.field_slice("lam")
    return M[s, s].toarray()
