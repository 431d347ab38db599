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
Closed interface loops have no endpoints.  When the two fractional terms
use different endpoint conditions, two eigenbases are built.  The two
powers are parameter-free pieces of the Riesz map N, `lam_low` and
`lam_high` (`fractional_pieces`), built with the other pieces once per
tagged mesh and weighted like them (see assembly).  The block is dense;
the preconditioner reads it off N and factors it by dense Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .mesh import LAYOUTS, interface_chains


@dataclass
class InterfaceSpectralBasis:
    """Eigenpairs of the shifted facet Laplacian against the facet mass."""

    eigenvalues: np.ndarray      # d, ascending, all >= 1
    vectors: np.ndarray          # columns U with U' M U = I
    lengths: np.ndarray          # facet lengths |F_i|
    endpoint: str


def facet_laplacian(mesh, endpoint="free"):
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


def build_interface_basis(mesh, endpoint="free"):
    """Generalized eigendecomposition of (L + M, M) on the interface."""
    L, lengths = facet_laplacian(mesh, endpoint)
    M = np.diag(lengths)
    d, U = sla.eigh(L + M, M)
    return InterfaceSpectralBasis(eigenvalues=d, vectors=U, lengths=lengths,
                                  endpoint=endpoint)


def fractional_matrix(basis, power):
    """M U diag(d**power) U' M."""
    MU = basis.lengths[:, None] * basis.vectors
    S = (MU * basis.eigenvalues[None, :] ** power) @ MU.T
    # gemm rounding is not symmetric; make the certificate exact
    return 0.5 * (S + S.T)


def fractional_pieces(mesh):
    """The pieces lam_low = power(-1/2) and lam_high = power(+1/2) of the
    mesh's layout, dense; one basis per distinct endpoint condition."""
    ep_low, ep_high = LAYOUTS[mesh.config].endpoints
    bases = {ep: build_interface_basis(mesh, ep) for ep in {ep_low, ep_high}}
    return {"lam_low": fractional_matrix(bases[ep_low], -0.5),
            "lam_high": fractional_matrix(bases[ep_high], +0.5)}


def interface_operator(mesh, params):
    """The dense SPD multiplier block for the mesh's layout: the lam block
    of N's sum of its weighted pieces lam_low and lam_high."""
    from .assembly import _affine, _weights

    aff, w = _affine(mesh), _weights(params)
    M = aff.N.matrix({k: w[k] for k in ("lam_low", "lam_high")})
    s = aff.layout.field_slice("lam")
    return M[s, s].toarray()
