"""Block-diagonal Riesz-map preconditioner and near-kernel deflation.

The preconditioner applies the inverse of the assembled block-diagonal
Riesz map: sparse LU solves for the velocity and free-flow pressure
blocks, a diagonal solve for the porous pressure block, and the interface
operator's Cholesky solve for the multiplier block.  The LU blocks are
SPD, so they are factored in symmetric mode: a minimum-degree ordering of
A' + A and pivots taken from the diagonal, which keeps the ordering
symmetric and roughly halves the fill of a default `splu`.

Deflation augments the preconditioner with a rank-m correction built from
near-kernel indicator vectors W:

    z = B r + W E^{-1} W' r,     E = W' (gamma N) W,

where N is the assembled Riesz matrix (the inverse of the preconditioner)
and gamma scales like 1/(mu*K) when the porous pressure block carries the
near-kernel (NE and floating inclusions) and like mu*K when the free-flow
pressure does (EN).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import BcConfig, ConfigurationError


def symmetric_lu(M):
    """Symmetric-mode `splu` of the sparse SPD M (module docstring)."""
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, options={"SymmetricMode": True})


class BlockPreconditioner:
    """Inverse of the block-diagonal Riesz map."""

    def __init__(self, N, layout, interface_op):
        self.N = sp.csr_matrix(N)
        self.layout = layout
        self.interface_op = interface_op
        self._solvers = {}
        for name in ("u_S", "u_D", "p_S"):
            blk = self._block(name)
            if blk.shape[0]:
                self._solvers[name] = symmetric_lu(blk)
        pd = self._block("p_D").diagonal()
        if np.any(pd <= 0):
            raise ValueError("porous pressure block is not positive definite")
        self._pd_diag = pd

    @property
    def lu_fill(self):
        """Stored entries of the sparse factors, summed over the blocks."""
        return sum(lu.L.nnz + lu.U.nnz for lu in self._solvers.values())

    def _block(self, name):
        s = self.layout.field_slice(name)
        return self.N[s, :][:, s]

    def apply(self, r):
        z = np.empty_like(r)
        lay = self.layout
        for name, solver in self._solvers.items():
            s = lay.field_slice(name)
            z[s] = solver.solve(r[s])
        s = lay.field_slice("p_D")
        z[s] = r[s] / self._pd_diag
        s = lay.field_slice("lam")
        if lay.sizes["lam"]:
            z[s] = self.interface_op.solve(r[s])
        return z

    __call__ = apply


def build_preconditioner(system):
    """Preconditioner for an assembled BlockSystem."""
    # eliminated multiplier dofs never occur, so the interface inverse is
    # valid whenever no essential dof falls inside the lam block
    return BlockPreconditioner(system.N, system.layout, system.interface_op)


@dataclass
class Deflation:
    W: np.ndarray            # (n, m) near-kernel indicator vectors
    gamma: float
    E: object                # Cholesky factor of W' (gamma N) W

    @property
    def m(self):
        return self.W.shape[1]

    def correction(self, r):
        # dpotrs directly, as in InterfaceOperator.solve: cho_solve's
        # checks cost more than the m x m solve
        return self.W @ lapack.dpotrs(self.E[0], self.W.T @ r,
                                      lower=self.E[1])[0]


def deflation_vectors(layout, config):
    """Constant near-kernel indicator vectors for the given layout.

    NE: ones on the porous pressure and multiplier; EN: ones on the
    free-flow pressure and multiplier; MultiInclusion: one vector per
    inclusion (porous pressure of its cells plus its interface loop).
    Other layouts have no near-kernel and return None.
    """
    config = BcConfig(config)
    n = layout.total_dofs
    if config == BcConfig.NE:
        w = np.zeros((n, 1))
        w[layout.field_slice("p_D")] = 1.0
        w[layout.field_slice("lam")] = 1.0
        return w
    if config == BcConfig.EN:
        w = np.zeros((n, 1))
        w[layout.field_slice("p_S")] = 1.0
        w[layout.field_slice("lam")] = 1.0
        return w
    if config == BcConfig.MULTI:
        mesh = layout.mesh
        lam_comp = mesh.facet_component[layout.interface_facets]
        comps = np.unique(lam_comp)
        w = np.zeros((n, len(comps)))
        w[layout.field_slice("p_D")] = (
            mesh.cell_component[layout.darcy_cells, None] == comps)
        w[layout.field_slice("lam")] = lam_comp[:, None] == comps
        return w
    return None


def deflation_gamma(params, config):
    config = BcConfig(config)
    muK = params.mu * params.K
    if config in (BcConfig.NE, BcConfig.MULTI):
        return 1.0 / muK if muK else np.inf     # muK may underflow
    if config == BcConfig.EN:
        return muK
    raise ValueError(f"layout {config.value} has no deflation space")


def build_deflation(system, gamma_mult=1.0):
    """Deflation data for a BlockSystem, or None if the layout needs none;
    a ConfigurationError where gamma or E is not positive and finite."""
    W = deflation_vectors(system.layout, system.config)
    if W is None:
        return None
    gamma = gamma_mult * deflation_gamma(system.params, system.config)
    if 0 < gamma < np.inf:
        try:
            E = sla.cho_factor(W.T @ (system.N @ W) * gamma)
            return Deflation(W=W, gamma=gamma, E=E)
        except ValueError:      # not positive definite, or not finite
            pass
    raise ConfigurationError(
        f"deflation weight gamma = {gamma:g} (gamma_mult = {gamma_mult:g}) "
        f"must leave E = gamma W'NW finite and positive definite")


class DeflatedPreconditioner:
    """B_W r = B r + W E^{-1} W' r."""

    def __init__(self, base, deflation):
        self.base = base
        self.deflation = deflation

    def apply(self, r):
        return self.base.apply(r) + self.deflation.correction(r)

    __call__ = apply
