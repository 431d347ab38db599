"""Block-diagonal Riesz-map preconditioner and near-kernel deflation.

The preconditioner applies the inverse of the assembled block-diagonal
Riesz map N, each of its five blocks read off N: sparse factor solves for
the velocity and free-flow pressure blocks, a diagonal solve for the
porous pressure block, and a dense Cholesky solve for the multiplier
block, which is dense in N (see frac_interface).  The sparse blocks are
SPD and `factor` picks their factor by row count alone.  A block of at
most BAND_ROWS rows is reordered by reverse Cuthill-McKee and factored by
LAPACK's blocked band Cholesky (`dpbtrf`): at these sizes SuperLU is bound
by its per-column overhead, and the band of a P2 or RT0 block on a
structured mesh is narrow.  A larger block is factored by `symmetric_lu`,
a `splu` in symmetric mode: a minimum-degree ordering of A' + A and pivots
taken from the diagonal, which keeps the ordering symmetric and roughly
halves the fill of a default `splu`.  Every sparse block is factored
per (mu, K) off the system's own N; the band order and the band slots of
its entries depend on the pattern alone and are kept per mesh.  The
spectral reduction half-solves with `BandCholesky` factors too, at any
size.

Deflation augments the preconditioner with a rank-m correction built from
near-kernel indicator vectors W:

    z = B r + W E^{-1} W' r,     E = W' (gamma N) W,

where N is the assembled Riesz matrix (the inverse of the preconditioner)
and gamma scales like 1/(mu*K) when the porous pressure block carries the
near-kernel (NE and floating inclusions) and like mu*K when the free-flow
pressure does (EN).  `mesh.LAYOUTS` names the block per layout;
`deflation_weight` alone turns it into gamma or a refusal, and
`build_deflation` asks it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
import scipy.sparse.linalg as spla

from . import elements as el
from .assembly import _affine
from .mesh import LAYOUTS, BcConfig, ConfigurationError, _per_mesh
from .spaces import FIELDS


# Blocks of at most this many rows are factored on their band, larger ones
# by symmetric_lu.  Band Cholesky factors u_S at nref 2 (2,178 rows) and
# u_D at nref 3 (3,136) faster than splu, but not u_S at nref 3 (8,450);
# with p_S at nref 4 (4,225) on the band the whole nref-4 solve set up
# slower, so every nref-4 block stays above the limit (README, cost of the
# sparse factors).
BAND_ROWS = 4096


def symmetric_lu(M):
    """Symmetric-mode `splu` of the sparse SPD M (module docstring)."""
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, options={"SymmetricMode": True})


@dataclass(frozen=True)
class _BandPlan:
    """Where a symmetric sparse pattern goes in LAPACK's lower band storage
    of its reverse Cuthill-McKee order: entry src[k] of the CSC data of a
    matrix of this pattern is band entry dst[k] of the Fortran-ordered
    (width + 1, n) band, whose row i of the ordered matrix is row order[i].
    It depends on the pattern alone."""
    order: np.ndarray
    width: int
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def of(cls, M):
        n = M.shape[0]
        order = reverse_cuthill_mckee(M, symmetric_mode=True)
        rank = np.empty(n, np.intp)
        rank[order] = np.arange(n)
        i = rank[M.indices]
        j = rank[np.repeat(np.arange(n), np.diff(M.indptr))]
        src = np.flatnonzero(i >= j)
        below = i[src] - j[src]
        width = int(below.max(initial=0))
        return cls(order, width, src, below + (width + 1) * j[src])

    def band(self, M):
        """The lower band of M (of the plan's pattern), in the plan's order."""
        ab = np.zeros((self.width + 1) * len(self.order))
        ab[self.dst] = M.data[self.src]
        return ab.reshape(self.width + 1, -1, order="F")


class BandCholesky:
    """LAPACK band Cholesky C C' = M[order][:, order] of a sparse SPD M on
    its reverse Cuthill-McKee band (`_BandPlan`); ValueError, naming the
    block, where M is not positive definite.  Like a SuperLU factor it has
    `.solve(r)` and `.L.nnz`, `.U.nnz`: L and U = L' are one band, so each
    counts the band's stored entries.  M = L_u L_u' with L_u = P' C."""

    def __init__(self, M, name, plan=None):
        self._plan = _BandPlan.of(M) if plan is None else plan
        c, info = lapack.dpbtrf(self._plan.band(M), lower=1, overwrite_ab=1)
        if info > 0:
            raise ValueError(f"Riesz block {name} is not positive definite")
        self._c = c
        self.L = self.U = SimpleNamespace(nnz=c.size)

    def solve(self, r):
        order = self._plan.order
        z = np.empty_like(r)
        z[order] = lapack.dpbtrs(self._c, r[order], lower=1, overwrite_b=1)[0]
        return z

    def half_solve(self, X):
        """L_u^{-1} X = C^{-1} X[order], P x = x[order], for a dense X of
        M's rows: its rows are left in band order."""
        return lapack.dtbtrs(self._c, X[self._plan.order], uplo="L",
                             overwrite_b=1)[0]

    @property
    def nbytes(self):
        """Bytes of the band and of its plan."""
        p = self._plan
        return self._c.nbytes + p.order.nbytes + p.src.nbytes + p.dst.nbytes


def factor(M, name, mesh):
    """The factor of N's SPD block `name`, the sparse M: band Cholesky up to
    BAND_ROWS rows, `symmetric_lu` above.  M's pattern is that of every
    (mu, K) on the tagged mesh, so its band plan is kept per mesh."""
    if M.shape[0] > BAND_ROWS:
        return symmetric_lu(M)
    plan = _per_mesh(mesh, f"{name} band plan", lambda _: _BandPlan.of(M))
    return BandCholesky(M, name, plan)


def _riesz_block(N, layout, name):
    """Block `name` of the Riesz map N (CSR), as a CSC matrix.  N is block
    diagonal (checked where its pattern is built, see assembly._affine)
    and exactly symmetric, so the CSR arrays of the block's rows are the
    block's CSC arrays: its values are a view of N's."""
    s = layout.field_slice(name)
    p = N.indptr[s.start:s.stop + 1]
    n = s.stop - s.start
    return sp.csc_matrix((N.data[p[0]:p[-1]], N.indices[p[0]:p[-1]] - s.start,
                          p - p[0]), shape=(n, n))


class BlockPreconditioner:
    """Inverse of the block-diagonal Riesz map N of an assembled system.

    The sparse blocks are factored (`factor`) and the dense multiplier
    block by Cholesky, each read off the system's N.
    """

    def __init__(self, system):
        N, lay, mesh = system.N, system.layout, system.mesh
        self._blocks = [(name, lay.field_slice(name)) for name in FIELDS]
        # u_S, the largest, last: that keeps the peak memory lower
        self._solvers = {name: factor(_riesz_block(N, lay, name), name, mesh)
                         for name in ("p_S", "u_D", "u_S")}
        pd = _riesz_block(N, lay, "p_D").diagonal()
        if np.any(pd <= 0):
            raise ValueError("porous pressure block is not positive definite")
        self._pd_diag = pd
        # dense, so kept out of _solvers, whose sparse factors lu_fill counts
        self._lam_chol = sla.cholesky(_riesz_block(N, lay, "lam").toarray())

    @cached_property
    def factors(self):
        """{block: [kind, entries]} of the sparse factors: kind "band" or
        "lu", entries L.nnz + U.nnz (a band counted as L and as U = L').
        Counted once, as it builds SuperLU's L and U as scipy matrices."""
        return {name: ["band" if isinstance(f, BandCholesky) else "lu",
                       f.L.nnz + f.U.nnz]
                for name, f in self._solvers.items()}

    @property
    def lu_fill(self):
        """Entries of the sparse factors, summed over the blocks."""
        return sum(n for _, n in self.factors.values())

    def solve_block(self, name, r):
        """The inverse of N's block `name` applied to r (the block's rows
        of a residual)."""
        if name == "p_D":
            return r / self._pd_diag
        if name == "lam":
            # called once per apply, so LAPACK's potrs is called directly:
            # the checks of `cho_solve` cost several times the solve itself
            return lapack.dpotrs(self._lam_chol, r)[0]
        return self._solvers[name].solve(r)

    def __call__(self, r):
        z = np.empty_like(r)
        for name, s in self._blocks:
            z[s] = self.solve_block(name, r[s])
        return z


def build_preconditioner(system):
    """Preconditioner for an assembled BlockSystem."""
    return BlockPreconditioner(system)


@dataclass
class Deflation:
    W: np.ndarray            # (n, m) near-kernel indicator vectors
    gamma: float
    E: object                # Cholesky factor of W' (gamma N) W

    def correction(self, r):
        # dpotrs directly, as in BlockPreconditioner.solve_block: cho_solve's
        # checks cost more than the m x m solve
        return self.W @ lapack.dpotrs(self.E[0], self.W.T @ r,
                                      lower=self.E[1])[0]


def deflation_vectors(mesh):
    """Constant near-kernel indicator vectors of the tagged mesh, one per
    interface component: ones on its multiplier dofs and on the layout's
    near-kernel pressure block (`mesh.LAYOUTS`), restricted to the
    component's cells where that is p_D.  NE and EN have one component,
    each MultiInclusion inclusion its own.  Layouts without a near-kernel
    return None.  One read-only array per tagged mesh, as W does not
    depend on the parameters.
    """
    block = LAYOUTS[mesh.config].near_kernel
    if block is None:
        return None

    def build(mesh):
        layout = _affine(mesh).layout
        lam_comp = mesh.facet_component[layout.interface_facets]
        comps = np.unique(lam_comp)
        w = np.zeros((layout.total_dofs, len(comps)))
        w[layout.field_slice("lam")] = lam_comp[:, None] == comps
        if block == "p_D":
            w[layout.field_slice(block)] = (
                mesh.cell_component[layout.darcy_cells, None] == comps)
        else:
            w[layout.field_slice(block)] = 1.0
        return el.read_only(w)[0]
    return _per_mesh(mesh, "deflation vectors", build)


def deflation_weight(params, config, gamma_mult=1.0):
    """The deflation weight of the layout `config`: gamma = gamma_mult /
    (mu*K) where its near-kernel is on p_D, gamma_mult * mu*K where it is
    on p_S.  A ConfigurationError where the layout has no near-kernel, or
    where gamma is not positive and finite."""
    config = BcConfig(config)
    block = LAYOUTS[config].near_kernel
    if block is None:
        raise ConfigurationError(
            f"layout {config.value} has no near-kernel to deflate")
    muK = params.mu * params.K
    if block == "p_D":      # muK may underflow
        gamma = gamma_mult * (1.0 / muK if muK else np.inf)
    else:
        gamma = gamma_mult * muK
    if not 0 < gamma < np.inf:
        raise _weight_error(gamma, gamma_mult)
    return gamma


def _weight_error(gamma, gamma_mult):
    return ConfigurationError(
        f"deflation weight gamma = {gamma:g} (gamma_mult = {gamma_mult:g}) "
        f"must leave E = gamma W'NW finite and positive definite")


def build_deflation(system, gamma_mult=1.0):
    """Deflation data for a BlockSystem; a ConfigurationError where its
    layout has no near-kernel, or where gamma or E is not positive and finite."""
    gamma = deflation_weight(system.params, system.config, gamma_mult)
    W = deflation_vectors(system.mesh)
    try:
        E = sla.cho_factor(W.T @ (system.N @ W) * gamma)
    except ValueError:      # not positive definite, or not finite
        raise _weight_error(gamma, gamma_mult) from None
    return Deflation(W=W, gamma=gamma, E=E)


class DeflatedPreconditioner:
    """B_W r = B r + W E^{-1} W' r."""

    def __init__(self, base, deflation):
        self.base = base
        self.deflation = deflation

    def __call__(self, r):
        return self.base(r) + self.deflation.correction(r)
