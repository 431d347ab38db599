"""Dense generalized eigenanalysis of the preconditioned operator.

Solves A x = lam N x with N the SPD Riesz map.  Condition numbers are
magnitude ratios of extreme eigenvalues; the effective variant drops a
given number of smallest-magnitude (near-kernel) eigenvalues.

One helper, `_pencil_eigs`, solves every dense pencil:

- An eliminated essential dof has a row and column holding only a diagonal
  entry in both A and N.  It is decoupled and contributes the exact
  eigenvalue A_ii / N_ii (1 for the identity rows of `apply_essential`),
  so it is sliced out of the sparse matrices before they are made dense and
  its eigenvalue is appended afterwards.  These unit eigenvalues stay in the
  reported spectrum but can be filtered out of the two-interval hull.
- A pencil that the reduction below does not take goes to LAPACK's
  ``sygv`` (scipy ``driver="gv"``), in Fortran order so that LAPACK works
  in place.  scipy's default ``gvd`` gets no workspace query; on the EN
  pencil at nref 2 (3795 dofs, 2 vCPUs) it took 10.3 s against 6.2 s for
  ``gv``, with eigenvalues equal to 7.5e-15 relative to max|lam|.  Slicing
  out the 210 eliminated dofs and working in place took the solve to 4.1 s
  and the process's peak RSS from 538 to 281 MB.
- A saddle-point pencil, A = [[A_uu, A_up], [A_pu, 0]] and M = diag(M_uu,
  M_pp) with p the dofs where A_ii = 0, is reduced first when M_uu - A_uu
  acts only through the single pressure dofs D (Benzi, Golub & Liesen
  2005, section 10): M_uu - A_uu = A_uD N_DD^{-1} A_Du, with N_DD diagonal
  (in sdlab D is p_D and N_DD its P0 mass, and M_uu - A_uu is (1/K)
  divdiv on u_D).  M is the Riesz map N, or B_W^{-1} for a deflated
  pencil, whose N_DD is still read from N.  With M_uu = L_u L_u' and
  M_pp = L_p L_p', the pencil is congruent to

      [[I - Z, Y], [Y', 0]],   Z = L_u^{-1} (M_uu - A_uu) L_u^{-T},
                               Y = L_u^{-1} A_up L_p^{-T} = Q R,

  and the identity gives Z = Q G G' Q' with G = R L_p[D, :]' N_DD^{-1/2}
  (G = R[:, D] for a plain pencil).  Every direction orthogonal to
  range(Q) is an eigenvector with eigenvalue exactly 1, and the rest of
  the spectrum is that of the 2 n_p matrix H = [[I - G G', R], [R', 0]].
  Q is never formed: the reduction holds Y, R and H only.
  - L_u comes from a symmetric-mode sparse LU of each connected component
    of M_uu (the settings of `precond`): P M_uu P' = L diag(d) L' with
    diagonal pivots, so L_u = P' L diag(d)^{1/2}.  A factor that pivots
    off the diagonal or has a pivot <= 0 declines the reduction.  Y's u
    rows are triangular solves on the columns each component couples to.
    L_p is a dense Cholesky factor per component of M_pp, a diagonal on
    the single dofs.  R comes from a compact-WY Householder QR of Y.
  - Certificate: with Delta = M_uu - A_uu - A_uD N_DD^{-1} A_Du (sparse),
    ||L_u^{-1} Delta L_u^{-T}||_F <= n eps ||G G'||_F, computed from
    half-solves on Delta's nonzero columns only.  By Weyl it bounds the
    eigenvalue error the reduction neglects.  On the stacked meshes at
    nref 0-1, Delta is exactly 0 at mu = K = 1e-4 and at (1e4, 1e-4), and
    has 8-200 nonzero columns of roundoff size at (3e-3, 7e2) and (1, 1e4).
  - Cost: EN at nref 2 (mu = K = 1e-4, 2 vCPUs) 0.35 s and 47 MB above
    the assembled system, against 4.2-4.9 s for ``sygv``; at nref 3
    (14,755 dofs) 15.1 s and 611 MB max RSS.  1951 of 3585 coupled
    eigenvalues at nref 2 are exact ones.
  The reduction calls scipy's LAPACK/BLAS only: numpy's `@` would wake the
  thread pool of numpy's own BLAS, whose idle workers then spin next to
  scipy's and slow down what runs after (NN at nref 1 on 2 vCPUs: 2x).
  A pencil without this structure, or whose certificate fails (a NaN
  fails it too), goes to ``sygv`` unchanged.
- Budget: before it allocates a dense array, each path estimates the bytes
  it will hold and raises a BudgetError over `budget`.  The reduction
  holds 8 (n_u n_p + 4 n_p^2) bytes for Y and H plus its sparse and dense
  factors, ``sygv`` 16 n^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack
from scipy.sparse import csgraph

# bytes the dense path may hold (the `_check_budget` estimate): EN and NN
# need 0.62-0.63 GB at nref 3 (by the reduction) and 9.6 GB at nref 4
DENSE_BUDGET = 2 * 2**30
# an eliminated dof's eigenvalue A_ii / N_ii is 1 up to this
UNIT_TOL = 1e-12
# block size of the saddle-point reduction's QR; of 32, 64, 128 and n_p
# the fastest on EN and NN at nref 1 and 2
QR_BLOCK = 128


class BudgetError(ValueError):
    """The dense eigensolve would hold more bytes than its budget."""


@dataclass
class Spectrum:
    eigenvalues: np.ndarray     # ascending by value
    n_eliminated: int = 0

    @property
    def by_magnitude(self):
        lam = self.eigenvalues
        return lam[np.argsort(np.abs(lam))]

    def kappa(self):
        lam = np.abs(self.by_magnitude)
        return float(lam[-1] / lam[0])

    def kappa_eff(self, drop=1):
        lam = np.abs(self.by_magnitude)
        return float(lam[-1] / lam[drop])


def generalized_eigs(A, N, n_eliminated=0, budget=DENSE_BUDGET):
    """Full spectrum of the pencil (A, N); dense, guarded by `budget`
    bytes (a BudgetError)."""
    N = sp.csr_matrix(N)
    return Spectrum(eigenvalues=_pencil_eigs(A, N, N, budget),
                    n_eliminated=n_eliminated)


def deflated_pencil_eigs(A, N, deflation, budget=DENSE_BUDGET):
    """Spectrum of the deflated-preconditioned operator B_W A.

    B_W = N^{-1} + W E^{-1} W' with E = gamma W' N W (`deflation`).  The
    eigenvalues of B_W A are those of the pencil (A, B_W^{-1}), and by
    Woodbury B_W^{-1} = N - N W ((1 + gamma) W' N W)^{-1} W' N, so no
    inverse of N is formed.  The correction is dense on the dofs where N W
    is nonzero only (the pressures and multipliers W lives on), so B_W^{-1}
    stays sparse elsewhere and keeps the saddle-point structure of N.  A
    `deflation` of None (a layout that needs none) gives the plain
    spectrum.
    """
    N = sp.csr_matrix(N)
    Bw_inv = N
    if deflation is not None:
        W = deflation.W
        NW = N @ W
        s = np.flatnonzero(NW.any(axis=1))
        C = NW[s] @ sla.solve((1.0 + deflation.gamma) * (W.T @ NW),
                              NW[s].T, assume_a="pos")
        Bw_inv = N - sp.csr_matrix(
            (C.ravel(), (np.repeat(s, len(s)), np.tile(s, len(s)))),
            shape=N.shape)
    return Spectrum(eigenvalues=_pencil_eigs(A, Bw_inv, N, budget),
                    n_eliminated=0)


def _check_budget(nbytes, budget):
    if nbytes > budget:
        raise BudgetError(f"dense eigensolve would hold {nbytes:.3g} bytes, "
                          f"over the dense budget of {budget:.3g} bytes")


def _pencil_eigs(A, M, N, budget):
    """Eigenvalues of the symmetric-definite pencil (A, M), ascending;
    A sparse or dense, M and N sparse, N the undeflated Riesz map (M itself
    for a plain pencil).  Decoupled dofs are solved exactly, and a
    saddle-point pencil on its non-unit part only (see the module
    docstring)."""
    A = sp.csr_matrix(A)
    coupled = _coupled(A) | _coupled(M)
    keep, free = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    A_c, M_c = A[keep][:, keep], M[keep][:, keep]
    lam = _saddle_eigs(A_c, M_c, N[keep][:, keep], budget)
    if lam is None:
        # an upper bound: two n x n matrices, the decoupled dofs counted too
        _check_budget(16 * A.shape[0] ** 2, budget)
        lam = sla.eigh(A_c.toarray(order="F"), M_c.toarray(order="F"),
                       eigvals_only=True, driver="gv", overwrite_a=True,
                       overwrite_b=True)
    exact = A.diagonal()[free] / M.diagonal()[free]
    return np.sort(np.concatenate([lam, exact]))


def _saddle_eigs(A, M, N, budget):
    """Eigenvalues of the sparse pencil (A, M) by the certified saddle-point
    reduction of the module docstring, or None where it does not apply.
    N is the undeflated Riesz map on the same dofs; it gives the single
    pressure dofs D and the N_DD of the certified identity."""
    zero = A.diagonal() == 0
    u, p = np.flatnonzero(~zero), np.flatnonzero(zero)
    n_u, n_p = len(u), len(p)
    if not 0 < n_p <= n_u or A[p][:, p].count_nonzero() \
            or M[u][:, p].count_nonzero():
        return None
    u_order, u_blocks = _components(M[u][:, u])
    p_order, p_blocks = _components(M[p][:, p])
    u, p = u[u_order], p[p_order]
    M_uu, M_pp, A_up = M[u][:, u], M[p][:, p], A[u][:, p].tocsc()
    try:
        u_facs = [_velocity_factor(M_uu[b, b], c) for b, c in u_blocks]
    except (np.linalg.LinAlgError, RuntimeError):
        return None
    # Y (n_u x n_p) and H (2 n_p x 2 n_p) do not coexist, so this bounds
    # the peak; the dense pressure factors are at most n_p^2 together
    _check_budget(8 * (n_u * n_p + 4 * n_p ** 2
                       + sum((b.stop - b.start) ** 2 for b, c in p_blocks
                             if c))
                  + sum(f.nbytes() for f in u_facs), budget)
    try:
        p_facs = [_pressure_factor(M_pp[b, b], c) for b, c in p_blocks]
    except np.linalg.LinAlgError:
        return None

    # Y = L_u^{-1} A_up L_p^{-T}, in place; a u block is solved on the
    # columns it couples to only
    Y = np.zeros((n_u, n_p), order="F")
    for (b, _), f in zip(u_blocks, u_facs):
        rows = A_up[b]
        cols = np.flatnonzero(np.diff(rows.tocsc().indptr))
        if len(cols):
            Y[b, cols] = f.half_solve(rows[:, cols].toarray())
    for (b, _), L in zip(p_blocks, p_facs):
        if L.ndim == 1:
            Y[:, b] /= L
        else:
            Y[:, b] = blas.dtrsm(1.0, L, Y[:, b], side=1, lower=1,
                                 trans_a=1, overwrite_b=1)
    # compact-WY Householder QR: its panels are factored recursively in
    # level-3 BLAS; scipy's qr (geqrf, orgqr) spent 0.02-0.05 s of a
    # 744 x 217 QR (NN, nref 1, 2 vCPUs) in level-2 calls, geqrt 0.008 s.
    # Only R is kept: Q never enters the reduced matrix
    V = lapack.dgeqrt(min(n_p, QR_BLOCK), Y, overwrite_a=True)[0]
    R = np.triu(V[:n_p])
    del Y, V

    # G = R L_p[D, :]' N_DD^{-1/2}, so that Q'ZQ = G G'
    N_pp = N[p][:, p]
    D = np.flatnonzero(~_coupled(N_pp))
    s_D = np.sqrt(N_pp.diagonal()[D])
    G = np.empty((n_p, len(D)), order="F")
    for (b, _), L in zip(p_blocks, p_facs):
        j = np.flatnonzero((D >= b.start) & (D < b.stop))
        if not len(j):
            continue
        if L.ndim == 1:
            G[:, j] = R[:, D[j]] * (L[D[j] - b.start] / s_D[j])
        else:
            G[:, j] = blas.dgemm(1.0, R[:, b], L[D[j] - b.start],
                                 trans_b=True) / s_D[j]
    GG = blas.dsyrk(1.0, G)             # upper triangle of G G'
    del G
    diag = GG.diagonal()
    GG_norm = np.sqrt(2.0 * lapack.dlange("F", GG) ** 2 - np.sum(diag * diag))

    # certificate: ||L_u^{-1} Delta L_u^{-T}||_F, Delta = M_uu - A_uu -
    # A_uD N_DD^{-1} A_Du, from the half-solves V = L_u^{-1} on Delta's
    # nonzero columns c: its square is tr(V'V Delta_cc V'V Delta_cc)
    A_uD = A_up[:, D]
    Delta = (M_uu - A[u][:, u] - A_uD @ sp.diags(1.0 / s_D ** 2)
             @ A_uD.T).tocsc()
    Delta.eliminate_zeros()
    c = np.flatnonzero(np.diff(Delta.indptr))
    off = 0.0
    if len(c):
        VV = np.zeros((len(c), len(c)), order="F")
        for (b, _), f in zip(u_blocks, u_facs):
            j = np.flatnonzero((c >= b.start) & (c < b.stop))
            if len(j):
                E = np.zeros((b.stop - b.start, len(j)))
                E[c[j] - b.start, np.arange(len(j))] = 1.0
                V = f.half_solve(E)
                VV[np.ix_(j, j)] = blas.dgemm(1.0, V, V, trans_a=True)
        WD = blas.dgemm(1.0, VV, Delta[c][:, c].toarray())
        off = np.sqrt(abs(np.sum(WD * WD.T)))
    # written so that a NaN fails it too
    if not off <= (n_u + n_p) * np.finfo(float).eps * GG_norm:
        return None

    H = np.zeros((2 * n_p, 2 * n_p), order="F")
    np.negative(GG, out=H[:n_p, :n_p])
    del GG
    H[np.arange(n_p), np.arange(n_p)] += 1.0
    H[:n_p, n_p:] = R
    del R
    lam = sla.eigvalsh(H, lower=False, overwrite_a=True, check_finite=False)
    return np.concatenate([lam, np.ones(n_u - n_p)])


def _components(M):
    """The order that makes every connected component of the pattern of the
    sparse M contiguous, single dofs first, and a list of (slice, coupled)
    in that order: a component, or the run of single dofs with coupled
    False."""
    _, label = csgraph.connected_components(M, directed=False)
    single = np.bincount(label)[label] == 1
    order = np.lexsort((label, ~single))
    label = label[order]
    n1 = np.count_nonzero(single)
    blocks = [(slice(0, n1), False)] if n1 else []
    starts = np.r_[n1, np.flatnonzero(np.diff(label[n1:])) + n1 + 1]
    ends = np.r_[starts[1:], len(label)]
    blocks += [(slice(a, b), True) for a, b in zip(starts, ends) if b > a]
    return order, blocks


class _VelocityFactor:
    """M[q][:, q] = L diag(d) L' by a symmetric-mode `splu` (the settings
    of `precond`), with L unit lower triangular; a diagonal M keeps L =
    None and q the identity.  So M = L_u L_u' with L_u = P' L diag(d)^{1/2},
    P the permutation x -> x[q]."""

    def __init__(self, q, L, sqrt_d):
        self.q, self.L, self.sqrt_d = q, L, sqrt_d

    def half_solve(self, X):
        """L_u^{-1} X for a dense X of as many rows as M."""
        if self.L is not None:
            X = spla.spsolve_triangular(self.L, X[self.q], lower=True,
                                        unit_diagonal=True, overwrite_b=True)
        return X / self.sqrt_d[:, None]

    def nbytes(self):
        L = self.L
        sparse = 0 if L is None else (L.data.nbytes + L.indices.nbytes
                                      + L.indptr.nbytes + self.q.nbytes)
        return sparse + self.sqrt_d.nbytes


def _velocity_factor(M, coupled):
    """The `_VelocityFactor` of the SPD sparse M, or a LinAlgError where
    the factor pivots off the diagonal or a pivot is not positive."""
    if not coupled:
        return _VelocityFactor(None, None, _sqrt_diagonal(M))
    lu = spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0, options={"SymmetricMode": True})
    d = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(d > 0)):
        raise np.linalg.LinAlgError("pencil is not definite")
    return _VelocityFactor(np.argsort(lu.perm_c), lu.L.tocsr(), np.sqrt(d))


def _pressure_factor(M, coupled):
    """Dense lower Cholesky factor of the SPD sparse M, or the vector of
    square roots of its diagonal where M is the run of single dofs."""
    if not coupled:
        return _sqrt_diagonal(M)
    return sla.cholesky(M.toarray(), lower=True, overwrite_a=True,
                        check_finite=False)


def _sqrt_diagonal(M):
    d = M.diagonal()
    if not np.all(d > 0):
        raise np.linalg.LinAlgError("pencil is not definite")
    return np.sqrt(d)


def _coupled(M):
    """Mask of the dofs whose row or column of the sparse M has an
    off-diagonal nonzero."""
    M = M.tocoo()
    off = (M.row != M.col) & (M.data != 0)
    mask = np.zeros(M.shape[0], dtype=bool)
    mask[M.row[off]] = True
    mask[M.col[off]] = True
    return mask


def two_interval_hull(eigenvalues, drop=0, n_unit=0):
    """Interval hull (a, b, c, d) of the spectrum after near-kernel removal.

    Drops the `drop` smallest-magnitude eigenvalues, and up to `n_unit`
    eigenvalues equal to 1 within UNIT_TOL (the eliminated-dof artifacts);
    unit eigenvalues are only filtered when at least n_unit of them exist.
    Returns a <= b < 0 < c <= d.
    """
    lam = np.asarray(eigenvalues)
    lam = lam[np.argsort(np.abs(lam))]
    lam = lam[drop:]
    if n_unit:
        ones = np.nonzero(np.abs(lam - 1.0) <= UNIT_TOL)[0]
        if len(ones) >= n_unit:
            lam = np.delete(lam, ones[:n_unit])
    neg = lam[lam < 0]
    pos = lam[lam > 0]
    if len(neg) == 0 or len(pos) == 0:
        raise ValueError("spectrum is not indefinite after filtering")
    return float(neg.min()), float(neg.max()), float(pos.min()), float(pos.max())


def contraction_factor(hull):
    """Two-interval Chebyshev contraction factor of [a,b] U [c,d]."""
    a, b, c, d = hull
    num = np.sqrt(abs(a * d)) - np.sqrt(abs(b * c))
    den = np.sqrt(abs(a * d)) + np.sqrt(abs(b * c))
    return float(num / den)
