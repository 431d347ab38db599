"""Dense generalized eigenanalysis of the preconditioned operator.

Solves A x = lam N x with N the SPD Riesz map, or A x = lam B_W^{-1} x for
the deflated preconditioner B_W.  Condition numbers are magnitude ratios of
extreme eigenvalues; the effective variant drops a given number of
smallest-magnitude (near-kernel) eigenvalues.

One entry point, `generalized_eigs`, solves every dense pencil (README,
Spectrum, has the measurements):

- An eliminated essential dof has a row and column holding only a diagonal
  entry in both A and N: its exact eigenvalue A_ii / N_ii (1 for the rows
  of `apply_essential`) is appended, and it is sliced out before the
  matrices are made dense.
- A saddle-point pencil, A = [[A_uu, A_up], [A_pu, 0]] and N = diag(N_uu,
  N_pp) with p the dofs where A_ii = 0, is reduced when N_uu - A_uu acts
  only through the single pressure dofs D, and p has a coupled component
  too (Benzi, Golub & Liesen 2005, section 10): N_uu - A_uu = A_uD N_DD^{-1}
  A_Du (in sdlab D is p_D, N_DD its P0 mass, and N_uu - A_uu is (1/K)
  divdiv on u_D).  With N_uu = L_u
  L_u' and N_pp = L_p L_p', the pencil is congruent to

      [[I - Z, Y], [Y', 0]],   Z = L_u^{-1} (N_uu - A_uu) L_u^{-T},
                               Y = L_u^{-1} A_up L_p^{-T} = Q R,

  and Z = Q G G' Q' with G = R[:, D].  Every direction orthogonal to
  range(Q) is an eigenvector with eigenvalue exactly 1, and so, with D
  last in p, is every (xi, y) = ((0, z), (0, R_DD' z)) of H = [[I - G G',
  R], [R', 0]].  On their complement, xi_D = -R_DD y_D, with Gram matrix
  diag(I, I, T), T = I + R_DD' R_DD = L_T L_T', the rest of the spectrum
  is that of the 2 n_r + n_D matrix, r the other n_r dofs of p,

      H~ = [[I - G_r G_r', R_rr, R_rD L_T], [R_rr', 0, 0],
            [L_T' R_rD', 0, I - L_T' L_T]],   G_r = G[r, :].

  Q is never formed: the reduction holds Y, R and H~ only.
  - Deflation is a rank-m congruence.  W lives on p, so B_W^{-1} is N but
    for its pp block L_p (I - c U U') L_p', with c = 1 / (1 + gamma) and U
    an orthonormal basis of range(L_p' W_p).  That is L_p (I + s U U')^2
    L_p' with s = r - 1, r = (1 - c)^{1/2}, so the reduction runs on
    Y (I + t U U'), t = 1/r - 1, and G = R[:, D] + s (R U) U[D, :]'.  D is
    first rotated by the Q_D of U[D] = Q_D [R_U; 0], in place on Y, so
    that U touches only the first m_D = min(m, n_D) of D (none where W is
    off D); H~ takes the rest of D for D.
  - L_u is a `precond.BandCholesky` per component of N_uu, at any size;
    one not positive definite declines the reduction.  Only Y'Y (and V'V
    in the certificate) enters, so any L_u L_u' = N_uu serves, and Y's u
    rows are `half_solve`s on the columns each component couples to.  L_p
    is a dense Cholesky factor per component of N_pp, a diagonal on the
    single dofs, which come last.  R comes from a Householder QR of Y.
  - Certificate: with Delta = N_uu - A_uu - A_uD N_DD^{-1} A_Du (sparse),
    ||L_u^{-1} Delta L_u^{-T}||_F <= n eps ||G'G||_F = n eps ||G G'||_F,
    from half-solves on Delta's nonzero columns only.  By Weyl it bounds
    the eigenvalue error the reduction neglects.
  The reduction calls scipy's LAPACK/BLAS only: numpy's `@` wakes numpy's
  own BLAS thread pool, whose idle workers spin next to scipy's.
- A pencil without this structure, or whose certificate fails (a NaN
  fails it too), goes to LAPACK's ``sygv`` (scipy ``driver="gv"``) in
  Fortran order, so that LAPACK works in place.  B_W^{-1} is formed only
  here, as a rank-m update of the dense N.
- Budget: before it allocates a dense array, each path estimates the bytes
  it will hold and raises a BudgetError over DENSE_BUDGET.  The reduction
  holds at most 8 (n_u n_p + 4 n_p^2) bytes for Y and H~ plus its band and
  dense factors, ``sygv`` 16 n^2; a deflation's n x m arrays are not counted.
- Heap: the freed heap is handed back to the OS (`_release_heap`) before
  H~ is allocated and when `generalized_eigs` has its eigenvalues.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack
from scipy.sparse import csgraph

from .precond import BandCholesky

# bytes the dense path may hold (the `_check_budget` estimate): EN and NN
# need 0.62-0.63 GB at nref 3 (by the reduction) and 9.6 GB at nref 4
DENSE_BUDGET = 2 * 2**30
# an eliminated dof's eigenvalue A_ii / N_ii is 1 up to this
UNIT_TOL = 1e-12
# block size of the saddle-point reduction's QR; of 32, 64, 128 and n_p
# the fastest on EN and NN at nref 1 and 2
QR_BLOCK = 128


def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has no such
    symbol."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


def _release_heap():
    """Return the C heap's free pages to the OS, where glibc can.

    Once a dense array as large as Y or H is freed, glibc raises its mmap
    threshold to that size, so later arrays of that size come from the
    heap, and a freed block that the next array does not fit stays
    resident: without this, the peak resident set of repeated eigensolves
    climbs pass after pass while the memory in use does not."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


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


def _check_budget(nbytes):
    if nbytes > DENSE_BUDGET:
        raise BudgetError(f"dense eigensolve would hold {nbytes:.3g} bytes, "
                          f"over the dense budget of {DENSE_BUDGET:.3g} bytes")


def generalized_eigs(A, N, n_eliminated=0, deflation=None):
    """Full spectrum of the pencil (A, N), A and N sparse or dense; with a
    `deflation`, that of B_W A: the pencil (A, B_W^{-1}), B_W = N^{-1} + W
    E^{-1} W' and E = gamma W'NW, by Woodbury B_W^{-1} = N - N W ((1 +
    gamma) W'NW)^{-1} W'N.  Dense, guarded by DENSE_BUDGET bytes (a
    BudgetError); see the module docstring for the paths."""
    A, N = sp.csr_matrix(A), sp.csr_matrix(N)
    coupled = _coupled(A) | _coupled(N)
    W = gamma = None
    if deflation is not None:       # B_W^{-1} couples the rows of W
        coupled |= deflation.W.any(axis=1)
    keep, free = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    A_c, N_c = A[keep][:, keep], N[keep][:, keep]
    if deflation is not None:
        W, gamma = deflation.W[keep], deflation.gamma
    lam = _saddle_eigs(A_c, N_c, W, gamma)
    if lam is None:
        # an upper bound: two n x n matrices, the decoupled dofs counted too
        _check_budget(16 * A.shape[0] ** 2)
        M = N_c.toarray(order="F")
        if W is not None:
            # B_W^{-1} = N - X X', X = N W L^{-T}, L L' = (1 + gamma) W'NW
            NW = N_c @ W
            L = sla.cholesky((1.0 + gamma) * blas.dgemm(1.0, W, NW, trans_a=1),
                             lower=True)
            X = blas.dtrsm(1.0, L, NW, side=1, lower=1, trans_a=1)
            M = blas.dgemm(-1.0, X, X, 1.0, M, trans_b=1, overwrite_c=1)
        lam = sla.eigh(A_c.toarray(order="F"), M, eigvals_only=True,
                       driver="gv", overwrite_a=True, overwrite_b=True)
        del M
    _release_heap()
    exact = A.diagonal()[free] / N.diagonal()[free]
    return Spectrum(np.sort(np.concatenate([lam, exact])), n_eliminated)


def _saddle_eigs(A, N, W, gamma):
    """Eigenvalues of the sparse pencil (A, N), or of (A, B_W^{-1}) for the
    deflation vectors W (None for none) on the same dofs and its weight
    gamma, by the certified saddle-point reduction of the module
    docstring, or None where it does not apply."""
    zero = A.diagonal() == 0
    u, p = np.flatnonzero(~zero), np.flatnonzero(zero)
    n_u, n_p = len(u), len(p)
    if not 0 < n_p <= n_u or A[p][:, p].count_nonzero() \
            or N[u][:, p].count_nonzero() \
            or W is not None and W[u].any():
        return None
    u_order, u_blocks = _components(N[u][:, u])
    p_order, p_blocks = _components(N[p][:, p])
    # D, the single pressure dofs, come last, after a coupled component
    if p_blocks[-1][1] or len(p_blocks) == 1:
        return None
    u, p = u[u_order], p[p_order]
    N_uu, N_pp, A_up = N[u][:, u], N[p][:, p], A[u][:, p].tocsc()
    try:
        u_facs = [BandCholesky(N_uu[b, b], "N_uu") for b, _ in u_blocks]
    except ValueError:      # a component is not positive definite
        return None
    # Y (n_u x n_p) and H~ (at most 2 n_p x 2 n_p) do not coexist, so this
    # bounds the peak; the dense pressure factors are at most n_p^2 together
    _check_budget(8 * (n_u * n_p + 4 * n_p ** 2
                       + sum((b.stop - b.start) ** 2 for b, c in p_blocks
                             if c))
                  + sum(f.nbytes for f in u_facs))
    try:
        p_facs = [_pressure_factor(N_pp[b, b], c) for b, c in p_blocks]
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
    D = p_blocks[-1][0]
    n_D, m_D = D.stop - D.start, 0
    if W is not None:
        # B_W^{-1}'s pp block is L_p (I + s U U')^2 L_p', U an orthonormal
        # basis of range(L_p' W_p): Y becomes Y (I + t U U'), 1 + t = 1/(1 + s)
        V = np.asfortranarray(W[p], dtype=float)
        for (b, _), L in zip(p_blocks, p_facs):
            V[b] = (L[:, None] * V[b] if L.ndim == 1
                    else blas.dtrmm(1.0, L, V[b], lower=1, trans_a=1))
        U = sla.qr(V, mode="economic", check_finite=False)[0]
        if U[D].any():
            # rotate D in place so that U touches its first m_D dofs only
            qr, tau = lapack.dgeqrf(U[D])[:2]
            m_D = len(tau)
            lapack.dormqr("R", "N", qr[:, :m_D], tau, Y[:, D], n_u,
                          overwrite_c=1)
            U[D] = np.triu(qr)
        c = 1.0 / (1.0 + gamma)
        r = np.sqrt(gamma * c)          # sqrt(1 - c), without cancellation
        t, s = c / (r * (1.0 + r)), -c / (1.0 + r)
        Y = blas.dgemm(t, blas.dgemm(1.0, Y, U), U, trans_b=True, beta=1.0,
                       c=Y, overwrite_c=1)
    # compact-WY Householder QR, its panels in level-3 BLAS (scipy's qr
    # spends most of its time in level-2 calls); only R is kept
    V = lapack.dgeqrt(min(n_p, QR_BLOCK), Y, overwrite_a=True)[0]
    R = np.triu(V[:n_p])
    del Y, V

    # L_p[D, D] = N_DD^{1/2}: G = R (I + s U U')[:, D] gives Q'ZQ = G G'
    G = np.asfortranarray(R[:, D])
    if W is not None:
        G = blas.dgemm(s, blas.dgemm(1.0, R, U), U[D], trans_b=True,
                       beta=1.0, c=G, overwrite_c=1)
    GG = blas.dsyrk(1.0, G, trans=1)    # upper triangle of G'G
    diag = GG.diagonal()
    GG_norm = np.sqrt(2.0 * lapack.dlange("F", GG) ** 2 - np.sum(diag * diag))
    del GG

    # certificate: ||L_u^{-1} Delta L_u^{-T}||_F, Delta = N_uu - A_uu -
    # A_uD N_DD^{-1} A_Du, from the half-solves V = L_u^{-1} on Delta's
    # nonzero columns c: its square is tr(V'V Delta_cc V'V Delta_cc)
    A_uD = A_up[:, D]
    Delta = (N_uu - A[u][:, u] - A_uD @ sp.diags(1.0 / p_facs[-1] ** 2)
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

    # H~ on r, the n_r dofs before E, and E, the last n_E of D, where U = 0
    n_r, n_E = n_p - n_D + m_D, n_D - m_D
    # Y, freed above, left a hole in the heap that H~ does not fit
    _release_heap()
    H = np.zeros((2 * n_r + n_E,) * 2, order="F")
    np.negative(blas.dsyrk(1.0, G[:n_r]), out=H[:n_r, :n_r])
    del G
    H[:n_r, n_r:2 * n_r] = R[:n_r, :n_r]
    if n_E:
        # F, the upper Cholesky factor of T = I + R_EE' R_EE, is L_T'
        F = lapack.dpotrf(blas.dsyrk(1.0, R[n_r:, n_r:], trans=1, beta=1.0,
                                     c=np.eye(n_E)))[0]
        H[:n_r, 2 * n_r:] = blas.dtrmm(1.0, F, R[:n_r, n_r:], side=1,
                                       trans_a=1)
        H[2 * n_r:, 2 * n_r:] = -lapack.dlauum(F)[0]
    del R
    i = np.r_[:n_r, 2 * n_r:len(H)]
    H[i, i] += 1.0
    lam = sla.eigvalsh(H, lower=False, overwrite_a=True, check_finite=False)
    return np.concatenate([lam, np.ones(n_u - n_p + n_E)])


def _components(M):
    """The order that makes every connected component of the pattern of the
    sparse M contiguous, single dofs last, and a list of (slice, coupled)
    in that order: a component, or the run of single dofs with coupled
    False."""
    _, label = csgraph.connected_components(M, directed=False)
    single = np.bincount(label)[label] == 1
    order = np.lexsort((label, single))
    label = label[order]
    n = len(label) - np.count_nonzero(single)
    starts = np.r_[0, np.flatnonzero(np.diff(label[:n])) + 1]
    ends = np.r_[starts[1:], n]
    blocks = [(slice(a, b), True) for a, b in zip(starts, ends) if b > a]
    return order, blocks + ([(slice(n, len(label)), False)]
                            if n < len(label) else [])


def _pressure_factor(M, coupled):
    """Dense lower Cholesky factor of the SPD sparse M, or the vector of
    square roots of its diagonal where M is the run of single dofs."""
    if coupled:
        return sla.cholesky(M.toarray(), lower=True, overwrite_a=True,
                            check_finite=False)
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
