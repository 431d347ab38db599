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
- A saddle-point pencil, A = [[A_uu, A_up], [A_pu, 0]] and N = diag(N_uu,
  N_pp) with p the dofs where A_ii = 0, is reduced first when N_uu - A_uu
  acts only through the coupling (Benzi, Golub & Liesen 2005, section 10).
  With N_uu = L_u L_u' and N_pp = L_p L_p' (dense Cholesky factors, one per
  connected component), the pencil is congruent to

      [[I - Z, Y], [Y', 0]],   Z = L_u^{-1} (N_uu - A_uu) L_u^{-T},
                               Y = L_u^{-1} A_up L_p^{-T} = Q R,

  Q with orthonormal columns (economic Householder QR).  If range(Z) lies in
  range(Q), every direction orthogonal to range(Q) is an eigenvector with
  eigenvalue exactly 1, and the rest of the spectrum is that of the 2 n_p
  matrix [[I - Q'Z Q, R], [R', 0]].  The reduction is orthogonal, so it is
  backward stable like ``sygv``; it forms no Schur complement.  It is
  certified: ||Z - Q Q'Z||_F <= n eps ||Z||_F, which bounds the eigenvalue
  error it neglects by 2 ||Z - Q Q'Z||_F (Weyl).  In sdlab the condition
  holds because N_uu - A_uu = (1/K) divdiv = B_D' (K p0)^{-1} B_D; on EN at
  nref 2 (mu = K = 1e-4) it reads 1.1e-13 against 8.0e-13, 1951 of the
  3585 coupled eigenvalues are exact ones, and the solve takes 0.91-1.02 s
  against 4.2-4.9 s for ``sygv`` (2 vCPUs).  A pencil without this
  structure, or whose certificate fails, goes to ``sygv`` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import blas, lapack
from scipy.sparse import csgraph

DENSE_BUDGET = 6000
# an eliminated dof's eigenvalue A_ii / N_ii is 1 up to this
UNIT_TOL = 1e-12
# block size of the saddle-point reduction's QR; of 32, 64, 128 and n_p
# the fastest on EN and NN at nref 1 and 2
QR_BLOCK = 128


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
    """Full spectrum of the pencil (A, N); dense, guarded by `budget`."""
    _check_budget(A, budget)
    return Spectrum(eigenvalues=_pencil_eigs(A, N), n_eliminated=n_eliminated)


def deflated_pencil_eigs(A, N, deflation, budget=DENSE_BUDGET):
    """Spectrum of the deflated-preconditioned operator B_W A.

    B_W = N^{-1} + W E^{-1} W' with E = gamma W' N W (`deflation`).  The
    eigenvalues of B_W A are those of the pencil (A, B_W^{-1}), and by
    Woodbury B_W^{-1} = N - N W ((1 + gamma) W' N W)^{-1} W' N, so no
    inverse of N is formed.  The correction is dense on the dofs where N W
    is nonzero only (the pressures and multipliers W lives on), so B_W^{-1}
    stays sparse elsewhere and keeps the saddle-point structure of N.
    """
    _check_budget(A, budget)
    W = deflation.W
    N = sp.csr_matrix(N)
    NW = N @ W
    s = np.flatnonzero(NW.any(axis=1))
    C = NW[s] @ sla.solve((1.0 + deflation.gamma) * (W.T @ NW), NW[s].T,
                          assume_a="pos")
    Bw_inv = N - sp.csr_matrix(
        (C.ravel(), (np.repeat(s, len(s)), np.tile(s, len(s)))), shape=N.shape)
    return Spectrum(eigenvalues=_pencil_eigs(A, Bw_inv), n_eliminated=0)


def _check_budget(A, budget):
    n = A.shape[0]
    if n > budget:
        raise ValueError(
            f"dense eigensolve of dimension {n} exceeds the budget {budget}")


def _pencil_eigs(A, N):
    """Eigenvalues of the symmetric-definite pencil (A, N), ascending;
    A and N sparse or dense.  Decoupled dofs are solved exactly, and a
    saddle-point pencil on its non-unit part only (see the module
    docstring)."""
    A, N = sp.csr_matrix(A), sp.csr_matrix(N)
    coupled = _coupled(A) | _coupled(N)
    keep, free = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    A_c, N_c = A[keep][:, keep], N[keep][:, keep]
    lam = _saddle_eigs(A_c, N_c)
    if lam is None:
        lam = sla.eigh(A_c.toarray(order="F"), N_c.toarray(order="F"),
                       eigvals_only=True, driver="gv", overwrite_a=True,
                       overwrite_b=True)
    exact = A.diagonal()[free] / N.diagonal()[free]
    return np.sort(np.concatenate([lam, exact]))


def _saddle_eigs(A, N):
    """Eigenvalues of the sparse pencil (A, N) by the certified saddle-point
    reduction of the module docstring, or None where it does not apply."""
    zero = A.diagonal() == 0
    u, p = np.flatnonzero(~zero), np.flatnonzero(zero)
    n_u, n_p = len(u), len(p)
    if not 0 < n_p <= n_u or A[p][:, p].count_nonzero() \
            or N[u][:, p].count_nonzero():
        return None
    A_uu, N_uu, N_pp = A[u][:, u], N[u][:, u], N[p][:, p]
    try:
        u_order, u_blocks = _cholesky_blocks(N_uu, abs(N_uu) + abs(A_uu))
        p_order, p_blocks = _cholesky_blocks(N_pp, N_pp)
    except np.linalg.LinAlgError:
        return None
    D = (N_uu - A_uu)[u_order][:, u_order]
    u, p = u[u_order], p[p_order]

    # Y' = L_p^{-1} (L_u^{-1} A_up)'; a u block is solved on the columns
    # it couples to only
    Y = A[u][:, p].toarray()
    for rows, L in u_blocks:
        cols = np.flatnonzero(Y[rows].any(axis=0))
        if len(cols):
            Y[rows, cols] = _lower_solve(L, Y[rows][:, cols])
    Y = Y.T.copy()
    for rows, L in p_blocks:
        Y[rows] = _lower_solve(L, Y[rows])
    # compact-WY Householder QR: its panels are factored recursively in
    # level-3 BLAS; scipy's qr (geqrf, orgqr) spent 0.02-0.05 s of a
    # 744 x 217 QR (NN, nref 1, 2 vCPUs) in level-2 calls, geqrt 0.008 s
    V, T, _ = lapack.dgeqrt(min(n_p, QR_BLOCK), Y.T, overwrite_a=True)
    Q = lapack.dgemqrt(V, T, np.eye(n_u, n_p, order="F"), overwrite_c=True)[0]
    R = np.triu(V[:n_p])

    # Z is block diagonal over the u components and zero where D is; the
    # certificate compares ||Z - Q Q'Z||_F with ||Z||_F.  The products go
    # to scipy's BLAS, as every other call here: numpy's `@` would wake the
    # thread pool of numpy's own BLAS, whose idle workers then spin next to
    # scipy's and slow down what runs after (NN at nref 1 on 2 vCPUs: 2x)
    QZQ = np.zeros((n_p, n_p))
    off = norm = 0.0
    for rows, L in u_blocks:
        D_c = D[rows, rows]
        if not D_c.count_nonzero():
            continue
        Z = _lower_solve(L, _lower_solve(L, D_c.toarray()).T)
        QZ = blas.dgemm(1.0, Q[rows], Z, trans_a=True)
        QZQ += blas.dgemm(1.0, QZ, Q[rows])
        E = blas.dgemm(1.0, Q, QZ)
        E[rows] -= Z
        off += np.sum(E * E)
        norm += np.sum(Z * Z)
    # written so that a NaN fails it too
    if not np.sqrt(off) <= (n_u + n_p) * np.finfo(float).eps * np.sqrt(norm):
        return None

    H = np.zeros((2 * n_p, 2 * n_p), order="F")
    H[:n_p, :n_p] = np.eye(n_p) - QZQ
    H[:n_p, n_p:] = R
    H[n_p:, :n_p] = R.T
    lam = sla.eigvalsh(H, overwrite_a=True, check_finite=False)
    return np.concatenate([lam, np.ones(n_u - n_p)])


def _cholesky_blocks(M, pattern):
    """Dense Cholesky factors of the SPD sparse M, one per connected
    component of `pattern`: the order that makes every component contiguous
    (single dofs first) and a list of (slice, L) in that order, where L is
    a lower-triangular factor or, for the run of single dofs, the vector of
    square roots of their diagonal."""
    _, label = csgraph.connected_components(pattern, directed=False)
    single = np.bincount(label)[label] == 1
    order = np.lexsort((label, ~single))
    M = M[order][:, order].tocsr()
    label = label[order]
    n1 = np.count_nonzero(single)
    blocks = []
    if n1:
        d = M.diagonal()[:n1]
        if not np.all(d > 0):
            raise np.linalg.LinAlgError("pencil is not definite")
        blocks.append((slice(0, n1), np.sqrt(d)))
    starts = np.flatnonzero(np.diff(label[n1:])) + n1 + 1
    for a, b in zip(np.r_[n1, starts], np.r_[starts, len(label)]):
        if b > a:
            blocks.append((slice(a, b), sla.cholesky(
                M[a:b, a:b].toarray(), lower=True, overwrite_a=True,
                check_finite=False)))
    return order, blocks


def _lower_solve(L, X):
    """L^{-1} X for a lower-triangular factor L, or a diagonal one given as
    the vector of its entries."""
    if L.ndim == 1:
        return X / L[:, None]
    return sla.solve_triangular(L, X, lower=True, check_finite=False)


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
