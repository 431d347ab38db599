"""Dense generalized eigenanalysis of the preconditioned operator.

Solves A x = lam N x with N the SPD Riesz map (reduction to a symmetric
standard problem happens inside scipy's generalized eigh).  Condition
numbers are magnitude ratios of extreme eigenvalues; the effective variant
drops a given number of smallest-magnitude (near-kernel) eigenvalues.
Eliminated essential dofs contribute exact unit eigenvalues, which stay in
the reported spectrum but can be filtered out of the two-interval hull.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

DENSE_BUDGET = 6000


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

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["index", "eigenvalue"])
            for i, v in enumerate(self.eigenvalues):
                wr.writerow([i, repr(float(v))])

    def summary(self, drop=1):
        lam = self.by_magnitude
        return {
            "n": int(len(lam)),
            "n_eliminated": int(self.n_eliminated),
            "lam_min_mag": float(lam[0]),
            "lam_max_mag": float(lam[-1]),
            "kappa": self.kappa(),
            "kappa_eff": self.kappa_eff(drop),
        }

    def save_summary(self, path, drop=1, extra=None):
        d = self.summary(drop)
        if extra:
            d.update(extra)
        with open(path, "w") as fh:
            json.dump(d, fh, indent=2)


def generalized_eigs(A, N, n_eliminated=0, budget=DENSE_BUDGET):
    """Full spectrum of the pencil (A, N); dense, guarded by `budget`."""
    n = A.shape[0]
    if n > budget:
        raise ValueError(
            f"dense eigensolve of dimension {n} exceeds the budget {budget}")
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
    Nd = N.toarray() if sp.issparse(N) else np.asarray(N)
    lam = sla.eigh(Ad, Nd, eigvals_only=True)
    return Spectrum(eigenvalues=lam, n_eliminated=n_eliminated)


def deflated_pencil_eigs(A, N, deflation, budget=DENSE_BUDGET):
    """Spectrum of the deflated-preconditioned operator B_W A.

    B_W = N^{-1} + W E^{-1} W' with the Cholesky factor of E stored in
    `deflation`; realized densely via the symmetric similarity L' A L with
    B_W = L L'.
    """
    n = A.shape[0]
    if n > budget:
        raise ValueError(
            f"dense eigensolve of dimension {n} exceeds the budget {budget}")
    Ad = A.toarray() if sp.issparse(A) else np.asarray(A)
    Nd = N.toarray() if sp.issparse(N) else np.asarray(N)
    W = deflation.W
    Bw = np.linalg.inv(Nd) + W @ sla.cho_solve(deflation.E, W.T)
    Bw = 0.5 * (Bw + Bw.T)
    L = np.linalg.cholesky(Bw)
    lam = sla.eigh(L.T @ Ad @ L, eigvals_only=True)
    return Spectrum(eigenvalues=lam, n_eliminated=0)


def two_interval_hull(eigenvalues, drop=0, n_unit=0, unit_tol=1e-12):
    """Interval hull (a, b, c, d) of the spectrum after near-kernel removal.

    Drops the `drop` smallest-magnitude eigenvalues, and up to `n_unit`
    eigenvalues equal to 1 within `unit_tol` (the eliminated-dof artifacts);
    unit eigenvalues are only filtered when at least n_unit of them exist.
    Returns a <= b < 0 < c <= d.
    """
    lam = np.asarray(eigenvalues)
    lam = lam[np.argsort(np.abs(lam))]
    lam = lam[drop:]
    if n_unit:
        ones = np.nonzero(np.abs(lam - 1.0) <= unit_tol)[0]
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
