"""Preconditioned MINRES with harmonic Ritz convergence diagnostics.

The private generator `_recurrence` runs one solve's three-term
Lanczos/Givens recurrence for an SPD preconditioner B, minimizing the
B-norm of the residual.  It computes no product: it yields its Lanczos
vector v and is sent A v, yields its residual r and is sent B r, then
updates x in place, yields the step, and returns the reason it stopped.
`minres_solve` drives one recurrence and owns x, maxit, the counts and the
log.  With `diagnostic` it re-orthogonalizes each r twice against the
stored Lanczos basis (block classical Gram-Schmidt, in place in two row
buffers) before applying B.  A lockstep driver would send k recurrences
the columns of one block product with A and one with B.  After the loop
the harmonic Ritz values of the preconditioned operator at every step are
computed from the logged coefficients, one step at a time.

The harmonic Ritz values at step k (Paige, Parlett & van der Vorst 1995)
are the eigenvalues theta of the pencil (T_k' T_k + b^2 e_k e_k', T_k),
b = beta_{k+1}.  They are computed as the nonzero eigenvalues of the
(k+1) x (k+1) symmetric tridiagonal

    T^ = [[T_k, b e_k], [b e_k', b^2 e_k' T_k^{-1} e_k]],

which has one exact zero eigenvalue besides them: one tridiagonal solve
(LAPACK dgtsv) and one tridiagonal eigensolve (dstevd, eigenvalues only)
per step instead of a k x k dense pencil.  They are called directly, the
routines scipy's `solve_banded` and `eigvalsh_tridiagonal` reach after
their argument checks, which cost more than the solves on these short
tridiagonals.  The pencil's right-hand side T_k'T_k + b^2 e_k e_k' squares
the condition of T_k.  On the logged coefficients of the criterion-5 solve
(EN, nref 2, mu = K = 1e-4; k = 84..110, theta_min down to 6.6e-8) the
pencil's smallest harmonic Ritz value was off by 6.9e-7 to 7.3e-3 relative
to a 50-digit reference, the tridiagonal by at most 1.2e-8.

Given the true generalized eigenvalues, the per-iteration quantity F_k
measures how much the residual bound degrades while the harmonic Ritz
value closest to the smallest-magnitude eigenvalue has not yet converged:

    F = max_{k>=2} (|theta_1| / |lam_1|) * |lam_1 - lam_k| / |theta_1 - lam_k|

with a +inf sentinel when theta_1 collides with another true eigenvalue.
After the loop lam_1, the other eigenvalues and |lam_1 - lam_k| are taken
once per solve, and F is evaluated for all steps at once, over blocks of
steps of at most FK_BLOCK_BYTES each.

Together with the two-interval contraction factor rho of the remaining
spectrum this yields the a-posteriori residual bound checked by
`check_convergence_bound`:  r_{m+j} <= 2 * F_m * rho^(j//2) * r_0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

COLLISION_TOL = 1e-14       # |theta_1 - lam_k| below this: F_k = inf
FK_BLOCK_BYTES = 2 ** 21    # one (steps x eigenvalues) array of the F_k pass
PLATEAU_LEN, PLATEAU_FACTOR = 10, 0.99  # a plateau: >= 10 steps of < 1%
ABS_FLOOR = 1e-14           # residual floor against roundoff stagnation
BOUND_SLACK = 1.0 + 1e-9    # roundoff allowance of check_convergence_bound


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
    a_matvecs: int = 0             # products with A
    b_applies: int = 0             # preconditioner applications

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
    ones are the nonzero eigenvalues of T_k; so too when b^2 e_k'T_k^{-1}e_k
    overflows.  A 1 x 1 T_k is divided, not factored, and a 1 x 1 matrix's
    eigenvalue is its entry, as in scipy's `solve_banded` and
    `eigvalsh_tridiagonal`, so the values stay bitwise equal to theirs.
    """
    if not 1 <= k <= len(alphas):
        raise ValueError(f"step k = {k} is outside 1..{len(alphas)}, "
                         f"the steps of the log")
    a = np.asarray(alphas[:k], dtype=float)
    b = np.asarray(betas[:k], dtype=float)
    if k == 1:
        with np.errstate(divide="ignore"):
            t_kk = 1.0 / a[0]
    else:
        e_k = np.zeros(k)
        e_k[-1] = 1.0
        x, info = lapack.dgtsv(b[:-1], a, b[:-1], e_k, overwrite_b=True)[3:]
        t_kk = x[-1] if info == 0 else np.inf     # info > 0: T_k singular
    corner = b[-1] ** 2 * t_kk if np.isfinite(t_kk) else np.inf
    d, e = (np.append(a, corner), b) if np.isfinite(corner) else (a, b[:-1])
    if len(d) == 1:
        theta = d
    else:
        theta, _, info = lapack.dstevd(d, e, compute_v=False)
        if info:
            raise np.linalg.LinAlgError("dstevd did not converge")
    # drop the exact zero (of T^, or of a singular T_k)
    return theta[np.argsort(np.abs(theta))][1:]


def _split_smallest(eigenvalues):
    """lam_1, the eigenvalue of smallest magnitude, and the others."""
    lams = np.asarray(eigenvalues)
    first = np.argmin(np.abs(lams))
    return lams[first], np.delete(lams, first)


def _fk_rows(theta1, lam1, rest):
    """F_k for each theta_1 in `theta1` (NaN where theta_1 is NaN), given
    lam_1 and the other eigenvalues `rest`; evaluated over blocks of rows
    of at most FK_BLOCK_BYTES per array."""
    Fk = np.full(len(theta1), np.nan)
    rows = np.flatnonzero(~np.isnan(theta1))
    gap = np.abs(lam1 - rest)
    step = max(1, FK_BLOCK_BYTES // (8 * len(rest)))
    for s in range(0, len(rows), step):
        i = rows[s:s + step]
        t = theta1[i, None]
        dens = t - rest
        np.abs(dens, out=dens)
        f = (np.abs(t) / np.abs(lam1)) * gap
        with np.errstate(divide="ignore", invalid="ignore"):
            f /= dens                   # a zero of dens is a collision
        Fk[i] = f.max(axis=1)
        Fk[i[(dens < COLLISION_TOL).any(axis=1)]] = np.inf
    return Fk


def detect_plateaus(residuals):
    """Windows of >= PLATEAU_LEN consecutive iterations with < 1% reduction.

    Returns [(start, end)] iteration index pairs, residuals[end]/
    residuals[start] covering the slow stretch.
    """
    r = np.asarray(residuals)
    slow = np.concatenate([[False], r[1:] > PLATEAU_FACTOR * r[:-1], [False]])
    # the steps where a slow stretch starts and where it ends, alternately
    edges = np.flatnonzero(slow[1:] != slow[:-1]).tolist()
    return [(start, end) for start, end in zip(edges[::2], edges[1::2])
            if end - start >= PLATEAU_LEN]


def _recurrence(x, r, y, beta1, target):
    """The MINRES recurrence from x = 0, residual r and y = B r, with
    r'y = beta1^2 > 0.  Each step yields v and r (module docstring), then
    (alpha, beta, |phibar|) once it has updated x in place.  It returns
    "converged" once |phibar| <= target, or "breakdown"; "indefinite",
    "nonfinite" or "breakdown" in place of a step, which is not taken: the
    last where the Givens diagonal gamma is at the roundoff of T_{k+1,k}
    (T_k singular: x would move along its null direction)."""
    n = len(r)
    oldb, beta = 0.0, beta1
    tnorm = 0.0     # sum of |alpha_i| + beta_{i+1}, at least |T_{k+1,k}|
    dbar = epsln = sn = 0.0
    cs = -1.0
    phibar = beta1
    # the recurrences run in place, in these buffers and A v, one numpy
    # ufunc per operation as in `x = x + phi * w`, so every value is
    # rounded as there (no fused multiply-add)
    v, tmp = np.empty(n), np.empty(n)
    w, w1, w2 = np.zeros(n), np.zeros(n), np.zeros(n)
    r1 = r2 = r
    while True:
        np.divide(y, beta, out=v)
        yv = yield v
        if oldb > 0.0:              # not the first step
            np.multiply(r1, beta / oldb, out=tmp)
            yv -= tmp
        alfa = float(v @ yv)
        np.multiply(r2, alfa / beta, out=tmp)
        yv -= tmp
        r1, r2 = r2, yv
        y = yield r2
        oldb = beta
        betasq = float(r2 @ y)
        # r'Br < 0 beyond roundoff, which an SPD B cannot give; the norms
        # set the scale only for a negative inner product
        if betasq < 0.0 and betasq < -1e-12 * max(
                np.linalg.norm(r2) * np.linalg.norm(y), 1e-300):
            return "indefinite"
        beta = np.sqrt(max(betasq, 0.0))

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        tnorm += abs(alfa) + beta
        # an infinite T is left to the "nonfinite" test below
        if gamma <= np.finfo(float).eps * tnorm < np.inf:
            return "breakdown"
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        if not (np.isfinite(beta) and np.isfinite(phibar)):
            return "nonfinite"
        # w1, w2, w = w2, w, (v - oldeps * w1 - delta * w2) / gamma
        w1, w2, w = w2, w, w1
        np.multiply(w1, oldeps, out=tmp)
        np.subtract(v, tmp, out=w)
        np.multiply(w2, delta, out=tmp)
        w -= tmp
        w /= gamma
        np.multiply(w, phi, out=tmp)
        np.add(x, tmp, out=x)
        yield alfa, beta, abs(phibar)
        if abs(phibar) <= target:
            return "converged"
        if beta <= 1e-14 * beta1:
            return "breakdown"


def minres_solve(A, b, precond, reduction=1e-12, maxit=1000, diagnostic=False,
                 eigenvalues=None):
    """Preconditioned MINRES on the symmetric indefinite system A x = b.

    `precond` is a callable applying the SPD preconditioner.  Residual
    norms are preconditioner norms; iteration starts from x = 0 and stops
    on a relative reduction (with the absolute floor ABS_FLOOR), at
    maxit, on Lanczos breakdown, with reason "nonfinite" as soon as a NaN
    or inf reaches the recurrence, or with reason "indefinite" when the
    preconditioner shows it is not positive definite (a negative inner
    product, or a nonzero residual mapped to zero); x and the log then
    end at the last good step, and a first residual without a B-norm is
    logged as NaN.  With `diagnostic` the Lanczos basis is
    re-orthogonalized, and the harmonic Ritz values (plus F_k when the
    true `eigenvalues` are supplied) of every iteration are computed from
    the logged Lanczos coefficients after the loop.
    """
    x = np.zeros(len(b))
    r = np.asarray(b, dtype=float).copy()
    y = precond(r)
    a_matvecs, b_applies = 0, 1
    beta1 = np.sqrt(max(float(r @ y), 0.0))
    residuals = [beta1]
    alphas, betas = [], []
    basis = None
    if not np.isfinite(beta1):
        reason = "nonfinite"
    elif beta1 == 0.0:
        if np.linalg.norm(r) > 0.0:
            # r @ y <= 0 for a nonzero r: there is no B-norm to log
            reason = "indefinite"
            residuals = [np.nan]
        else:
            reason = "converged"
    else:
        if diagnostic:
            basis = _LanczosBasis(r, y, beta1)
        steps = _recurrence(x, r, y, beta1, max(reduction * beta1, ABS_FLOOR))
        try:
            for _ in range(maxit):
                r = steps.send(A @ next(steps))
                a_matvecs += 1
                if diagnostic:
                    basis.project_out(r)
                    basis.project_out(r)
                y = precond(r)
                b_applies += 1
                alfa, beta, phibar = steps.send(y)
                alphas.append(alfa)
                betas.append(beta)
                residuals.append(phibar)
                if diagnostic and beta > 0.0:
                    basis.append(r, y, beta)
            next(steps)     # the maxit-th step may have stopped the run
            reason = "maxit"
        except StopIteration as stop:
            reason = stop.value       # x and the log end at its last step

    residuals = np.array(residuals)
    alphas, betas = np.array(alphas), np.array(betas)
    theta_min = Fk = None
    if diagnostic:
        theta_min = np.full(len(residuals), np.nan)
        theta1 = theta_min.copy()       # the harmonic Ritz value nearest lam_1
        split = (None if eigenvalues is None or len(eigenvalues) < 2
                 else _split_smallest(eigenvalues))
        for k in range(1, len(residuals)):
            theta = harmonic_ritz(alphas, betas, k)
            if len(theta):
                theta_min[k] = theta[0]
                if split is not None:
                    theta1[k] = theta[np.argmin(np.abs(theta - split[0]))]
        Fk = (np.full(len(residuals), np.nan) if split is None
              else _fk_rows(theta1, *split))
    return SolveLog(x=x, residuals=residuals, alphas=alphas, betas=betas,
                    reason=reason, theta_min=theta_min, Fk=Fk,
                    ortho_max=None if basis is None else basis.ortho_max(),
                    plateau_windows=detect_plateaus(residuals),
                    a_matvecs=a_matvecs, b_applies=b_applies)


def true_residual(A, b, x, precond):
    """||b - A x||_B, the preconditioner norm of the true residual, which
    the recursive residual of `minres_solve` tracks up to roundoff; NaN
    where r'Br < 0 (B not positive definite)."""
    r = b - A @ x
    inner = float(r @ precond(r))
    return np.sqrt(inner) if inner >= 0.0 else np.nan


class _LanczosBasis:
    """Lanczos vectors v_i = r_i / beta_i and z_i = B v_i, with z_i' v_j =
    delta_ij, stored as the rows of two buffers that double when full."""

    def __init__(self, r, z, beta):
        self._V = np.empty((32, len(r)))
        self._Z = np.empty((32, len(r)))
        self._m = 0
        self.append(r, z, beta)

    def append(self, r, z, beta):
        """Store v = r / beta and z / beta, divided into the buffers."""
        if self._m == len(self._V):
            self._V = np.concatenate([self._V, np.empty_like(self._V)])
            self._Z = np.concatenate([self._Z, np.empty_like(self._Z)])
        np.divide(r, beta, out=self._V[self._m])
        np.divide(z, beta, out=self._Z[self._m])
        self._m += 1

    def project_out(self, y):
        """y -= sum_i v_i (z_i' y) in place: one classical Gram-Schmidt
        sweep."""
        y -= self._V[:self._m].T @ (self._Z[:self._m] @ y)

    def ortho_max(self):
        """max |z_j' v_i - delta_ij| over the stored vectors."""
        G = self._V[:self._m] @ self._Z[:self._m].T
        return float(np.abs(G - np.eye(self._m)).max())


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
