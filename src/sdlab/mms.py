"""Manufactured smooth solution, its loads, and convergence measurement.

The exact fields are global formulas, usable on any of the package's
geometries:

    u_S = curl(cos(pi*(x+y))) = (-pi*sin(pi*(x+y)), pi*sin(pi*(x+y)))
    p_S = sin(2*pi*(x-y))
    p_D = sin(2*pi*(x-2*y))
    u_D = -K * grad(p_D)

The free-flow velocity is divergence-free; the porous mass source is
g_D = -K * lap(p_D) = 20*pi^2*K*sin(2*pi*(x-2*y)).  Since the fields do
not satisfy the interface conditions, the corresponding defects (mass,
normal stress, tangential slip) are part of the load data; they are
derived in closed form here and gated against a finite-difference oracle
in the test suite.

Reported errors: H1-seminorm of the free-flow velocity, L2 free-flow
pressure, L2 porous velocity divergence, L2 porous pressure, all with
degree-8 quadrature against the exact fields.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import elements as el
from .assembly import (LOAD_TRI_DEGREE, LoadData, PhysParams, _cell_rule,
                       _rt_divergence, assemble_system)
from .mesh import BcConfig, build_coupled_mesh, stacked_domain, tag_boundaries

ERROR_DEGREE = LOAD_TRI_DEGREE      # errors are measured on the load's rule


@dataclass(frozen=True)
class ExactSolution:
    mu: float = 3.0
    K: float = 1.0
    alpha_bjs: float = 0.5

    @property
    def beta_tau(self):
        return self.params().beta_tau

    # free-flow fields -------------------------------------------------
    @staticmethod
    def u_S(pts):
        s = np.sin(np.pi * (pts[:, 0] + pts[:, 1]))
        return np.pi * np.column_stack([-s, s])

    @staticmethod
    def grad_u_S(pts):
        """grad[i, j] = d u_i / d x_j, shape (n, 2, 2)."""
        c = np.pi ** 2 * np.cos(np.pi * (pts[:, 0] + pts[:, 1]))
        g = np.empty((len(pts), 2, 2))
        g[:, 0, 0] = -c
        g[:, 0, 1] = -c
        g[:, 1, 0] = c
        g[:, 1, 1] = c
        return g

    def eps_u_S(self, pts):
        g = self.grad_u_S(pts)
        return 0.5 * (g + np.swapaxes(g, 1, 2))

    @staticmethod
    def p_S(pts):
        return np.sin(2.0 * np.pi * (pts[:, 0] - pts[:, 1]))

    def f_S(self, pts):
        """-2*mu*div(eps(u_S)) + grad(p_S)."""
        s = np.sin(np.pi * (pts[:, 0] + pts[:, 1]))
        c2 = np.cos(2.0 * np.pi * (pts[:, 0] - pts[:, 1]))
        fx = -2.0 * self.mu * np.pi ** 3 * s + 2.0 * np.pi * c2
        fy = 2.0 * self.mu * np.pi ** 3 * s - 2.0 * np.pi * c2
        return np.column_stack([fx, fy])

    def stokes_stress_n(self, pts, n):
        """(2*mu*eps(u_S) - p_S I) n for unit normals n, (2,) or (n, 2)."""
        n = np.broadcast_to(n, pts.shape)
        sn = 2.0 * self.mu * np.einsum("kij,kj->ki", self.eps_u_S(pts), n)
        return sn - self.p_S(pts)[:, None] * n

    # porous fields ----------------------------------------------------
    @staticmethod
    def p_D(pts):
        return np.sin(2.0 * np.pi * (pts[:, 0] - 2.0 * pts[:, 1]))

    @staticmethod
    def grad_p_D(pts):
        c = np.cos(2.0 * np.pi * (pts[:, 0] - 2.0 * pts[:, 1]))
        return 2.0 * np.pi * np.column_stack([c, -2.0 * c])

    def u_D(self, pts):
        return -self.K * self.grad_p_D(pts)

    def div_u_D(self, pts):
        return 20.0 * np.pi ** 2 * self.K * self.p_D(pts)

    # interface defects ------------------------------------------------
    # normals and tangents are (2,) or one per point, (n, 2)
    def mass_defect(self, pts, n_S):
        """u_S . n_S + u_D . n_D along the interface."""
        n = np.broadcast_to(n_S, pts.shape)
        return (np.einsum("ki,ki->k", self.u_S(pts), n)
                - np.einsum("ki,ki->k", self.u_D(pts), n))

    def normal_stress_defect(self, pts, n_S):
        """p_D - p_S + 2*mu * n'eps(u_S)n."""
        n = np.broadcast_to(n_S, pts.shape)
        enn = np.einsum("ki,kij,kj->k", n, self.eps_u_S(pts), n)
        return self.p_D(pts) - self.p_S(pts) + 2.0 * self.mu * enn

    def slip_defect(self, pts, n_S, tau):
        """2*mu * tau'eps(u_S)n + beta_tau * u_S.tau."""
        n = np.broadcast_to(n_S, pts.shape)
        t = np.broadcast_to(tau, pts.shape)
        etn = np.einsum("ki,kij,kj->k", t, self.eps_u_S(pts), n)
        return (2.0 * self.mu * etn
                + self.beta_tau * np.einsum("ki,ki->k", self.u_S(pts), t))

    def params(self):
        return PhysParams(mu=self.mu, K=self.K, alpha_bjs=self.alpha_bjs)

    def loads(self):
        return LoadData(
            f_S=self.f_S,
            g_D=self.div_u_D,
            g_gamma=self.mass_defect,
            t_n=self.normal_stress_defect,
            t_t=self.slip_defect,
            stokes_traction=lambda pts, n, _tag: self.stokes_stress_n(pts, n),
            darcy_pressure=self.p_D,
            u_S_essential=self.u_S,
            u_D_essential=self.u_D,
        )


def compute_errors(system, x, exact):
    """(u_S H1-seminorm, p_S L2, div u_D L2, p_D L2) errors of a solution,
    with the per-mesh cell rule of the load vector."""
    mesh, layout = system.mesh, system.layout
    pts, _ = el.triangle_rule(ERROR_DEGREE)

    xq, W = _cell_rule(mesh, "stokes")
    flat = xq.reshape(-1, 2)
    _, inv, _ = el.affine_maps(mesh.cell_coords(layout.stokes_cells))
    cs = layout.stokes_cell_scalar
    coef = np.stack([x[layout.velocity_dof(a, cs)] for a in range(2)], axis=1)
    # grad_h[c, i, q, j] = d_j u_i at point q: the reference gradients of
    # u_i for all cells in one BLAS product, then mapped by each cell's
    # inverse Jacobian, so that the (nc, 6, nq, 2) basis gradients are
    # never formed; the largest arrays here, so updated in place
    ref = coef.reshape(-1, 6) @ el.p2_grads(pts).reshape(6, -1)
    grad_h = (ref.reshape(len(W), -1, 2) @ inv).reshape(len(W), 2, -1, 2)
    del ref
    grad_ex = exact.grad_u_S(flat).reshape(len(W), -1, 2, 2).transpose(0, 2, 1, 3)
    grad_h -= grad_ex
    del grad_ex
    np.square(grad_h, out=grad_h)
    e1 = np.sqrt(np.einsum("ciqj,cq->", grad_h, W))

    psi = el.p1_basis(pts)
    pcoef = x[layout.offsets["p_S"] + cs[:, :3]]
    p_h = pcoef @ psi
    p_ex = exact.p_S(flat).reshape(p_h.shape)
    e2 = np.sqrt(np.einsum("cq,cq->", (p_h - p_ex) ** 2, W))

    dxq, Wd = _cell_rule(mesh, "darcy")
    dxq = dxq.reshape(-1, 2)
    _, _, div = _rt_divergence(mesh, layout)
    ucoef = x[layout.offsets["u_D"] + layout.darcy_cell_facets]
    div_h = np.einsum("ck,ck->c", ucoef, div)
    dive = exact.div_u_D(dxq).reshape(Wd.shape) - div_h[:, None]
    e3 = np.sqrt(np.einsum("cq,cq->", dive ** 2, Wd))

    pd = x[layout.field_slice("p_D")]
    pde = exact.p_D(dxq).reshape(Wd.shape) - pd[:, None]
    e4 = np.sqrt(np.einsum("cq,cq->", pde ** 2, Wd))
    return float(e1), float(e2), float(e3), float(e4)


@dataclass
class MmsReport:
    levels: list          # nref values
    h: list
    errors: np.ndarray    # (nlevels, 4)
    times: list

    ERROR_NAMES = ("uS_H1semi", "pS_L2", "divuD_L2", "pD_L2")
    TARGET_RATES = (2.0, 2.0, 1.0, 1.0)
    RATE_TOL = (0.15, 0.15, 0.1, 0.1)

    def rates(self):
        e = self.errors
        return np.log2(e[:-1] / e[1:])

    def final_rates(self):
        return self.rates()[-1]

    def rates_ok(self):
        r = self.final_rates()
        return bool(np.all(np.abs(r - np.array(self.TARGET_RATES))
                           <= np.array(self.RATE_TOL)))

    def to_csv(self, path):
        rates = self.rates()
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            header = ["nref", "h"]
            for name in self.ERROR_NAMES:
                header += [name, name + "_rate"]
            wr.writerow(header)
            for i, nref in enumerate(self.levels):
                row = [nref, repr(float(self.h[i]))]
                for j in range(4):
                    row.append(repr(float(self.errors[i, j])))
                    row.append("" if i == 0 else repr(float(rates[i - 1, j])))
                wr.writerow(row)


def mms_case(nref, n0=4, exact=None, config=BcConfig.NESTAR):
    """Assembled manufactured-solution system on the stacked geometry.

    The boundary configuration is free so the same data can drive the
    solver experiments on any single-interface tag layout.
    """
    exact = exact or ExactSolution()
    mesh = build_coupled_mesh(stacked_domain(n0), nref)
    tag_boundaries(mesh, config)
    return assemble_system(mesh, exact.params(), exact.loads())


def run_convergence(nref_max=4, n0=4, exact=None):
    """Solve the manufactured problem on a refinement ladder."""
    import time

    exact = exact or ExactSolution()
    levels, hs, errs, times = [], [], [], []
    for nref in range(nref_max + 1):
        t0 = time.perf_counter()
        system = mms_case(nref, n0=n0, exact=exact)
        x = spla.spsolve(system.A.tocsc(), system.b)
        errs.append(compute_errors(system, x, exact))
        times.append(time.perf_counter() - t0)
        levels.append(nref)
        hs.append(system.mesh.h)
    return MmsReport(levels=levels, h=hs, errors=np.array(errs), times=times)
