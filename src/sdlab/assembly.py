"""Assembly of the coupled saddle-point operator, Riesz map and load vector.

The symmetric block operator acts on (u_S, u_D, p_S, p_D, lam) and carries

* 2*mu*(eps(u), eps(v)) + beta_tau*(u.tau, v.tau)_Gamma   on the P2 block,
* (1/K)*(u, v)                                            on the RT block,
* -(div v, p) couplings in both subdomains,
* +(v_S.n_S, lam) and -(v_D.n_S, lam) interface couplings,

with the mass/flux rows negated so the whole matrix is symmetric and the
solved fields keep their physical sign.  Consequently a porous source g
enters the rhs as -(g, q) while an interface mass defect enters as +(g, phi).

The Riesz map (block-diagonal norm operator) uses the same velocity blocks
plus (1/K)*(div u, div v), the (1/(2*mu))-scaled P1 mass, the K-scaled P0
mass, and a supplied interface multiplier matrix.

Eliminated (essential) dofs keep unit diagonal rows in both matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .mesh import (STOKES, STOKES_NATURAL_TAGS, TAG_DARCY_NATURAL,
                   ConfigurationError, outward_normal, stokes_cell)
from .spaces import build_layout, essential_dofs, essential_values

OPERATOR_TRI_DEGREE = 4
OPERATOR_SEG_DEGREE = 5    # P2 trace products are quartic along a facet
LOAD_TRI_DEGREE = 8
LOAD_SEG_DEGREE = 9


@dataclass(frozen=True)
class PhysParams:
    mu: float = 1.0
    K: float = 1.0
    alpha_bjs: float = 0.5

    def __post_init__(self):
        for name in ("mu", "K"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value:g}")
        a = self.alpha_bjs
        if not (np.isfinite(a) and a >= 0):
            raise ConfigurationError(
                f"alpha_bjs must be non-negative and finite, got {a:g}")

    @property
    def beta_tau(self):
        """Slip coefficient alpha_bjs * sqrt(mu / K), always recomputed."""
        return self.alpha_bjs * np.sqrt(self.mu / self.K)


@dataclass
class LoadData:
    """Problem data; missing callables mean zero.

    Point arrays have shape (n, 2).  Interface callables receive the
    Stokes-to-Darcy unit normal (and the counterclockwise-rotated tangent
    where it matters); only tangent-quadratic combinations enter, so the
    tangent sign convention is immaterial.
    """

    f_S: object = None                 # (pts) -> (n, 2) free-flow body force
    g_D: object = None                 # (pts) -> (n,) porous mass source
    g_gamma: object = None             # (pts, n_S) -> (n,) interface mass defect
    t_n: object = None                 # (pts, n_S) -> (n,) normal-stress defect
    t_t: object = None                 # (pts, n_S, tau) -> (n,) slip defect
    stokes_traction: object = None     # (pts, n_out, tag) -> (n, 2)
    darcy_pressure: object = None      # (pts) -> (n,) natural porous pressure
    u_S_essential: object = None       # (pts) -> (n, 2)
    u_D_essential: object = None       # (pts) -> (n, 2)


class _Acc:
    """Sparse COO accumulator."""

    def __init__(self, n):
        self.n = n
        self.rows = []
        self.cols = []
        self.vals = []

    def add(self, rows, cols, vals):
        self.rows.append(np.broadcast_to(rows, vals.shape).ravel())
        self.cols.append(np.broadcast_to(cols, vals.shape).ravel())
        self.vals.append(np.asarray(vals, dtype=float).ravel())

    def matrix(self):
        r = np.concatenate(self.rows) if self.rows else np.empty(0, dtype=int)
        c = np.concatenate(self.cols) if self.cols else np.empty(0, dtype=int)
        v = np.concatenate(self.vals) if self.vals else np.empty(0)
        return sp.coo_matrix((v, (r, c)), shape=(self.n, self.n)).tocsr()


def _stokes_geometry(mesh, layout, degree):
    coords = mesh.cell_coords(layout.stokes_cells)
    pts, w = el.triangle_rule(degree)
    _, inv, det = el.affine_maps(coords)
    grads = el.physical_grads(inv, el.p2_grads(pts))
    weights = w[None, :] * np.abs(det)[:, None]
    return coords, pts, weights, grads


def _velocity_entries(mesh, layout, params, acc):
    """2*mu*(eps(u), eps(v)) over the free-flow cells plus the interface slip
    penalty; shared by operator and Riesz assembly."""
    _, pts, W, G = _stokes_geometry(mesh, layout, OPERATOR_TRI_DEGREE)
    mu = params.mu
    gd = np.einsum("caqi,cbqi,cq->cab", G, G, W)
    cr = np.einsum("caqi,cbqj,cq->cabij", G, G, W)
    cs = layout.stokes_cell_scalar
    for beta in range(2):
        rows = layout.velocity_dof(beta, cs)[:, None, :]       # (c, 1, b)
        for alpha in range(2):
            cols = layout.velocity_dof(alpha, cs)[:, :, None]  # (c, a, 1)
            vals = mu * cr[:, :, :, beta, alpha]
            if alpha == beta:
                vals = vals + mu * gd
            acc.add(rows, cols, vals)
    _slip_entries(mesh, layout, params, acc)


def _slip_entries(mesh, layout, params, acc):
    bt = params.beta_tau
    t, w = el.segment_rule(OPERATOR_SEG_DEGREE)
    for pos, f in enumerate(layout.interface_facets):
        n_S = layout.interface_normals[pos]
        tau = np.array([-n_S[1], n_S[0]])
        cell, phi, ds = _trace_data(mesh, layout, f, t, w)
        cs = layout.stokes_cell_scalar[cell]
        m = np.einsum("aq,bq,q->ab", phi, phi, ds)
        for beta in range(2):
            rows = layout.velocity_dof(beta, cs)[None, :]
            for alpha in range(2):
                cols = layout.velocity_dof(alpha, cs)[:, None]
                acc.add(rows, cols, bt * tau[alpha] * tau[beta] * m)


def _trace_data(mesh, layout, f, t, w):
    """P2 trace values of the adjacent free-flow cell on facet f."""
    cell = stokes_cell(mesh, f)
    cell_pos = np.searchsorted(layout.stokes_cells, cell)
    a, b = mesh.vertices[mesh.facets[f]]
    x = a[None, :] + t[:, None] * (b - a)[None, :]
    coords = mesh.cell_coords(np.array([cell]))
    _, inv, _ = el.affine_maps(coords)
    ref = (x - coords[0, 0][None, :]) @ inv[0].T
    phi = el.p2_basis(ref)
    ds = w * np.linalg.norm(b - a)
    return cell_pos, phi, ds


def _rt_basis(mesh, layout, degree):
    """RT basis values, divergences and weights on the porous cells."""
    coords = mesh.cell_coords(layout.darcy_cells)
    pts, w = el.triangle_rule(degree)
    _, _, det = el.affine_maps(coords)
    area = 0.5 * np.abs(det)
    x = el.physical_points(coords, pts)
    edge_len = np.stack([
        np.linalg.norm(coords[:, j] - coords[:, i], axis=1)
        for (i, j) in el.LOCAL_EDGES], axis=1)
    opp = np.stack([coords[:, el.OPPOSITE_VERTEX[k]] for k in range(3)], axis=1)
    signs = layout.darcy_cell_signs
    scale = signs * edge_len / (2.0 * area)[:, None]
    vals = scale[:, :, None, None] * (x[:, None, :, :] - opp[:, :, None, :])
    div = signs * edge_len / area[:, None]
    weights = w[None, :] * np.abs(det)[:, None]
    return vals, div, area, weights, x


def assemble_operator(mesh, layout, params):
    """The indefinite coupled operator (without essential elimination)."""
    n = layout.total_dofs
    acc = _Acc(n)
    _velocity_entries(mesh, layout, params, acc)

    # -(div v, p) on the free-flow side, and its transpose
    _, pts, W, G = _stokes_geometry(mesh, layout, OPERATOR_TRI_DEGREE)
    psi = el.p1_basis(pts)
    dv = -np.einsum("caqi,bq,cq->ciab", G, psi, W)
    cs = layout.stokes_cell_scalar
    off_ps = layout.offsets["p_S"]
    prow = off_ps + cs[:, None, :3]                            # (c, 1, b)
    for alpha in range(2):
        cols = layout.velocity_dof(alpha, cs)[:, :, None]      # (c, a, 1)
        acc.add(prow, cols, dv[:, alpha])
        acc.add(cols, prow, dv[:, alpha])

    rt, div, area, Wd, _ = _rt_basis(mesh, layout, OPERATOR_TRI_DEGREE)
    mass = np.einsum("ckqi,clqi,cq->ckl", rt, rt, Wd) / params.K
    off_ud = layout.offsets["u_D"]
    rows = off_ud + layout.darcy_cell_facets
    acc.add(rows[:, None, :], rows[:, :, None], mass)

    off_pd = layout.offsets["p_D"]
    pdr = off_pd + np.arange(len(layout.darcy_cells))
    bd = -div * area[:, None]                                  # -(div psi_k, 1)
    acc.add(pdr[:, None], rows, bd)
    acc.add(rows, pdr[:, None], bd)

    _coupling_entries(mesh, layout, acc)
    return acc.matrix()


def _coupling_entries(mesh, layout, acc):
    off_lam = layout.offsets["lam"]
    iface = layout.interface_facets
    ud_dofs = layout.offsets["u_D"] + np.searchsorted(layout.darcy_facets, iface)
    # n_S is the Stokes cell's outward normal and the global RT normal is
    # that of facet_cells[f, 0], so they agree iff the Stokes cell comes first
    sigmas = np.where(
        mesh.cell_subdomain[mesh.facet_cells[iface, 0]] == STOKES, 1.0, -1.0)
    t, w = el.segment_rule(OPERATOR_SEG_DEGREE)
    for pos, f in enumerate(iface):
        n_S = layout.interface_normals[pos]
        lam_row = off_lam + pos
        cell_pos, phi, ds = _trace_data(mesh, layout, f, t, w)
        cs = layout.stokes_cell_scalar[cell_pos]
        ints = phi @ ds
        for alpha in range(2):
            cols = layout.velocity_dof(alpha, cs)
            vals = n_S[alpha] * ints
            acc.add(np.full(6, lam_row), cols, vals)
            acc.add(cols, np.full(6, lam_row), vals)
        val = np.array([-sigmas[pos] * np.sum(ds)])
        ud = ud_dofs[pos:pos + 1]
        acc.add(np.array([lam_row]), ud, val)
        acc.add(ud, np.array([lam_row]), val)


def assemble_riesz(mesh, layout, params, interface_matrix):
    """Block-diagonal Riesz map; `interface_matrix` is the dense multiplier
    block (see frac_interface)."""
    n = layout.total_dofs
    acc = _Acc(n)
    _velocity_entries(mesh, layout, params, acc)

    rt, div, area, Wd, _ = _rt_basis(mesh, layout, OPERATOR_TRI_DEGREE)
    mass = np.einsum("ckqi,clqi,cq->ckl", rt, rt, Wd)
    divdiv = div[:, :, None] * div[:, None, :] * area[:, None, None]
    rows = layout.offsets["u_D"] + layout.darcy_cell_facets
    acc.add(rows[:, None, :], rows[:, :, None], (mass + divdiv) / params.K)

    _, pts, W, _ = _stokes_geometry(mesh, layout, OPERATOR_TRI_DEGREE)
    psi = el.p1_basis(pts)
    m_p1 = np.einsum("aq,bq,cq->cab", psi, psi, W) / (2.0 * params.mu)
    prow = layout.offsets["p_S"] + layout.stokes_cell_scalar[:, :3]
    acc.add(prow[:, None, :], prow[:, :, None], m_p1)

    pdr = layout.offsets["p_D"] + np.arange(len(layout.darcy_cells))
    acc.add(pdr, pdr, params.K * area)

    S = np.asarray(interface_matrix)
    lam = layout.offsets["lam"] + np.arange(layout.sizes["lam"])
    acc.add(lam[:, None], lam[None, :], S)
    return acc.matrix()


def assemble_rhs(mesh, layout, params, loads):
    """Load vector matching the operator's sign convention."""
    b = np.zeros(layout.total_dofs)
    if loads is None:
        return b
    cs = layout.stokes_cell_scalar

    if loads.f_S is not None:
        coords = mesh.cell_coords(layout.stokes_cells)
        pts, w = el.triangle_rule(LOAD_TRI_DEGREE)
        _, _, det = el.affine_maps(coords)
        W = w[None, :] * np.abs(det)[:, None]
        x = el.physical_points(coords, pts)
        fv = loads.f_S(x.reshape(-1, 2)).reshape(x.shape[0], x.shape[1], 2)
        phi = el.p2_basis(pts)
        load = np.einsum("cqi,aq,cq->cai", fv, phi, W)
        for alpha in range(2):
            np.add.at(b, layout.velocity_dof(alpha, cs), load[:, :, alpha])

    if loads.g_D is not None:
        rtv, _, _, Wd, x = _rt_basis(mesh, layout, LOAD_TRI_DEGREE)
        g = loads.g_D(x.reshape(-1, 2)).reshape(x.shape[0], x.shape[1])
        vals = -np.einsum("cq,cq->c", g, Wd)
        np.add.at(b, layout.offsets["p_D"] + np.arange(len(layout.darcy_cells)), vals)

    t, w = el.segment_rule(LOAD_SEG_DEGREE)
    if loads.g_gamma is not None or loads.t_n is not None or loads.t_t is not None:
        for pos, f in enumerate(layout.interface_facets):
            n_S = layout.interface_normals[pos]
            tau = np.array([-n_S[1], n_S[0]])
            a, bb = mesh.vertices[mesh.facets[f]]
            x = a[None, :] + t[:, None] * (bb - a)[None, :]
            ds = w * np.linalg.norm(bb - a)
            if loads.g_gamma is not None:
                b[layout.offsets["lam"] + pos] += np.dot(ds, loads.g_gamma(x, n_S))
            if loads.t_n is not None or loads.t_t is not None:
                cell_pos, phi, _ = _trace_data(mesh, layout, f, t, w)
                css = layout.stokes_cell_scalar[cell_pos]
                if loads.t_n is not None:
                    q = loads.t_n(x, n_S) * ds
                    for alpha in range(2):
                        np.add.at(b, layout.velocity_dof(alpha, css),
                                  n_S[alpha] * (phi @ q))
                if loads.t_t is not None:
                    q = loads.t_t(x, n_S, tau) * ds
                    for alpha in range(2):
                        np.add.at(b, layout.velocity_dof(alpha, css),
                                  tau[alpha] * (phi @ q))

    boundary = np.nonzero(mesh.facet_cells[:, 1] < 0)[0]
    if loads.stokes_traction is not None:
        for f in boundary:
            if mesh.facet_tags[f] not in STOKES_NATURAL_TAGS:
                continue
            cell = mesh.facet_cells[f, 0]
            a, bb = mesh.vertices[mesh.facets[f]]
            x = a[None, :] + t[:, None] * (bb - a)[None, :]
            ds = w * np.linalg.norm(bb - a)
            n_out = outward_normal(mesh, f, cell)
            tr = loads.stokes_traction(x, n_out, str(mesh.facet_tags[f]))
            cell_pos, phi, _ = _trace_data(mesh, layout, f, t, w)
            css = layout.stokes_cell_scalar[cell_pos]
            for alpha in range(2):
                np.add.at(b, layout.velocity_dof(alpha, css), phi @ (tr[:, alpha] * ds))

    if loads.darcy_pressure is not None:
        natural = boundary[mesh.facet_tags[boundary] == TAG_DARCY_NATURAL]
        flux = layout.offsets["u_D"] + np.searchsorted(layout.darcy_facets,
                                                        natural)
        for f, dof in zip(natural, flux):
            a, bb = mesh.vertices[mesh.facets[f]]
            x = a[None, :] + t[:, None] * (bb - a)[None, :]
            ds = w * np.linalg.norm(bb - a)
            b[dof] -= np.dot(ds, loads.darcy_pressure(x))
    return b


def apply_essential(A, b, dofs, values=None):
    """Symmetric elimination: unit diagonal rows/cols at `dofs`.

    Moves A[:, dofs] @ values to the rhs first (when b is given), then zeros
    the rows and columns and pins b[dofs] = values.
    """
    if len(dofs) == 0:
        return A.tocsr(), b
    if values is None:
        values = np.zeros(len(dofs))
    if b is not None:
        b = b - A.tocsc()[:, dofs] @ values
    coo = A.tocoo()
    n = A.shape[0]
    drop = np.zeros(n, dtype=bool)
    drop[dofs] = True
    keep = ~(drop[coo.row] | drop[coo.col])
    rows = np.concatenate([coo.row[keep], dofs])
    cols = np.concatenate([coo.col[keep], dofs])
    vals = np.concatenate([coo.data[keep], np.ones(len(dofs))])
    A2 = sp.coo_matrix((vals, (rows, cols)), shape=A.shape).tocsr()
    if b is not None:
        b[dofs] = values
    return A2, b


@dataclass
class BlockSystem:
    mesh: object
    layout: object
    params: PhysParams
    A: object
    N: object
    b: np.ndarray
    interface_op: object
    essential: np.ndarray
    essential_vals: np.ndarray

    @property
    def config(self):
        return self.mesh.config


def assemble_system(mesh, params, loads=None):
    """Facade: layout, operator, Riesz map, rhs and essential elimination."""
    from .frac_interface import interface_operator

    layout = build_layout(mesh)
    iop = interface_operator(mesh, params, mesh.config)
    A = assemble_operator(mesh, layout, params)
    N = assemble_riesz(mesh, layout, params, iop.matrix)
    b = assemble_rhs(mesh, layout, params, loads)
    dofs = essential_dofs(layout)
    vals = essential_values(
        layout, dofs,
        None if loads is None else loads.u_S_essential,
        None if loads is None else loads.u_D_essential)
    A, b = apply_essential(A, b, dofs, vals)
    N, _ = apply_essential(N, None, dofs)
    return BlockSystem(mesh=mesh, layout=layout, params=params, A=A, N=N, b=b,
                       interface_op=iop, essential=dofs, essential_vals=vals)


def save_matrix_coo(M, path):
    """Text COO export: header '# nrows ncols nnz', then 'row col value'."""
    coo = sp.coo_matrix(M)
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v:.17g}\n")
