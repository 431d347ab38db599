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
mass, and the interface multiplier block, the (1/mu)- and K-scaled
fractional powers of frac_interface.

Both are affine in a few scalar weights of the parameters (`_weights`);
the preconditioner factors the N it is handed, so no other module
weighs a piece of it.
Every pattern is built one way (`_system`): each parameter-free piece is
split once into its entries off the essential rows and columns and those
in the essential columns, off their rows (`_split`); the eliminated A and
N join the first parts with the unit diagonal of the essential dofs, and
the lift joins A's second parts (`_joined`, `_places`).  The full
patterns of `assemble_operator` and `assemble_riesz` are the same build
with no essential dofs (`_full_patterns`), and `apply_essential` splits
its one matrix and writes it through a `_Pattern` alike.  The dof layout,
the essential dofs, the eliminated patterns with the kept entries'
values, the lift (`_affine`), and where the loads and the essential data
are sampled (`_sampling`) are built once per tagged mesh, kept on it (see
`mesh._per_mesh`) and read-only.  A new (mu, K) only writes the weighted
pieces straight into the eliminated patterns (`_Pattern.matrix`),
evaluates the loads and lifts them by those few entries of A.
tag_boundaries clears them.  The layout holds no mesh:
`_affine(mesh).layout` is the mesh's one layout, which every
`BlockSystem` on the mesh shares.

Eliminated (essential) dofs keep unit diagonal rows in both matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import scipy.sparse as sp

from . import elements as el
from .frac_interface import fractional_pieces
from .mesh import (STOKES_NATURAL_TAGS, TAG_DARCY_NATURAL,
                   ConfigurationError, _per_mesh, stokes_cell)
from .spaces import (FIELDS, build_layout, essential_dofs, facet_sign,
                     global_facet_normal)

OPERATOR_TRI_DEGREE = 4
OPERATOR_SEG_DEGREE = 5    # P2 trace products are quartic along a facet
LOAD_TRI_DEGREE = 8
LOAD_SEG_DEGREE = 9
FLUX_SEG_DEGREE = 5        # the facet-mean flux of essential porous data


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
        over = [k for k, w in _weights(self).items() if not np.isfinite(w)]
        if over:
            raise ConfigurationError(
                f"mu = {self.mu:g}, K = {self.K:g} overflow the weights of "
                f"{', '.join(over)}")

    @property
    def beta_tau(self):
        """Slip coefficient alpha_bjs * sqrt(mu / K), always recomputed."""
        return self.alpha_bjs * np.sqrt(self.mu / self.K)


def _weights(params):
    """The weight of each parameter-free piece: the one place that knows
    how the parameters enter A and N,

        A = mu*visc + beta_tau*slip + (1/K)*mass + saddle
        N = mu*visc + beta_tau*slip + (1/K)*(mass + divdiv)
            + (1/(2*mu))*p1 + K*p0 + (1/mu)*lam_low + K*lam_high,

    with lam_low = P(-1/2) and lam_high = P(+1/2) the multiplier block's
    fractional powers (see frac_interface).
    """
    mu, K = params.mu, params.K
    return {"visc": mu, "slip": params.beta_tau, "mass": 1.0 / K,
            "divdiv": 1.0 / K, "saddle": 1.0, "p1": 1.0 / (2.0 * mu),
            "p0": K, "lam_low": 1.0 / mu, "lam_high": K}


# the pieces whose rows, joined in this order, are the rows of A and of N
# (see _affine), and the others, each within the pattern of its host
_SUMS = {"A": (("visc", "mass", "saddle"), ("slip",)),
         "N": (("visc", "mass", "p1", "p0", "lam_low"),
               ("slip", "divdiv", "lam_high"))}
_HOST = {"slip": "visc", "divdiv": "mass", "lam_high": "lam_low"}


@dataclass
class LoadData:
    """Problem data; missing callables mean zero.

    Point arrays have shape (n, 2), and so do normals and tangents: one
    per point.  Interface callables receive the Stokes-to-Darcy unit
    normal (and the counterclockwise-rotated tangent where it matters);
    only tangent-quadratic combinations enter, so the tangent sign
    convention is immaterial.

    Each assembly calls each callable once, on all of its quadrature
    points or nodes, and not at all where it has none: `stokes_traction`
    once per natural boundary tag, with that tag.
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


def _index_dtype(count):
    """The index dtype scipy gives a CSR matrix with `count` entries or
    rows: int32 where it fits."""
    return np.int32 if count <= np.iinfo(np.int32).max else np.int64


def _assembled(n, parts):
    """The n x n CSR matrix summing the entries vals at rows and cols of
    each (rows, cols, vals) in `parts`, each broadcast to vals.shape.  Each
    part is copied once into index arrays of the CSR index dtype; scipy
    sums the duplicates in place, leaving views of arrays as long as the
    COO, so the CSR arrays are copied to their length (visc's values: 6.1,
    not 9.4 MB at EN nref 4)."""
    total = sum(v.size for _, _, v in parts)
    idx = _index_dtype(max(total, n))
    r, c, v = np.empty(total, idx), np.empty(total, idx), np.empty(total)
    end = 0
    for rows, cols, vals in parts:
        start, end = end, end + vals.size
        for out, x in ((r, rows), (c, cols), (v, vals)):
            out[start:end].reshape(vals.shape)[...] = x
    M = sp.coo_matrix((v, (r, c)), shape=(n, n)).tocsr()
    del r, c, v
    M.data, M.indices = M.data.copy(), M.indices.copy()
    return M


def _stokes_geometry(mesh, layout, degree):
    """Reference points, weights (nc, nq) and gradient rows X (nc, 12, nq)
    of the free-flow cells: X[c, 6*i + a, q] = d(phi_a)/dx_i at point q."""
    coords = mesh.cell_coords(layout.stokes_cells)
    pts, w = el.triangle_rule(degree)
    _, inv, det = el.affine_maps(coords)
    grads = el.physical_grads(inv, el.p2_grads(pts))
    weights = w[None, :] * np.abs(det)[:, None]
    return pts, weights, grads.transpose(0, 3, 1, 2).reshape(len(coords), 12, -1)


@dataclass
class _FacetRule:
    """A segment rule on some facets: points x (nf, nq, 2) and weights ds
    (nf, nq); on facets of free-flow cells also the P2 basis phi (nf, 6,
    nq) of the cell at the points and its scalar dofs cs (nf, 6); on
    boundary facets their outward normals and, for traction, their tags;
    all read-only, as the loads' rules are kept per mesh."""

    facets: np.ndarray
    x: np.ndarray
    ds: np.ndarray
    phi: np.ndarray = None
    cs: np.ndarray = None
    tags: np.ndarray = None
    normals: np.ndarray = None

    def __post_init__(self):
        el.read_only(*(v for v in vars(self).values() if v is not None))

    def per_point(self, v):
        """One row of v (nf, k) per quadrature point, (nf * nq, k)."""
        return np.repeat(v, self.ds.shape[1], axis=0)


def _facet_quadrature(mesh, layout, facets, degree, trace=False, **fields):
    """The `_FacetRule` of the segment rule of `degree` on each of the
    `facets`; with `trace`, with the P2 basis and scalar dofs of each
    facet's free-flow cell.  `fields` are its further fields."""
    t, w = el.segment_rule(degree)
    p = mesh.vertices[mesh.facets[facets]]
    a, d = p[:, 0], p[:, 1] - p[:, 0]
    x = a[:, None, :] + t[None, :, None] * d[:, None, :]
    ds = w[None, :] * np.linalg.norm(d, axis=1)[:, None]
    if not trace:
        return _FacetRule(facets, x, ds, **fields)
    cells = stokes_cell(mesh, facets)
    coords = mesh.cell_coords(cells)
    _, inv, _ = el.affine_maps(coords)
    ref = (x - coords[:, None, 0]) @ np.swapaxes(inv, 1, 2)
    phi = el.p2_basis(ref.reshape(-1, 2)).reshape(6, *ds.shape)
    cs = layout.stokes_cell_scalar[np.searchsorted(layout.stokes_cells, cells)]
    return _FacetRule(facets, x, ds, phi.transpose(1, 0, 2), cs, **fields)


def _dot(a, q):
    """a @ q facet by facet: a (nf, n) or (nf, k, n), q (nf, n)."""
    if a.ndim == 2:
        return (a[:, None, :] @ q[:, :, None])[:, 0, 0]
    return (a @ q[:, :, None])[..., 0]


def _viscous_blocks(X, XW):
    """Element blocks of 2*(eps(u), eps(v)), keyed by the velocity
    components (beta, alpha) of (row, column); each block is (nc, a, b)
    with a the column's and b the row's basis function, and block
    (alpha, beta) is exactly the transpose of block (beta, alpha).

    H[c, i, a, j, b] = (d_i phi_a, d_j phi_b) on cell c is one batched BLAS
    product.  Block (beta, alpha) is H[beta, :, alpha, :], plus
    (grad phi_a, grad phi_b) = H[0, :, 0, :] + H[1, :, 1, :] on the
    diagonal.  BLAS rounds the (a, b) and (b, a) entries differently, so
    each diagonal block is taken as its symmetric part, S_alpha + S_other/2
    with S_alpha = H[alpha, :, alpha, :] plus its transpose, and block (1, 0)
    as the transpose of block (0, 1).  No block is a view of H, which is
    freed on return.
    """
    H = (XW @ X.transpose(0, 2, 1)).reshape(len(X), 2, 6, 2, 6)
    S = [H[:, a, :, a, :] + H[:, a, :, a, :].transpose(0, 2, 1) for a in range(2)]
    block = {(0, 0): S[0] + 0.5 * S[1], (1, 1): S[1] + 0.5 * S[0],
             (0, 1): H[:, 0, :, 1, :].copy()}
    block[1, 0] = block[0, 1].transpose(0, 2, 1)
    return block


def _stokes_blocks(mesh, layout):
    """The element blocks of the free-flow cells: visc's
    (`_viscous_blocks`), dv[c, i, a, b] = -(d_i phi_a, psi_b) (nc, 2, 6, 3)
    of saddle and the P1 mass (nc, 3, 3) of p1.  The geometry they come
    from (10 MB at EN nref 4) is freed on return, before any piece is
    assembled."""
    pts, W, X = _stokes_geometry(mesh, layout, OPERATOR_TRI_DEGREE)
    XW = X * W[:, None, :]
    psi = el.p1_basis(pts)
    # one BLAS product each
    dv = -(XW.reshape(-1, W.shape[1]) @ psi.T).reshape(-1, 2, 6, 3)
    pm = (W @ (psi[:, None] * psi[None]).reshape(9, -1).T).reshape(-1, 3, 3)
    return _viscous_blocks(X, XW), dv, pm


def _velocity_entries(layout, viscous, iface):
    """2*(eps(u), eps(v)) over the free-flow cells and the interface slip
    mass (u.tau, v.tau)_Gamma: the pieces `visc` and `slip` that A and N
    share.  viscous: the element blocks of `_viscous_blocks`; iface: the
    interface `_facet_quadrature` of degree OPERATOR_SEG_DEGREE with its
    traces."""
    tau = layout.interface_tangents
    m = np.einsum("faq,fbq,fq->fab", iface.phi, iface.phi, iface.ds)
    slip = {(beta, alpha): (tau[:, alpha] * tau[:, beta])[:, None, None] * m
            for beta in range(2) for alpha in range(2)}
    return (_velocity_block(layout, layout.stokes_cell_scalar, viscous),
            _velocity_block(layout, iface.cs, slip))


def _velocity_block(layout, cs, block):
    """The P2 component blocks block[beta, alpha] (n, a, b) of n cells or
    facets with scalar dofs cs (n, 6), scattered at row component beta,
    local dof b and column component alpha, local dof a."""
    dof = [layout.velocity_dof(alpha, cs) for alpha in range(2)]
    return _assembled(layout.total_dofs, [
        (dof[beta][:, None, :], dof[alpha][:, :, None], block[beta, alpha])
        for beta in range(2) for alpha in range(2)])


def _rt_divergence(mesh, layout):
    """Vertex coordinates, areas and RT basis divergences of the porous
    cells; div psi_k = sign_k * |e_k| / area is constant on a cell."""
    coords = mesh.cell_coords(layout.darcy_cells)
    _, _, det = el.affine_maps(coords)
    area = 0.5 * np.abs(det)
    edge_len = mesh.facet_lengths(layout.darcy_facets)[layout.darcy_cell_facets]
    return coords, area, layout.darcy_cell_signs * edge_len / area[:, None]


def _rt_basis(mesh, layout, degree):
    """RT basis values psi_k(x) = (div psi_k / 2) * (x - opposite vertex),
    divergences, areas and weights on the porous cells."""
    coords, area, div = _rt_divergence(mesh, layout)
    pts, w = el.triangle_rule(degree)
    x = el.physical_points(coords, pts)
    opp = coords[:, list(el.OPPOSITE_VERTEX)]
    vals = (0.5 * div)[:, :, None, None] * (x[:, None, :, :] - opp[:, :, None, :])
    weights = w[None, :] * (2.0 * area)[:, None]
    return vals, div, area, weights


def _pieces(mesh, layout):
    """Every parameter-free piece of A and N (see `_weights`) on the
    mesh's layout, each a CSR matrix on its own block's pattern."""
    n = layout.total_dofs
    viscous, dv, pm = _stokes_blocks(mesh, layout)
    iface = _facet_quadrature(mesh, layout, layout.interface_facets,
                              OPERATOR_SEG_DEGREE, trace=True)
    visc, slip = _velocity_entries(layout, viscous, iface)
    del viscous
    cs = layout.stokes_cell_scalar
    prow = layout.offsets["p_S"] + cs[:, :3]
    rt, div, area, Wd = _rt_basis(mesh, layout, OPERATOR_TRI_DEGREE)
    rows = layout.offsets["u_D"] + layout.darcy_cell_facets
    pdr = layout.offsets["p_D"] + np.arange(len(layout.darcy_cells))

    # -(div v, p) in both subdomains, the transposes and the interface terms
    saddle = []
    for alpha in range(2):
        cols = layout.velocity_dof(alpha, cs)[:, :, None]      # (c, a, 1)
        saddle += [(prow[:, None, :], cols, dv[:, alpha]),
                   (cols, prow[:, None, :], dv[:, alpha])]
    bd = -div * area[:, None]                                  # -(div psi_k, 1)
    saddle += [(pdr[:, None], rows, bd), (rows, pdr[:, None], bd)]
    saddle += _coupling_entries(mesh, layout, iface)

    square = (rows[:, None, :], rows[:, :, None])
    mass = np.einsum("ckqi,clqi,cq->ckl", rt, rt, Wd)
    divdiv = div[:, :, None] * div[:, None, :] * area[:, None, None]
    # symmetrized, as BLAS need not round entries (a, b) and (b, a) alike
    p1 = 0.5 * (pm + pm.transpose(0, 2, 1))
    return {"visc": visc, "slip": slip, "saddle": _assembled(n, saddle),
            "mass": _assembled(n, [(*square, mass)]),
            "divdiv": _assembled(n, [(*square, divdiv)]),
            "p1": _assembled(n, [(prow[:, None, :], prow[:, :, None], p1)]),
            "p0": _assembled(n, [(pdr, pdr, area)]),
            **{name: _full_block(layout, "lam", F)
               for name, F in fractional_pieces(mesh).items()}}


def _csr(data, indices, indptr, shape=None):
    """The CSR matrix with these arrays, on a canonical pattern whose index
    arrays are read-only and shared, not copied; square unless `shape`."""
    n = len(indptr) - 1
    M = sp.csr_matrix((data, indices, indptr), shape=shape or (n, n),
                      copy=False)
    M.has_canonical_format = True
    return M


def _split(piece, dofs):
    """The entries of canonical CSR `piece` off the rows and columns of the
    sorted, unique essential `dofs` (`inner`, of its shape) and those in
    their columns, off their rows (`edge`, of shape (n, len(dofs)), whose
    column c stands for dofs[c]), each a canonical CSR matrix on copies of
    its values."""
    n, idx = piece.shape[0], piece.indptr.dtype
    drop = np.zeros(n, dtype=bool)
    drop[dofs] = True
    off_row = ~np.repeat(drop, np.diff(piece.indptr))
    in_col = drop[piece.indices]

    def part(keep, indices, shape):
        before = np.zeros(len(keep) + 1, dtype=idx)
        np.cumsum(keep, dtype=idx, out=before[1:])
        return _csr(piece.data[keep], indices, before[piece.indptr], shape)
    inner = off_row & ~in_col
    edge = off_row & in_col
    return (part(inner, piece.indices[inner], piece.shape),
            part(edge, np.searchsorted(dofs, piece.indices[edge]).astype(idx),
                 (n, len(dofs))))


def _unit(n, dofs):
    """The unit diagonal on the sorted, unique `dofs`, as a CSR matrix."""
    return _csr(np.ones(len(dofs)), dofs,
                np.searchsorted(dofs, np.arange(n + 1)))


def _joined(segments):
    """The canonical CSR pattern (indptr, indices) each of whose rows is
    the same row of every CSR matrix in `segments` ({name: matrix}), joined
    in the order given, and the places `pos[name]` of each one's entries
    in it.  Raises ValueError unless every joined row is strictly
    increasing, which is what makes it the sorted union of the segments."""
    ptrs = [P.indptr.astype(np.int64) for P in segments.values()]
    indptr = np.sum(ptrs, axis=0)
    idx = _index_dtype(max(indptr[-1], len(indptr)))
    indptr = indptr.astype(idx)
    indices = np.empty(indptr[-1], dtype=idx)
    fill = indptr[:-1].copy()       # where the next segment starts in a row
    pos = {}
    for (name, P), ptr in zip(segments.items(), ptrs):
        count = np.diff(ptr)
        p = np.repeat((fill - ptr[:-1]).astype(idx), count)
        p += np.arange(len(p), dtype=idx)
        indices[p] = P.indices
        pos[name] = p
        fill += count.astype(idx)
    rising = np.diff(indices) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < len(indices))] - 1] = True
    if not rising.all():
        row = np.count_nonzero(indptr[1:] <= np.argmin(rising) + 1)
        raise ValueError(
            f"row {row} of the pieces {', '.join(segments)}, joined in "
            f"this order, is not strictly increasing")
    return indptr, indices, pos


def _places(host, piece):
    """The place of each entry of canonical CSR `piece` among those of
    canonical CSR `host`, whose pattern must hold piece's: the same places
    where the patterns are equal, else each entry is compared with its row
    of host; none for an empty piece.  Raises ValueError where host lacks
    an entry."""
    idx = host.indptr.dtype
    if not len(piece.indices) or (
            np.array_equal(host.indptr, piece.indptr)
            and np.array_equal(host.indices, piece.indices)):
        return np.arange(len(piece.indices), dtype=idx)
    rows = np.repeat(np.arange(len(piece.indptr) - 1, dtype=idx),
                     np.diff(piece.indptr))
    start = host.indptr[rows]
    length = host.indptr[rows + 1] - start
    slot = np.arange(length.max(initial=0), dtype=idx)
    inside = slot < length[:, None]
    at = np.where(inside, start[:, None] + slot, 0)
    hit = inside & (host.indices[at] == piece.indices[:, None])
    if not hit.any(axis=1).all():
        raise ValueError("a piece has entries outside its host's pattern")
    return start + hit.argmax(axis=1).astype(idx)


def _full_block(layout, name, dense):
    """The dense matrix on block `name` of the layout, every entry kept
    (in row-major order, like its ravel), as a CSR matrix."""
    s = layout.field_slice(name)
    k = s.stop - s.start
    indptr = np.clip(np.arange(layout.total_dofs + 1) - s.start, 0, k) * k
    return _csr(dense.ravel(), np.tile(np.arange(s.start, s.stop), k), indptr)


# The pattern keeps the entries whose sum is zero (47,498 of N's 839,771 at
# EN nref 4).  Summing the pieces with scipy `+` drops them, and the LU of
# the sparser N fills more: lu_fill 4.90M -> 6.59M, preconditioner build
# 0.48 -> 0.65 s.  Any rework must keep this pattern.
@dataclass
class _Pattern:
    """A fixed CSR pattern of a weighted sum of pieces: `pos[name]` places
    the entries of piece `name` (in its own CSR order) in it, and
    `values[name]` holds them.  The pieces named `rows` come first in
    `pos` and, with the `units`, which hold 1.0, write each slot exactly
    once; the others lie within them.  Every matrix on it shares its
    read-only index arrays."""

    indptr: np.ndarray
    indices: np.ndarray
    pos: dict
    values: dict
    rows: tuple
    units: np.ndarray
    shape: tuple

    @classmethod
    def of(cls, pieces, rows, within, units=None):
        """The pattern whose rows join the rows of the pieces named `rows`
        and of the CSR matrix `units`, if given (see `_joined`), with the
        entries of each piece named in `within` placed among those of its
        row piece `_HOST[name]` (`_places`).  It holds the values of the
        pieces it places, and 1.0 at the entries of `units`."""
        segments = {k: pieces[k] for k in rows}
        if units is not None:
            segments["units"] = units
        indptr, indices, pos = _joined(segments)
        units = pos.pop("units", np.empty(0, dtype=indptr.dtype))
        for name in within:
            host = _HOST[name]
            pos[name] = pos[host][_places(pieces[host], pieces[name])]
        return cls(*el.read_only(indptr, indices), pos=pos,
                   values={k: pieces[k].data for k in pos}, rows=tuple(rows),
                   units=units, shape=pieces[rows[0]].shape)

    def matrix(self, weights):
        """The sum of each piece placed here that has a weight, times that
        weight, with 1.0 in the units: each row piece written to its slots
        (0.0 without a weight), then each other piece added onto its host's
        value.  So each entry sums its host's value first, as 0.0 + w*v:
        `+ 0.0` turns a -0.0 product into the +0.0 of that sum."""
        data = np.empty(len(self.indices))
        data[self.units] = 1.0
        for name, p in self.pos.items():
            w = weights.get(name)
            if name in self.rows:
                data[p] = 0.0 if w is None else w * self.values[name] + 0.0
            elif w is not None:
                data[p] += w * self.values[name]
        return _csr(data, self.indices, self.indptr, self.shape)


def _system(pieces, dofs):
    """The patterns of A and N with the sorted, unique essential `dofs`
    eliminated, and the lift: A's entries in their columns, off their
    rows.  Each piece is split once (`_split`) and released; A and N join
    the inner parts, whose values they share, and the unit diagonal on
    `dofs`, and the lift joins A's edge parts.  With no `dofs` these are
    the full patterns."""
    n = next(iter(pieces.values())).shape[0]
    inner, edge = {}, {}
    for name in list(pieces):
        inner[name], edge[name] = _split(pieces.pop(name), dofs)
    A, N = (_Pattern.of(inner, *_SUMS[k], _unit(n, dofs)) for k in "AN")
    return A, N, _Pattern.of(edge, *_SUMS["A"])


def _block_diagonal(pattern, layout):
    """Raise ValueError unless every row of `pattern` (canonical) has its
    columns in its own block of the layout."""
    sizes = [layout.sizes[f] for f in FIELDS]
    start = np.repeat([layout.offsets[f] for f in FIELDS], sizes)
    end = start + np.repeat(sizes, sizes)
    full = np.diff(pattern.indptr) > 0
    first = pattern.indices[pattern.indptr[:-1][full]]
    last = pattern.indices[pattern.indptr[1:][full] - 1]
    if not ((first >= start[full]).all() and (last < end[full]).all()):
        raise ValueError("the Riesz map is not block diagonal")


@dataclass
class _Affine:
    """Everything about A and N that does not depend on the parameters,
    for one tagged mesh: their eliminated patterns, holding the kept
    entries' values, and A's entries in the essential columns (`lift`)."""

    layout: object
    essential: np.ndarray
    A: _Pattern
    N: _Pattern
    lift: _Pattern


def _affine(mesh):
    """The mesh's `_Affine`, built on first use by `_system`.

    The patterns come from the block order of the layout: N is block
    diagonal, each of its rows one of visc, mass, p1, p0 or lam_low (the
    full lam block); each row of A is its diagonal piece, visc or mass,
    followed by saddle, whose columns in those rows lie in later blocks.
    slip lies on visc's pattern, divdiv on mass's and lam_high on
    lam_low's.  Dropping the essential rows and columns keeps each fact,
    so the eliminated patterns are the inner parts' rows joined with the
    unit diagonal, and the lift A's edge parts' rows joined, with no sort
    and no search.  Each fact is checked in time linear in the entries
    (`_joined`, `_places`, `_block_diagonal` on the eliminated N, which
    the preconditioner reads), and a mesh that breaks one raises
    ValueError."""
    def build(mesh):
        lay = build_layout(mesh)
        dofs = essential_dofs(mesh, lay)
        el.read_only(dofs, *(v for v in vars(lay).values()
                             if isinstance(v, np.ndarray)))
        A, N, lift = _system(_pieces(mesh, lay), dofs)
        _block_diagonal(N, lay)
        return _Affine(layout=lay, essential=dofs, A=A, N=N, lift=lift)
    return _per_mesh(mesh, "affine operator", build)


def store_bytes(mesh):
    """The bytes of the arrays of the mesh's `_affine` store, its layout
    included, each counted once: A and N share the pieces' values."""
    seen = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            seen[id(x)] = x.nbytes
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif is_dataclass(x):
            for f in fields(x):
                walk(getattr(x, f.name))
    walk(_affine(mesh))
    return sum(seen.values())


def _full_patterns(mesh):
    """The full patterns of A and N ({"A": ..., "N": ...}), for
    `assemble_operator` and `assemble_riesz` alone: `_system` with no
    essential dofs, built on first call from fresh pieces, as `_affine`
    keeps only the eliminated ones; no solve reads them."""
    def build(mesh):
        A, N, _ = _system(_pieces(mesh, _affine(mesh).layout),
                          np.empty(0, dtype=np.intp))
        return {"A": A, "N": N}
    return _per_mesh(mesh, "full patterns", build)


def assemble_operator(mesh, params):
    """The indefinite coupled operator (without essential elimination)."""
    return _full_patterns(mesh)["A"].matrix(_weights(params))


def _coupling_entries(mesh, layout, iface):
    """The +-(v.n_S, lam) couplings, on the interface quadrature `iface`
    of `_velocity_entries`, as a list of `_assembled` parts."""
    f = layout.interface_facets
    lam = layout.offsets["lam"] + np.arange(len(f))
    ud = layout.flux_dof(f)
    ints = _dot(iface.phi, iface.ds)
    parts = []
    for alpha in range(2):
        cols = layout.velocity_dof(alpha, iface.cs)
        vals = layout.interface_normals[:, alpha, None] * ints
        parts += [(lam[:, None], cols, vals), (cols, lam[:, None], vals)]
    # the global RT normal is +-n_S, n_S pointing out of the Stokes cell
    val = -facet_sign(mesh, f, stokes_cell(mesh, f)) * iface.ds.sum(axis=1)
    return parts + [(lam, ud, val), (ud, lam, val)]


def assemble_riesz(mesh, params):
    """Block-diagonal Riesz map (without essential elimination)."""
    return _full_patterns(mesh)["N"].matrix(_weights(params))


def assemble_rhs(mesh, loads):
    """Load vector matching the operator's sign convention, indexed by the
    mesh's layout.  Its points, weights and trace tables are kept per mesh
    (`_sampling`); a call evaluates the loads and sums."""
    layout = _affine(mesh).layout
    b = np.zeros(layout.total_dofs)
    if loads.f_S is not None:
        x, W = _cell_rule(mesh, "stokes")
        fv = loads.f_S(x.reshape(-1, 2)).reshape(x.shape)
        # load[c, i, a] = (f_i, phi_a) on cell c: one BLAS product
        fw = (fv * W[:, :, None]).transpose(0, 2, 1).reshape(-1, W.shape[1])
        phi = el.p2_basis(el.triangle_rule(LOAD_TRI_DEGREE)[0])
        load = (fw @ phi.T).reshape(-1, 1, 2, 6)
        _add_trace_load(b, layout, layout.stokes_cell_scalar, load)

    if loads.g_D is not None:
        x, Wd = _cell_rule(mesh, "darcy")
        g = loads.g_D(x.reshape(-1, 2)).reshape(Wd.shape)
        vals = -np.einsum("cq,cq->c", g, Wd)
        np.add.at(b, layout.offsets["p_D"] + np.arange(len(layout.darcy_cells)), vals)

    if loads.g_gamma is not None or loads.t_n is not None or loads.t_t is not None:
        q = _sampling(mesh).interface
        pts, ds = q.x.reshape(-1, 2), q.ds
        n_S, tau = layout.interface_normals, layout.interface_tangents
        n_q, tau_q = q.per_point(n_S), q.per_point(tau)
        if loads.g_gamma is not None:
            g = loads.g_gamma(pts, n_q).reshape(ds.shape)
            b[layout.offsets["lam"] + np.arange(len(q.facets))] += _dot(ds, g)
        # (t_n n_S + t_t tau, v) over each facet, one (nf, 2, 6) per load
        stress = []
        if loads.t_n is not None:
            w = loads.t_n(pts, n_q).reshape(ds.shape) * ds
            stress.append(n_S[:, :, None] * _dot(q.phi, w)[:, None, :])
        if loads.t_t is not None:
            w = loads.t_t(pts, n_q, tau_q).reshape(ds.shape) * ds
            stress.append(tau[:, :, None] * _dot(q.phi, w)[:, None, :])
        if stress:
            _add_trace_load(b, layout, q.cs, np.stack(stress, axis=1))

    q = loads.stokes_traction is not None and _sampling(mesh).traction
    if q and len(q.facets):
        tr = np.empty_like(q.x)
        for tag in sorted(set(q.tags)):
            on = q.tags == tag
            tr[on] = loads.stokes_traction(
                q.x[on].reshape(-1, 2), q.per_point(q.normals[on]),
                tag).reshape(-1, q.ds.shape[1], 2)
        vals = np.stack([_dot(q.phi, tr[..., alpha] * q.ds)
                         for alpha in range(2)], axis=1)
        _add_trace_load(b, layout, q.cs, vals[:, None])

    q = loads.darcy_pressure is not None and _sampling(mesh).pressure
    if q and len(q.facets):
        p = loads.darcy_pressure(q.x.reshape(-1, 2)).reshape(q.ds.shape)
        b[layout.flux_dof(q.facets)] -= _dot(q.ds, p)
    return b


@dataclass
class _Sampling:
    """Where the loads and the essential data are sampled on one tagged
    mesh, every array read-only: the points and cell |det| of `_cell_rule`
    on the free-flow and the porous cells; the component and P2 node of
    each essential u_S dof and the degree FLUX_SEG_DEGREE `_FacetRule` on
    the facets of the essential u_D dofs, in dof order; those of degree
    LOAD_SEG_DEGREE on the interface and the natural free-flow and porous
    boundary, facets ascending."""

    stokes: tuple
    darcy: tuple
    component: np.ndarray
    nodes: np.ndarray
    flux: _FacetRule
    interface: _FacetRule
    traction: _FacetRule
    pressure: _FacetRule


def _sampling(mesh):
    """The mesh's `_Sampling`, kept per mesh.  The essential data's points
    are read off the essential dofs of the mesh's `_affine` store."""
    def build(mesh):
        aff = _affine(mesh)
        layout, dofs = aff.layout, aff.essential
        pts = el.triangle_rule(LOAD_TRI_DEGREE)[0]
        cells = []
        for c in (layout.stokes_cells, layout.darcy_cells):
            coords = mesh.cell_coords(c)
            _, _, det = el.affine_maps(coords)
            cells.append(el.read_only(el.physical_points(coords, pts),
                                      np.abs(det)))
        boundary = np.nonzero(mesh.facet_cells[:, 1] < 0)[0]
        tags = mesh.facet_tags[boundary]
        natural = boundary[np.isin(tags, sorted(STOKES_NATURAL_TAGS))]
        u_S = dofs[dofs < layout.offsets["u_D"]] - layout.offsets["u_S"]
        component, scalar = np.divmod(u_S, layout.num_scalar)
        flux = layout.darcy_facets[dofs[len(u_S):] - layout.offsets["u_D"]]
        return _Sampling(
            *cells,
            *el.read_only(component, layout.scalar_dof_points(mesh)[scalar]),
            flux=_facet_quadrature(mesh, layout, flux, FLUX_SEG_DEGREE,
                                   normals=global_facet_normal(mesh, flux)),
            interface=_facet_quadrature(mesh, layout, layout.interface_facets,
                                        LOAD_SEG_DEGREE, trace=True),
            traction=_facet_quadrature(
                mesh, layout, natural, LOAD_SEG_DEGREE, trace=True,
                tags=mesh.facet_tags[natural],
                normals=global_facet_normal(mesh, natural)),
            pressure=_facet_quadrature(
                mesh, layout, boundary[tags == TAG_DARCY_NATURAL],
                LOAD_SEG_DEGREE))
    return _per_mesh(mesh, "sampling", build)


def _cell_rule(mesh, domain):
    """Physical points (nc, nq, 2) and weights (nc, nq) of the degree
    LOAD_TRI_DEGREE rule on the "stokes" or "darcy" cells, for the loads
    and mms.compute_errors.  The weights are formed per call from the kept
    |det| (`_sampling`): kept, they would add half the points' bytes."""
    x, absdet = getattr(_sampling(mesh), domain)
    return x, el.triangle_rule(LOAD_TRI_DEGREE)[1][None, :] * absdet[:, None]


def essential_values(mesh, u_S=None, u_D=None):
    """The values of the mesh's essential dofs (`_affine`), in their order.

    u_S maps points (n, 2) to velocities (n, 2), sampled at the P2 nodes
    of the u_S dofs, which come first; u_D maps points to porous
    velocities, reduced to the facet-mean normal flux densities of the u_D
    dofs, the rest (`_sampling`).  Each is called once, on all its points,
    and not at all where it has none.  Missing fields give zeros."""
    vals = np.zeros(len(_affine(mesh).essential))
    if u_S is None and u_D is None:
        return vals
    s = _sampling(mesh)
    n, q = len(s.nodes), s.flux
    if u_S is not None and n:
        vals[:n] = u_S(s.nodes)[np.arange(n), s.component]
    if u_D is not None and len(q.facets):
        u = u_D(q.x.reshape(-1, 2)).reshape(q.x.shape)
        un = _dot(u, q.normals)
        w = el.segment_rule(FLUX_SEG_DEGREE)[1]     # sums to 1: the facet mean
        vals[n:] = _dot(un, np.broadcast_to(w, un.shape))
    return vals


def _add_trace_load(b, layout, cs, vals):
    """Add vals (n, loads, 2, 6) at the velocity dofs (component, local
    dof) of n free-flow cells with scalar dofs cs (n, 6), such as the cells
    of the facets of a `_FacetRule`, row by row."""
    dofs = np.stack([layout.velocity_dof(alpha, cs) for alpha in range(2)],
                    axis=1)
    np.add.at(b, np.broadcast_to(dofs[:, None], vals.shape), vals)


def apply_essential(A, b, dofs, values=None):
    """Symmetric elimination: unit diagonal rows/cols at `dofs`.

    Moves A[:, dofs] @ values (zeros if None) to the rhs first (when b is
    given), then zeros the rows and columns and pins b[dofs] = values, as
    `_affine` builds the eliminated system: A is split (`_split`), b lifted
    by its edge part (`_lift`), and its inner part and the unit diagonal
    written through a `_Pattern`."""
    A = A.tocoo().tocsr()                  # canonical: sorted, no duplicates
    n, at = A.shape[0], np.unique(dofs).astype(np.intp)
    inner, edge = _split(A, at)
    if b is not None:
        x = np.zeros(n)
        if values is not None:
            x[dofs] = values               # a repeated dof keeps its last value
        b = _lift(edge, b, at, x[at])
    pattern = _Pattern.of({"inner": inner}, ("inner",), (), _unit(n, at))
    return pattern.matrix({"inner": 1.0}), b


def _lift(L, b, dofs, values):
    """b - L @ values, pinned to `values` at `dofs`, where L holds a
    matrix's entries in the columns of `dofs`: b - A @ x for x = `values`
    at `dofs` and 0 elsewhere.  Each row of the product sums its terms in
    column order from +0.0, and the terms A_ij * 0.0 that L leaves out
    cannot change such a sum."""
    b = b - L @ values
    b[dofs] = values
    return b


@dataclass
class BlockSystem:
    mesh: object
    layout: object
    params: PhysParams
    A: object
    N: object
    b: np.ndarray
    essential: np.ndarray
    essential_vals: np.ndarray

    @property
    def config(self):
        return self.mesh.config


def assemble_system(mesh, params, loads=None):
    """Facade: operator, Riesz map, rhs and essential elimination.  A and N
    are written straight into their eliminated patterns and the rhs lifted
    by A's entries in the essential columns, all from the mesh's per-mesh
    pieces; only the weights and the loads are new.  No loads (None) is
    `LoadData()`."""
    aff = _affine(mesh)
    w = _weights(params)
    loads = loads or LoadData()
    vals = essential_values(mesh, loads.u_S_essential, loads.u_D_essential)
    b = _lift(aff.lift.matrix(w), assemble_rhs(mesh, loads), aff.essential,
              vals)
    return BlockSystem(mesh=mesh, layout=aff.layout, params=params,
                       A=aff.A.matrix(w), N=aff.N.matrix(w), b=b,
                       essential=aff.essential, essential_vals=vals)

