"""Structured two-subdomain triangle meshes with tagged boundaries.

The geometry is a free-flow rectangle coupled to one or more porous
rectangles, either through a single shared edge (side-by-side / stacked
layouts) or as inclusions floating strictly inside the free-flow region.
All rectangles are meshed together on one uniform lattice of squares of
side 1/(n0 * 2^nref), each square split into two triangles by the
lower-left to upper-right diagonal, so the coupled mesh is conforming and
interface facets are full lattice edges.

Facet tags select the boundary-condition layout.  The six named layouts
are labelled by the condition type met on either side of the interface
corner: first letter = free-flow side, second letter = porous side,
with N = natural (traction / pressure) and E = essential (velocity /
flux).  The starred variants flip the condition on the far (non-interface)
edge of the porous or free-flow rectangle, which removes the near-singular
pressure mode of the unstarred layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .elements import LOCAL_EDGES

STOKES = 0
DARCY = 1

TAG_NONE = ""
TAG_INTERFACE = "interface"
TAG_STOKES_ESSENTIAL = "stokes_essential"
TAG_STOKES_NATURAL = "stokes_natural"
TAG_DARCY_ESSENTIAL = "darcy_essential"
TAG_DARCY_NATURAL = "darcy_natural"
TAG_INFLOW = "inflow"
TAG_OUTFLOW = "outflow"
TAG_WALL = "wall"

# tags implying an essential (resp. natural) condition for the velocity field
STOKES_ESSENTIAL_TAGS = frozenset({TAG_STOKES_ESSENTIAL, TAG_WALL})
STOKES_NATURAL_TAGS = frozenset({TAG_STOKES_NATURAL, TAG_INFLOW, TAG_OUTFLOW})


class ConfigurationError(ValueError):
    """Raised for inconsistent domain or boundary-condition requests."""


class BcConfig(str, Enum):
    NN = "NN"
    EE = "EE"
    NESTAR = "NEstar"
    ENSTAR = "ENstar"
    NE = "NE"
    EN = "EN"
    MULTI = "MultiInclusion"


@dataclass(frozen=True)
class BoundaryLayout:
    """One row of README's layout table.  `edge_tags`: the tags of the
    free-flow edges adjacent to the interface, the free-flow far edge, the
    porous adjacent and far edges; None for a channel with inclusions
    (inflow, outflow, wall).  `endpoints`: the facet Laplacian's condition
    under P(-1/2) and P(+1/2).  `near_kernel`: the pressure block whose
    constant, with the multiplier's, spans a near-kernel.  `null_vector`:
    an exact constant-pressure null vector."""

    edge_tags: tuple | None
    endpoints: tuple
    near_kernel: str | None = None
    null_vector: bool = False


_SN, _SE = TAG_STOKES_NATURAL, TAG_STOKES_ESSENTIAL
_DN, _DE = TAG_DARCY_NATURAL, TAG_DARCY_ESSENTIAL

LAYOUTS = {
    BcConfig.NN: BoundaryLayout((_SN, _SE, _DN, _DE), ("free", "zero")),
    BcConfig.EE: BoundaryLayout((_SE, _SE, _DE, _DE), ("zero", "free"),
                                null_vector=True),
    BcConfig.NESTAR: BoundaryLayout((_SN, _SE, _DE, _DN), ("free", "free")),
    BcConfig.ENSTAR: BoundaryLayout((_SE, _SN, _DN, _DE), ("zero", "zero")),
    BcConfig.NE: BoundaryLayout((_SN, _SE, _DE, _DE), ("free", "free"), "p_D"),
    BcConfig.EN: BoundaryLayout((_SE, _SE, _DN, _DE), ("zero", "zero"), "p_S"),
    BcConfig.MULTI: BoundaryLayout(None, ("free", "free"), "p_D"),
}

_LATTICE_TOL = 1e-9


@dataclass(frozen=True)
class DomainSpec:
    """Rectangles making up the coupled domain.

    Rectangles are (x0, y0, x1, y1) with corners on the lattice of spacing
    1/base_divisions.  Every porous rectangle either shares exactly one full
    edge with the free-flow rectangle or lies strictly inside it (an
    inclusion).
    """

    stokes_rect: tuple
    darcy_rects: tuple
    base_divisions: int = 4


def side_by_side_domain(n0=4):
    """Unit free-flow square with the porous square to its right."""
    return DomainSpec((0.0, 0.0, 1.0, 1.0), ((1.0, 0.0, 2.0, 1.0),), n0)


def stacked_domain(n0=4):
    """Unit free-flow square with the porous square on top."""
    return DomainSpec((0.0, 0.0, 1.0, 1.0), ((0.0, 1.0, 1.0, 2.0),), n0)


@dataclass
class InterfaceChain:
    """One connected interface component, facets in interface order."""

    facets: np.ndarray          # global facet ids
    normals: np.ndarray         # (n, 2) unit normals pointing Stokes -> Darcy
    closed: bool
    component: int              # porous-rectangle index


@dataclass
class Mesh:
    vertices: np.ndarray        # (nv, 2)
    cells: np.ndarray           # (nc, 3) CCW vertex ids
    cell_subdomain: np.ndarray  # (nc,) STOKES or DARCY
    cell_component: np.ndarray  # (nc,) porous-rectangle index, -1 for Stokes
    facets: np.ndarray          # (nf, 2) sorted vertex id pairs
    facet_cells: np.ndarray     # (nf, 2) adjacent cell ids, lower id first;
                                # -1 in column 1 on the outer boundary
    facet_tags: np.ndarray      # (nf,) strings, "" for untagged interior
    facet_component: np.ndarray  # (nf,) porous component of interface facets
    spacing: float
    domain: DomainSpec
    nref: int
    config: BcConfig | None = None
    # parameter-free data derived from the tagged mesh, see `_per_mesh`
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def h(self):
        return self.spacing * np.sqrt(2.0)

    def cell_coords(self, cell_ids=None):
        ids = slice(None) if cell_ids is None else cell_ids
        return self.vertices[self.cells[ids]]

    def facet_lengths(self, facet_ids=None):
        ids = slice(None) if facet_ids is None else facet_ids
        p = self.vertices[self.facets[ids]]
        return np.linalg.norm(p[:, 1] - p[:, 0], axis=1)

    def facet_midpoints(self, facet_ids=None):
        ids = slice(None) if facet_ids is None else facet_ids
        p = self.vertices[self.facets[ids]]
        return 0.5 * (p[:, 0] + p[:, 1])


def _lattice_coord(value, n0, scale, what):
    k = value * n0
    if abs(k - round(k)) > _LATTICE_TOL * max(1.0, abs(k)):
        raise ConfigurationError(
            f"{what} coordinate {value} is not on the lattice of spacing 1/{n0}")
    return int(round(value * n0)) * scale


def _lattice_rect(rect, n0, scale, what):
    x0, y0, x1, y1 = rect
    i0 = _lattice_coord(x0, n0, scale, what)
    j0 = _lattice_coord(y0, n0, scale, what)
    i1 = _lattice_coord(x1, n0, scale, what)
    j1 = _lattice_coord(y1, n0, scale, what)
    if i1 <= i0 or j1 <= j0:
        raise ConfigurationError(f"{what} rectangle {rect} is empty or inverted")
    return i0, j0, i1, j1


def _classify_darcy(srect, drect):
    """Return 'inclusion' or the shared-edge side 'left|right|bottom|top'
    (side named from the Stokes rectangle's point of view)."""
    I0, J0, I1, J1 = srect
    i0, j0, i1, j1 = drect
    if I0 < i0 and i1 < I1 and J0 < j0 and j1 < J1:
        return "inclusion"
    same_x = (i0, i1) == (I0, I1)
    same_y = (j0, j1) == (J0, J1)
    if i0 == I1 and same_y:
        return "right"
    if i1 == I0 and same_y:
        return "left"
    if j0 == J1 and same_x:
        return "top"
    if j1 == J0 and same_x:
        return "bottom"
    raise ConfigurationError(
        "porous rectangle must share exactly one full edge with the free-flow "
        f"rectangle or lie strictly inside it, got {drect} vs {srect}")


def _rects_conflict(a, b, strict):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    if strict:
        return not (ax1 < bx0 or bx1 < ax0 or ay1 < by0 or by1 < ay0)
    return not (ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0)


def _domain_lattice(domain, nref):
    """The lattice rectangles (free flow, porous list) of the domain at
    refinement nref, and how each porous one meets the free-flow one."""
    if not isinstance(nref, (int, np.integer)) or nref < 0:
        raise ConfigurationError(f"nref must be a non-negative integer, got {nref!r}")
    n0 = domain.base_divisions
    if n0 < 1:
        raise ConfigurationError("base_divisions must be >= 1")
    if not domain.darcy_rects:
        raise ConfigurationError("no porous rectangle given, interface is empty")
    scale = 2 ** nref
    srect = _lattice_rect(domain.stokes_rect, n0, scale, "free-flow")
    drects = [_lattice_rect(r, n0, scale, "porous") for r in domain.darcy_rects]
    modes = [_classify_darcy(srect, r) for r in drects]
    for a in range(len(drects)):
        for b in range(a + 1, len(drects)):
            strict = modes[a] == "inclusion" or modes[b] == "inclusion"
            if _rects_conflict(drects[a], drects[b], strict):
                raise ConfigurationError(
                    f"porous rectangles {a} and {b} overlap or touch")
    return (srect, drects), modes


def _edge_keys(tris, nvert):
    """Integer key min*nvert + max of each local edge, shape (n, 3).

    Keys order like the sorted vertex pairs, so `mesh.facets` is sorted by
    key and facet ids follow from a `searchsorted` on the keys."""
    a = tris[:, [i for i, _ in LOCAL_EDGES]]
    b = tris[:, [j for _, j in LOCAL_EDGES]]
    return np.minimum(a, b) * nvert + np.maximum(a, b)


def build_coupled_mesh(domain, nref=0):
    """Build the conforming two-subdomain mesh at refinement level nref.

    Vertices are numbered by (y, x), cells square by square in the same
    order, facets by their sorted vertex pair."""
    (srect, drects), _ = _domain_lattice(domain, nref)
    spacing = 1.0 / (domain.base_divisions * 2 ** nref)

    # owner of each lattice square of the bounding box: -2 outside the
    # domain, -1 free flow, else the porous component (porous wins)
    rects = [srect] + drects
    i_lo, j_lo = min(r[0] for r in rects), min(r[1] for r in rects)
    i_hi, j_hi = max(r[2] for r in rects), max(r[3] for r in rects)
    owner = np.full((j_hi - j_lo, i_hi - i_lo), -2)
    for comp, (i0, j0, i1, j1) in enumerate(rects, start=-1):
        owner[j0 - j_lo:j1 - j_lo, i0 - i_lo:i1 - i_lo] = comp
    sj, si = np.nonzero(owner > -2)
    comp_ids = np.repeat(owner[sj, si], 2)
    subdom = np.where(comp_ids < 0, STOKES, DARCY)

    # corners (0,0), (1,0), (1,1), (0,1) of each square, keyed in (y, x) order
    width = i_hi - i_lo + 1
    corners = ((sj[:, None] + [0, 0, 1, 1]) * width
               + si[:, None] + [0, 1, 1, 0])
    keys, vid = np.unique(corners, return_inverse=True)
    jv, iv = np.divmod(keys, width)
    vertices = np.column_stack([(iv + i_lo) * spacing, (jv + j_lo) * spacing])
    cells = vid.reshape(corners.shape)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)

    # a stable sort keeps the cells of each facet in ascending order
    nvert = len(vertices)
    edge_keys = _edge_keys(cells, nvert).ravel()
    order = np.argsort(edge_keys, kind="stable")
    fkeys, first, count = np.unique(edge_keys[order], return_index=True,
                                    return_counts=True)
    if count.max() > 2:
        raise ConfigurationError("non-manifold facet")
    facets = np.column_stack(np.divmod(fkeys, nvert))
    facet_cells = np.full((len(facets), 2), -1, dtype=int)
    facet_cells[:, 0] = order[first] // 3
    two = count == 2
    facet_cells[two, 1] = order[first[two] + 1] // 3

    facet_tags = np.full(len(facets), TAG_NONE, dtype=object)
    facet_component = np.full(len(facets), -1, dtype=int)
    both = facet_cells[:, 1] >= 0
    sd0 = subdom[facet_cells[:, 0]]
    sd1 = np.where(both, subdom[facet_cells[:, 1]], sd0)
    iface = both & (sd0 != sd1)
    facet_tags[iface] = TAG_INTERFACE
    dcell = np.where(subdom[facet_cells[:, 0]] == DARCY,
                     facet_cells[:, 0], facet_cells[:, 1])
    facet_component[iface] = comp_ids[dcell[iface]]
    if not iface.any():
        raise ConfigurationError("interface is empty")

    return Mesh(vertices=vertices, cells=cells, cell_subdomain=subdom,
                cell_component=comp_ids, facets=facets, facet_cells=facet_cells,
                facet_tags=facet_tags, facet_component=facet_component,
                spacing=spacing, domain=domain, nref=nref)


def _boundary_side(rect, mids, spacing):
    """Side ("left", "right", "bottom", "top", "" for none) of the lattice
    rectangle on which each facet midpoint of `mids` (n, 2) lies."""
    i0, j0, i1, j1 = rect
    tol = 1e-9 * max(1.0, spacing)
    x, y = mids.T
    return np.select([abs(x - i0 * spacing) < tol, abs(x - i1 * spacing) < tol,
                      abs(y - j0 * spacing) < tol, abs(y - j1 * spacing) < tol],
                     ["left", "right", "bottom", "top"], "")


_OPPOSITE = {"left": "right", "right": "left", "top": "bottom", "bottom": "top"}


def tag_boundaries(mesh, config):
    """Tag outer boundary facets according to the requested layout.

    Mutates and returns the mesh.  Interface facets keep their tag.
    """
    config = BcConfig(config)
    edge_tags = LAYOUTS[config].edge_tags
    (srect, drects), modes = _domain_lattice(mesh.domain, mesh.nref)
    boundary = np.nonzero(mesh.facet_cells[:, 1] < 0)[0]
    darcy = mesh.cell_subdomain[mesh.facet_cells[boundary, 0]] == DARCY
    mids = mesh.facet_midpoints(boundary)

    if edge_tags is None:
        if any(m != "inclusion" for m in modes):
            raise ConfigurationError(
                f"{config.value} layout requires all porous rectangles to be inclusions")
        if darcy.any():
            raise ConfigurationError("inclusion touches the outer boundary")
        side = _boundary_side(srect, mids, mesh.spacing)
        tags = np.where(side == "left", TAG_INFLOW,
                        np.where(side == "right", TAG_OUTFLOW, TAG_WALL))
    else:
        if len(drects) != 1 or modes[0] == "inclusion":
            raise ConfigurationError(
                f"layout {config.value} requires exactly one edge-sharing porous rectangle")
        shared = modes[0]                      # darcy side seen from stokes rect
        s_far = _OPPOSITE[shared]
        d_far = shared
        s_adj_tag, s_far_tag, d_adj_tag, d_far_tag = edge_tags
        s_side = _boundary_side(srect, mids, mesh.spacing)
        d_side = _boundary_side(drects[0], mids, mesh.spacing)
        tags = np.where(darcy,
                        np.where(d_side == d_far, d_far_tag, d_adj_tag),
                        np.where(s_side == s_far, s_far_tag, s_adj_tag))
    mesh.facet_tags[boundary] = tags

    if not np.isin(tags, sorted(STOKES_ESSENTIAL_TAGS)).any():
        raise ConfigurationError(
            "layout leaves the free-flow velocity unconstrained on the outer boundary")
    mesh.config = config
    mesh._derived = {}
    return mesh


def outward_normal(mesh, f, cell):
    """Unit normal of facet f pointing out of its adjacent cell `cell`;
    for arrays of facets and cells, shape (n, 2)."""
    p = mesh.vertices[mesh.facets[f]]
    a, b = p[..., 0, :], p[..., 1, :]
    t = b - a
    n = np.stack([t[..., 1], -t[..., 0]], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    centroid = mesh.vertices[mesh.cells[cell]].mean(axis=-2)
    inward = np.sum(n * (0.5 * (a + b) - centroid), axis=-1) < 0
    return np.where(inward[..., None], -n, n)


def stokes_cell(mesh, f):
    """The free-flow cell adjacent to interface facet(s) f."""
    c = mesh.facet_cells[f]
    return np.where(mesh.cell_subdomain[c[..., 0]] == STOKES,
                    c[..., 0], c[..., 1])


def _per_mesh(mesh, key, build):
    """`build(mesh)`, computed once per tagged mesh and kept under `key`.

    For what every (mu, K) on the mesh shares: the interface order, the
    parameter-free operator pieces and patterns, the load geometry, the
    unit-weight Riesz factors, the deflation vectors.  tag_boundaries
    clears it, since tags decide the essential dofs and the interface
    endpoints."""
    if key not in mesh._derived:
        mesh._derived[key] = build(mesh)
    return mesh._derived[key]


def interface_chains(mesh):
    """Ordered interface components with Stokes-to-Darcy normals.

    This order numbers the multiplier dofs.  It is decided by position:
    an open chain (edge-sharing layouts) is sorted by facet midpoint
    (y, x); a closed loop (inclusion) by its perimeter coordinate, counted
    counterclockwise from the lower-left corner.  Components come in
    ascending porous-rectangle index."""
    return _per_mesh(mesh, "interface chains", _interface_chains)


def _interface_chains(mesh):
    iface = np.nonzero(mesh.facet_tags == TAG_INTERFACE)[0]
    chains = []
    for comp in np.unique(mesh.facet_component[iface]):
        fids = iface[mesh.facet_component[iface] == comp]
        _, degree = np.unique(mesh.facets[fids], return_counts=True)
        ends = np.count_nonzero(degree == 1)
        if degree.max() > 2 or ends not in (0, 2):
            raise ConfigurationError("interface component is not a simple curve")
        x, y = mesh.facet_midpoints(fids).T
        if ends:
            order = np.lexsort((x, y))
        else:
            # every lattice loop is a rectangle: its bottom, right, top and
            # left sides run counterclockwise one after the other
            x0, y0, x1, y1 = x.min(), y.min(), x.max(), y.max()
            w, h = x1 - x0, y1 - y0
            order = np.argsort(np.select(
                [y == y0, x == x1, y == y1],
                [x - x0, w + y - y0, w + h + x1 - x], 2 * w + h + y1 - y))
        chain = fids[order]
        normals = outward_normal(mesh, chain, stokes_cell(mesh, chain))
        chains.append(InterfaceChain(facets=chain, normals=normals,
                                     closed=not ends, component=int(comp)))
    return chains


# the Mesh arrays a mesh file holds, as nested lists
_FILE_ARRAYS = ("vertices", "cells", "cell_subdomain", "cell_component",
                "facets", "facet_cells", "facet_tags", "facet_component")


def _chain_records(mesh):
    """The mesh's interface chains as `save_mesh` writes them."""
    return [{"facets": c.facets.tolist(), "normals": c.normals.tolist(),
             "closed": c.closed, "component": c.component}
            for c in interface_chains(mesh)]


def save_mesh(mesh, path):
    """Write the mesh as JSON (schema documented in the README)."""
    dom = mesh.domain
    doc = {"spacing": mesh.spacing, "nref": mesh.nref,
           "config": mesh.config.value if mesh.config else None,
           "domain": {"stokes_rect": list(dom.stokes_rect),
                      "darcy_rects": [list(r) for r in dom.darcy_rects],
                      "base_divisions": dom.base_divisions},
           **{name: getattr(mesh, name).tolist() for name in _FILE_ARRAYS},
           "interface": _chain_records(mesh)}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_mesh(path):
    """Read a mesh written by `save_mesh`.  Its interface chains are
    derived as on a fresh mesh; a ConfigurationError if the file's stored
    chains differ from them, or its spacing from 1/(n0 * 2**nref)."""
    with open(path) as fh:
        d = json.load(fh)
    dom = DomainSpec(tuple(d["domain"]["stokes_rect"]),
                     tuple(tuple(r) for r in d["domain"]["darcy_rects"]),
                     d["domain"]["base_divisions"])
    _domain_lattice(dom, d["nref"])         # raises for an invalid domain
    if d["spacing"] != 1.0 / (dom.base_divisions * 2 ** d["nref"]):
        raise ConfigurationError(
            f"{path}: the stored spacing is not 1/(n0 * 2**nref)")
    # tags stay Python strings, so that re-tagging may write longer ones
    arrays = {name: np.array(d[name], dtype=object if name == "facet_tags"
                             else None) for name in _FILE_ARRAYS}
    mesh = Mesh(**arrays, spacing=d["spacing"], domain=dom, nref=d["nref"],
                config=BcConfig(d["config"]) if d["config"] else None)
    if _chain_records(mesh) != d["interface"]:
        raise ConfigurationError(
            f"{path}: the stored interface chains differ from the mesh's")
    return mesh
