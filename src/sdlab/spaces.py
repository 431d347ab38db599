"""Block dof layout for the five-field coupled system.

Field order is fixed: free-flow velocity (vector P2), porous velocity
(lowest-order Raviart-Thomas), free-flow pressure (P1), porous pressure
(P0), interface multiplier (P0 on interface facets).  Entities are
numbered lexicographically (by global vertex / facet id), so the layout is
deterministic for a given mesh.  The P2 vector field is component-blocked:
all x-component scalar dofs first, then all y-components.

Raviart-Thomas dofs are facet-mean normal flux densities, measured along
the facet normal oriented from the lower-indexed adjacent cell to the
higher-indexed one (outward on boundary facets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elements as el
from .mesh import (DARCY, STOKES, STOKES_ESSENTIAL_TAGS, TAG_DARCY_ESSENTIAL,
                   _edge_keys, _per_mesh, interface_chains, outward_normal,
                   stokes_cell)

FIELDS = ("u_S", "u_D", "p_S", "p_D", "lam")


@dataclass
class BlockLayout:
    mesh: object
    stokes_cells: np.ndarray          # global cell ids
    darcy_cells: np.ndarray
    stokes_vertices: np.ndarray       # global vertex ids, ascending
    stokes_edges: np.ndarray          # (neS, 2) vertex pairs, lexicographic
    stokes_cell_scalar: np.ndarray    # (ncS, 6) scalar P2 dof ids per cell
    darcy_facets: np.ndarray          # global facet ids carrying RT dofs
    darcy_cell_facets: np.ndarray     # (ncD, 3) RT dof ids per cell
    darcy_cell_signs: np.ndarray      # (ncD, 3) orientation signs
    interface_facets: np.ndarray      # global facet ids in chain order
    interface_normals: np.ndarray     # (nlam, 2) Stokes->Darcy normals
    offsets: dict
    sizes: dict

    @property
    def total_dofs(self):
        return sum(self.sizes.values())

    @property
    def num_scalar(self):
        """Scalar P2 dofs per velocity component."""
        return len(self.stokes_vertices) + len(self.stokes_edges)

    def field_slice(self, name):
        off = self.offsets[name]
        return slice(off, off + self.sizes[name])

    def velocity_dof(self, component, scalar_id):
        return self.offsets["u_S"] + component * self.num_scalar + scalar_id

    def scalar_dof_points(self):
        """Coordinates of the P2 scalar dofs (vertices then edge midpoints)."""
        verts = self.mesh.vertices[self.stokes_vertices]
        mids = 0.5 * (self.mesh.vertices[self.stokes_edges[:, 0]]
                      + self.mesh.vertices[self.stokes_edges[:, 1]])
        return np.vstack([verts, mids])


def build_layout(mesh):
    """Number all dofs for the given tagged mesh."""
    stokes_cells = np.nonzero(mesh.cell_subdomain == STOKES)[0]
    darcy_cells = np.nonzero(mesh.cell_subdomain == DARCY)[0]
    nvert = len(mesh.vertices)

    tris = mesh.cells[stokes_cells]
    stokes_vertices, vpos = np.unique(tris, return_inverse=True)
    keys, epos = np.unique(_edge_keys(tris, nvert), return_inverse=True)
    stokes_edges = np.column_stack(np.divmod(keys, nvert))
    nv = len(stokes_vertices)
    cell_scalar = np.hstack([vpos.reshape(tris.shape),
                             nv + epos.reshape(tris.shape)])

    # the global RT normal of a facet is the outward normal of its
    # lower-indexed cell, facet_cells[f, 0] (see global_facet_normal)
    facet_keys = mesh.facets[:, 0] * nvert + mesh.facets[:, 1]
    fids = np.searchsorted(facet_keys,
                           _edge_keys(mesh.cells[darcy_cells], nvert))
    darcy_facets, fpos = np.unique(fids, return_inverse=True)
    cell_facets = fpos.reshape(fids.shape)
    cell_signs = np.where(mesh.facet_cells[fids, 0] == darcy_cells[:, None],
                          1, -1)

    chains = interface_chains(mesh)
    interface = np.concatenate([ch.facets for ch in chains])
    normals = np.vstack([ch.normals for ch in chains])

    sizes = {
        "u_S": 2 * (nv + len(stokes_edges)),
        "u_D": len(darcy_facets),
        "p_S": nv,
        "p_D": len(darcy_cells),
        "lam": len(interface),
    }
    offsets, off = {}, 0
    for name in FIELDS:
        offsets[name] = off
        off += sizes[name]

    return BlockLayout(mesh=mesh, stokes_cells=stokes_cells,
                       darcy_cells=darcy_cells,
                       stokes_vertices=stokes_vertices,
                       stokes_edges=stokes_edges,
                       stokes_cell_scalar=cell_scalar,
                       darcy_facets=darcy_facets,
                       darcy_cell_facets=cell_facets,
                       darcy_cell_signs=cell_signs,
                       interface_facets=interface,
                       interface_normals=normals,
                       offsets=offsets, sizes=sizes)


def global_facet_normal(mesh, f):
    """Normal fixing the sign of the RT dof on facet(s) f: the outward
    normal of its lower-indexed adjacent cell (facet_cells rows sorted)."""
    return outward_normal(mesh, f, mesh.facet_cells[f, 0])


def essential_dofs(layout):
    """Indices of essentially constrained dofs (sorted, unique).

    P2 velocity dofs (both components) on essentially tagged free-flow
    facets, RT normal-flux dofs on essentially tagged porous facets.
    Interface facets are never constrained.
    """
    mesh = layout.mesh
    tags = mesh.facet_tags
    nvert = len(mesh.vertices)
    a, b = mesh.facets[np.isin(tags, sorted(STOKES_ESSENTIAL_TAGS))].T
    edge_keys = layout.stokes_edges[:, 0] * nvert + layout.stokes_edges[:, 1]
    scalars = np.concatenate([
        np.searchsorted(layout.stokes_vertices, a),
        np.searchsorted(layout.stokes_vertices, b),
        len(layout.stokes_vertices) + np.searchsorted(edge_keys, a * nvert + b)])
    flux = np.searchsorted(layout.darcy_facets,
                           np.nonzero(tags == TAG_DARCY_ESSENTIAL)[0])
    return np.unique(np.concatenate([
        layout.velocity_dof(0, scalars), layout.velocity_dof(1, scalars),
        layout.offsets["u_D"] + flux]))


def _facet_quadrature(layout, facets, degree, trace=False):
    """Gauss points (nf, nq, 2) and weights (nf, nq) of the segment rule of
    `degree` on each facet; with `trace`, also the P2 basis (nf, 6, nq) of
    each facet's free-flow cell at those points and that cell's scalar dofs
    (nf, 6)."""
    mesh = layout.mesh
    t, w = el.segment_rule(degree)
    p = mesh.vertices[mesh.facets[facets]]
    a, d = p[:, 0], p[:, 1] - p[:, 0]
    x = a[:, None, :] + t[None, :, None] * d[:, None, :]
    ds = w[None, :] * np.linalg.norm(d, axis=1)[:, None]
    if not trace:
        return x, ds
    cells = stokes_cell(mesh, facets)
    coords = mesh.cell_coords(cells)
    _, inv, _ = el.affine_maps(coords)
    ref = (x - coords[:, None, 0]) @ np.swapaxes(inv, 1, 2)
    phi = el.p2_basis(ref.reshape(-1, 2)).reshape(6, *ds.shape)
    cs = layout.stokes_cell_scalar[np.searchsorted(layout.stokes_cells, cells)]
    return x, ds, phi.transpose(1, 0, 2), cs


def _dot(a, q):
    """a @ q facet by facet: a (nf, n) or (nf, k, n), q (nf, n)."""
    if a.ndim == 2:
        return (a[:, None, :] @ q[:, :, None])[:, 0, 0]
    return (a @ q[:, :, None])[..., 0]


def essential_values(layout, dofs, u_S=None, u_D=None):
    """Interpolated values for the constrained dofs.

    u_S maps points (n, 2) to velocities (n, 2) and is sampled at the P2
    nodes; u_D maps points to porous velocities and is reduced to facet-mean
    normal flux densities by Gauss quadrature.  Each is called once, on all
    its points.  Missing fields give zeros.  The points are kept per mesh
    and set of dofs (`_essential_points`).
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    vals = np.zeros(len(dofs))
    at = _essential_points(layout, dofs)
    if u_S is not None and len(at.u_S):
        uv = u_S(at.nodes)
        vals[at.u_S] = uv[np.arange(len(at.u_S)), at.component]
    if u_D is not None and len(at.u_D):
        u = u_D(at.gauss.reshape(-1, 2)).reshape(at.gauss.shape)
        un = _dot(u, at.normals)
        w = el.segment_rule(5)[1]          # sums to 1: the facet mean
        vals[at.u_D] = _dot(un, np.broadcast_to(w, un.shape))
    return vals


@dataclass
class _EssentialPoints:
    """Where `essential_values` samples: the positions in `dofs` of the
    u_S dofs, their components and P2 nodes; the positions of the u_D dofs,
    the degree-5 Gauss points (n, nq, 2) and RT normals of their facets."""

    u_S: np.ndarray
    component: np.ndarray
    nodes: np.ndarray
    u_D: np.ndarray
    gauss: np.ndarray
    normals: np.ndarray


def _essential_points(layout, dofs):
    """The `_EssentialPoints` of `dofs`, kept per mesh and set of dofs:
    assemble_system asks for those of the mesh's essential dofs."""
    def select(field):
        loc = dofs - layout.offsets[field]
        sel = np.nonzero((loc >= 0) & (loc < layout.sizes[field]))[0]
        return sel, loc[sel]

    def build(mesh):
        s, loc = select("u_S")
        comp, scal = np.divmod(loc, layout.num_scalar)
        d, loc = select("u_D")
        f = layout.darcy_facets[loc]
        return _EssentialPoints(
            u_S=s, component=comp, nodes=layout.scalar_dof_points()[scal],
            u_D=d, gauss=_facet_quadrature(layout, f, 5)[0],
            normals=global_facet_normal(mesh, f))
    return _per_mesh(layout.mesh, ("essential points", dofs.tobytes()), build)
