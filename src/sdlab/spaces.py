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

This module numbers the dofs and picks the essential ones; it evaluates
no load data.  Sampling the essential data is `assembly.essential_values`.
A `BlockLayout` is only the numbering and holds no mesh: what needs the
geometry takes the mesh next to the layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (DARCY, STOKES, STOKES_ESSENTIAL_TAGS, TAG_DARCY_ESSENTIAL,
                   _edge_keys, interface_chains, outward_normal)

FIELDS = ("u_S", "u_D", "p_S", "p_D", "lam")


@dataclass
class BlockLayout:
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

    @property
    def interface_tangents(self):
        """(nlam, 2) interface tangents: the normals rotated by +90 degrees."""
        n = self.interface_normals
        return np.column_stack([-n[:, 1], n[:, 0]])

    def field_slice(self, name):
        off = self.offsets[name]
        return slice(off, off + self.sizes[name])

    def velocity_dof(self, component, scalar_id):
        return self.offsets["u_S"] + component * self.num_scalar + scalar_id

    def flux_dof(self, facets):
        """The RT dof of each of the porous `facets` (global facet ids)."""
        return self.offsets["u_D"] + np.searchsorted(self.darcy_facets, facets)

    def scalar_dof_points(self, mesh):
        """Coordinates of the P2 scalar dofs (vertices then edge midpoints)
        on the mesh the layout numbers."""
        v = mesh.vertices
        mids = 0.5 * (v[self.stokes_edges[:, 0]] + v[self.stokes_edges[:, 1]])
        return np.vstack([v[self.stokes_vertices], mids])


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

    facet_keys = mesh.facets[:, 0] * nvert + mesh.facets[:, 1]
    fids = np.searchsorted(facet_keys,
                           _edge_keys(mesh.cells[darcy_cells], nvert))
    darcy_facets, fpos = np.unique(fids, return_inverse=True)
    cell_facets = fpos.reshape(fids.shape)
    cell_signs = facet_sign(mesh, fids, darcy_cells[:, None])

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

    return BlockLayout(stokes_cells=stokes_cells, darcy_cells=darcy_cells,
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


def facet_sign(mesh, f, cell):
    """+1 where `global_facet_normal` of facet(s) f points out of its
    adjacent cell(s) `cell`, -1 where it points in."""
    return np.where(mesh.facet_cells[f, 0] == cell, 1, -1)


def essential_dofs(mesh, layout):
    """Indices of essentially constrained dofs (sorted, unique).

    P2 velocity dofs (both components) on essentially tagged free-flow
    facets, then RT normal-flux dofs on essentially tagged porous facets,
    in facet order.  Interface facets are never constrained.
    """
    tags = mesh.facet_tags
    nvert = len(mesh.vertices)
    a, b = mesh.facets[np.isin(tags, sorted(STOKES_ESSENTIAL_TAGS))].T
    edge_keys = layout.stokes_edges[:, 0] * nvert + layout.stokes_edges[:, 1]
    scalars = np.concatenate([
        np.searchsorted(layout.stokes_vertices, a),
        np.searchsorted(layout.stokes_vertices, b),
        len(layout.stokes_vertices) + np.searchsorted(edge_keys, a * nvert + b)])
    return np.unique(np.concatenate([
        layout.velocity_dof(0, scalars), layout.velocity_dof(1, scalars),
        layout.flux_dof(np.nonzero(tags == TAG_DARCY_ESSENTIAL)[0])]))
