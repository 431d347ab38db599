"""Independent oracles used to cross-check the package.

Everything here deliberately avoids the package's quadrature tables,
reference-element maps, and vectorized kernels: bases are evaluated from
barycentric coordinates computed per physical cell, integration uses
tensor Gauss-Legendre on the collapsed square (Duffy map), and loops are
plain Python, over cells and quadrature points.  Only the viscous term
forms the 12 x 12 products of one point at once.  Slow but transparent.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from sdlab.elements import LOCAL_EDGES
from sdlab.mesh import (DARCY, STOKES, STOKES_ESSENTIAL_TAGS,
                        STOKES_NATURAL_TAGS, TAG_DARCY_ESSENTIAL,
                        TAG_DARCY_NATURAL, TAG_INFLOW, TAG_INTERFACE,
                        TAG_NONE, TAG_OUTFLOW, TAG_STOKES_ESSENTIAL,
                        TAG_STOKES_NATURAL, TAG_WALL,
                        BcConfig, ConfigurationError, InterfaceChain, Mesh,
                        outward_normal, stokes_cell)
from sdlab.spaces import FIELDS, BlockLayout, global_facet_normal


def duffy_rule(n):
    """Tensor Gauss-Legendre on the unit triangle via (u, v(1-u))."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts, wts = [], []
    for i in range(n):
        for j in range(n):
            pts.append((x[i], x[j] * (1.0 - x[i])))
            wts.append(w[i] * w[j] * (1.0 - x[i]))
    return np.array(pts), np.array(wts)


def segment_rule_1d(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def exact_nquad(degree):
    """The fewest Gauss points per direction for which `duffy_rule` and
    `segment_rule_1d` integrate every polynomial of `degree` exactly: n
    points are exact to degree 2n - 1, and the Duffy map's Jacobian adds
    one degree along the collapsed direction."""
    return degree // 2 + 1


# A and N integrate polynomials of degree at most 4: products of P2
# traces along a facet; on cells, products of P2 gradients, P1 and RT0
# functions are of degree 2
ORACLE_NQUAD = exact_nquad(4)


def barycentric(tri, pts):
    """Barycentric coordinates of physical points, plus their gradients."""
    T = np.array([[tri[0][0], tri[1][0], tri[2][0]],
                  [tri[0][1], tri[1][1], tri[2][1]],
                  [1.0, 1.0, 1.0]])
    Tinv = np.linalg.inv(T)
    lam = np.array([Tinv @ np.array([p[0], p[1], 1.0]) for p in pts])
    grads = Tinv[:, :2]
    return lam, grads


def p2_value(lam, k):
    if k < 3:
        return lam[k] * (2.0 * lam[k] - 1.0)
    pairs = ((0, 1), (1, 2), (0, 2))
    i, j = pairs[k - 3]
    return 4.0 * lam[i] * lam[j]


def p2_grad(lam, grads, k):
    if k < 3:
        return (4.0 * lam[k] - 1.0) * grads[k]
    pairs = ((0, 1), (1, 2), (0, 2))
    i, j = pairs[k - 3]
    return 4.0 * (lam[i] * grads[j] + lam[j] * grads[i])


def p1_value(lam, k):
    return lam[k]


def triangle_area(tri):
    return 0.5 * abs((tri[1][0] - tri[0][0]) * (tri[2][1] - tri[0][1])
                     - (tri[2][0] - tri[0][0]) * (tri[1][1] - tri[0][1]))


def map_to_cell(tri, ref_pts):
    a = np.asarray(tri[0])
    return [a + r[0] * (np.asarray(tri[1]) - a) + r[1] * (np.asarray(tri[2]) - a)
            for r in ref_pts]


def rt0_data(mesh, layout, cell_row, cell):
    """Per-facet basis closures for the cell's three flux dofs."""
    tri = mesh.vertices[mesh.cells[cell]]
    area = triangle_area(tri)
    out = []
    for le, (i, j) in enumerate(((0, 1), (1, 2), (0, 2))):
        opp = {0: 2, 1: 0, 2: 1}[le]
        a, b = sorted((mesh.cells[cell][i], mesh.cells[cell][j]))
        f = layout.darcy_cell_facets[cell_row, le]   # flux dof index
        edge = np.linalg.norm(mesh.vertices[b] - mesh.vertices[a])
        n = global_facet_normal(mesh, layout.darcy_facets[f])
        centroid = tri.mean(axis=0)
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        sigma = 1.0 if np.dot(n, mid - centroid) > 0 else -1.0
        p_opp = mesh.vertices[mesh.cells[cell][opp]]

        def basis(x, s=sigma, e=edge, A=area, p=p_opp):
            return s * e / (2.0 * A) * (np.asarray(x) - p)

        out.append((f, basis, sigma * edge / area))
    return out


def _reference_lattice(domain, nref):
    """The free-flow and porous rectangles of a valid domain in squares of
    the mesh at nref, each coordinate times n0 * 2^nref rounded, and per
    porous one the side of the free-flow rectangle it shares, or
    "inclusion"."""
    k = domain.base_divisions * 2 ** nref
    srect, *drects = [tuple(int(round(v * k)) for v in r)
                      for r in (domain.stokes_rect, *domain.darcy_rects)]
    I0, J0, I1, J1 = srect
    sides = []
    for i0, j0, i1, j1 in drects:
        touches = {"right": i0 == I1, "left": i1 == I0,
                   "top": j0 == J1, "bottom": j1 == J0}
        sides.append(next((s for s, t in touches.items() if t), "inclusion"))
    return srect, drects, sides


def reference_mesh(domain, nref=0):
    """Loop-based mesh building for a valid domain: dicts keyed by lattice
    square, vertex and vertex pair.  Reference for
    `mesh.build_coupled_mesh`."""
    spacing = 1.0 / (domain.base_divisions * 2 ** nref)
    srect, drects, _ = _reference_lattice(domain, nref)

    squares = {}
    for comp, (i0, j0, i1, j1) in enumerate(drects):
        for j in range(j0, j1):
            for i in range(i0, i1):
                squares[(i, j)] = (DARCY, comp)
    I0, J0, I1, J1 = srect
    for j in range(J0, J1):
        for i in range(I0, I1):
            squares.setdefault((i, j), (STOKES, -1))

    vertex_ids = {}

    def vid(i, j):
        key = (j, i)
        if key not in vertex_ids:
            vertex_ids[key] = None
        return key

    order = sorted(squares)
    for (i, j) in order:
        for corner in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
            vid(*corner)
    for k, key in enumerate(sorted(vertex_ids)):
        vertex_ids[key] = k
    vertices = np.array([(i * spacing, j * spacing) for (j, i) in sorted(vertex_ids)])

    cells, subdom, comp_ids = [], [], []
    for (i, j) in sorted(squares, key=lambda s: (s[1], s[0])):
        sd, comp = squares[(i, j)]
        v00 = vertex_ids[(j, i)]
        v10 = vertex_ids[(j, i + 1)]
        v11 = vertex_ids[(j + 1, i + 1)]
        v01 = vertex_ids[(j + 1, i)]
        cells.append((v00, v10, v11))
        cells.append((v00, v11, v01))
        subdom.extend([sd, sd])
        comp_ids.extend([comp, comp])
    cells = np.array(cells)
    subdom = np.array(subdom)
    comp_ids = np.array(comp_ids)

    facet_map = {}
    for c, tri in enumerate(cells):
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])):
            key = (min(a, b), max(a, b))
            facet_map.setdefault(key, []).append(c)
    facet_keys = sorted(facet_map)
    facets = np.array(facet_keys)
    facet_cells = np.full((len(facets), 2), -1, dtype=int)
    for f, key in enumerate(facet_keys):
        adj = sorted(facet_map[key])
        if len(adj) > 2:
            raise ConfigurationError("non-manifold facet")
        facet_cells[f, :len(adj)] = adj

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

    mesh = Mesh(vertices=vertices, cells=cells, cell_subdomain=subdom,
                cell_component=comp_ids, facets=facets, facet_cells=facet_cells,
                facet_tags=facet_tags, facet_component=facet_component,
                spacing=spacing, domain=domain, nref=nref)
    return mesh


def _reference_side(rect, fmid, spacing):
    """Which side of the lattice rectangle a boundary facet lies on."""
    i0, j0, i1, j1 = rect
    tol = 1e-9 * max(1.0, spacing)
    if abs(fmid[0] - i0 * spacing) < tol:
        return "left"
    if abs(fmid[0] - i1 * spacing) < tol:
        return "right"
    if abs(fmid[1] - j0 * spacing) < tol:
        return "bottom"
    if abs(fmid[1] - j1 * spacing) < tol:
        return "top"
    return None


def reference_tag_boundaries(mesh, config):
    """Loop-based boundary tagging, one side test per facet.  Reference for
    `mesh.tag_boundaries`."""
    config = BcConfig(config)
    srect, drects, modes = _reference_lattice(mesh.domain, mesh.nref)
    boundary = np.nonzero(mesh.facet_cells[:, 1] < 0)[0]

    if config is BcConfig.MULTI:
        if any(m != "inclusion" for m in modes):
            raise ConfigurationError(
                "MultiInclusion layout requires all porous rectangles to be inclusions")
        for f in boundary:
            cell = mesh.facet_cells[f, 0]
            if mesh.cell_subdomain[cell] == DARCY:
                raise ConfigurationError("inclusion touches the outer boundary")
            side = _reference_side(srect, mesh.facet_midpoints([f])[0], mesh.spacing)
            tag = {"left": TAG_INFLOW, "right": TAG_OUTFLOW,
                   "top": TAG_WALL, "bottom": TAG_WALL}[side]
            mesh.facet_tags[f] = tag
    else:
        if len(drects) != 1 or modes[0] == "inclusion":
            raise ConfigurationError(
                f"layout {config.value} requires exactly one edge-sharing porous rectangle")
        shared = modes[0]                      # darcy side seen from stokes rect
        s_far = ORACLE_OPPOSITE[shared]
        d_far = shared
        s_adj_tag, s_far_tag, d_adj_tag, d_far_tag = ORACLE_EDGE_TAGS[config]
        for f in boundary:
            cell = mesh.facet_cells[f, 0]
            fmid = mesh.facet_midpoints([f])[0]
            if mesh.cell_subdomain[cell] == STOKES:
                side = _reference_side(srect, fmid, mesh.spacing)
                mesh.facet_tags[f] = s_far_tag if side == s_far else s_adj_tag
            else:
                side = _reference_side(drects[0], fmid, mesh.spacing)
                mesh.facet_tags[f] = d_far_tag if side == d_far else d_adj_tag

    has_essential = any(mesh.facet_tags[f] in STOKES_ESSENTIAL_TAGS for f in boundary)
    if not has_essential:
        raise ConfigurationError(
            "layout leaves the free-flow velocity unconstrained on the outer boundary")
    mesh.config = config
    mesh._derived = {}
    return mesh


# the Mesh arrays that reference_mesh and reference_tag_boundaries build
# independently
MESH_TABLES = ("vertices", "cells", "cell_subdomain", "cell_component",
               "facets", "facet_cells", "facet_tags", "facet_component")


def assert_same_tables(got, want):
    """The MESH_TABLES of two meshes are equal, dtypes included."""
    for name in MESH_TABLES:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def reference_interface_chains(mesh):
    """Facet-graph walk over each interface component: from the end vertex
    with the smallest (y, x) along an open chain, from the facet with the
    smallest midpoint (y, x) around a closed loop, which is then flipped
    to run counterclockwise.  Reference for `mesh.interface_chains`."""
    iface = np.nonzero(mesh.facet_tags == TAG_INTERFACE)[0]
    chains = []
    for comp in sorted(set(mesh.facet_component[iface])):
        fids = iface[mesh.facet_component[iface] == comp]
        by_vertex = {}
        for f in fids:
            for v in mesh.facets[f]:
                by_vertex.setdefault(v, []).append(f)
        ends = sorted(v for v, fs in by_vertex.items() if len(fs) == 1)
        closed = not ends
        mids = mesh.facet_midpoints(fids)
        order_key = {f: (m[1], m[0]) for f, m in zip(fids, mids)}
        if closed:
            start = min(fids, key=lambda f: order_key[f])
            prev_v = min(mesh.facets[start])
        else:
            if len(ends) != 2:
                raise ConfigurationError("interface component is not a simple curve")
            start_v = min(
                ends, key=lambda v: (mesh.vertices[v][1], mesh.vertices[v][0]))
            start = by_vertex[start_v][0]
            prev_v = start_v
        chain = [start]
        cur = start
        while True:
            nxt_v = [v for v in mesh.facets[cur] if v != prev_v][0]
            cand = [f for f in by_vertex[nxt_v] if f != cur]
            if not cand:
                break
            cur = cand[0]
            prev_v = nxt_v
            if cur == start:
                break
            chain.append(cur)
        if len(chain) != len(fids):
            raise ConfigurationError("interface component is not a simple curve")
        chain = np.array(chain)
        normals = outward_normal(mesh, chain, stokes_cell(mesh, chain))
        if closed:
            # counterclockwise traversal around the inclusion: the
            # Stokes->Darcy normal then points to the left of the tangent
            p = mesh.facet_midpoints(chain)
            q = np.roll(p, -1, axis=0)
            if np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]) < 0:
                chain = chain[::-1].copy()
                normals = normals[::-1].copy()
        chains.append(InterfaceChain(facets=chain, normals=normals,
                                     closed=closed, component=int(comp)))
    return chains


def same_chains(got, want):
    """Whether two lists of InterfaceChain agree exactly."""
    return len(got) == len(want) and all(
        np.array_equal(a.facets, b.facets) and np.array_equal(a.normals, b.normals)
        and (a.closed, a.component) == (b.closed, b.component)
        for a, b in zip(got, want))


# the BlockLayout arrays that reference_layout builds independently
LAYOUT_TABLES = ("stokes_cells", "darcy_cells", "stokes_vertices",
                 "stokes_edges", "stokes_cell_scalar", "darcy_facets",
                 "darcy_cell_facets", "darcy_cell_signs", "interface_facets",
                 "interface_normals")


def reference_layout(mesh):
    """Loop-based dof numbering: dict lookups per cell and a geometric
    orientation sign per RT dof.  Reference for `spaces.build_layout`."""
    stokes_cells = np.nonzero(mesh.cell_subdomain == STOKES)[0]
    darcy_cells = np.nonzero(mesh.cell_subdomain == DARCY)[0]

    stokes_vertices = np.unique(mesh.cells[stokes_cells])
    vmap = {v: i for i, v in enumerate(stokes_vertices)}

    edge_set = set()
    for tri in mesh.cells[stokes_cells]:
        for a, b in LOCAL_EDGES:
            edge_set.add((min(tri[a], tri[b]), max(tri[a], tri[b])))
    stokes_edges = np.array(sorted(edge_set))
    emap = {tuple(e): i for i, e in enumerate(stokes_edges)}

    nv = len(stokes_vertices)
    cell_scalar = np.empty((len(stokes_cells), 6), dtype=int)
    for r, c in enumerate(stokes_cells):
        tri = mesh.cells[c]
        for k in range(3):
            cell_scalar[r, k] = vmap[tri[k]]
        for k, (a, b) in enumerate(LOCAL_EDGES):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            cell_scalar[r, 3 + k] = nv + emap[key]

    fset = set()
    for r, c in enumerate(darcy_cells):
        tri = mesh.cells[c]
        for a, b in LOCAL_EDGES:
            fset.add((min(tri[a], tri[b]), max(tri[a], tri[b])))
    pair_to_fid = {tuple(p): f for f, p in enumerate(mesh.facets)}
    darcy_facets = np.array(sorted(pair_to_fid[p] for p in fset))
    fmap = {f: i for i, f in enumerate(darcy_facets)}

    cell_facets = np.empty((len(darcy_cells), 3), dtype=int)
    cell_signs = np.empty((len(darcy_cells), 3), dtype=int)
    for r, c in enumerate(darcy_cells):
        tri = mesh.cells[c]
        for k, (a, b) in enumerate(LOCAL_EDGES):
            pair = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            f = pair_to_fid[pair]
            cell_facets[r, k] = fmap[f]
            cell_signs[r, k] = _orientation_sign(mesh, f, c)

    chains = reference_interface_chains(mesh)
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


def _orientation_sign(mesh, f, cell):
    n_glob = global_facet_normal(mesh, f)
    n_out = outward_normal(mesh, f, cell)
    return 1 if np.dot(n_glob, n_out) > 0 else -1


def reference_essential_dofs(mesh, layout):
    """Loop-based essential dof selection, one dict lookup per facet.
    Reference for `spaces.essential_dofs`."""
    vmap = {v: i for i, v in enumerate(layout.stokes_vertices)}
    emap = {tuple(e): i for i, e in enumerate(layout.stokes_edges)}
    fmap = {f: i for i, f in enumerate(layout.darcy_facets)}
    nv = len(layout.stokes_vertices)
    idx = []
    for f in range(len(mesh.facets)):
        tag = mesh.facet_tags[f]
        if tag in STOKES_ESSENTIAL_TAGS:
            a, b = mesh.facets[f]
            scalars = [vmap[a], vmap[b], nv + emap[(min(a, b), max(a, b))]]
            for s in scalars:
                idx.append(layout.velocity_dof(0, s))
                idx.append(layout.velocity_dof(1, s))
        elif tag == TAG_DARCY_ESSENTIAL:
            idx.append(layout.offsets["u_D"] + fmap[f])
    return np.unique(np.array(idx, dtype=int))


def _outward(mesh, f):
    """Unit normal of boundary facet f out of its cell: the tangent turned
    clockwise, flipped where it points towards the cell's centroid."""
    pa, pb = mesh.vertices[mesh.facets[f]]
    t = (pb - pa) / np.linalg.norm(pb - pa)
    n = np.array([t[1], -t[0]])
    centroid = mesh.vertices[mesh.cells[mesh.facet_cells[f, 0]]].mean(axis=0)
    return -n if np.dot(n, 0.5 * (pa + pb) - centroid) < 0 else n


def reference_essential_values(mesh, layout, u_S, u_D):
    """Loop over the essential facets: u_S at the two vertices and the
    midpoint of each essential free-flow facet, read from mesh.vertices;
    u_D as the mean of u.n over three Gauss points of each essential
    porous facet, n its `_outward` normal.  Returns the dofs, sorted, and
    their values.  Reference for `assembly.essential_values`."""
    vmap = {v: i for i, v in enumerate(layout.stokes_vertices)}
    emap = {tuple(e): i for i, e in enumerate(layout.stokes_edges)}
    fmap = {f: i for i, f in enumerate(layout.darcy_facets)}
    nv = len(layout.stokes_vertices)
    t, w = segment_rule_1d(3)
    value = {}
    for f in range(len(mesh.facets)):
        tag = mesh.facet_tags[f]
        a, b = mesh.facets[f]
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        if tag in STOKES_ESSENTIAL_TAGS:
            for s, x in ((vmap[a], pa), (vmap[b], pb),
                         (nv + emap[(a, b)], 0.5 * (pa + pb))):
                u = u_S(np.array([x]))[0]
                for c in range(2):
                    value[layout.velocity_dof(c, s)] = u[c]
        elif tag == TAG_DARCY_ESSENTIAL:
            pts = np.array([pa + ti * (pb - pa) for ti in t])
            value[layout.offsets["u_D"] + fmap[f]] = np.dot(
                w, u_D(pts) @ _outward(mesh, f))
    dofs = sorted(value)
    return np.array(dofs), np.array([value[d] for d in dofs])


def _stokes_interface_cell(mesh, layout, f):
    """The free-flow cell of interface facet f and its scalar P2 dofs."""
    cell = None
    for c in mesh.facet_cells[f]:
        if c >= 0 and mesh.cell_subdomain[c] == 0:
            cell = c
    srow = list(layout.stokes_cells).index(cell)
    return cell, layout.stokes_cell_scalar[srow]


def _velocity_block(mesh, layout, params, M, nquad=ORACLE_NQUAD):
    """Add the free-flow velocity block, which the operator and the Riesz
    map share, to the dense matrix M: the viscous term 2 mu eps(u):eps(v)
    and the tangential friction beta_tau (u.tau)(v.tau) on the interface."""
    ref_pts, ref_w = duffy_rule(nquad)
    for row, cell in enumerate(layout.stokes_cells):
        tri = mesh.vertices[mesh.cells[cell]]
        pts = map_to_cell(tri, ref_pts)
        w = 2.0 * triangle_area(tri) * ref_w
        lam, grads = barycentric(tri, pts)
        cs = layout.stokes_cell_scalar[row]
        dofs = [layout.velocity_dof(c, cs[a]) for a in range(6) for c in range(2)]
        for q in range(len(pts)):
            # strain eps(phi_a e_c) of each of the 12 vector basis functions
            eps = np.zeros((6, 2, 2, 2))
            for a in range(6):
                g = 0.5 * p2_grad(lam[q], grads, a)
                for c in range(2):
                    eps[a, c, c] += g
                    eps[a, c, :, c] += g
            eps = eps.reshape(12, 4)
            M[np.ix_(dofs, dofs)] += 2.0 * params.mu * (eps @ eps.T) * w[q]

    x1d, w1d = segment_rule_1d(nquad)
    beta = params.beta_tau
    for pos, f in enumerate(layout.interface_facets):
        pa, pb = mesh.vertices[mesh.facets[f]]
        n_S = layout.interface_normals[pos]
        tau = np.array([-n_S[1], n_S[0]])
        cell, cs = _stokes_interface_cell(mesh, layout, f)
        pts = [pa + t * (pb - pa) for t in x1d]
        ds = np.linalg.norm(pb - pa) * w1d
        lam_bc, _ = barycentric(mesh.vertices[mesh.cells[cell]], pts)
        for q in range(len(pts)):
            vb = [p2_value(lam_bc[q], k) for k in range(6)]
            for a_ in range(6):
                for b_ in range(6):
                    for ca in range(2):
                        for cb in range(2):
                            val = (beta * vb[a_] * tau[ca] * vb[b_] * tau[cb]
                                   * ds[q])
                            M[layout.velocity_dof(cb, cs[b_]),
                              layout.velocity_dof(ca, cs[a_])] += val


def oracle_operator(mesh, layout, params, nquad=ORACLE_NQUAD):
    """Dense saddle-point matrix assembled the slow way."""
    n = layout.total_dofs
    A = np.zeros((n, n))
    _velocity_block(mesh, layout, params, A, nquad)
    ref_pts, ref_w = duffy_rule(nquad)
    K = params.K

    # pressure-divergence coupling, both transposes
    for row, cell in enumerate(layout.stokes_cells):
        tri = mesh.vertices[mesh.cells[cell]]
        pts = map_to_cell(tri, ref_pts)
        w = 2.0 * triangle_area(tri) * ref_w
        lam, grads = barycentric(tri, pts)
        cs = layout.stokes_cell_scalar[row]
        for q in range(len(pts)):
            gb = [p2_grad(lam[q], grads, k) for k in range(6)]
            for a in range(6):
                for ca in range(2):
                    for b in range(3):
                        val = -gb[a][ca] * p1_value(lam[q], b) * w[q]
                        r = layout.offsets["p_S"] + cs[b]
                        c = layout.velocity_dof(ca, cs[a])
                        A[r, c] += val
                        A[c, r] += val

    for row, cell in enumerate(layout.darcy_cells):
        tri = mesh.vertices[mesh.cells[cell]]
        area = triangle_area(tri)
        pts = map_to_cell(tri, ref_pts)
        w = 2.0 * area * ref_w
        data = rt0_data(mesh, layout, row, cell)
        off_u, off_p = layout.offsets["u_D"], layout.offsets["p_D"]
        for (fa, ba, diva) in data:
            for (fb, bb, divb) in data:
                val = sum(np.dot(ba(pts[q]), bb(pts[q])) * w[q]
                          for q in range(len(pts)))
                A[off_u + fa, off_u + fb] += val / K
            A[off_p + row, off_u + fa] += -diva * area
            A[off_u + fa, off_p + row] += -diva * area

    # interface terms: multiplier coupling with both normal traces
    x1d, w1d = segment_rule_1d(nquad)
    fmap = {f: i for i, f in enumerate(layout.darcy_facets)}
    lam_off = layout.offsets["lam"]
    for pos, f in enumerate(layout.interface_facets):
        pa, pb = mesh.vertices[mesh.facets[f]]
        length = np.linalg.norm(pb - pa)
        n_S = layout.interface_normals[pos]
        cell, cs = _stokes_interface_cell(mesh, layout, f)
        pts = [pa + t * (pb - pa) for t in x1d]
        ds = length * w1d
        lam_bc, _ = barycentric(mesh.vertices[mesh.cells[cell]], pts)
        r = lam_off + pos
        for q in range(len(pts)):
            vb = [p2_value(lam_bc[q], k) for k in range(6)]
            # multiplier pairing with the free-flow normal trace
            for a_ in range(6):
                for ca in range(2):
                    val = vb[a_] * n_S[ca] * ds[q]
                    c = layout.velocity_dof(ca, cs[a_])
                    A[r, c] += val
                    A[c, r] += val
        # porous normal trace pairs with the multiplier through the flux dof
        sigma_rel = np.dot(global_facet_normal(mesh, f), n_S)
        c = layout.offsets["u_D"] + fmap[f]
        A[r, c] += -sigma_rel * length
        A[c, r] += -sigma_rel * length
    return A


# the side opposite each side of a rectangle
ORACLE_OPPOSITE = {"left": "right", "right": "left",
                   "bottom": "top", "top": "bottom"}

# tags of (free-flow edges adjacent to the interface, free-flow far edge,
# porous adjacent edges, porous far edge) per edge-sharing layout: the
# table of README § Boundary-condition cases
ORACLE_EDGE_TAGS = {
    BcConfig.NN: (TAG_STOKES_NATURAL, TAG_STOKES_ESSENTIAL,
                  TAG_DARCY_NATURAL, TAG_DARCY_ESSENTIAL),
    BcConfig.EE: (TAG_STOKES_ESSENTIAL, TAG_STOKES_ESSENTIAL,
                  TAG_DARCY_ESSENTIAL, TAG_DARCY_ESSENTIAL),
    BcConfig.NESTAR: (TAG_STOKES_NATURAL, TAG_STOKES_ESSENTIAL,
                      TAG_DARCY_ESSENTIAL, TAG_DARCY_NATURAL),
    BcConfig.ENSTAR: (TAG_STOKES_ESSENTIAL, TAG_STOKES_NATURAL,
                      TAG_DARCY_NATURAL, TAG_DARCY_ESSENTIAL),
    BcConfig.NE: (TAG_STOKES_NATURAL, TAG_STOKES_ESSENTIAL,
                  TAG_DARCY_ESSENTIAL, TAG_DARCY_ESSENTIAL),
    BcConfig.EN: (TAG_STOKES_ESSENTIAL, TAG_STOKES_ESSENTIAL,
                  TAG_DARCY_NATURAL, TAG_DARCY_ESSENTIAL),
}

# endpoint condition of the facet Laplacian under (the (-1/2) power, the
# (+1/2) power), per layout: the table of README § Boundary-condition cases
ORACLE_ENDPOINTS = {
    BcConfig.NN: ("free", "zero"),
    BcConfig.EE: ("zero", "free"),
    BcConfig.NESTAR: ("free", "free"),
    BcConfig.ENSTAR: ("zero", "zero"),
    BcConfig.NE: ("free", "free"),
    BcConfig.EN: ("zero", "zero"),
    BcConfig.MULTI: ("free", "free"),
}


def oracle_facet_laplacian(mesh, layout, endpoint):
    """The multiplier's finite-volume Laplacian L, in the layout's interface
    order, and the facet lengths, by a loop over the facets of each
    `reference_interface_chains` chain: 1/distance between neighbouring
    midpoints, the last and first facet of a loop included, and 2/|F| on
    the diagonal of each end facet of an open chain if `endpoint` is
    "zero"."""
    at = {f: i for i, f in enumerate(layout.interface_facets)}
    n = len(at)
    L = np.zeros((n, n))
    ends = mesh.vertices[mesh.facets[layout.interface_facets]]
    mids = 0.5 * (ends[:, 0] + ends[:, 1])
    lengths = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    for chain in reference_interface_chains(mesh):
        idx = [at[f] for f in chain.facets]
        pairs = list(zip(idx[:-1], idx[1:]))
        if chain.closed:
            pairs.append((idx[-1], idx[0]))
        for i, j in pairs:
            w = 1.0 / np.linalg.norm(mids[i] - mids[j])
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
        if not chain.closed and endpoint == "zero":
            for i in (idx[0], idx[-1]):
                L[i, i] += 2.0 / lengths[i]
    return L, lengths


def oracle_fractional_power(mesh, layout, endpoint, power):
    """P(power) = M^(1/2) S^power M^(1/2) with S = M^(-1/2) (L + M) M^(-1/2)
    and M = diag(|F|), by `scipy.linalg.fractional_matrix_power`."""
    L, lengths = oracle_facet_laplacian(mesh, layout, endpoint)
    root = np.sqrt(lengths)
    S = (L + np.diag(lengths)) / np.outer(root, root)
    return np.outer(root, root) * sla.fractional_matrix_power(S, power)


def oracle_multiplier_block(mesh, layout, params):
    """The lam block of the Riesz map, (1/mu) P(-1/2) + K P(+1/2), each
    power with its endpoint condition of ORACLE_ENDPOINTS."""
    low, high = ORACLE_ENDPOINTS[mesh.config]
    return (oracle_fractional_power(mesh, layout, low, -0.5) / params.mu
            + params.K * oracle_fractional_power(mesh, layout, high, 0.5))


def oracle_riesz(mesh, layout, params, nquad=ORACLE_NQUAD):
    """Dense preconditioner-defining matrix assembled the slow way."""
    n = layout.total_dofs
    N = np.zeros((n, n))
    ref_pts, ref_w = duffy_rule(nquad)
    mu, K = params.mu, params.K

    _velocity_block(mesh, layout, params, N, nquad)

    for row, cell in enumerate(layout.darcy_cells):
        tri = mesh.vertices[mesh.cells[cell]]
        area = triangle_area(tri)
        pts = map_to_cell(tri, ref_pts)
        w = 2.0 * area * ref_w
        data = rt0_data(mesh, layout, row, cell)
        off_u = layout.offsets["u_D"]
        for (fa, ba, diva) in data:
            for (fb, bb, divb) in data:
                val = sum(np.dot(ba(pts[q]), bb(pts[q])) * w[q]
                          for q in range(len(pts)))
                val += diva * divb * area
                N[off_u + fa, off_u + fb] += val / K

    for row, cell in enumerate(layout.stokes_cells):
        tri = mesh.vertices[mesh.cells[cell]]
        area = triangle_area(tri)
        pts = map_to_cell(tri, ref_pts)
        w = 2.0 * area * ref_w
        lam, _ = barycentric(tri, pts)
        cs = layout.stokes_cell_scalar[row]
        off_p = layout.offsets["p_S"]
        for a in range(3):
            for b in range(3):
                val = sum(p1_value(lam[q], a) * p1_value(lam[q], b) * w[q]
                          for q in range(len(pts)))
                N[off_p + cs[a], off_p + cs[b]] += val / (2.0 * mu)

    off = layout.offsets["p_D"]
    for row, cell in enumerate(layout.darcy_cells):
        tri = mesh.vertices[mesh.cells[cell]]
        N[off + row, off + row] += K * triangle_area(tri)

    sl = layout.field_slice("lam")
    N[sl, sl] = oracle_multiplier_block(mesh, layout, params)
    return N


def oracle_rhs(mesh, layout, params, loads, nquad=14):
    """Right-hand side assembled the slow way from the load callables."""
    n = layout.total_dofs
    b = np.zeros(n)
    ref_pts, ref_w = duffy_rule(nquad)

    if loads.f_S is not None:
        for row, cell in enumerate(layout.stokes_cells):
            tri = mesh.vertices[mesh.cells[cell]]
            area = triangle_area(tri)
            pts = map_to_cell(tri, ref_pts)
            w = 2.0 * area * ref_w
            lam, _ = barycentric(tri, pts)
            cs = layout.stokes_cell_scalar[row]
            fv = loads.f_S(np.array(pts))
            for q in range(len(pts)):
                for a in range(6):
                    v = p2_value(lam[q], a)
                    for ca in range(2):
                        b[layout.velocity_dof(ca, cs[a])] += fv[q, ca] * v * w[q]

    if loads.g_D is not None:
        off = layout.offsets["p_D"]
        for row, cell in enumerate(layout.darcy_cells):
            tri = mesh.vertices[mesh.cells[cell]]
            area = triangle_area(tri)
            pts = map_to_cell(tri, ref_pts)
            w = 2.0 * area * ref_w
            g = loads.g_D(np.array(pts))
            b[off + row] += -np.dot(g, w)

    x1d, w1d = segment_rule_1d(nquad)
    lam_off = layout.offsets["lam"]
    lam_index = {f: i for i, f in enumerate(layout.interface_facets)}
    for pos, f in enumerate(layout.interface_facets):
        va, vb_ = mesh.facets[f]
        pa, pb = mesh.vertices[va], mesh.vertices[vb_]
        length = np.linalg.norm(pb - pa)
        n_S = layout.interface_normals[pos]
        tau = np.array([-n_S[1], n_S[0]])
        pts = np.array([pa + t * (pb - pa) for t in x1d])
        ds = length * w1d
        if loads.g_gamma is not None:
            b[lam_off + lam_index[f]] += np.dot(ds, loads.g_gamma(pts, n_S))
        if loads.t_n is None and loads.t_t is None:
            continue
        cell = None
        for c in mesh.facet_cells[f]:
            if c >= 0 and mesh.cell_subdomain[c] == 0:
                cell = c
        srow = list(layout.stokes_cells).index(cell)
        tri = mesh.vertices[mesh.cells[cell]]
        cs = layout.stokes_cell_scalar[srow]
        lam_bc, _ = barycentric(tri, pts)
        tn = loads.t_n(pts, n_S) if loads.t_n is not None else None
        tt = loads.t_t(pts, n_S, tau) if loads.t_t is not None else None
        for q in range(len(pts)):
            for a in range(6):
                v = p2_value(lam_bc[q], a)
                for ca in range(2):
                    dof = layout.velocity_dof(ca, cs[a])
                    if tn is not None:
                        b[dof] += tn[q] * n_S[ca] * v * ds[q]
                    if tt is not None:
                        b[dof] += tt[q] * tau[ca] * v * ds[q]

    # natural outer-boundary data
    fmap = {f: i for i, f in enumerate(layout.darcy_facets)}
    for f in range(len(mesh.facets)):
        tag = mesh.facet_tags[f]
        if tag is None or tag == TAG_INTERFACE:
            continue
        va, vb_ = mesh.facets[f]
        pa, pb = mesh.vertices[va], mesh.vertices[vb_]
        length = np.linalg.norm(pb - pa)
        pts = np.array([pa + t * (pb - pa) for t in x1d])
        ds = length * w1d
        cell = mesh.facet_cells[f, 0]
        n_out = _outward(mesh, f)
        if tag in STOKES_NATURAL_TAGS and loads.stokes_traction is not None:
            srow = list(layout.stokes_cells).index(cell)
            tri = mesh.vertices[mesh.cells[cell]]
            cs = layout.stokes_cell_scalar[srow]
            lam_bc, _ = barycentric(tri, pts)
            tr = loads.stokes_traction(pts, n_out, str(tag))
            for q in range(len(pts)):
                for a in range(6):
                    v = p2_value(lam_bc[q], a)
                    for ca in range(2):
                        b[layout.velocity_dof(ca, cs[a])] += tr[q, ca] * v * ds[q]
        if tag == TAG_DARCY_NATURAL and loads.darcy_pressure is not None:
            b[layout.offsets["u_D"] + fmap[f]] += -np.dot(
                ds, loads.darcy_pressure(pts))
    return b


def _entry_keys(M):
    """Row-major key row*n + col of each entry of canonical CSR M."""
    n = M.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(M.indptr))
    return rows * n + M.indices


class ReferencePattern:
    """The CSR pattern of a weighted sum of pieces by sort and search: the
    row-major keys row*n + col of every entry of every piece (canonical
    CSR), sorted and made unique; each piece's entries are found among them by binary search.
    The essential elimination of the pattern keeps the entries off the rows
    and columns of `dofs`, in order, and a unit diagonal on each of those
    rows: `keep` marks the kept entries among the pattern's, `kept` their
    places in the eliminated pattern.  `elim_pos[name]` is the place of each
    kept entry of piece `name` in the eliminated pattern, found by binary
    search among its keys; `elim_units` are the places of the unit
    diagonals.  The lift pattern holds the entries in the columns of `dofs`,
    off their rows, with column c standing for dofs[c]: `lift_indptr`,
    `lift_indices`, and `lift_pos[name]`, the place of each such entry of
    piece `name`, found by binary search among their keys."""

    def __init__(self, pieces, dofs):
        n = next(iter(pieces.values())).shape[0]
        keys = {name: _entry_keys(P) for name, P in pieces.items()}
        union = np.sort(np.concatenate(list(keys.values())))
        union = union[np.concatenate([[True], union[1:] != union[:-1]])]
        indptr = np.searchsorted(union, np.arange(n + 1, dtype=np.int64) * n)
        pattern = sp.csr_matrix((np.zeros(len(union)), union % n, indptr),
                                shape=(n, n))
        self.indptr, self.indices = pattern.indptr, pattern.indices
        self.pos = {k: np.searchsorted(union, v).astype(pattern.indptr.dtype)
                    for k, v in keys.items()}

        dofs = np.unique(dofs)
        drop = np.zeros(n, dtype=bool)
        drop[dofs] = True
        self.keep = ~(drop[np.repeat(np.arange(n), np.diff(self.indptr))]
                      | drop[self.indices])
        kept_before = np.concatenate([[0], np.cumsum(self.keep)])[self.indptr]
        self.elim_indptr = (kept_before + np.concatenate(
            [[0], np.cumsum(drop)])).astype(self.indptr.dtype)
        self.kept = np.ones(self.elim_indptr[-1], dtype=bool)
        self.kept[self.elim_indptr[dofs]] = False
        self.elim_indices = np.empty(self.elim_indptr[-1],
                                     dtype=self.indices.dtype)
        self.elim_indices[self.kept] = self.indices[self.keep]
        self.elim_indices[~self.kept] = dofs

        elim_keys = _entry_keys(sp.csr_matrix(
            (np.zeros(len(self.elim_indices)), self.elim_indices,
             self.elim_indptr), shape=(n, n)))
        self.elim_units = np.searchsorted(elim_keys, dofs * (n + 1)).astype(
            pattern.indptr.dtype)
        idx = pattern.indptr.dtype
        self.elim_pos = {
            name: np.searchsorted(elim_keys, k[~(drop[k // n] | drop[k % n])])
            .astype(idx) for name, k in keys.items()}

        def edge(k):
            return k[drop[k % n] & ~drop[k // n]]
        lift_keys = edge(union)
        self.lift_indptr = np.searchsorted(
            lift_keys, np.arange(n + 1, dtype=np.int64) * n).astype(idx)
        self.lift_indices = np.searchsorted(dofs, lift_keys % n).astype(idx)
        self.lift_pos = {name: np.searchsorted(lift_keys, edge(k)).astype(idx)
                         for name, k in keys.items()}

    def matrix(self, values):
        """The sum of the `values` of each named piece, on the pattern."""
        data = np.zeros(len(self.indices))
        for name, v in values.items():
            data[self.pos[name]] += v
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(len(self.indptr) - 1,) * 2)

    def eliminated(self, M):
        """M, on this pattern, eliminated."""
        data = np.ones(len(self.elim_indices))
        data[self.kept] = M.data[self.keep]
        return sp.csr_matrix((data, self.elim_indices, self.elim_indptr),
                             shape=M.shape)


def fd_gradient(func, pts, h=1e-6):
    """Central-difference gradient of a scalar field, shape (n, 2)."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty((len(pts), 2))
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = h
        out[:, j] = (func(pts + dp) - func(pts - dp)) / (2.0 * h)
    return out


def fd_divergence(vfunc, pts, h=1e-6):
    pts = np.asarray(pts, dtype=float)
    dx = np.zeros(2)
    dx[0] = h
    dy = np.zeros(2)
    dy[1] = h
    ddx = (vfunc(pts + dx) - vfunc(pts - dx)) / (2.0 * h)
    ddy = (vfunc(pts + dy) - vfunc(pts - dy)) / (2.0 * h)
    return ddx[:, 0] + ddy[:, 1]


def fd_vector_laplacian(vfunc, pts, h=1e-4):
    """Five-point componentwise Laplacian, second order in h."""
    pts = np.asarray(pts, dtype=float)
    dx = np.zeros(2)
    dx[0] = h
    dy = np.zeros(2)
    dy[1] = h
    c = vfunc(pts)
    return (vfunc(pts + dx) + vfunc(pts - dx) + vfunc(pts + dy)
            + vfunc(pts - dy) - 4.0 * c) / h ** 2


def fd_sym_grad_div(vfunc, pts, h=1e-4):
    """div(2 eps(u)) = lap(u) + grad(div u), by finite differences."""
    lap = fd_vector_laplacian(vfunc, pts, h)
    div = lambda p: fd_divergence(vfunc, p, h)
    grad_div = fd_gradient(div, pts, h)
    return lap + grad_div


# ------------------------------------------------------ MINRES diagnostics
#
# MINRES as it ran before its recurrences were updated in place and its
# post-processing called LAPACK directly: the recurrence (and, in
# diagnostic mode, the block classical Gram-Schmidt sweeps) with a fresh
# array per operation, harmonic Ritz values through scipy's checked
# `solve_banded` and `eigvalsh_tridiagonal`, and one F_k evaluation per
# step.  Only SPD preconditioners are passed to it, so it has no
# definiteness checks.


def reference_harmonic_ritz(alphas, betas, k):
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
    return theta[np.argsort(np.abs(theta))][1:]


def reference_Fk(theta, eigenvalues, collision_tol=1e-14):
    lams = np.asarray(eigenvalues)
    finite = theta[np.isfinite(theta)]
    if len(finite) == 0 or len(lams) < 2:
        return np.nan
    first = np.argmin(np.abs(lams))
    lam1 = lams[first]
    theta1 = finite[np.argmin(np.abs(finite - lam1))]
    rest = np.delete(lams, first)
    dens = np.abs(theta1 - rest)
    if np.any(dens < collision_tol):
        return np.inf
    return float(np.max((np.abs(theta1) / np.abs(lam1))
                        * np.abs(lam1 - rest) / dens))


def reference_minres(A, b, precond, reduction=1e-12, maxit=1000,
                     diagnostic=True, eigenvalues=None, abs_floor=1e-14):
    """(x, residuals, alphas, betas, theta_min, Fk, ortho_max) of a solve;
    the last three are None unless `diagnostic`."""
    n = len(b)
    x = np.zeros(n)
    r1 = np.asarray(b, dtype=float).copy()
    y = precond(r1)
    beta1 = np.sqrt(max(float(r1 @ y), 0.0))
    residuals, alphas, betas = [beta1], [], []
    V, Z = [r1 / beta1], [y / beta1]
    target = max(reduction * beta1, abs_floor)
    oldb, beta = 0.0, beta1
    dbar = epsln = sn = 0.0
    cs = -1.0
    phibar = beta1
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    for itn in range(1, maxit + 1):
        v = y / beta
        yv = A @ v
        if itn >= 2:
            yv = yv - (beta / oldb) * r1
        alfa = float(v @ yv)
        yv = yv - (alfa / beta) * r2
        if diagnostic:
            Vm, Zm = np.array(V), np.array(Z)
            for _ in range(2):
                yv = yv - Vm.T @ (Zm @ yv)
        r1 = r2
        r2 = yv
        y = precond(r2)
        oldb = beta
        beta = np.sqrt(max(float(r2 @ y), 0.0))
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
        alphas.append(alfa)
        betas.append(beta)
        if diagnostic and beta > 0.0:
            V.append(r2 / beta)
            Z.append(y / beta)
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        residuals.append(abs(phibar))
        if abs(phibar) <= target or beta <= 1e-14 * beta1:
            break
    residuals = np.array(residuals)
    alphas, betas = np.array(alphas), np.array(betas)
    if not diagnostic:
        return x, residuals, alphas, betas, None, None, None
    theta_min = np.full(len(residuals), np.nan)
    Fk = theta_min.copy()
    for k in range(1, len(residuals)):
        theta = reference_harmonic_ritz(alphas, betas, k)
        if len(theta):
            theta_min[k] = theta[0]
        if eigenvalues is not None:
            Fk[k] = reference_Fk(theta, eigenvalues)
    G = np.array(V) @ np.array(Z).T
    ortho_max = float(np.abs(G - np.eye(len(V))).max())
    return x, residuals, alphas, betas, theta_min, Fk, ortho_max
