"""In-memory spans around sdlab's public functions, for the traced run.

A `Tracer` replaces selected module attributes with timing wrappers, in
the namespace each function is called from (so `assemble_system`'s own
calls to `build_layout` are caught), and restores them on `close`.  A
span records name, start, end, parent span and operation id.  A function
that no longer exists is remembered as missing, so the metrics built on it
read as missing rather than as zero.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from sdlab import assembly, frac_interface, mesh, minres, mms, precond, spectrum

# (module, attribute, span name); module = namespace the call is made from
WRAPPED = (
    (mesh, "build_coupled_mesh", "mesh.build"),
    (mesh, "tag_boundaries", "mesh.tag"),
    (assembly, "build_layout", "spaces.layout"),
    (assembly, "essential_dofs", "spaces.essential"),
    (assembly, "essential_values", "spaces.essential"),
    (frac_interface, "interface_operator", "frac_interface.operator"),
    (assembly, "assemble_system", "assembly.system"),
    (assembly, "assemble_operator", "assembly.operator"),
    (assembly, "assemble_riesz", "assembly.riesz"),
    (assembly, "assemble_rhs", "assembly.rhs"),
    (assembly, "apply_essential", "assembly.eliminate"),
    (precond, "build_preconditioner", "precond.build"),
    (precond, "build_deflation", "precond.deflation"),
    (minres, "minres_solve", "minres.solve"),
    (minres, "check_convergence_bound", "minres.bound_check"),
    (spectrum, "generalized_eigs", "spectrum.eigs"),
    (spectrum, "two_interval_hull", "spectrum.hull"),
    (spectrum, "contraction_factor", "spectrum.hull"),
    (mms, "compute_errors", "mms.errors"),
)


# unit of every per-layer metric, in the order they are reported
UNITS = {
    "mesh.build_s": "s", "mesh.tag_s": "s",
    "spaces.layout_s": "s", "spaces.essential_s": "s",
    "spaces.layout_per_mesh": "ratio",
    "frac_interface.operator_s": "s",
    "assembly.operator_s": "s", "assembly.riesz_s": "s",
    "assembly.rhs_s": "s", "assembly.eliminate_s": "s",
    "assembly.system_self_s": "s", "assembly.calls": "count",
    "assembly.nnz_A": "count",
    "precond.build_s": "s", "precond.lu_fill": "count",
    "precond.deflation_s": "s", "precond.b_applies": "count",
    "precond.b_apply_ms": "ms",
    "minres.a_matvecs": "count", "minres.a_matvec_ms": "ms",
    "minres.self_s": "s", "minres.bound_check_s": "s",
    "spectrum.eigs_s": "s", "spectrum.eigs_calls": "count",
    "spectrum.eigs_max_n": "count", "spectrum.unique_ratio": "ratio",
    "mms.errors_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index into Tracer.spans, -1 at the top
    op: int


class _TimedOperator:
    """Stands in for A inside minres_solve; each product is a span."""

    def __init__(self, tracer, A):
        self._tracer = tracer
        self._A = A
        self.shape = A.shape

    def __matmul__(self, v):
        with self._tracer.span("minres.a_matvec"):
            return self._A @ v


class _TimedPreconditioner:
    """Stands in for B inside minres_solve; each apply is a span."""

    def __init__(self, tracer, B):
        self._tracer = tracer
        self._apply = B.apply if hasattr(B, "apply") else B

    def apply(self, r):
        with self._tracer.span("precond.b_apply"):
            return self._apply(r)

    __call__ = apply


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.missing = []
        self.meshes = []        # strong refs keep ids unique within a pass
        self.lu_fill = []       # one entry per preconditioner build
        self.nnz_A = []
        self.eig_n = []
        self.eig_keys = []      # (mesh, case, mu*K) of each eigensolve
        self._systems = {}      # id(A) -> (mesh, case, mu*K)
        self._stack = []
        self._saved = []
        self._seconds = []      # span durations, set by metrics()

    @contextmanager
    def span(self, name):
        s = Span(name, time.perf_counter(), float("nan"),
                 self._stack[-1] if self._stack else -1, self.op)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = time.perf_counter()

    # ------------------------------------------------------------ patching

    def install(self):
        for module, attr, name in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, attr))
            self._saved.append((module, attr, fn))
        return self

    def close(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, attr):
        record = getattr(self, "_after_" + attr, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if attr == "minres_solve":
                args = (_TimedOperator(self, args[0]), args[1],
                        _TimedPreconditioner(self, args[2])) + args[3:]
            with self.span(name):
                out = fn(*args, **kwargs)
            if record is not None:
                record(out, *args, **kwargs)
            return out
        return wrapper

    # the facts each boundary reports, read from its result

    def _after_build_coupled_mesh(self, mesh_, *args, **kwargs):
        self.meshes.append(mesh_)

    def _after_assemble_system(self, system, mesh_, params, *args, **kwargs):
        self.nnz_A.append(system.A.nnz)
        self._systems[id(system.A)] = (
            id(mesh_), str(mesh_.config), float(f"{params.mu * params.K:.12g}"))

    def _after_build_preconditioner(self, B, *args, **kwargs):
        solvers = getattr(B, "_solvers", None)
        if solvers is None:
            if "BlockPreconditioner._solvers" not in self.missing:
                self.missing.append("BlockPreconditioner._solvers")
            return
        self.lu_fill.append(sum(lu.L.nnz + lu.U.nnz for lu in solvers.values()))

    def _after_generalized_eigs(self, spec, A, *args, **kwargs):
        self.eig_n.append(A.shape[0])
        self.eig_keys.append(self._systems.get(id(A), ("unknown", id(A))))

    # ------------------------------------------------------------ metrics

    def _total(self, name):
        return sum(d for s, d in zip(self.spans, self._seconds)
                   if s.name == name)

    def _count(self, name):
        return sum(1 for s in self.spans if s.name == name)

    def _self_time(self, name):
        child = defaultdict(float)
        for s, d in zip(self.spans, self._seconds):
            if s.parent >= 0:
                child[s.parent] += d
        return sum(d - child[i] for i, (s, d)
                   in enumerate(zip(self.spans, self._seconds))
                   if s.name == name)

    def metrics(self, timeline):
        """Per-layer numbers of one traced pass; None marks a missing hook.

        Span times are corrected for the host's speed by the pass's
        `timeline` (speed.py), like the end-to-end times."""
        self._seconds = list(timeline.seconds([s.start for s in self.spans],
                                              [s.end for s in self.spans]))
        gone = {m.rsplit(".", 1)[1] for m in self.missing}

        def need(*attrs):
            return not gone.intersection(attrs)

        a_n = self._count("minres.a_matvec")
        b_n = self._count("precond.b_apply")
        n_mesh = len({id(m) for m in self.meshes})
        n_eig = len(self.eig_keys)
        m = {
            "mesh.build_s": (self._total("mesh.build"),
                             need("build_coupled_mesh")),
            "mesh.tag_s": (self._total("mesh.tag"), need("tag_boundaries")),
            "spaces.layout_s": (self._total("spaces.layout"),
                                need("build_layout")),
            "spaces.essential_s": (self._total("spaces.essential"),
                                   need("essential_dofs", "essential_values")),
            "spaces.layout_per_mesh": (
                self._count("spaces.layout") / n_mesh if n_mesh else 0.0,
                need("build_layout", "build_coupled_mesh")),
            "frac_interface.operator_s": (
                self._total("frac_interface.operator"),
                need("interface_operator")),
            "assembly.operator_s": (self._total("assembly.operator"),
                                    need("assemble_operator")),
            "assembly.riesz_s": (self._total("assembly.riesz"),
                                 need("assemble_riesz")),
            "assembly.rhs_s": (self._total("assembly.rhs"),
                               need("assemble_rhs")),
            "assembly.eliminate_s": (self._total("assembly.eliminate"),
                                     need("apply_essential")),
            "assembly.system_self_s": (self._self_time("assembly.system"),
                                       need("assemble_system")),
            "assembly.calls": (self._count("assembly.system"),
                               need("assemble_system")),
            "assembly.nnz_A": (sum(self.nnz_A), need("assemble_system")),
            "precond.build_s": (self._total("precond.build"),
                                need("build_preconditioner")),
            "precond.lu_fill": (sum(self.lu_fill),
                                need("build_preconditioner", "_solvers")),
            "precond.deflation_s": (self._total("precond.deflation"),
                                    need("build_deflation")),
            "precond.b_applies": (b_n, need("minres_solve")),
            "precond.b_apply_ms": (
                1e3 * self._total("precond.b_apply") / b_n if b_n else 0.0,
                need("minres_solve")),
            "minres.a_matvecs": (a_n, need("minres_solve")),
            "minres.a_matvec_ms": (
                1e3 * self._total("minres.a_matvec") / a_n if a_n else 0.0,
                need("minres_solve")),
            "minres.self_s": (self._self_time("minres.solve"),
                              need("minres_solve")),
            "minres.bound_check_s": (self._total("minres.bound_check"),
                                     need("check_convergence_bound")),
            "spectrum.eigs_s": (self._total("spectrum.eigs"),
                                need("generalized_eigs")),
            "spectrum.eigs_calls": (n_eig, need("generalized_eigs")),
            "spectrum.eigs_max_n": (max(self.eig_n, default=0),
                                    need("generalized_eigs")),
            "spectrum.unique_ratio": (
                len(set(self.eig_keys)) / n_eig if n_eig else 0.0,
                need("generalized_eigs", "assemble_system")),
            "mms.errors_s": (self._total("mms.errors"),
                             need("compute_errors")),
        }
        return {k: (v if ok else None) for k, (v, ok) in m.items()}

    def dump_spans(self):
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0, s.parent, s.op]
                for s in self.spans]
