"""Bitwise fingerprint of sdlab's outputs: one sha256 per output.

    PYTHONPATH=src python tests/fingerprint.py --out before.json
    PYTHONPATH=src python tests/fingerprint.py --against before.json

`--out FILE` writes the hashes as JSON; `--against FILE` names every
output whose hash differs from the file's, or that only one side has, and
exits 1 if there is any.  Run against two checkouts' `src/` on one host,
it checks that a change keeps every output bitwise.  Run as a script it
pins OPENBLAS_NUM_THREADS=1 before numpy loads: the MINRES logs depend on
the BLAS thread count, so hashes compare only at a fixed count.

The outputs, per system: A, N, b, the essential dofs and values,
`interface_operator`, each block solve of the preconditioner
(`solve_block` on its rows of one vector), the deflation W and gamma and a
50-step deflated MINRES log where the layout has a near-kernel, a 50-step
MINRES log and `compute_errors` of its iterate, a 50-step diagnostic
MINRES log with its harmonic Ritz values and loss of orthogonality, and,
at nref 0-1, the `generalized_eigs` eigenvalues, plain and, where the
layout has a near-kernel, under its deflation (at nref 2 an eigensolve
takes about 0.2 s on 2 vCPUs, so it is left out).  The systems: NN, EE,
NEstar, ENstar, NE and EN at nref 0-2 (stacked, n0 4) and MultiInclusion
with 1 and 3 inclusions at nref 0-1, each at the three (mu, K) of PARAMS
on one mesh per case, plus NN at nref 1 and the first (mu, K) on a mesh
that went through save_mesh and load_mesh.  It reads only public names
that both checkouts of a comparison must share, so that one copy of the
script serves both sides.
"""

import os

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import sys
import tempfile

import numpy as np

from sdlab.assembly import assemble_system
from sdlab.cli import floating_domain
from sdlab.frac_interface import interface_operator
from sdlab.mesh import (LAYOUTS, BcConfig, build_coupled_mesh, load_mesh,
                        save_mesh, stacked_domain, tag_boundaries)
from sdlab.minres import minres_solve
from sdlab.mms import ExactSolution, compute_errors
from sdlab.precond import (DeflatedPreconditioner, build_deflation,
                           build_preconditioner)
from sdlab.spaces import FIELDS
from sdlab.spectrum import generalized_eigs

PARAMS = ((3.0, 0.2), (1e-3, 1e3), (1e4, 1e-2))
EDGE_LAYOUTS = ("NN", "EE", "NEstar", "ENstar", "NE", "EN")
MINRES_STEPS = 50
# the finest nref whose spectra are hashed
SPECTRUM_NREF = 1


def _stacked(config, nref):
    return lambda: tag_boundaries(build_coupled_mesh(stacked_domain(4), nref),
                                  BcConfig(config))


def _floating(inclusions, nref):
    return lambda: tag_boundaries(
        build_coupled_mesh(floating_domain(inclusions, 4), nref), BcConfig.MULTI)


def _saved_and_loaded(config, nref):
    def build():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "mesh.json")
            save_mesh(_stacked(config, nref)(), path)
            return load_mesh(path)
    return build


# (name, mesh builder, parameter pairs); None stands for PARAMS
CASES = ([(f"{c}/nref{n}", _stacked(c, n), None)
          for c in EDGE_LAYOUTS for n in range(3)]
         + [(f"MultiInclusion{m}/nref{n}", _floating(m, n), None)
            for m in (1, 3) for n in range(2)]
         + [("NN/nref1/saved", _saved_and_loaded("NN", 1), PARAMS[:1])])


def digest(*arrays):
    """sha256 over each array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sparse(M):
    M = M.tocsr()
    return digest(np.asarray(M.shape), M.indptr, M.indices, M.data)


def _log(log, *extra):
    """sha256 of a MINRES log's iterate, residuals, Lanczos coefficients
    and reason, and of `extra` arrays."""
    return digest(log.x, np.asarray(log.residuals), np.asarray(log.alphas),
                  np.asarray(log.betas), *extra,
                  np.frombuffer(log.reason.encode(), np.uint8))


def system_outputs(mesh, mu, K):
    """(output name, sha256) of one system on a tagged mesh."""
    exact = ExactSolution(mu=mu, K=K)
    params = exact.params()
    system = assemble_system(mesh, params, exact.loads())
    B = build_preconditioner(system)
    r = np.random.default_rng(0).standard_normal(system.A.shape[0])
    yield "A", _sparse(system.A)
    yield "N", _sparse(system.N)
    yield "b", digest(system.b)
    yield "essential_dofs", digest(system.essential)
    yield "essential_values", digest(system.essential_vals)
    yield "interface_operator", digest(interface_operator(mesh, params))
    for name in FIELDS:
        s = system.layout.field_slice(name)
        if s.stop > s.start:
            yield f"solve_{name}", digest(B.solve_block(name, r[s]))
    # build_deflation refuses a layout without a near-kernel
    deflation = (build_deflation(system) if LAYOUTS[mesh.config].near_kernel
                 else None)
    if deflation is not None:
        yield "deflation_W", digest(deflation.W)
        yield "deflation_gamma", digest(np.float64(deflation.gamma))
        yield "minres_deflated", _log(minres_solve(
            system.A, system.b, DeflatedPreconditioner(B, deflation),
            maxit=MINRES_STEPS))
    log = minres_solve(system.A, system.b, B, maxit=MINRES_STEPS)
    yield "minres_log", _log(log)
    yield "errors", digest(np.asarray(compute_errors(system, log.x, exact)))
    log = minres_solve(system.A, system.b, B, maxit=MINRES_STEPS,
                       diagnostic=True)
    yield "minres_diagnostic", _log(log, log.theta_min,
                                    np.float64(log.ortho_max))
    if mesh.nref <= SPECTRUM_NREF:
        yield "spectrum", digest(
            generalized_eigs(system.A, system.N).eigenvalues)
        if deflation is not None:
            yield "spectrum_deflated", digest(generalized_eigs(
                system.A, system.N, deflation=deflation).eigenvalues)


def fingerprints(cases=CASES):
    """{"<case>/mu=<mu>,K=<K>/<output>": sha256} over `cases`."""
    out = {}
    for name, build, params in cases:
        mesh = build()
        for mu, K in params or PARAMS:
            for output, h in system_outputs(mesh, mu, K):
                out[f"{name}/mu={mu:g},K={K:g}/{output}"] = h
    return out


def differing(ours, theirs):
    """The sorted names of the outputs whose hashes differ, or that only
    one of the two results has."""
    return sorted(k for k in ours.keys() | theirs.keys()
                  if ours.get(k) != theirs.get(k))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the hashes to this JSON file")
    p.add_argument("--against", help="compare the hashes with this JSON file")
    args = p.parse_args(argv)
    result = fingerprints()
    print(f"{len(result)} outputs hashed "
          f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    if args.against:
        with open(args.against) as fh:
            diff = differing(result, json.load(fh))
        for name in diff:
            print(f"differs: {name}")
        print(f"{len(diff)} of {len(result)} outputs differ")
        return 1 if diff else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
