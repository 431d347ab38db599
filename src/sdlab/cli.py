"""Command-line experiment driver.

Subcommands
    mms         refinement study of the manufactured solution; table of
                errors and estimated rates
    cond-sweep  condition numbers of the preconditioned pencil over a
                parameter grid (dense eigensolves)
    solve       preconditioned MINRES run on the manufactured system,
                optionally with deflation and spectral diagnostics
    floating    traction-driven channel flow past porous inclusions,
                comparing the plain and deflated preconditioners

Every CSV is written next to a JSON sidecar holding the full
configuration, a version string, and wall-clock timings; those of
cond-sweep, solve and floating also record memory (`memory_record`).
With --check the exit code reports whether the run meets its documented
target, so the driver is scriptable from CI.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .mesh import (LAYOUTS, BcConfig, ConfigurationError, DomainSpec,
                   build_coupled_mesh, stacked_domain, tag_boundaries)
from .assembly import LoadData, PhysParams, assemble_system, store_bytes
from .mms import ExactSolution, run_convergence
from .minres import minres_solve, true_residual
from .precond import (DeflatedPreconditioner, build_deflation,
                      build_preconditioner, deflation_weight)
from .spectrum import BudgetError, generalized_eigs

SCHEMA = "sdlab-1"
DEFAULT_SWEEP = (1e-4, 1e-2, 1.0, 1e2, 1e4)
DEFAULT_NREFS = (0, 1, 2)
# the --case choices: the layouts with edge tags (MultiInclusion has none)
EDGE_CASES = [c.value for c, row in LAYOUTS.items() if row.edge_tags]
# the sweep flags each subcommand reads as one value, not as a sweep
SINGLE_VALUED = {"mms": ("mu", "K"), "floating": ("mu", "nref")}


def version_string():
    """git describe when run from a checkout, else the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, cwd=Path(__file__).parent)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return __version__


def blas_threads():
    """The threads each OpenBLAS loaded into this process uses, by library
    file name (numpy and scipy each load their own), read from its
    `*get_num_threads*` symbol; {} where /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return {}
    out = {}
    for path in sorted(p for p in paths if "openblas" in Path(p).name.lower()):
        lib = ctypes.CDLL(path)
        # scipy-openblas's getter, with the 64-bit interface and without,
        # then a plain OpenBLAS's
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, sym, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                out[Path(path).name] = get()
                break
    return out


def environment():
    """The BLAS that numpy was built with, the threads it may use and the
    threads each loaded OpenBLAS does use: the MINRES logs depend on the
    BLAS thread count.  A thread variable that is not set reads None."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": {"name": blas.get("name"), "version": blas.get("version")},
            **{var: os.environ.get(var)
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads()}


def memory_record(mesh):
    """The bytes of the mesh's per-mesh operator store (`store_bytes`) and
    the peak resident set of this process so far, in MiB: ru_maxrss
    counts KiB on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 2.0 ** 20 if sys.platform == "darwin" else 2.0 ** 10
    return {"store_bytes": store_bytes(mesh), "peak_rss_mb": peak / scale}


def write_sidecar(csv_path, command, config, timings, results, memory=None):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "version": version_string(),
        "environment": environment(),
        "config": config,
        "timings_sec": timings,
        "results": results,
    }
    if memory is not None:
        doc["memory"] = memory
    Path(csv_path).with_suffix(".json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fmt(x):
    return f"{x:g}".replace("+", "")


def floating_domain(n_inclusions=2, n0=4):
    """Channel with unit-square porous inclusions along the midline."""
    if n_inclusions < 1:
        raise ConfigurationError("need at least one inclusion")
    width = 2.0 * n_inclusions + 1.0
    incl = tuple((2.0 * i + 1.0, 1.0, 2.0 * i + 2.0, 2.0)
                 for i in range(n_inclusions))
    return DomainSpec((0.0, 0.0, width, 3.0), incl, n0)


def channel_loads():
    """Pressure-drop traction, pressure 1 on the inflow and 0 on the
    outflow edge; no body force."""
    def traction(pts, n_out, tag):
        p = {"inflow": 1.0, "outflow": 0.0}.get(tag, 0.0)
        return -p * np.broadcast_to(n_out, (len(pts), 2))
    return LoadData(stokes_traction=traction)


# ----------------------------------------------------------------- mms


def cmd_mms(args):
    t0 = time.perf_counter()
    exact = ExactSolution(mu=args.mu[0], K=args.K[0], alpha_bjs=args.alpha)
    report = run_convergence(nref_max=max(args.nref), n0=args.n0, exact=exact)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "mms_table.csv"
    report.to_csv(path)
    ok = report.rates_ok()
    write_sidecar(
        path, "mms",
        {"mu": args.mu[0], "K": args.K[0], "alpha_bjs": args.alpha,
         "n0": args.n0, "nref": report.levels},
        {"total": time.perf_counter() - t0, "per_level": report.times},
        {"final_rates": [float(r) for r in report.final_rates()],
         "rates_ok": ok})
    print(f"wrote {path}")
    for i, name in enumerate(report.ERROR_NAMES):
        print(f"  {name}: rate {report.final_rates()[i]:+.3f}")
    if args.check:
        return 0 if ok else 1
    return 0


# ---------------------------------------------------------- cond-sweep


def cmd_cond_sweep(args):
    t0 = time.perf_counter()
    config = BcConfig(args.case)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"cond_sweep_{config.value}.csv"

    rows, skipped, timings = [], [], {}
    for nref in args.nref:
        mesh = build_coupled_mesh(stacked_domain(args.n0), nref)
        tag_boundaries(mesh, config)
        for mu in args.mu:
            for K in args.K:
                t1 = time.perf_counter()
                params = PhysParams(mu=mu, K=K, alpha_bjs=args.alpha)
                system = assemble_system(mesh, params)
                try:
                    spec = generalized_eigs(system.A, system.N,
                                            n_eliminated=len(system.essential))
                except BudgetError as err:
                    skipped.append((mu, K, nref))
                    print(f"warning: skipping mu={mu:g} K={K:g} nref={nref}: "
                          f"{err}", file=sys.stderr)
                    continue
                rows.append({
                    "mu": mu, "K": K, "nref": nref, "h": mesh.h,
                    "ndof": system.A.shape[0],
                    "kappa": spec.kappa(),
                    "kappa_eff": spec.kappa_eff(),
                })
                timings[f"mu={_fmt(mu)}_K={_fmt(K)}_nref={nref}"] = (
                    time.perf_counter() - t1)

    with open(path, "w", newline="") as fh:
        fh.write("mu,K,nref,h,ndof,kappa,kappa_eff\n")
        for r in rows:
            fh.write(f"{r['mu']:g},{r['K']:g},{r['nref']},{r['h']!r},"
                     f"{r['ndof']},{r['kappa']!r},{r['kappa_eff']!r}\n")

    row = LAYOUTS[config]
    key = "kappa_eff" if row.near_kernel or row.null_vector else "kappa"
    vals = [r[key] for r in rows]
    ratio = max(vals) / min(vals) if vals else float("nan")
    write_sidecar(
        path, "cond-sweep",
        {"case": config.value, "mu": list(args.mu), "K": list(args.K),
         "alpha_bjs": args.alpha, "nref": list(args.nref), "n0": args.n0},
        {"total": time.perf_counter() - t0, "points": timings},
        {"rows": len(rows), "skipped": skipped,
         "check_key": key, "max_over_min": ratio},
        memory_record(mesh))     # the store of the last mesh swept
    print(f"wrote {path} ({len(rows)} rows, {key} spread {ratio:.3g})")
    if args.check:
        if skipped:
            return 2
        return 0 if ratio <= 2.0 else 1
    return 0


# --------------------------------------------------------------- solve


def _run_config(args, case, mu, K, nref, deflate, **extra):
    """The sidecar configuration of one solve or floating run."""
    return {"case": case, "mu": mu, "K": K, "alpha_bjs": args.alpha,
            "nref": nref, "n0": args.n0, "reduction": args.reduction,
            "maxit": args.maxit, "deflate": deflate,
            "gamma_mult": args.gamma_mult, "diagnostic": args.diagnostic,
            **extra}


def _run_minres(system, args, command, runs, assemble_s):
    """The MINRES runs of solve/floating on one assembled system.

    `runs` is a list of (label, config) pairs whose config["deflate"]
    picks the preconditioner.  The Riesz blocks are factored once and the
    deflation is built once, before any run writes a file, so an E that
    is not positive definite leaves no partial result (`main` refuses a
    bad weight, and a layout with nothing to deflate, before that).  A
    --diagnostic run measures F_k against the spectrum of its own
    preconditioner: the pencil (A, N) for the plain one, (A, B_W^{-1})
    for the deflated one.  `assemble_s` is the time spent assembling
    `system`.  Returns the logs in `runs` order."""
    t0 = time.perf_counter()
    base = build_preconditioner(system)
    t1 = time.perf_counter()
    deflation = None
    if any(cfg["deflate"] for _, cfg in runs):
        deflation = build_deflation(system, gamma_mult=args.gamma_mult)
    t2 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    logs = []
    for label, cfg in runs:
        d = deflation if cfg["deflate"] else None
        precond = base if d is None else DeflatedPreconditioner(base, d)
        precond_s = (t2 if cfg["deflate"] else t1) - t0
        t3 = time.perf_counter()
        eigenvalues = None
        if args.diagnostic:
            try:
                eigenvalues = generalized_eigs(
                    system.A, system.N, len(system.essential),
                    deflation=d).eigenvalues
            except BudgetError as err:
                print(f"warning: {err}, F_k column left blank",
                      file=sys.stderr)
        t4 = time.perf_counter()
        log = minres_solve(system.A, system.b, precond,
                           reduction=args.reduction, maxit=args.maxit,
                           diagnostic=args.diagnostic, eigenvalues=eigenvalues)
        t5 = time.perf_counter()
        path = out / f"{label}.csv"
        log.to_csv(path)
        r = log.residuals
        true_B = true_residual(system.A, system.b, log.x, precond)
        results = {"iterations": log.iterations, "reason": log.reason,
                   "relative_residual": r[-1] / r[0] if r[0] != 0 else 0.0,
                   "residual_B": float(r[-1]),
                   "true_residual_B": true_B,
                   # how far the recursive residual drifted from the true one
                   "residual_gap": (abs(true_B - r[-1]) / r[0] if r[0] != 0
                                    else 0.0),
                   "a_matvecs": log.a_matvecs, "b_applies": log.b_applies,
                   "plateau_windows": [list(w) for w in log.plateau_windows],
                   "plateau": bool(log.plateau_windows),
                   "lu_fill": base.lu_fill,
                   # {block: [kind, entries]}; a stand-in preconditioner
                   # need only count its fill
                   "factors": getattr(base, "factors", None)}
        if log.ortho_max is not None:
            results["ortho_max"] = log.ortho_max
        timings = {"assemble": assemble_s, "precond": precond_s,
                   "spectrum": t4 - t3, "solve": t5 - t4,
                   "total": precond_s + time.perf_counter() - t3}
        write_sidecar(path, command, cfg, timings, results,
                      memory_record(system.mesh))
        flag = " plateau" if log.plateau_windows else ""
        print(f"wrote {path} ({log.iterations} iterations, {log.reason}{flag})")
        logs.append(log)
    return logs


def _missed(log, deflate):
    """--check: a run misses its target unless it converged, and a
    deflated run also unless it kept clear of plateaus."""
    return log.reason != "converged" or bool(deflate and log.plateau_windows)


def cmd_solve(args):
    config = BcConfig(args.case)
    status = 0
    for nref in args.nref:
        # one mesh per nref: its per-mesh pieces serve every (mu, K)
        mesh = build_coupled_mesh(stacked_domain(args.n0), nref)
        tag_boundaries(mesh, config)
        for mu in args.mu:
            for K in args.K:
                exact = ExactSolution(mu=mu, K=K, alpha_bjs=args.alpha)
                t0 = time.perf_counter()
                system = assemble_system(mesh, exact.params(), exact.loads())
                assemble_s = time.perf_counter() - t0
                label = (f"solve_{config.value}_mu{_fmt(mu)}_K{_fmt(K)}"
                         f"_nref{nref}")
                cfg = _run_config(args, config.value, mu, K, nref,
                                  args.deflate)
                log, = _run_minres(system, args, "solve", [(label, cfg)],
                                   assemble_s)
                if args.check:
                    status = max(status, int(_missed(log, args.deflate)))
    return status


# ------------------------------------------------------------ floating


def cmd_floating(args):
    mesh = build_coupled_mesh(
        floating_domain(args.inclusions, args.n0), args.nref[0])
    tag_boundaries(mesh, BcConfig.MULTI)
    status = 0
    for K in args.K:
        params = PhysParams(mu=args.mu[0], K=K, alpha_bjs=args.alpha)
        t0 = time.perf_counter()
        system = assemble_system(mesh, params, channel_loads())
        assemble_s = time.perf_counter() - t0
        runs = [(f"floating_{kind}_K{_fmt(K)}_m{args.inclusions}",
                 _run_config(args, BcConfig.MULTI.value, args.mu[0], K,
                             args.nref[0], deflate,
                             inclusions=args.inclusions))
                for kind, deflate in (("plain", False), ("deflated", True))]
        _, log = _run_minres(system, args, "floating", runs, assemble_s)
        if args.check:
            status = max(status, int(_missed(log, True)))
    return status


# ---------------------------------------------------------------- main


def _arg_type(kind, what, ok=lambda _value: True, many=False):
    """An argparse type reading a value of `kind` that `ok` accepts, or with
    `many` comma-separated ones, whose error says what a valid value looks
    like rather than naming the converter."""
    def parse(text):
        try:
            values = [kind(v) for v in (text.split(",") if many else [text])]
            if all(map(ok, values)):
                return values if many else values[0]
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_float_list = _arg_type(float, "comma-separated numbers", many=True)
_nref_list = _arg_type(int, "comma-separated non-negative integers",
                       lambda n: n >= 0, many=True)
_positive = _arg_type(float, "a positive finite number",
                      lambda v: 0 < v < np.inf)
_maxit = _arg_type(int, "an integer >= 1", lambda n: n >= 1)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigurationError: `main` prints it
    as one line and returns 2, where argparse prints its usage and exits."""

    def error(_self, message):
        raise ConfigurationError(message)


def build_parser():
    p = _Parser(
        prog="sdlab",
        description="Stokes-Darcy solver laboratory: discretization, "
                    "preconditioning, and MINRES convergence experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, nref_default, mu_default, K_default):
        q.add_argument("--mu", type=_float_list, default=list(mu_default),
                       help="viscosity, comma-separated sweep allowed")
        q.add_argument("--K", type=_float_list, default=list(K_default),
                       help="permeability, comma-separated sweep allowed")
        q.add_argument("--alpha", type=float, default=0.5,
                       help="slip coefficient of the interface friction term")
        q.add_argument("--nref", type=_nref_list, default=list(nref_default),
                       help="refinement levels, comma-separated")
        q.add_argument("--n0", type=int, default=4,
                       help="base lattice divisions per unit length")
        q.add_argument("--out", default="results",
                       help="output directory for CSV/JSON artifacts")
        q.add_argument("--check", action="store_true",
                       help="exit nonzero when the run misses its target")

    q = sub.add_parser("mms", help="manufactured-solution refinement study")
    common(q, (4,), (3.0,), (1.0,))
    q.set_defaults(func=cmd_mms)

    q = sub.add_parser("cond-sweep", help="condition-number parameter sweep")
    q.add_argument("--case", required=True, choices=EDGE_CASES)
    common(q, DEFAULT_NREFS, DEFAULT_SWEEP, DEFAULT_SWEEP)
    q.set_defaults(func=cmd_cond_sweep)

    def solver_flags(q):
        q.add_argument("--reduction", type=_positive, default=1e-12,
                       help="relative residual reduction target")
        q.add_argument("--maxit", type=_maxit, default=3000)
        q.add_argument("--gamma-mult", dest="gamma_mult", type=_positive,
                       default=1.0, help="scaling of the deflation weight")
        q.add_argument("--diagnostic", action="store_true",
                       help="log harmonic Ritz values and the F_k factor")

    q = sub.add_parser("solve", help="preconditioned MINRES on the "
                                     "manufactured system")
    q.add_argument("--case", required=True, choices=EDGE_CASES)
    common(q, (2,), (3.0,), (1.0,))
    solver_flags(q)
    q.add_argument("--deflate", action="store_true",
                   help="add the rank-m near-kernel correction")
    q.set_defaults(func=cmd_solve)

    q = sub.add_parser("floating", help="channel flow past porous inclusions")
    common(q, (0,), (3.0,), (1.0, 100.0))
    solver_flags(q)
    q.add_argument("--inclusions", type=int, default=2,
                   help="number of unit-square inclusions in the channel")
    q.set_defaults(func=cmd_floating)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for flag in SINGLE_VALUED.get(args.command, ()):
            values = getattr(args, flag)
            if len(values) > 1:
                raise ConfigurationError(
                    f"{args.command} takes one --{flag} value, got "
                    f"{len(values)}")
        # every (mu, K) of a sweep, before the first run writes a file, and
        # the deflation weight at each (a layout with no near-kernel has
        # none); E's definiteness needs the system
        config = (BcConfig.MULTI if args.command == "floating"
                  else BcConfig(args.case) if getattr(args, "deflate", False)
                  else None)
        for mu in args.mu:
            for K in args.K:
                params = PhysParams(mu, K, args.alpha)
                if config is not None:
                    deflation_weight(params, config, args.gamma_mult)
        if args.command == "mms" and max(args.nref) < 1:
            raise ConfigurationError("mms needs --nref >= 1: a rate needs two levels")
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
