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
configuration, a version string, and wall-clock timings.  With --check
the exit code reports whether the run meets its documented target, so
the driver is scriptable from CI.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .mesh import (BcConfig, ConfigurationError, DomainSpec,
                   build_coupled_mesh, stacked_domain, tag_boundaries)
from .assembly import LoadData, PhysParams, assemble_system
from .mms import ExactSolution, mms_case, run_convergence
from .minres import minres_solve
from .precond import DeflatedPreconditioner, build_deflation, build_preconditioner
from .spectrum import BudgetError, generalized_eigs

SCHEMA = "sdlab-1"
DEFAULT_SWEEP = (1e-4, 1e-2, 1.0, 1e2, 1e4)
DEFAULT_NREFS = (0, 1, 2)


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


def write_sidecar(csv_path, command, config, timings, results):
    doc = {
        "schema": SCHEMA,
        "command": command,
        "version": version_string(),
        "config": config,
        "timings_sec": timings,
        "results": results,
    }
    Path(csv_path).with_suffix(".json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fmt(x):
    return f"{x:g}".replace("+", "")


def near_kernel_dim(config, mesh=None):
    """Dimension of the parameter-degenerate subspace for kappa_eff."""
    config = BcConfig(config)
    if config is BcConfig.MULTI:
        # inclusion components are numbered from zero
        return int(mesh.cell_component.max()) + 1 if mesh is not None else 1
    return 1


def floating_domain(n_inclusions=2, n0=4):
    """Channel with unit-square porous inclusions along the midline."""
    if n_inclusions < 1:
        raise ConfigurationError("need at least one inclusion")
    width = 2.0 * n_inclusions + 1.0
    incl = tuple((2.0 * i + 1.0, 1.0, 2.0 * i + 2.0, 2.0)
                 for i in range(n_inclusions))
    return DomainSpec((0.0, 0.0, width, 3.0), incl, n0)


def channel_loads(p_in=1.0, p_out=0.0):
    """Pressure-drop traction on the inflow/outflow edges, no body force."""
    def traction(pts, n_out, tag):
        p = {"inflow": p_in, "outflow": p_out}.get(tag, 0.0)
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
    exact = ExactSolution(alpha_bjs=args.alpha)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"cond_sweep_{config.value}.csv"

    rows, skipped, timings = [], [], {}
    for nref in args.nref:
        mesh = build_coupled_mesh(stacked_domain(args.n0), nref)
        tag_boundaries(mesh, config)
        drop = near_kernel_dim(config, mesh)
        for mu in args.mu:
            for K in args.K:
                t1 = time.perf_counter()
                params = PhysParams(mu=mu, K=K, alpha_bjs=args.alpha)
                system = assemble_system(mesh, params, exact.loads())
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
                    "kappa_eff": spec.kappa_eff(drop),
                })
                timings[f"mu={_fmt(mu)}_K={_fmt(K)}_nref={nref}"] = (
                    time.perf_counter() - t1)

    with open(path, "w", newline="") as fh:
        fh.write("mu,K,nref,h,ndof,kappa,kappa_eff\n")
        for r in rows:
            fh.write(f"{r['mu']:g},{r['K']:g},{r['nref']},{r['h']!r},"
                     f"{r['ndof']},{r['kappa']!r},{r['kappa_eff']!r}\n")

    key = "kappa_eff" if config in (BcConfig.EE, BcConfig.NE, BcConfig.EN,
                                    BcConfig.MULTI) else "kappa"
    vals = [r[key] for r in rows]
    ratio = max(vals) / min(vals) if vals else float("nan")
    write_sidecar(
        path, "cond-sweep",
        {"case": config.value, "mu": list(args.mu), "K": list(args.K),
         "alpha_bjs": args.alpha, "nref": list(args.nref), "n0": args.n0},
        {"total": time.perf_counter() - t0, "points": timings},
        {"rows": len(rows), "skipped": skipped,
         "check_key": key, "max_over_min": ratio})
    print(f"wrote {path} ({len(rows)} rows, {key} spread {ratio:.3g})")
    if args.check:
        if skipped:
            return 2
        return 0 if ratio <= 2.0 else 1
    return 0


# --------------------------------------------------------------- solve


def _run_minres(system, args, label, out, command, extra_config, assemble_s):
    """Shared MINRES execution and reporting for solve/floating.

    `assemble_s` is the time spent assembling `system`, recorded in the
    sidecar next to the phases timed here."""
    t1 = time.perf_counter()
    base = build_preconditioner(system)
    precond = base
    if extra_config["deflate"]:
        precond = DeflatedPreconditioner(
            base, build_deflation(system, gamma_mult=args.gamma_mult))
    t2 = time.perf_counter()
    eigenvalues = None
    if args.diagnostic:
        try:
            eigenvalues = generalized_eigs(
                system.A, system.N,
                n_eliminated=len(system.essential)).eigenvalues
        except BudgetError as err:
            print(f"warning: {err}, F_k column left blank", file=sys.stderr)
    t3 = time.perf_counter()
    log = minres_solve(system.A, system.b, precond,
                       reduction=args.reduction, maxit=args.maxit,
                       diagnostic=args.diagnostic, eigenvalues=eigenvalues)
    t4 = time.perf_counter()
    path = out / f"{label}.csv"
    log.to_csv(path)
    rel = log.residuals[-1] / log.residuals[0] if log.residuals[0] > 0 else 0.0
    results = {
        "iterations": log.iterations,
        "reason": log.reason,
        "relative_residual": rel,
        "plateau_windows": [list(w) for w in log.plateau_windows],
        "plateau": bool(log.plateau_windows),
        "lu_fill": base.lu_fill,
    }
    if log.ortho_max is not None:
        results["ortho_max"] = log.ortho_max
    timings = {"assemble": assemble_s, "precond": t2 - t1,
               "spectrum": t3 - t2, "solve": t4 - t3,
               "total": time.perf_counter() - t1}
    write_sidecar(path, command, extra_config, timings, results)
    flag = " plateau" if log.plateau_windows else ""
    print(f"wrote {path} ({log.iterations} iterations, {log.reason}{flag})")
    return log


def cmd_solve(args):
    config = BcConfig(args.case)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for nref in args.nref:
        for mu in args.mu:
            for K in args.K:
                exact = ExactSolution(mu=mu, K=K, alpha_bjs=args.alpha)
                t0 = time.perf_counter()
                system = mms_case(nref, n0=args.n0, exact=exact, config=config)
                assemble_s = time.perf_counter() - t0
                label = (f"solve_{config.value}_mu{_fmt(mu)}_K{_fmt(K)}"
                         f"_nref{nref}")
                cfg = {"case": config.value, "mu": mu, "K": K,
                       "alpha_bjs": args.alpha, "nref": nref, "n0": args.n0,
                       "reduction": args.reduction, "maxit": args.maxit,
                       "deflate": args.deflate, "gamma_mult": args.gamma_mult,
                       "diagnostic": args.diagnostic}
                log = _run_minres(system, args, label, out, "solve", cfg,
                                  assemble_s)
                if args.check:
                    bad = log.reason != "converged" or (
                        args.deflate and log.plateau_windows)
                    status = max(status, 1 if bad else 0)
    return status


# ------------------------------------------------------------ floating


def cmd_floating(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mesh = build_coupled_mesh(
        floating_domain(args.inclusions, args.n0), args.nref[0])
    tag_boundaries(mesh, BcConfig.MULTI)
    status = 0
    for K in args.K:
        params = PhysParams(mu=args.mu[0], K=K, alpha_bjs=args.alpha)
        t0 = time.perf_counter()
        system = assemble_system(mesh, params, channel_loads())
        assemble_s = time.perf_counter() - t0
        for deflate in (False, True):
            kind = "deflated" if deflate else "plain"
            label = f"floating_{kind}_K{_fmt(K)}_m{args.inclusions}"
            cfg = {"case": BcConfig.MULTI.value, "mu": args.mu[0], "K": K,
                   "alpha_bjs": args.alpha, "nref": args.nref[0],
                   "n0": args.n0, "inclusions": args.inclusions,
                   "reduction": args.reduction, "maxit": args.maxit,
                   "deflate": deflate, "gamma_mult": args.gamma_mult,
                   "diagnostic": args.diagnostic}
            log = _run_minres(system, args, label, out, "floating", cfg,
                              assemble_s)
            if args.check and deflate:
                bad = log.reason != "converged" or bool(log.plateau_windows)
                status = max(status, 1 if bad else 0)
    return status


# ---------------------------------------------------------------- main


def _float_list(text):
    return [float(v) for v in text.split(",")]


def _int_list(text):
    return [int(v) for v in text.split(",")]


def build_parser():
    p = argparse.ArgumentParser(
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
        q.add_argument("--nref", type=_int_list, default=list(nref_default),
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
    q.add_argument("--case", required=True,
                   choices=[c.value for c in BcConfig if c is not BcConfig.MULTI])
    common(q, DEFAULT_NREFS, DEFAULT_SWEEP, DEFAULT_SWEEP)
    q.set_defaults(func=cmd_cond_sweep)

    def solver_flags(q):
        q.add_argument("--reduction", type=float, default=1e-12,
                       help="relative residual reduction target")
        q.add_argument("--maxit", type=int, default=3000)
        q.add_argument("--gamma-mult", dest="gamma_mult", type=float,
                       default=1.0, help="scaling of the deflation weight")
        q.add_argument("--diagnostic", action="store_true",
                       help="log harmonic Ritz values and the F_k factor")

    q = sub.add_parser("solve", help="preconditioned MINRES on the "
                                     "manufactured system")
    q.add_argument("--case", required=True,
                   choices=[c.value for c in BcConfig if c is not BcConfig.MULTI])
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
    args = build_parser().parse_args(argv)
    try:
        gamma_mult = getattr(args, "gamma_mult", 1.0)
        if not (np.isfinite(gamma_mult) and gamma_mult > 0):
            raise ConfigurationError(
                f"--gamma-mult must be positive and finite, got {gamma_mult:g}")
        reduction = getattr(args, "reduction", 1e-12)
        if not (np.isfinite(reduction) and reduction > 0):
            raise ConfigurationError(
                f"--reduction must be positive and finite, got {reduction:g}")
        if args.command == "mms" and max(args.nref) < 1:
            raise ConfigurationError("mms needs --nref >= 1: a rate needs two levels")
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
