"""Benchmark of sdlab's solve pipeline: mesh, assembly, preconditioner,
MINRES and dense spectral analysis, on three workloads.

    python3 perfbench/run.py --workload solve-fine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, table

Run from the root of a source checkout; sdlab is imported from ./src.  One
process runs one workload: an untimed warm-up pass on coarser meshes, then
timed passes while the next one is expected to end within --seconds, at
least three of them (unless a further pass could end more than 150 s after
the start).  Times are corrected for the host's speed, measured by a probe
loop during each timed pass (speed.py); the record keeps them as measured
too.  With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics (medians over the timed passes); with --trace 1 untraced
and traced passes alternate, and the JSON carries the per-layer metrics of
the traced passes.  A full record (environment,
jitter, per-pass phases, per-operation dofs and iterations, spans) is
written to .perfbench/<workload>-seed<seed>-trace<t>.json.  See
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve-fine", "param-sweep", "spectral")
WARM_UP_COARSEN = 2     # the warm-up pass runs two refinement levels down
MIN_PASSES = 3          # timed passes behind each median, time allowing
TIME_LIMIT_S = 150      # no pass starts that could end later than this
END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
              "peak_rss_mb": "MB", "minres_its": "count"}


def _pin_blas_threads():
    """Use every CPU this process may run on, and never more."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var)
        if value is not None and (not value.isdigit() or int(value) > nproc):
            os.environ[var] = str(nproc)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    return nproc


def _blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment(nproc):
    import numpy
    import scipy

    try:
        # the ceiling keeps git from describing an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
        describe = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        describe = None
    blas = {}
    for mod in (numpy, scipy):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError, AttributeError):
            blas[mod.__name__] = "unknown"
    return {
        "git_describe": describe or "not a git checkout",
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def _median(values):
    return statistics.median(values) if values else None


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pass_record(run):
    return {
        "wall_s": run.wall,
        "raw_wall_s": run.raw_wall,
        "speed": run.speed, "probes": run.probes,
        "phases": {p: run.total(p)
                   for p in ("setup", "solve", "spectrum", "check")},
        "raw_phases": {p: run.raw_total(p)
                       for p in ("setup", "solve", "spectrum", "check")},
        "ops": [{"name": op.name, "dofs": op.dofs,
                 "iterations": op.iterations,
                 "phases": dict(op.phases), "failures": op.failures}
                for op in run.ops],
    }


def measure(workload, seed, seconds, trace, deadline):
    """Warm up, then pass after pass while the next pass is expected to end
    within `seconds`, at least MIN_PASSES of them (one pair when tracing),
    and none that could end after `deadline`."""
    from speed import SpeedClock
    from tracing import UNITS, Tracer
    from workloads import NOMINAL_SEED, Jitter, run_pass

    jitter = Jitter.from_seed(seed)
    nominal = seed == NOMINAL_SEED
    clock = SpeedClock()
    with clock.running():
        run_pass(workload, jitter, False, clock, coarsen=WARM_UP_COARSEN)
    untraced, traced, layers, spans, missing = [], [], [], None, []
    min_passes = 1 if trace else MIN_PASSES
    t_start = time.perf_counter()
    slowest = 0.0
    while True:
        t_pass = time.perf_counter()
        with clock.running():
            untraced.append(run_pass(workload, jitter, nominal, clock))
            if trace:
                tracer = Tracer().install()
                try:
                    traced.append(run_pass(workload, jitter, nominal, clock,
                                           tracer))
                finally:
                    tracer.close()
                layers.append(tracer.metrics(traced[-1].timeline))
                spans, missing = tracer.dump_spans(), tracer.missing
        now = time.perf_counter()
        slowest = max(slowest, now - t_pass)
        if now + slowest > deadline:
            break
        if (now + slowest - t_start > seconds
                and len(untraced) >= min_passes):
            break

    passes = untraced + traced
    ops = [op for run in passes for op in run.ops]
    failed = sum(1 for op in ops if op.failures)
    its = untraced[-1].ops
    e2e = {
        "wall_s": _median([r.wall for r in untraced]),
        "setup_s": _median([r.total("setup") for r in untraced]),
        "solve_s": _median([r.total("solve") for r in untraced]),
        "spectrum_s": _median([r.total("spectrum") for r in untraced]),
        "peak_rss_mb": _peak_rss_mb(),
        "minres_its": sum(op.iterations for op in its),
        "fail_rate": failed / len(ops),
    }
    raw = {
        "wall_s": _median([r.raw_wall for r in untraced]),
        "setup_s": _median([r.raw_total("setup") for r in untraced]),
        "solve_s": _median([r.raw_total("solve") for r in untraced]),
        "spectrum_s": _median([r.raw_total("spectrum") for r in untraced]),
        "speed": _median([r.speed for r in untraced]),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nominal_seed": nominal,
        "jitter": {"mu": jitter.mu, "K": jitter.K},
        "samples": {"warm_up": 1, "warm_up_coarsen": WARM_UP_COARSEN,
                    "untraced": len(untraced),
                    "traced": len(traced)},
        "end_to_end": e2e,
        "raw": raw,
        "passes": [_pass_record(r) for r in untraced],
        "traced_passes": [_pass_record(r) for r in traced],
        "failures": [f"{op.name}: {f}" for op in ops for f in op.failures],
        "attempted": len(ops), "failed": failed,
    }
    if trace:
        per_layer = {}
        for name, unit in UNITS.items():
            vals = [m[name] for m in layers]
            per_layer[name] = {
                "value": None if None in vals else _median(vals),
                "unit": unit}
        per_layer["trace.overhead_s"] = {
            "value": (_median([r.wall for r in traced])
                      - _median([r.wall for r in untraced])),
            "unit": "s"}
        record["per_layer"] = per_layer
        record["missing"] = missing
        record["spans"] = {"fields": ["name", "start", "end", "parent", "op"],
                           "last_traced_pass": spans}
    return record


def summary_lines(record):
    e2e = record["end_to_end"]
    units = dict(END_TO_END, spectrum_s="s", fail_rate="1")
    n = record["samples"]
    head = (f"{record['workload']} seed {record['seed']} "
            f"(jitter mu x{record['jitter']['mu']:.4f}, "
            f"K x{record['jitter']['K']:.4f}; medians of "
            f"{n['untraced']} timed passes after {n['warm_up']} warm-up)")
    body = "  ".join(f"{k} {v:.6g} {units[k]}" for k, v in e2e.items())
    raw = record["raw"]
    as_measured = (f"as measured: wall_s {raw['wall_s']:.6g} s  setup_s "
                   f"{raw['setup_s']:.6g} s  solve_s {raw['solve_s']:.6g} s"
                   f"  spectrum_s {raw['spectrum_s']:.6g} s  (host speed "
                   f"x{raw['speed']:.3f} of the reference)")
    lines = [head, "  " + body, "  " + as_measured]
    if "per_layer" in record:
        lines.append(f"  per layer, medians of {n['traced']} traced passes:")
        for k, m in record["per_layer"].items():
            v = "missing" if m["value"] is None else f"{m['value']:.6g}"
            lines.append(f"    {k:28s} {v} {m['unit']}")
    if record.get("missing"):
        lines.append(f"  missing hooks: {', '.join(record['missing'])}")
    for f in record["failures"]:
        lines.append(f"  FAILED {f}")
    return lines


def result_line(record):
    if record["trace"]:
        metrics = record["per_layer"]
    else:
        metrics = {k: {"value": record["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 gives the nominal parameters")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="timed passes run until this much time has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "sdlab" / "__init__.py").is_file():
        print(f"error: no sdlab sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import sdlab
    if Path(sdlab.__file__).resolve().parent != SRC / "sdlab":
        print(f"error: imported sdlab from {sdlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     started + TIME_LIMIT_S)
    record["environment"] = environment(nproc)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary_lines(record)))
    print(f"  environment: {json.dumps(record['environment'])}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
