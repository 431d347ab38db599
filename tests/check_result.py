"""Check the result line of a benchmark run, the last line of its stdout.

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 1 \\
        --trace 1 | python3 tests/check_result.py --traced

Every run must end in strict JSON (json.loads takes NaN and Infinity
unless parse_constant refuses them) with `correct` true and `failed` 0.
`--traced`: every per-layer metric is measured (a metric whose hook is
gone reads null), the layout is built once per mesh
(`spaces.layout_per_mesh` 1.0), the essential dofs are timed
(`spaces.essential_s` > 0) and the preconditioner's sparse factors are
counted (`precond.lu_fill` > 0); a refactor that bypasses assembly's
build_layout or essential_dofs, or a factor that stops exposing its
L.nnz and U.nnz, reads 0 there, not null.
`--assembly-calls N`, with --traced: also N `assemble_system` calls
(`assembly.calls`), whose own time is measured
(`assembly.system_self_s` > 0).

Prints one line and exits 1 if the result line fails any requirement.
"""

import argparse
import json
import sys


def _refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


def problems(line, traced=False, assembly_calls=None):
    """The requirements the result line `line` fails, as messages."""
    try:
        r = json.loads(line, parse_constant=_refuse)
    except ValueError as exc:       # a JSONDecodeError too
        return [str(exc)]
    if not isinstance(r, dict):
        return [f"not a result: {line}"]
    found = []
    if r.get("correct") is not True:
        found.append(f"correct is {r.get('correct')!r}")
    if r.get("failed") != 0:
        found.append(f"failed is {r.get('failed')!r}")
    if not traced:
        return found
    metrics = r.get("metrics") or {}

    def value(name):
        return (metrics.get(name) or {}).get("value")

    gone = [name for name in metrics if value(name) is None]
    if gone:
        found.append(f"null: {', '.join(gone)}")
    if value("spaces.layout_per_mesh") != 1.0:
        found.append(f"spaces.layout_per_mesh is "
                     f"{value('spaces.layout_per_mesh')!r}, not 1.0")
    positive = ["spaces.essential_s", "precond.lu_fill"]
    if assembly_calls is not None:
        if value("assembly.calls") != assembly_calls:
            found.append(f"assembly.calls is {value('assembly.calls')!r}, "
                         f"not {assembly_calls}")
        positive.append("assembly.system_self_s")
    for name in positive:
        if not (value(name) or 0) > 0:
            found.append(f"{name} is {value(name)!r}, not positive")
    return found


def main(argv=None, stdin=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--traced", action="store_true",
                   help="a --trace 1 run: every per-layer hook must measure")
    p.add_argument("--assembly-calls", type=int,
                   help="the assemble_system calls the traced run must count")
    args = p.parse_args(argv)
    if args.assembly_calls is not None and not args.traced:
        p.error("--assembly-calls reads a traced run: add --traced")
    lines = (stdin or sys.stdin).read().splitlines()
    found = (problems(lines[-1], args.traced, args.assembly_calls) if lines
             else ["no result line"])
    print("ok" if not found else "FAILED: " + "; ".join(found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
