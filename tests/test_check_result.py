"""The benchmark result-line checker (tests/check_result.py) on synthetic
lines: each requirement of the CI steps fails on its own."""

import io
import json

import pytest

import check_result

TRACED = ["--traced"]
SWEEP = ["--traced", "--assembly-calls", "26"]


def line(correct=True, failed=0, **values):
    metrics = {"spaces.layout_per_mesh": 1.0, "spaces.essential_s": 0.01,
               "assembly.calls": 26, "assembly.system_self_s": 0.2,
               "precond.lu_fill": 164012, "minres.self_s": 0.5}
    metrics.update(values)
    return json.dumps({"correct": correct, "attempted": 3, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "s"}
                                   for k, v in metrics.items()}})


def run(text, argv, capsys):
    ret = check_result.main(argv, io.StringIO(text))
    return ret, capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], TRACED, SWEEP])
def test_a_good_line_passes(argv, capsys):
    # the run's other output comes before its result line
    assert run("workload spectral\n  ...\n" + line() + "\n", argv,
               capsys) == (0, "ok\n")


@pytest.mark.parametrize("argv", [[], TRACED, SWEEP])
@pytest.mark.parametrize("text", [
    line().replace("0.5", "NaN"), line().replace("0.5", "-Infinity"),
    line(correct=False), line(failed=1), line(correct="true"),
    "not json", "", "[1, 2]",
], ids=["nan", "infinity", "incorrect", "failed", "correct-string",
        "not-json", "empty", "not-an-object"])
def test_every_run_fails(text, argv, capsys):
    ret, out = run(text, argv, capsys)
    assert ret == 1 and out.startswith("FAILED: ")


@pytest.mark.parametrize("argv", [TRACED, SWEEP])
@pytest.mark.parametrize("values", [
    {"minres.self_s": None}, {"spaces.layout_per_mesh": 2.0},
    {"spaces.essential_s": 0.0}, {"spaces.essential_s": None},
    {"precond.lu_fill": 0},
], ids=["null", "layout-per-mesh", "essential-zero", "essential-null",
        "lu-fill-zero"])
def test_traced_runs_fail(values, argv, capsys):
    text = line(**values)
    assert run(text, [], capsys)[0] == 0
    ret, out = run(text, argv, capsys)
    assert ret == 1 and out.startswith("FAILED: ")


@pytest.mark.parametrize("values", [
    {"assembly.calls": 25}, {"assembly.calls": 26.5},
    {"assembly.system_self_s": 0.0},
], ids=["calls-25", "calls-26.5", "system-self-zero"])
def test_traced_param_sweep_fails(values, capsys):
    text = line(**values)
    assert run(text, TRACED, capsys)[0] == 0
    ret, out = run(text, SWEEP, capsys)
    assert ret == 1 and out.startswith("FAILED: ")


def test_assembly_calls_needs_traced(capsys):
    with pytest.raises(SystemExit):
        check_result.main(["--assembly-calls", "26"], io.StringIO(line()))
