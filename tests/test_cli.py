"""End-to-end CLI runs in temporary directories: artifacts, sidecar metadata,
exit codes, and bit-for-bit reproducibility."""

import csv
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdlab import cli, spectrum
from sdlab.assembly import store_bytes
from sdlab.cli import main, version_string
from sdlab.mesh import BcConfig, build_coupled_mesh, stacked_domain, tag_boundaries


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_sidecar(csv_path):
    return json.loads(csv_path.with_suffix(".json").read_text())


def test_version_string_nonempty():
    v = version_string()
    assert isinstance(v, str) and v


def test_mms_subcommand(tmp_path):
    out = tmp_path / "mms"
    ret = main(["mms", "--nref", "0,1", "--n0", "2", "--out", str(out)])
    assert ret == 0
    table = out / "mms_table.csv"
    rows = read_csv(table)
    assert rows[0][:2] == ["nref", "h"]
    assert len(rows) == 3
    side = read_sidecar(table)
    assert side["schema"] == "sdlab-1"
    assert side["command"] == "mms"
    assert side["config"]["n0"] == 2
    assert len(side["results"]["final_rates"]) == 4
    assert "total" in side["timings_sec"]


def test_mms_check_misses_its_rates(tmp_path):
    # at nref 0-1 on the n0 = 2 lattice the rates are not yet asymptotic
    out = tmp_path / "coarse"
    assert main(["mms", "--nref", "1", "--n0", "2", "--check",
                 "--out", str(out)]) == 1
    assert read_sidecar(out / "mms_table.csv")["results"]["rates_ok"] is False


def test_cond_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep"
    ret = main([
        "cond-sweep", "--case", "EE", "--mu", "1", "--K", "0.01,1",
        "--nref", "0", "--n0", "2", "--out", str(out),
    ])
    assert ret == 0
    table = out / "cond_sweep_EE.csv"
    rows = read_csv(table)
    assert rows[0] == ["mu", "K", "nref", "h", "ndof", "kappa", "kappa_eff"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert float(row[5]) >= float(row[6]) > 0
    side = read_sidecar(table)
    assert side["results"]["check_key"] == "kappa_eff"
    assert side["results"]["rows"] == 2
    assert side["results"]["skipped"] == []
    assert side["memory"]["peak_rss_mb"] > 0
    assert side["memory"]["store_bytes"] > 0
    # the assembly and eigensolve phases, summed over the points
    timings = side["timings_sec"]
    assert set(timings) == {"assemble", "spectrum", "points", "total"}
    assert len(timings["points"]) == 2
    assert timings["assemble"] > 0 and timings["spectrum"] > 0
    assert timings["assemble"] + timings["spectrum"] <= timings["total"]
    assert sum(timings["points"].values()) == pytest.approx(
        timings["assemble"] + timings["spectrum"])


def test_cond_sweep_check_exit_codes(tmp_path):
    # EE stays within the factor-2 corridor on this small grid
    ret = main([
        "cond-sweep", "--case", "EE", "--mu", "1", "--K", "0.01,1",
        "--nref", "0", "--n0", "2", "--out", str(tmp_path / "a"), "--check",
    ])
    assert ret == 0
    # NN kappa crosses the mu*K regime transition and exceeds the corridor
    ret = main([
        "cond-sweep", "--case", "NN", "--mu", "1", "--K", "0.0001,10000",
        "--nref", "0", "--n0", "2", "--out", str(tmp_path / "b"), "--check",
    ])
    assert ret == 1
    side = read_sidecar(tmp_path / "b" / "cond_sweep_NN.csv")
    assert side["results"]["check_key"] == "kappa"
    assert side["results"]["max_over_min"] > 2.0


@pytest.mark.parametrize("case, key", [
    ("NN", "kappa"), ("NEstar", "kappa"), ("ENstar", "kappa"),
    ("EE", "kappa_eff"), ("NE", "kappa_eff"), ("EN", "kappa_eff")])
def test_cond_sweep_check_key_per_case(tmp_path, case, key):
    # the --check spread leaves out the near-kernel of NE and EN and the
    # constant-pressure null vector of EE
    ret = main(["cond-sweep", "--case", case, "--mu", "1", "--K", "1",
                "--nref", "0", "--n0", "2", "--out", str(tmp_path)])
    assert ret == 0
    side = read_sidecar(tmp_path / f"cond_sweep_{case}.csv")
    assert side["results"]["check_key"] == key
    assert side["results"]["rows"] == 1


def test_cond_sweep_budget_skip(tmp_path, capsys):
    # nref=4 at n0=4 exceeds the dense eigensolve budget
    ret = main([
        "cond-sweep", "--case", "EE", "--mu", "1", "--K", "1",
        "--nref", "4", "--n0", "4", "--out", str(tmp_path / "c"), "--check",
    ])
    assert ret == 2
    captured = capsys.readouterr()
    assert "dense budget" in captured.err
    side = read_sidecar(tmp_path / "c" / "cond_sweep_EE.csv")
    assert len(side["results"]["skipped"]) == 1


def test_solve_subcommand_diagnostic(tmp_path):
    out = tmp_path / "solve"
    ret = main([
        "solve", "--case", "NE", "--mu", "1", "--K", "100", "--nref", "0",
        "--n0", "2", "--out", str(out), "--diagnostic", "--check",
    ])
    assert ret == 0
    table = out / "solve_NE_mu1_K100_nref0.csv"
    rows = read_csv(table)
    assert rows[0] == ["iteration", "residual", "theta_min", "F_k"]
    res = [float(r[1]) for r in rows[1:]]
    assert res[-1] <= 1e-11 * res[0]
    # diagnostic mode fills the Ritz columns after the first iteration
    assert any(r[2] != "" for r in rows[2:])
    assert any(r[3] != "" for r in rows[2:])
    side = read_sidecar(table)
    assert side["results"]["reason"] == "converged"
    assert side["results"]["iterations"] == len(rows) - 2
    assert side["results"]["relative_residual"] <= 1e-11
    assert side["results"]["ortho_max"] <= 1e-8
    assert side["config"]["case"] == "NE"
    # per-phase timings and the fill of the preconditioner's LU factors
    timings = side["timings_sec"]
    for phase in ("assemble", "precond", "spectrum", "solve", "total"):
        assert timings[phase] >= 0
    assert timings["precond"] + timings["spectrum"] + timings["solve"] \
        <= timings["total"]
    assert isinstance(side["results"]["lu_fill"], int)
    assert side["results"]["lu_fill"] > 0


def test_diagnostic_over_the_dense_budget(tmp_path, monkeypatch, capsys):
    # a --diagnostic run whose eigensolve is over the budget still solves,
    # warns once and leaves F_k blank; theta_min needs no eigensolve
    monkeypatch.setattr(spectrum, "DENSE_BUDGET", 1)
    out = tmp_path / "budget"
    ret = main(["solve", "--case", "NE", "--mu", "1", "--K", "100",
                "--nref", "0", "--n0", "2", "--diagnostic", "--out", str(out)])
    assert ret == 0
    assert capsys.readouterr().err.count("F_k column left blank") == 1
    rows = read_csv(out / "solve_NE_mu1_K100_nref0.csv")[1:]
    assert all(r[3] == "" for r in rows)
    assert all(r[2] != "" for r in rows[1:])


def test_solve_sidecar_counts_and_true_residual(tmp_path):
    # a converged solve records its products with A, its preconditioner
    # applies, and the B-norm of its true residual next to the recursive one
    out = tmp_path / "counts"
    ret = main(["solve", "--case", "EN", "--mu", "1e-4", "--K", "1e-4",
                "--nref", "1", "--out", str(out)])
    assert ret == 0
    res = read_sidecar(out / "solve_EN_mu0.0001_K0.0001_nref1.csv")["results"]
    assert res["reason"] == "converged"
    assert res["a_matvecs"] == res["iterations"] > 0
    assert res["b_applies"] == res["iterations"] + 1
    r0 = res["residual_B"] / res["relative_residual"]
    assert abs(res["true_residual_B"] - res["residual_B"]) <= 1e-12 * r0


def test_sidecars_record_each_factor(tmp_path):
    # the solve and floating sidecars name each sparse block's factor kind
    # and entries, which sum to lu_fill; these small blocks take the band
    out = tmp_path / "factors"
    assert main(["solve", "--case", "NE", "--mu", "1", "--K", "1",
                 "--nref", "0", "--n0", "2", "--out", str(out)]) == 0
    assert main(["floating", "--inclusions", "1", "--K", "1", "--nref", "0",
                 "--n0", "2", "--out", str(out)]) == 0
    for table in ("solve_NE_mu1_K1_nref0", "floating_plain_K1_m1",
                  "floating_deflated_K1_m1"):
        res = read_sidecar(out / f"{table}.csv")["results"]
        assert set(res["factors"]) == {"u_S", "u_D", "p_S"}
        for kind, entries in res["factors"].values():
            assert kind == "band" and isinstance(entries, int) and entries > 0
        assert sum(n for _, n in res["factors"].values()) == res["lu_fill"]


def test_solve_sidecar_residual_gap(tmp_path):
    # the gap between the true and the recursive residual, relative to r_0
    # (1.3e-17 here), shows whether the recursion drifted
    out = tmp_path / "gap"
    ret = main(["solve", "--case", "NE", "--nref", "1", "--out", str(out)])
    assert ret == 0
    res = read_sidecar(out / "solve_NE_mu3_K1_nref1.csv")["results"]
    assert res["reason"] == "converged"
    r0 = res["residual_B"] / res["relative_residual"]
    assert res["residual_gap"] == pytest.approx(
        abs(res["true_residual_B"] - res["residual_B"]) / r0, rel=1e-12)
    assert res["residual_gap"] < 1e-12


def test_solve_sidecar_records_environment(tmp_path, monkeypatch):
    # the BLAS and the threads it may use, as the logs depend on them
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out = tmp_path / "env"
    ret = main(["solve", "--case", "EN", "--nref", "0", "--n0", "2",
                "--out", str(out)])
    assert ret == 0
    env = read_sidecar(out / "solve_EN_mu3_K1_nref0.csv")["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["blas"]["name"]
    assert env["OMP_NUM_THREADS"] == "1"
    assert env["OPENBLAS_NUM_THREADS"] is None
    assert env["cpu_affinity"] >= 1


def test_solve_sidecar_records_blas_threads(tmp_path):
    # the threads each loaded OpenBLAS uses, read from the library itself:
    # in a fresh process, OPENBLAS_NUM_THREADS=1 reaches every one of them
    out = tmp_path / "threads"
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    subprocess.run([sys.executable, "-m", "sdlab.cli", "solve", "--case",
                    "EN", "--nref", "0", "--n0", "2", "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    env = read_sidecar(out / "solve_EN_mu3_K1_nref0.csv")["environment"]
    assert env["OPENBLAS_NUM_THREADS"] == "1"
    threads = env["blas_threads"]
    assert threads and set(threads.values()) == {1}


def test_solve_sidecar_records_memory(tmp_path):
    # the bytes of the per-mesh operator store, which depend only on the
    # mesh and its layout, and the process's peak resident set so far
    out = tmp_path / "mem"
    ret = main(["solve", "--case", "EN", "--nref", "1", "--n0", "2",
                "--out", str(out)])
    assert ret == 0
    mem = read_sidecar(out / "solve_EN_mu3_K1_nref1.csv")["memory"]
    mesh = tag_boundaries(build_coupled_mesh(stacked_domain(2), 1),
                          BcConfig.EN)
    assert mem["store_bytes"] == store_bytes(mesh) > 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0 < mem["peak_rss_mb"] <= peak


def test_deflated_diagnostic_measures_its_own_spectrum(tmp_path):
    # F_k of a deflated run is measured against the spectrum of B_W A;
    # against the plain pencil (A, N), which keeps the outlier that
    # deflation removes, the last F_k reads 7.1e13
    out = tmp_path / "defl_diag"
    ret = main(["solve", "--case", "EN", "--mu", "1e-4", "--K", "1e-4",
                "--nref", "0", "--out", str(out), "--deflate", "--diagnostic"])
    assert ret == 0
    rows = read_csv(out / "solve_EN_mu0.0001_K0.0001_nref0.csv")
    assert abs(float(rows[-1][3]) - 1.0) <= 1e-6


def test_solve_deflate_flag(tmp_path):
    out = tmp_path / "defl"
    ret = main([
        "solve", "--case", "NE", "--mu", "1", "--K", "10000", "--nref", "0",
        "--n0", "2", "--out", str(out), "--deflate", "--check",
    ])
    assert ret == 0
    side = read_sidecar(out / "solve_NE_mu1_K10000_nref0.csv")
    assert side["config"]["deflate"] is True
    assert side["results"]["plateau"] is False


def test_floating_subcommand(tmp_path):
    out = tmp_path / "float"
    ret = main([
        "floating", "--inclusions", "1", "--n0", "2", "--nref", "0",
        "--K", "1000", "--out", str(out), "--check",
    ])
    assert ret == 0
    plain = out / "floating_plain_K1000_m1.csv"
    defl = out / "floating_deflated_K1000_m1.csv"
    assert plain.exists() and defl.exists()
    side_p = read_sidecar(plain)
    side_d = read_sidecar(defl)
    assert side_p["config"]["deflate"] is False
    assert side_d["config"]["deflate"] is True
    # deflation must not be slower than the plain preconditioner here
    assert side_d["results"]["iterations"] <= side_p["results"]["iterations"]
    assert side_d["results"]["plateau"] is False


def test_invalid_inclusion_count_exits_2(tmp_path):
    ret = main([
        "floating", "--inclusions", "0", "--out", str(tmp_path / "x"),
    ])
    assert ret == 2


BAD_FLAGS = [
    ["--mu", "-1"], ["--mu", "nan"], ["--mu", "0"],
    ["--K", "0"], ["--K", "-2"], ["--K", "inf"],
    ["--alpha", "-0.5"], ["--alpha", "nan"],
    ["--gamma-mult", "0"], ["--gamma-mult", "-1"], ["--gamma-mult", "nan"],
    ["--reduction", "nan"], ["--reduction", "-1"], ["--nref", "-1"],
    ["--maxit", "0"], ["--maxit", "-3"],
]
BAD_RUNS = [("solve", f) for f in BAD_FLAGS] + [
    ("floating", ["--nref", "-1"]), ("cond-sweep", ["--nref", "-1"]),
    # a convergence rate needs two levels
    ("mms", ["--nref", "0"]),
    # a deflation weight that overflows or underflows
    ("solve", ["--case", "NE", "--deflate", "--gamma-mult", "1e308",
               "--mu", "1e-4", "--K", "1e-4"]),
    ("solve", ["--case", "NE", "--deflate", "--gamma-mult", "5e-324",
               "--mu", "1e2", "--K", "1e2"]),
    ("solve", ["--case", "NE", "--deflate", "--mu", "1e-200",
               "--K", "1e-200"]),
    # layouts without a near-kernel have nothing to deflate
    ("solve", ["--case", "NN", "--deflate"]),
    ("solve", ["--case", "ENstar", "--deflate"]),
    # floating builds the deflation before its plain run writes a file
    ("floating", ["--gamma-mult", "1e300", "--K", "1e-300"]),
    # a deflation weight that overflows only at a later sweep point
    ("solve", ["--case", "NE", "--deflate", "--gamma-mult", "1e300",
               "--mu", "1,1e-300"]),
    ("floating", ["--gamma-mult", "1e300", "--K", "1,1e-300"]),
    # mu or K whose weights in A and N overflow
    ("solve", ["--K", "1e-310"]),
    ("cond-sweep", ["--case", "NN", "--mu", "1e-310", "--K", "1"]),
    # a flag read as one value rejects a sweep, whose extra values would
    # otherwise be dropped unchecked
    ("mms", ["--nref", "1", "--mu", "3,-1"]),
    ("mms", ["--nref", "1", "--K", "1,nan"]),
    # mms reads only the largest --nref; the others are checked all the same
    ("mms", ["--nref", "2,-1"]),
    ("floating", ["--nref", "0,-1"]), ("floating", ["--mu", "1,-5"]),
    # a bad value late in a sweep fails before the first run writes a file
    ("solve", ["--mu", "1,-1"]), ("solve", ["--nref", "0,-1"]),
    ("solve", ["--K", "1,1e-310"]), ("floating", ["--K", "1,-1"]),
]
COMMAND_ARGV = {"solve": ["solve", "--case", "EN"],
                "cond-sweep": ["cond-sweep", "--case", "EN"],
                "floating": ["floating", "--inclusions", "1"],
                "mms": ["mms"]}


@pytest.mark.parametrize("command,flags", [
    pytest.param(c, f, id=("" if c == "solve" else c + "-")
                 + "".join(f).lstrip("-"))
    for c, f in BAD_RUNS])
def test_bad_parameters_exit_2(tmp_path, capsys, command, flags):
    out = tmp_path / "bad"
    ret = main(COMMAND_ARGV[command] + ["--nref", "0", "--n0", "2",
                                        "--out", str(out)] + flags)
    assert ret == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("case", ["NN", "EE", "NEstar", "ENstar"])
def test_deflate_without_near_kernel_builds_no_mesh(tmp_path, capsys,
                                                    monkeypatch, case):
    # the layout is refused with the deflation weight, before the first
    # mesh is built
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(cli, "build_coupled_mesh", no_mesh)
    out = tmp_path / "refused"
    ret = main(["solve", "--case", case, "--deflate", "--nref", "0",
                "--n0", "2", "--out", str(out)])
    assert ret == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_floating_sidecar_phases(tmp_path, monkeypatch):
    built, real = [], cli.build_preconditioner
    monkeypatch.setattr(cli, "build_preconditioner",
                        lambda system: built.append(system) or real(system))
    out = tmp_path / "float"
    ret = main(["floating", "--inclusions", "1", "--n0", "2", "--nref", "0",
                "--K", "10", "--out", str(out)])
    assert ret == 0
    # the plain and the deflated run share one factorization per K
    assert len(built) == 1
    plain = read_sidecar(out / "floating_plain_K10_m1.csv")
    defl = read_sidecar(out / "floating_deflated_K10_m1.csv")
    for side in (plain, defl):
        assert set(side["timings_sec"]) == {"assemble", "precond", "spectrum",
                                            "solve", "total"}
        assert set(side["memory"]) == {"store_bytes", "peak_rss_mb"}
    # both runs share one assembly and factor the same Riesz blocks
    assert plain["timings_sec"]["assemble"] == defl["timings_sec"]["assemble"]
    assert plain["results"]["lu_fill"] == defl["results"]["lu_fill"] > 0


def test_indefinite_preconditioner_is_a_reason(tmp_path, monkeypatch):
    # a negated preconditioner is not SPD: the run still writes its log and
    # sidecar, reports the reason, and --check counts it as missed
    real = cli.build_preconditioner

    class Negated:
        lu_fill = 1

        def __init__(self, system):
            self._B = real(system)

        def __call__(self, r):
            return -self._B(r)

    monkeypatch.setattr(cli, "build_preconditioner", Negated)
    out = tmp_path / "indef"
    ret = main(["solve", "--case", "NE", "--mu", "1", "--K", "100",
                "--nref", "0", "--n0", "2", "--out", str(out), "--check"])
    assert ret == 1
    table = out / "solve_NE_mu1_K100_nref0.csv"
    # r'Br < 0 has no B-norm: the residual reads nan, not 0
    assert read_csv(table)[1][:2] == ["0", "nan"]
    side = read_sidecar(table)
    assert side["results"]["reason"] == "indefinite"
    assert side["results"]["iterations"] == 0
    assert np.isnan(side["results"]["relative_residual"])
    assert np.isnan(side["results"]["true_residual_B"])
    assert np.isnan(side["results"]["residual_gap"])


def assert_refused(ret, capsys, out):
    """Exit code 2, one `error:` line naming no private name, and no output
    directory; returns the line."""
    assert ret == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not re.search(r"\b_\w", err), err
    assert not out.exists()
    return err


def test_unknown_case_rejected(tmp_path, capsys):
    # argparse's own errors are one line too, not a usage block
    out = tmp_path / "y"
    assert_refused(main(["cond-sweep", "--case", "bogus", "--out", str(out)]),
                   capsys, out)


@pytest.mark.parametrize("command", ["cond-sweep", "solve"])
def test_multi_inclusion_case_rejected(tmp_path, capsys, command):
    # MultiInclusion has no edge tags: its geometry is built by `floating`
    out = tmp_path / "multi"
    assert_refused(main([command, "--case", "MultiInclusion",
                         "--out", str(out)]), capsys, out)


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_non_numeric_mu_rejected(tmp_path, capsys, command):
    out = tmp_path / "abc"
    err = assert_refused(main(COMMAND_ARGV[command] + ["--mu", "abc",
                                                       "--out", str(out)]),
                         capsys, out)
    assert "expected comma-separated numbers, got 'abc'" in err


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_non_integer_nref_rejected(tmp_path, capsys, command):
    out = tmp_path / "nref"
    err = assert_refused(main(COMMAND_ARGV[command] + ["--nref", "1,x",
                                                       "--out", str(out)]),
                         capsys, out)
    assert "expected comma-separated non-negative integers, got '1,x'" in err


def test_reproducible_outputs(tmp_path):
    argv = [
        "cond-sweep", "--case", "NN", "--mu", "0.1,1", "--K", "1",
        "--nref", "0", "--n0", "2",
    ]
    main(argv + ["--out", str(tmp_path / "r1")])
    main(argv + ["--out", str(tmp_path / "r2")])
    a = (tmp_path / "r1" / "cond_sweep_NN.csv").read_bytes()
    b = (tmp_path / "r2" / "cond_sweep_NN.csv").read_bytes()
    assert a == b
    # sidecars agree on everything except wall-clock timings
    sa = read_sidecar(tmp_path / "r1" / "cond_sweep_NN.csv")
    sb = read_sidecar(tmp_path / "r2" / "cond_sweep_NN.csv")
    sa.pop("timings_sec")
    sb.pop("timings_sec")
    assert sa == sb


def test_solve_sweep_matches_single_point_runs(tmp_path):
    # every sweep command assembles each (mu, K) on one mesh per nref; its
    # outputs equal those of runs that each build their own mesh, byte for
    # byte
    argv = ["solve", "--case", "EN", "--nref", "1", "--n0", "2", "--mu", "1"]
    assert main(argv + ["--K", "1e-2,1e2", "--out", str(tmp_path / "sweep")]) == 0
    for K in ("1e-2", "1e2"):
        assert main(argv + ["--K", K, "--out", str(tmp_path / K)]) == 0
        name = f"solve_EN_mu1_K{float(K):g}_nref1.csv"
        assert ((tmp_path / "sweep" / name).read_bytes()
                == (tmp_path / K / name).read_bytes())
    # every row of a cond-sweep over two meshes and two K
    argv = ["cond-sweep", "--case", "EE", "--mu", "1", "--n0", "2"]
    out = tmp_path / "cond"
    assert main(argv + ["--nref", "0,1", "--K", "1e-2,1e2",
                        "--out", str(out / "sweep")]) == 0
    rows = (out / "sweep" / "cond_sweep_EE.csv").read_bytes().splitlines()
    assert len(rows) == 5
    point_rows = []
    for nref in ("0", "1"):
        for K in ("1e-2", "1e2"):
            one = out / f"{nref}_{K}"
            assert main(argv + ["--nref", nref, "--K", K,
                                "--out", str(one)]) == 0
            header, row = (one / "cond_sweep_EE.csv").read_bytes().splitlines()
            point_rows.append(row)
    assert rows == [header] + point_rows
    # each log of a floating sweep over K
    argv = ["floating", "--inclusions", "1", "--n0", "2", "--nref", "0"]
    out = tmp_path / "floating"
    assert main(argv + ["--K", "1,100", "--out", str(out / "sweep")]) == 0
    for K in ("1", "100"):
        assert main(argv + ["--K", K, "--out", str(out / K)]) == 0
        for kind in ("plain", "deflated"):
            name = f"floating_{kind}_K{K}_m1.csv"
            assert ((out / "sweep" / name).read_bytes()
                    == (out / K / name).read_bytes())
