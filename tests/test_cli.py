"""End-to-end CLI runs in temporary directories: artifacts, sidecar metadata,
exit codes, and bit-for-bit reproducibility."""

import csv
import json

import numpy as np
import pytest

from sdlab.cli import main, near_kernel_dim, version_string


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_sidecar(csv_path):
    return json.loads(csv_path.with_suffix(".json").read_text())


def test_version_string_nonempty():
    v = version_string()
    assert isinstance(v, str) and v


def test_near_kernel_dim_counts_inclusions():
    from sdlab.cli import floating_domain
    from sdlab.mesh import BcConfig, build_coupled_mesh, tag_boundaries

    m = build_coupled_mesh(floating_domain(2, 2), 0)
    tag_boundaries(m, BcConfig.MULTI)
    assert near_kernel_dim(BcConfig.MULTI, m) == 2
    assert near_kernel_dim(BcConfig.EE) == 1


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
]
BAD_RUNS = [("solve", f) for f in BAD_FLAGS] + [
    ("floating", ["--nref", "-1"]), ("cond-sweep", ["--nref", "-1"]),
    # a convergence rate needs two levels
    ("mms", ["--nref", "0"]),
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


def test_floating_sidecar_phases(tmp_path):
    out = tmp_path / "float"
    ret = main(["floating", "--inclusions", "1", "--n0", "2", "--nref", "0",
                "--K", "10", "--out", str(out)])
    assert ret == 0
    plain = read_sidecar(out / "floating_plain_K10_m1.csv")
    defl = read_sidecar(out / "floating_deflated_K10_m1.csv")
    for side in (plain, defl):
        assert set(side["timings_sec"]) == {"assemble", "precond", "spectrum",
                                            "solve", "total"}
    # both runs share one assembly and factor the same Riesz blocks
    assert plain["timings_sec"]["assemble"] == defl["timings_sec"]["assemble"]
    assert plain["results"]["lu_fill"] == defl["results"]["lu_fill"] > 0


def test_unknown_case_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cond-sweep", "--case", "bogus", "--out", str(tmp_path / "y")])
    assert exc.value.code == 2


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
