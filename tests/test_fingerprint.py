"""The bitwise fingerprint script (tests/fingerprint.py): its comparison
names exactly the outputs that differ, and its command line exits 1 on
any."""

import json

import numpy as np

import fingerprint


def small_result():
    # NN at nref 0: fifteen outputs (no deflation, five block solves, one
    # spectrum) at each of the three (mu, K)
    return fingerprint.fingerprints(fingerprint.CASES[:1])


def test_comparison_names_exactly_the_altered_output():
    ours = small_result()
    assert len(ours) == 15 * len(fingerprint.PARAMS)
    assert small_result() == ours
    assert fingerprint.differing(ours, dict(ours)) == []
    name = "NN/nref0/mu=0.001,K=1000/solve_u_S"
    theirs = dict(ours)
    theirs[name] = fingerprint.digest(np.zeros(1))
    assert fingerprint.differing(ours, theirs) == [name]
    del theirs[name]
    assert fingerprint.differing(ours, theirs) == [name]


def test_against_exits_1_and_names_the_output(tmp_path, monkeypatch, capsys):
    ours = small_result()
    monkeypatch.setattr(fingerprint, "fingerprints", lambda: ours)
    path = tmp_path / "fp.json"
    assert fingerprint.main(["--out", str(path)]) == 0
    assert fingerprint.main(["--against", str(path)]) == 0
    theirs = json.loads(path.read_text())
    name = "NN/nref0/mu=3,K=0.2/minres_log"
    theirs[name] = "0" * 64
    path.write_text(json.dumps(theirs))
    capsys.readouterr()
    assert fingerprint.main(["--against", str(path)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines()
            if line.startswith("differs:")] == [f"differs: {name}"]
