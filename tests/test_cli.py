import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairorbit.cli import main
from pairorbit.closure import max_f


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


PAIR_I_DIAG12 = json.dumps({
    "A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "B": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]})


def test_dim_subcommand(capsys):
    code, out, _ = run(capsys, "dim", "--pair", PAIR_I_DIAG12)
    assert code == 0 and out.strip() == "9"


def test_classify_subcommand(capsys):
    code, out, _ = run(capsys, "classify", "--pair", PAIR_I_DIAG12)
    assert code == 0
    obj = json.loads(out)
    assert obj["class"]["a_family"] == "definite"
    assert obj["class"]["b_form"] == "a_lt_d"
    assert obj["residual"] < 1e-8


def test_path_subcommand(capsys):
    src = json.dumps({"a_family": "zero", "b_form": "zero"})
    dst = json.dumps({"a_family": "definite", "b_form": "a_lt_d",
                      "params": {"a": 1, "d": 2}})
    code, out, _ = run(capsys, "path", "--src", src, "--dst", dst)
    assert code == 0
    assert json.loads(out)["path"] == "true"


def test_maxf_subcommand(capsys):
    code, out, _ = run(capsys, "maxf", "--a", "0", "--b", "0", "--d", "2",
                       "--theta", "1.5707963")
    assert code == 0 and out.strip() == "2.000000"


@pytest.mark.parametrize("argv", [
    ("maxf", "--a", "-1", "--b", "0", "--d", "2", "--theta", "1.0"),
    ("maxf", "--a", "1", "--b", "0", "--d", "2", "--theta", "3.2"),
    ("--tol", "0", "maxf", "--a", "1", "--b", "0", "--d", "2",
     "--theta", "1.0"),
])
def test_maxf_out_of_domain_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_maxf_large_finite_scale(capsys):
    code, out, err = run(capsys, "maxf", "--a", "1e155", "--b", "1e155",
                         "--d", "1e155", "--theta", "1")
    assert code == 0 and err == ""
    want = 1e155 * max_f(1.0, 1.0, 1.0, 1.0)
    assert abs(float(out) - want) <= 1e-15 * want


def test_maxf_beyond_float_range_exit_2(capsys):
    code, out, err = run(capsys, "maxf", "--a", "1e308", "--b", "1e308",
                         "--d", "1e308", "--theta", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_graph_deterministic(capsys):
    code1, out1, _ = run(capsys, "graph", "pair", "--format", "json")
    code2, out2, _ = run(capsys, "graph", "pair", "--format", "json")
    assert code1 == code2 == 0 and out1 == out2


def test_bounds_subcommand(capsys):
    src = json.dumps({"A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                      "B": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
    dst = json.dumps({"A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                      "B": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]})
    code, out, _ = run(capsys, "bounds", "--src", src, "--dst", dst, "--raw")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["p"] - 1.0) < 1e-12
    assert obj["certificate"]["rule"] == "DetRatioRule"


def test_jet_subcommand(capsys):
    jet = json.dumps({"A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                      "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                      "C": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]})
    code, out, _ = run(capsys, "jet", "--jet", jet)
    assert code == 0
    assert json.loads(out)["quadratically_flat"] is True


def test_perturb_subcommand(capsys):
    cls = json.dumps({"a_family": "zero", "b_form": "zero"})
    code, out, _ = run(capsys, "perturb", "--class", cls, "--eps", "1e-3",
                       "--samples", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["samples"] == 10 and obj["violations"] == []


def test_malformed_json_exit_2(capsys):
    try:
        code = main(["dim", "--pair", "{not json"])
    except SystemExit as e:
        code = e.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_undecided_exit_3(capsys):
    # tau within tolerance of 1: ambiguous classification
    pair = json.dumps({"A": [[[0, 0], [1, 0]], [[0.999999999999, 0], [0, 0]]],
                       "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]})
    code, out, err = run(capsys, "classify", "--pair", pair)
    assert code == 3 and "undecided" in err


def test_no_scipy_import():
    # numpy is the only runtime dependency: importing the package, a CLI
    # classification of a generic pair and the witness catalog build must
    # not pull in scipy
    code = ("import json, sys\n"
            "import pairorbit\n"
            "from pairorbit.cli import main\n"
            "from pairorbit.matcore import pair_to_json, sample_pair\n"
            "from pairorbit.witness import witness_catalog\n"
            "pair = json.dumps(pair_to_json(sample_pair(5)))\n"
            "assert main(['classify', '--pair', pair]) == 0\n"
            "assert len(witness_catalog()) > 0\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'],"
            " file=sys.stderr)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stderr.strip() == "[]"


JORDAN_OFF_TABLE = json.dumps({
    "A": [[[0, 0], [1, 0]], [[1, 0], [0, 1]]],
    "B": [[[1, 0], [0.5, 0]], [[0.5, 0], [0.3, 0.2]]]})


def test_bounds_undecided_src_exit_3(capsys):
    # src has a Jordan-type A and a B outside the tabulated Jordan forms, so
    # the normal-form reduction of src cannot decide its family
    code, out, err = run(capsys, "bounds", "--src", JORDAN_OFF_TABLE,
                         "--dst", PAIR_I_DIAG12)
    assert code == 3 and out == ""
    assert err.startswith("undecided:")


@pytest.mark.parametrize("argv", [
    ("jet", "--jet", json.dumps({
        "A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "C": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "lin_zbar": [0.5, 0]})),
    ("--tol", "0", "classify", "--pair", PAIR_I_DIAG12),
    ("--tol", "0", "dim", "--pair", PAIR_I_DIAG12),
    ("perturb", "--class", json.dumps({"a_family": "zero", "b_form": "zero"}),
     "--eps", "-1", "--samples", "3"),
    ("perturb", "--class", json.dumps({"a_family": "zero", "b_form": "zero"}),
     "--eps", "1e-3", "--samples", "0"),
    ("perturb", "--class", json.dumps({"a_family": "zero", "b_form": "zero"}),
     "--eps", "nan"),
    ("perturb", "--class", json.dumps({"a_family": "zero", "b_form": "zero"}),
     "--eps", "inf"),
])
def test_invalid_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")
