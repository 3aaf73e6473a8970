import json
import math
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


def test_classify_ill_conditioned_reciprocal_orbit_point(capsys):
    # an exact orbit point of (reciprocal|zero_plus_1), tau = 0.826, with
    # cond(A) = 4.2e6: kappa decides it, though 200 u cond(A)^2 = 0.80 is
    # above 1 - tau
    pair = json.dumps({
        "A": [[[-0.6354487546580362, -0.4534853531404974],
               [-1.1470853932484935, 0.3483766680899248]],
              [[-0.043720240245292585, -1.1981388335735048],
               [-1.4988321201413035, -1.0692230930403597]]],
        "B": [[[0.47118874581812575, -0.16567394007076386],
               [0.23908328039440613, -0.7285638223008153]],
              [[0.23908328039440613, -0.7285638223008153],
               [-0.6632520349538796, -0.9725581079399904]]]})
    code, out, err = run(capsys, "classify", "--pair", pair)
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert (obj["class"]["a_family"], obj["class"]["b_form"]) == (
        "reciprocal", "zero_plus_1")
    assert abs(obj["class"]["params"]["tau"] - 0.826) < 1e-3
    assert obj["residual"] <= 1e-8


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
    assert code == 0 and out.strip() == "2.0"


def test_maxf_prints_small_maximum_exactly(capsys):
    # a maximum of 1e-7 prints as itself, not as 0.000000
    code, out, err = run(capsys, "maxf", "--a", "1e-7", "--b", "0", "--d", "0",
                         "--theta", "1")
    assert code == 0 and err == ""
    assert float(out) == max_f(1e-7, 0, 0, 1)
    assert out.strip() == repr(max_f(1e-7, 0, 0, 1))


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


def test_maxf_near_pi(capsys):
    # theta = pi - 1e-9; M = 3751294020.1643 is the value of f at a feasible
    # point found by an independent profile search
    code, out, err = run(capsys, "maxf", "--a", "0.7", "--b", "1.1",
                         "--d", "0.3-1i", "--theta", "3.141592652589793")
    assert code == 0 and err == ""
    assert abs(float(out) - 3751294020.1643) <= 1e-12 * 3751294020.1643


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


MAT_I = json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
ZERO_CLASS = json.dumps({"a_family": "zero", "b_form": "zero"})
JET_I = json.dumps({"A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                    "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                    "C": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]})


# one successful run of every subcommand, so that each import a subcommand
# makes when it runs is executed at least once
@pytest.mark.parametrize("argv", [
    ("classify", "--pair", PAIR_I_DIAG12),
    ("dim", "--pair", PAIR_I_DIAG12),
    ("path", "--src", ZERO_CLASS, "--dst", ZERO_CLASS),
    ("graph", "psi1"),
    ("graph", "psi2", "--format", "json"),
    ("graph", "pair"),
    ("validate", "--samples", "1"),
    ("maxf", "--a", "0", "--b", "0", "--d", "2", "--theta", "1.0"),
    ("bounds", "--src", PAIR_I_DIAG12, "--dst", PAIR_I_DIAG12),
    ("phase", "--src", MAT_I, "--dst", MAT_I, "--enorm", "0.01"),
    ("witness",),
    ("perturb", "--class", ZERO_CLASS, "--eps", "1e-3", "--samples", "2"),
    ("jet", "--jet", JET_I),
], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "graph" else argv[0])
def test_every_subcommand_runs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.strip()


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
    ("--seed", "-1", "validate", "--samples", "1"),
    ("--seed", "-1", "perturb", "--class", ZERO_CLASS, "--eps", "1e-3",
     "--samples", "1"),
], ids=["validate", "perturb"])
def test_negative_seed_exit_2(capsys, argv):
    # numpy's default_rng rejects a negative seed with a ValueError, which
    # used to escape as a traceback with exit 1
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--seed" in err


DIAG_JET = {"A": [[1, 0], [0, 2]], "B": [[0, 0], [0, 0]],
            "C": [[0, 0], [0, 0]]}


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
    ("phase", "--src", MAT_I, "--dst", MAT_I, "--enorm", "nan"),
    ("phase", "--src", MAT_I, "--dst", MAT_I, "--enorm", "inf"),
    ("phase", "--src", MAT_I, "--dst", MAT_I, "--enorm", "-1"),
    ("phase", "--src", MAT_I, "--dst", MAT_I, "--enorm", "0.2"),
    # a nan linear term used to leave the complex point unmoved, with exit 0
    ("jet", "--jet", json.dumps(DIAG_JET | {"lin_zbar": ["nan", 0]})),
    ("jet", "--jet", json.dumps(DIAG_JET | {"lin_z": [0, "nan"]})),
    ("jet", "--jet", json.dumps(DIAG_JET | {"w0": "nan"})),
    ("maxf", "--a", "1", "--b", "0", "--d", "abc", "--theta", "1"),
    ("--strict", "perturb", "--class", ZERO_CLASS, "--eps", "1e-3"),
])
def test_invalid_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_witness_verify_subcommand(capsys):
    code, out, err = run(capsys, "witness", "--verify")
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert len(lines) == 142
    assert all(line.startswith("ok ") for line in lines)


def test_witness_verify_failing_entry_exit_3(capsys, monkeypatch):
    # a constant curve leaves the residual at dist(I_2, 1+0) = 1
    import numpy as np

    import pairorbit.witness as wt
    from pairorbit.families import family_of
    from pairorbit.matcore import GroupElement
    bad = wt.WitnessFamily("constant", family_of("rank1_semidef", "zero"),
                           family_of("definite", "zero"),
                           lambda s: GroupElement(1.0, np.eye(2)), "fails")
    monkeypatch.setattr(wt, "_CATALOG", (*wt.witness_catalog(), bad))
    code, out, _ = run(capsys, "witness", "--verify")
    lines = out.splitlines()
    assert code == 3 and len(lines) == 143
    assert sum(line.startswith("ok ") for line in lines) == 142
    assert lines[-1] == "FAIL constant: final residual 1.00e+00"


@pytest.mark.parametrize("cls,msg", [
    (("unimodular", "zero", {"theta": 0.0}), "theta must lie in (0, pi)"),
    (("reciprocal", "zero", {"tau": 1.0}), "tau must lie in (0, 1)"),
    (("reciprocal", "zero_b_eiphi", {"tau": 0.5, "b": 1.0, "phi": 3.2}),
     "phi must lie in [0, pi)"),
    (("unimodular", "generic",
      {"theta": 1.0, "a": 1.0, "r": -0.5, "phi": 0.5, "d": 1.0}),
     "r must be >= 0"),
    (("definite", "d0_plus_d", {"d0": 0.5, "d": 1.0}), "d0 must equal 0 or d"),
    (("indefinite", "a_lt_d", {"a": 2.0, "d": 1.0}), "a_lt_d requires 0 < a < d"),
    (("rank1_semidef", "a_plus_0", {"a": [0.5, 0.1]}),
     "a must be a positive real, got (0.5+0.1j)"),
    (("reciprocal", "one_plus_zeta", {"tau": 0.5, "zeta": "nan"}),
     "zeta must be finite, got (nan+0j)"),
    (("definite", "a_lt_d", {"a": 0.5, "d": math.inf}),
     "d must be finite, got (inf+0j)"),
], ids=["theta", "tau", "phi", "r", "d0", "a_lt_d", "positive", "nan", "inf"])
def test_class_range_errors_exit_2(capsys, cls, msg):
    fam, form, params = cls
    text = json.dumps({"a_family": fam, "b_form": form, "params": params})
    try:
        code = main(["perturb", "--class", text, "--eps", "1e-3",
                     "--samples", "1"])
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: bad orbit-class JSON: {msg}\n"


def test_path_rejects_a_non_finite_class_exit_2(capsys):
    # a nan zeta used to pass the range checks and crash in representative
    dst = json.dumps({"a_family": "reciprocal", "b_form": "one_plus_zeta",
                      "params": {"tau": 0.5, "zeta": "nan"}})
    with pytest.raises(SystemExit) as e:
        main(["path", "--src", ZERO_CLASS, "--dst", dst])
    out = capsys.readouterr()
    assert e.value.code == 2 and out.out == ""
    assert out.err == "error: bad orbit-class JSON: zeta must be finite, got (nan+0j)\n"


ZERO_MAT = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
BAD_SHAPE_A = {"1x2": [[[1, 0], [0, 0]]],
               "2x3": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPE_A))
@pytest.mark.parametrize("cmd", ["classify", "dim", "bounds", "phase", "jet"])
def test_matrix_of_wrong_shape_exit_2(capsys, cmd, shape):
    # every loader reads the whole nested list: a 2x3 A is not truncated to
    # its 2x2 corner, and a 1x2 A raises no IndexError
    A = BAD_SHAPE_A[shape]
    pair = json.dumps({"A": A, "B": ZERO_MAT})
    argv = {"classify": ["classify", "--pair", pair],
            "dim": ["dim", "--pair", pair],
            "bounds": ["bounds", "--src", pair, "--dst", PAIR_I_DIAG12],
            "phase": ["phase", "--src", json.dumps(A), "--dst", MAT_I,
                      "--enorm", "0.01"],
            "jet": ["jet", "--jet", json.dumps({"A": A, "B": ZERO_MAT,
                                                "C": ZERO_MAT})]}[cmd]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("error:") and "2x2" in out.err
