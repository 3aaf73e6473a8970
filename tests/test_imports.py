"""The package loads its submodules lazily: `import pairorbit` imports none
of them, and each CLI subcommand imports only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairorbit

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXPORTS = [
    "AmbiguousNearBoundary", "ClassifiedPair", "Complex2x2", "EdgeCondition",
    "FAMILIES", "GroupElement", "JetData", "MatrixPair", "NonPathCertificate",
    "OrbitClass", "PerturbReport", "RankUnstable", "StabilizerSolveFailed",
    "StarClass", "StarTag", "Sym2x2", "WitnessFamily", "act_pair",
    "classify_pair", "classify_star", "classify_tcong", "compose", "cosquare",
    "det_invariant_p", "export_graph", "family_of", "is_generic",
    "is_quadratically_flat", "max_f", "max_norm", "nonpath_lower_bound",
    "orbit_class_from_json", "orbit_class_to_json", "orbit_dimension",
    "orbit_equal", "pair_distance", "pair_path", "pair_path_detail",
    "perturb_experiment", "phase_estimate", "psi1_path", "psi2_path",
    "reduce_jet", "representative", "sample_group", "sample_pair", "takagi",
    "tangent_frame", "validate_graph", "verify_witness", "witness_catalog",
]


def python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def test_cli_classify_loads_only_its_modules():
    pair = json.dumps({"A": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                       "B": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]})
    out = python("-X", "importtime", "-m", "pairorbit.cli", "classify",
                 "--pair", pair)
    assert out.returncode == 0
    assert json.loads(out.stdout)["class"]["b_form"] == "a_lt_d"
    # the cli module itself runs as __main__, so it is not imported by name
    loaded = {line.rsplit("|", 1)[1].strip()
              for line in out.stderr.splitlines()
              if line.startswith("import time:")}
    loaded = {m for m in loaded if m.split(".")[0] == "pairorbit"}
    assert loaded | {"pairorbit.cli"} == {
        "pairorbit", "pairorbit.cli", "pairorbit.matcore",
        "pairorbit.congruence", "pairorbit.families", "pairorbit.pairnf"}


def test_bare_import_loads_no_submodule():
    out = python("-c", "import sys, pairorbit\n"
                       "print(sorted(m for m in sys.modules"
                       " if m.startswith('pairorbit')))\n"
                       "print(pairorbit.tangent.orbit_dimension.__module__)")
    assert out.returncode == 0, out.stderr
    # a submodule is still reachable as an attribute of the package
    assert out.stdout.split() == ["['pairorbit']", "pairorbit.tangent"]


def test_exports_resolve_to_submodule_objects():
    assert sorted(pairorbit.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(pairorbit))
    for name in EXPORTS:
        mod = importlib.import_module(
            f"pairorbit.{pairorbit._MODULE_OF[name]}")
        assert getattr(pairorbit, name) is getattr(mod, name)


def test_unknown_name_and_star_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        pairorbit.no_such_name
    ns = {}
    exec("from pairorbit import *", ns)
    assert sorted(k for k in ns if not k.startswith("__")) == EXPORTS
    assert ns["classify_pair"] is importlib.import_module(
        "pairorbit.pairnf").classify_pair
