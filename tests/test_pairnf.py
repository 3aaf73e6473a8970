import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from pairorbit.congruence import StarTag as T
from pairorbit.families import (
    FAMILIES,
    family_of,
    is_generic,
    orbit_class_from_json,
    orbit_class_to_json,
    representative,
    sample_params,
)
from pairorbit.matcore import (
    GroupElement,
    MatrixPair,
    PairOrbitError,
    Sym2x2,
    act_pair,
    group_inverse,
    pair_distance,
    sample_group,
)
from pairorbit.pairnf import classify_pair, orbit_equal
from pairorbit.tangent import orbit_dimension


def test_family_registry_counts():
    assert len(FAMILIES) == 42
    by_dim = {}
    for f in FAMILIES.values():
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 1, 4: 2, 5: 3, 6: 2, 7: 4, 8: 13, 9: 17}


def test_representative_examples():
    p = representative(family_of(T.ZERO, "zero"))
    assert pair_distance(p, MatrixPair.of(np.zeros((2, 2)), np.zeros((2, 2)))) == 0

    p = representative(family_of(T.DEFINITE, "a_lt_d", a=1.0, d=2.0))
    assert np.array_equal(p.A.m, np.eye(2))
    assert np.array_equal(p.B.m, np.diag([1.0 + 0j, 2.0]))

    p = representative(family_of(T.JORDAN, "zero"))
    assert np.array_equal(p.A.m, np.array([[0, 1], [1, 1j]]))
    assert family_of(T.JORDAN, "zero").dim == 7


def test_classify_definite_zero():
    out = classify_pair(MatrixPair.of(np.eye(2), np.zeros((2, 2))))
    assert out.cls.key() == (T.DEFINITE, "zero")
    assert out.cls.dim == 5
    # reducer fixes the pair up to a unitary stabilizer element
    assert out.residual < 1e-10


def test_classify_round_trip_unimodular_example():
    cls = family_of(T.UNIMODULAR, "zero", theta=np.pi / 3)
    p = act_pair(group_inverse(sample_group(12)), representative(cls))
    out = classify_pair(p)
    assert out.cls.key() == (T.UNIMODULAR, "zero")
    assert abs(out.cls.params["theta"] - np.pi / 3) < 1e-6
    assert out.cls.dim == 7


def test_classify_zero_rank1():
    B = np.array([[1.0, 1j], [1j, -1.0]])  # rank 1 symmetric
    out = classify_pair(MatrixPair.of(np.zeros((2, 2)), B))
    assert out.cls.key() == (T.ZERO, "rank1")
    assert out.cls.dim == 4


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_round_trip_all_families(key):
    spec = FAMILIES[key]
    for cls in sample_params(spec, n=3):
        rep = representative(cls)
        for seed in range(4):
            g = sample_group(seed + 211, spread=1.0)
            out = classify_pair(act_pair(g, rep))
            assert out.cls.close_to(cls, 1e-6), \
                f"{cls} came back as {out.cls} (seed {seed})"
            assert out.residual <= 1e-8


def test_reducer_maps_onto_representative():
    cls = family_of(T.RECIPROCAL, "generic", tau=0.6, phi=0.4, b=1.2,
                    zeta=0.5 - 0.8j)
    rep = representative(cls)
    p = act_pair(sample_group(5), rep)
    out = classify_pair(p)
    assert pair_distance(act_pair(out.reducer, p),
                         representative(out.cls)) <= out.residual + 1e-12


def test_sample_params_same_in_every_process():
    code = ("from pairorbit.families import FAMILIES, sample_params\n"
            "for spec in FAMILIES.values():\n"
            "    for c in sample_params(spec):\n"
            "        print(c.key(), sorted(c.params.items()))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0].count("\n") == 5 * len(FAMILIES)
    assert outs[0] == outs[1]


def test_dim_matches_tangent_module():
    for key, spec in FAMILIES.items():
        cls = sample_params(spec, n=1)[0]
        rep = representative(cls)
        seed = zlib.crc32(repr(key).encode()) % 1000
        p = act_pair(sample_group(seed), rep)
        out = classify_pair(p)
        assert out.cls.dim == orbit_dimension(p)


def test_near_scalar_cosquare_raises_typed_error():
    # the one sample of perturb_experiment((indefinite|zero), 1e-3, 1,
    # seed=1014078877): its cosquare is near scalar, the A stage reads it as
    # Jordan, and the Jordan column cannot normalize its B
    E = np.array([[-4.849206394948673e-05 - 0.0008720805529094684j,
                   0.0003418082977657986 + 0.0004384159217707383j],
                  [0.0003630591250895343 - 0.00021151401826263554j,
                   -0.0004496834725468542 + 0.000643611341275045j]])
    f11 = -0.00035999182449010064 + 0.000864602779538355j
    f12 = -0.0005880279253799822 - 0.0002972115170519883j
    f22 = -0.0009507299041735962 - 0.00010260255067388378j
    rep = representative(family_of(T.INDEFINITE, "zero"))
    p = MatrixPair.of(rep.A.m + E, Sym2x2.symmetrize(
        rep.B.m + np.array([[f11, f12], [f12, f22]])))
    with pytest.raises(PairOrbitError):
        classify_pair(p)


def test_orbit_equal():
    cls = family_of(T.INDEFINITE, "a_lt_d", a=0.5, d=1.5)
    rep = representative(cls)
    assert orbit_equal(rep, rep)
    for seed in range(30):
        assert orbit_equal(rep, act_pair(sample_group(seed), rep))
    other = representative(family_of(T.DEFINITE, "zero"))
    assert not orbit_equal(representative(family_of(T.DEFINITE, "zero")),
                           representative(family_of(T.INDEFINITE, "zero")))


def test_classification_invariant_under_stabilizer_scaling():
    # unitary-scalar stabilizer elements of (I2, .) leave the class fixed
    cls = family_of(T.DEFINITE, "a_lt_d", a=0.7, d=1.9)
    rep = representative(cls)
    rng = np.random.default_rng(0)
    for _ in range(50):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = GroupElement(1.0, phase * np.eye(2))
        out = classify_pair(act_pair(g, rep))
        assert out.cls.close_to(cls, 1e-9)


def test_is_generic():
    assert not is_generic(family_of(T.DEFINITE, "zero"))
    assert is_generic(family_of(T.UNIMODULAR, "generic", theta=np.pi / 2,
                                a=1.0, r=2.0, phi=np.pi / 4, d=3.0))
    assert is_generic(family_of(T.RECIPROCAL, "generic", tau=0.5,
                                phi=np.pi / 4, b=1.0, zeta=5j))
    assert not is_generic(family_of(T.JORDAN, "a_plus_zeta", a=1.0, zeta=1j))


def test_orbit_class_json_snapshot():
    cls = family_of(T.UNIMODULAR, "generic", theta=1.5, a=1.0, r=0.5,
                    phi=0.25, d=2.0)
    obj = orbit_class_to_json(cls)
    assert obj == {"a_family": "unimodular", "b_form": "generic",
                   "params": {"a": 1.0, "d": 2.0, "phi": 0.25, "r": 0.5,
                              "theta": 1.5}, "dim": 9}
    back = orbit_class_from_json(json.loads(json.dumps(obj)))
    assert back.close_to(cls, 0)
    cls2 = family_of(T.RECIPROCAL, "one_plus_zeta", tau=0.5, zeta=1 - 2j)
    obj2 = orbit_class_to_json(cls2)
    assert obj2["params"]["zeta"] == [1.0, -2.0]
    assert orbit_class_from_json(obj2).close_to(cls2, 0)
