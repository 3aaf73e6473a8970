import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from pairorbit.congruence import StarClass, star_representative
from pairorbit.congruence import StarTag as T
from pairorbit.families import (
    FAMILIES,
    family_of,
    is_generic,
    orbit_class_from_json,
    orbit_class_to_json,
    read_back,
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
    least_squares,
    pair_distance,
    sample_group,
)
from pairorbit import pairnf as pn
from pairorbit.pairnf import classify_pair, orbit_equal
from pairorbit.tangent import orbit_dimension
from pairorbit.witness import perturb_experiment


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


def test_near_scalar_cosquare_is_unimodular():
    # the one sample of perturb_experiment((indefinite|zero), 1e-3, 1,
    # seed=1014078877): its cosquare's eigenvalues are close, but kappa sits
    # well inside (-1, 1), so it is a unimodular A, not a Jordan one
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
    out = classify_pair(p)
    assert out.cls.key() == (T.UNIMODULAR, "generic")
    assert out.residual <= 1e-8
    assert pair_distance(act_pair(out.reducer, p),
                         representative(out.cls)) <= out.residual + 1e-12


# A-representatives at distance delta from a boundary of kappa's ranges
_NEAR_KAPPA_BOUNDARY = {
    "theta_to_0": lambda d: StarClass(T.UNIMODULAR, theta=d),
    "theta_to_pi": lambda d: StarClass(T.UNIMODULAR, theta=np.pi - d),
    "tau_to_1": lambda d: StarClass(T.RECIPROCAL, tau=1.0 - d),
    "tau_to_0": lambda d: StarClass(T.RECIPROCAL, tau=d),
}


@pytest.mark.parametrize("side", sorted(_NEAR_KAPPA_BOUNDARY))
@pytest.mark.parametrize("delta", [1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-13])
def test_near_kappa_boundaries_right_family_or_undecided(side, delta):
    star = _NEAR_KAPPA_BOUNDARY[side](delta)
    want = star.theta if star.tag == T.UNIMODULAR else star.tau
    rep = MatrixPair.of(star_representative(star).m, np.zeros((2, 2)))
    for seed in range(40):
        p = act_pair(group_inverse(sample_group(seed)), rep)
        try:
            out = classify_pair(p)
        except PairOrbitError:
            continue
        if out.cls.a_family == T.RANK1_NILPOTENT:
            # the rank gate: A is within tol of the singular matrices
            s = np.linalg.svd(p.A.m, compute_uv=False)
            assert side == "tau_to_0" and s[1] <= 1e-9 * s[0]
            continue
        assert out.cls.key() == (star.tag, "zero"), (seed, out.cls)
        got = out.cls.params["theta" if star.tag == T.UNIMODULAR else "tau"]
        assert abs(got - want) <= 1e-12
        assert out.residual <= 1e-8


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


def _central_jacobian(fun, x, h=1e-6):
    cols = []
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        cols.append((fun(x + e)[0] - fun(x - e)[0]) / (2.0 * h))
    return np.array(cols).T


def _assert_jacobian(fun, x):
    J = fun(x)[1]
    Jc = _central_jacobian(fun, x)
    assert J.shape == Jc.shape
    assert np.max(np.abs(J - Jc)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


@pytest.mark.parametrize("b_form", sorted({k[1] for k in FAMILIES}))
def test_structural_residual_jacobian(b_form):
    rng = np.random.default_rng(zlib.crc32(b_form.encode()))
    keys = [k for k in FAMILIES if k[1] == b_form]
    assert keys
    for key in keys:
        cls = sample_params(FAMILIES[key], n=1, seed=5)[0]
        p = MatrixPair.of(*(rng.standard_normal((2, 2, 2)) @ [1.0, 1j]
                            for _ in range(2)))
        fun = pn._structural_residual(p, cls, representative(cls).A.m)
        for _ in range(3):
            _assert_jacobian(fun, rng.standard_normal(9))


def test_structural_residual_unit_slot():
    # (reciprocal | generic) pins |B11| = 1 instead of B11 itself
    cls = sample_params(FAMILIES[(T.RECIPROCAL, "generic")], n=1, seed=5)[0]
    p = MatrixPair.of(np.eye(2), np.eye(2))
    fun = pn._structural_residual(p, cls, representative(cls).A.m)
    x = np.concatenate([[0.3], np.array([[2.0, 0.5j], [0.1, 1.0]]).view(float).ravel()])
    r, J = fun(x)
    assert r.shape == (10,) and J.shape == (10, 9)  # A, Im B12, |B11|
    assert abs(r[-1] - 3.01) < 1e-14       # |B11| - 1 with B11 = 4.01
    _assert_jacobian(fun, x)


def test_structural_residual_unit_slot_zero_b_eiphi():
    # (reciprocal | zero_b_eiphi) pins B11 = 0, Im B12 and |B22| = 1
    cls = sample_params(FAMILIES[(T.RECIPROCAL, "zero_b_eiphi")], n=1, seed=5)[0]
    p = MatrixPair.of(np.eye(2), np.eye(2))
    fun = pn._structural_residual(p, cls, representative(cls).A.m)
    x = np.concatenate([[0.3], np.array([[2.0, 0.5j], [0.1, 1.0]]).view(float).ravel()])
    r, J = fun(x)
    assert r.shape == (12,) and J.shape == (12, 9)  # A, B11, Im B12, |B22|
    assert abs(r[-1] + 0.25) < 1e-14       # |B22| - 1 with B22 = 0.75
    _assert_jacobian(fun, x)


def test_b_params_order():
    # the A parameter first, then the slot parameters in slot order
    assert FAMILIES[(T.UNIMODULAR, "generic")].b_params == \
        ("theta", "a", "r", "phi", "d")
    assert FAMILIES[(T.RECIPROCAL, "generic")].b_params == \
        ("tau", "phi", "b", "zeta")
    assert FAMILIES[(T.RECIPROCAL, "zero_b_eiphi")].b_params == ("tau", "b", "phi")
    assert FAMILIES[(T.INDEFINITE, "h_one_plus_de")].b_params == ("d", "theta")
    assert FAMILIES[(T.DEFINITE, "d0_plus_d")].b_params == ("d0", "d")
    assert FAMILIES[(T.ZERO, "full")].b_params == ()


@pytest.mark.parametrize("key", sorted(FAMILIES))
def test_read_back_of_representative(key):
    # reading the parameters back off the representative's B returns them;
    # the modulus and angle of a phase slot ("r@phi", "@phi", "d@theta") go
    # through polar form and may move by one unit in the last place
    spec = FAMILIES[key]
    polar = {n for s in spec.b_slots if isinstance(s, str) and "@" in s
             for n in s.split("@") if n}
    for cls in sample_params(spec, n=5):
        got = read_back(cls, representative(cls).B.m, 1e-9)
        assert got.key() == cls.key() and set(got.params) == set(cls.params)
        for name, v in cls.params.items():
            if name in polar:
                assert abs(got.params[name] - v) <= 2 * np.spacing(abs(v)), name
            else:
                assert got.params[name] == v, name


def test_fallback_polish_reaches_the_representative(monkeypatch):
    # sample 3 misses the 1e-10 fast path (its reducer has |P| ~ 1e5 and the
    # target |zeta| ~ 1e10); one structural solve reaches the representative
    rep = perturb_experiment(family_of(T.ZERO, "full"), 1e-5, 4, seed=87989972)
    assert rep.unresolved == 0
    # sample 3 itself: representative(zero | full) = (0, I) plus (E, F)
    E = np.array([[-3.829936787223943e-06 + 8.134710232737297e-06j,
                   1.5153088858134077e-06 + 4.715967377375815e-06j],
                  [-7.551330885970415e-06 + 2.301018799699402e-06j,
                   7.915362582362402e-07 - 7.238487133750308e-06j]])
    f11 = -8.705097686403514e-06 + 8.542104472661499e-07j
    f12 = -5.9228644431717736e-06 + 1.986949948159849e-06j
    f22 = 1.9599957691177804e-06 - 8.512420611485251e-06j
    p = MatrixPair.of(E, Sym2x2.symmetrize(
        np.eye(2) + np.array([[f11, f12], [f12, f22]])))
    calls = []
    monkeypatch.setattr(pn, "least_squares",
                        lambda *a, **k: calls.append(1) or least_squares(*a, **k))
    out = classify_pair(p)
    assert len(calls) == 1
    assert out.cls.key() == (T.RECIPROCAL, "generic")
    assert out.residual <= 1e-8


def test_indefinite_reducer_without_a_j_frame_raises():
    # both K-eigenvectors (1, +-0.1) are J-positive, so no frame with
    # P* J P = J exists; the reducer says so instead of handing on I
    V = np.array([[1.0, 1.0], [0.1, -0.1]], dtype=complex)
    K = V @ np.diag([1.0, 2.0]) @ np.linalg.inv(V)
    cls = family_of(T.INDEFINITE, "a_lt_d", a=1.0, d=2.0)
    with pytest.raises(pn.StabilizerSolveFailed, match="J-negative"):
        pn._reduce_indef_eigvec(np.eye(2, dtype=complex), K, cls)


def test_singular_reducer_frame_raises():
    cls = family_of(T.INDEFINITE, "a_lt_d", a=1.0, d=2.0)
    pn._require_frame(np.eye(2), cls)
    with pytest.raises(pn.StabilizerSolveFailed, match="singular"):
        pn._require_frame(np.array([[1.0, 2.0], [0.5, 1.0]]), cls)
