import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairorbit.closure import (
    b_rank,
    export_graph,
    max_f,
    necessary_conditions_ok,
    pair_edges,
    pair_path,
    pair_path_detail,
    psi1_path,
    psi2_path,
    validate_graph,
)
from pairorbit import closure
from pairorbit.closure import _sample_edge_instances, _sigma2
from pairorbit.congruence import StarClass
from pairorbit.congruence import StarTag as T
from pairorbit.families import (
    FAMILIES,
    family_of,
    representative,
    sample_params,
)


def test_psi2_examples():
    assert psi2_path(0, 2)
    assert not psi2_path(2, 1)
    assert psi2_path(1, 1)
    with pytest.raises(ValueError):
        psi2_path(3, 0)


def test_psi1_examples():
    assert psi1_path(StarClass(T.RANK1_SEMIDEF), StarClass(T.JORDAN))
    assert not psi1_path(StarClass(T.UNIMODULAR, theta=0.5),
                         StarClass(T.UNIMODULAR, theta=0.6))
    assert psi1_path(StarClass(T.UNIMODULAR, theta=0.5),
                     StarClass(T.UNIMODULAR, theta=0.5))
    assert psi1_path(StarClass(T.ZERO), StarClass(T.RANK1_SEMIDEF))
    assert psi1_path(StarClass(T.INDEFINITE), StarClass(T.JORDAN))
    assert not psi1_path(StarClass(T.INDEFINITE), StarClass(T.DEFINITE))
    assert not psi1_path(StarClass(T.DEFINITE),
                         StarClass(T.UNIMODULAR, theta=1.0))
    assert psi1_path(StarClass(T.ZERO), StarClass(T.RECIPROCAL, tau=0.3))


# ---------------------------------------------------------------------------
# max_f
# ---------------------------------------------------------------------------

def test_max_f_paper_anchors():
    assert abs(max_f(0.0, 0.0, 2.0, np.pi / 2) - 2.0) < 1e-6
    assert abs(max_f(3.0, 0.0, 0.0, np.pi / 3) - 3.0) < 1e-6
    assert abs(max_f(1.0, 0.0, 2.0, 0.0) - 2.0) < 1e-6


def test_max_f_antidiagonal_closed_form():
    # a = d = 0 gives M = b / cos(theta/2)
    for theta in (0.4, 1.2, 2.7):
        want = 1.3 / np.cos(theta / 2.0)
        assert abs(max_f(0.0, 1.3, 0.0, theta) - want) < 1e-7


def _bench_shaped_queries(n, seed):
    """(a, b, d, theta) drawn as the benchmark draws its max_f queries: a, b
    uniform on [0, 2], both parts of d uniform on [-2, 2], theta uniform on
    [0, 3.05]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b = rng.uniform(0.0, 2.0, 2)
        d = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        out.append((float(a), float(b), d, float(rng.uniform(0.0, 3.05))))
    return out


_SEEDED_MAXF = _bench_shaped_queries(300, seed=31)
# each of a, b and d zero at theta from 0 to within 1e-9 of pi, and the
# plateau a = d, b = 0, theta = 0, where f = a on the whole arc
_EDGE_MAXF = [q + (theta,)
              for theta in (0.0, 1e-9, np.pi / 2.0, 3.05, 3.14,
                            np.pi - 1e-6, np.pi - 1e-9)
              for q in [(0.7, 1.1, 0.3 - 1j), (0.0, 1.1, 0.3 - 1j),
                        (0.7, 0.0, 0.3 - 1j), (0.7, 1.1, 0.0)]] \
    + [(1.3, 0.0, 1.3, 0.0)]


@functools.lru_cache(maxsize=1024)
def _profile_max_f(a, b, d, theta, n=200):
    """Independent oracle for max_f at rounding level: the phase maximum of
    `_companion_beta_max` at each point of the arc, with the arc's
    rho^-2 = (cos xi + sin xi)^2 cos^2(theta / 2)
    + (cos xi - sin xi)^2 sin^2(theta / 2) (no cancellation at any theta),
    on an n-point xi grid, then zoomed 11 times by 10 around the best point.
    A 2-D grid over (xi, beta) cannot serve at this level: its zoom misses
    maxima within a cell of xi = pi / 2 by up to 2e-5, and near theta = pi
    its 1 + cos(theta) sin(2 xi) loses 5e-11 to cancellation.  This oracle
    in turn loses 1e-8 to the rounding of cos xi - sin xi at
    theta = pi - 1e-12, where `test_max_f_near_pi_closed_form` takes over."""
    c2, s2 = np.cos(theta / 2.0) ** 2, np.sin(theta / 2.0) ** 2

    def h(xi):
        c, s = np.cos(xi), np.sin(xi)
        den = (c + s) ** 2 * c2 + (c - s) ** 2 * s2
        R, T = c / np.sqrt(den), s / np.sqrt(den)
        return _companion_beta_max(a * R, 2.0 * b * np.sqrt(R * T), d * T)

    xs = np.linspace(0.0, np.pi / 2.0, n)
    vals = h(xs)
    best = float(np.max(vals))
    cx, hx = xs[np.argmax(vals)], xs[1] - xs[0]
    for _ in range(11):
        sub = np.clip(np.linspace(cx - hx, cx + hx, 21), 0.0, np.pi / 2.0)
        vals = h(sub)
        best = max(best, float(np.max(vals)))
        cx, hx = sub[np.argmax(vals)], hx / 10.0
    return best


def test_max_f_matches_profile_oracle():
    # the dual minimum meets the oracle's feasible maximum to rounding level
    for q in _SEEDED_MAXF + _EDGE_MAXF:
        got = max_f(*q)
        assert abs(got - _profile_max_f(*q)) <= 1e-12 * max(1.0, got), q


def test_max_f_is_an_upper_bound():
    # every dual value bounds M from above, and the oracle's values are f at
    # feasible points, so max_f falls below the oracle by rounding at most
    for q in _SEEDED_MAXF + _EDGE_MAXF:
        assert max_f(*q) >= _profile_max_f(*q) * (1.0 - 1e-14), q


def test_max_f_near_pi_closed_form():
    # a = b = 0 or b = d = 0 gives M = 3 / sin(theta) for theta >= pi / 2;
    # the infimum of the dual lies at an end of its interval there
    for theta in (np.pi / 2.0, 3.0, np.pi - 1e-9, np.pi - 1e-12,
                  np.nextafter(np.pi, 0.0)):
        want = 3.0 / np.sin(theta)
        for q in ((3.0, 0.0, 0.0), (0.0, 0.0, 3.0), (0.0, 0.0, -3.0j)):
            assert abs(max_f(*q, theta) - want) <= 1e-15 * want, (q, theta)


def test_max_f_evaluation_budget(monkeypatch):
    # the golden-section search stops at the float resolution of its
    # bracket, after 75 to 116 closed-form evaluations on these queries
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _sigma2(*args)

    monkeypatch.setattr(closure, "_sigma2", counted)
    for q in _SEEDED_MAXF + _EDGE_MAXF:
        calls.clear()
        max_f(*q)
        assert len(calls) <= 120, (q, len(calls))


@pytest.mark.parametrize("args", [
    (np.nan, 1.0, 1.0, 1.0), (1.0, np.nan, 1.0, 1.0),
    (1.0, 1.0, complex(np.nan, 0.0), 1.0),
    (np.inf, 1.0, 1.0, 1.0), (1.0, 1.0, complex(0.0, np.inf), 1.0),
])
def test_max_f_rejects_nonpositive_tol_and_nonfinite_input(args):
    with pytest.raises(ValueError):
        max_f(*args)


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_max_f_subnormal_d(b):
    # Y = a R conj(d) T is subnormal on part of the grid
    for d in (4.3e-306j, 1e-310, 5e-324j):
        for theta in (0.0, 1.0):
            assert abs(max_f(1.0, b, d, theta)
                       - max_f(1.0, b, 0.0, theta)) < 1e-12


def _companion_beta_max(u, w, v):
    """Reference kernel: the critical points z = e^{i beta} solve
    2 Y z^4 + w X z^3 - w conj(X) z - 2 conj(Y) = 0 with X = u + conj(v),
    Y = u conj(v), taken from one batched eigensolve of the companion
    matrices (closed form z^2 = conj(X)/X where the z^4 term is below
    rounding); the maximum runs over them and z = +-1, +-i."""
    u, w, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(w, float),
                                  np.asarray(v, complex))
    X = u + np.conj(v)
    Y = u * np.conj(v)
    aX, aY = np.abs(X), np.abs(Y)
    z = np.empty(u.shape + (8,), complex)
    z[...] = [1.0, -1.0, 1j, -1j, 1.0, 1.0, 1.0, 1.0]
    quartic = 2.0 * aY > np.finfo(float).eps * w * aX
    k = w[quartic] * aX[quartic] / (2.0 * aY[quartic])
    pX, pY = np.angle(X[quartic]), np.angle(Y[quartic])
    comp = np.zeros(k.shape + (4, 4), complex)
    comp[:, 0, 0] = -k * np.exp(1j * (pX - pY))
    comp[:, 0, 2] = k * np.exp(-1j * (pX + pY))
    comp[:, 0, 3] = np.exp(-2j * pY)
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    z[quartic, 4:] = np.linalg.eigvals(comp)
    square = ~quartic & (aX > 0)
    z[square, 4] = np.exp(-1j * np.angle(X[square]))
    z[square, 5] = -z[square, 4]
    r = np.abs(z)
    z = np.where(r > 1e-12, z / np.maximum(r, 1e-12), 1.0)
    return np.max(np.abs(u[..., None] * z + w[..., None] + v[..., None] / z),
                  axis=-1)


@pytest.mark.parametrize("lam", [2.0 ** 500, 2.0 ** -500, 1e155])
def test_max_f_is_homogeneous_at_extreme_scales(lam):
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b = rng.uniform(0.0, 2.0, 2)
        d = complex(*rng.uniform(-2.0, 2.0, 2))
        theta = rng.uniform(0.0, 3.05)
        want = lam * max_f(a, b, d, theta)
        got = max_f(lam * a, lam * b, lam * d, theta)
        assert abs(got - want) <= 1e-15 * want, (a, b, d, theta, got, want)


def test_max_f_beyond_float_range_raises():
    assert np.isfinite(max_f(1e155, 1e155, 1e155, 1.0))
    with pytest.raises(ValueError, match="float range"):
        max_f(1e308, 1e308, 1e308, 1.0)


_coef = st.floats(0.0, 2.0)
_dpart = st.floats(-2.0, 2.0)
_arc_points = st.lists(st.tuples(st.floats(0.0, 1.0),
                                 st.floats(0.0, 2.0 * np.pi)),
                       min_size=1, max_size=20)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_coef, _coef, _dpart, _dpart, st.floats(0.0, 3.05), _arc_points)
def test_max_f_bounds_f_on_constraint_arc(a, b, dre, dim, theta, points):
    """f at any feasible (r, t, beta) is at most max_f."""
    d = complex(dre, dim)
    M = max_f(a, b, d, theta)
    for s, beta in points:
        # (R, T) = lam (s, 1 - s) scaled onto R^2 + 2 R T cos(theta) + T^2 = 1
        lam = 1.0 / np.sqrt(s * s + 2.0 * s * (1.0 - s) * np.cos(theta)
                            + (1.0 - s) ** 2)
        r, t = np.sqrt(lam * s), np.sqrt(lam * (1.0 - s))
        f = abs(a * r * r * np.exp(1j * beta) + 2.0 * b * r * t
                + d * t * t * np.exp(-1j * beta))
        assert f <= M + 1e-9, (s, beta, f, M)


# ---------------------------------------------------------------------------
# pair_path
# ---------------------------------------------------------------------------

def test_pair_path_spec_examples():
    z0 = family_of(T.ZERO, "zero")
    assert pair_path(z0, family_of(T.DEFINITE, "a_lt_d", a=1.0, d=2.0))
    s0 = family_of(T.RANK1_SEMIDEF, "zero")
    assert not pair_path(s0, family_of(T.RANK1_SEMIDEF, "antidiag_1"))
    sa = family_of(T.RANK1_SEMIDEF, "a_plus_0", a=1.0)
    assert pair_path(sa, family_of(T.RECIPROCAL, "antidiag_b", tau=0.5, b=0.6))
    assert not pair_path(sa, family_of(T.RECIPROCAL, "antidiag_b",
                                       tau=0.5, b=1.0))


def test_pair_path_max_bound_condition():
    sa = family_of(T.RANK1_SEMIDEF, "a_plus_0", a=1.0)
    # target (1 (+) e^{i pi/2}, 0 (+) d): M = d at theta <= pi/2
    assert pair_path(sa, family_of(T.UNIMODULAR, "zero_plus_d",
                                   theta=np.pi / 2, d=1.5))
    assert not pair_path(sa, family_of(T.UNIMODULAR, "zero_plus_d",
                                       theta=np.pi / 2, d=0.5))
    # jordan 0 (+) d target follows a~ <= d
    assert pair_path(sa, family_of(T.JORDAN, "zero_plus_d", d=1.2))
    assert not pair_path(sa, family_of(T.JORDAN, "zero_plus_d", d=0.8))


def test_pair_path_trivial_and_same_family():
    c = family_of(T.UNIMODULAR, "antidiag_b", theta=1.0, b=0.5)
    assert pair_path(c, c)
    c2 = family_of(T.UNIMODULAR, "antidiag_b", theta=1.0, b=0.6)
    assert not pair_path(c, c2)


def test_pair_path_scalar_indefinite_scale_rigidity():
    # (1+0, a~+0) reaches (1 (+) -1, d I2) only for a~ >= d
    sa = family_of(T.RANK1_SEMIDEF, "a_plus_0", a=1.0)
    assert pair_path(sa, family_of(T.INDEFINITE, "d0_plus_d", d0=0.8, d=0.8))
    assert not pair_path(sa, family_of(T.INDEFINITE, "d0_plus_d",
                                       d0=1.5, d=1.5))
    assert pair_path(sa, family_of(T.INDEFINITE, "d0_plus_d", d0=0.0, d=1.5))
    s0 = family_of(T.RANK1_SEMIDEF, "zero")
    assert not pair_path(s0, family_of(T.INDEFINITE, "d0_plus_d",
                                       d0=1.0, d=1.0))


def test_pair_path_verdicts_have_conditions():
    v, text = pair_path_detail(family_of(T.ZERO, "rank1"),
                               family_of(T.ZERO, "full"))
    assert v == "true" and text
    v, text = pair_path_detail(family_of(T.ZERO, "full"),
                               family_of(T.ZERO, "rank1"))
    assert v == "false" and "rank" in text


def test_reachability_reflexive_and_transitive():
    # sample chains src -> mid -> dst from realized edge instances
    edges = pair_edges()
    rng = np.random.default_rng(0)
    pool = {}
    for (sk, dk), cond in edges.items():
        for src, dst in _sample_edge_instances(sk, dk, cond, 2, seed=5):
            pool.setdefault(sk, []).append((src, dst))
    checked = 0
    for sk, pairs in pool.items():
        for src, mid in pairs[:4]:
            for mid2, dst in pool.get(mid.key(), [])[:4]:
                if not mid.close_to(mid2, 1e-12):
                    continue
                if pair_path(src, mid) and pair_path(mid, dst):
                    checked += 1
                    assert pair_path(src, dst), f"{src} -> {mid} -> {dst}"
    assert checked >= 5


# ---------------------------------------------------------------------------
# validator and export
# ---------------------------------------------------------------------------

def test_validate_graph_clean():
    rep = validate_graph(samples_per_edge=4, seed=3)
    assert rep["violations"] == []
    assert rep["edges"] == 140
    assert rep["instances_checked"] > 500


def test_validator_flags_reversed_edge():
    # dimension must strictly increase, so a reversed edge is rejected
    src = family_of(T.DEFINITE, "a_lt_d", a=1.0, d=2.0)
    dst = family_of(T.RANK1_SEMIDEF, "zero")
    ok, reason = necessary_conditions_ok(src, dst)
    assert not ok


def test_validator_flags_p_violation():
    # inject an edge-shaped query with p != 0
    src = family_of(T.RECIPROCAL, "antidiag_b", tau=0.5, b=1.0)
    dst = family_of(T.RECIPROCAL, "generic", tau=0.5, phi=0.3, b=2.0, zeta=0j)
    ok, reason = necessary_conditions_ok(src, dst)
    assert not ok and "p =" in reason


def test_validator_flags_a_dimension_that_does_not_increase():
    # same A, B rank 1 to 1 and p = 0: only the dimension rule rejects
    src = family_of(T.UNIMODULAR, "zero_plus_d", theta=1.0, d=1.0)
    dst = family_of(T.UNIMODULAR, "a_plus_0", theta=1.0, a=1.0)
    assert necessary_conditions_ok(src, dst) == (
        False, "orbit dimension does not increase")


def test_b_rank_table():
    assert b_rank(family_of(T.ZERO, "zero")) == 0
    assert b_rank(family_of(T.RECIPROCAL, "one_plus_zeta", tau=0.5,
                            zeta=0j)) == 1
    assert b_rank(family_of(T.RECIPROCAL, "one_plus_zeta", tau=0.5,
                            zeta=1.0 + 0j)) == 2


def test_b_rank_field_matches_representatives():
    for spec in FAMILIES.values():
        for cls in sample_params(spec, n=3):
            s = np.linalg.svd(representative(cls).B.m, compute_uv=False)
            rank = int(np.sum(s > 1e-12 * max(1.0, s[0])))
            if spec.b_rank >= 0:
                assert spec.b_rank == rank, spec.key()
            assert b_rank(cls) == rank, cls


def test_export_graph_deterministic_and_counts():
    d1 = export_graph("psi2", "dot")
    d2 = export_graph("psi2", "dot")
    assert d1 == d2
    assert d1.count("->") == 2
    import json
    g = json.loads(export_graph("psi1", "json"))
    assert len(g["vertices"]) == 8
    gp = json.loads(export_graph("pair", "json"))
    assert len(gp["vertices"]) == 42
    assert len(gp["edges"]) == 140
    assert export_graph("pair", "json") == export_graph("pair", "json")


def test_export_graph_golden_file(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "psi2.dot"
    assert export_graph("psi2", "dot") == golden.read_text()
