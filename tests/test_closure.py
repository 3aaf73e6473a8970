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
from pairorbit.closure import _beta_max, _sample_edge_instances
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


def brute_force_grid(a, b, d, theta, n=400):
    """Independent oracle: n x n grid over the constraint arc and the phase,
    sharpened by zooming sub-grids around the best cell."""
    ct = np.cos(theta)

    def sheet(xs, betas):
        den = 1.0 + ct * np.sin(2.0 * xs)
        rho = 1.0 / np.sqrt(den)
        R, Tt = rho * np.cos(xs), rho * np.sin(xs)
        r, t = np.sqrt(R), np.sqrt(Tt)
        return np.abs(a * np.outer(r * r, np.exp(1j * betas))
                      + 2 * b * (r * t)[:, None]
                      + d * np.outer(t * t, np.exp(-1j * betas)))

    xs = np.linspace(0.0, np.pi / 2.0, n)
    betas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    vals = sheet(xs, betas)
    best = float(np.max(vals))
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    cx, cb = xs[i], betas[j]
    hx, hb = xs[1] - xs[0], betas[1] - betas[0]
    for _ in range(6):
        sub_x = np.clip(np.linspace(cx - hx, cx + hx, 21), 0.0, np.pi / 2.0)
        sub_b = np.linspace(cb - hb, cb + hb, 21)
        sub = sheet(sub_x, sub_b)
        best = max(best, float(np.max(sub)))
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        cx, cb = sub_x[i], sub_b[j]
        hx, hb = hx / 10.0, hb / 10.0
    return best


def test_max_f_against_brute_force():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(0.0, 2.0, 2)
        d = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        theta = rng.uniform(0.0, 3.05)
        worst = max(worst, abs(max_f(a, b, d, theta)
                               - brute_force_grid(a, b, d, theta)))
    assert worst < 1e-4


@pytest.mark.parametrize("args", [
    (0.7, 1.1, 0.3 - 1j, 1.3, 0.0), (0.7, 1.1, 0.3 - 1j, 1.3, -1.0),
    (0.7, 1.1, 0.3 - 1j, 1.3, np.nan),
    (np.nan, 1.0, 1.0, 1.0, 1e-9), (1.0, np.nan, 1.0, 1.0, 1e-9),
    (1.0, 1.0, complex(np.nan, 0.0), 1.0, 1e-9),
    (np.inf, 1.0, 1.0, 1.0, 1e-9), (1.0, 1.0, complex(0.0, np.inf), 1.0, 1e-9),
])
def test_max_f_rejects_nonpositive_tol_and_nonfinite_input(args):
    with pytest.raises(ValueError):
        max_f(*args)


@pytest.mark.parametrize("tol", [1e-15, 1e-20, 5e-324])
def test_max_f_tol_below_float_spacing_terminates(tol):
    # the brackets cannot shrink below the spacing of xi; they stop there
    want = max_f(0.7, 1.1, 0.3 - 1j, 1.3, 1e-9)
    assert abs(max_f(0.7, 1.1, 0.3 - 1j, 1.3, tol) - want) < 1e-9


@pytest.mark.parametrize("b", [0.0, 1.0])
def test_max_f_subnormal_d(b):
    # Y = a R conj(d) T is subnormal on part of the grid
    for d in (4.3e-306j, 1e-310, 5e-324j):
        for theta in (0.0, 1.0):
            assert abs(max_f(1.0, b, d, theta)
                       - max_f(1.0, b, 0.0, theta)) < 1e-12


def _dense_beta_max(u, w, v, n=4000):
    """Reference for one row of _beta_max: a dense beta scan, then zooms."""
    def g(betas):
        return np.abs(u * np.exp(1j * betas) + w + v * np.exp(-1j * betas))

    betas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    vals = g(betas)
    c, hb = betas[np.argmax(vals)], betas[1] - betas[0]
    best = float(np.max(vals))
    for _ in range(8):
        sub = np.linspace(c - hb, c + hb, 41)
        vals = g(sub)
        best = max(best, float(np.max(vals)))
        c, hb = sub[np.argmax(vals)], hb / 10.0
    return best


def test_beta_max_mixed_rows_against_dense_scan():
    rows = [
        (0.7, 1.2, 0.3 - 1.1j),   # quartic
        (2.0, 0.1, -0.5 + 0.2j),  # quartic
        (0.4, 0.0, 1.0 + 1.0j),   # quartic with w = 0
        (0.0, 1.3, 0.6 - 0.8j),   # u = 0
        (1.5, 0.9, 0.0),          # v = 0
        (0.0, 0.0, -2.0j),        # u = w = 0
        (0.8, 0.0, 0.0),          # v = w = 0
        (0.0, 0.7, 0.0),          # u = v = 0
        (0.0, 0.0, 0.0),          # all zero
        (1.0, 0.5, 1e-310j),      # subnormal Y
        (1e-20, 1.0, 1.0),        # z^4 term below rounding: closed form
    ]
    u, w, v = (np.array(c) for c in zip(*rows))
    got = _beta_max(u, w, v.astype(complex))
    assert got.shape == (len(rows),)
    for row, g in zip(rows, got):
        ref = _dense_beta_max(*row)
        assert ref <= g + 1e-12 and g - ref < 1e-9, (row, g, ref)


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
