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


def test_beta_max_never_exceeds_dense_scan():
    # every value is f at a real beta, so it cannot pass the true maximum
    rows = [(0.7, 1.2, 0.3 - 1.1j), (2.0, 0.1, -0.5 + 0.2j),
            (0.4, 0.0, 1.0 + 1.0j), (0.0, 1.3, 0.6 - 0.8j), (1.5, 0.9, 0.0),
            (0.0, 0.0, -2.0j), (0.8, 0.0, 0.0), (0.0, 0.7, 0.0),
            (0.0, 0.0, 0.0), (1.0, 0.5, 1e-310j), (1e-20, 1.0, 1.0),
            (1.0, 1.0, -2.0), (1.0, 1.0, -2.0 + 1e-300j), (1.0, 0.3, 1.0)]
    u, w, v = (np.array(c) for c in zip(*rows))
    for row, g in zip(rows, _beta_max(u, w, v.astype(complex))):
        assert g - _dense_beta_max(*row) <= 1e-12, (row, g)


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


def _kernel_rows(n, seed):
    """Seeded (u, w, v) rows at scales 1e-8 to 1e4; a tenth each has u = 0,
    w = 0, v = 0, real v, negative real v, nearly negative real v,
    u = |v| (1 + 1e-10 noise) and u = |v|."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8.0, 4.0, n)
    u = scale * rng.uniform(0.0, 2.0, n)
    w = scale * rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    v = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    kind = rng.integers(0, 10, n)
    u[kind == 0] = 0.0
    w[kind == 1] = 0.0
    v[kind == 2] = 0.0
    v[kind == 3] = v[kind == 3].real
    v[kind == 4] = -np.abs(v[kind == 4].real)
    m = kind == 5
    v[m] = -np.abs(v[m]) * np.exp(1e-9j * rng.normal(size=m.sum()))
    m = kind == 6
    u[m] = np.abs(v[m]) * (1.0 + 1e-10 * rng.normal(size=m.sum()))
    m = kind == 7
    u[m] = np.abs(v[m])
    return u, w, v


def test_beta_max_matches_companion_oracle():
    u, w, v = _kernel_rows(100_000, seed=20)
    got, ref = _beta_max(u, w, v), _companion_beta_max(u, w, v)
    assert np.isfinite(got).all()
    rel = np.abs(got - ref) / np.maximum(ref, np.finfo(float).tiny)
    assert rel.max() <= 1e-13, rel.max()


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
