"""Closure graphs for the three actions, with numeric edge conditions.

Vertices of the pair graph are the 42 normal-form families; an edge from a
family S to a family T (with a condition on both parameter sets) means that
the S-representative lies in the closure of the T-orbit, i.e. arbitrarily
small perturbations of the S form meet T's orbit.  Every positive edge is
realized by an explicit verified witness curve in the witness module, and
every declared edge passes the necessary conditions (A-part reachability,
monotone B rank, vanishing determinant invariant p, strictly increasing
orbit dimension) checked by the validator below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .congruence import STAR_DIMS, StarClass, StarTag
from .families import FAMILIES, OrbitClass, representative, star_of
from .matcore import max_norm

__all__ = [
    "EdgeCondition", "psi2_path", "psi1_path", "pair_path",
    "pair_path_detail", "max_f", "export_graph", "validate_graph",
    "pair_edges", "necessary_conditions_ok",
]

_PTOL = 1e-12


def b_rank(cls: OrbitClass, rtol: float = 1e-9) -> int:
    """B rank of the family member, decided from the parameters (which keep
    full precision even when the assembled matrix is badly scaled)."""
    r = FAMILIES[cls.key()].b_rank
    if r >= 0:
        return r
    p = {k: complex(v) for k, v in cls.params.items()}
    f = cls.b_form
    if f == "d0_plus_d":
        return 2 if abs(p["d0"]) > rtol * abs(p["d"]) else 1
    if f == "zeta_b_1":
        det = p["zeta"] - p["b"] ** 2
        scale = max(1.0, abs(p["zeta"]), abs(p["b"]) ** 2)
    elif f == "one_plus_zeta":
        det = p["zeta"]
        scale = max(1.0, abs(p["zeta"]))
    elif f == "a_plus_zeta":
        det = p["a"] * p["zeta"]
        scale = max(1.0, abs(p["a"] * p["zeta"]), abs(p["a"]))
    elif f == "generic" and cls.a_family == StarTag.UNIMODULAR:
        det = p["a"] * p["d"] - (p["r"] * np.exp(1j * p["phi"].real)) ** 2
        scale = max(1.0, abs(p["a"] * p["d"]), abs(p["r"]) ** 2)
    elif f == "generic" and cls.a_family == StarTag.RECIPROCAL:
        det = np.exp(1j * p["phi"].real) * p["zeta"] - p["b"] ** 2
        scale = max(1.0, abs(p["zeta"]), abs(p["b"]) ** 2)
    else:  # pragma: no cover
        s = np.linalg.svd(representative(cls).B.m, compute_uv=False)
        return int(np.sum(s > 1e-12 * max(1.0, s[0])))
    return 2 if abs(det) > rtol * scale else 1


# ---------------------------------------------------------------------------
# Psi_2 (T-congruence) and Psi_1 graphs
# ---------------------------------------------------------------------------

def psi2_path(rank_src: int, rank_dst: int) -> bool:
    """0_2 -> 1+0 -> I_2: reachable iff the rank does not decrease."""
    if rank_src not in (0, 1, 2) or rank_dst not in (0, 1, 2):
        raise ValueError("ranks must be 0, 1 or 2")
    return rank_src <= rank_dst


# nontrivial arrows of the Psi_1 closure graph (plus transitivity)
_PSI1_EDGES = {
    StarTag.ZERO: {StarTag.RANK1_SEMIDEF},
    StarTag.RANK1_SEMIDEF: {StarTag.RANK1_NILPOTENT, StarTag.DEFINITE,
                            StarTag.INDEFINITE, StarTag.JORDAN,
                            StarTag.UNIMODULAR, StarTag.RECIPROCAL},
    StarTag.INDEFINITE: {StarTag.JORDAN},
}


def _psi1_reach(tag: str) -> set:
    seen = set()
    todo = [tag]
    while todo:
        t = todo.pop()
        for nxt in _PSI1_EDGES.get(t, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def psi1_path(src: StarClass, dst: StarClass) -> bool:
    """Edge relation of the Psi_1 closure graph with its transitive closure.

    Continuous-parameter vertices reach only their own parameter value
    among same-family targets.
    """
    if src.tag == dst.tag:
        if src.tag == StarTag.UNIMODULAR:
            return abs(src.theta - dst.theta) <= 1e-12
        if src.tag == StarTag.RECIPROCAL:
            return abs(src.tau - dst.tau) <= 1e-12
        return True
    return dst.tag in _psi1_reach(src.tag)


# ---------------------------------------------------------------------------
# the constrained maximum M of |a r^2 e^{i b} + 2 b r t + d t^2 e^{-i b}|
# ---------------------------------------------------------------------------

# Newton steps allowed for the farthest-point multiplier in _beta_max (on
# seeded rows at scales 1e-8 to 1e4 the value of f settles after 6), and the
# relative step below which the iteration has reached rounding
_NEWTON_STEPS = 10
_STEP_TOL = 4.0 * np.finfo(float).eps
# points per bracket and step when max_f zooms in on a maximum of h
_ZOOM_POINTS = 33


def _beta_max(u, w, v):
    """Row-wise max over beta of |u e^{i beta} + w + v e^{-i beta}|.

    u, w >= 0 are real arrays and v a complex array, all of one shape.  With
    s = |v|, e^{2ih} = v / s and gamma = beta - h, the modulus is |E(gamma) - Q|,
    the distance from Q = -w e^{-ih} to the point E(gamma) = (u + s) cos gamma
    + i (u - s) sin gamma of an ellipse; e^{ih} = sqrt(v) / sqrt(s) is exact
    for real v.  The farthest point is cos gamma = -Re Q (u + s) / t,
    sin gamma = -Im Q (u - s) / (t + e), where e = 4 u s and t > 0 solves
    S(t) = (A / t)^2 + (B / (t + e))^2 = 1 with A = |Re Q| (u + s) and
    B = |Im Q| |u - s|.  S falls from infinity to 0 on t > 0, so the root
    exists when A > 0 or B > e, and it is at least max(A, B - e).  Newton's
    method on 1 / S - 1 starts there and stops once its step is below
    rounding, or after _NEWTON_STEPS steps.  When B < e, the limits t -> 0,
    sin gamma = -Im Q (u - s) / e, are the farthest points for Q on the
    minor axis (A = 0).  The maximum runs over f evaluated at the root's
    point, at those two points and at beta = 0, pi, +-pi/2, so every value is
    f at a real beta: an unconverged root costs a quadratic error, never an
    overestimate.
    """
    u, w, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(w, float),
                                  np.asarray(v, complex))
    s = np.abs(v)
    pos = s > 0
    eih = np.where(pos, np.sqrt(v) / np.sqrt(np.where(pos, s, 1.0)), 1.0)
    Q = -w * np.conj(eih)
    p, m, e = u + s, u - s, 4.0 * u * s
    A, B = np.abs(Q.real) * p, np.abs(Q.imag * m)
    root, minor = (A > 0) | (B > e), B < e
    # rows without a root solve the stand-in (1 / t)^2 = 1 and are not used
    A, B = np.where(root, A, 1.0), np.where(root, B, 0.0)
    t = np.maximum(A, B - e)
    for _ in range(_NEWTON_STEPS):
        # S = a2 + b2 and t S'(t) = -2 (a2 + b2 t / (t + e)), kept as ratios
        # near 1 so that no power of t under- or overflows
        te = t + e
        a2, b2 = (A / t) ** 2, (B / te) ** 2
        S = a2 + b2
        step = t * S * (S - 1.0) / (2.0 * (a2 + b2 * (t / te)))
        t = t + step
        if np.all(np.abs(step) <= _STEP_TOL * t):
            break
    # e^{i gamma} of the root's point and of the two t -> 0 points
    sg = np.divide(-Q.imag * m, e, out=np.zeros_like(e), where=minor)
    cg = np.sqrt(1.0 - sg * sg)
    z = np.empty(u.shape + (7,), complex)
    z[..., 0] = np.where(root, (-Q.real * p / t) - 1j * (Q.imag * m / (t + e)),
                         1.0)
    z[..., 1] = cg + 1j * sg
    z[..., 2] = -cg + 1j * sg
    z[..., :3] *= eih[..., None]
    z[..., 3:] = [1.0, -1.0, 1j, -1j]
    r = np.abs(z)
    z = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
    return np.max(np.abs(u[..., None] * z + w[..., None]
                         + v[..., None] * np.conj(z)), axis=-1)


def max_f(a: float, b: float, d: complex, theta: float,
          tol: float = 1e-9) -> float:
    """Global maximum of f(r,t,beta) = |a r^2 e^{i beta} + 2 b r t
    + d t^2 e^{-i beta}| subject to r^4 + 2 r^2 t^2 cos(theta) + t^4 = 1.

    f is homogeneous of degree 1 in (a, b, d), so they are divided by a
    power of two near their largest modulus, which is exact, and the result
    is multiplied back.  The feasible (R, T) = (r^2, t^2) arc is
    parametrized by the direction angle xi in [0, pi/2], and h(xi) is the
    exact inner beta-maximum (`_beta_max`).  h is evaluated on a 600-point
    xi grid in one batched call.  The brackets around its 4 largest grid
    values are then zoomed side by side: each step evaluates h once on
    _ZOOM_POINTS evenly spaced points of every live bracket and keeps the
    two cells around each bracket's best point.  A bracket stops once its
    width in xi is at most tol / 10, or once it no longer shrinks in
    floating point.  a, b and d must be finite, and tol must be positive;
    a maximum beyond the float range raises ValueError.
    """
    d = complex(d)
    if not np.all(np.isfinite([a, b, d])):
        raise ValueError("a, b and d must be finite")
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    if not (0.0 <= theta < np.pi):
        raise ValueError("theta must lie in [0, pi)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    k = math.frexp(max(a, b, abs(d.real), abs(d.imag)))[1]
    a, b = math.ldexp(a, -k), math.ldexp(b, -k)
    d = complex(math.ldexp(d.real, -k), math.ldexp(d.imag, -k))
    ct = np.cos(theta)

    def h(xi):
        den = 1.0 + ct * np.sin(2.0 * xi)
        rho = 1.0 / np.sqrt(den)
        R, T = rho * np.cos(xi), rho * np.sin(xi)
        return _beta_max(a * R, 2.0 * b * np.sqrt(R * T), d * T)

    n = 600
    xs = np.linspace(0.0, np.pi / 2.0, n)
    vals = h(xs)
    best = np.max(vals)
    top = np.argsort(vals)[::-1][:4]
    lo = xs[np.maximum(top - 1, 0)]
    hi = xs[np.minimum(top + 1, n - 1)]
    frac = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    live = hi - lo > tol / 10.0
    while live.any():
        i = np.flatnonzero(live)
        width = hi[i] - lo[i]
        pts = np.minimum(lo[i, None] + width[:, None] * frac, hi[i, None])
        hv = h(pts)
        best = max(best, np.max(hv))
        j = np.argmax(hv, axis=1)
        rows = np.arange(len(i))
        lo[i] = pts[rows, np.maximum(j - 1, 0)]
        hi[i] = pts[rows, np.minimum(j + 1, _ZOOM_POINTS - 1)]
        shrunk = hi[i] - lo[i]
        live[i] = (shrunk > tol / 10.0) & (shrunk < width)
    try:
        return math.ldexp(float(best), k)
    except OverflowError:
        raise ValueError("the maximum exceeds the float range") from None


def _m_bound_for(dst: OrbitClass) -> float:
    """M for targets with A = 1 (+) e^{i theta} (theta = 0 meaning I_2)."""
    p = dst.params
    f = dst.b_form
    if dst.a_family == StarTag.DEFINITE:
        theta = 0.0
        if f == "zero":
            return 0.0
        if f == "d0_plus_d":
            return max_f(abs(p["d0"]), 0.0, p["d"], theta)
        return max_f(float(np.real(p["a"])), 0.0, p["d"], theta)
    theta = float(np.real(p["theta"]))
    if f == "zero":
        return 0.0
    if f == "a_plus_0":
        return max_f(float(np.real(p["a"])), 0.0, 0.0, theta)
    if f == "zero_plus_d":
        return max_f(0.0, 0.0, p["d"], theta)
    if f == "antidiag_b":
        return max_f(0.0, float(np.real(p["b"])), 0.0, theta)
    if f == "a_b_0":
        return max_f(float(np.real(p["a"])), float(np.real(p["b"])), 0.0, theta)
    if f == "zero_b_d":
        return max_f(0.0, float(np.real(p["b"])), p["d"], theta)
    if f == "generic":
        # complex off-diagonal r e^{i phi} folds into a rotated d
        phi = float(np.real(p["phi"]))
        d_eff = complex(p["d"]) * np.exp(-2j * phi)
        return max_f(float(np.real(p["a"])), float(np.real(p["r"])), d_eff, theta)
    raise ValueError(f)


# ---------------------------------------------------------------------------
# pair closure graph: positive edges with conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeCondition:
    """Evaluable edge predicate between two parameterized families."""

    kind: str          # always | param_eq | interval | max_bound
    text: str
    fn: object = None  # callable(src_params, dst_params) -> bool

    def evaluate(self, src: OrbitClass, dst: OrbitClass) -> bool:
        if self.kind == "always":
            return True
        return bool(self.fn(src, dst))


_ALWAYS = EdgeCondition("always", "always")


def _eq(x, y, tol=1e-9):
    return abs(complex(x) - complex(y)) <= tol


def _cond(kind, text, fn):
    return EdgeCondition(kind, text, fn)


def _build_pair_edges():
    Z = StarTag.ZERO
    S = StarTag.RANK1_SEMIDEF
    N = StarTag.RANK1_NILPOTENT
    D = StarTag.DEFINITE
    E = StarTag.INDEFINITE
    U = StarTag.UNIMODULAR
    R = StarTag.RECIPROCAL
    J = StarTag.JORDAN
    edges = {}

    def add(src, dst, cond=_ALWAYS):
        edges[(src, dst)] = cond

    all_keys = list(FAMILIES)
    z0 = (Z, "zero")
    for k in all_keys:
        if k != z0:
            add(z0, k)

    # --- source (0_2, 1+0) ---
    z1 = (Z, "rank1")
    for k in [(Z, "full"), (S, "zero_plus_1"), (S, "antidiag_1"), (S, "a_plus_1"),
              (N, "one_plus_0"), (N, "zero_plus_1"), (N, "a_plus_1"),
              (N, "zeta_b_1"), (N, "one_b_0"),
              (E, "d0_plus_d"), (E, "antidiag_b"), (E, "a_lt_d"),
              (E, "h_one_plus_0"), (E, "h_zero_b_1"), (E, "h_one_plus_de"),
              (J, "antidiag_b"), (J, "a_plus_zeta"),
              (R, "one_plus_zeta"), (R, "zero_plus_1"), (R, "generic"),
              (R, "zero_b_eiphi")]:
        add(z1, k)

    add((Z, "full"), (S, "antidiag_1"))

    # --- source (1+0, 0_2) ---
    s0 = (S, "zero")
    for k in [(S, "zero_plus_1"), (S, "a_plus_1"),
              (N, "zero"), (N, "one_plus_0"), (N, "zero_plus_1"),
              (N, "a_plus_1"), (N, "zeta_b_1"), (N, "one_b_0"),
              (D, "zero"), (D, "d0_plus_d"), (D, "a_lt_d"),
              (E, "zero"), (E, "antidiag_b"), (E, "a_lt_d"),
              (E, "h_one_plus_0"), (E, "h_zero_b_1"), (E, "h_one_plus_de"),
              (U, "zero"), (U, "a_plus_0"), (U, "zero_plus_d"), (U, "antidiag_b"),
              (U, "a_b_0"), (U, "zero_b_d"), (U, "generic"),
              (R, "zero"), (R, "one_plus_zeta"), (R, "zero_plus_1"),
              (R, "generic"), (R, "zero_b_eiphi"),
              (J, "zero"), (J, "zero_plus_d"), (J, "antidiag_b"),
              (J, "a_plus_zeta")]:
        add(s0, k)
    # the scalar dI2 form is scale-rigid on the indefinite side: reaching it
    # from (1+0, a~+0) needs a~ >= d, so a~ = 0 only reaches d0 = 0
    add(s0, (E, "d0_plus_d"),
        _cond("param_eq", "d0 = 0",
              lambda s, t: _eq(t.params["d0"], 0.0)))

    # --- source (1+0, a~ + 0) ---
    sa = (S, "a_plus_0")

    def atil(src):
        return float(np.real(src.params["a"]))

    for k in [(S, "zero_plus_1"), (S, "a_plus_1"),
              (N, "one_plus_0"), (N, "zero_plus_1"), (N, "a_plus_1"),
              (N, "zeta_b_1"), (N, "one_b_0"),
              (E, "antidiag_b"), (E, "a_lt_d"),
              (E, "h_one_plus_0"), (E, "h_zero_b_1"), (E, "h_one_plus_de"),
              (J, "antidiag_b"), (J, "a_plus_zeta"),
              (R, "one_plus_zeta"), (R, "zero_plus_1"), (R, "generic"),
              (R, "zero_b_eiphi")]:
        add(sa, k)
    add(sa, (E, "d0_plus_d"),
        _cond("param_eq", "d0 = 0, or a~ >= d",
              lambda s, t: _eq(t.params["d0"], 0.0)
              or atil(s) >= float(np.real(t.params["d"])) - 1e-12))
    add(sa, (N, "antidiag_b"),
        _cond("param_eq", "a~ = 2b",
              lambda s, t: _eq(atil(s), 2.0 * np.real(t.params["b"]), 1e-9)))
    add(sa, (R, "antidiag_b"),
        _cond("interval", "a~ in [2b/(1+tau), 2b/(1-tau)]",
              lambda s, t: _interval_ok(atil(s), t)))
    add(sa, (J, "zero_plus_d"),
        _cond("max_bound", "a~ <= d",
              lambda s, t: atil(s) <= float(np.real(t.params["d"])) + 1e-12))
    for k in [(D, "d0_plus_d"), (D, "a_lt_d"),
              (U, "a_plus_0"), (U, "zero_plus_d"), (U, "antidiag_b"),
              (U, "a_b_0"), (U, "zero_b_d"), (U, "generic")]:
        add(sa, k,
            _cond("max_bound", "a~ <= M(B, theta)",
                  lambda s, t: atil(s) <= _m_bound_for(t) + 1e-9))

    # --- same-A internal edges ---
    add((N, "zero"), (N, "one_plus_0"))
    add((N, "zero"), (N, "zero_plus_1"))
    add((N, "antidiag_b"), (N, "one_b_0"),
        _cond("param_eq", "b' = b",
              lambda s, t: _eq(s.params["b"], t.params["b"])))
    add((N, "antidiag_b"), (N, "zeta_b_1"),
        _cond("param_eq", "b' = b, zeta = 0",
              lambda s, t: _eq(s.params["b"], t.params["b"])
              and _eq(t.params["zeta"], 0.0)))
    add((R, "zero"), (R, "one_plus_zeta"),
        _cond("param_eq", "same tau, zeta = 0",
              lambda s, t: _eq(s.params["tau"], t.params["tau"])
              and _eq(t.params["zeta"], 0.0)))
    add((R, "zero"), (R, "zero_plus_1"),
        _cond("param_eq", "same tau",
              lambda s, t: _eq(s.params["tau"], t.params["tau"])))
    add((R, "antidiag_b"), (R, "generic"),
        _cond("param_eq", "same tau, b' = b, zeta = 0",
              lambda s, t: _eq(s.params["tau"], t.params["tau"])
              and _eq(s.params["b"], t.params["b"])
              and _eq(t.params["zeta"], 0.0)))
    add((R, "antidiag_b"), (R, "zero_b_eiphi"),
        _cond("param_eq", "same tau, b' = b",
              lambda s, t: _eq(s.params["tau"], t.params["tau"])
              and _eq(s.params["b"], t.params["b"])))

    # --- indefinite sources ---
    add((E, "zero"), (J, "zero"))
    add((E, "zero"), (J, "zero_plus_d"))
    add((E, "zero"), (E, "h_one_plus_0"))
    add((E, "d0_plus_d"), (J, "antidiag_b"),
        _cond("param_eq", "b = d = d0",
              lambda s, t: _eq(s.params["d0"], s.params["d"])
              and _eq(t.params["b"], s.params["d"])))
    add((E, "d0_plus_d"), (E, "h_zero_b_1"),
        _cond("param_eq", "b = d = d0 = 1",
              lambda s, t: _eq(s.params["d0"], s.params["d"])
              and _eq(s.params["d"], 1.0) and _eq(t.params["b"], 1.0)))
    return edges


def _interval_ok(atil, t):
    tau = float(np.real(t.params["tau"]))
    b = float(np.real(t.params["b"]))
    lo, hi = 2.0 * b / (1.0 + tau), 2.0 * b / (1.0 - tau)
    return lo - 1e-12 <= atil <= hi + 1e-12


_PAIR_EDGES = _build_pair_edges()


def pair_edges():
    """Family-level edge map: (src_key, dst_key) -> EdgeCondition."""
    return dict(_PAIR_EDGES)


def det_p_of_classes(src: OrbitClass, dst: OrbitClass) -> float:
    ps, pd = representative(src), representative(dst)
    return abs(np.linalg.det(ps.A.m) * np.linalg.det(pd.B.m)) - \
        abs(np.linalg.det(ps.B.m) * np.linalg.det(pd.A.m))


def necessary_conditions_ok(src: OrbitClass, dst: OrbitClass,
                            ptol: float = _PTOL):
    """Necessary conditions for a closure path; returns (ok, reason)."""
    if not psi1_path(star_of(src), star_of(dst)):
        return False, "no Psi1 path between the A parts"
    if not psi2_path(b_rank(src), b_rank(dst)):
        return False, "B rank decreases"
    p = det_p_of_classes(src, dst)
    scale = max(1.0, max_norm(representative(src).B.m) ** 2,
                max_norm(representative(dst).B.m) ** 2)
    if abs(p) > ptol * scale:
        return False, f"determinant invariant p = {p:.3e} != 0"
    if dst.dim <= src.dim:
        return False, "orbit dimension does not increase"
    return True, "necessary conditions hold"


def pair_path_detail(src: OrbitClass, dst: OrbitClass):
    """Full evaluation: returns (verdict, explanation) with verdict one of
    'true' or 'false'."""
    if src.key() == dst.key():
        same = src.close_to(dst, 1e-9)
        return ("true", "trivial path (same orbit)") if same else \
            ("false", "same family, different parameters (equal dimensions)")
    ok, reason = necessary_conditions_ok(src, dst)
    if not ok:
        return "false", reason
    cond = _PAIR_EDGES.get((src.key(), dst.key()))
    if cond is None:
        return "false", "no path (case analysis of the closure graph)"
    if cond.evaluate(src, dst):
        return "true", cond.text
    return "false", f"edge condition fails: {cond.text}"


def pair_path(src: OrbitClass, dst: OrbitClass) -> bool:
    verdict, _ = pair_path_detail(src, dst)
    return verdict == "true"


# ---------------------------------------------------------------------------
# edge sampling (shared by the validator and the witness tests)
# ---------------------------------------------------------------------------

def _sample_edge_instances(src_key, dst_key, cond, n, seed=0):
    """Parameter draws for src/dst satisfying the edge condition."""
    from .families import sample_params
    rng = np.random.default_rng(seed)
    sspec, dspec = FAMILIES[src_key], FAMILIES[dst_key]
    out = []
    guard = 0
    while len(out) < n and guard < 50 * n + 200:
        guard += 1
        i = guard
        dst = sample_params(dspec, n=1, seed=seed + 7919 * i)[0]
        src = sample_params(sspec, n=1, seed=seed + 104729 * i)[0]
        sp, dp = dict(src.params), dict(dst.params)
        # tie parameters so the condition holds
        if cond.kind != "always":
            t = cond.text
            if "same tau" in t:
                sp["tau"] = dp["tau"]
            if "b' = b" in t and "b" in sp and "b" in dp:
                dp["b"] = sp["b"]
            if "zeta = 0" in t and "zeta" in dp:
                dp["zeta"] = 0j
            if "b = d = d0 = 1" in t:
                sp["d0"] = sp["d"] = 1.0
                dp["b"] = 1.0
            elif "b = d = d0" in t:
                sp["d0"] = sp["d"]
                dp["b"] = sp["d"]
            if t == "d0 = 0":
                dp["d0"] = 0.0
            if t == "d0 = 0, or a~ >= d":
                if i % 2 == 0:
                    dp["d0"] = 0.0
                else:
                    dp["d0"] = dp["d"]
                    sp["a"] = float(np.real(dp["d"])) * float(rng.uniform(1.0, 2.0))
            if t == "a~ = 2b":
                sp["a"] = 2.0 * float(np.real(dp["b"]))
            if cond.kind == "interval":
                tau = float(np.real(dp["tau"]))
                b = float(np.real(dp["b"]))
                lo, hi = 2 * b / (1 + tau), 2 * b / (1 - tau)
                sp["a"] = float(rng.uniform(lo, min(hi, lo * 4.0)))
            if t == "a~ <= d":
                sp["a"] = float(np.real(dp["d"])) * float(rng.uniform(0.2, 1.0))
            if t == "a~ <= M(B, theta)":
                try:
                    dst_try = OrbitClass(dst.a_family, dst.b_form, dp)
                except ValueError:
                    continue
                M = _m_bound_for(dst_try)
                if M <= 0:
                    continue
                sp["a"] = M * float(rng.uniform(0.1, 0.999))
        try:
            out.append((OrbitClass(src.a_family, src.b_form, sp),
                        OrbitClass(dst.a_family, dst.b_form, dp)))
        except ValueError:
            continue
    return out


def validate_graph(samples_per_edge: int = 20, seed: int = 0) -> dict:
    """Check every declared pair-graph edge against the necessary conditions.

    For each edge, parameters are sampled consistently with the edge
    condition and the Psi1-path, B-rank, p = 0 and strict-dimension checks
    are evaluated; the report lists violations (expected: none).
    """
    violations = []
    checked = 0
    for (sk, dk), cond in sorted(_PAIR_EDGES.items()):
        for src, dst in _sample_edge_instances(sk, dk, cond,
                                               samples_per_edge, seed):
            checked += 1
            ok, reason = necessary_conditions_ok(src, dst)
            if not ok:
                violations.append({"src": str(src), "dst": str(dst),
                                   "reason": reason})
    return {"edges": len(_PAIR_EDGES), "instances_checked": checked,
            "violations": violations}


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _vertex_id(key):
    return f"{key[0]}|{key[1]}"


def export_graph(which: str, fmt: str = "dot") -> str:
    """Deterministic DOT/JSON serialization of one of the three graphs."""
    if which == "psi2":
        nodes = [("0_2", 0), ("1+0", 2), ("I_2", 3)]
        edges = [("0_2", "1+0", "always"), ("1+0", "I_2", "always")]
    elif which == "psi1":
        nodes = sorted((t, STAR_DIMS[t]) for t in StarTag.ALL)
        edges = sorted((s, d, "always")
                       for s, nxt in _PSI1_EDGES.items() for d in nxt)
    elif which == "pair":
        nodes = sorted((_vertex_id(k), f.dim) for k, f in FAMILIES.items())
        edges = sorted((_vertex_id(s), _vertex_id(d), c.text)
                       for (s, d), c in _PAIR_EDGES.items())
    else:
        raise ValueError("which must be psi1, psi2 or pair")
    if fmt == "json":
        return json.dumps({"schema": "pairorbit-graph/1", "graph": which,
                           "vertices": [{"id": n, "dim": d} for n, d in nodes],
                           "edges": [{"src": s, "dst": d, "condition": c}
                                     for s, d, c in edges]},
                          indent=2, sort_keys=True)
    lines = [f'digraph "{which}" {{']
    for n, d in nodes:
        lines.append(f'  "{n}" [label="{n}\\ndim {d}"];')
    for s, d, c in edges:
        attr = "" if c == "always" else f' [label="{c}"]'
        lines.append(f'  "{s}" -> "{d}"{attr};')
    lines.append("}")
    return "\n".join(lines)
