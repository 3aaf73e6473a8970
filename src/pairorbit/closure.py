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

from .bounds import det_invariant_p
from .congruence import STAR_DIMS, StarClass, StarTag
from .families import FAMILIES, OrbitClass, representative, sample_params, star_of
from .matcore import max_norm

__all__ = [
    "EdgeCondition", "psi2_path", "psi1_path", "pair_path",
    "pair_path_detail", "max_f", "export_graph", "validate_graph",
    "pair_edges", "necessary_conditions_ok",
]

# relative tolerances of the vanishing determinant invariant p and of a
# vanishing B determinant
_PTOL = 1e-12
_RTOL = 1e-9


def b_rank(cls: OrbitClass) -> int:
    """B rank of the family member, decided from the parameters (which keep
    full precision even when the assembled matrix is badly scaled)."""
    r = FAMILIES[cls.key()].b_rank
    if r >= 0:
        return r
    p = {k: complex(v) for k, v in cls.params.items()}
    f = cls.b_form
    if f == "d0_plus_d":
        return 2 if abs(p["d0"]) > _RTOL * abs(p["d"]) else 1
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
    return 2 if abs(det) > _RTOL * scale else 1


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
# points per bracket and step when max_f zooms in on a maximum of h, and the
# number of local maxima of its scan that it zooms
_ZOOM_POINTS = 33
_PEAKS = 4


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
    point, at those two points and at beta = 0, pi, +-pi/2, where f is
    |w + (u + v)|, |w - (u + v)| and |w +- i (u - v)|, so every value is f at
    a real beta: an unconverged root costs a quadratic error, never an
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
    # e^{i beta} of the root's point and of the two t -> 0 points, as a
    # (3, ...) stack; beta = 0, pi, +-pi/2 are evaluated in closed form
    sg = np.divide(-Q.imag * m, e, out=np.zeros_like(e), where=minor)
    cg = np.sqrt(1.0 - sg * sg)
    z = np.stack([np.where(root, (-Q.real * p / t) - 1j * (Q.imag * m / (t + e)),
                           1.0),
                  cg + 1j * sg, -cg + 1j * sg]) * eih
    r = np.abs(z)
    z = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
    uv, iuv = u + v, 1j * (u - v)
    return np.max([*np.abs(u * z + w + v * np.conj(z)), np.abs(w + uv),
                   np.abs(w - uv), np.abs(w + iuv), np.abs(w - iuv)], axis=0)


def _arc_h(xi, a, b, d, theta):
    """h(xi), the beta-maximum of f at the point of the constraint arc with
    direction angle xi: (R, T) = (r^2, t^2) = rho (cos xi, sin xi) with
    rho^-2 = 1 + cos(theta) sin(2 xi).  Where that sum would cancel (the
    second term below -1/2, near xi = pi / 4 for theta near pi, where the
    arc's peak is narrow), it is evaluated as 2 cos^2(theta / 2)
    + 2 |cos(theta)| sin^2(xi - pi / 4), a sum of two positive terms."""
    ct = np.cos(theta)
    cs = ct * np.sin(2.0 * xi)
    den = np.where(cs > -0.5, 1.0 + cs,
                   2.0 * np.cos(theta / 2.0) ** 2
                   - 2.0 * ct * np.sin(xi - np.pi / 4.0) ** 2)
    rho = 1.0 / np.sqrt(den)
    R, T = rho * np.cos(xi), rho * np.sin(xi)
    return _beta_max(a * R, 2.0 * b * np.sqrt(R * T), d * T)


def _vertex(x0, x1, x2, f0, f1, f2):
    """Abscissa of the vertex of the parabola through (x0, f0), (x1, f1) and
    (x2, f2), where x0 <= x1 <= x2 and f1 is the largest value; x1 where the
    parabola is flat.  The vertex lies between the midpoints of the two
    cells, and it is clamped to [x0, x2] against rounding."""
    dl, dr, gl, gr = x1 - x0, x2 - x1, f1 - f0, f1 - f2
    den = dr * gl + dl * gr
    if not den > 0:
        return x1
    return min(max(x1 + (dr * dr * gl - dl * dl * gr) / (2.0 * den), x0), x2)


def _window(x, f, inside, tol):
    """(lo, hi), the part of the bracket [x[1], x[3]] that max_f samples
    next.  x[2] is the bracket's best point, x[1] and x[3] its nearest
    points, x[0] and x[4] the next-nearest, f their values; inside says
    whether the last step's best point fell inside its window."""
    if not inside:
        return x[1], x[3]
    v = _vertex(*x[1:4], *f[1:4])
    hw = max(abs(_vertex(*x[::2], *f[::2]) - v),
             (_ZOOM_POINTS - 1) * max(tol / 50.0, math.ulp(x[2])))
    return max(x[1], v - hw), min(x[3], v + hw)


def _around_best(X, F):
    """The best of the points (X, F) with its two nearest points on each
    side, as two lists of 5 ordered by x.  A repeated x counts once, with its
    largest value; where a side runs out, its last point repeats (the best
    point itself if the side has none)."""
    xs, fs = [], []
    for x, f in sorted(zip(X, F)):
        if xs and x == xs[-1]:
            fs[-1] = f
        else:
            xs.append(x)
            fs.append(f)
    j = max(range(len(fs)), key=fs.__getitem__)
    near = [min(max(k, 0), len(xs) - 1) for k in range(j - 2, j + 3)]
    return [xs[k] for k in near], [fs[k] for k in near]


def max_f(a: float, b: float, d: complex, theta: float,
          tol: float = 1e-9) -> float:
    """Global maximum of f(r,t,beta) = |a r^2 e^{i beta} + 2 b r t
    + d t^2 e^{-i beta}| subject to r^4 + 2 r^2 t^2 cos(theta) + t^4 = 1.

    f is homogeneous of degree 1 in (a, b, d), so they are divided by a
    power of two near their largest modulus, which is exact, and the result
    is multiplied back.  The feasible (R, T) = (r^2, t^2) arc is
    parametrized by the direction angle xi in [0, pi/2], and h(xi) is the
    exact inner beta-maximum (`_arc_h`).  h is evaluated on a 600-point xi
    grid in one batched call.  Each distinct local maximum of the grid, up
    to _PEAKS of them and largest first, is bracketed by its two grid
    neighbours, and the brackets are zoomed side by side.  Each step
    evaluates h once on _ZOOM_POINTS evenly spaced points of a window in
    every live bracket, then keeps the best point seen in the bracket and
    the two cells around it.

    The window is centred on the vertex of the parabola through the best
    point and its nearest neighbours.  Its half-width is the distance from
    there to the vertex through the next-nearest points.  At a smooth
    maximum h is locally quadratic (a kink of h, a maximum of smooth
    functions of xi, is a convex corner), and where h is cubic that
    distance is at least three times the first vertex's error.  The window
    is clipped to the bracket and never smaller than the size whose two
    cells come a fifth under tol / 10.  When the best point lands on a
    window edge inside the bracket, the maximum lies beyond the window, and
    the next step spreads its points over the whole new bracket (Brent's
    safeguard).  A bracket stops once its width in xi is at most tol / 10,
    or once it no longer shrinks in floating point.  Every value is h at a
    real xi, so the result never overestimates.  a, b and d must be finite,
    and tol must be positive; a maximum beyond the float range raises
    ValueError.
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

    n = 600
    xs = np.linspace(0.0, np.pi / 2.0, n)
    vals = _arc_h(xs, a, b, d, theta)
    best = np.max(vals)
    # a run of equal grid values is one local maximum, at its first point
    rise = np.concatenate(([True], vals[1:] > vals[:-1]))
    fall = np.concatenate((vals[:-1] >= vals[1:], [True]))
    peaks = np.flatnonzero(rise & fall)
    peaks = peaks[np.argsort(-vals[peaks], kind="stable")[:_PEAKS]]
    near = np.clip(peaks[:, None] + np.arange(-2, 3), 0, n - 1)
    live = [(x, f, True) for x, f in zip(xs[near].tolist(), vals[near].tolist())
            if x[3] - x[1] > tol / 10.0]
    frac = np.linspace(0.0, 1.0, _ZOOM_POINTS)
    while live:
        lo, hi = np.array([_window(*z, tol) for z in live]).T
        pts = np.minimum(lo[:, None] + (hi - lo)[:, None] * frac, hi[:, None])
        hv = _arc_h(pts, a, b, d, theta)
        best = max(best, np.max(hv))
        brackets, live = live, []
        for (x, f, _), p, q, l, u in zip(brackets, pts.tolist(), hv.tolist(),
                                         lo, hi):
            x2, f2 = _around_best(p + x, q + f)
            width = x2[3] - x2[1]
            if tol / 10.0 < width < x[3] - x[1]:
                live.append((x2, f2, l <= x2[1] and x2[3] <= u))
    try:
        return math.ldexp(float(best), k)
    except OverflowError:
        raise ValueError("the maximum exceeds the float range") from None


def _m_bound_for(dst: OrbitClass) -> float:
    """M for targets with A = 1 (+) e^{i theta} (theta = 0 meaning I_2).  The
    stabilizer's diagonal phases make B11 and B12 real and nonnegative and
    turn B22 by e^{i (arg B11 - 2 arg B12)}."""
    (b11, b12), (_, b22) = representative(dst).B.m
    turn = np.exp(1j * (np.angle(b11) - 2.0 * np.angle(b12)))
    theta = float(np.real(dst.params.get("theta", 0.0)))
    return max_f(abs(b11), abs(b12), b22 * turn, theta)


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


def necessary_conditions_ok(src: OrbitClass, dst: OrbitClass):
    """Necessary conditions for a closure path; returns (ok, reason)."""
    if not psi1_path(star_of(src), star_of(dst)):
        return False, "no Psi1 path between the A parts"
    if not psi2_path(b_rank(src), b_rank(dst)):
        return False, "B rank decreases"
    ps, pd = representative(src), representative(dst)
    p = det_invariant_p(ps, pd)
    scale = max(1.0, max_norm(ps.B.m) ** 2, max_norm(pd.B.m) ** 2)
    if abs(p) > _PTOL * scale:
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
                sp["a"] = _m_bound_for(dst) * float(rng.uniform(0.1, 0.999))
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
