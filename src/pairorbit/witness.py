"""Explicit closure-path witness curves, convergence verification, and the
Monte-Carlo perturbation laboratory.

A witness for an edge src -> dst is a curve s -> (c(s), P(s)) with
act_pair(curve(s), representative(dst)) -> representative(src) as s -> 0.
The catalog combines hand-derived closed-form curves (a few corrected
where the received variants fail numerically; those variants are kept in
TRIAGED) with systematically constructed curves:
for a source (1+0, a~+0) the first column of P solves the target's two
stabilizer equations and the second column shrinks with s, and similarly
for sources (0_2, 1+0) with an A-isotropic first column.  Both first
columns are a point of CP^1 and a scale found in closed form or by a scan
and a bisection, so building the catalog runs no optimiser.  Every curve is
reparametrized s -> s^k so that the standard sweep reaches 1e-7.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import pairnf
from .bounds import det_invariant_p
from .closure import (
    _sample_edge_instances,
    b_rank,
    pair_edges,
    psi1_path,
)
from .congruence import StarTag
from .families import FAMILIES, OrbitClass, representative, sample_params, star_of
from .matcore import (
    Complex2x2,
    GroupElement,
    MatrixPair,
    PairOrbitError,
    Sym2x2,
    compose,
    group_inverse,
    max_norm,
    raw_act_pair,
    raw_pair_distance,
)
# no longer called here, but the benchmark's tracer (bench/tracing.py)
# wraps witness.least_squares; the binding goes when that tracer stops
from .matcore import least_squares  # noqa: F401
from .pairnf import _QJH, _gel

__all__ = ["WitnessFamily", "ConvergenceReport", "DivergenceDetected",
           "PerturbReport", "witness_catalog", "verify_witness",
           "perturb_experiment", "TRIAGED", "reachable_with_slack"]

Z = StarTag.ZERO
S = StarTag.RANK1_SEMIDEF
N = StarTag.RANK1_NILPOTENT
D = StarTag.DEFINITE
E = StarTag.INDEFINITE
U = StarTag.UNIMODULAR
R = StarTag.RECIPROCAL
J = StarTag.JORDAN

_G_JH = GroupElement(1.0, _QJH)  # maps diag(1,-1)-pairs to [[0,1],[1,0]]-pairs


class DivergenceDetected(Exception):
    pass


@dataclass(frozen=True)
class WitnessFamily:
    name: str
    src: OrbitClass
    dst: OrbitClass
    curve: object            # callable s -> GroupElement
    citation: str

    def __str__(self):
        return f"{self.name}: {self.src} -> {self.dst}"


@dataclass(frozen=True)
class ConvergenceReport:
    witness: WitnessFamily
    s_values: tuple
    residuals: tuple
    monotone: bool
    final_residual: float
    passed: bool


def _sweep_residual(curve, s, rep_dst: MatrixPair, rep_src: MatrixPair) -> float:
    """pair_distance(act_pair(curve(s), rep_dst), rep_src), bitwise, without
    building the validated pair, and the same ValueError on non-finite
    entries."""
    g = curve(s)
    d = raw_pair_distance(*raw_act_pair(g.c, g.P, rep_dst), rep_src)
    if not math.isfinite(d):
        raise ValueError("matrix entries must be finite")
    return d


def verify_witness(w: WitnessFamily, s_values=None, tol: float = 1e-6,
                   strict: bool = True) -> ConvergenceReport:
    """Evaluate the witness residual along a decreasing s sweep.

    Raises DivergenceDetected (when strict) if the residuals fail to
    decrease monotonically across the sweep.
    """
    if s_values is None:
        s_values = (1e-1, 1e-2, 1e-3, 1e-4)
    s_values = tuple(s_values)
    if any(s2 >= s1 for s1, s2 in zip(s_values, s_values[1:])) or \
            min(s_values) <= 0 or not np.all(np.isfinite(s_values)):
        raise ValueError("s_values must be finite, positive and strictly "
                         "decreasing")
    rep_src = representative(w.src)
    rep_dst = representative(w.dst)
    res = [_sweep_residual(w.curve, s, rep_dst, rep_src) for s in s_values]
    monotone, passed = _verdict(res, tol)
    if strict and not monotone:
        raise DivergenceDetected(
            f"{w.name}: residuals not decreasing: {res}")
    return ConvergenceReport(w, s_values, tuple(res), monotone, res[-1], passed)


def _verdict(res, tol):
    """(monotone, passed) of a sweep's residuals: strictly decreasing, and
    also ending within tol."""
    monotone = all(r2 < r1 for r1, r2 in zip(res, res[1:]))
    return monotone, monotone and res[-1] <= tol


# ---------------------------------------------------------------------------
# first columns on CP^1.  For v = t w with |w| = 1 the target's forms on the
# first column are v* A v = |t|^2 w* A w and v^T B v = t^2 w^T B w, so each
# stabilizer system is a point w of CP^1 and a closed-form scale t.
# ---------------------------------------------------------------------------

# the scan grid w = (cos alpha, sin alpha e^{i beta}) over CP^1
_ALPHA = np.linspace(0.0, 0.5 * np.pi, 33)
_BETA = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
_GRID = (np.cos(_ALPHA)[:, None], np.sin(_ALPHA)[:, None] * np.exp(1j * _BETA))


def _w(alpha, beta):
    return math.cos(alpha), math.sin(alpha) * cmath.exp(1j * beta)


def _forms(w0, w1, A, B):
    """(w* A w, w^T B w) for A, B given as nested lists; w0, w1 may be
    Python numbers or broadcasting arrays."""
    (a00, a01), (a10, a11) = A
    (b00, b01), (_, b11) = B
    c0, c1 = w0.conjugate(), w1.conjugate()
    return (c0 * (a00 * w0 + a01 * w1) + c1 * (a10 * w0 + a11 * w1),
            b00 * w0 * w0 + 2.0 * b01 * w0 * w1 + b11 * w1 * w1)


def _first_column(dst: OrbitClass, atil: float):
    """(x, u, c) with c v* A v = 1 and v^T B v = atil for v = (x, u) over
    the target's forms, or None where the scan finds no solution.

    For atil > 0 the direction w solves |w^T B w| = atil |w* A w|: of the
    scan cells (adjacent alpha, fixed beta) where that difference changes
    sign, the one whose ends have the largest min |w* A w| (the smallest
    |t|, the best-conditioned curve) is bisected in alpha to rounding, and
    t = |w* A w|^{-1/2} e^{-i arg(w^T B w) / 2}.  For atil = 0, w is a root
    of b11 w0^2 + 2 b12 w0 w1 + b22 w1^2, the one with the larger |w* A w|
    / |w|^2 (the scan point with the largest |w* A w| when B = 0), and
    t = |w* A w|^{-1/2}; v = t w does not depend on the length of w."""
    rep = representative(dst)
    A, B = rep.A.m.tolist(), rep.B.m.tolist()
    if atil > 0.0:
        wa, wb = _forms(*_GRID, A, B)
        fa = np.abs(wa)
        pos = np.abs(wb) - atil * fa > 0.0
        score = np.where(pos[1:] != pos[:-1], np.minimum(fa[1:], fa[:-1]), 0.0)
        j, k = np.unravel_index(np.argmax(score), score.shape)
        if score[j, k] == 0.0:  # no cell, or only cells ending where w* A w = 0
            return None
        lo, hi = float(_ALPHA[j]), float(_ALPHA[j + 1])
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            a, b = _forms(*_w(mid, _BETA[k]), A, B)
            if (abs(b) - atil * abs(a) > 0.0) == pos[j, k]:
                lo = mid
            else:
                hi = mid
        w = _w(lo, _BETA[k])
    else:
        (b00, b01), (_, b11) = B
        sq = cmath.sqrt(b01 * b01 - b00 * b11)
        q = -(b01 + sq) if abs(b01 + sq) >= abs(b01 - sq) else -(b01 - sq)
        # the two roots in homogeneous form, (0, q) when b22 = 0; both
        # vanish only when B = 0
        roots = [w for w in ((b11, q), (q, b00)) if w[0] or w[1]]
        if not roots:
            j, k = np.unravel_index(np.argmax(np.abs(_forms(*_GRID, A, B)[0])),
                                    (_ALPHA.size, _BETA.size))
            roots = [_w(_ALPHA[j], _BETA[k])]
        w = max(roots, key=lambda w: abs(_forms(*w, A, B)[0])
                / (abs(w[0]) ** 2 + abs(w[1]) ** 2))
    a, b = _forms(*w, A, B)
    if not a:
        return None
    t = abs(a) ** -0.5 * (cmath.exp(-0.5j * cmath.phase(b)) if atil > 0.0 else 1.0)
    v = np.array([t * w[0], t * w[1]])
    return (*v, 1.0 / (v.conj() @ rep.A.m @ v))


def _isotropic_column(dst: OrbitClass):
    """(x, u) with v* A v = 0 and v^T B v = 1 for v = (x, u) over the
    target's forms, or None.  w runs over the explicit A-isotropic
    directions of the normal form: e1 where a11 = 0, e2 where a22 = 0, and
    for the [[0,h],[h,0]] form also (cos phi, i sin phi) on the interior of
    the alpha grid; the one with the largest |w^T B w| is taken, and
    t = (w^T B w)^{-1/2}."""
    rep = representative(dst)
    A, B = rep.A.m.tolist(), rep.B.m.tolist()
    dirs = []
    if A[0][0] == 0:
        dirs.append((1.0, 0.0))
    if A[1][1] == 0:
        dirs.append((0.0, 1.0))
    if A[0][0] == 0 == A[1][1] and A[0][1] == A[1][0]:
        dirs += [(math.cos(p), 1j * math.sin(p)) for p in _ALPHA[1:-1]]
    if not dirs:
        return None
    w = max(dirs, key=lambda w: abs(_forms(*w, A, B)[1]))
    b = _forms(*w, A, B)[1]
    if not b:
        return None
    t = 1.0 / cmath.sqrt(b)
    return t * w[0], t * w[1]


def _col_curve(x, u, c, q):
    """Curve with first column (x, u) fixed and second column s * q."""
    q = np.asarray(q, dtype=complex)

    def curve(s):
        P = np.array([[x, s * q[0]], [u, s * q[1]]], dtype=complex)
        return GroupElement(c / abs(c), P)
    return curve


def _solved_witness(src: OrbitClass, dst: OrbitClass, name,
                    citation) -> WitnessFamily | None:
    """Generic curve for sources (1+0, a~+0) / (1+0, 0_2)."""
    atil = float(np.real(src.params.get("a", 0.0)))
    sol = _first_column(dst, atil)
    if sol is None:
        return None
    x, u, c = sol
    Bt = representative(dst).B.m
    m = Bt @ np.array([x, u])
    q = np.array([-m[1], m[0]])
    det2 = x * m[0] + u * m[1]
    if abs(det2) < 1e-9:  # B-isotropic first column: any independent q works
        q = np.array([1.0, 0.0]) if abs(u) > abs(x) else np.array([0.0, 1.0])
    return WitnessFamily(name, src, dst, _col_curve(x, u, c, q), citation)


def _z1_witness(dst: OrbitClass, name, citation):
    """Generic curve for the source (0_2, 1+0): A-isotropic first column
    with the B form normalized to 1."""
    sol = _isotropic_column(dst)
    if sol is None:
        return None
    x, u = sol
    q = np.array([1.0, 0.0]) if abs(u) > abs(x) else np.array([0.0, 1.0])
    src = OrbitClass(Z, "rank1", {})
    return WitnessFamily(name, src, dst, _col_curve(x, u, 1.0, q), citation)


# ---------------------------------------------------------------------------
# closed-form curves
# ---------------------------------------------------------------------------

def _catalog_closed_form():
    """Hand-derived closed-form witnesses (corrected where the received
    variant fails; see TRIAGED)."""
    out = []

    def add(name, src, dst, curve, citation):
        out.append(WitnessFamily(name, src, dst, curve, citation))

    s0 = OrbitClass(S, "zero", {})
    e0 = OrbitClass(E, "zero", {})
    z1 = OrbitClass(Z, "rank1", {})

    # diagonal shrink: 1+0 -> 1 (+) lambda, P = diag(1, s)
    for dst, nm in [(OrbitClass(U, "zero", {"theta": np.pi / 4}), "U"),
                    (OrbitClass(D, "zero", {}), "D"),
                    (OrbitClass(E, "zero", {}), "E")]:
        add(f"diag-shrink->{nm}", s0, dst,
            lambda s: _gel(1.0, [[1.0, 0.0], [0.0, s]]),
            "P(s) = 1 (+) s with c = 1 realizes 1+0 -> 1 (+) lambda")

    # column collapse: 1+0 -> [[0,1],[tau,0]]
    for tau, dst in [(0.35, OrbitClass(R, "zero", {"tau": 0.35})),
                     (0.0, OrbitClass(N, "zero", {}))]:
        g0 = 1.0 / np.sqrt(1.0 + tau)
        add(f"column-collapse tau={tau}", s0, dst,
            lambda s, g0=g0: _gel(1.0, [[g0, 0.0], [g0, g0 * s]]),
            "P(s) = (1+tau)^{-1/2} [[1,0],[1,s]] realizes 1+0 -> "
            "[[0,1],[tau,0]]")

    # indefinite -> Jordan-type, P = (1/2) [[1/s, 1/s],[s, -s]]
    add("indef->jordan", e0, OrbitClass(J, "zero", {}),
        lambda s: _gel(1.0, np.sqrt(0.5) * np.array(
            [[1.0 / s, 1.0 / s], [s, -s]])),
        "P(s) = 2^{-1/2} [[1/s, 1/s],[s, -s]] realizes 1 (+) -1 -> "
        "[[0,1],[1,i]] (a 1/2 prefactor lands on (1/2)(1 (+) -1), an orbit "
        "point rather than the representative; see TRIAGED)")

    # antidiagonal fills the diagonal entries within one tau (or nilpotent) A
    for tau in (0.5,):
        src = OrbitClass(R, "antidiag_b", {"tau": tau, "b": 0.8})
        add("tau-antidiag->generic(zeta=0)", src,
            OrbitClass(R, "generic",
                       {"tau": tau, "phi": 0.9, "b": 0.8, "zeta": 0j}),
            lambda s: _gel(1.0, [[s, s * s], [0.0, 1.0 / s]]),
            "P(s) = [[s, s^2],[0, 1/s]] fills the (1,1) entry of B")
        add("tau-antidiag->zero_b_eiphi", src,
            OrbitClass(R, "zero_b_eiphi", {"tau": tau, "b": 0.8, "phi": 1.2}),
            lambda s: _gel(1.0, [[1.0 / s, 0.0], [s * s, s]]),
            "P(s) = [[1/s, 0],[s^2, s]] fills the (2,2) entry of B")
    srcn = OrbitClass(N, "antidiag_b", {"b": 1.1})
    add("nilp-antidiag->one_b_0", srcn, OrbitClass(N, "one_b_0", {"b": 1.1}),
        lambda s: _gel(1.0, [[s, s * s], [0.0, 1.0 / s]]),
        "tau = 0 case of the (1,1)-filling curve")
    add("nilp-antidiag->zeta_b_1(zeta=0)", srcn,
        OrbitClass(N, "zeta_b_1", {"zeta": 0j, "b": 1.1}),
        lambda s: _gel(1.0, [[1.0 / s, 0.0], [s * s, s]]),
        "tau = 0 case of the (2,2)-filling curve")

    # (1 (+) -1, 0_2) -> ([[0,1],[1,i]], 0 (+) d)
    add("indef0->jordan-0d", e0, OrbitClass(J, "zero_plus_d", {"d": 1.4}),
        lambda s: _gel(1.0, [[0.5 / s, -0.5 / s], [s, s]]),
        "P(s) = [[1/(2s), -1/(2s)],[s, s]] with c = 1")

    # (1 (+) -1, b I_2) -> ([[0,1],[1,i]], [[0,b],[b,0]])
    b = 0.9
    add("indef-scalar->jordan-antidiag",
        OrbitClass(E, "d0_plus_d", {"d0": b, "d": b}),
        OrbitClass(J, "antidiag_b", {"b": b}),
        lambda s, b=b: _gel(-1.0, np.sqrt(0.5) * np.array(
            [[1j / s, 1.0 / s], [-1j * s, s]])),
        "c = -1, P(s) = 2^{-1/2} [[i/s, 1/s],[-i s, s]]")

    # (1 (+) -1, 0_2) -> ([[0,1],[1,0]], 1 (+) 0)   [corrected curve]
    add("indef0->H-rank1", e0, OrbitClass(E, "h_one_plus_0", {}),
        lambda s: _gel(1.0, [[s, -s], [0.5 / s, 0.5 / s]]),
        "reconstruction of a curve whose received variant fails (TRIAGED): "
        "P(s) = [[s, -s],[1/(2s), 1/(2s)]]")

    # (1 (+) -1, I_2) -> ([[0,1],[1,0]], [[0,1],[1,1]])   [corrected scale]
    add("indef-I2->H-zero_b_1",
        OrbitClass(E, "d0_plus_d", {"d0": 1.0, "d": 1.0}),
        OrbitClass(E, "h_zero_b_1", {"b": 1.0}),
        lambda s: _gel(1.0, [[0.5 / s, -0.5j / s], [s, 1j * s]]),
        "received variant without its 1/2 prefactor (see TRIAGED)")

    # (0_2, 1+0) -> indefinite targets, P = (sum)^{-1/2} [[1,0],[1,s]]
    for dst, nm in [(OrbitClass(E, "d0_plus_d", {"d0": 0.0, "d": 1.3}), "0d"),
                    (OrbitClass(E, "d0_plus_d", {"d0": 1.3, "d": 1.3}), "dI"),
                    (OrbitClass(E, "antidiag_b", {"b": 0.7}), "b"),
                    (OrbitClass(E, "a_lt_d", {"a": 0.5, "d": 2.0}), "ad")]:
        Bt = representative(dst).B.m
        tot = Bt[0, 0] + Bt[1, 1] + 2.0 * Bt[0, 1]
        g0 = 1.0 / np.sqrt(complex(tot))
        add(f"zero-rank1->indef-{nm}", z1, dst,
            lambda s, g0=g0: _gel(1.0, [[g0, 0.0], [g0, g0 * s]]),
            "P(s) = (a+d+2b)^{-1/2} [[1,0],[1,s]] from the theta = pi row")
    # same curve transported to the H-representative targets (the
    # [[0,b],[b,1]] form has a vanishing normalizer here and is covered by
    # the constructed curves instead)
    for dst, nm in [(OrbitClass(E, "h_one_plus_0", {}), "h10"),
                    (OrbitClass(E, "h_one_plus_de", {"d": 1.2, "theta": 1.0}),
                     "hde")]:
        BH = representative(dst).B.m
        BJ = _QJH @ BH @ _QJH
        tot = complex(BJ[0, 0] + BJ[1, 1] + 2.0 * BJ[0, 1])
        if abs(tot) < 1e-9:
            continue
        g0 = 1.0 / np.sqrt(tot)

        def curve(s, g0=g0):
            w = _gel(1.0, [[g0, 0.0], [g0, g0 * s]])
            return compose(w, group_inverse(_G_JH))
        add(f"zero-rank1->indef-{nm}", z1, dst, curve,
            "theta = pi row curve conjugated to the [[0,1],[1,0]] "
            "representative")

    # (0_2, 1+0) -> ([[0,1],[1,i]], [[0,b],[b,0]])
    b = 0.8
    add("zero-rank1->jordan-antidiag", z1, OrbitClass(J, "antidiag_b", {"b": b}),
        lambda s, b=b: _gel(1.0, ((1.0 + 1j) / (2.0 * np.sqrt(b))) * np.array(
            [[1.0 / s, s * s], [-1j * s, s * s]])),
        "P(s) = (1+i)/(2 sqrt(b)) [[1/s, s^2],[-i s, s^2]]")

    # (0_2, 1+0) -> ([[0,1],[1,i]], a (+) zeta)
    a = 1.2
    add("zero-rank1->jordan-diag", z1,
        OrbitClass(J, "a_plus_zeta", {"a": a, "zeta": 0.4 - 0.7j}),
        lambda s, a=a: _gel(1.0, [[1.0 / np.sqrt(a), 0.0], [0.0, s]]),
        "P(s) = a^{-1/2} (+) s")

    # (0_2, 1+0) -> tau-column targets through the diagonal curves
    tau = 0.4
    for dst, P0 in [
            (OrbitClass(R, "generic",
                        {"tau": tau, "phi": 0.7, "b": 1.1, "zeta": 0.3 + 0.2j}),
             None),
            (OrbitClass(R, "one_plus_zeta", {"tau": tau, "zeta": 0.5 - 1.1j}),
             None)]:
        b11 = representative(dst).B.m[0, 0]
        g0 = 1.0 / np.sqrt(complex(b11))
        add(f"zero-rank1->tau-{dst.b_form}", z1, dst,
            lambda s, g0=g0: _gel(1.0, [[g0, 0.0], [0.0, s]]),
            "P(s) = B11^{-1/2} (+) s")
    for dst in [OrbitClass(R, "zero_b_eiphi", {"tau": tau, "b": 0.9, "phi": 2.1}),
                OrbitClass(R, "zero_plus_1", {"tau": tau})]:
        b22 = representative(dst).B.m[1, 1]
        g0 = 1.0 / np.sqrt(complex(b22))
        add(f"zero-rank1->tau-{dst.b_form}", z1, dst,
            lambda s, g0=g0: _gel(1.0, [[0.0, s], [g0, 0.0]]),
            "P(s) = [[0, s],[B22^{-1/2}, 0]]")

    # (0_2, 1+0) -> (1+0, a (+) 1) and -> (1+0, [[0,1],[1,0]])
    add("zero-rank1->semidef-a1", z1,
        OrbitClass(S, "a_plus_1", {"a": 0.9}),
        lambda s: _gel(1.0, [[s, s], [1.0, s]]),
        "P(s) = [[s, s],[1, s]]")
    add("zero-rank1->semidef-01", z1, OrbitClass(S, "zero_plus_1", {}),
        lambda s: _gel(1.0, [[s, s], [1.0, s]]),
        "a = 0 case of P(s) = [[s, s],[1, s]]")
    add("zero-rank1->semidef-antidiag", z1, OrbitClass(S, "antidiag_1", {}),
        lambda s: _gel(1.0, np.sqrt(0.5) * np.array(
            [[s, s * s], [1.0 / s, s * s]])),
        "P(s) = 2^{-1/2} [[s, s^2],[1/s, s^2]]")
    add("zero-full->semidef-antidiag", OrbitClass(Z, "full", {}),
        OrbitClass(S, "antidiag_1", {}),
        lambda s: _gel(1.0, np.sqrt(0.5) * np.array(
            [[s, 1j * s], [1.0 / s, -1j / s]])),
        "P(s) = 2^{-1/2} [[s, is],[1/s, -i/s]]")
    add("zero-rank1->zero-full", z1, OrbitClass(Z, "full", {}),
        lambda s: _gel(1.0, [[1.0, 0.0], [0.0, s]]),
        "T-congruence rank chain: diag(1, s) shrinks I_2 to 1 (+) 0")

    # (1+0, a~+0) -> ([[0,1],[1,0]], 1+0), signed-p reconstruction
    for atil in (0.0, 0.7, 1.8):
        if atil == 0.0:
            src = s0

            def curve(s):
                p = 1.0 / s
                w = _gel(1.0, [[np.sqrt(p * p + 1.0), 0.0], [-p, s * s]])
                return compose(w, group_inverse(_gel(1.0, [[0.5, 1.0],
                                                           [0.5, -1.0]])))
        else:
            src = OrbitClass(S, "a_plus_0", {"a": atil})
            p = (1.0 - atil) / (2.0 * np.sqrt(atil))

            def curve(s, p=p):
                w = _gel(1.0, [[np.sqrt(p * p + 1.0), 0.0], [-p, s * s]])
                return compose(w, group_inverse(_gel(1.0, [[0.5, 1.0],
                                                           [0.5, -1.0]])))
        add(f"semidef-a{atil}->H-rank1", src, OrbitClass(E, "h_one_plus_0", {}),
            curve,
            "P(s) = [[sqrt(p^2+1), 0],[-p, s^2]], signed p = (1-a~)/(2 "
            "sqrt(a~)) (see TRIAGED for the unsigned variant), conjugated by "
            "(1/2)[[1,2],[1,-2]]")

    # (1+0, a~+0) -> (I_2 / 1 (+) -1 diagonal targets), explicit branches
    add("semidef->definite-branch1",
        OrbitClass(S, "a_plus_0", {"a": 0.5}),
        OrbitClass(D, "a_lt_d", {"a": 1.0, "d": 2.0}),
        lambda s: _gel(1.0, (1.0 / np.sqrt(3.0)) * np.array(
            [[np.sqrt(0.5 + 2.0), 0.0], [1j * np.sqrt(1.0 - 0.5), s]])),
        "theta = 0 branch P(s) = (a+d)^{-1/2}[[sqrt(a~+d), 0],"
        "[i sqrt(a-a~), s]] for a~ <= a <= d")
    add("semidef->indef-branch2",
        OrbitClass(S, "a_plus_0", {"a": 1.5}),
        OrbitClass(E, "a_lt_d", {"a": 1.0, "d": 2.0}),
        lambda s: _gel(1.0, (1.0 / np.sqrt(3.0)) * np.array(
            [[np.sqrt(2.0 + 1.5), 0.0], [np.sqrt(1.5 - 1.0), s]])),
        "theta = pi branch P(s) = (d+a)^{-1/2}[[sqrt(d+a~), 0],"
        "[sqrt(a~-a), s]] for a~ >= a")

    # (1+0, a~+0) -> (1 (+) -1, [[0,b],[b,0]])
    atil, b = 1.3, 0.8
    rt = np.sqrt(b * b + atil * atil)
    xw = np.sqrt((b + rt) / (2 * b))
    uw = np.sqrt((-b + rt) / (2 * b))
    add("semidef->indef-antidiag", OrbitClass(S, "a_plus_0", {"a": atil}),
        OrbitClass(E, "antidiag_b", {"b": b}),
        lambda s, xw=xw, uw=uw: _gel(1.0, [[xw, s], [uw, s]]),
        "x^2 = (b + sqrt(b^2+a~^2))/(2b), u^2 = (-b + sqrt(b^2+a~^2))/(2b), "
        "y = v = s")

    # (1+0, a~+0) -> ([[0,1],[1,i]], [[0,b],[b,0]])
    atil, b = 0.9, 0.6
    add("semidef->jordan-antidiag", OrbitClass(S, "a_plus_0", {"a": atil}),
        OrbitClass(J, "antidiag_b", {"b": b}),
        lambda s, atil=atil, b=b: _gel(-1j, np.sqrt(0.5) * np.array(
            [[(atil / (2 * b)) * (1 - 1j), s], [1 + 1j, s]])),
        "c = -i, P(s) = 2^{-1/2} [[(a~/2b)(1-i), s],[1+i, s]]")

    # (1+0, a~+0) -> ([[0,1],[1,i]], a (+) 0)
    atil, a = 1.1, 0.7
    add("semidef->jordan-a0", OrbitClass(S, "a_plus_0", {"a": atil}),
        OrbitClass(J, "a_plus_zeta", {"a": a, "zeta": 0j}),
        lambda s, atil=atil, a=a: _gel(-1j, [[np.sqrt(atil / a), s],
                                               [1j, 0.0]]),
        "c = -i, P(s) = [[sqrt(a~/a), s],[i, 0]]")

    # (1+0, 0_2) and (1+0, a~+0) -> ([[0,1],[1,i]], 0 (+) d), a~ <= d
    add("semidef0->jordan-0d", s0, OrbitClass(J, "zero_plus_d", {"d": 0.9}),
        lambda s: _gel(1.0, np.sqrt(0.5) * np.array([[1.0 / s, s], [s, 0.0]])),
        "P(s) = 2^{-1/2} [[1/s, s],[s, 0]] with c = 1")
    atil, d = 0.8, 1.6
    w = np.sqrt(d * d - atil * atil)
    add("semidef-a->jordan-0d", OrbitClass(S, "a_plus_0", {"a": atil}),
        OrbitClass(J, "zero_plus_d", {"d": d}),
        lambda s, w=w, atil=atil, d=d: _gel(
            (w - 1j * atil) / d,
            (1.0 / (2.0 * np.sqrt(atil * d))) * np.array(
                [[w, s], [2.0 * atil, 0.0]])),
        "c = (sqrt(d^2-a~^2) - i a~)/d (without the factor i the scalar is "
        "not unimodular; TRIAGED), P(s) = (2 sqrt(a~ d))^{-1} [[sqrt(d^2-a~^2), s],"
        "[2a~, 0]]")

    # (1+0, a~+0) -> (1+0, a (+) 1)
    for atil, a in [(1.4, 0.6), (0.0, 1.1)]:
        src = s0 if atil == 0.0 else OrbitClass(S, "a_plus_0", {"a": atil})
        u0 = np.sqrt(complex(atil - a))
        add(f"semidef-a{atil}->a_plus_1", src,
            OrbitClass(S, "a_plus_1", {"a": a}),
            lambda s, u0=u0: _gel(1.0, [[1.0, 0.0], [u0, s]]),
            "P(s) = [[1, 0],[sqrt(a~-a), s]]")

    # (1+0, a~+0) -> ([[0,1],[tau,0]], [[0,b],[b,0]]), interval condition
    tau, b = 0.5, 0.8
    m = (2.0 * b / (1 + tau) + 2.0 * b / (1 - tau)) / (2.0 * 2.0 * b)  # midpoint/2b
    atil = 2.0 * b * m
    c2 = (1 + tau) ** 2 * m * m
    s2 = (1 - tau) ** 2 * m * m
    cpsi = np.sqrt((1.0 - s2) / (c2 - s2))
    psi = float(np.arccos(np.clip(cpsi, -1, 1)))
    xw = np.sqrt(m) * np.exp(-0.5j * psi)
    uw = np.sqrt(m) * np.exp(0.5j * psi)
    cinv = (1 + tau) * m * np.cos(psi) + 1j * (1 - tau) * m * np.sin(psi)
    add("semidef->tau-antidiag(interval)",
        OrbitClass(S, "a_plus_0", {"a": atil}),
        OrbitClass(R, "antidiag_b", {"tau": tau, "b": b}),
        lambda s, cinv=cinv, xw=xw, uw=uw: _gel(1.0 / cinv,
                                                  [[xw, 0.0], [uw, s]]),
        "first column solves 2 b x u = a~ with conj(x) u on the stabilizer "
        "ellipse; realizes the interval condition")

    # (1+0, 0_2) -> rank-1-B targets (large-column constructions)
    add("semidef0->nilp-10", s0, OrbitClass(N, "one_plus_0", {}),
        lambda s: _gel(1.0, [[s, 0.0], [1.0 / s, s]]),
        "P(s) = [[s, 0],[1/s, s]]: the A column carries the unit product "
        "while B shrinks")
    add("semidef0->nilp-01", s0, OrbitClass(N, "zero_plus_1", {}),
        lambda s: _gel(1.0, [[1.0 / s, s], [s, s * s]]),
        "P(s) = [[1/s, s],[s, s^2]]")
    tau5 = 0.45
    add("semidef0->tau-01", s0, OrbitClass(R, "zero_plus_1", {"tau": tau5}),
        lambda s: _gel(1.0, [[1.0 / ((1.0 + tau5) * s), s], [s, s * s]]),
        "P(s) = [[((1+tau) s)^{-1}, s],[s, s^2]]")
    add("semidef0->H-rank1", s0, OrbitClass(E, "h_one_plus_0", {}),
        lambda s: _gel(1.0, [[s, s * s], [0.5 / s, s]]),
        "P(s) = [[s, s^2],[1/(2s), s]]")

    # within-tau rescalings from (tau, 0_2)
    tau = 0.3
    add("tau-zero->one_plus_zeta(0)", OrbitClass(R, "zero", {"tau": tau}),
        OrbitClass(R, "one_plus_zeta", {"tau": tau, "zeta": 0j}),
        lambda s: _gel(1.0, [[s, 0.0], [0.0, 1.0 / s]]),
        "stabilizer rescaling diag(s, 1/s) shrinks 1 (+) 0")
    add("tau-zero->zero_plus_1", OrbitClass(R, "zero", {"tau": tau}),
        OrbitClass(R, "zero_plus_1", {"tau": tau}),
        lambda s: _gel(1.0, [[1.0 / s, 0.0], [0.0, s]]),
        "stabilizer rescaling diag(1/s, s) shrinks 0 (+) 1")
    add("nilp-zero->one_plus_0", OrbitClass(N, "zero", {}),
        OrbitClass(N, "one_plus_0", {}),
        lambda s: _gel(1.0, [[s, 0.0], [0.0, 1.0 / s]]),
        "tau = 0 case of the diagonal rescaling")
    add("nilp-zero->zero_plus_1", OrbitClass(N, "zero", {}),
        OrbitClass(N, "zero_plus_1", {}),
        lambda s: _gel(1.0, [[1.0 / s, 0.0], [0.0, s]]),
        "tau = 0 case of the diagonal rescaling")
    return out


_SOLVED_SOURCES = ((S, "zero"), (S, "a_plus_0"), (Z, "rank1"))


def _solved_instance(sk, dk, cond):
    """(src, dst) of one sampled instance of the edge sk -> dk, or None."""
    inst = _sample_edge_instances(sk, dk, cond, 1, seed=17)
    return inst[0] if inst else None


def _catalog_solved(covered):
    """Systematically constructed curves for every declared edge whose
    source has A = 1+0 (first column solves the target's stabilizer
    equations) or source (0_2, 1+0) (A-isotropic first column), plus the
    universal shrink from the origin."""
    out = []
    z0 = OrbitClass(Z, "zero", {})
    for (sk, dk), cond in sorted(pair_edges().items()):
        if (sk, dk) in covered:
            continue
        if sk == z0.key():
            dst = sample_params(FAMILIES[dk], n=1, seed=11)[0]
            out.append(WitnessFamily(
                f"origin->{dk[0]}|{dk[1]}", z0, dst,
                lambda s: _gel(1.0, [[s, 0.0], [0.0, s]]),
                "P(s) = s I shrinks every pair to (0_2, 0_2)"))
            continue
        if sk not in _SOLVED_SOURCES:
            continue
        inst = _solved_instance(sk, dk, cond)
        if inst is None:
            continue
        src, dst = inst
        if sk == (Z, "rank1"):
            w = _z1_witness(dst, f"solvedZ->{dk[0]}|{dk[1]}",
                            "A-isotropic first column normalizing the B form")
        else:
            w = _solved_witness(src, dst, f"solved->{dk[0]}|{dk[1]}",
                                "first column solves the target stabilizer "
                                "equations; second column scales with s")
        if w is not None:
            out.append(w)
    return out


_CATALOG = None

_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)
_KS = (1.0, 2.0, 1.5, 3.0, 1.25)   # the exponents _autotune tries, in order


def _reparam(entry: WitnessFamily, k: float) -> WitnessFamily:
    raw = entry.curve
    return WitnessFamily(entry.name, entry.src, entry.dst,
                         (lambda s, raw=raw, k=k: raw(s ** k)),
                         entry.citation + f" [curve parameter normalized as "
                         f"s -> s^{k}]" if k != 1 else entry.citation)


def _autotune(entry: WitnessFamily) -> WitnessFamily | None:
    """Reparametrize s -> s^k so the standard sweep reaches 1e-7 while the
    curve stays well conditioned; the reparametrization keeps the curve
    closed form and does not change the realized edge."""
    rep_src, rep_dst = representative(entry.src), representative(entry.dst)
    for k in _KS:
        cand = entry if k == 1.0 else _reparam(entry, k)
        # verify_witness's verdict at tol 1e-7.  A sweep passes only if its
        # last point passes alone, so that point goes first, and a k it
        # rejects costs one evaluation
        try:
            final = _sweep_residual(cand.curve, _SWEEP[-1], rep_dst, rep_src)
            if not _verdict((final,), 1e-7)[1]:
                continue
            res = [_sweep_residual(cand.curve, s, rep_dst, rep_src)
                   for s in _SWEEP[:-1]]
        except PairOrbitError:
            continue
        if _verdict(res + [final], 1e-7)[1]:
            return cand
    return None


def witness_catalog():
    """All verified witness families (built once, then cached)."""
    global _CATALOG
    if _CATALOG is None:
        entries = []
        for e in _catalog_closed_form():
            tuned = _autotune(e)
            if tuned is not None:
                entries.append(tuned)
        covered = {(w.src.key(), w.dst.key()) for w in entries}
        for e in _catalog_solved(covered):
            tuned = _autotune(e)
            if tuned is not None:
                entries.append(tuned)
        _CATALOG = tuple(entries)
    return list(_CATALOG)


# received curve variants that fail numeric verification, kept for the
# record with a reconstruction note; they are excluded from the catalog
TRIAGED = (
    {"name": "indef->jordan (received variant)",
     "quote": "P(s) = (1/2)[[1/s, 1/s],[s, -s]]",
     "reason": "converges to (1/2) diag(1,-1), an interior point of the "
               "indefinite orbit rather than its representative; the "
               "2^{-1/2} rescaling hits the representative exactly"},
    {"name": "indef0->H-rank1 (received variant)",
     "quote": "P(s)=(1/2)[[2 sqrt(1+s)-2, 2-2 sqrt(1+s)],"
              "[1+sqrt(1+s), 1+sqrt(1+s)]]",
     "reason": "A-part converges to 0_2 instead of 1 (+) -1; replaced by "
               "[[s, -s],[1/(2s), 1/(2s)]]"},
    {"name": "indef-I2->H-zero_b_1 (received variant)",
     "quote": "P(s)=(1/2)[[1/(2s), -i/(2s)],[s, is]]",
     "reason": "the 1/2 prefactor rescales the A-part by 1/4; verified "
               "without it"},
    {"name": "semidef->semidef-antidiag (received variant)",
     "quote": "P(s)=[[a~/2, s],[1, 0]] for (1+0, a~+0) -> (1+0, [[0,1],[1,0]])",
     "reason": "A-part tends to (a~^2/4) (+) 0, so the curve fails for "
               "a~ != 2; the closure graph declares this edge absent, so no "
               "corrected curve is included"},
    {"name": "semidef-a->jordan-0d (received scalar)",
     "quote": "c(s) = (1/d)(sqrt(d^2-a~^2) - a~)",
     "reason": "not unit modulus; the factor i on a~ restores |c| = 1"},
    {"name": "semidef->H-rank1 (received p)",
     "quote": "p = |1-a~|/(2 sqrt(a~))",
     "reason": "fails for a~ > 1; the signed value (1-a~)/(2 sqrt(a~)) "
               "verifies"},
)


# ---------------------------------------------------------------------------
# perturbation laboratory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbReport:
    source: OrbitClass
    eps: float
    samples: int
    histogram: dict
    violations: list
    unresolved: int
    # unresolved samples per exception class name; sums to unresolved
    unresolved_by: dict = field(default_factory=dict)

    def to_json(self):
        return {"source": str(self.source), "eps": self.eps,
                "samples": self.samples,
                "histogram": {k: v for k, v in sorted(self.histogram.items())},
                "violations": self.violations,
                "unresolved": self.unresolved,
                "unresolved_by": dict(sorted(self.unresolved_by.items()))}


def _perturbations(eps, n, seed):
    """The n perturbations as an (n, 7) complex array of the entries E11,
    E12, E21, E22 of A's and F11, F12, F22 of B's.  Sample i draws 14
    uniforms from default_rng((seed, i)); each pair (u, v) of them gives
    one entry eps sqrt(u) e^{2 pi i v}, uniform on the disc of radius eps."""
    u = np.array([np.random.default_rng((seed, i)).uniform(size=14)
                  for i in range(n)])
    return eps * np.sqrt(u[:, 0::2]) * np.exp(1j * (2.0 * np.pi * u[:, 1::2]))


def _psi1_slack_ok(src: OrbitClass, dst: OrbitClass, kappa: float) -> bool:
    """Psi1 reachability allowing the reached continuous parameter to sit
    within kappa of the source family's boundary value."""
    if psi1_path(star_of(src), star_of(dst)):
        return True
    st, dt = src.a_family, dst.a_family
    th = float(np.real(dst.params.get("theta", 0.0))) if dt == U else None
    ta = float(np.real(dst.params.get("tau", 0.0))) if dt == R else None
    if st == D:
        return (dt == U and th <= kappa)
    if st in (E, J):
        if dt == U:
            return np.pi - th <= kappa
        if dt == R:
            return 1.0 - ta <= kappa
        return st == J and dt == J or (st == E and dt in (E, J))
    if st == N:
        return dt == R and ta <= kappa
    if st == U:
        return dt == U and abs(th - float(np.real(src.params["theta"]))) <= kappa
    if st == R:
        return dt == R and abs(ta - float(np.real(src.params["tau"]))) <= kappa
    return False


def reachable_with_slack(src: OrbitClass, reached: OrbitClass,
                         eps: float) -> bool:
    """Closure-graph consistency test for a class reached by an eps-small
    perturbation of representative(src).

    An eps-perturbation lands in orbits whose family parameters sit within
    an eps-window of an exactly reachable class (the closure graph itself
    relates exact parameter values), so the necessary conditions are
    evaluated with windows: dimension cannot drop, the B rank cannot drop,
    the A part must be reachable up to a parameter window, and the
    determinant invariant must vanish up to an eps-proportional residual.
    """
    if reached.key() == src.key():
        return True
    kappa = max(60.0 * eps, 12.0 * np.sqrt(eps))
    if reached.dim < src.dim:
        return False
    if b_rank(reached) < b_rank(src):
        return False
    if not _psi1_slack_ok(src, reached, kappa):
        return False
    ps, pd = representative(src), representative(reached)
    p = det_invariant_p(ps, pd)
    scale = max(1.0, max_norm(ps.A.m), max_norm(ps.B.m),
                max_norm(pd.A.m), max_norm(pd.B.m)) ** 4
    if abs(p) > 200.0 * eps * scale:
        return False
    return True


def perturb_experiment(cls: OrbitClass, eps: float, n: int,
                       seed: int = 0) -> PerturbReport:
    """Classify n perturbed copies of representative(cls) and check every
    reached family against the closure graph (with eps-windows)."""
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    if n < 1:
        raise ValueError("n must be >= 1")
    rep = representative(cls)
    D = _perturbations(eps, n, seed)
    As = rep.A.m + D[:, :4].reshape(n, 2, 2)
    Bs = rep.B.m + D[:, [4, 5, 5, 6]].reshape(n, 2, 2)
    # the mean Sym2x2.symmetrize takes: either entry, unless their sum overflows
    Bs[:, 0, 1] = Bs[:, 1, 0] = 0.5 * (Bs[:, 0, 1] + Bs[:, 1, 0])
    hist = {}
    violations = []
    unresolved_by = {}
    for i in range(n):
        pert = MatrixPair(Complex2x2(As[i]), Sym2x2(Bs[i]))
        try:
            # looked up per call, so a wrapped pairnf.classify_pair is seen
            got = pairnf.classify_pair(pert)
        except PairOrbitError as e:
            name = type(e).__name__
            unresolved_by[name] = unresolved_by.get(name, 0) + 1
            continue
        key = f"{got.cls.a_family}|{got.cls.b_form}"
        hist[key] = hist.get(key, 0) + 1
        if not reachable_with_slack(cls, got.cls, eps):
            violations.append({"sample": i, "reached": str(got.cls)})
    return PerturbReport(cls, eps, n, hist, violations,
                         sum(unresolved_by.values()), unresolved_by)
