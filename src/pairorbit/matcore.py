"""Core 2x2 complex matrix arithmetic, the group action and seeded sampling.

Everything operates on pairs (A, B) where A is an arbitrary complex 2x2
matrix and B is complex symmetric.  The acting group is S^1 x GL_2(C);
an element g = (c, P) acts by

    g . (A, B) = (c P* A P,  P^T B P),

a left action under the composition (c1, P1) * (c2, P2) = (c1 c2, P2 P1).
All values are immutable; every function here is pure.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "Complex2x2",
    "Sym2x2",
    "MatrixPair",
    "GroupElement",
    "PairOrbitError",
    "InputError",
    "SingularInput",
    "act_pair",
    "act_star",
    "act_tcong",
    "compose",
    "group_inverse",
    "identity_element",
    "least_squares",
    "max_norm",
    "pair_distance",
    "raw_act_pair",
    "raw_pair_distance",
    "sample_group",
    "sample_pair",
    "mat_to_json",
    "mat_from_json",
    "pair_to_json",
    "pair_from_json",
    "complex_to_json",
    "complex_from_json",
]

DEFAULT_TOL = 1e-9

_UNIT_MOD_TOL = 1e-12
_MIN_DET = 1e-6


class PairOrbitError(Exception):
    """Base class for errors raised by this package."""


class InputError(PairOrbitError):
    """The input lies outside the domain of the operation (the command line
    exits 2 on these, and 3 on any other PairOrbitError)."""


class SingularInput(PairOrbitError):
    """An operation required an invertible matrix but got a singular one."""


def _as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _hash_entries(m: np.ndarray) -> int:
    # adding 0.0 turns -0.0 into 0.0, so entries that compare equal under
    # np.array_equal hash equal
    return hash((m + 0.0).tobytes())


@dataclass(frozen=True)
class Complex2x2:
    """An arbitrary 2x2 complex matrix (the A component)."""

    m: np.ndarray

    def __init__(self, entries):
        object.__setattr__(self, "m", _as_matrix(entries))
        self.m.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, Complex2x2) and np.array_equal(self.m, other.m)

    def __hash__(self):
        return _hash_entries(self.m)

    def __reduce__(self):
        # rebuild through __init__, so copies and unpickled values stay read-only
        return type(self), (self.m,)


@dataclass(frozen=True)
class Sym2x2:
    """A complex symmetric 2x2 matrix (the B component).

    Construction requires entry (1,2) == entry (2,1) exactly; use
    ``Sym2x2.symmetrize`` for data that is only symmetric up to round-off.
    """

    m: np.ndarray

    def __init__(self, entries):
        m = _as_matrix(entries)
        if m[0, 1] != m[1, 0]:
            raise ValueError("Sym2x2 requires exactly equal off-diagonal entries")
        object.__setattr__(self, "m", m)
        self.m.setflags(write=False)

    @staticmethod
    def symmetrize(entries) -> "Sym2x2":
        m = _as_matrix(entries)
        off = 0.5 * (m[0, 1] + m[1, 0])
        return Sym2x2([[m[0, 0], off], [off, m[1, 1]]])

    def __eq__(self, other):
        return isinstance(other, Sym2x2) and np.array_equal(self.m, other.m)

    def __hash__(self):
        return _hash_entries(self.m)

    def __reduce__(self):
        # rebuild through __init__, so copies and unpickled values stay read-only
        return type(self), (self.m,)


@dataclass(frozen=True)
class MatrixPair:
    """The object being classified: (A, B) with A arbitrary, B symmetric."""

    A: Complex2x2
    B: Sym2x2

    @staticmethod
    def of(A, B) -> "MatrixPair":
        a = A if isinstance(A, Complex2x2) else Complex2x2(A)
        b = B if isinstance(B, Sym2x2) else Sym2x2.symmetrize(B)
        return MatrixPair(a, b)


@dataclass(frozen=True)
class GroupElement:
    """A symmetry (c, P) with |c| = 1 and P invertible."""

    c: complex
    P: np.ndarray

    def __init__(self, c, P):
        c = complex(c)
        if abs(abs(c) - 1.0) > _UNIT_MOD_TOL:
            raise ValueError(f"|c| must be 1 within {_UNIT_MOD_TOL}, got |c|={abs(c)}")
        P = _as_matrix(P)
        (p00, p01), (p10, p11) = P.tolist()
        det = p00 * p11 - p01 * p10
        # the closed form can cancel to 0 or overflow to inf - inf = nan;
        # only then does LAPACK decide
        if (det == 0 or not cmath.isfinite(det)) and np.linalg.det(P) == 0:
            raise ValueError("P must be invertible")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "P", P)
        self.P.setflags(write=False)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.c == other.c
                and np.array_equal(self.P, other.P))

    def __hash__(self):
        # hash(complex) already maps -0.0 and 0.0 parts alike
        return hash((self.c, _hash_entries(self.P)))

    def __reduce__(self):
        return GroupElement, (self.c, self.P)


def identity_element() -> GroupElement:
    return GroupElement(1.0, np.eye(2))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Product g*h, ordered so act_pair(g*h, p) == act_pair(g, act_pair(h, p))."""
    c = g.c * h.c
    return GroupElement(c / abs(c), h.P @ g.P)


def group_inverse(g: GroupElement) -> GroupElement:
    c = 1.0 / g.c
    return GroupElement(c / abs(c), np.linalg.inv(g.P))


def act_star(g: GroupElement, A: Complex2x2) -> Complex2x2:
    """Unit-scaled *-congruence: A -> c P* A P."""
    return Complex2x2(g.c * (g.P.conj().T @ A.m @ g.P))


def act_tcong(P: np.ndarray, B: Sym2x2) -> Sym2x2:
    """T-congruence B -> P^T B P, re-symmetrized to kill round-off."""
    return Sym2x2.symmetrize(P.T @ B.m @ P)


def act_pair(g: GroupElement, p: MatrixPair) -> MatrixPair:
    """Apply (c, P) . (A, B) = (c P* A P, P^T B P)."""
    return MatrixPair(act_star(g, p.A), act_tcong(g.P, p.B))


def max_norm(M) -> float:
    """Entrywise max-modulus norm; submultiplicative only up to a factor 2."""
    m = M.m if isinstance(M, (Complex2x2, Sym2x2)) else np.asarray(M)
    return float(np.abs(m).max())


def pair_distance(p: MatrixPair, q: MatrixPair) -> float:
    """max of the componentwise max-norm distances."""
    return max(max_norm(p.A.m - q.A.m), max_norm(p.B.m - q.B.m))


def raw_act_pair(c, P: np.ndarray, p: MatrixPair):
    """The entries (A, B) of act_pair(GroupElement(c, P), p), bitwise, as
    plain arrays; unvalidated, so nan and inf entries pass through."""
    M = P.T @ p.B.m @ P
    off = 0.5 * (M[0, 1] + M[1, 0])
    return c * (P.conj().T @ p.A.m @ P), np.array([[M[0, 0], off], [off, M[1, 1]]])


def raw_pair_distance(A: np.ndarray, B: np.ndarray, q: MatrixPair) -> float:
    """pair_distance of the entries (A, B) from q, bitwise; nan and inf
    entries pass through."""
    return float(np.maximum(np.abs(A - q.A.m).max(), np.abs(B - q.B.m).max()))


def sample_group(seed: int, spread: float = 1.0) -> GroupElement:
    """Seeded random group element.

    c is uniform on the unit circle and P has independent complex Gaussian
    entries of standard deviation `spread`, resampled until |det P| >= 1e-6.
    """
    if spread <= 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 2.0 * np.pi)
    c = complex(np.cos(alpha), np.sin(alpha))
    for _ in range(100):
        P = spread * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        P /= np.sqrt(2.0)
        if abs(np.linalg.det(P)) >= _MIN_DET:
            return GroupElement(c, P)
    raise PairOrbitError("failed to sample an invertible P in 100 attempts")


def sample_pair(seed: int, spread: float = 1.0) -> MatrixPair:
    """Seeded random pair (A, B) with Gaussian entries, B symmetrized."""
    if spread <= 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(seed)
    A = spread * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    B = spread * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return MatrixPair(Complex2x2(A), Sym2x2.symmetrize(0.5 * (B + B.T)))


# ---------------------------------------------------------------------------
# Nonlinear least squares
# ---------------------------------------------------------------------------

class LeastSquaresResult(NamedTuple):
    x: np.ndarray
    cost: float   # half the squared residual norm at x
    nfev: int     # joint residual-and-Jacobian evaluations


def least_squares(fun, x0, max_nfev: int) -> LeastSquaresResult:
    """Minimize |r(x)|^2 / 2 by Levenberg-Marquardt with Nielsen's damping.

    fun(x) returns (r, J), the residual vector and its Jacobian.  The damped
    normal equations (J^T J + mu I) h = -J^T r give the step.  When J has
    fewer rows than columns, J^T J + mu I is singular to rounding for the
    tiny mu used here, and rounding in J^T r would drive steps of size
    noise/mu along the null space of J that never stop a converged solve;
    so the step is taken as h = J^T (J J^T + mu I)^-1 (-r) instead, equal in
    exact arithmetic by the push-through identity and lying in the row
    space of J (Nocedal and Wright, Numerical Optimization, 2nd ed., 10.3).
    An accepted step scales mu by max(1/3, 1 - (2 rho - 1)^3), where rho is
    the actual over the predicted decrease, and a rejected one by nu, which
    then doubles.  Stops when the step falls below 1e-16 |x|, when the cost
    reaches 0, or after max_nfev evaluations.  A damped system that is
    singular in floating point counts as a rejected step.  There is
    deliberately no stop on a small relative decrease: slowly converging
    fallback solves still reach 1e-10 if allowed to run.
    """
    x = np.array(x0, dtype=float)
    r, J = fun(x)
    cost = 0.5 * float(r @ r)
    nfev = 1
    wide = r.size < x.size
    A, g = J.T @ J, J.T @ r
    # start near Gauss-Newton: max diag(J^T J) grows as |P|^2 on the
    # ill-conditioned reducers the pairnf fallback gets, and a damping of
    # 1e-3 of it shrinks the first step below the step stop before any
    # progress; a damping that is too small costs a few rejected steps
    mu = 1e-12 * float(np.max(np.diag(A))) or 1e-12
    nu = 2.0
    eye = np.eye(r.size if wide else x.size)
    while cost > 0.0 and nfev < max_nfev:
        try:
            if wide:
                h = J.T @ np.linalg.solve(J @ J.T + mu * eye, -r)
            else:
                h = np.linalg.solve(A + mu * eye, -g)
        except np.linalg.LinAlgError:
            # mu below the rounding of a rank-deficient system: damp harder
            mu *= nu
            nu *= 2.0
            continue
        if not np.linalg.norm(h) > 1e-16 * np.linalg.norm(x):  # also on nan
            break
        r_new, J_new = fun(x + h)
        nfev += 1
        cost_new = 0.5 * float(r_new @ r_new)
        if cost_new < cost:
            # predicted decrease of the linear model: h^T (mu h - g) / 2 > 0
            rho = (cost - cost_new) / (0.5 * float(h @ (mu * h - g)))
            x, r, J, cost = x + h, r_new, J_new, cost_new
            A, g = J.T @ J, J.T @ r
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    return LeastSquaresResult(x, cost, nfev)


# ---------------------------------------------------------------------------
# Shared JSON encoding: a complex number is [re, im], a matrix a 2x2 nested
# array of those, a pair {"A": ..., "B": ...}.
# ---------------------------------------------------------------------------

def complex_to_json(z: complex):
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, str):
        return complex(v.replace(" ", "").replace("i", "j"))
    re, im = v
    return complex(re, im)


def mat_to_json(M):
    m = M.m if isinstance(M, (Complex2x2, Sym2x2)) else np.asarray(M, dtype=complex)
    return [[complex_to_json(m[i, j]) for j in range(2)] for i in range(2)]


def mat_from_json(v) -> np.ndarray:
    return np.array([[complex_from_json(v[i][j]) for j in range(2)] for i in range(2)])


def pair_to_json(p: MatrixPair):
    return {"A": mat_to_json(p.A), "B": mat_to_json(p.B)}


def pair_from_json(v) -> MatrixPair:
    if isinstance(v, str):
        v = json.loads(v)
    return MatrixPair.of(mat_from_json(v["A"]), mat_from_json(v["B"]))
