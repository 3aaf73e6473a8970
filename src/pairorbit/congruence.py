"""Classification of a single 2x2 matrix up to unit-scaled *-congruence,
and of a symmetric matrix up to T-congruence.

A nonsingular A is sorted by the exact invariant kappa = t / (2 |det A|),
t = 2 Re(a11 conj a22) - |a12|^2 - |a21|^2, read against its computed
first-order rounding bound e: |kappa| <= 1 - e is unimodular (kappa =
cos theta) and kappa < -1 - e reciprocal (kappa = -(1 + tau^2) / (2 tau)).
theta and tau themselves are read from the cosquare eigenvector frame that
reduces A, which stays accurate where inverting kappa would not.  At
kappa = +-1 within e the cosquare (A*)^{-1} A has a double eigenvalue of
modulus 1.  If its non-scalar part is within rounding, A is definite
(kappa = 1) or indefinite (kappa = -1); otherwise it is unimodular with a
tiny angle (above tol, at kappa = 1) or Jordan (above sqrt(tol), at
kappa = -1), and in between it is undecided.

Every reducer is closed form, built from cosquare eigenvectors (and, for a
defective cosquare, a generalized eigenvector) as in the cosquare frames of
Horn and Sergeichuk; no numeric solve runs, and the returned residual is
the measured distance of the reduced matrix from the representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    Complex2x2,
    GroupElement,
    PairOrbitError,
    SingularInput,
    Sym2x2,
    act_star,
    max_norm,
)

__all__ = [
    "StarTag",
    "StarClass",
    "StarReduction",
    "TCongReduction",
    "AmbiguousNearBoundary",
    "cosquare",
    "classify_star",
    "classify_tcong",
    "takagi",
    "star_representative",
    "STAR_DIMS",
]


class AmbiguousNearBoundary(PairOrbitError):
    """The input sits within tolerance of two distinct families."""

    def __init__(self, message, candidates):
        super().__init__(f"{message}; candidates: {candidates}")
        self.candidates = candidates


class StarTag:
    ZERO = "zero"
    RANK1_SEMIDEF = "rank1_semidef"
    RANK1_NILPOTENT = "rank1_nilpotent"
    DEFINITE = "definite"
    INDEFINITE = "indefinite"
    RECIPROCAL = "reciprocal"
    UNIMODULAR = "unimodular"
    JORDAN = "jordan"

    ALL = (ZERO, RANK1_SEMIDEF, RANK1_NILPOTENT, DEFINITE, INDEFINITE,
           RECIPROCAL, UNIMODULAR, JORDAN)


# Dimensions of the Psi_1 orbits of the eight vertex families.
STAR_DIMS = {
    StarTag.ZERO: 0,
    StarTag.RANK1_SEMIDEF: 4,
    StarTag.RANK1_NILPOTENT: 6,
    StarTag.DEFINITE: 5,
    StarTag.INDEFINITE: 5,
    StarTag.RECIPROCAL: 7,
    StarTag.UNIMODULAR: 7,
    StarTag.JORDAN: 7,
}


@dataclass(frozen=True)
class StarClass:
    """One of the eight vertex families, with its continuous parameter."""

    tag: str
    theta: float | None = None  # in (0, pi), unimodular only
    tau: float | None = None    # in (0, 1), reciprocal only

    def __post_init__(self):
        if self.tag == StarTag.UNIMODULAR:
            if self.theta is None or not (0.0 < self.theta < np.pi):
                raise ValueError("unimodular class needs theta in (0, pi)")
        elif self.tag == StarTag.RECIPROCAL:
            if self.tau is None or not (0.0 < self.tau < 1.0):
                raise ValueError("reciprocal class needs tau in (0, 1)")
        elif self.theta is not None or self.tau is not None:
            raise ValueError(f"{self.tag} takes no parameter")

    @property
    def dim(self) -> int:
        return STAR_DIMS[self.tag]


# the parameter-free representatives, built once; Complex2x2 is read-only
_STAR_REPS = {
    StarTag.ZERO: Complex2x2(np.zeros((2, 2))),
    StarTag.RANK1_SEMIDEF: Complex2x2(np.diag([1.0, 0.0])),
    StarTag.RANK1_NILPOTENT: Complex2x2([[0.0, 1.0], [0.0, 0.0]]),
    StarTag.DEFINITE: Complex2x2(np.eye(2)),
    StarTag.INDEFINITE: Complex2x2(np.diag([1.0, -1.0])),
    StarTag.JORDAN: Complex2x2([[0.0, 1.0], [1.0, 1j]]),
}


def star_representative(cls: StarClass) -> Complex2x2:
    """The exact normal-form matrix of the family.  The six parameter-free
    families share one read-only instance each."""
    t = cls.tag
    if t == StarTag.RECIPROCAL:
        return Complex2x2([[0.0, 1.0], [cls.tau, 0.0]])
    if t == StarTag.UNIMODULAR:
        return Complex2x2(np.diag([1.0, np.exp(1j * cls.theta)]))
    try:
        return _STAR_REPS[t]
    except KeyError:
        raise ValueError(f"unknown tag {t}") from None


@dataclass(frozen=True)
class StarReduction:
    cls: StarClass
    reducer: GroupElement
    residual: float


@dataclass(frozen=True)
class TCongReduction:
    rank: int
    reducer: np.ndarray = field(repr=False)
    residual: float = 0.0


def cosquare(A: Complex2x2, tol: float = DEFAULT_TOL) -> Complex2x2:
    """(A*)^{-1} A, the standard *-congruence invariant; needs A nonsingular."""
    m = A.m
    if abs(np.linalg.det(m)) <= tol:
        raise SingularInput("cosquare needs |det A| > tol")
    return Complex2x2(np.linalg.solve(m.conj().T, m))


def takagi(B: np.ndarray):
    """Takagi factorization B = U diag(s) U^T with U unitary, s >= 0 descending.

    Built from the SVD with a phase correction on blocks of equal singular
    values; B must be symmetric.
    """
    B = np.asarray(B, dtype=complex)
    V, s, Wh = np.linalg.svd(B)
    W = Wh.conj().T
    # Z = V^T W is block diagonal w.r.t. groups of equal singular values,
    # unitary and symmetric there; U = V conj(sqrt(Z)) gives B = U diag(s) U^T.
    Z = V.T @ W
    U = np.zeros((2, 2), dtype=complex)
    scale = max(1.0, s[0])
    if s[0] - s[1] > 1e-12 * scale:
        sq = np.diag(np.sqrt(np.diag(Z)))
    else:
        # equal (or both zero) singular values: matrix square root of 2x2 Z
        sq = _sqrtm_2x2(Z)
    U = V @ sq.conj()
    return U, s


def _sqrtm_2x2(Z: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 matrix via its Schur form."""
    evals, vecs = np.linalg.eig(Z)
    if np.linalg.matrix_rank(vecs) < 2:
        # defective: fall back to a series-free direct formula
        tr = np.trace(Z)
        det = np.linalg.det(Z)
        s = np.sqrt(det)
        t = np.sqrt(tr + 2 * s)
        return (Z + s * np.eye(2)) / t
    return vecs @ np.diag(np.sqrt(evals.astype(complex))) @ np.linalg.inv(vecs)


def classify_tcong(B: Sym2x2, tol: float = DEFAULT_TOL) -> TCongReduction:
    """Rank of B under T-congruence plus a reducer Q with Q^T B Q = 1..1,0..0."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    U, s = takagi(B.m)
    cutoff = tol * max(1.0, max_norm(B))
    rank = int(np.sum(s > cutoff))
    scale = np.ones(2)
    scale[:rank] = 1.0 / np.sqrt(s[:rank])
    Q = U.conj() @ np.diag(scale)
    got = Q.T @ B.m @ Q
    want = np.diag([1.0 if i < rank else 0.0 for i in range(2)])
    return TCongReduction(rank=rank, reducer=Q, residual=max_norm(got - want))


# ---------------------------------------------------------------------------
# classify_star
# ---------------------------------------------------------------------------

def _rank(m: np.ndarray, tol: float) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))


def classify_star(A: Complex2x2, tol: float = DEFAULT_TOL) -> StarReduction:
    """Classify A up to unit-scaled *-congruence with an explicit reducer.

    The reducer g satisfies act_star(g, A) == representative within the
    returned residual.  Raises AmbiguousNearBoundary when kappa = +-1
    within its bound and the cosquare's non-scalar part lies between its
    rounding bound and tol (at +1) or sqrt(tol) (at -1), or when a
    reciprocal tau is at most tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = A.m
    scale = max(1.0, max_norm(A))
    r = _rank(m, tol)

    if r == 0:
        cls = StarClass(StarTag.ZERO)
        g = GroupElement(1.0, np.eye(2))
        return StarReduction(cls, g, max_norm(m))

    if r == 1:
        return _classify_rank1(m, tol, scale)

    return _classify_rank2(m, tol)


def _finish(cls: StarClass, A: np.ndarray, c, P) -> StarReduction:
    g = GroupElement(c / abs(c), P)
    res = max_norm(act_star(g, Complex2x2(A)).m - star_representative(cls).m)
    return StarReduction(cls, g, res)


def _classify_rank1(m, tol, scale):
    # A = sigma * u v*.  The two rank-1 orbits are separated by whether A is
    # a phase times a Hermitian matrix (factors parallel) or not.
    U, s, Vh = np.linalg.svd(m)
    u = U[:, 0]
    v = Vh[0, :].conj()
    t = np.trace(m)
    semidef = False
    if abs(t) > tol * scale:
        M = np.exp(-1j * np.angle(t)) * m
        semidef = max_norm(M - M.conj().T) <= 2 * tol * scale
    if semidef:
        cls = StarClass(StarTag.RANK1_SEMIDEF)
        # unitary sending u -> e1, then scale so c P* A P = diag(1, 0)
        Q = np.column_stack([u, np.array([-np.conj(u[1]), np.conj(u[0])])])
        lam = np.vdot(u, m @ u)
        c = np.conj(lam) / abs(lam)
        P = Q @ np.diag([1.0 / np.sqrt(abs(lam)), 1.0])
        return _finish(cls, m, c, P)
    cls = StarClass(StarTag.RANK1_NILPOTENT)
    # want c P* A P = e1 e2*: P* must send u -> e1-line and v -> e2-line,
    # so P = (M*)^{-1} for M = [u, v], then a column rescale.
    M = np.column_stack([u, v])
    P = np.linalg.inv(M.conj().T)
    val = (P.conj().T @ m @ P)[0, 1]
    c = np.conj(val) / abs(val)
    P = P @ np.diag([1.0, 1.0 / abs(val)])
    return _finish(cls, m, c, P)


_EPS = np.finfo(float).eps
# constant of the first-order rounding bounds on kappa and the cosquare
_KAPPA_C = 8.0


def _kappa(m):
    """kappa = t / (2 |det A|) with t = 2 Re(a11 conj a22) - |a12|^2 - |a21|^2,
    its first-order rounding bound, and ||A||_F^2 / |det A| >= cond(A).

    det(A - lam A*) = det A - t lam + conj(det A) lam^2, and under (c, P) both
    t and |det A| scale by |det P|^2, so kappa is an exact invariant: 1 on the
    definite family, cos(theta) on the unimodular one, -1 on the indefinite
    and Jordan ones and -(1 + tau^2) / (2 tau) on the reciprocal one.  All
    three are scale-free; they are computed on A / max|a_ij| so that no
    product overflows or underflows.
    """
    a11, a12, a21, a22 = (m / max_norm(m)).ravel().tolist()
    p11, p12 = abs(a11 * a22), abs(a12 * a21)
    n11, n12, n21, n22 = (abs(a) * abs(a) for a in (a11, a12, a21, a22))
    det = abs(a11 * a22 - a12 * a21)
    kappa = ((a11 * a22.conjugate()).real - 0.5 * (n12 + n21)) / det
    err = _KAPPA_C * _EPS * (2 * p11 + n12 + n21
                             + 2 * abs(kappa) * (p11 + p12)) / det
    return kappa, err, (n11 + n12 + n21 + n22) / det


def _classify_rank2(m, tol):
    kappa, err, frob = _kappa(m)
    W = np.linalg.solve(m.conj().T, m)  # cosquare
    if -1.0 + err <= kappa <= 1.0 - err:
        return _reduce_unimodular(m, W)
    if kappa < -1.0 - err:
        return _reduce_reciprocal(m, W, tol)
    # kappa = +-1 within its bound: a double cosquare eigenvalue of modulus
    # 1.  A scalar cosquare is definite (kappa = 1) or indefinite (-1); a
    # non-scalar one is a tiny unimodular angle at 1 and, at -1, Jordan if
    # its eigenvalues agree within sqrt(tol) (defective: they split like the
    # square root of the noise).  The non-scalar part is told from rounding
    # by the first-order bound on W's entries.
    lam = 0.5 * np.trace(W)
    off = max_norm(W - lam * np.eye(2))
    if off <= _KAPPA_C * _EPS * frob:
        return _reduce_scalar_cosquare(m, lam)
    if kappa > 0:
        if off > tol:
            return _reduce_unimodular(m, W)
    elif off > np.sqrt(tol):
        l1, l2 = np.linalg.eigvals(W)
        if abs(l1 - l2) <= np.sqrt(tol) * max(1.0, abs(l1), abs(l2)):
            return _reduce_jordan(m, W)
    raise AmbiguousNearBoundary(
        f"cosquare at kappa = {kappa:+.0f} with non-scalar part {off:.3g}",
        [StarTag.DEFINITE, StarTag.UNIMODULAR] if kappa > 0 else
        [StarTag.INDEFINITE, StarTag.JORDAN, StarTag.RECIPROCAL, StarTag.UNIMODULAR])


def _reduce_scalar_cosquare(m, lam):
    # A^{-*} A = mu I with |mu| = 1; A / nu is Hermitian for nu^2 = mu.
    nu = np.sqrt(lam / abs(lam))
    H = m / nu
    w, Q = np.linalg.eigh(0.5 * (H + H.conj().T))  # ascending
    if w[0] > 0 or w[1] < 0:  # one sign
        cls, c = StarClass(StarTag.DEFINITE), np.sign(w[0]) / nu
    else:  # positive eigenvalue first
        cls, c, w, Q = StarClass(StarTag.INDEFINITE), 1.0 / nu, w[::-1], Q[:, ::-1]
    return _finish(cls, m, c, Q @ np.diag(1.0 / np.sqrt(np.abs(w))))


def _reduce_unimodular(m, W):
    _, vecs = np.linalg.eig(W)
    v1 = vecs[:, 0]
    v2 = vecs[:, 1]
    q1 = np.vdot(v1, m @ v1)
    q2 = np.vdot(v2, m @ v2)
    # order so that the second value sits at +theta from the first
    if np.angle(q2 / q1) < 0:
        v1, v2, q1, q2 = v2, v1, q2, q1
    theta = float(np.angle(q2 / q1))
    theta = min(max(theta, 10 * _EPS), np.pi - 10 * _EPS)
    cls = StarClass(StarTag.UNIMODULAR, theta=theta)
    P = np.column_stack([v1 / np.sqrt(abs(q1)), v2 / np.sqrt(abs(q2))])
    c = np.conj(q1) / abs(q1)
    return _finish(cls, m, c, P)


def _reduce_reciprocal(m, W, tol):
    # cosquare eigenvectors with non-unimodular eigenvalues are A-isotropic,
    # so P = [a v1, b v2] gives an antidiagonal P* A P.  tau = |g21 / g12|
    # is read from that frame (as accurate as kappa for small tau, and not
    # amplified by 1 / sqrt(kappa^2 - 1) near tau = 1), with v1 the
    # eigenvector of the smaller eigenvalue modulus, for which |g21| < |g12|.
    _, vecs = np.linalg.eig(W)
    v1, v2 = vecs[:, 0], vecs[:, 1]
    g12, g21 = np.vdot(v1, m @ v2), np.vdot(v2, m @ v1)
    if abs(g21) > abs(g12):
        v1, v2, g12, g21 = v2, v1, g21, g12
    tau = float(abs(g21 / g12))
    if tau <= tol:
        raise AmbiguousNearBoundary(
            "reciprocal parameter within tol of 0 (nilpotent boundary)",
            [StarTag.RECIPROCAL, StarTag.RANK1_NILPOTENT])
    # c conj(a) b g12 = 1 and c conj(b) a g21 = tau: a = |g12|^(-1/2) and
    # b = a e^{i beta} with e^{2 i beta} the phase of g21 / g12
    a = abs(g12) ** -0.5
    b = a * np.exp(0.5j * np.angle(g21 / g12))
    c = np.conj(a * b * g12)
    P = np.column_stack([a * v1, b * v2])
    return _finish(StarClass(StarTag.RECIPROCAL, tau=tau), m, c, P)


def _reduce_jordan(m, W):
    """Reducer onto [[0,1],[1,i]] for defective cosquare.

    With c P* A P = Ji the cosquares satisfy W = (1/c^2) P W_Ji P^{-1}, so
    the first column of P is a W-eigenvector v, the second a generalized
    eigenvector g with (W - lam) g = 2 i lam v, lam = 1/c^2.  The remaining
    freedom, a real scale gamma of (v, g) and a real shift g -> g + s v,
    normalizes the (1,2) entry to 1 and the real part of the (2,2) entry
    to 0.
    """
    lam = 0.5 * np.trace(W)
    lam = lam / abs(lam)
    N = W - lam * np.eye(2)
    _, _, vh = np.linalg.svd(N)
    v = vh[-1, :].conj()
    g0 = np.linalg.lstsq(N, 2j * lam * v, rcond=None)[0]
    c = 1.0 / np.sqrt(lam)
    k = c * np.vdot(v, m @ g0)
    if k.real < 0:
        c, k = -c, -k
    gamma = abs(k) ** -0.5
    s = -gamma * np.real(c * gamma ** 2 * np.vdot(g0, m @ g0)) / 2
    P = np.column_stack([gamma * v, gamma * g0 + s * v])
    return _finish(StarClass(StarTag.JORDAN), m, c, P)
