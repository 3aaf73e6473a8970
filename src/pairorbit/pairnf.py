"""Full classification of a pair (A, B) into one of the 42 normal-form
families, with recovered parameters and an explicit reducing group element.

Pipeline: A is reduced to its *-congruence representative (congruence
module); the transported B is then normalized under the stabilizer of that
representative.  Each stabilizer is a small explicit group (phases for the
unimodular column, diag(x, v) with |xv| = 1 for the nilpotent column, a
phase-and-shear for the Jordan column, U(1,1) for the indefinite column,
U(2) for the definite one), and the family plus its parameters are decided
from stabilizer invariants before any numeric solve.  Both stages are
constructive.  Only when the composed reducer misses the representative by
more than 1e-10 does a numeric polish run: one structural least-squares
solve, whose result goes through the same read-back and distance as the
constructive reducer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import (
    StarTag,
    _rank,
    _sqrtm_2x2,
    classify_star,
    classify_tcong,
    takagi,
)
from .families import FAMILIES, OrbitClass, read_back, representative
from .matcore import (
    DEFAULT_TOL,
    GroupElement,
    MatrixPair,
    PairOrbitError,
    Sym2x2,
    compose,
    least_squares,
    max_norm,
    raw_act_pair,
    raw_pair_distance,
)

__all__ = ["ClassifiedPair", "StabilizerSolveFailed", "classify_pair",
           "orbit_equal"]

_RESIDUAL_FAIL = 1e-6


class StabilizerSolveFailed(PairOrbitError):
    def __init__(self, message, best_residual):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class ClassifiedPair:
    cls: OrbitClass
    reducer: GroupElement
    residual: float


_H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_J = np.diag([1.0 + 0j, -1.0])
_QJH = np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)  # Q'JQ'=H


def _zero(x, scale, tol):
    return abs(x) <= tol * scale


def _fold_phi(phi):
    """Fold an angle into [0, pi); returns (folded, flipped) where flipped
    records whether a pi-shift was applied (couples to other phases)."""
    phi = float(np.mod(phi, 2.0 * np.pi))
    if phi >= np.pi:
        return phi - np.pi, True
    return phi, False


def classify_pair(p: MatrixPair, tol: float = DEFAULT_TOL) -> ClassifiedPair:
    """Classify p, returning the family, parameters and an exact-ish reducer.

    act_pair(reducer, p) equals representative(cls) within the reported
    residual.  Raises AmbiguousNearBoundary (from the A stage) or
    StabilizerSolveFailed when the B normalization cannot reach a table form.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    star = classify_star(p.A, tol)
    g1 = star.reducer
    B1 = (g1.P.T @ p.B.m @ g1.P)
    B1 = 0.5 * (B1 + B1.T)
    scale = max(1.0, max_norm(B1))
    tag = star.cls.tag

    if tag == StarTag.ZERO:
        cls, g2 = _classify_b_zero(B1, tol, scale)
    elif tag == StarTag.DEFINITE:
        cls, g2 = _classify_b_definite(B1, tol, scale)
    elif tag == StarTag.UNIMODULAR:
        cls, g2 = _classify_b_unimodular(B1, star.cls.theta, tol, scale)
    elif tag == StarTag.RECIPROCAL:
        cls, g2 = _classify_b_reciprocal(B1, star.cls.tau, tol, scale)
    elif tag == StarTag.RANK1_SEMIDEF:
        cls, g2 = _classify_b_semidef(B1, tol, scale)
    elif tag == StarTag.RANK1_NILPOTENT:
        cls, g2 = _classify_b_nilpotent(B1, tol, scale)
    elif tag == StarTag.JORDAN:
        cls, g2 = _classify_b_jordan(B1, tol, scale)
    elif tag == StarTag.INDEFINITE:
        cls, g2 = _classify_b_indefinite(B1, tol, scale)
    else:  # pragma: no cover
        raise PairOrbitError(f"unhandled star tag {tag}")

    g = compose(g2, g1)
    cls, g, res = _polish(p, cls, g, tol)
    return ClassifiedPair(cls, g, res)


def orbit_equal(p: MatrixPair, q: MatrixPair, tol: float = DEFAULT_TOL,
                param_tol: float = 1e-6) -> bool:
    """Same orbit test: classify both and compare families and parameters."""
    cp, cq = classify_pair(p, tol), classify_pair(q, tol)
    return cp.cls.close_to(cq.cls, param_tol)


# ---------------------------------------------------------------------------
# per-column B normalization.  Each returns (OrbitClass, g2) where g2 is a
# stabilizer-ish element with act_pair(g2, (A_nf, B1)) ~ representative.
# ---------------------------------------------------------------------------

def _gel(c, P):
    c = complex(c)
    return GroupElement(c / abs(c), P)


def _classify_b_zero(B1, tol, scale):
    red = classify_tcong(Sym2x2.symmetrize(B1), tol)
    forms = {0: "zero", 1: "rank1", 2: "full"}
    cls = OrbitClass(StarTag.ZERO, forms[red.rank], {})
    return cls, _gel(1.0, red.reducer)


def _classify_b_definite(B1, tol, scale):
    U, s = takagi(B1)
    Q = U.conj()  # unitary, Q^T B1 Q = diag(s) with s descending
    # ascending order (a <= d)
    perm = np.array([[0.0, 1.0], [1.0, 0.0]])
    Q = Q @ perm
    a, d = s[1], s[0]
    if _zero(d, scale, tol):
        return OrbitClass(StarTag.DEFINITE, "zero", {}), _gel(1.0, Q)
    if _zero(a, scale, tol):
        return (OrbitClass(StarTag.DEFINITE, "d0_plus_d", {"d0": 0.0, "d": d}),
                _gel(1.0, Q))
    if abs(d - a) <= tol * scale:
        m = 0.5 * (a + d)
        return (OrbitClass(StarTag.DEFINITE, "d0_plus_d", {"d0": m, "d": m}),
                _gel(1.0, Q))
    return (OrbitClass(StarTag.DEFINITE, "a_lt_d", {"a": a, "d": d}),
            _gel(1.0, Q))


def _classify_b_unimodular(B1, theta, tol, scale):
    b1, b2, b3 = B1[0, 0], B1[0, 1], B1[1, 1]
    z1, z2, z3 = (_zero(v, scale, tol) for v in (b1, b2, b3))
    alpha = beta = 0.0
    base = {"theta": theta}
    if z1 and z2 and z3:
        cls = OrbitClass(StarTag.UNIMODULAR, "zero", base)
    elif z1 and z2:
        beta = -0.5 * np.angle(b3)
        cls = OrbitClass(StarTag.UNIMODULAR, "zero_plus_d",
                         base | {"d": abs(b3)})
    elif z2 and z3:
        alpha = -0.5 * np.angle(b1)
        cls = OrbitClass(StarTag.UNIMODULAR, "a_plus_0", base | {"a": abs(b1)})
    elif z1 and z3:
        alpha = -np.angle(b2)
        cls = OrbitClass(StarTag.UNIMODULAR, "antidiag_b", base | {"b": abs(b2)})
    elif z1:
        beta = -0.5 * np.angle(b3)
        alpha = -np.angle(b2) - beta
        cls = OrbitClass(StarTag.UNIMODULAR, "zero_b_d",
                         base | {"b": abs(b2), "d": abs(b3)})
    elif z3:
        alpha = -0.5 * np.angle(b1)
        beta = -np.angle(b2) - alpha
        cls = OrbitClass(StarTag.UNIMODULAR, "a_b_0",
                         base | {"a": abs(b1), "b": abs(b2)})
    else:
        alpha = -0.5 * np.angle(b1)
        beta = -0.5 * np.angle(b3)
        r = abs(b2)
        if z2:
            phi = 0.0
            r = 0.0
        else:
            phi, flip = _fold_phi(np.angle(b2) + alpha + beta)
            if flip:
                alpha += np.pi  # leaves e^{2i alpha} fixed, flips e^{i(a+b)}
        cls = OrbitClass(StarTag.UNIMODULAR, "generic",
                         base | {"a": abs(b1), "r": r, "phi": phi, "d": abs(b3)})
    P2 = np.diag([np.exp(1j * alpha), np.exp(1j * beta)])
    return cls, _gel(1.0, P2)


def _classify_b_reciprocal(B1, tau, tol, scale):
    b1, b2, b3 = B1[0, 0], B1[0, 1], B1[1, 1]
    z1, z2, z3 = (_zero(v, scale, tol) for v in (b1, b2, b3))
    base = {"tau": tau}
    mu = 1.0 + 0j
    s = 1.0
    if z1 and z2 and z3:
        cls = OrbitClass(StarTag.RECIPROCAL, "zero", base)
    elif z2 and not z1:
        # diagonal with b1 != 0 -> 1 (+) zeta
        mu = 1.0 / np.sqrt(b1)
        zeta = b3 * np.conj(b1)
        cls = OrbitClass(StarTag.RECIPROCAL, "one_plus_zeta",
                         base | {"zeta": zeta})
    elif z2 and z1 and not z3:
        mu = np.conj(np.sqrt(b3))
        cls = OrbitClass(StarTag.RECIPROCAL, "zero_plus_1", base)
    elif not z2 and z1 and z3:
        mu = np.exp(-0.5j * np.angle(b2))
        cls = OrbitClass(StarTag.RECIPROCAL, "antidiag_b", base | {"b": abs(b2)})
    elif not z2 and not z1:
        rho = 1.0 / np.sqrt(abs(b1))
        argmu = -0.5 * np.angle(b2)
        phi, flip = _fold_phi(np.angle(b1) + 2.0 * argmu)
        if flip:
            argmu += 0.5 * np.pi
            s = -1.0
        mu = rho * np.exp(1j * argmu)
        zeta = b3 * abs(b1) * np.exp(2j * argmu)
        cls = OrbitClass(StarTag.RECIPROCAL, "generic",
                         base | {"phi": phi, "b": abs(b2), "zeta": zeta})
    else:  # b1 = 0, b2 != 0, b3 != 0
        rho = np.sqrt(abs(b3))
        argmu = -0.5 * np.angle(b2)
        phi, flip = _fold_phi(np.angle(b3) + 2.0 * argmu)
        if flip:
            argmu += 0.5 * np.pi
            s = -1.0
        mu = rho * np.exp(1j * argmu)
        cls = OrbitClass(StarTag.RECIPROCAL, "zero_b_eiphi",
                         base | {"b": abs(b2), "phi": phi})
    P2 = np.diag([mu, s / np.conj(mu)])
    c2 = s
    return cls, _gel(c2, P2)


def _classify_b_semidef(B1, tol, scale):
    # stabilizer of diag(1,0): P = [[x, 0], [u, v]] with |x| = 1, c = 1.
    b1, b2, b3 = B1[0, 0], B1[0, 1], B1[1, 1]
    z3 = _zero(b3, scale, tol)
    if z3:
        # B can only be reduced using v-scaling and u-shear with b3 ~ 0
        z2 = _zero(b2, scale, tol)
        z1 = _zero(b1, scale, tol)
        if z1 and z2:
            return OrbitClass(StarTag.RANK1_SEMIDEF, "zero", {}), _gel(1, np.eye(2))
        if z2:
            x = np.exp(-0.5j * np.angle(b1))
            P2 = np.diag([x, 1.0])
            return (OrbitClass(StarTag.RANK1_SEMIDEF, "a_plus_0", {"a": abs(b1)}),
                    _gel(1.0, P2))
        # b2 != 0, b3 = 0: u-shear kills b1, v scales b2 to 1 -> antidiag_1
        x = 1.0 + 0j
        u = -b1 / (2.0 * b2)
        P2 = np.array([[x, 0.0], [u, 1.0]], dtype=complex)
        Bs = P2.T @ B1 @ P2
        v = 1.0 / Bs[0, 1]
        P2 = P2 @ np.diag([1.0, v])
        return (OrbitClass(StarTag.RANK1_SEMIDEF, "antidiag_1", {}),
                _gel(1.0, P2))
    # b3 != 0: v normalizes b3 to 1, u-shear kills b2, then x-phase on b1
    v = 1.0 / np.sqrt(b3)
    P2 = np.diag([1.0, v])
    Bs = P2.T @ B1 @ P2
    u = -Bs[0, 1]  # shear [[1,0],[u,1]] adds u * row/col with b22 = 1
    P3 = np.array([[1.0, 0.0], [u, 1.0]], dtype=complex)
    Bs = P3.T @ Bs @ P3
    b1n = Bs[0, 0]
    if _zero(b1n, scale, tol):
        return (OrbitClass(StarTag.RANK1_SEMIDEF, "zero_plus_1", {}),
                _gel(1.0, P2 @ P3))
    x = np.exp(-0.5j * np.angle(b1n))
    P4 = np.diag([x, 1.0])
    return (OrbitClass(StarTag.RANK1_SEMIDEF, "a_plus_1", {"a": abs(b1n)}),
            _gel(1.0, P2 @ P3 @ P4))


def _classify_b_nilpotent(B1, tol, scale):
    # stabilizer of [[0,1],[0,0]]: P = diag(x, v), |x||v| = 1, c = 1/(cj(x) v)
    b1, b2, b3 = B1[0, 0], B1[0, 1], B1[1, 1]
    z1, z2, z3 = (_zero(v, scale, tol) for v in (b1, b2, b3))
    if z1 and z2 and z3:
        return OrbitClass(StarTag.RANK1_NILPOTENT, "zero", {}), _gel(1, np.eye(2))
    if z2:
        if z3:
            rho = 1.0 / np.sqrt(abs(b1))
            x = rho * np.exp(-0.5j * np.angle(b1))
            v = 1.0 / rho
            cls = OrbitClass(StarTag.RANK1_NILPOTENT, "one_plus_0", {})
        elif z1:
            rho = np.sqrt(abs(b3))
            x = rho
            v = np.exp(-0.5j * np.angle(b3)) / rho
            cls = OrbitClass(StarTag.RANK1_NILPOTENT, "zero_plus_1", {})
        else:
            rho = np.sqrt(abs(b3))
            omega = -0.5 * np.angle(b3)
            xi = -0.5 * np.angle(b1)
            x = rho * np.exp(1j * xi)
            v = np.exp(1j * omega) / rho
            cls = OrbitClass(StarTag.RANK1_NILPOTENT, "a_plus_1",
                             {"a": abs(b1) * abs(b3)})
    elif z1 and z3:
        x = np.exp(-1j * np.angle(b2))
        v = 1.0
        cls = OrbitClass(StarTag.RANK1_NILPOTENT, "antidiag_b", {"b": abs(b2)})
    elif not z3:
        rho = np.sqrt(abs(b3))
        omega = -0.5 * np.angle(b3)
        xi = -np.angle(b2) - omega
        x = rho * np.exp(1j * xi)
        v = np.exp(1j * omega) / rho
        zeta = abs(b3) * np.exp(2j * xi) * b1
        cls = OrbitClass(StarTag.RANK1_NILPOTENT, "zeta_b_1",
                         {"zeta": zeta, "b": abs(b2)})
    else:  # b3 = 0, b1 != 0, b2 != 0
        rho = 1.0 / np.sqrt(abs(b1))
        xi = -0.5 * np.angle(b1)
        omega = -np.angle(b2) - xi
        x = rho * np.exp(1j * xi)
        v = np.exp(1j * omega) / rho
        cls = OrbitClass(StarTag.RANK1_NILPOTENT, "one_b_0", {"b": abs(b2)})
    P2 = np.diag([x, v])
    c2 = 1.0 / (np.conj(x) * v)
    return cls, _gel(c2, P2)


def _classify_b_jordan(B1, tol, scale):
    # stabilizer of [[0,1],[1,i]]: (1, v [[1, i t],[0, 1]]), |v| = 1, t real.
    b1, b2, b3 = B1[0, 0], B1[0, 1], B1[1, 1]
    z1 = _zero(b1, scale, tol)
    if z1:
        z2 = _zero(b2, scale, tol)
        if z2:
            if _zero(b3, scale, tol):
                return (OrbitClass(StarTag.JORDAN, "zero", {}),
                        _gel(1.0, np.eye(2)))
            omega = -np.angle(b3)
            P2 = np.exp(0.5j * omega) * np.eye(2)
            return (OrbitClass(StarTag.JORDAN, "zero_plus_d", {"d": abs(b3)}),
                    _gel(1.0, P2))
        omega = -np.angle(b2)
        b = abs(b2)
        t = -np.imag(np.exp(1j * omega) * b3) / (2.0 * b)
        d_res = np.real(np.exp(1j * omega) * b3)
        if abs(d_res) > np.sqrt(tol) * scale:
            raise StabilizerSolveFailed(
                "pair with Jordan-type A lies outside the tabulated B forms "
                "(antidiagonal form with a nonzero residual diagonal)", abs(d_res))
        v = np.exp(0.5j * omega)
        P2 = v * np.array([[1.0, 1j * t], [0.0, 1.0]], dtype=complex)
        return (OrbitClass(StarTag.JORDAN, "antidiag_b", {"b": b}),
                _gel(1.0, P2))
    omega = -np.angle(b1)
    a = abs(b1)
    t = -np.imag(np.exp(1j * omega) * b2) / a
    b_res = np.real(np.exp(1j * omega) * b2)
    if abs(b_res) > np.sqrt(tol) * scale:
        raise StabilizerSolveFailed(
            "pair with Jordan-type A lies outside the tabulated B forms "
            "(diagonal form with a nonzero residual off-diagonal)", abs(b_res))
    eio = np.exp(1j * omega)
    zeta = eio * (b3 + 2j * t * b2 - t * t * b1)
    v = np.exp(0.5j * omega)
    P2 = v * np.array([[1.0, 1j * t], [0.0, 1.0]], dtype=complex)
    return (OrbitClass(StarTag.JORDAN, "a_plus_zeta", {"a": a, "zeta": zeta}),
            _gel(1.0, P2))


def _classify_b_indefinite(B1, tol, scale):
    """Decide among the seven indefinite-column forms via the similarity
    invariant K = J conj(B) J B, then build a reducer from its eigenvectors."""
    rank = _rank(B1, tol)
    K = _J @ B1.conj() @ _J @ B1
    if rank == 0:
        return OrbitClass(StarTag.INDEFINITE, "zero", {}), _gel(1.0, np.eye(2))
    if rank == 1:
        if max_norm(K) <= np.sqrt(tol) * scale ** 2:
            return _reduce_indef_h10(B1)
        kappa = float(np.real(np.trace(K)))
        d = np.sqrt(abs(kappa))
        return _reduce_indef_eigvec(B1, K,
                                    OrbitClass(StarTag.INDEFINITE, "d0_plus_d",
                                               {"d0": 0.0, "d": d}))
    evals = np.linalg.eigvals(K)
    lam1, lam2 = evals
    lam_scale = max(abs(lam1), abs(lam2), tol)
    imag_big = max(abs(lam1.imag), abs(lam2.imag)) > np.sqrt(tol) * lam_scale
    if imag_big:
        lam = lam1 if lam1.imag > 0 else lam2
        d = abs(lam)
        theta = abs(np.angle(lam))
        cls = OrbitClass(StarTag.INDEFINITE, "h_one_plus_de",
                         {"d": d, "theta": theta})
        return _reduce_indef_hside(B1, K, cls)
    re1, re2 = sorted([lam1.real, lam2.real])
    if re2 < 0:
        b = np.sqrt(abs(0.5 * (re1 + re2)))
        cls = OrbitClass(StarTag.INDEFINITE, "antidiag_b", {"b": b})
        return _reduce_indef_antidiag(B1, cls)
    if abs(re2 - re1) <= np.sqrt(tol) * lam_scale:
        lam = 0.5 * (re1 + re2)
        defect = max_norm(K - lam * np.eye(2))
        if defect > np.sqrt(tol) * lam_scale:
            b = np.sqrt(abs(lam))
            cls = OrbitClass(StarTag.INDEFINITE, "h_zero_b_1", {"b": b})
            return _reduce_indef_hside(B1, K, cls)
        d = np.sqrt(abs(lam))
        cls = OrbitClass(StarTag.INDEFINITE, "d0_plus_d", {"d0": d, "d": d})
        return _reduce_indef_scalar(B1, cls)
    a, d = np.sqrt(abs(re1)), np.sqrt(abs(re2))
    cls = OrbitClass(StarTag.INDEFINITE, "a_lt_d", {"a": a, "d": d})
    return _reduce_indef_eigvec(B1, K, cls)


def _require_frame(P, cls):
    """Raise StabilizerSolveFailed when the reducer's frame P is singular."""
    det = abs(np.linalg.det(P))
    if det < 1e-12:
        raise StabilizerSolveFailed(
            f"singular reducer frame for family {cls.key()} "
            f"(|det P| = {det:.3e})", np.inf)


def _reduce_indef_eigvec(B1, K, cls):
    """Diagonal targets diag(x, y): columns of P are K-eigenvectors scaled to
    make P* J P = J and P^T B1 P the target.  When the eigenvector carrying
    the (1,1) slot is J-negative, the result is composed with the swap
    stabilizer (c, P) = (-1, P sigma)."""
    target = representative(cls).B.m
    evals, vecs = np.linalg.eig(K)
    order = np.argsort(np.abs(evals))  # small first: a-slot / kernel first
    v1, v2 = vecs[:, order[0]], vecs[:, order[1]]
    n1 = float(np.real(np.vdot(v1, _J @ v1)))
    n2 = float(np.real(np.vdot(v2, _J @ v2)))
    c2 = 1.0
    swap = False
    if n1 < 0 and n2 > 0:
        # build P with the J-positive vector first (it then carries the
        # larger B value), and swap back through the stabilizer
        v1, v2 = v2, v1
        n1, n2 = n2, n1
        swap = True
    if not (n1 > 0 and n2 < 0):
        raise StabilizerSolveFailed(
            f"no J-positive and J-negative K-eigenvector pair for family "
            f"{cls.key()}", np.inf)
    want = [target[1, 1], target[0, 0]] if swap else \
        [target[0, 0], target[1, 1]]
    P = np.zeros((2, 2), dtype=complex)
    for i, (v, jn) in enumerate([(v1, n1), (v2, n2)]):
        mag = 1.0 / np.sqrt(abs(jn))
        bv = (v * mag) @ B1 @ (v * mag)
        w = complex(want[i])
        if abs(bv) > 1e-300 and abs(w) > 0:
            ph = np.exp(-0.5j * np.angle(bv / w))
        else:
            ph = 1.0
        P[:, i] = v * mag * ph
    if swap:
        P = P @ np.array([[0.0, 1.0], [1.0, 0.0]])
        c2 = -1.0
    _require_frame(P, cls)
    return cls, _gel(c2, P)


def _reduce_indef_scalar(B1, cls):
    # target d * I2: P = sqrtm(B1 / d)^{-1} is symmetric, then polished
    d = float(np.real(cls.params["d"]))
    C = B1 / d
    P = np.linalg.inv(_sqrtm_2x2(C))
    return cls, _gel(1.0, P)


def _reduce_indef_antidiag(B1, cls):
    b = float(np.real(cls.params["b"]))
    # isotropic direction of B1 inside the J-positive cone
    b1, b2, b3 = B1[0, 0], B1[0, 1], B1[1, 1]
    roots = np.roots([b3, 2.0 * b2, b1]) if abs(b3) > 0 else \
        np.array([-b1 / (2.0 * b2)])
    z = min(roots, key=lambda r: abs(r))
    p1h = np.array([1.0, z])
    n1 = np.real(np.vdot(p1h, _J @ p1h))
    if n1 <= 0:
        z = max(roots, key=lambda r: abs(r))
        p1h = np.array([1.0, z]) if abs(z) < np.inf else np.array([0.0, 1.0])
        n1 = np.real(np.vdot(p1h, _J @ p1h))
    p2h = np.array([np.conj(z), 1.0])
    n2 = np.real(np.vdot(p2h, _J @ p2h))
    P = np.eye(2, dtype=complex)
    if n1 > 0 and n2 < 0:
        g1 = 1.0 / np.sqrt(n1)
        g2 = 1.0 / np.sqrt(-n2)
        cross = (p1h * g1) @ B1 @ (p2h * g2)
        ph = np.exp(-1j * np.angle(cross / b)) if abs(cross) > 0 else 1.0
        P = np.column_stack([p1h * g1, p2h * g2 * ph])
    return cls, _gel(1.0, P)


def _reduce_indef_h10(B1):
    """Rank-1 B with K = 0: the ([[0,1],[1,0]], diag(1,0)) family."""
    cls = OrbitClass(StarTag.INDEFINITE, "h_one_plus_0", {})
    U, s = takagi(B1)
    w = U[:, 0] * np.sqrt(s[0])  # B1 = w w^T
    # map w to the J-null direction (1,1)/sqrt(2) within U(1,1), then move
    # to H coordinates with Q'.
    a1, a2 = abs(w[0]), abs(w[1])
    if a1 < 1e-150 or a2 < 1e-150:
        return cls, _gel(1.0, _QJH)
    Pph = np.diag([np.exp(-1j * np.angle(w[0])), np.exp(-1j * np.angle(w[1]))])
    rho = np.sqrt(a1 * a2)
    # boost scaling the null direction: diag-boost in J coordinates
    t = 1.0 / (rho * np.sqrt(2.0))
    sboost = np.log(t)
    ch, sh = np.cosh(sboost), np.sinh(sboost)
    boost = np.array([[ch, sh], [sh, ch]], dtype=complex)
    # balance |w1| != |w2| first (they are equal in theory; polish fixes rest)
    bal = np.diag([np.sqrt(a2 / a1), np.sqrt(a1 / a2)]) if a1 > 0 else np.eye(2)
    P = Pph @ bal @ boost @ _QJH
    return cls, _gel(1.0, P)


def _reduce_indef_hside(B1, K, cls):
    """Targets written over A = [[0,1],[1,0]]: transport with Q' then use
    K-eigenvectors (or a generalized eigenvector for the defective case)."""
    B2 = _QJH.T @ B1 @ _QJH
    K2 = _H @ B2.conj() @ _H @ B2
    target = representative(cls).B.m
    c2 = 1.0
    if cls.b_form == "h_one_plus_de":
        lam = cls.params["d"] * np.exp(-1j * float(np.real(cls.params["theta"])))
        evals, vecs = np.linalg.eig(K2)
        i1 = int(np.argmin(np.abs(evals - lam)))
        p1, p2 = vecs[:, i1], vecs[:, 1 - i1]
        b11 = p1 @ B2 @ p1
        g1 = 1.0 / np.sqrt(b11) if abs(b11) > 0 else 1.0
        h12 = np.vdot(p1 * g1, _H @ p2)
        g2 = 1.0 / h12 if abs(h12) > 0 else 1.0
        P = np.column_stack([p1 * g1, p2 * g2])
    else:  # h_zero_b_1: defective K2 with eigenvalue b^2
        b = float(np.real(cls.params["b"]))
        lam = 0.5 * np.trace(K2)
        N = K2 - lam * np.eye(2)
        _, _, vh = np.linalg.svd(N)
        v = vh[-1, :].conj()
        g = np.linalg.lstsq(N, 2.0 * b * v, rcond=None)[0]
        # g*H*g = 0 via the generalized-eigenvector freedom g -> g + t v
        # (g*Hg is real since H is Hermitian; v*Hv = 0 automatically)
        hvg = np.vdot(v, _H @ g)
        hgg = float(np.real(np.vdot(g, _H @ g)))
        if abs(hvg) > 1e-12:
            t = -hgg / (2.0 * np.conj(hvg))
            g = g + t * v
            hvg = np.vdot(v, _H @ g)
        # v*Hg is real for the true frame; its sign picks the unit scalar
        # (P*HP = -H composes with c = -1), and a joint real scaling
        # (v, g) -> (gamma v, gamma g) normalizes the modulus to 1
        h = float(np.real(hvg))
        if h < 0:
            c2 = -1.0
            h = -h
        if h > 1e-12:
            gamma = 1.0 / np.sqrt(h)
            v, g = gamma * v, gamma * g
        # the H-form is blind to a common phase and to an imaginary shear
        # g -> g + iy v; both are pinned by the bilinear B entries:
        # v^T B2 g must equal b > 0 and Im(g^T B2 g) must vanish
        w12 = v @ B2 @ g
        if abs(w12) > 1e-12:
            ph = np.exp(-0.5j * np.angle(w12))
            v, g = ph * v, ph * g
            w12 = v @ B2 @ g
        if abs(w12) > 1e-12:
            y = -np.imag(g @ B2 @ g) / (2.0 * np.real(w12))
            g = g + 1j * y * v
        P = np.column_stack([v, g])
        _require_frame(P, cls)
    return cls, _gel(c2, _QJH @ P)


# ---------------------------------------------------------------------------
# polish: structural least squares, then parameter read-back
# ---------------------------------------------------------------------------

def _pack(g: GroupElement):
    return np.concatenate([[np.angle(g.c)], g.P.view(float).ravel()])


def _unpack(x):
    c = np.exp(1j * x[0])
    P = x[1:].view(complex).reshape(2, 2).copy()
    return c, P


def _b_coords(B):
    """The six real B coordinates; along the first axis for a stack of B."""
    b11, b12, b22 = B[..., 0, 0], B[..., 0, 1], B[..., 1, 1]
    return np.array([b11.real, b11.imag, b12.real, b12.imag, b22.real, b22.imag])


_I2 = np.eye(2)


def _act_jac(x, A, B):
    """(c P* A P, P^T B P) at the packed x and their derivatives along the 9
    packed coordinates (arg c, Re P11, Im P11, Re P12, ..., Im P22), each a
    (9, 2, 2) complex array."""
    c, P = _unpack(x)
    # rounded as act_pair rounds them, so the residual reads what
    # pair_distance will
    AP, PhA, PtB = A @ P, P.conj().T @ A, P.T @ B
    At = c * (PhA @ P)
    Bt = PtB @ P
    BP = PtB.T  # B is symmetric
    # dP = E = e_j e_k^T: E^T M moves row j of M to row k, N E moves
    # column j of N to column k; dP = i E gives -i E^T M and i N E.
    rows_AP = np.einsum("ka,jb->jkab", _I2, AP).reshape(4, 2, 2)
    cols_PhA = np.einsum("aj,kb->jkab", PhA, _I2).reshape(4, 2, 2)
    rows_BP = np.einsum("ka,jb->jkab", _I2, BP).reshape(4, 2, 2)
    dB_re = rows_BP + rows_BP.transpose(0, 2, 1)
    dA = np.empty((9, 2, 2), dtype=complex)
    dB = np.zeros((9, 2, 2), dtype=complex)
    dA[0] = 1j * At
    dA[1::2] = c * (rows_AP + cols_PhA)
    dA[2::2] = 1j * c * (cols_PhA - rows_AP)
    dB[1::2] = dB_re
    dB[2::2] = 1j * dB_re
    return At, Bt, dA, dB


def _real_rows(dM):
    """Jacobian rows of M.view(float).ravel() from (9, 2, 2) derivatives."""
    return dM.view(float).reshape(9, 8).T


def _structural_residual(pair, cls, A_nf):
    """Residual and Jacobian pinning only the structurally fixed coordinates
    (FamilySpec.b_pins): A, the constant and positive B slots, and |b| = 1
    on the unit-modulus slots."""
    pinned, units = FAMILIES[cls.key()].b_pins()
    tgt = _b_coords(representative(cls).B.m)[pinned]
    A, Bm = pair.A.m, pair.B.m

    def fun(x):
        At, Bt, dA, dB = _act_jac(x, A, Bm)
        r = [(At - A_nf).view(float).ravel(), _b_coords(Bt)[pinned] - tgt]
        J = [_real_rows(dA), _b_coords(dB)[pinned]]
        for i, j in units:
            b, db = Bt[i, j], dB[:, i, j]
            r.append([abs(b) - 1.0])
            J.append([np.real(np.conj(b) * db) / max(abs(b), 1e-300)])
        return np.concatenate(r), np.vstack(J)

    return fun


def _read_off(pair, cls, c, P, tol):
    """(class read back from the raw act_pair((c, P), pair), its distance to
    that class's representative), or (None, inf).  Raw entries keep the nan
    or inf that act_pair would reject, so they fail any gate."""
    Af, Bf = raw_act_pair(c, P, pair)
    try:
        cls2 = read_back(cls, Bf, tol)
        return cls2, raw_pair_distance(Af, Bf, representative(cls2))
    except ValueError:
        return None, np.inf


def _polish(pair, cls, g, tol):
    """(class, reducer, residual): g itself when the constructive reducer
    lands within 1e-10 of the representative, else the result of one
    structural least-squares solve if it lands within _RESIDUAL_FAIL."""
    cls0, r0 = _read_off(pair, cls, g.c, g.P, tol)
    if r0 <= 1e-10:
        return cls0, g, r0
    fun = _structural_residual(pair, cls, representative(cls).A.m)
    c, P = _unpack(least_squares(fun, _pack(g), max_nfev=400).x)
    res = np.inf
    if abs(np.linalg.det(P)) > 1e-12:
        cls2, res = _read_off(pair, cls, c, P, tol)
        if res <= _RESIDUAL_FAIL:
            return cls2, GroupElement(c / abs(c), P), res
    raise StabilizerSolveFailed(
        f"B normalization stalled for family {cls.key()}", res)
