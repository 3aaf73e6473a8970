"""Quantitative certificates: the determinant invariant p, lower bounds on
perturbations that could move one pair into another orbit, and the
unit-scalar phase/determinant estimates.

All bounds are stated for the entrywise max norm.  Distances to the
singular set are certified through the determinant perturbation bound
|det(X+F) - det(X)| <= ||F|| (4 ||X|| + 2 ||F||), which is valid entrywise
(the inverse-norm distance formula holds only for induced norms: the
rank-one symmetric matrix [[1,1],[1,1]]/2 sits at max-norm distance 1/2
from I_2, so a distance bound of ||I^{-1}||^{-1} = 1 would be unsound
here).  Solving the quadratic gives the certified radius

    r(X) = (sqrt(16 ||X||^2 + 8 |det X|) - 4 ||X||) / 4,

and for the identity the sharp value 1/2 is used directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import _rank
from .matcore import (
    Complex2x2,
    InputError,
    MatrixPair,
    max_norm,
)

__all__ = [
    "NonPathCertificate", "PreconditionViolated",
    "det_invariant_p", "nonpath_lower_bound", "phase_estimate",
]


class PreconditionViolated(InputError):
    pass


@dataclass(frozen=True)
class NonPathCertificate:
    """A certified lower bound on the perturbation needed to reach dst's
    orbit from src: no (E, F) with ||E|| < bound_E and ||F|| < bound_F can
    put src + (E, F) in the orbit of dst."""

    rule: str
    bound_E: float | None = None
    bound_F: float | None = None

    @property
    def bound(self) -> float:
        vals = [v for v in (self.bound_E, self.bound_F) if v is not None]
        return max(vals) if vals else 0.0

    def to_json(self) -> dict:
        out = {"rule": self.rule}
        if self.bound_E is not None:
            out["bound_E"] = self.bound_E
        if self.bound_F is not None:
            out["bound_F"] = self.bound_F
        return out


def det_invariant_p(src: MatrixPair, dst: MatrixPair) -> float:
    """p = |det A_src det B_dst| - |det B_src det A_dst|; vanishes along any
    closure path from src's orbit to dst's orbit."""
    return float(
        abs(np.linalg.det(src.A.m) * np.linalg.det(dst.B.m))
        - abs(np.linalg.det(src.B.m) * np.linalg.det(dst.A.m)))


def _singularity_radius(X: np.ndarray) -> float:
    """Certified max-norm distance from nonsingular X to the singular set:
    any F with det(X+F) = 0 has ||F|| (4 ||X|| + 2 ||F||) >= |det X|."""
    n = max_norm(X)
    det = abs(np.linalg.det(X))
    if max_norm(X - np.eye(2)) == 0.0:
        return 0.5  # sharp for the identity: (1-d)^2 > d^2 iff d < 1/2
    return float((np.sqrt(16.0 * n * n + 8.0 * det) - 4.0 * n) / 4.0)


def _certificates(src: MatrixPair, dst: MatrixPair, tol: float):
    As, Bs = src.A.m, src.B.m
    Ad, Bd = dst.A.m, dst.B.m
    dAs, dBs = np.linalg.det(As), np.linalg.det(Bs)
    dAd, dBd = np.linalg.det(Ad), np.linalg.det(Bd)
    certs = []
    # nonzero -> zero component
    if max_norm(As) > tol and max_norm(Ad) <= tol:
        certs.append(NonPathCertificate("NormRule", bound_E=max_norm(As)))
    if max_norm(Bs) > tol and max_norm(Bd) <= tol:
        certs.append(NonPathCertificate("NormRule", bound_F=max_norm(Bs)))
    # nonsingular -> singular component
    if abs(dAs) > tol and abs(dAd) <= tol:
        certs.append(NonPathCertificate("SingularityRule",
                                        bound_E=_singularity_radius(As)))
    if abs(dBs) > tol and abs(dBd) <= tol:
        certs.append(NonPathCertificate("SingularityRule",
                                        bound_F=_singularity_radius(Bs)))
    # full-rank B dropping rank under T-congruence: P^T B P is singular, so
    # B~ + F is singular and the singularity radius of B~ certifies F
    if _rank(Bs, tol) == 2 and _rank(Bd, tol) <= 1:
        certs.append(NonPathCertificate("TcongRule",
                                        bound_F=_singularity_radius(Bs)))
    # determinant-ratio rule
    if min(abs(dAs), abs(dBs), abs(dAd), abs(dBd)) > tol:
        p = det_invariant_p(src, dst)
        if abs(p) > tol:
            bE = min(1.0, abs(p) / (4.0 * abs(dBd) * (2.0 * max_norm(As) + 1.0)))
            bF = min(1.0, abs(p) / (4.0 * abs(dAd) * (2.0 * max_norm(Bs) + 1.0)))
            certs.append(NonPathCertificate("DetRatioRule",
                                            bound_E=bE, bound_F=bF))
    return certs


def nonpath_lower_bound(src: MatrixPair, dst: MatrixPair,
                        tol: float = 1e-9,
                        normalize: bool = True) -> NonPathCertificate | None:
    """Largest applicable certified bound, or None when no rule applies.

    None is not a claim that a path exists.  For src not already a normal
    form the certificate is computed on the classified normal form and then
    shrunk by the conservative congruence factor 4 ||Q*|| ||Q|| of the
    reducing element (set normalize=False to skip the reduction).
    """
    scale = 1.0
    if normalize:
        from .families import representative
        from .pairnf import classify_pair
        cf = classify_pair(src, max(tol, 1e-9))
        rep = representative(cf.cls)
        if max_norm(rep.A.m - src.A.m) > tol or max_norm(rep.B.m - src.B.m) > tol:
            Q = cf.reducer.P
            scale = 4.0 * max_norm(Q.conj().T) * max_norm(Q)
            src = rep
    certs = _certificates(src, dst, tol)
    if not certs:
        return None
    prio = {"TcongRule": 3, "SingularityRule": 2, "NormRule": 1, "DetRatioRule": 0}
    best = max(certs, key=lambda c: (c.bound, prio[c.rule]))
    if scale != 1.0:
        bE = None if best.bound_E is None else best.bound_E / scale
        bF = None if best.bound_F is None else best.bound_F / scale
        best = NonPathCertificate(best.rule, bound_E=bE, bound_F=bF)
    return best


def phase_estimate(src_A: Complex2x2, dst_A: Complex2x2, E_norm: float):
    """Bounds on the unit scalar and |det P| for c P* dst_A P = src_A + E.

    Returns (Delta, g_bound, r_bound): c must equal (-1)^k e^{i Delta / 2}
    up to g_bound and |det P| equals |det src_A / det dst_A|^{1/2} up to
    r_bound, provided ||E|| stays within the admissible radius
    |det src_A| / (8 ||src_A|| + 4).
    """
    As, Ad = src_A.m, dst_A.m
    dAs, dAd = np.linalg.det(As), np.linalg.det(Ad)
    if abs(dAs) == 0 or abs(dAd) == 0:
        raise PreconditionViolated("both matrices must be nonsingular")
    radius = abs(dAs) / (8.0 * max_norm(As) + 4.0)
    if not 0.0 <= E_norm <= radius:
        if not np.isfinite(E_norm):
            raise PreconditionViolated(f"E_norm must be finite, got {E_norm}")
        if E_norm < 0.0:
            raise PreconditionViolated(f"E_norm must be nonnegative, got {E_norm}")
        raise PreconditionViolated(
            f"E_norm {E_norm} exceeds admissible radius {radius}")
    delta = float(np.angle(dAs / dAd))
    g_bound = E_norm * (8.0 * max_norm(As) + 4.0) / abs(dAs)
    r_bound = E_norm * (4.0 * max_norm(As) + 2.0) / np.sqrt(abs(dAs * dAd))
    return delta, g_bound, r_bound
