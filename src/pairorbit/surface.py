"""Reduction of second-order jet data of a real 4-manifold graphed in C^3
near a complex point to the standard quadratic pair (A, B), plus the
quadratic flatness test.

The graph is w = w0 + s^T conj(z) + r^T z + conj(z)^T A z
+ (1/2) conj(z)^T B conj(z) + (1/2) z^T C z + o(|z|^2).  When the linear
antiholomorphic coefficient s is small, the complex point is relocated to
the nearby zero of the antiholomorphic gradient, the tangent plane is
straightened by subtracting the holomorphic part w0' + r'^T z
+ (1/2) z^T (C - conj(B)) z, and the surviving quadratic part is exactly

    conj(z)^T A z + Re(z^T conj(B) z),

so the output pair is (A, conj(B)).  The substitution is validated against
a polynomial-sampling oracle in the tests rather than transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    Complex2x2,
    InputError,
    MatrixPair,
    Sym2x2,
    max_norm,
)

__all__ = ["JetData", "JetReduction", "NotStandardPosition", "reduce_jet",
           "is_quadratically_flat", "jet_value", "jet_to_json",
           "jet_from_json"]

_S_RADIUS = 0.1


class NotStandardPosition(InputError):
    """The antiholomorphic linear term exceeds the near-identity radius."""


@dataclass(frozen=True)
class JetData:
    """Degree-2 jet of the graph function at the origin."""

    w0: complex
    lin_z: np.ndarray        # r: coefficient of z
    lin_zbar: np.ndarray     # s: coefficient of conj(z); zero when unperturbed
    A: Complex2x2
    B: Sym2x2
    C: Sym2x2

    @staticmethod
    def of(w0, lin_z, lin_zbar, A, B, C) -> "JetData":
        w0 = complex(w0)
        lin_z = np.asarray(lin_z, dtype=complex).reshape(2)
        lin_zbar = np.asarray(lin_zbar, dtype=complex).reshape(2)
        if not np.isfinite([w0, *lin_z, *lin_zbar]).all():
            raise ValueError("w0, lin_z and lin_zbar must be finite")
        return JetData(w0, lin_z, lin_zbar,
                       A if isinstance(A, Complex2x2) else Complex2x2(A),
                       B if isinstance(B, Sym2x2) else Sym2x2.symmetrize(B),
                       C if isinstance(C, Sym2x2) else Sym2x2.symmetrize(C))


@dataclass(frozen=True)
class JetReduction:
    """The affine-plus-quadratic substitution that was applied."""

    pair: MatrixPair
    z_shift: np.ndarray          # new complex point in the old z coordinates
    w_const: complex             # subtracted constant
    w_linear: np.ndarray         # subtracted z-linear coefficient
    w_quadratic: np.ndarray      # subtracted symmetric z-quadratic coefficient


def jet_value(j: JetData, z: np.ndarray) -> complex:
    """Evaluate the jet's graph function at z (degree-2 truncation)."""
    z = np.asarray(z, dtype=complex).reshape(2)
    zb = z.conj()
    return (j.w0 + j.lin_zbar @ zb + j.lin_z @ z + zb @ (j.A.m @ z)
            + 0.5 * zb @ (j.B.m @ zb) + 0.5 * z @ (j.C.m @ z))


def _translate(j: JetData, zstar: np.ndarray) -> JetData:
    """Re-expand the jet around z = zstar (quadratic coefficients are
    translation invariant)."""
    zs = np.asarray(zstar, dtype=complex).reshape(2)
    w0 = jet_value(j, zs)
    # gradient of the full function at zstar
    r = j.lin_z + j.C.m @ zs + j.A.m.T @ zs.conj()
    s = j.lin_zbar + j.A.m @ zs + j.B.m @ zs.conj()
    return JetData(w0, r, s, j.A, j.B, j.C)


def reduce_jet(j: JetData, tol: float = DEFAULT_TOL):
    """Normalize the jet to the quadratic pair; returns (MatrixPair,
    JetReduction).

    Small lin_zbar triggers the near-identity translation to the nearby
    complex point (solving s + A z + B conj(z) = 0); a norm above 0.1 is
    rejected with NotStandardPosition.
    """
    snorm = float(np.max(np.abs(j.lin_zbar)))
    zstar = np.zeros(2, dtype=complex)
    if snorm > _S_RADIUS:
        raise NotStandardPosition(
            f"|lin_zbar| = {snorm:.3g} exceeds the near-identity radius "
            f"{_S_RADIUS}")
    if snorm > 0:
        # solve s + A z + B conj(z) = 0 as a real-linear 4x4 system
        A, B = j.A.m, j.B.m
        M = np.zeros((4, 4))
        M[0::2, 0::2] = A.real + B.real
        M[0::2, 1::2] = -A.imag + B.imag
        M[1::2, 0::2] = A.imag + B.imag
        M[1::2, 1::2] = A.real - B.real
        rhs = np.empty(4)
        rhs[0::2] = -j.lin_zbar.real
        rhs[1::2] = -j.lin_zbar.imag
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            raise NotStandardPosition(
                "the complex point is degenerate (A z + B conj(z) singular)")
        zstar = x[0::2] + 1j * x[1::2]
        j = _translate(j, zstar)
        if float(np.max(np.abs(j.lin_zbar))) > tol * max(
                1.0, max_norm(j.A), max_norm(j.B)) * 10:
            raise NotStandardPosition(
                "translation did not remove the antiholomorphic linear term")
    # subtract the holomorphic part w0 + r^T z + (1/2) z^T (C - conj(B)) z
    Dquad = j.C.m - j.B.m.conj()
    pair = MatrixPair(j.A, Sym2x2.symmetrize(j.B.m.conj()))
    record = JetReduction(pair, zstar, j.w0, j.lin_z.copy(), Dquad)
    return pair, record


def is_quadratically_flat(p: MatrixPair, tol: float = DEFAULT_TOL) -> bool:
    """True when the quadratic model is real valued, i.e. A is Hermitian."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return max_norm(p.A.m - p.A.m.conj().T) <= tol


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def jet_to_json(j: JetData) -> dict:
    from .matcore import complex_to_json, mat_to_json
    return {"w0": complex_to_json(j.w0),
            "lin_z": [complex_to_json(v) for v in j.lin_z],
            "lin_zbar": [complex_to_json(v) for v in j.lin_zbar],
            "A": mat_to_json(j.A), "B": mat_to_json(j.B),
            "C": mat_to_json(j.C)}


def jet_from_json(obj) -> JetData:
    import json as _json

    from .matcore import complex_from_json, mat_from_json
    if isinstance(obj, str):
        obj = _json.loads(obj)
    return JetData.of(
        complex_from_json(obj.get("w0", 0)),
        [complex_from_json(v) for v in obj.get("lin_z", [0, 0])],
        [complex_from_json(v) for v in obj.get("lin_zbar", [0, 0])],
        mat_from_json(obj["A"]), mat_from_json(obj["B"]),
        mat_from_json(obj["C"]))
