"""Orbit tangent frames and orbit dimension.

A pair (A, B) is embedded in R^14: A's entries row-major as (re, im) in
coordinates 1-8, B's independent entries (1,1), (1,2), (2,2) as (re, im) in
coordinates 9-14.  The tangent space of the orbit through (A, B) is spanned
by ten vectors

    w1 ~ (A, B),  w2 ~ (iA, -iB),
    v_jk ~ (E_kj A + A E_jk,  E_kj B + B E_jk),
    u_jk ~ i(-E_kj A + A E_jk,  E_kj B + B E_jk),   j, k in {1, 2},

and the orbit dimension is the rank of the resulting 10 x 14 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import DEFAULT_TOL, MatrixPair, PairOrbitError

__all__ = ["TangentFrame", "RankUnstable", "tangent_frame", "orbit_dimension",
           "embed_pair"]


class RankUnstable(PairOrbitError):
    """A singular value sits too close to the rank cutoff to call."""


def _unit(j: int, k: int) -> np.ndarray:
    E = np.zeros((2, 2))
    E[j, k] = 1.0
    return E


def embed_pair(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Map (A, B) to the real 14-vector in the fixed coordinate order."""
    a = np.asarray(A, dtype=complex).ravel()
    b = np.asarray(B, dtype=complex)
    bp = np.array([b[0, 0], b[0, 1], b[1, 1]])
    out = np.empty(14)
    out[0:8:2] = a.real
    out[1:8:2] = a.imag
    out[8:14:2] = bp.real
    out[9:14:2] = bp.imag
    return out


@dataclass(frozen=True)
class TangentFrame:
    """The ten real 14-vectors, in the order w1, w2, v11, v12, v21, v22,
    u11, u12, u21, u22 (rows of `vectors`)."""

    vectors: np.ndarray
    labels = ("w1", "w2", "v11", "v12", "v21", "v22", "u11", "u12", "u21", "u22")

    def row(self, label: str) -> np.ndarray:
        return self.vectors[self.labels.index(label)]


def tangent_frame(p: MatrixPair) -> TangentFrame:
    A, B = p.A.m, p.B.m
    rows = [embed_pair(A, B), embed_pair(1j * A, -1j * B)]
    for j in range(2):
        for k in range(2):
            Ekj, Ejk = _unit(k, j), _unit(j, k)
            rows.append(embed_pair(Ekj @ A + A @ Ejk, Ekj @ B + B @ Ejk))
    for j in range(2):
        for k in range(2):
            Ekj, Ejk = _unit(k, j), _unit(j, k)
            rows.append(embed_pair(1j * (-Ekj @ A + A @ Ejk),
                                   1j * (Ekj @ B + B @ Ejk)))
    return TangentFrame(np.vstack(rows))


def orbit_dimension(p: MatrixPair, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of the tangent frame; errors out near the cutoff.

    The cutoff is tol * largest singular value (relative).  A singular value
    inside [cut/10, 10*cut] raises RankUnstable instead of guessing, because
    the dimension feeds the closure-graph validator.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    F = tangent_frame(p).vectors
    s = np.linalg.svd(F, compute_uv=False)
    if s[0] == 0.0:
        return 0
    cut = tol * s[0]
    for val in s:
        if cut / 10.0 < val < cut * 10.0:
            raise RankUnstable(
                f"singular value {val:.3e} within a decade of cutoff {cut:.3e}")
    return int(np.sum(s > cut))
