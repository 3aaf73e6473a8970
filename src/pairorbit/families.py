"""The 42 normal-form families for pairs (A, B): registry, representatives,
parameter domains and JSON encoding.

Families are keyed by (a_family, b_form).  Continuous parameters live in
open ranges: 0 < tau < 1, 0 < theta < pi, a, b, d > 0, d0 in {0, d},
r >= 0, zeta complex, 0 <= phi < pi.  The indefinite a_family uses two
A-representatives: diag(1, -1) for the first four b_forms and
[[0, 1], [1, 0]] for the b_forms prefixed "h_".
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .congruence import StarTag
from .matcore import Complex2x2, MatrixPair, Sym2x2, complex_from_json, complex_to_json

__all__ = ["OrbitClass", "FamilySpec", "FAMILIES", "representative",
           "is_generic", "family_of", "orbit_class_to_json",
           "orbit_class_from_json", "A_PARAM", "sample_params"]

# which parameter (if any) the A-side carries, per a_family
A_PARAM = {
    StarTag.UNIMODULAR: "theta",
    StarTag.RECIPROCAL: "tau",
}


@dataclass(frozen=True)
class FamilySpec:
    a_family: str
    b_form: str
    dim: int
    # B rank of the representative, constant on the family; -1 where it
    # depends on the parameters (closure.b_rank decides those)
    b_rank: int
    b_params: tuple

    def key(self):
        return (self.a_family, self.b_form)


def _mk(a, b, dim, b_rank, params):
    return FamilySpec(a, b, dim, b_rank, params)


_F = [
    # a_family zero
    _mk(StarTag.ZERO, "zero", 0, 0, ()),
    _mk(StarTag.ZERO, "rank1", 4, 1, ()),
    _mk(StarTag.ZERO, "full", 6, 2, ()),
    # a_family rank1_semidef  (A = diag(1, 0))
    _mk(StarTag.RANK1_SEMIDEF, "zero", 4, 0, ()),
    _mk(StarTag.RANK1_SEMIDEF, "a_plus_0", 5, 1, ("a",)),
    _mk(StarTag.RANK1_SEMIDEF, "zero_plus_1", 8, 1, ()),
    _mk(StarTag.RANK1_SEMIDEF, "antidiag_1", 8, 2, ()),
    _mk(StarTag.RANK1_SEMIDEF, "a_plus_1", 9, 2, ("a",)),
    # a_family rank1_nilpotent  (A = [[0,1],[0,0]])
    _mk(StarTag.RANK1_NILPOTENT, "zero", 6, 0, ()),
    _mk(StarTag.RANK1_NILPOTENT, "antidiag_b", 7, 2, ("b",)),
    _mk(StarTag.RANK1_NILPOTENT, "one_plus_0", 8, 1, ()),
    _mk(StarTag.RANK1_NILPOTENT, "zero_plus_1", 8, 1, ()),
    _mk(StarTag.RANK1_NILPOTENT, "a_plus_1", 9, 2, ("a",)),
    _mk(StarTag.RANK1_NILPOTENT, "zeta_b_1", 9, -1, ("zeta", "b")),
    _mk(StarTag.RANK1_NILPOTENT, "one_b_0", 9, 2, ("b",)),
    # a_family definite  (A = I2)
    _mk(StarTag.DEFINITE, "zero", 5, 0, ()),
    _mk(StarTag.DEFINITE, "d0_plus_d", 8, -1, ("d0", "d")),
    _mk(StarTag.DEFINITE, "a_lt_d", 9, 2, ("a", "d")),
    # a_family indefinite  (A = diag(1,-1) or [[0,1],[1,0]])
    _mk(StarTag.INDEFINITE, "zero", 5, 0, ()),
    _mk(StarTag.INDEFINITE, "d0_plus_d", 8, -1, ("d0", "d")),
    _mk(StarTag.INDEFINITE, "antidiag_b", 8, 2, ("b",)),
    _mk(StarTag.INDEFINITE, "a_lt_d", 9, 2, ("a", "d")),
    _mk(StarTag.INDEFINITE, "h_one_plus_0", 8, 1, ()),
    _mk(StarTag.INDEFINITE, "h_zero_b_1", 9, 2, ("b",)),
    _mk(StarTag.INDEFINITE, "h_one_plus_de", 9, 2, ("d", "theta")),
    # a_family unimodular  (A = diag(1, e^{i theta}))
    _mk(StarTag.UNIMODULAR, "zero", 7, 0, ("theta",)),
    _mk(StarTag.UNIMODULAR, "a_plus_0", 8, 1, ("theta", "a")),
    _mk(StarTag.UNIMODULAR, "zero_plus_d", 8, 1, ("theta", "d")),
    _mk(StarTag.UNIMODULAR, "antidiag_b", 8, 2, ("theta", "b")),
    _mk(StarTag.UNIMODULAR, "a_b_0", 9, 2, ("theta", "a", "b")),
    _mk(StarTag.UNIMODULAR, "zero_b_d", 9, 2, ("theta", "b", "d")),
    _mk(StarTag.UNIMODULAR, "generic", 9, -1, ("theta", "a", "r", "phi", "d")),
    # a_family reciprocal  (A = [[0,1],[tau,0]])
    _mk(StarTag.RECIPROCAL, "zero", 7, 0, ("tau",)),
    _mk(StarTag.RECIPROCAL, "antidiag_b", 8, 2, ("tau", "b")),
    _mk(StarTag.RECIPROCAL, "one_plus_zeta", 9, -1, ("tau", "zeta")),
    _mk(StarTag.RECIPROCAL, "zero_plus_1", 9, 1, ("tau",)),
    _mk(StarTag.RECIPROCAL, "generic", 9, -1, ("tau", "phi", "b", "zeta")),
    _mk(StarTag.RECIPROCAL, "zero_b_eiphi", 9, 2, ("tau", "b", "phi")),
    # a_family jordan  (A = [[0,1],[1,i]])
    _mk(StarTag.JORDAN, "zero", 7, 0, ()),
    _mk(StarTag.JORDAN, "zero_plus_d", 8, 1, ("d",)),
    _mk(StarTag.JORDAN, "antidiag_b", 9, 2, ("b",)),
    _mk(StarTag.JORDAN, "a_plus_zeta", 9, -1, ("a", "zeta")),
]

FAMILIES = {(f.a_family, f.b_form): f for f in _F}
assert len(FAMILIES) == 42


@dataclass(frozen=True)
class OrbitClass:
    """One of the 42 families with fully instantiated parameters."""

    a_family: str
    b_form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = FAMILIES.get((self.a_family, self.b_form))
        if spec is None:
            raise ValueError(f"unknown family ({self.a_family}, {self.b_form})")
        need = set(spec.b_params)
        got = set(self.params)
        if need != got:
            raise ValueError(
                f"family {spec.key()} takes params {sorted(need)}, got {sorted(got)}")
        _check_ranges(self)
        object.__setattr__(self, "params", dict(self.params))

    @property
    def dim(self) -> int:
        return FAMILIES[(self.a_family, self.b_form)].dim

    def key(self):
        return (self.a_family, self.b_form)

    def close_to(self, other: "OrbitClass", tol: float = 1e-6) -> bool:
        if self.key() != other.key():
            return False
        for k, v in self.params.items():
            w = other.params[k]
            if k == "phi":
                d = abs(complex(v) - complex(w))
                d = min(d, abs(abs(complex(v) - complex(w)) - np.pi))
                if d > tol:
                    return False
            elif abs(complex(v) - complex(w)) > tol:
                return False
        return True

    def __str__(self):
        if not self.params:
            return f"({self.a_family}|{self.b_form})"
        ps = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(self.params.items()))
        return f"({self.a_family}|{self.b_form}|{ps})"


def _fmt(v):
    v = complex(v)
    if v.imag == 0:
        return f"{v.real:.6g}"
    return f"{v.real:.6g}{v.imag:+.6g}i"


def _check_ranges(cls: OrbitClass):
    p = cls.params
    pi = np.pi
    def pos(name):
        if not (float(np.real(p[name])) > 0 and np.imag(p[name]) == 0):
            raise ValueError(f"{name} must be a positive real, got {p[name]}")
    for name in ("a", "b", "d"):
        if name in p:
            if cls.key() == (StarTag.JORDAN, "a_plus_zeta") and name == "d":
                continue
            pos(name)
    if "theta" in p and not (0.0 < float(np.real(p["theta"])) < pi):
        raise ValueError("theta must lie in (0, pi)")
    if "tau" in p and not (0.0 < float(np.real(p["tau"])) < 1.0):
        raise ValueError("tau must lie in (0, 1)")
    if "phi" in p and not (0.0 <= float(np.real(p["phi"])) < pi):
        raise ValueError("phi must lie in [0, pi)")
    if "r" in p and float(np.real(p["r"])) < 0:
        raise ValueError("r must be >= 0")
    if "d0" in p:
        d0, d = complex(p["d0"]), complex(p["d"])
        if not (d0 == 0 or abs(d0 - d) == 0):
            raise ValueError("d0 must equal 0 or d")
    if cls.key() == (StarTag.DEFINITE, "a_lt_d") or \
       cls.key() == (StarTag.INDEFINITE, "a_lt_d"):
        if not (0 < float(np.real(p["a"])) < float(np.real(p["d"]))):
            raise ValueError("a_lt_d requires 0 < a < d")


# ---------------------------------------------------------------------------
# representatives
# ---------------------------------------------------------------------------

def _a_matrix(cls: OrbitClass) -> np.ndarray:
    t = cls.a_family
    if t == StarTag.ZERO:
        return np.zeros((2, 2), dtype=complex)
    if t == StarTag.RANK1_SEMIDEF:
        return np.diag([1.0 + 0j, 0.0])
    if t == StarTag.RANK1_NILPOTENT:
        return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    if t == StarTag.DEFINITE:
        return np.eye(2, dtype=complex)
    if t == StarTag.INDEFINITE:
        if cls.b_form.startswith("h_"):
            return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return np.diag([1.0 + 0j, -1.0])
    if t == StarTag.UNIMODULAR:
        return np.diag([1.0 + 0j, np.exp(1j * float(np.real(cls.params["theta"])))])
    if t == StarTag.RECIPROCAL:
        return np.array([[0.0, 1.0], [float(np.real(cls.params["tau"])), 0.0]],
                        dtype=complex)
    if t == StarTag.JORDAN:
        return np.array([[0.0, 1.0], [1.0, 1j]])
    raise ValueError(t)


def _b_matrix(cls: OrbitClass) -> np.ndarray:
    p = {k: complex(v) for k, v in cls.params.items()}
    f = cls.b_form
    def sym(b11, b12, b22):
        return np.array([[b11, b12], [b12, b22]], dtype=complex)
    if f == "zero":
        return np.zeros((2, 2), dtype=complex)
    if f == "rank1" or f == "one_plus_0" or f == "h_one_plus_0":
        return np.diag([1.0 + 0j, 0.0])
    if f == "full":
        return np.eye(2, dtype=complex)
    if f == "a_plus_0":
        return np.diag([p["a"], 0.0])
    if f == "zero_plus_1":
        return np.diag([0.0 + 0j, 1.0])
    if f == "antidiag_1":
        return sym(0.0, 1.0, 0.0)
    if f == "a_plus_1":
        return np.diag([p["a"], 1.0])
    if f == "antidiag_b":
        return sym(0.0, p["b"], 0.0)
    if f == "zeta_b_1":
        return sym(p["zeta"], p["b"], 1.0)
    if f == "one_b_0":
        return sym(1.0, p["b"], 0.0)
    if f == "d0_plus_d":
        return np.diag([p["d0"], p["d"]])
    if f == "a_lt_d":
        return np.diag([p["a"], p["d"]])
    if f == "h_zero_b_1":
        return sym(0.0, p["b"], 1.0)
    if f == "h_one_plus_de":
        return np.diag([1.0 + 0j, p["d"] * np.exp(1j * p["theta"].real)])
    if f == "zero_plus_d":
        return np.diag([0.0 + 0j, p["d"]])
    if f == "a_b_0":
        return sym(p["a"], p["b"], 0.0)
    if f == "zero_b_d":
        return sym(0.0, p["b"], p["d"])
    if f == "generic" and cls.a_family == StarTag.UNIMODULAR:
        off = p["r"] * np.exp(1j * p["phi"].real)
        return sym(p["a"], off, p["d"])
    if f == "one_plus_zeta":
        return np.diag([1.0 + 0j, p["zeta"]])
    if f == "generic" and cls.a_family == StarTag.RECIPROCAL:
        return sym(np.exp(1j * p["phi"].real), p["b"], p["zeta"])
    if f == "zero_b_eiphi":
        return sym(0.0, p["b"], np.exp(1j * p["phi"].real))
    if f == "a_plus_zeta":
        return np.diag([p["a"], p["zeta"]])
    raise ValueError(f)


def representative(cls: OrbitClass) -> MatrixPair:
    """The exact normal-form pair of the family at these parameters."""
    return MatrixPair(Complex2x2(_a_matrix(cls)), Sym2x2.symmetrize(_b_matrix(cls)))


def family_of(a_family: str, b_form: str, **params) -> OrbitClass:
    return OrbitClass(a_family, b_form, params)


def is_generic(cls: OrbitClass) -> bool:
    """True exactly for the two 14-dimensional bundle families."""
    if cls.key() == (StarTag.RECIPROCAL, "generic"):
        return float(np.real(cls.params["b"])) > 0
    if cls.key() == (StarTag.UNIMODULAR, "generic"):
        return (float(np.real(cls.params["a"])) > 0
                and float(np.real(cls.params["d"])) > 0)
    return False


# ---------------------------------------------------------------------------
# JSON (stable schema, snapshot-tested)
# ---------------------------------------------------------------------------

def orbit_class_to_json(cls: OrbitClass) -> dict:
    params = {}
    for k, v in sorted(cls.params.items()):
        v = complex(v)
        params[k] = v.real if v.imag == 0 else complex_to_json(v)
    return {"a_family": cls.a_family, "b_form": cls.b_form,
            "params": params, "dim": cls.dim}


def orbit_class_from_json(obj: dict) -> OrbitClass:
    params = {k: complex_from_json(v) for k, v in obj.get("params", {}).items()}
    return OrbitClass(obj["a_family"], obj["b_form"], params)


# ---------------------------------------------------------------------------
# deterministic parameter sampling used by validators and tests
# ---------------------------------------------------------------------------

_THETAS = (0.3, 1.0, 1.5, 2.5, 3.0)
_TAUS = (0.1, 0.3, 0.5, 0.7, 0.9)


def sample_params(spec: FamilySpec, n: int = 5, seed: int = 0):
    """Deterministic parameter draws covering each family's ranges."""
    key_digest = zlib.crc32(repr(spec.key()).encode())
    rng = np.random.default_rng(seed + key_digest % (2 ** 16))
    out = []
    for i in range(n):
        p = {}
        for name in spec.b_params:
            if name == "theta":
                p[name] = _THETAS[i % len(_THETAS)]
            elif name == "tau":
                p[name] = _TAUS[i % len(_TAUS)]
            elif name == "phi":
                p[name] = float(rng.uniform(0.0, np.pi * 0.999))
            elif name == "r":
                p[name] = 0.0 if i == 1 else float(rng.uniform(0.2, 2.0))
            elif name == "zeta":
                p[name] = 0j if i == 2 else complex(rng.uniform(-1.5, 1.5),
                                                    rng.uniform(-1.5, 1.5))
            elif name == "d0":
                pass  # filled below, needs d
            else:
                p[name] = float(rng.uniform(0.3, 2.5))
        if "d0" in spec.b_params:
            p["d0"] = 0.0 if i % 2 == 0 else p["d"]
        if p.get("r") == 0.0:
            p["phi"] = 0.0
        if spec.b_form == "a_lt_d":
            a, d = sorted([p["a"], p["d"]])
            if a == d:
                d = a + 1.0
            p["a"], p["d"] = a, d
        out.append(OrbitClass(spec.a_family, spec.b_form, p))
    return out
