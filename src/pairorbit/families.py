"""The 42 normal-form families for pairs (A, B): registry, representatives,
parameter domains and JSON encoding.

Each family's B is one layout of three slots (FamilySpec.b_slots); its
parameter names, its representative, the read-back of its parameters off a
reduced B and the coordinates the numeric polish pins all derive from it.

Families are keyed by (a_family, b_form).  Continuous parameters live in
open ranges: 0 < tau < 1, 0 < theta < pi, a, b, d > 0, d0 in {0, d},
r >= 0, zeta complex, 0 <= phi < pi.  The indefinite a_family uses two
A-representatives: diag(1, -1) for the first four b_forms and
[[0, 1], [1, 0]] for the b_forms prefixed "h_".
"""

from __future__ import annotations

import cmath
import zlib
from dataclasses import dataclass, field

import numpy as np

from .congruence import StarClass, StarTag, star_representative
from .matcore import Complex2x2, MatrixPair, Sym2x2, complex_from_json, complex_to_json

__all__ = ["OrbitClass", "FamilySpec", "FAMILIES", "representative",
           "is_generic", "family_of", "orbit_class_to_json",
           "orbit_class_from_json", "A_PARAM", "sample_params", "star_of",
           "read_back"]

# which parameter (if any) the A-side carries, per a_family
A_PARAM = {
    StarTag.UNIMODULAR: "theta",
    StarTag.RECIPROCAL: "tau",
}


_SLOT_IJ = ((0, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class FamilySpec:
    a_family: str
    b_form: str
    dim: int
    # B rank of the representative, constant on the family; -1 where it
    # depends on the parameters (closure.b_rank decides those)
    b_rank: int
    # (B11, B12, B22) of the representative.  A slot is a constant 0 or 1,
    # a positive parameter ("d0" is 0 or d), the complex "zeta", or a
    # phase slot "m@angle" = m e^{i angle} with modulus m (1 when empty).
    b_slots: tuple
    # the A parameter (if any), then the slot parameters in slot order
    b_params: tuple = field(init=False)

    def __post_init__(self):
        names = [A_PARAM[self.a_family]] if self.a_family in A_PARAM else []
        for slot in self.b_slots:
            if isinstance(slot, str):
                names += [n for n in slot.split("@") if n]
        object.__setattr__(self, "b_params", tuple(names))

    def key(self):
        return (self.a_family, self.b_form)

    def b_pins(self):
        """What the structural polish holds fixed: indices into the six real
        B coordinates (re11, im11, re12, im12, re22, im22), and the (i, j)
        entries whose modulus is pinned to 1.  A constant slot pins Re and
        Im, a positive parameter pins Im, and every "@phi" slot its modulus;
        zeta and the other phase slots are free."""
        pinned, units = [], []
        for k, slot in enumerate(self.b_slots):
            if not isinstance(slot, str):
                pinned += [2 * k, 2 * k + 1]
            elif slot == "@phi":
                units.append(_SLOT_IJ[k])
            elif slot != "zeta" and "@" not in slot:
                pinned.append(2 * k + 1)
        return pinned, units


_F = [
    # a_family zero
    FamilySpec(StarTag.ZERO, "zero", 0, 0, (0, 0, 0)),
    FamilySpec(StarTag.ZERO, "rank1", 4, 1, (1, 0, 0)),
    FamilySpec(StarTag.ZERO, "full", 6, 2, (1, 0, 1)),
    # a_family rank1_semidef  (A = diag(1, 0))
    FamilySpec(StarTag.RANK1_SEMIDEF, "zero", 4, 0, (0, 0, 0)),
    FamilySpec(StarTag.RANK1_SEMIDEF, "a_plus_0", 5, 1, ("a", 0, 0)),
    FamilySpec(StarTag.RANK1_SEMIDEF, "zero_plus_1", 8, 1, (0, 0, 1)),
    FamilySpec(StarTag.RANK1_SEMIDEF, "antidiag_1", 8, 2, (0, 1, 0)),
    FamilySpec(StarTag.RANK1_SEMIDEF, "a_plus_1", 9, 2, ("a", 0, 1)),
    # a_family rank1_nilpotent  (A = [[0,1],[0,0]])
    FamilySpec(StarTag.RANK1_NILPOTENT, "zero", 6, 0, (0, 0, 0)),
    FamilySpec(StarTag.RANK1_NILPOTENT, "antidiag_b", 7, 2, (0, "b", 0)),
    FamilySpec(StarTag.RANK1_NILPOTENT, "one_plus_0", 8, 1, (1, 0, 0)),
    FamilySpec(StarTag.RANK1_NILPOTENT, "zero_plus_1", 8, 1, (0, 0, 1)),
    FamilySpec(StarTag.RANK1_NILPOTENT, "a_plus_1", 9, 2, ("a", 0, 1)),
    FamilySpec(StarTag.RANK1_NILPOTENT, "zeta_b_1", 9, -1, ("zeta", "b", 1)),
    FamilySpec(StarTag.RANK1_NILPOTENT, "one_b_0", 9, 2, (1, "b", 0)),
    # a_family definite  (A = I2)
    FamilySpec(StarTag.DEFINITE, "zero", 5, 0, (0, 0, 0)),
    FamilySpec(StarTag.DEFINITE, "d0_plus_d", 8, -1, ("d0", 0, "d")),
    FamilySpec(StarTag.DEFINITE, "a_lt_d", 9, 2, ("a", 0, "d")),
    # a_family indefinite  (A = diag(1,-1) or [[0,1],[1,0]])
    FamilySpec(StarTag.INDEFINITE, "zero", 5, 0, (0, 0, 0)),
    FamilySpec(StarTag.INDEFINITE, "d0_plus_d", 8, -1, ("d0", 0, "d")),
    FamilySpec(StarTag.INDEFINITE, "antidiag_b", 8, 2, (0, "b", 0)),
    FamilySpec(StarTag.INDEFINITE, "a_lt_d", 9, 2, ("a", 0, "d")),
    FamilySpec(StarTag.INDEFINITE, "h_one_plus_0", 8, 1, (1, 0, 0)),
    FamilySpec(StarTag.INDEFINITE, "h_zero_b_1", 9, 2, (0, "b", 1)),
    FamilySpec(StarTag.INDEFINITE, "h_one_plus_de", 9, 2, (1, 0, "d@theta")),
    # a_family unimodular  (A = diag(1, e^{i theta}))
    FamilySpec(StarTag.UNIMODULAR, "zero", 7, 0, (0, 0, 0)),
    FamilySpec(StarTag.UNIMODULAR, "a_plus_0", 8, 1, ("a", 0, 0)),
    FamilySpec(StarTag.UNIMODULAR, "zero_plus_d", 8, 1, (0, 0, "d")),
    FamilySpec(StarTag.UNIMODULAR, "antidiag_b", 8, 2, (0, "b", 0)),
    FamilySpec(StarTag.UNIMODULAR, "a_b_0", 9, 2, ("a", "b", 0)),
    FamilySpec(StarTag.UNIMODULAR, "zero_b_d", 9, 2, (0, "b", "d")),
    FamilySpec(StarTag.UNIMODULAR, "generic", 9, -1, ("a", "r@phi", "d")),
    # a_family reciprocal  (A = [[0,1],[tau,0]])
    FamilySpec(StarTag.RECIPROCAL, "zero", 7, 0, (0, 0, 0)),
    FamilySpec(StarTag.RECIPROCAL, "antidiag_b", 8, 2, (0, "b", 0)),
    FamilySpec(StarTag.RECIPROCAL, "one_plus_zeta", 9, -1, (1, 0, "zeta")),
    FamilySpec(StarTag.RECIPROCAL, "zero_plus_1", 9, 1, (0, 0, 1)),
    FamilySpec(StarTag.RECIPROCAL, "generic", 9, -1, ("@phi", "b", "zeta")),
    FamilySpec(StarTag.RECIPROCAL, "zero_b_eiphi", 9, 2, (0, "b", "@phi")),
    # a_family jordan  (A = [[0,1],[1,i]])
    FamilySpec(StarTag.JORDAN, "zero", 7, 0, (0, 0, 0)),
    FamilySpec(StarTag.JORDAN, "zero_plus_d", 8, 1, (0, 0, "d")),
    FamilySpec(StarTag.JORDAN, "antidiag_b", 9, 2, (0, "b", 0)),
    FamilySpec(StarTag.JORDAN, "a_plus_zeta", 9, -1, ("a", 0, "zeta")),
]

FAMILIES = {(f.a_family, f.b_form): f for f in _F}
assert len(FAMILIES) == 42


@dataclass(frozen=True)
class OrbitClass:
    """One of the 42 families with fully instantiated parameters.

    representative(cls) is memoised on the instance, so params must not be
    mutated after construction."""

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
    for name, v in p.items():
        if not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    pi = np.pi
    def pos(name):
        if not (float(np.real(p[name])) > 0 and np.imag(p[name]) == 0):
            raise ValueError(f"{name} must be a positive real, got {p[name]}")
    for name in ("a", "b", "d"):
        if name in p:
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

def star_of(cls: OrbitClass) -> StarClass:
    """The vertex family of the A part, with its parameter."""
    t = cls.a_family
    if t == StarTag.UNIMODULAR:
        return StarClass(t, theta=float(np.real(cls.params["theta"])))
    if t == StarTag.RECIPROCAL:
        return StarClass(t, tau=float(np.real(cls.params["tau"])))
    return StarClass(t)


_H = Complex2x2([[0.0, 1.0], [1.0, 0.0]])


def _slot_value(slot, p):
    if not isinstance(slot, str):
        return complex(slot)
    mod, _, angle = slot.partition("@")
    if not angle:
        return p[mod]
    unit = np.exp(1j * p[angle].real)
    return p[mod] * unit if mod else unit


def representative(cls: OrbitClass) -> MatrixPair:
    """The exact normal-form pair of the family at these parameters.  It is
    built on the first call and memoised on cls; its arrays are read-only."""
    rep = cls.__dict__.get("_representative")
    if rep is None:
        A = _H if cls.b_form.startswith("h_") else star_representative(star_of(cls))
        p = {k: complex(v) for k, v in cls.params.items()}
        b11, b12, b22 = (_slot_value(s, p) for s in FAMILIES[cls.key()].b_slots)
        rep = MatrixPair(A, Sym2x2([[b11, b12], [b12, b22]]))
        object.__setattr__(cls, "_representative", rep)
    return rep


def read_back(cls: OrbitClass, B: np.ndarray, tol: float) -> OrbitClass:
    """The member of cls's family whose B slots are read off B, a B already
    reduced to the family's layout; the A parameter is kept.  d0 stays 0 or
    becomes the mean of |B11| and |B22|, a_lt_d sorts (a, d), phi is folded
    into [0, pi) and read as 0 where its modulus r is at most tol, and
    theta in (0, pi) is read as |arg|."""
    spec = FAMILIES[cls.key()]
    p = dict(cls.params)
    for slot, (i, j) in zip(spec.b_slots, _SLOT_IJ):
        if not isinstance(slot, str) or slot == "d0":
            continue
        b = B[i, j]
        mod, _, angle = slot.partition("@")
        if mod:
            p[mod] = b if mod == "zeta" else abs(b)
        if angle == "theta":
            p[angle] = abs(np.angle(b))
        elif angle:
            p[angle] = float(np.mod(np.angle(b), np.pi)) \
                if not mod or p[mod] > tol else 0.0
    if p.get("d0", 0.0) != 0.0:
        p["d0"] = p["d"] = 0.5 * (abs(B[0, 0]) + abs(B[1, 1]))
    if spec.b_form == "a_lt_d":
        p["a"], p["d"] = sorted([p["a"], p["d"]])
    return OrbitClass(cls.a_family, cls.b_form, p)


def family_of(a_family: str, b_form: str, **params) -> OrbitClass:
    return OrbitClass(a_family, b_form, params)


def is_generic(cls: OrbitClass) -> bool:
    """True exactly for the two 14-dimensional bundle families
    (`_check_ranges` already holds a, d > 0 and b > 0 there)."""
    return cls.key() in ((StarTag.UNIMODULAR, "generic"),
                         (StarTag.RECIPROCAL, "generic"))


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
