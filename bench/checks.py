"""Correctness checks the benchmark applies to the program's outputs.

Everything here is plain numpy and imports nothing from pairorbit, so a
fault in the package cannot hide itself by also breaking its own check.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import numpy as np

PARAM_TOL = 1e-6
RESIDUAL_TOL = 1e-8
MAXF_TOL = 1e-4
ANCHOR_TOL = 1e-6
CURVE_TOL = 1e-6
CURVE_S = 1e-4

# Real orbit dimension of each of the 42 families, as tabulated in the paper
# (a_family, b_form) -> dim.  Kept here so that the lab's "dimension cannot
# drop" check does not read the program's own table.
FAMILY_DIMS = {
    ("zero", "zero"): 0, ("zero", "rank1"): 4, ("zero", "full"): 6,
    ("rank1_semidef", "zero"): 4, ("rank1_semidef", "a_plus_0"): 5,
    ("rank1_semidef", "zero_plus_1"): 8, ("rank1_semidef", "antidiag_1"): 8,
    ("rank1_semidef", "a_plus_1"): 9,
    ("rank1_nilpotent", "zero"): 6, ("rank1_nilpotent", "antidiag_b"): 7,
    ("rank1_nilpotent", "one_plus_0"): 8, ("rank1_nilpotent", "zero_plus_1"): 8,
    ("rank1_nilpotent", "a_plus_1"): 9, ("rank1_nilpotent", "zeta_b_1"): 9,
    ("rank1_nilpotent", "one_b_0"): 9,
    ("definite", "zero"): 5, ("definite", "d0_plus_d"): 8,
    ("definite", "a_lt_d"): 9,
    ("indefinite", "zero"): 5, ("indefinite", "d0_plus_d"): 8,
    ("indefinite", "antidiag_b"): 8, ("indefinite", "a_lt_d"): 9,
    ("indefinite", "h_one_plus_0"): 8, ("indefinite", "h_zero_b_1"): 9,
    ("indefinite", "h_one_plus_de"): 9,
    ("unimodular", "zero"): 7, ("unimodular", "a_plus_0"): 8,
    ("unimodular", "zero_plus_d"): 8, ("unimodular", "antidiag_b"): 8,
    ("unimodular", "a_b_0"): 9, ("unimodular", "zero_b_d"): 9,
    ("unimodular", "generic"): 9,
    ("reciprocal", "zero"): 7, ("reciprocal", "antidiag_b"): 8,
    ("reciprocal", "one_plus_zeta"): 9, ("reciprocal", "zero_plus_1"): 9,
    ("reciprocal", "generic"): 9, ("reciprocal", "zero_b_eiphi"): 9,
    ("jordan", "zero"): 7, ("jordan", "zero_plus_d"): 8,
    ("jordan", "antidiag_b"): 9, ("jordan", "a_plus_zeta"): 9,
}

GENERIC_KEYS = (("unimodular", "generic"), ("reciprocal", "generic"))


def act(c, P, A, B):
    """(c, P) . (A, B) = (c P* A P, P^T B P)."""
    P = np.asarray(P, dtype=complex)
    return c * (P.conj().T @ A @ P), P.T @ B @ P


def pair_residual(c, P, A, B, A_rep, B_rep) -> float:
    """Entrywise max distance of (c, P) . (A, B) from (A_rep, B_rep)."""
    A1, B1 = act(c, P, A, B)
    return float(max(np.max(np.abs(A1 - A_rep)), np.max(np.abs(B1 - B_rep))))


def check_params(want: dict, got: dict) -> list:
    """Recovered parameters equal the drawn ones within PARAM_TOL; phi is
    an angle mod pi."""
    if set(want) != set(got):
        return [f"parameter names {sorted(got)} != {sorted(want)}"]
    bad = []
    for k, w in want.items():
        d = abs(complex(got[k]) - complex(w))
        if k == "phi":
            d = abs(np.angle(np.exp(2j * (complex(got[k]).real - complex(w).real)))) / 2
        if not d <= PARAM_TOL:
            bad.append(f"{k}: got {got[k]}, drew {w}")
    return bad


def check_roundtrip(want_key, want_params, got_key, got_params,
                    c, P, A, B, A_rep, B_rep) -> list:
    """A classification of (A, B) = g . representative must name the drawn
    family and parameters, and its reducer must map (A, B) back onto the
    drawn representative."""
    if tuple(got_key) != tuple(want_key):
        return [f"family {got_key} != drawn {want_key}"]
    bad = check_params(want_params, got_params)
    res = pair_residual(c, P, A, B, A_rep, B_rep)
    if not res <= RESIDUAL_TOL:
        bad.append(f"reducer residual {res:.3e} > {RESIDUAL_TOL}")
    return bad


def check_perturb(src_key, n, histogram: dict, unresolved: int,
                  violations: list) -> list:
    """One perturbation-lab cell: no closure violations, every sample
    accounted for, no reached family of lower dimension, and the open
    generic strata keep every resolved sample."""
    bad = []
    if violations:
        bad.append(f"closure violations {violations[:2]}")
    if sum(histogram.values()) + unresolved != n:
        bad.append(f"histogram {sum(histogram.values())} + unresolved "
                   f"{unresolved} != {n}")
    src_dim = FAMILY_DIMS[tuple(src_key)]
    for key in histogram:
        k = tuple(key.split("|"))
        if k not in FAMILY_DIMS:
            bad.append(f"unknown family {key}")
        elif FAMILY_DIMS[k] < src_dim:
            bad.append(f"reached {key} of dim {FAMILY_DIMS[k]} < {src_dim}")
    if tuple(src_key) in GENERIC_KEYS:
        own = "|".join(src_key)
        if set(histogram) - {own}:
            bad.append(f"generic source left its stratum: {histogram}")
    return bad


def maxf_oracle(a, b, d, theta, n=400, zooms=8, keep=3) -> float:
    """Dense-grid value of max |a R e^{i beta} + 2 b sqrt(RT) + d T e^{-i beta}|
    over R^2 + 2 R T cos(theta) + T^2 = 1, R, T >= 0, beta in [0, 2 pi).

    The arc is walked by its direction angle psi.  For each psi the phase
    is maximised on an n-point grid over the whole circle, refined by
    `zooms` rounds of 21-point sub-grids around the best point, each a tenth
    the previous width; the resulting profile over an n-point psi grid is
    refined the same way around its `keep` best points.  (Near R = 0 the
    function hardly depends on beta, so a joint 2-D zoom can get stuck at
    the wrong phase.)  Grid points are feasible, so the value never exceeds
    the true maximum."""
    d = complex(d)
    ct = np.cos(theta)

    def f(psi, beta):
        rho = 1.0 / np.sqrt(1.0 + ct * np.sin(2.0 * psi))
        R, T = rho * np.cos(psi), rho * np.sin(psi)
        e = np.exp(1j * beta)
        return np.abs(a * R * e + 2.0 * b * np.sqrt(R * T) + d * T / e)

    steps = np.linspace(-1.0, 1.0, 21)

    def best_over_beta(psi):
        betas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        vals = f(psi[:, None], betas[None, :])
        rows = np.arange(len(psi))
        best, cb, width = vals.max(axis=1), betas[vals.argmax(axis=1)], betas[1]
        for _ in range(zooms):
            sub = cb[:, None] + width * steps[None, :]
            vals = f(psi[:, None], sub)
            k = vals.argmax(axis=1)
            best, cb, width = np.maximum(best, vals[rows, k]), sub[rows, k], width / 10.0
        return best

    psis = np.linspace(0.0, np.pi / 2.0, n)
    profile = best_over_beta(psis)
    best = float(profile.max())
    for i in np.argsort(profile)[-keep:]:
        cp, width = psis[i], psis[1]
        for _ in range(zooms):
            sub = np.clip(cp + width * steps, 0.0, np.pi / 2.0)
            vals = best_over_beta(sub)
            k = int(vals.argmax())
            best, cp, width = max(best, float(vals[k])), sub[k], width / 10.0
    return best


# (a, b, d, theta) -> max, closed form: |d| at b = a = 0, a at b = d = 0, and
# max(a, |d|) on the theta = 0 circle with b = 0.
MAXF_ANCHORS = (((0.0, 0.0, 2.0, np.pi / 2), 2.0),
                ((3.0, 0.0, 0.0, np.pi / 3), 3.0),
                ((1.0, 0.0, 2.0, 0.0), 2.0))


def check_maxf(query, got, ref, tol=MAXF_TOL) -> list:
    if not abs(got - ref) <= tol:
        return [f"max_f{tuple(query)} = {got}, expected {ref} within {tol}"]
    return []


def check_curve(name, c, P, A_dst, B_dst, A_src, B_src) -> list:
    """A witness curve evaluated at s = CURVE_S must carry the target
    representative to within CURVE_TOL of the source representative."""
    res = pair_residual(c, P, A_dst, B_dst, A_src, B_src)
    if not res <= CURVE_TOL:
        return [f"{name}: curve({CURVE_S}) residual {res:.3e} > {CURVE_TOL}"]
    return []


def check_validate(report: dict) -> list:
    bad = []
    if report.get("violations"):
        bad.append(f"validate_graph violations {report['violations'][:2]}")
    if not report.get("instances_checked"):
        bad.append("validate_graph checked no instances")
    return bad
