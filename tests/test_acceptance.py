"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
import zlib

import numpy as np

from pairorbit.bounds import nonpath_lower_bound, phase_estimate
from pairorbit.closure import max_f, validate_graph
from pairorbit.families import FAMILIES, representative, sample_params
from pairorbit.matcore import (
    Complex2x2,
    MatrixPair,
    act_pair,
    act_star,
    group_inverse,
    max_norm,
    sample_group,
)
from pairorbit.pairnf import classify_pair
from pairorbit.tangent import orbit_dimension
from pairorbit.witness import perturb_experiment, verify_witness, witness_catalog


def _report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_dimension_table():
    """orbit_dimension(representative) equals the table integer for all 42
    families, >= 5 parameter draws per continuous family, runtime < 5 s."""
    t0 = time.time()
    bad = []
    for key, spec in FAMILIES.items():
        for cls in sample_params(spec, n=5):
            if orbit_dimension(representative(cls)) != spec.dim:
                bad.append(str(cls))
    dt = time.time() - t0
    _report("criterion 1 (dimension table, 42 families x 5 draws)",
            not bad and dt < 5.0, f"mismatches={bad[:3]} runtime={dt:.2f}s")


def test_criterion_2_round_trip_classification():
    """100 seeded group elements per family at spread 1: family recovered
    with 0 failures, parameters within 1e-6, residual <= 1e-8, < 60 s."""
    t0 = time.time()
    failures = []
    for key, spec in FAMILIES.items():
        cls = sample_params(spec, n=1)[0]
        rep = representative(cls)
        key_seed = zlib.crc32(repr(key).encode()) % 97
        for seed in range(100):
            p = act_pair(sample_group(seed + 1000 * key_seed, spread=1.0), rep)
            try:
                out = classify_pair(p)
            except Exception as e:
                failures.append((str(cls), seed, repr(e)))
                continue
            if not out.cls.close_to(cls, 1e-6) or out.residual > 1e-8:
                failures.append((str(cls), seed, str(out.cls), out.residual))
    dt = time.time() - t0
    _report("criterion 2 (round-trip classification, 42 x 100)",
            not failures and dt < 60.0,
            f"failures={len(failures)} {failures[:2]} runtime={dt:.1f}s")


def test_criterion_3_closure_graph_validator():
    """Zero violations of the necessary conditions over every declared edge
    with 20 parameter samples per parameterized edge."""
    rep = validate_graph(samples_per_edge=20, seed=0)
    _report("criterion 3 (graph validator, "
            f"{rep['edges']} edges / {rep['instances_checked']} instances)",
            rep["violations"] == [], f"violations={rep['violations'][:3]}")


def test_criterion_4_max_f_anchors_and_grid():
    """Anchors within 1e-6; agreement with the profile oracle within 1e-4
    on 100 random draws."""
    from test_closure import _profile_max_f
    anchors_ok = (abs(max_f(0, 0, 2.0, np.pi / 2) - 2.0) < 1e-6
                  and abs(max_f(3.0, 0, 0, np.pi / 3) - 3.0) < 1e-6
                  and abs(max_f(1.0, 0, 2.0, 0.0) - 2.0) < 1e-6)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(0, 2, 2)
        d = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        theta = rng.uniform(0.0, 3.05)
        worst = max(worst, abs(max_f(a, b, d, theta)
                               - _profile_max_f(a, b, d, theta)))
    _report("criterion 4 (max_f anchors + profile oracle)",
            anchors_ok and worst < 1e-4,
            f"anchors_ok={anchors_ok} worst_oracle_diff={worst:.2e}")


def test_criterion_5_witness_convergence():
    """Every catalog entry (>= 18) passes verify_witness with final residual
    <= 1e-6 and monotone decay over the standard sweep."""
    cat = witness_catalog()
    bad = []
    for w in cat:
        r = verify_witness(w, (1e-1, 1e-2, 1e-3, 1e-4), tol=1e-6,
                           strict=False)
        if not (r.monotone and r.final_residual <= 1e-6):
            bad.append((w.name, r.residuals))
    _report(f"criterion 5 (witness convergence, {len(cat)} entries)",
            len(cat) >= 18 and not bad, f"bad={bad[:2]}")


def test_criterion_6_nonpath_certificates():
    """Rank-drop case plus 20 determinant-rule cases: a 1e5-sample random
    search never lands within the certified bound; runtime < 120 s."""
    t0 = time.time()
    cases = [(MatrixPair.of(np.eye(2), np.eye(2)),
              MatrixPair.of(np.eye(2), np.diag([1.0, 0.0])))]  # Psi2 rank drop
    rng = np.random.default_rng(5)
    while len(cases) < 21:
        da = complex(rng.uniform(0.5, 2.0))
        db = np.diag(rng.uniform(0.5, 2.0, 2)).astype(complex)
        src = MatrixPair.of(np.diag([1.0, da]), np.diag(rng.uniform(0.5, 2, 2)))
        dst = MatrixPair.of(np.diag([1.0, -rng.uniform(0.5, 2.0)]), db)
        cert = nonpath_lower_bound(src, dst, normalize=False)
        if cert is not None and cert.rule == "DetRatioRule":
            cases.append((src, dst))

    # vectorized orbit sampler: batches of (c, P) acting on dst
    def batch(dst, n, seed):
        rng = np.random.default_rng(seed)
        alpha = rng.uniform(0, 2 * np.pi, n)
        c = np.exp(1j * alpha)
        P = (rng.standard_normal((n, 2, 2))
             + 1j * rng.standard_normal((n, 2, 2))) / np.sqrt(2.0)
        ok = np.abs(np.linalg.det(P)) >= 1e-6
        P, c = P[ok], c[ok]
        Ph = np.conj(np.transpose(P, (0, 2, 1)))
        Pt = np.transpose(P, (0, 2, 1))
        Aq = c[:, None, None] * (Ph @ dst.A.m @ P)
        Bq = Pt @ dst.B.m @ P
        return Aq, Bq

    falsified = []
    for idx, (src, dst) in enumerate(cases):
        cert = nonpath_lower_bound(src, dst, normalize=False)
        bE = np.inf if cert.bound_E is None else cert.bound_E
        bF = np.inf if cert.bound_F is None else cert.bound_F
        remaining = 100_000
        chunk = 20_000
        k = 0
        while remaining > 0:
            Aq, Bq = batch(dst, min(chunk, remaining + 2000), (idx, k))
            take = min(len(Aq), remaining)
            Aq, Bq = Aq[:take], Bq[:take]
            remaining -= take
            k += 1
            dE = np.max(np.abs(Aq - src.A.m), axis=(1, 2))
            dF = np.max(np.abs(Bq - src.B.m), axis=(1, 2))
            hits = np.nonzero((dE < bE) & (dF < bF))[0]
            if len(hits):
                falsified.append((idx, float(dE[hits[0]]), float(dF[hits[0]])))
                break
    dt = time.time() - t0
    _report("criterion 6 (certificate soundness, 21 cases x 1e5 samples)",
            not falsified and dt < 120.0,
            f"falsified={falsified} runtime={dt:.1f}s")


def test_criterion_7_phase_estimate():
    """1e4 seeded trials within the admissible radius: the empirical scalar
    and determinant deviations never exceed g_bound / r_bound."""
    src = Complex2x2(np.array([[1.3, 0.4], [0.2j, 1.6]], dtype=complex))
    rng = np.random.default_rng(9)
    violations = 0
    trials = 0
    radius = abs(np.linalg.det(src.m)) / (8 * max_norm(src.m) + 4)
    while trials < 10_000:
        g = sample_group(trials + 31)
        E = rng.uniform(0.0, radius) * _unit_noise(rng)
        En = max_norm(E)
        dst = act_star(group_inverse(g), Complex2x2(src.m + E))
        try:
            delta, gb, rb = phase_estimate(src, dst, En)
        except Exception:
            continue
        trials += 1
        half = np.exp(0.5j * delta)
        if min(abs(g.c - half), abs(g.c + half)) > gb:
            violations += 1
        ratio = np.sqrt(abs(np.linalg.det(src.m) / np.linalg.det(dst.m)))
        if abs(abs(np.linalg.det(g.P)) - ratio) > rb:
            violations += 1
    _report("criterion 7 (phase estimate, 1e4 trials)", violations == 0,
            f"violations={violations}")


def _unit_noise(rng):
    E = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return E / max_norm(E)


def test_criterion_8_perturbation_lab():
    """All 42 representatives, eps in {1e-3, 1e-5}, n = 1e3 samples: zero
    reached-class violations; unresolved classifications <= 5%."""
    t0 = time.time()
    bad = []
    unresolved_frac = []
    for key, spec in FAMILIES.items():
        cls = sample_params(spec, n=1)[0]
        for eps in (1e-3, 1e-5):
            seed = zlib.crc32(repr((key, eps)).encode()) % 10_000
            rep = perturb_experiment(cls, eps, 1000, seed=seed)
            if rep.violations:
                bad.append((str(cls), eps, rep.violations[:2]))
            unresolved_frac.append(rep.unresolved / rep.samples)
    dt = time.time() - t0
    _report("criterion 8 (perturbation lab, 42 reps x 2 eps x 1000)",
            not bad and max(unresolved_frac) <= 0.05,
            f"violations={bad[:2]} max_unresolved={max(unresolved_frac):.3f} "
            f"runtime={dt:.0f}s")
