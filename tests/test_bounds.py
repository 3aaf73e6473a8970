import numpy as np
import pytest

from pairorbit.bounds import (
    PreconditionViolated,
    _singularity_radius,
    det_invariant_p,
    nonpath_lower_bound,
    phase_estimate,
)
from pairorbit.congruence import StarTag as T
from pairorbit.families import family_of, representative
from pairorbit.matcore import (
    Complex2x2,
    MatrixPair,
    act_pair,
    act_star,
    group_inverse,
    max_norm,
    sample_group,
    sample_pair,
)
from pairorbit.pairnf import classify_pair

I2 = np.eye(2)


def test_det_invariant_p_examples():
    src = MatrixPair.of(I2, I2)
    dst = MatrixPair.of(np.diag([1.0, -1.0]), I2)
    assert abs(det_invariant_p(src, dst)) < 1e-15
    src = MatrixPair.of(I2, np.diag([1.0, 0.0]))
    dst = MatrixPair.of(I2, I2)
    assert abs(det_invariant_p(src, dst) - 1.0) < 1e-15


def test_det_invariant_p_against_direct_arithmetic():
    for seed in range(200):
        src, dst = sample_pair(seed), sample_pair(seed + 9999)
        direct = abs(np.linalg.det(src.A.m) * np.linalg.det(dst.B.m)) \
            - abs(np.linalg.det(src.B.m) * np.linalg.det(dst.A.m))
        assert abs(det_invariant_p(src, dst) - direct) < 1e-12


def test_certificates_spec_examples():
    # the identity's sharp max-norm singularity radius is 1/2 ([[1,1],[1,1]]/2
    # is a rank-one symmetric matrix at distance 1/2, so the induced-norm
    # value 1 would be falsified by the random search below)
    c = nonpath_lower_bound(MatrixPair.of(I2, np.zeros((2, 2))),
                            MatrixPair.of(np.diag([1.0, 0.0]),
                                          np.zeros((2, 2))))
    assert c.rule == "SingularityRule" and abs(c.bound_E - 0.5) < 1e-12

    c = nonpath_lower_bound(MatrixPair.of(I2, I2),
                            MatrixPair.of(I2, np.diag([1.0, 0.0])))
    assert c.rule == "TcongRule" and abs(c.bound_F - 0.5) < 1e-12

    c = nonpath_lower_bound(MatrixPair.of(I2, I2),
                            MatrixPair.of(np.diag([1.0, -1.0]),
                                          np.diag([2.0, 1.0])))
    assert c.rule == "DetRatioRule"
    assert abs(c.bound_E - 1.0 / 24.0) < 1e-12
    assert abs(c.bound_F - 1.0 / 12.0) < 1e-12


def test_certificate_norm_rule():
    # singular nonzero source so only the norm rule applies on the A side
    c = nonpath_lower_bound(MatrixPair.of([[0.0, 2.0], [0.0, 0.0]],
                                          np.zeros((2, 2))),
                            MatrixPair.of(np.zeros((2, 2)), np.zeros((2, 2))),
                            normalize=False)
    assert c.rule == "NormRule" and abs(c.bound_E - 2.0) < 1e-12
    # a nonzero singular B against a zero B: the norm rule on the B side
    c = nonpath_lower_bound(MatrixPair.of(I2, [[1.0, 2.0], [2.0, 4.0]]),
                            MatrixPair.of(I2, np.zeros((2, 2))),
                            normalize=False)
    assert c.rule == "NormRule" and c.bound_E is None and c.bound_F == 4.0


def test_certificate_of_non_normal_source_is_scaled():
    # src is an orbit point, not the normal form: the certificate is the
    # normal form's, shrunk by 4 ||Q*|| ||Q|| of the reducing element
    rep = representative(family_of(T.DEFINITE, "a_lt_d", a=0.5, d=2.0))
    src = act_pair(sample_group(3), rep)
    dst = representative(family_of(T.DEFINITE, "d0_plus_d", d0=0.0, d=1.0))
    want = nonpath_lower_bound(rep, dst, normalize=False)
    got = nonpath_lower_bound(src, dst)
    Q = classify_pair(src, 1e-9).reducer.P
    scaled = want.bound / (4.0 * max_norm(Q.conj().T) * max_norm(Q))
    assert got.rule == want.rule == "TcongRule"
    assert got.bound < want.bound
    assert abs(got.bound - scaled) <= 1e-12 * scaled


def test_singularity_radius_is_a_lower_bound():
    # on the line X + sF with ||F|| = 1, the singular points are the roots
    # of det(X + sF), a quadratic in s; none lies inside the radius
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(2000):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        X = (X + X.T) * 10.0 ** rng.uniform(-3, 3)
        F = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        F = (F + F.T) / max_norm(F + F.T)
        c1 = X[0, 0] * F[1, 1] + X[1, 1] * F[0, 0] - 2.0 * X[0, 1] * F[0, 1]
        s = np.roots([np.linalg.det(F), c1, np.linalg.det(X)])
        worst = min(worst, np.min(np.abs(s)) / _singularity_radius(X))
    assert worst >= 1.0, worst


def test_certificate_none_when_no_rule():
    # src on a true edge toward dst: no rule applies
    src = representative(family_of(T.ZERO, "zero"))
    dst = representative(family_of(T.DEFINITE, "a_lt_d", a=1.0, d=2.0))
    assert nonpath_lower_bound(src, dst, normalize=False) is None


def test_certificate_soundness_random_search():
    """Falsification sweep: no sampled orbit point of dst lands within the
    certified ball around src."""
    cases = [
        (MatrixPair.of(I2, I2), MatrixPair.of(I2, np.diag([1.0, 0.0]))),
        (MatrixPair.of(I2, I2),
         MatrixPair.of(np.diag([1.0, -1.0]), np.diag([2.0, 1.0]))),
        (MatrixPair.of(np.diag([1.0, 0.4]), np.diag([1.0, 0.7])),
         MatrixPair.of(np.diag([1.0, -1.0]), np.diag([2.0, 1.0]))),
    ]
    for src, dst in cases:
        cert = nonpath_lower_bound(src, dst, normalize=False)
        assert cert is not None
        bE = np.inf if cert.bound_E is None else cert.bound_E
        bF = np.inf if cert.bound_F is None else cert.bound_F
        for seed in range(3000):
            q = act_pair(sample_group(seed), dst)
            dE = max_norm(q.A.m - src.A.m)
            dF = max_norm(q.B.m - src.B.m)
            assert not (dE < bE and dF < bF), (seed, dE, dF)


def test_phase_estimate_values():
    d, g, r = phase_estimate(Complex2x2(I2), Complex2x2(I2), 0.0)
    assert d == 0.0 and g == 0.0 and r == 0.0
    d, g, r = phase_estimate(Complex2x2(I2), Complex2x2(np.diag([1.0, -1.0])),
                             0.01)
    assert abs(abs(d) - np.pi) < 1e-12
    assert abs(g - 0.12) < 1e-12
    assert abs(r - 0.06) < 1e-12


def test_phase_estimate_precondition():
    with pytest.raises(PreconditionViolated):
        phase_estimate(Complex2x2(I2), Complex2x2(I2), 0.2)
    with pytest.raises(PreconditionViolated):
        phase_estimate(Complex2x2(np.diag([1.0, 0.0])), Complex2x2(I2), 0.0)
    # NaN passes both halves of `E_norm < 0 or E_norm > radius`
    for bad, msg in ((float("nan"), "finite"), (float("inf"), "finite"),
                     (-1.0, "nonnegative"), (0.2, "exceeds")):
        with pytest.raises(PreconditionViolated, match=msg):
            phase_estimate(Complex2x2(I2), Complex2x2(I2), bad)
    assert phase_estimate(Complex2x2(I2), Complex2x2(I2), 0.0) == (0.0, 0.0, 0.0)


def test_phase_estimate_monte_carlo():
    src = Complex2x2(np.array([[1.2, 0.3], [0.1j, 1.5]], dtype=complex))
    rng = np.random.default_rng(2)
    checked = 0
    for seed in range(1500):
        g_el = sample_group(seed, 0.8)
        E = 1e-4 * (rng.standard_normal((2, 2))
                    + 1j * rng.standard_normal((2, 2)))
        dst = act_star(group_inverse(g_el), Complex2x2(src.m + E))
        En = max_norm(E)
        try:
            delta, gb, rb = phase_estimate(src, dst, En)
        except PreconditionViolated:
            continue
        checked += 1
        c = g_el.c
        half = np.exp(0.5j * delta)
        assert min(abs(c - half), abs(c + half)) <= gb
        ratio = np.sqrt(abs(np.linalg.det(src.m) / np.linalg.det(dst.m)))
        assert abs(abs(np.linalg.det(g_el.P)) - ratio) <= rb
    assert checked > 1000
